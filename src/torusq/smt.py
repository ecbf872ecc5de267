"""Standard monomials of shape m*(omega_1 + omega_{n-1}) on Schubert
varieties in the full flag variety of SL(n), and their torus invariants.

A tableau of this shape has m single-box rows and m rows of length n-1,
given as two bare tuples: ``shorts``, the single-box values, and
``missings``, the value each long row misses, top row of the chain first.
The monomial it names is standard on X(w) when a Bruhat chain
w >= phi_1 >= ... >= phi_2m exists whose i-th member projects onto the
i-th listed row.  Each row pins one end of its chain member (a
single box its first value, a long row its last), so a chain only sees
the pair of end values, and the Bruhat order on those pairs is two
integer comparisons; standardness is decided by walking the largest
admissible pair down the rows (see :func:`is_standard_on`).  The greedy
walk through S_n is kept as an oracle in the test suite.

Torus invariance pins the tableau completely: the single-box values and
the missing values must agree as multisets, and standardness forces the
single boxes to be listed weakly decreasing and the missing values weakly
increasing.  So an invariant tableau is its content, a sorted tuple of
values: the single boxes are the content reversed and the long rows miss
the content itself, and the content is the only form this module gives
it.  That tableau is standard on X(w) exactly when every value lies in
(w(n), w(1)], so the invariant sections form a polynomial ring on
t = max(0, w(1) - w(n)) generators and dim H^0(X(w), L_m)^T =
C(t+m-1, m) (see :func:`invariant_witnesses`).  The pair walk over every
sorted multiset of 1..w(1), read in place, stays as the independent count
(:func:`invariant_dimension`) that the suites compare the closed form
against.  Grassmannian invariant chains live in :mod:`torusq.grassmannian`
(the closed form) and :mod:`torusq.verify` (the certificate sweep).
"""

from itertools import combinations_with_replacement
from math import comb

from .weyl import right_multiply, word_to_perm


# ---------------------------------------------------------------------------
# the standard test


def is_standard_on(shorts, missings, w) -> bool:
    """Is the tableau with these rows standard on X(w)?  Decided on
    (w(1), w(n)) in O(m), n = len(w).

    A single box v pins phi(1) = v and a long row missing d pins phi(n) = d,
    so a chain only sees cosets of W_P, P generated by s_2, ..., s_{n-2}:
    the ordered pairs (a, z) = (phi(1), phi(n)), a != z.  On these, Bruhat
    order is the tableau criterion at prefix lengths 1 and n-1 alone, so
    (a, z) <= (a', z') iff a <= a' and z >= z'.  [e, w] projects onto the
    pairs below (w(1), w(n)), and a chain of pairs lifts to a chain of
    permutations through minimal coset representatives, so the tableau is
    standard on X(w) iff a chain of pairs exists below (w(1), w(n)).

    Among the pairs below (a, z) that meet a row's pin there is a largest,
    and a larger bound never loses a later row, so taking it row by row is
    exact.  A single box v needs v <= a and gives (v, z), or (v, z + 1) if
    z = v; a long row d needs d >= z and gives (a, d), or (a - 1, d) if
    a = d.  The walk fails once z passes n or a reaches 0.  Needs n >= 2:
    SL(1) has no omega_{n-1}.  Refuses rows of unequal length and entries
    outside 1..n.
    """
    n = len(w)
    if n < 2:
        raise ValueError("standardness needs n >= 2")
    if len(shorts) != len(missings):
        raise ValueError("need as many single boxes as long rows")
    for v in (*shorts, *missings):
        if not 1 <= v <= n:
            raise ValueError(f"entry {v} out of range 1..{n}")
    return _pair_walk(shorts, missings, w, n)


def _pair_walk(shorts, missings, w, n: int) -> bool:
    """The walk of :func:`is_standard_on`, unchecked: entries in 1..n."""
    a, z = w[0], w[-1]
    for v in shorts:
        if v > a:
            return False
        a, z = v, z + (z == v)
    for d in missings:
        if d < z:
            return False
        a, z = a - (a == d), d
    return 1 <= a and z <= n


# ---------------------------------------------------------------------------
# invariant section counts


def invariant_generators(w) -> int:
    """t = max(0, w(1) - w(n)): the degree-one invariants on X(w), which
    generate its ring of invariant sections freely."""
    return max(0, w[0] - w[-1])


def monomial_count(t: int, m: int) -> int:
    """C(t+m-1, m): the degree-m monomials in t variables (1 at m = 0,
    where the binomial with t = 0 is undefined)."""
    return comb(t + m - 1, m) if m else 1


def invariant_witnesses(w, m: int) -> list[tuple[int, ...]]:
    """The standard invariant tableaux of shape m*(omega_1+omega_{n-1}) on
    X(w), each given by its content: the multisets of (w(n), w(1)] as
    sorted tuples, in lexicographic order.  A content's single boxes are
    its values read backwards and its long rows miss the values in order.

    Why exactly these: the single boxes come weakly decreasing, so the
    first one is the largest value and must be <= w(1); after them a is
    the smallest value, and z = w(n) has moved (to w(n) + 1) only if
    w(n) itself is a value.  The long rows come weakly increasing, so the
    first one is the smallest value and must be >= z, which rules out any
    value <= w(n); once every value is in (w(n), w(1)] the walk of
    :func:`is_standard_on` never leaves 1 <= a, z <= n.  So there are
    C(t+m-1, m) of them, t = :func:`invariant_generators`, listed in time
    linear in the output.
    """
    if len(w) < 2:
        raise ValueError("standardness needs n >= 2")
    return list(combinations_with_replacement(range(w[-1] + 1, w[0] + 1), m))


def invariant_dimension(w, m: int) -> int:
    """Dimension of the degree-m invariant sections on X(w), by walking
    the pairs of :func:`is_standard_on` down the tableau of every multiset
    of 1..w(1).

    A multiset holding a value above w(1) is never standard: its first
    single box is its largest value, which the walk's first step refuses.
    Each multiset comes sorted, so its single boxes are its values read
    backwards and its missing values the values themselves; the walk
    reads them in place, unchecked, since they lie in 1..n.  The closed
    form C(t+m-1, m) gives the same number; this count stays as the
    independent side that ``pn-check`` and the verify suites compare
    against, so the closed form never checks itself.
    """
    n = len(w)
    if n < 2:
        raise ValueError("standardness needs n >= 2")
    return sum(
        _pair_walk(values[::-1], values, w, n)
        for values in combinations_with_replacement(range(1, w[0] + 1), m)
    )


def projective_normality_check(w, degrees) -> dict:
    """Compare section counts against the free polynomial ring prediction.

    With t = :func:`invariant_generators` independent degree-1 invariants,
    the degree-m count of a polynomial ring on t generators is C(t+m-1, m);
    each degree in ``degrees`` is walked and compared with it.
    """
    t = invariant_generators(w)
    rows = []
    for m in degrees:
        computed = invariant_dimension(w, m)
        expected = monomial_count(t, m)
        rows.append(
            {"m": m, "computed": computed, "expected": expected,
             "match": computed == expected}
        )
    return {"t": t, "degrees": rows, "all_match": all(r["match"] for r in rows)}


# ---------------------------------------------------------------------------
# the minimal semistable elements of the full flag variety


def minimal_borel_semistable(n: int) -> list[tuple[int, ...]]:
    """The n-1 minimal elements of S_n whose Schubert variety has
    semistable points for the weight omega_1 + omega_{n-1}.

    X(w) has semistable points exactly when t = w(1) - w(n) >= 1.  On the
    end pairs (w(1), w(n)) Bruhat order is a <= a' and z >= z', so the
    minimal pairs with t >= 1 are (i+1, i); the minimal elements are the
    Bruhat-minimal w with w(1) = w(n)+1 (t = 1), middle values increasing:
    (i+1, 1, ..., i-1, i+2, ..., n, i) for 1 <= i <= n-1.
    """
    out = []
    for i in range(1, n):
        line = [i + 1] + list(range(1, i)) + list(range(i + 2, n + 1)) + [i]
        out.append(tuple(line))
    return out


# ---------------------------------------------------------------------------
# the three extension families filling the interval up to w_0


def _saturation(case: str, n: int, i: int | None) -> int:
    """The level s at which a family's degree-one count saturates: i + 1
    for the first family, n - 1 for the second, i for the third.  Any
    other (case, i) is refused, and so is the second family below n = 3:
    at n = 2 its row (1, 1) multiplies the seed s_1 by s_1 again, down to
    the identity, which has no invariant, and at n = 1 there is no seed."""
    if case == "a":
        if not 1 <= i <= n - 3:
            raise ValueError("the first family needs 1 <= i <= n-3")
        return i + 1
    if case == "a2":
        if n < 3:
            raise ValueError("the second family needs n >= 3")
        return n - 1
    if case == "b":
        if not 1 <= i <= n - 1:
            raise ValueError("the third family needs 1 <= i <= n-1")
        return i
    raise ValueError(f"unknown family {case!r}")


def family_minimal(case: str, n: int, i: int | None = None):
    """Seed element of one extension family, as a permutation.

    At saturation level s every family starts at s_s ... s_1 s_{s+1} ...
    s_{n-1} = (s+1, 1, ..., s-1, s+2, ..., n, s), the minimal element of
    :func:`minimal_borel_semistable` with w(n) = s (the first two
    families' word s_s ... s_{n-1} s_{s-1} ... s_1 names it too).
    """
    s = _saturation(case, n, i)
    return word_to_perm(tuple(range(s, 0, -1)) + tuple(range(s + 1, n)), n)


def family_rows(case: str, n: int, i: int | None = None):
    """Every admissible (k, j) of a family with its predicted invariant
    count in degree one, tagged by which regime the prediction comes from.

    All three read off the saturation level s: after the seed, row 1
    keeps one invariant until (1, n-1), where the count reaches s, and
    rows 2..s-1 stay at s (the third family skips both at s = 1, where
    its seed is saturated already); then, except in the second family,
    which ends there, row s copies the last element and each row k > s
    grows the count to k.
    """
    s = _saturation(case, n, i)
    rows = [(0, None, 1, "seed")]
    if case != "b" or s > 1:
        rows += [(1, j, 1, "first-pass") for j in range(2, n - 1)]
        rows.append((1, n - 1, s, "saturated"))
        rows += [(k, j, s, "saturated")
                 for k in range(2, s) for j in range(2, n - k + 1)]
    if case != "a2":
        rows.append((s, None, s, "copy"))
        rows += [(k, j, k, "growth")
                 for k in range(s + 1, n) for j in range(1, n - k + 1)]
    return rows


def family_walk(case: str, n: int, i: int | None = None):
    """Every row of :func:`family_rows` with its element, as
    ``(k, j, predicted, tag, element)``.

    Row k extends the last element of row k-1 by right multiplications
    s_start ... s_j, nearest letter first, and its columns run up from
    start to n - k; so each element is the one before it times s_j, and
    the seed and copy rows (no j) repeat the previous element unchanged.
    O(n) per row.
    """
    elt = family_minimal(case, n, i)
    walk = []
    for k, j, predicted, tag in family_rows(case, n, i):
        if j is not None:
            elt = right_multiply(elt, j)
        walk.append((k, j, predicted, tag, elt))
    return walk


def parabolic_lifts(n: int) -> list[tuple[int, ...]]:
    """Maximal coset representatives for the parabolic fixing both ends:
    one permutation per ordered pair (first value, last value), middle
    values sorted in decreasing order."""
    out = []
    for a in range(1, n + 1):
        for z in range(1, n + 1):
            if a == z:
                continue
            middle = sorted(set(range(1, n + 1)) - {a, z}, reverse=True)
            out.append((a, *middle, z))
    return out
