"""Standard monomials of shape m*(omega_1 + omega_{n-1}) on Schubert
varieties in the full flag variety of SL(n), and their torus invariants.

A tableau of this shape has m single-box rows (their values, listed top
row of the chain first) and m rows of length n-1 (each determined by its
missing value).  The monomial it names is standard on X(w) when a Bruhat
chain w >= phi_1 >= ... >= phi_2m exists whose i-th member projects onto
the i-th listed row.  Each row pins one end of its chain member (a
single box its first value, a long row its last), so a chain only sees
the pair of end values, and the Bruhat order on those pairs is two
integer comparisons; standardness is decided by walking the largest
admissible pair down the rows (see :func:`is_standard_on`).  The greedy
walk through S_n is kept as an oracle in the test suite.

Torus invariance pins the tableau completely: the single-box values and
the missing values must agree as multisets, and standardness forces the
single boxes to be listed weakly decreasing and the missing values weakly
increasing.  The canonical tableau of a multiset is standard on X(w)
exactly when every value lies in (w(n), w(1)], so the invariant sections
form a polynomial ring on t = max(0, w(1) - w(n)) generators and
dim H^0(X(w), L_m)^T = C(t+m-1, m) (see :func:`invariant_witnesses`).
The pair walk over every multiset of 1..n, read off the sorted multiset
without building its tableau, stays as the independent count
(:func:`invariant_dimension`) that the suites compare the closed form
against.

On a Grassmannian Gr(r, n) the invariant standard monomials of degree m
are weakly decreasing chains of m column sets below w that use every
value m*r/n times.  Read backwards and transposed, such a chain is an
r x m semistandard tableau whose row i stays below w_i, so existence is
decided in O(n*r) by filling it value by value, top rows first, with no
search (see :func:`_chain_fits`), and the filling read column by column
is the chain that ``gr analyze`` prints (:func:`invariant_chain_gr`),
found without listing the column sets of the box.
"""

from collections import namedtuple
from itertools import combinations, combinations_with_replacement
from math import comb, gcd

from .weyl import right_multiply, word_to_perm


# ---------------------------------------------------------------------------
# tableaux of shape m * (omega_1 + omega_{n-1})


class Tableau(namedtuple("Tableau", "n shorts missings")):
    __slots__ = ()

    def __new__(cls, n: int, shorts: tuple[int, ...], missings: tuple[int, ...]):
        if len(shorts) != len(missings):
            raise ValueError("need as many single boxes as long rows")
        for v in shorts + missings:
            if not 1 <= v <= n:
                raise ValueError(f"entry {v} out of range 1..{n}")
        return super().__new__(cls, n, shorts, missings)

    @classmethod
    def _make(cls, iterable):
        # ``_replace`` builds through ``_make``: both must check as well
        return cls(*iterable)

    @property
    def m(self) -> int:
        return len(self.shorts)


def canonical_invariant_tableau(n: int, values) -> Tableau:
    """The only possibly-standard invariant tableau with given content."""
    values = tuple(values)
    return Tableau(
        n, tuple(sorted(values, reverse=True)), tuple(sorted(values))
    )


# ---------------------------------------------------------------------------
# the standard test


def is_standard_on(t: Tableau, w) -> bool:
    """Is the tableau standard on X(w)?  Decided on (w(1), w(n)) in O(m).

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
    SL(1) has no omega_{n-1}.
    """
    if t.n != len(w):
        raise ValueError("size mismatch")
    if t.n < 2:
        raise ValueError("standardness needs n >= 2")
    return _pair_walk(t.shorts, t.missings, w, t.n)


def _pair_walk(shorts, missings, w, n: int) -> bool:
    """The walk of :func:`is_standard_on` on bare rows, entries in 1..n."""
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


def invariant_witnesses(w, m: int) -> list[Tableau]:
    """All standard invariant tableaux of shape m*(omega_1+omega_{n-1}) on
    X(w): the canonical tableaux of the multisets of (w(n), w(1)], in
    lexicographic order of their content.

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
    n = len(w)
    if n < 2:
        raise ValueError("standardness needs n >= 2")
    return [
        canonical_invariant_tableau(n, values)
        for values in combinations_with_replacement(range(w[-1] + 1, w[0] + 1), m)
    ]


def invariant_dimension(w, m: int) -> int:
    """Dimension of the degree-m invariant sections on X(w), by walking
    the pairs of :func:`is_standard_on` down the canonical tableau of
    every multiset of 1..n.

    Each multiset comes sorted, so the single boxes are its values read
    backwards and the missing values the values themselves; the walk
    reads them in place and builds no tableau.  The closed form
    C(t+m-1, m) gives the same number; this count stays as the
    independent side that ``pn-check`` and the verify suites compare
    against, so the closed form never checks itself.
    """
    n = len(w)
    if n < 2:
        raise ValueError("standardness needs n >= 2")
    return sum(
        _pair_walk(values[::-1], values, w, n)
        for values in combinations_with_replacement(range(1, n + 1), m)
    )


def projective_normality_check(w, degrees, t: int | None = None) -> dict:
    """Compare section counts against the free polynomial ring prediction.

    With t independent degree-1 invariants the degree-m count of a
    polynomial ring on t generators is C(t+m-1, m).  A caller that has
    walked the degree-one count already passes it as ``t``.
    """
    if t is None:
        t = invariant_dimension(w, 1)
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


# ---------------------------------------------------------------------------
# Grassmannian side: invariant chains of column sets


def _chain_fits(bound, need, r: int):
    """A weakly decreasing chain of r-element column sets, the first one
    below ``bound``, that uses each value v exactly ``need[v-1]`` times,
    as the rows of its flagged tableau (below); None if there is none.

    Reverse such a chain and write its column sets as the columns of an
    r x M array (M = sum(need) / r): the result is a semistandard tableau
    of rectangular shape with content ``need`` whose row i has entries
    <= bound[i] (a flagged tableau), and every such tableau reads back as
    a chain.  Build it value by value: the copies of v form a horizontal
    strip on the shape lambda of the smaller values, so row 1 takes at
    most M - lambda_1 of them and row i at most lambda_{i-1} - lambda_i.
    Put them in the top rows first.  The filling fails when some copy
    fits nowhere, or when row i is not full once value bound[i] is in.
    Each row comes back as its runs (value, count), left to right, so a
    caller that only asks whether a chain exists builds no cells; test
    the result against None, since the filling of an empty content is a
    chain too.

    Why top rows first loses nothing (exchange argument): write P_i for
    the number of cells in rows 1..i.  Adding k cells top-first turns P_i
    into min(P_i + k, P_{i-1} + M).  Any horizontal strip of k cells gives
    at most that, since it adds k cells in all and its row j is no longer
    than the old row j-1.  Both bounds grow with P_i and P_{i-1}, so if
    lambda dominates mu (P_i(lambda) >= P_i(mu) for every i), the
    top-first successor of lambda dominates every successor of mu.  By
    induction from the empty shape, the top-first shape dominates the
    shape of every valid partial filling; it never puts a value into a
    row whose flag it has passed, because such rows are already full.
    Dominance is all both failure tests look at: the room for the next
    strip is M - lambda_r, largest for the dominant shape (its last row is
    the shortest), and rows 1..i are full exactly when P_i = i*M, which
    holds for the dominant shape whenever it holds for any.  So the
    top-first filling fails only if every filling does.
    This is the counting behind the lower bound w_i >= i*n/r in
    :func:`torusq.grassmannian.minimal_semistable`: values <= w_i must
    fill rows 1..i.  Each strip starts at the first row that is not full
    (full rows form a prefix and stay full), so a fit costs O(n) plus the
    rows its strips walk, O(n*r) at worst.
    """
    total = sum(need)
    if total % r:
        return None
    width = total // r
    shape = [0] * r
    rows = [[] for _ in range(r)]
    f = 0  # rows before f are full, and stay full: strips start at row f
    k = 0  # rows before k have flags <= v and are full, and stay full
    for v, copies in enumerate(need, start=1):
        above = width
        for i in range(f, r):
            take = min(copies, above - shape[i])
            if take:
                rows[i].append((v, take))
            above = shape[i]
            shape[i] += take
            copies -= take
            if not copies:
                break
        if copies:
            return None
        while f < r and shape[f] == width:
            f += 1
        while k < r and bound[k] <= v:
            if shape[k] < width:
                return None
            k += 1
    return rows


def _uniform_need(r: int, n: int, m: int):
    """Each of 1..n used m*r/n times, or None when that is no integer."""
    target, rem = divmod(m * r, n)
    return None if rem else (target,) * n


def invariant_chain_gr(w, r: int, n: int, m: int):
    """A weakly decreasing chain of m column sets below w covering each of
    1..n exactly m*r/n times, or None.

    This is the Grassmannian semistability certificate: such a chain is
    exactly a torus-invariant standard monomial of degree m on X_w.  The
    chain returned is the top-first filling of :func:`_chain_fits` at
    bound w, read column by column, last column first.  It is a valid
    chain: a horizontal strip puts at most one cell in a column, so each
    column strictly increases and is a column set; rows weakly increase,
    so each column is entrywise >= the one before it, and read backwards
    the chain weakly decreases; row i is full before any value above w_i
    is placed, so the last column, the first set of the chain, is <= w.
    One fill, O(n*r) plus the m*r cells of the chain.  None in degree
    n / gcd(r, n) rules out every degree (see
    :func:`is_certified_minimum_gr`).
    """
    need = _uniform_need(r, n, m)
    rows = None if need is None else _chain_fits(w, need, r)
    if rows is None:
        return None
    cells = [[v for v, count in runs for _ in range(count)] for runs in rows]
    return tuple(zip(*cells))[::-1]


def is_certified_minimum_gr(v, r: int, n: int) -> bool:
    """Does v have an invariant chain in degree n / gcd(r, n) while none
    of its lower covers has one?

    For v = :func:`torusq.grassmannian.minimal_semistable` these r + 1 fits
    give what :func:`minimal_semistable_oracle_gr` sweeps for: the sets
    with a chain in degree m form an up-set (:func:`_chain_fits` places
    copies without reading the bound; a larger flag only delays the
    row-fullness test), lie above v, and hold v in degree n / gcd(r, n)
    (both shown at ``minimal_semistable``), so their minima are [v].
    """
    need = _uniform_need(r, n, n // gcd(r, n))
    covers = (v[:i] + (v[i] - 1,) + v[i + 1:] for i in range(r)
              if v[i] - 1 > (v[i - 1] if i else 0))
    return _chain_fits(v, need, r) is not None and all(
        _chain_fits(u, need, r) is None for u in covers)


def _certificate_degrees(r: int, n: int) -> tuple[int, int]:
    """m0 = n / gcd(r, n), the least degree where m*r/n is whole, and 2*m0."""
    m0 = n // gcd(r, n)
    return m0, 2 * m0


def minimal_semistable_oracle_gr(r: int, n: int) -> list[tuple[int, ...]]:
    """Minimal column sets with a semistable certificate in degree m0 or
    2*m0, by a sweep over every column set (existence only, no chain is
    built)."""
    needs = [_uniform_need(r, n, m) for m in _certificate_degrees(r, n)]
    hits = [
        w
        for w in combinations(range(1, n + 1), r)
        if any(_chain_fits(w, need, r) is not None for need in needs)
    ]
    return [
        w
        for w in hits
        if not any(
            u != w and all(a <= b for a, b in zip(u, w)) for u in hits
        )
    ]
