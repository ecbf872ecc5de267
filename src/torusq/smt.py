"""Standard monomials of shape m*(omega_1 + omega_{n-1}) on Schubert
varieties in the full flag variety of SL(n), and their torus invariants.

A tableau of this shape has m single-box rows (their values, listed top
row of the chain first) and m rows of length n-1 (each determined by its
missing value).  The monomial it names is standard on X(w) when a Bruhat
chain w >= phi_1 >= ... >= phi_2m exists whose i-th member projects onto
the i-th listed row.  Chains are found greedily: the set of permutations
with a prescribed first or last value is a parabolic coset, and inside a
coset the elements below a given bound have a unique maximum, so taking
that maximum row by row never paints the search into a corner.  (The
uniqueness is classical; the exhaustive cross-check lives in the test
suite.)

Torus invariance pins the tableau completely: the single-box values and
the missing values must agree as multisets, and standardness forces the
single boxes to be listed weakly decreasing and the missing values weakly
increasing.  Counting invariant sections therefore means counting
multisets whose canonical tableau is standard.

On a Grassmannian Gr(r, n) the invariant standard monomials of degree m
are weakly decreasing chains of m column sets below w that use every
value m*r/n times.  Read backwards and transposed, such a chain is an
r x m semistandard tableau whose row i stays below w_i, so existence is
decided in O(n*r) by filling it value by value, top rows first, with no
search (see :func:`_chain_fits`).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement
from math import comb, gcd

from .weyl import bruhat_leq, pi_projection, right_multiply, word_to_perm


# ---------------------------------------------------------------------------
# tableaux of shape m * (omega_1 + omega_{n-1})


@dataclass(frozen=True)
class Tableau:
    n: int
    shorts: tuple[int, ...]
    missings: tuple[int, ...]

    def __post_init__(self):
        if len(self.shorts) != len(self.missings):
            raise ValueError("need as many single boxes as long rows")
        for v in self.shorts + self.missings:
            if not 1 <= v <= self.n:
                raise ValueError(f"entry {v} out of range 1..{self.n}")

    @property
    def m(self) -> int:
        return len(self.shorts)

    def rows(self):
        """Rows in chain order: all single boxes, then all long rows."""
        return [("short", v) for v in self.shorts] + [
            ("long", d) for d in self.missings
        ]

    def long_row(self, d: int) -> tuple[int, ...]:
        return tuple(v for v in range(1, self.n + 1) if v != d)

    def content_counts(self) -> tuple[int, ...]:
        counts = [0] * self.n
        for v in self.shorts:
            counts[v - 1] += 1
        for d in self.missings:
            for v in range(1, self.n + 1):
                if v != d:
                    counts[v - 1] += 1
        return tuple(counts)

    def is_invariant(self) -> bool:
        """Weight zero: every value appears equally often, i.e. the
        single-box values match the missing values as multisets."""
        return sorted(self.shorts) == sorted(self.missings)


def canonical_invariant_tableau(n: int, values) -> Tableau:
    """The only possibly-standard invariant tableau with given content."""
    values = tuple(values)
    return Tableau(
        n, tuple(sorted(values, reverse=True)), tuple(sorted(values))
    )


# ---------------------------------------------------------------------------
# Young and standard tests


def is_young_on(t: Tableau, w) -> bool:
    """Each row must sit below the matching sorted prefix of w."""
    if t.n != len(w):
        raise ValueError("size mismatch")
    for kind, val in t.rows():
        if kind == "short":
            row, proj = (val,), pi_projection(w, 1)
        else:
            row, proj = t.long_row(val), pi_projection(w, t.n - 1)
        if any(p < r for p, r in zip(proj, row)):
            return False
    return True


def max_coset_member_below(bound, first=None, last=None):
    """Largest permutation x <= bound with x(1) = first and/or x(n) = last.

    Greedy by position, largest value first.  A partial assignment can
    still reach something below the bound iff its cheapest completion can,
    and the cheapest completion just fills the free slots with the unused
    values in increasing order.  Returns None when the coset has nothing
    below the bound.
    """
    n = len(bound)
    line: list[int | None] = [None] * n
    if first is not None:
        line[0] = first
    if last is not None:
        if line[n - 1] is not None and line[n - 1] != last:
            raise ValueError("conflicting pins")
        line[n - 1] = last
    pinned = {v for v in line if v is not None}
    if len(pinned) != sum(1 for v in line if v is not None):
        return None  # same value pinned twice

    def cheapest(partial):
        free = sorted(set(range(1, n + 1)) - {v for v in partial if v is not None})
        it = iter(free)
        return tuple(v if v is not None else next(it) for v in partial)

    if not bruhat_leq(cheapest(line), bound):
        return None
    for p in range(n):
        if line[p] is not None:
            continue
        used = {v for v in line if v is not None}
        for v in sorted(set(range(1, n + 1)) - used, reverse=True):
            line[p] = v
            if bruhat_leq(cheapest(line), bound):
                break
            line[p] = None
        if line[p] is None:  # pragma: no cover - the initial check rules this out
            return None
    return tuple(line)


def is_standard_on(t: Tableau, w) -> bool:
    """Greedy chain test for standardness of the tableau on X(w)."""
    if t.n != len(w):
        raise ValueError("size mismatch")
    bound = tuple(w)
    for kind, val in t.rows():
        if kind == "short":
            bound = max_coset_member_below(bound, first=val)
        else:
            bound = max_coset_member_below(bound, last=val)
        if bound is None:
            return False
    return True


# ---------------------------------------------------------------------------
# invariant section counts


def invariant_witnesses(w, m: int) -> list[Tableau]:
    """All standard invariant tableaux of shape m*(omega_1+omega_{n-1})."""
    n = len(w)
    out = []
    for values in combinations_with_replacement(range(1, n + 1), m):
        t = canonical_invariant_tableau(n, values)
        if is_standard_on(t, w):
            out.append(t)
    return out


def invariant_dimension(w, m: int) -> int:
    """Dimension of the degree-m invariant sections on X(w)."""
    return len(invariant_witnesses(w, m))


def alpha0_semistable_nonempty(w) -> dict:
    """Does X(w) in the full flag variety carry semistable points?

    Invariants can first appear in degree 1 here, so degrees 1 and 2 are
    searched (twice the minimal candidate degree, recorded as the bound).
    """
    for m in (1, 2):
        wits = invariant_witnesses(w, m)
        if wits:
            return {"found": True, "degree": m, "bound": 2, "witness": wits[0]}
    return {"found": False, "degree": None, "bound": 2, "witness": None}


def projective_normality_check(w, degrees=(2, 3)) -> dict:
    """Compare section counts against the free polynomial ring prediction.

    With t independent degree-1 invariants the degree-m count of a
    polynomial ring on t generators is C(t+m-1, m).
    """
    t = invariant_dimension(w, 1)
    rows = []
    for m in degrees:
        computed = invariant_dimension(w, m)
        expected = comb(t + m - 1, m)
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

    Two closed-form families describe them; they overlap so heavily that
    exactly n-1 distinct permutations remain, namely
    (i+1, 1, ..., i-1, i+2, ..., n, i) for 1 <= i <= n-1.
    """
    out = []
    for i in range(1, n):
        line = [i + 1] + list(range(1, i)) + list(range(i + 2, n + 1)) + [i]
        out.append(tuple(line))
    return out


# ---------------------------------------------------------------------------
# the three extension families filling the interval up to w_0


def family_minimal(case: str, n: int, i: int | None = None):
    """Seed element of one extension family, as a permutation."""
    if case == "a":
        if not 1 <= i <= n - 3:
            raise ValueError("the first family needs 1 <= i <= n-3")
        word = tuple(range(i + 1, n)) + tuple(range(i, 0, -1))
    elif case == "a2":
        word = tuple(range(n - 1, 0, -1))
    elif case == "b":
        if not 1 <= i <= n - 1:
            raise ValueError("the third family needs 1 <= i <= n-1")
        word = tuple(range(i, 0, -1)) + tuple(range(i + 1, n))
    else:
        raise ValueError(f"unknown family {case!r}")
    return word_to_perm(word, n)


def _row_plan(case: str, n: int, i: int | None, k: int):
    """(is_copy, first_letter) for row k of a family."""
    if case == "a":
        if k == i + 1:
            return True, None
        return False, 2 if k <= i else 1
    if case == "a2":
        return False, 2
    if k == i:
        return True, None
    return False, 2 if k <= i - 1 else 1


def family_element(case: str, n: int, i: int | None, k: int, j: int | None = None):
    """Element (k, j) of an extension family.

    Row k extends the last element of row k-1 by right multiplications
    s_start ... s_j, nearest letter first; the copy rows repeat the
    previous row's last element unchanged.
    """
    last_k = {"a": n - 1, "a2": n - 2, "b": n - 1}[case]
    if not 0 <= k <= last_k:
        raise ValueError(f"row {k} out of range for this family")
    elt = family_minimal(case, n, i)
    for kk in range(1, k + 1):
        is_copy, start = _row_plan(case, n, i, kk)
        if is_copy:
            continue
        end = j if kk == k else n - kk
        if end is None:
            raise ValueError("a non-copy row needs its column index j")
        if not start <= end <= n - kk:
            raise ValueError(f"column {end} out of range {start}..{n - kk} in row {kk}")
        for a in range(start, end + 1):
            elt = right_multiply(elt, a)
    return elt


def family_rows(case: str, n: int, i: int | None = None):
    """Every admissible (k, j) of a family with its predicted invariant
    count in degree one, tagged by which regime the prediction comes from."""
    rows = [(0, None, 1, "seed")]
    if case == "a":
        if not 1 <= i <= n - 3:
            raise ValueError("the first family needs 1 <= i <= n-3")
        for j in range(2, n - 1):
            rows.append((1, j, 1, "first-pass"))
        rows.append((1, n - 1, i + 1, "saturated"))
        for k in range(2, i + 1):
            for j in range(2, n - k + 1):
                rows.append((k, j, i + 1, "saturated"))
        rows.append((i + 1, None, i + 1, "copy"))
        for k in range(i + 2, n):
            for j in range(1, n - k + 1):
                rows.append((k, j, k, "growth"))
    elif case == "a2":
        for j in range(2, n - 1):
            rows.append((1, j, 1, "first-pass"))
        rows.append((1, n - 1, n - 1, "saturated"))
        for k in range(2, n - 1):
            for j in range(2, n - k + 1):
                rows.append((k, j, n - 1, "saturated"))
    elif case == "b":
        if not 1 <= i <= n - 1:
            raise ValueError("the third family needs 1 <= i <= n-1")
        if i >= 2:
            for j in range(2, n - 1):
                rows.append((1, j, 1, "first-pass"))
            rows.append((1, n - 1, i, "saturated"))
            for k in range(2, i):
                for j in range(2, n - k + 1):
                    rows.append((k, j, i, "saturated"))
        rows.append((i, None, i, "copy"))
        for k in range(i + 1, n):
            for j in range(1, n - k + 1):
                rows.append((k, j, k, "growth"))
    else:
        raise ValueError(f"unknown family {case!r}")
    return rows


def dimension_table(case: str, n: int, i: int | None = None) -> dict:
    """Computed vs predicted degree-one invariant counts along a family."""
    table = []
    for k, j, predicted, tag in family_rows(case, n, i):
        elt = family_element(case, n, i, k, j)
        computed = invariant_dimension(elt, 1)
        table.append(
            {"k": k, "j": j, "element": elt, "predicted": predicted,
             "computed": computed, "tag": tag, "match": computed == predicted}
        )
    return {"case": case, "n": n, "i": i, "rows": table,
            "all_match": all(r["match"] for r in table)}


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


def _chain_fits(bound, need, r: int) -> bool:
    """Is there a weakly decreasing chain of r-element column sets, the
    first one below ``bound``, that uses each value v exactly
    ``need[v-1]`` times?

    Reverse such a chain and write its column sets as the columns of an
    r x M array (M = sum(need) / r): the result is a semistandard tableau
    of rectangular shape with content ``need`` whose row i has entries
    <= bound[i] (a flagged tableau), and every such tableau reads back as
    a chain.  Build it value by value: the copies of v form a horizontal
    strip on the shape lambda of the smaller values, so row 1 takes at
    most M - lambda_1 of them and row i at most lambda_{i-1} - lambda_i.
    Put them in the top rows first.  The filling fails when some copy
    fits nowhere, or when row i is not full once value bound[i] is in.

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
    fill rows 1..i.  Runs in O(n*r).
    """
    total = sum(need)
    if total % r:
        return False
    width = total // r
    shape = [0] * r
    for v, copies in enumerate(need, start=1):
        above = width
        for i in range(r):
            take = min(copies, above - shape[i])
            above = shape[i]
            shape[i] += take
            copies -= take
        if copies or any(shape[i] < width for i in range(r) if bound[i] <= v):
            return False
    return True


def _uniform_need(r: int, n: int, m: int):
    """Each of 1..n used m*r/n times, or None when that is no integer."""
    target, rem = divmod(m * r, n)
    return None if rem else (target,) * n


def invariant_chain_gr(w, r: int, n: int, m: int):
    """A weakly decreasing chain of m column sets below w covering each of
    1..n exactly m*r/n times, or None.

    This is the Grassmannian semistability certificate: such a chain is
    exactly a torus-invariant standard monomial of degree m on X_w.  The
    chain returned is the lexicographically first one, column sets taken
    in decreasing order: at each step the first candidate below the last
    set whose remaining content still fits (:func:`_chain_fits`).
    """
    w = tuple(w)
    need = _uniform_need(r, n, m)
    if need is None or not _chain_fits(w, need, r):
        return None
    rows = sorted(combinations(range(1, n + 1), r), reverse=True)

    def rest(cand):
        left = list(need)
        for v in cand:
            left[v - 1] -= 1
        return left

    chain = []
    bound = w
    for _ in range(m):
        bound = next(
            cand
            for cand in rows
            if all(c <= b and need[c - 1] for c, b in zip(cand, bound))
            and _chain_fits(cand, rest(cand), r)
        )
        need = rest(bound)
        chain.append(bound)
    return tuple(chain)


def _certificate_degrees(r: int, n: int) -> tuple[int, int]:
    """m0 = n / gcd(r, n), the least degree where m*r/n is whole, and 2*m0."""
    m0 = n // gcd(r, n)
    return m0, 2 * m0


def semistable_nonempty_gr(w, r: int, n: int) -> dict:
    """Search for an invariant chain on X_w in the two smallest plausible
    degrees, m0 and 2*m0 where m0 = n / gcd(r, n); a negative answer is
    therefore relative to the reported bound."""
    degrees = _certificate_degrees(r, n)
    for m in degrees:
        chain = invariant_chain_gr(w, r, n, m)
        if chain is not None:
            return {"found": True, "degree": m, "bound": degrees[1], "witness": chain}
    return {"found": False, "degree": None, "bound": degrees[1], "witness": None}


def minimal_semistable_oracle_gr(r: int, n: int) -> list[tuple[int, ...]]:
    """Minimal column sets with a semistable certificate in degree m0 or
    2*m0, by a sweep over every column set (existence only, no chain is
    built)."""
    needs = [_uniform_need(r, n, m) for m in _certificate_degrees(r, n)]
    hits = [
        w
        for w in combinations(range(1, n + 1), r)
        if any(_chain_fits(w, need, r) for need in needs)
    ]
    return [
        w
        for w in hits
        if not any(
            u != w and all(a <= b for a, b in zip(u, w)) for u in hits
        )
    ]
