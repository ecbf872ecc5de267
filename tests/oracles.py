"""Independent ground-truth computations used by the test suite.

Nothing here shares an algorithm with the package: Bruhat order is walked
through covers instead of prefix dominance, standardness is decided by
exhaustive chain search, or by the greedy maximum through S_n (on the
package's prefix-dominance Bruhat test, itself checked against the cover
walk), instead of the walk on end-value pairs, the invariant witnesses
and their count are every multiset's rows filtered through the checked
walk instead of the multisets of (w(n), w(1)] listed directly or each
sorted multiset walked in place unchecked, Grassmannian invariant chains by
depth-first search instead of the flagged-tableau filling, that filling
starts every strip at row 1 instead of at the first row that is not
full, section counts
come from linear algebra (ranks of evaluation matrices at random points
of the open cell) instead of tableau combinatorics, the minuscule
ideal/node dictionary finds the ideals by a search of its own, on a
quiver order closed from arrows read off the definition instead of the
package's per-vertex arrow lists, and replays each one's whole word from
the top weight instead of reflecting once per added vertex, a word is
checked and applied letter by letter on weights instead of grown into an
ideal on the quiver, the minuscule
orbit is searched breadth first over its cover edges instead of being read
off the order ideals of the quiver, a quiver's arrows are found by one
Cartan pairing per pair of positions instead of the latest vertex of each
Dynkin neighbour, and its order ideals by testing every vertex against
every ideal instead of carrying each ideal's addable vertices, smoothness
is read off the Poincare polynomial of the ideals below, off homogeneity
on positive roots grown from the Cartan rows, or, with the singular
components, off the T-stable curves through each fixed point, instead of
the real holes, a commutation move's quiver isomorphism compares every
vertex's target tuple mapped and sorted, or the two arrow sets, instead
of the target tuples vertex by vertex with only those holding a swapped
position sorted again, or reads the swap through a permutation list of every
position instead of slices and a two-entry map, a hole's partners are counted by Cartan pairings instead
of label membership, the up-set of a candidate hole is scanned afresh as
a set instead of read off bitmasks built once per quiver, an ideal is a
set of positions instead of a bitmask (converted with :func:`as_mask` only
where an answer is handed back to be compared) and is tested for
down-closure against every member's targets, which the package never
tests since it only grows ideals by addable vertices, Grassmannian smoothness
reads the rotated complement row by row instead of as one set of parts,
singular components are grown from the listed corners instead of in one
pass over the rows, their column sets compared with the minimal
semistable one instead of one inequality read per gap, and an extension family's
element is rebuilt from
the seed row by row instead of one right multiplication after the row
before it, root data probes a set of Dynkin edge pairs for every entry
of a Cartan matrix, which only the oracles build (:func:`cartan_matrix`,
read by every pairing here), instead of listing each node's neighbours
from the edges, so a pairing checked against a neighbour list reads no
data the package built, the bottom node and
canonical words scan the whole weight for each letter and take one simple
reflection (:func:`reflect`, which the package no longer has) and one
tuple per step instead of stepping a list in place from a sorted list of
candidates, and an ideal's canonical word is read off the tops of the
quiver's labels, popped off a heap, instead of walked on the ideal's
node.  Agreement between the two sides is what the tests assert.
The one exception runs the package's own filling,
``torusq.verify._chain_fits``: :func:`is_certified_minimum_gr`, r + 1
runs that check the proven minimal semistable element on boxes too large
for the sweep of every column set.  :func:`invariant_chain_gr`, the
reference for the closed-form chain, reads its chain off the filling from
row 1 here (:func:`chain_fits_from_row_one`).
"""

import random
from fractions import Fraction
from functools import cache
from heapq import heappop, heappush
from itertools import combinations, combinations_with_replacement, permutations
from math import gcd
from operator import add, sub

from torusq.grassmannian import check_box, check_partition, corners
from torusq.quiver import HoleReport, Quiver
from torusq.rootdata import _edges, fundamental_weight
from torusq.smt import (
    family_minimal,
    family_rows,
    invariant_dimension,
    is_standard_on,
)
from torusq.verify import _chain_fits
from torusq.weyl import bruhat_leq, pi_projection, right_multiply, word_to_perm


# ---------------------------------------------------------------------------
# Bruhat order via the cover relation


_downsets = {}


def inversions(w):
    return sum(
        1
        for a in range(len(w))
        for b in range(a + 1, len(w))
        if w[a] > w[b]
    )


def bruhat_downset(w):
    """All permutations <= w, collected by walking covers downward.

    A cover of w is w with two positions swapped so that the inversion
    count drops by exactly one; the Bruhat interval [e, w] is the
    cover-reachable set.
    """
    w = tuple(w)
    if w in _downsets:
        return _downsets[w]
    n = len(w)
    down = {w}
    frontier = [w]
    while frontier:
        x = frontier.pop()
        lx = inversions(x)
        for a in range(n):
            for b in range(a + 1, n):
                if x[a] > x[b]:
                    y = list(x)
                    y[a], y[b] = y[b], y[a]
                    y = tuple(y)
                    if y not in down and inversions(y) == lx - 1:
                        down.add(y)
                        frontier.append(y)
    _downsets[w] = down
    return down


def bruhat_leq_bruteforce(u, w):
    return tuple(u) in bruhat_downset(w)


# ---------------------------------------------------------------------------
# pinned cosets and exhaustive standardness


def pinned_permutations(n, first=None, last=None):
    """Every permutation of 1..n with prescribed first and/or last value."""
    fixed = [v for v in (first, last) if v is not None]
    if len(set(fixed)) != len(fixed):
        return
    free = [v for v in range(1, n + 1) if v not in fixed]
    holes = n - len(fixed)
    for middle in permutations(free, holes):
        line = list(middle)
        if first is not None:
            line = [first] + line
        if last is not None:
            line = line + [last]
        yield tuple(line)


_step_memo = {}


def _next_bounds(bound, kind, val):
    """Maximal coset members below the bound (all of them, no uniqueness
    assumption); memoized because tableaux share their row steps."""
    key = (bound, kind, val)
    if key in _step_memo:
        return _step_memo[key]
    n = len(bound)
    first = val if kind == "short" else None
    last = val if kind == "long" else None
    below = [
        c
        for c in pinned_permutations(n, first, last)
        if c in bruhat_downset(bound)
    ]
    below.sort(key=inversions, reverse=True)
    keep = []
    for c in below:
        if not any(c in bruhat_downset(k) for k in keep):
            keep.append(c)
    _step_memo[key] = keep
    return keep


def tableau_rows(shorts, missings):
    """Rows in chain order: all single boxes, then all long rows."""
    return [("short", v) for v in shorts] + [("long", d) for d in missings]


def is_standard_exhaustive(shorts, missings, w):
    """Chain search over every admissible coset member, row by row.

    Keeps only dominated-free intermediate bounds (anything reachable
    below a kept bound is reachable below it, so dropping dominated
    branches loses nothing).
    """
    bounds = [tuple(w)]
    for kind, val in tableau_rows(shorts, missings):
        nxt = []
        for bound in bounds:
            for cand in _next_bounds(bound, kind, val):
                if not any(cand in bruhat_downset(k) for k in nxt):
                    nxt.append(cand)
        if not nxt:
            return False
        bounds = nxt
    return True


def is_young_on(shorts, missings, w):
    """The Young condition, necessary for standardness: each row lies
    entrywise below the sorted prefix of w of the same length."""
    n = len(w)
    for kind, val in tableau_rows(shorts, missings):
        if kind == "short":
            row, prefix = (val,), sorted(w[:1])
        else:
            row, prefix = [v for v in range(1, n + 1) if v != val], sorted(w[:-1])
        if any(p < x for p, x in zip(prefix, row)):
            return False
    return True


# ---------------------------------------------------------------------------
# greedy standardness through S_n


def max_coset_member_below(bound, first=None, last=None):
    """Largest permutation x <= bound with x(1) = first and/or x(n) = last.

    Greedy by position, largest value first.  A partial assignment can
    still reach something below the bound iff its cheapest completion can,
    and the cheapest completion just fills the free slots with the unused
    values in increasing order.  Returns None when the coset has nothing
    below the bound.
    """
    n = len(bound)
    line = [None] * n
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
        if line[p] is None:  # the initial check rules this out
            return None
    return tuple(line)


def is_standard_greedy(shorts, missings, w):
    """Standardness by the greedy chain through S_n: each row replaces
    the bound by the largest permutation below it with the row's pin."""
    bound = tuple(w)
    for kind, val in tableau_rows(shorts, missings):
        if kind == "short":
            bound = max_coset_member_below(bound, first=val)
        else:
            bound = max_coset_member_below(bound, last=val)
        if bound is None:
            return False
    return True


def invariant_witnesses_by_filter(w, m):
    """The contents of the standard invariant tableaux of degree m on
    X(w), by filtering every multiset of 1..n through the package's
    checked pair walk, in lexicographic order."""
    n = len(w)
    return [
        values
        for values in combinations_with_replacement(range(1, n + 1), m)
        if is_standard_on(values[::-1], values, w)
    ]


# ---------------------------------------------------------------------------
# Grassmannian invariant chains by depth-first search


def invariant_chain_exhaustive(w, r, n, m):
    """The first weakly decreasing chain of m column sets below w that
    covers each of 1..n exactly m*r/n times, or None.

    Depth-first over candidate sets in decreasing lexicographic order,
    memoised on (bound, remaining content); exponential when no chain
    exists.
    """
    target, rem = divmod(m * r, n)
    if rem:
        return None
    memo = {}
    rows = sorted(combinations(range(1, n + 1), r), reverse=True)

    def search(bound, need):
        total = sum(need)
        if total == 0:
            return ()
        key = (bound, need)
        if key in memo:
            return memo[key]
        result = None
        rows_left = total // r
        if all(x <= rows_left for x in need) and all(
            need[v - 1] == 0 or v <= bound[-1] for v in range(1, n + 1)
        ):
            for cand in rows:
                if any(c > b for c, b in zip(cand, bound)):
                    continue
                if any(need[v - 1] == 0 for v in cand):
                    continue
                nxt = list(need)
                for v in cand:
                    nxt[v - 1] -= 1
                sub = search(cand, tuple(nxt))
                if sub is not None:
                    result = (cand,) + sub
                    break
        memo[key] = result
        return result

    return search(tuple(w), (target,) * n)


def uniform_need(r, n, m):
    """Each of 1..n used m*r/n times, or None when that is no integer."""
    target, rem = divmod(m * r, n)
    return None if rem else (target,) * n


def chain_fits_from_row_one(bound, need, r):
    """The top-first flagged-tableau filling that ``torusq.verify._chain_fits``
    decides, with each value's strip walked down from row 1, full rows
    included: each row as its runs (value, count), left to right, or None
    when the filling fails."""
    total = sum(need)
    if total % r:
        return None
    width = total // r
    shape = [0] * r
    rows = [[] for _ in range(r)]
    k = 0  # rows before k have flags <= v and are full, and stay full
    for v, copies in enumerate(need, start=1):
        above = width
        for i in range(r):
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
        while k < r and bound[k] <= v:
            if shape[k] < width:
                return None
            k += 1
    return rows


def invariant_chain_gr(w, r, n, m):
    """The chain that :func:`chain_fits_from_row_one` fills at bound w in
    degree m, read column by column, last column first; None when the
    fill fails or m*r/n is no integer.

    A horizontal strip puts at most one cell in a column, so each column
    strictly increases and is a column set; rows weakly increase, so read
    backwards the columns weakly decrease; row i is full before any value
    above w_i is placed, so the last column, the first set of the chain,
    is <= w.  This fill read back is the reference that the closed form
    ``torusq.grassmannian.minimal_invariant_chain`` is compared with.
    """
    need = uniform_need(r, n, m)
    rows = None if need is None else chain_fits_from_row_one(w, need, r)
    if rows is None:
        return None
    cells = [[v for v, count in runs for _ in range(count)] for runs in rows]
    return tuple(zip(*cells))[::-1]


def is_certified_minimum_gr(v, r, n):
    """Does v have an invariant chain in degree n / gcd(r, n) while none
    of its lower covers has one?

    These r + 1 fits of ``torusq.verify._chain_fits`` check the proof at
    ``torusq.grassmannian.minimal_semistable`` rather than share nothing
    with it: the sets with a chain in degree m form an up-set (the fill
    places copies without reading the bound; a larger flag only delays the
    row-fullness test), so for that v they give what
    ``torusq.verify.minimal_semistable_oracle_gr`` sweeps every column set
    for, on boxes too large for the sweep.
    """
    need = uniform_need(r, n, n // gcd(r, n))
    covers = (v[:i] + (v[i] - 1,) + v[i + 1:] for i in range(r)
              if v[i] - 1 > (v[i - 1] if i else 0))
    return _chain_fits(v, need, r) and not any(
        _chain_fits(u, need, r) for u in covers)


def is_invariant_chain(chain, w, r, n, m):
    """Is ``chain`` a weakly decreasing chain of m column sets of Gr(r, n),
    the first one below w, that uses each of 1..n exactly m*r/n times?"""
    if len(chain) != m or (m * r) % n:
        return False
    bound = tuple(w)
    for cols in map(tuple, chain):
        if len(cols) != r or list(cols) != sorted(set(cols)):
            return False
        if cols[0] < 1 or any(c > b for c, b in zip(cols, bound)):
            return False
        bound = cols
    uses = [0] * n
    for cols in chain:
        for v in cols:
            uses[v - 1] += 1
    return uses == [m * r // n] * n


# ---------------------------------------------------------------------------
# section counts by evaluation rank
#
# A weight-zero section of the m-th power of the line bundle for
# omega_1 + omega_{n-1} is spanned by products prod_{l in L} x_l y_l over
# multisets L, where x_l / y_l are the l-th coordinates of the two
# projective factors.  On the open cell of X(w) the point b * e_w has
# x = column w(1) of b and y = row w(n) of b^{-1}, both integral for
# integral unitriangular b.  The restricted span's dimension is the rank
# of the evaluation matrix at enough generic points, and surjectivity of
# restriction from the full flag variety makes that rank the full
# invariant section count on X(w).


def random_unitriangular(n, rng):
    b = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            b[i][j] = rng.randint(-99, 99)
    return b


def invert_unitriangular(b):
    """Exact integer inverse by back substitution (column by column)."""
    n = len(b)
    cols = []
    for c in range(n):
        x = [0] * n
        x[c] = 1
        for i in range(c - 1, -1, -1):
            x[i] = -sum(b[i][k] * x[k] for k in range(i + 1, c + 1))
        cols.append(x)
    return [[cols[j][i] for j in range(n)] for i in range(n)]


def matrix_rank(matrix):
    rows = [[Fraction(v) for v in row] for row in matrix]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        head = rows[rank]
        for i in range(rank + 1, len(rows)):
            if rows[i][col]:
                f = rows[i][col] / head[col]
                rows[i] = [a - f * h for a, h in zip(rows[i], head)]
        rank += 1
        if rank == len(rows):
            break
    return rank


def invariant_dim_geometric(w, m, seed=0):
    """Invariant section count on X(w) in degree m, by evaluation rank."""
    w = tuple(w)
    n = len(w)
    multis = list(combinations_with_replacement(range(n), m))
    rng = random.Random(f"evaluation:{w}:{m}:{seed}")
    points = []
    for _ in range(len(multis) + 3):
        b = random_unitriangular(n, rng)
        binv = invert_unitriangular(b)
        x = [b[l][w[0] - 1] for l in range(n)]
        y = [binv[w[-1] - 1][l] for l in range(n)]
        points.append([x[l] * y[l] for l in range(n)])
    matrix = []
    for mset in multis:
        row = []
        for pt in points:
            value = 1
            for l in mset:
                value *= pt[l]
            row.append(value)
        matrix.append(row)
    return matrix_rank(matrix)


# ---------------------------------------------------------------------------
# extension families rebuilt from the seed


def _row_plan(case, n, i, k):
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


def family_element(case, n, i, k, j=None):
    """Element (k, j) of an extension family, rebuilt from the seed.

    Row k extends the last element of row k-1 by right multiplications
    s_start ... s_j, nearest letter first; the copy rows repeat the
    previous row's last element unchanged.  O(k*n) right multiplications
    per element, against one per row in ``family_walk``.
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


def dimension_table(case, n, i=None):
    """Computed vs predicted degree-one invariant counts along a family,
    each element rebuilt by :func:`family_element`."""
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


# ---------------------------------------------------------------------------
# Grassmannian smoothness row by row, singular components from the corners


def is_smooth_by_complement_rows(mu, r, n):
    """Smoothness of X_mu with the rotated complement built row by row:
    its non-zero rows must all equal the first of them."""
    check_box(r, n)
    mu = check_partition(mu, r, n)
    complement = tuple(n - r - mu[r - 1 - k] for k in range(r))
    nonzero = [c for c in complement if c > 0]
    return all(c == nonzero[0] for c in nonzero)


def singular_components_by_corners(mu, r, n):
    """The singular components of X_mu grown one listed corner at a time:
    each corner (k, c) of ``grassmannian.corners`` raises rows 1..k+1 to
    at least c + 1, corners whose cell would leave the box are skipped,
    and duplicates are merged."""
    mu = tuple(mu)
    seen = []
    for k, c in corners(mu, r, n):
        if k + 1 > r or c + 1 > n - r:
            continue
        grown = list(mu)
        for t in range(k + 1):
            grown[t] = max(grown[t], c + 1)
        grown = tuple(grown)
        if grown not in seen:
            seen.append(grown)
    return seen


def separated_by_components(w, r, n):
    """Does the semistable locus of X_w, w above the minimal semistable
    column set v = (ceil(i*n/r)), avoid its singular locus?  Each
    component of :func:`singular_components_by_corners` is turned back into
    its column set and compared with v entrywise, instead of one
    inequality read at each gap of w."""
    lam = tuple(n - r + j - i for j, i in enumerate(w, start=1))
    v = [-(-i * n // r) for i in range(1, r + 1)]
    return not any(
        all(x <= n - r + j - m for j, (x, m) in enumerate(zip(v, mu), start=1))
        for mu in singular_components_by_corners(lam, r, n)
    )


# ---------------------------------------------------------------------------
# root data probed pair by pair


def root_data_by_pairs(family, rank):
    """``(cartan, neighbours)`` of a root system, every entry probed in the
    set of ordered Dynkin edges."""
    adjacent = set()
    for a, b in _edges(family, rank):
        adjacent.add((a, b))
        adjacent.add((b, a))
    nodes = range(1, rank + 1)
    cartan = tuple(
        tuple(2 if i == j else (-1 if (i, j) in adjacent else 0) for j in nodes)
        for i in nodes
    )
    neighbours = tuple(tuple(j for j in nodes if (i, j) in adjacent) for i in nodes)
    return cartan, neighbours


@cache
def cartan_matrix(family, rank):
    """The Cartan matrix of :func:`root_data_by_pairs`, probed once per
    system: every pairing the oracles take reads it, and the package has
    none of its own."""
    return root_data_by_pairs(family, rank)[0]


# ---------------------------------------------------------------------------
# minuscule words replayed on weights


def simple_root(system, i):
    """Simple root ``alpha_i`` in fundamental-weight coordinates: row i of
    the Cartan matrix."""
    return cartan_matrix(system.family, system.rank)[i - 1]


def reflect(system, mu, i):
    """Apply the simple reflection ``s_i`` to a weight.

    ``s_i(mu) = mu - <mu, alpha_i^vee> * alpha_i``; in fundamental-weight
    coordinates the pairing is just ``mu[i-1]``.  In a minuscule orbit that
    pairing is always -1, 0 or 1, so those take a short path.
    """
    if len(mu) != system.rank:
        raise ValueError(f"weight has length {len(mu)}, expected {system.rank}")
    c = mu[i - 1]
    if c == 0:
        return tuple(mu)
    alpha = simple_root(system, i)
    if c == 1:
        return tuple(map(sub, mu, alpha))
    if c == -1:
        return tuple(map(add, mu, alpha))
    return tuple(m - c * a for m, a in zip(mu, alpha))


def bottom_by_reflections(system, weight_index):
    """The bottom node of the orbit by greedy descent: reflect at the first
    coordinate equal to +1 until none is left."""
    cur = fundamental_weight(system, weight_index)
    while 1 in cur:
        cur = reflect(system, cur, cur.index(1) + 1)
    return cur


def canonical_word_by_scans(poset, mu):
    """The canonical word of the node ``mu`` of ``poset`` by greedy ascent:
    reflect at the first coordinate equal to -1 until none is left, the
    letters in the order taken; ``ValueError`` unless that ends at the top."""
    mu = tuple(mu)
    word, cur = [], mu
    if len(mu) == poset.system.rank:
        while -1 in cur:
            word.append(cur.index(-1) + 1)
            cur = reflect(poset.system, cur, word[-1])
    if cur != poset.top:
        raise ValueError(f"{mu} is not in the orbit")
    return tuple(word)


def word_descends(poset, word):
    """True if the word is reduced as a coset representative of ``poset``.

    Each letter, applied nearest-first, must be a simple-root index that
    strictly lowers the weight (coordinate +1 at that index); then
    len(word) == depth of the result.
    """
    cur = poset.top
    for i in reversed(tuple(word)):
        if not 1 <= i <= poset.system.rank or cur[i - 1] != 1:
            return False
        cur = reflect(poset.system, cur, i)
    return True


def node_from_word(poset, word):
    """Apply a word to the top weight of ``poset``, rightmost letter first."""
    cur = poset.top
    for i in reversed(tuple(word)):
        cur = reflect(poset.system, cur, i)
    return cur


def permutation(poset, mu):
    """One-line form of the minimal representative of the node ``mu``
    (type A only): the canonical word multiplied out in S_n."""
    if poset.system.family != "A":
        raise ValueError("permutations only make sense in type A")
    return word_to_perm(poset.canonical_word(mu), poset.system.rank + 1)


def indexset(poset, mu):
    """The r-element column set of the node ``mu`` (type A only)."""
    return pi_projection(permutation(poset, mu), poset.weight_index)


# ---------------------------------------------------------------------------
# quivers by pairing scans


def repetitions(word):
    """``(prev, next)``: for each position i of ``word``, p(i) and s(i),
    the previous and the next position carrying the same letter, or
    ``None``, read by one scan of the word."""
    prv, nxt = [None] * len(word), [None] * len(word)
    last_seen = {}
    for i, b in enumerate(word):
        p = last_seen.get(b)
        if p is not None:
            prv[i], nxt[p] = p, i
        last_seen[b] = i
    return tuple(prv), tuple(nxt)


def quiver_by_pairing_scan(word, system):
    """The quiver of a reduced word with every arrow tested from the
    definition: for each vertex i, one Cartan pairing with every later
    position up to the next repetition s(i) of its letter, O(N^2) pairings.
    """
    word = tuple(word)
    for b in word:
        if not 1 <= b <= system.rank:
            raise ValueError(f"letter {b} out of range for {system}")
    N, cartan = len(word), cartan_matrix(system.family, system.rank)
    nxt = repetitions(word)[1]
    targets = [[] for _ in range(N)]
    for i in range(N):
        stop = nxt[i] if nxt[i] is not None else N
        for j in range(i + 1, stop):
            if cartan[word[i] - 1][word[j] - 1] != 0:
                targets[i].append(j)
    return Quiver(system, word, tuple(map(tuple, targets)))


def word_of_by_heap(minuscule, ideal):
    """The canonical word of an ideal of a ``MinusculeQuiver``'s full
    quiver, read off the quiver: it removes the maximal vertex of the
    smallest label with one.  Only a label's first member, its top, can be
    maximal, and is when it comes before the tops of the neighbour labels,
    whose latest earlier vertices send the arrows into it.  Each label
    counts the neighbour tops before its own, a heap holds the labels with
    none, and a removed top moves down to s(top), changing only the counts
    of its label and neighbours."""
    chains, nxt = minuscule.masks[1], repetitions(minuscule.full.word)[1]
    neighbours = ((),) + minuscule.system.neighbours
    end = len(nxt)
    top = [end] * len(chains)
    for b, chain in enumerate(chains):
        mask = ideal & chain
        if mask:
            top[b] = (mask & -mask).bit_length() - 1
    blocked, heap = [0] * len(top), []
    for b, t in enumerate(top):
        if t < end:
            blocked[b] = sum(top[c] < t for c in neighbours[b])
            if not blocked[b]:
                heappush(heap, b)
    word = []
    while heap:
        b = heappop(heap)
        word.append(b)
        s = nxt[top[b]]
        new = top[b] = end if s is None else s
        blocked[b] = 0
        for c in neighbours[b]:
            if top[c] < new:
                blocked[b] += 1
                blocked[c] -= 1
                if not blocked[c]:
                    heappush(heap, c)
        if new < end and not blocked[b]:
            heappush(heap, b)
    return tuple(word)


def quivers_isomorphic_by_sorted_targets(qa, qb, p):
    """The swap isomorphism of a commutation move at p, p+1, tested on
    every vertex's target tuple: the image of each tuple under the swap,
    sorted, must be the target tuple of the image vertex in ``qb``."""
    sigma = list(range(qa.n_vertices))
    sigma[p], sigma[p + 1] = p + 1, p  # its own inverse
    image = sigma.__getitem__
    return qb.word == tuple(map(qa.word.__getitem__, sigma)) and qb.targets == tuple(
        tuple(sorted(map(image, ts))) for ts in map(qa.targets.__getitem__, sigma)
    )


def quivers_isomorphic_by_arrow_sets(qa, qb, p):
    """The swap isomorphism of a commutation move at p, p+1, tested on
    the arrows as sets: the swap must carry the labels of ``qa`` onto
    those of ``qb`` and its arrows (i, j) onto the arrows of ``qb``.
    Target order is not compared."""
    sigma = list(range(qa.n_vertices))
    sigma[p], sigma[p + 1] = p + 1, p
    return qb.word == tuple(map(qa.word.__getitem__, sigma)) and {
        (i, j) for i, ts in enumerate(qb.targets) for j in ts
    } == {(sigma[i], sigma[j]) for i, ts in enumerate(qa.targets) for j in ts}


def quivers_isomorphic_under_swap_by_sigma(word_a, targets_a, word_b, targets_b, p):
    """``quiver.quivers_isomorphic_under_swap`` as it was before it read
    the swapped word off slices: the swap is a permutation list sigma of
    all N positions, the swapped word is read through it, and so is each
    target of a list holding p or p + 1."""
    sigma = list(range(len(word_a)))
    sigma[p], sigma[p + 1] = p + 1, p  # its own inverse
    if word_b != tuple(map(word_a.__getitem__, sigma)):
        return False
    if targets_b[p + 2 :] != targets_a[p + 2 :]:
        return False
    for i in range(p + 2):
        ts = targets_a[i]
        if p in ts or p + 1 in ts:
            if list(targets_b[sigma[i]]) != sorted(map(sigma.__getitem__, ts)):
                return False
        elif targets_b[sigma[i]] != ts:
            return False
    return True


def as_mask(vertices):
    """A set of positions as the package's bitmask: bit v for each v."""
    return sum(1 << v for v in set(vertices))


def marked_set(mask):
    """The positions of a bitmask as a set, bit by bit."""
    return frozenset(v for v in range(mask.bit_length()) if mask >> v & 1)


def is_ideal(q, mask):
    """Down-closed in the quiver ``q``: the vertex set ``mask`` holds the
    targets of each of its vertices, so it is closed under paths."""
    members = marked_set(mask)
    return all(members.issuperset(q.targets[v]) for v in members)


def ideals_by_vertex_scan(q):
    """``Quiver.ideals`` with every vertex tested against every ideal.

    Breadth first from the empty ideal; each ideal tries all N vertices in
    increasing order and keeps those outside it whose targets it holds,
    O(ideals * N) subset tests on sets.  Returns the same ``(ideal, v, k)``
    triples, k the index of the ideal that v was added to, each ideal as
    a mask.
    """
    found = [(frozenset(), None, None)]
    seen = {frozenset()}
    for k, (ideal, _, _) in enumerate(found):
        for v in range(q.n_vertices):
            if v not in ideal and ideal.issuperset(q.targets[v]):
                grown = ideal | {v}
                if grown not in seen:
                    seen.add(grown)
                    found.append((grown, v, k))
    return [(as_mask(ideal), v, k) for ideal, v, k in found]


def is_smooth_by_poincare(ideals, w):
    """Smoothness of the Schubert variety of the ideal mask ``w``, read off
    its Poincare polynomial sum_{u <= w} q^l(u), not its holes.

    In minuscule G/P the Bruhat order is containment of order ideals and
    the length is the ideal's size, so the polynomial is the histogram of
    popcounts of the ``ideals`` (masks) inside w.  It is palindromic iff
    X(w) is rationally smooth (Carrell-Peterson 1994), which in a simply
    laced group is smooth (Peterson's ADE theorem).
    """
    counts = [0] * (w.bit_count() + 1)
    for u in ideals:
        if u & ~w == 0:
            counts[u.bit_count()] += 1
    return counts == counts[::-1]


def up_set_by_scan(q, i):
    """Every vertex weakly above i, in one scan down from i - 1: arrows
    increase the position, so each vertex comes after its targets."""
    up = {i}
    for j in range(i - 1, -1, -1):
        if not up.isdisjoint(q.targets[j]):
            up.add(j)
    return frozenset(up)


def classify_holes_by_pairing(q, ideal):
    """Real, virtual and essential holes of the ideal mask ``ideal`` of
    the quiver ``q``, with every partner of a candidate tested by a Cartan
    pairing.

    A candidate is a marked vertex i whose p(i) is unmarked or absent; it
    is real when exactly two marked vertices j != i weakly above it pair
    nontrivially with it, and essential when no other real hole is weakly
    above it.  Returns ``(real, virtual, essential)``.
    """
    members, cartan = marked_set(ideal), cartan_matrix(q.system.family, q.system.rank)
    prv, nxt = repetitions(q.word)
    real, above = [], {}
    for i in sorted(members):
        p = prv[i]
        if p is not None and p in members:
            continue
        above[i] = up_set_by_scan(q, i)
        count = 0
        for j in above[i] & members:
            if j != i and cartan[q.word[j] - 1][q.word[i] - 1] != 0:
                count += 1
        if count == 2:
            real.append(i)
    virtual = [i for i in range(q.n_vertices) if i not in members and nxt[i] is None]
    essential = [i for i in real if not any(j != i and j in above[i] for j in real)]
    return tuple(real), tuple(virtual), tuple(essential)


def classify_holes_by_scans(q, ideal):
    """``classify_holes`` with each candidate's up-set scanned afresh as a
    set (:func:`up_set_by_scan`), every marked vertex tested for a marked
    p(i), and its partners counted by label membership; the components are
    the marked set minus the up-set of each essential hole.  Returns a
    ``HoleReport``, the components as masks."""
    members, labels, neighbours = marked_set(ideal), q.word, q.system.neighbours
    prv, nxt = repetitions(q.word)
    real, above = [], {}
    for i in sorted(members):
        p = prv[i]
        if p is not None and p in members:
            continue
        above[i] = up_set_by_scan(q, i)
        b = labels[i]
        partners = {b, *neighbours[b - 1]}
        if len([j for j in above[i] & members if j != i and labels[j] in partners]) == 2:
            real.append(i)
    virtual = [i for i in range(q.n_vertices) if i not in members and nxt[i] is None]
    essential = [i for i in real if not any(j != i and j in above[i] for j in real)]
    return HoleReport(
        tuple(real), tuple(virtual), tuple(essential),
        tuple(as_mask(members - above[h]) for h in essential),
    )


# ---------------------------------------------------------------------------
# smoothness by T-stable curves and by homogeneity


@cache
def positive_roots(family, rank):
    """The positive roots, as coefficient tuples over the simple roots, in
    increasing order, grown from the simple roots: beta + alpha_j is a root
    exactly when <beta, alpha_j^vee> = -1, a root string being at most two
    roots long in a simply laced system."""
    cartan = cartan_matrix(family, rank)
    frontier = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    roots = set(frontier)
    while frontier:
        grown = []
        for beta in frontier:
            for j in range(rank):
                if sum(c * row[j] for c, row in zip(beta, cartan)) == -1:
                    up = beta[:j] + (beta[j] + 1,) + beta[j + 1:]
                    if up not in roots:
                        roots.add(up)
                        grown.append(up)
        frontier = grown
    return sorted(roots)


def tangent_curves(system, nodes):
    """The T-stable curves of G/P among the orbit weights ``nodes``, as one
    bitmask per node: bit j of entry i is set when ``nodes[i] - nodes[j]``
    is a root, positive or negative, in fundamental-weight coordinates."""
    cartan = cartan_matrix(system.family, system.rank)
    roots = set()
    for beta in positive_roots(system.family, system.rank):
        weight = tuple(sum(c * row[j] for c, row in zip(beta, cartan))
                       for j in range(system.rank))
        roots |= {weight, tuple(-a for a in weight)}
    return [
        sum(1 << j for j, nu in enumerate(nodes) if tuple(map(sub, mu, nu)) in roots)
        for mu in nodes
    ]


def singular_components_by_curves(curves, ideals, w):
    """The component ideal masks of Sing X(w), largest first, empty exactly
    when X(w) is smooth, counted on T-stable curves instead of holes.

    ``ideals[i]`` is the ideal mask of the node of ``curves[i]``
    (:func:`tangent_curves`); the nodes below w are those whose ideal lies
    in w.  X(w) is smooth at the fixed point mu iff exactly l(w) = |w| of
    its T-stable curves pass through mu (Carrell-Peterson 1994, with
    Brion-Polo 1999 and Lakshmibai-Weyman 1990 for minuscule G/P of a
    simply laced group), and never fewer; the components of Sing X(w) are
    the Schubert varieties of the maximal nodes with more."""
    inside = sum(1 << i for i, u in enumerate(ideals) if u & ~w == 0)
    singular = []
    for i, u in enumerate(ideals):
        if inside >> i & 1:
            through = (curves[i] & inside).bit_count()
            if through < w.bit_count():
                raise AssertionError(f"{through} T-stable curves at a point of a "
                                     f"{w.bit_count()}-dimensional Schubert variety")
            if through > w.bit_count():
                singular.append(u)
    components = []
    for u in sorted(singular, key=int.bit_count, reverse=True):
        if not any(u & ~c == 0 for c in components):
            components.append(u)
    return components


def is_homogeneous(system, weight_index, letters, length):
    """Smoothness of X(w) in minuscule G/P as homogeneity (Brion-Polo 1999,
    Hong-Mok 2013): the set J of the ``letters`` of w is connected and
    holds the marked node k, and ``length`` = l(w) is the number of
    positive roots supported on J whose coefficient at alpha_k is 1, the
    dimension of the homogeneous space of the Levi of J.  The point
    X(e), with no letters, is smooth."""
    if not letters:
        return length == 0
    cartan, k = cartan_matrix(system.family, system.rank), weight_index
    reached, frontier = {k}, [k]
    while frontier:
        a = frontier.pop()
        for b in letters:
            if b not in reached and cartan[a - 1][b - 1] == -1:
                reached.add(b)
                frontier.append(b)
    if k not in letters or reached != set(letters):
        return False
    return length == sum(
        1 for beta in positive_roots(system.family, system.rank)
        if beta[k - 1] == 1 and all(c == 0 or j in letters for j, c in enumerate(beta, 1))
    )


# ---------------------------------------------------------------------------
# minuscule ideal/node dictionary by word replay


def quiver_order_by_closure(system, word):
    """Everything weakly below each vertex of the quiver of ``word``.

    The arrows come straight from the definition, one test per pair of
    positions: i -> j when i < j, the letters pair nontrivially and the
    letter of i does not recur in positions i+1..j.  Each vertex's set is
    itself plus the sets of its targets, built from the last position
    back, so the order is the full transitive closure, O(N^2) integers.
    """
    n, cartan = len(word), cartan_matrix(system.family, system.rank)
    below = [frozenset()] * n
    for i in range(n - 1, -1, -1):
        acc = {i}
        for j in range(i + 1, n):
            if cartan[word[i] - 1][word[j] - 1] != 0 and word[i] not in word[i + 1:j + 1]:
                acc |= below[j]
        below[i] = frozenset(acc)
    return below


def ideal_node_dictionary_by_words(poset, q):
    """Map every order ideal of the full quiver ``q`` to its orbit node.

    Ideals are grown one addable vertex at a time (a vertex is addable when
    everything strictly below it is in, by the closure of
    :func:`quiver_order_by_closure`), listed by size and then by their
    sorted entries, and each ideal's letters read in increasing position
    order are applied to the top weight as a reduced word.  The ideals are
    sets until the dictionary is returned, keyed by their masks.
    """
    n = q.n_vertices
    below = [
        reach - {v} for v, reach in enumerate(quiver_order_by_closure(q.system, q.word))
    ]
    found = {frozenset()}
    frontier = [frozenset()]
    while frontier:
        grown = {
            ideal | {v}
            for ideal in frontier
            for v in range(n)
            if v not in ideal and below[v] <= ideal
        }
        frontier = list(grown - found)
        found |= grown
    return {
        as_mask(ideal): node_from_word(poset, tuple(q.word[i] for i in sorted(ideal)))
        for ideal in sorted(found, key=lambda s: (len(s), sorted(s)))
    }


# ---------------------------------------------------------------------------
# minuscule orbit by breadth-first search


def minuscule_orbit_by_bfs(system, weight_index):
    """The W-orbit of the minuscule ``omega_{weight_index}``, graded by depth.

    Breadth first from the dominant weight, lowering along every simple
    root whose coordinate is +1 (one reflection per cover edge).  Returns
    the nodes in graded order, the depth of each node and the unique
    deepest node.
    """
    top = fundamental_weight(system, weight_index)
    depth = {top: 0}
    nodes = [top]
    frontier = [top]
    while frontier:
        nxt = []
        for mu in frontier:
            for i in range(1, system.rank + 1):
                if mu[i - 1] == 1:
                    child = reflect(system, mu, i)
                    if child not in depth:
                        depth[child] = depth[mu] + 1
                        nodes.append(child)
                        nxt.append(child)
        frontier = nxt
    for mu in nodes:
        if any(c not in (-1, 0, 1) for c in mu):
            raise AssertionError(f"non-minuscule coordinate in orbit: {mu}")
    deepest = max(depth.values())
    bottoms = [mu for mu, d in depth.items() if d == deepest]
    if len(bottoms) != 1:
        raise AssertionError("orbit has no unique bottom element")
    return nodes, depth, bottoms[0]
