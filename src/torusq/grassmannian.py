"""Schubert varieties in Gr(r, n) through their Young diagrams.

A Schubert variety is named either by its column set, an increasing tuple
``(i_1 < ... < i_r)`` drawn from 1..n, or by the partition it cuts out of
the r x (n-r) box, ``lambda_j = n - r + j - i_j``.  Larger partitions are
*smaller* varieties: X_mu contains X_lam iff mu <= lam entrywise.

Everything singular about these varieties is visible on the diagram.  Each
inner corner of mu (a removable cell that is not blocked by the box edge)
spawns one irreducible component of the singular locus: add the cell
diagonally below-right of the corner, then pad minimally so rows increase
weakly upward.  No corners that fit, no singular locus — equivalently the
complement of mu in the box, rotated a half turn, is again a rectangle.
"""

from math import gcd


def check_box(r: int, n: int) -> None:
    if not (1 <= r <= n - 1):
        raise ValueError(f"need 1 <= r <= n-1, got r={r}, n={n}")


def check_indexset(entries, r: int, n: int) -> tuple[int, ...]:
    entries = tuple(entries)
    if len(entries) != r:
        raise ValueError(f"index set {entries} should have {r} entries")
    if list(entries) != sorted(set(entries)):
        raise ValueError(f"index set {entries} must be strictly increasing")
    if entries and not (1 <= entries[0] and entries[-1] <= n):
        raise ValueError(f"index set {entries} must lie in 1..{n}")
    return entries


def check_partition(parts, r: int, n: int) -> tuple[int, ...]:
    parts = tuple(parts)
    if len(parts) != r:
        raise ValueError(f"partition {parts} should have {r} parts (pad with 0)")
    if parts and (min(parts) < 0 or max(parts) > n - r):
        raise ValueError(f"partition {parts} leaves the {r}x{n - r} box")
    if parts != tuple(sorted(parts, reverse=True)):
        raise ValueError(f"partition {parts} must be weakly decreasing")
    return parts


def indexset_to_partition(entries, r: int, n: int) -> tuple[int, ...]:
    """lambda_j = n - r + j - i_j."""
    check_box(r, n)
    entries = check_indexset(entries, r, n)
    return tuple(n - r + j - i for j, i in enumerate(entries, start=1))


def partition_to_indexset(parts, r: int, n: int) -> tuple[int, ...]:
    """Inverse of :func:`indexset_to_partition`."""
    check_box(r, n)
    parts = check_partition(parts, r, n)
    return tuple(n - r + j - p for j, p in enumerate(parts, start=1))


def diagram_leq(mu, lam) -> bool:
    """Containment of diagrams: mu fits inside lam."""
    if len(mu) != len(lam):
        raise ValueError("size mismatch")
    return all(m <= l for m, l in zip(mu, lam))


def indexset_leq(a, b) -> bool:
    """Bruhat order on column sets (entrywise on sorted tuples)."""
    if len(a) != len(b):
        raise ValueError("size mismatch")
    return all(x <= y for x, y in zip(sorted(a), sorted(b)))


def corners(mu, r: int, n: int) -> list[tuple[int, int]]:
    """Inner corners of the diagram that can still grow diagonally.

    A corner is a cell (k, mu_k) ending its row strictly to the right of
    the row below, with mu_k >= 1; rows already touching the right wall of
    the box (mu_k = n - r) are not corners.
    """
    check_box(r, n)
    mu = check_partition(mu, r, n)
    out = []
    for k in range(1, r + 1):
        here = mu[k - 1]
        below = mu[k] if k < r else 0
        if here >= 1 and here > below and here != n - r:
            out.append((k, here))
    return out


def singular_components(mu, r: int, n: int) -> list[tuple[int, ...]]:
    """Partitions indexing the components of the singular locus of X_mu.

    For each corner (k, c): place a cell at (k+1, c+1) and complete the
    result minimally to a partition (rows from the first of length c down
    to row k+1 become c+1).  Corners whose new cell would leave the box
    contribute nothing, so one pass reads the corners that count: mu_{k+1}
    < mu_k = c < n - r.  Two corners grow partitions that differ in the
    row below the lower one.  The box and the partition are checked once.
    """
    check_box(r, n)
    mu = check_partition(tuple(mu), r, n)
    out = []
    for k, (c, below) in enumerate(zip(mu, mu[1:]), start=1):
        if below < c < n - r:
            j = mu.index(c)
            out.append(mu[:j] + (c + 1,) * (k + 1 - j) + mu[k + 1 :])
    return out


def is_smooth(mu, r: int, n: int) -> bool:
    """Smoothness of X_mu: the rotated complement is again a rectangle,
    its non-zero rows n - r - mu_k taking one value at most."""
    check_box(r, n)
    return len(set(check_partition(mu, r, n)) - {n - r}) < 2


def minimal_semistable(r: int, n: int) -> tuple[int, ...]:
    """Column set of the smallest Schubert variety with semistable points.

    The i-th entry is ceil(i*n/r).  Lower bound: an invariant section of
    degree m is a product of m Pluecker coordinates, pairwise comparable
    and all below w, using every value exactly mr/n times; each factor has
    at least i entries <= w_i, and values <= w_i supply only w_i * mr/n
    slots, so w_i >= in/r in every degree.  Degree m0 = n' = n/g attains
    it (g = gcd(r, n), r' = r/g): S_k = {ceil((i*n' - k)/r') : i = 1..r}
    for k = 0..m0-1 is a weakly decreasing chain from S_0 = v, and as
    u = i*n' - k runs over 1..r*n' once, each value ceil(u/r') is used
    r' = m0*r/n times.  So this is the unique minimum (``verify
    minima-sweep`` re-derives it from every column set's certificate,
    :func:`torusq.verify.minimal_semistable_oracle_gr`);
    :func:`minimal_invariant_chain` writes the chain down.
    """
    check_box(r, n)
    return tuple(-((-i * n) // r) for i in range(1, r + 1))


def minimal_invariant_chain(r: int, n: int) -> tuple[tuple[int, ...], ...]:
    """The chain S_0 = v >= ... >= S_{m0-1} of :func:`minimal_semistable`'s
    proof.  Cell u = 1..r*m0 of an r x m0 grid, read row by row, holds
    ceil(u/r'); column j holds u = i*m0 - (m0-1-j), so it is S_{m0-1-j},
    and the columns read last first are the chain: the one the top-first
    fill of the flagged tableau (:func:`torusq.verify._chain_fits`) reads
    back at every w >= v."""
    check_box(r, n)
    g = gcd(r, n)
    m0 = n // g
    cells = [v for v in range(1, n + 1) for _ in range(r // g)]
    return tuple(tuple(cells[j::m0]) for j in reversed(range(m0)))


def minimal_semistable_formula(r: int, n: int) -> tuple[int, ...]:
    """A two-branch closed form for the same element, kept for comparison.

    Write n = q*r + t with 1 <= t <= r; the i-th entry is a_i + 1 where
    a_i = i(q+1) for i <= t-1 and a_i = iq + t - 1 afterwards, i.e.
    iq + min(i, t-1) + 1.  This agrees with :func:`minimal_semistable`
    when n = 1 mod r but overshoots otherwise (already for Gr(3,5) it
    names the whole Grassmannian).  Report paths surface the disagreement
    instead of asserting either.
    """
    check_box(r, n)
    q, s = divmod(n - 1, r)  # s = t - 1; min(i, s) inlined, at a third of its cost
    return tuple(i * q + (i if i < s else s) + 1 for i in range(1, r + 1))
