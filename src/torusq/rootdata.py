"""Dynkin data for the simply laced families A, D, E6 and E7.

All weights downstream are written in fundamental-weight coordinates: entry
``i`` of a weight vector is its pairing with the ``i``-th simple coroot.  In
that basis the ``i``-th simple root is 2 at ``i`` and -1 at each Dynkin
neighbour of ``i``, so the simple reflection ``s_i`` sends coordinate ``c``
at ``i`` to ``-c`` and adds ``c`` at each neighbour: the neighbour lists are
the one encoding of the diagram, and no matrix or inner product is built.

Numbering of simple roots follows the standard tables: type A is the path
``1 - 2 - ... - n``; type D is the path ``1 - ... - (n-2)`` with both ``n-1``
and ``n`` attached to ``n-2``; in E6 and E7 node ``2`` hangs off node ``4``
of the path ``1 - 3 - 4 - 5 - 6 (- 7)``.
"""

from math import comb
from operator import itemgetter

Weight = tuple[int, ...]

FAMILIES = ("A", "D", "E6", "E7")


class RootSystem(tuple):
    """A simply laced root system, identified by family and rank;
    ``neighbours[i - 1]`` lists the Dynkin neighbours of node ``i``, in
    increasing order.  A simple reflection at ``i`` steps coordinate ``i``
    and these neighbours, and reads nothing else of the system."""

    __slots__ = ()

    def __new__(cls, family, rank, neighbours):
        return tuple.__new__(cls, (family, rank, neighbours))

    family, rank, neighbours = map(property, map(itemgetter, range(3)))

    def __str__(self) -> str:
        if self.family in ("E6", "E7"):
            return self.family
        return f"{self.family}{self.rank}"


def _edges(family: str, rank: int) -> list[tuple[int, int]]:
    if family == "A":
        return [(i, i + 1) for i in range(1, rank)]
    if family == "D":
        path = [(i, i + 1) for i in range(1, rank - 2)]
        return path + [(rank - 2, rank - 1), (rank - 2, rank)]
    if family == "E6":
        return [(1, 3), (3, 4), (4, 5), (5, 6), (2, 4)]
    if family == "E7":
        return [(1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (2, 4)]
    raise ValueError(f"unknown family {family!r}")


def _validate(family: str, rank: int) -> None:
    if family not in FAMILIES:
        raise ValueError(f"family must be one of {FAMILIES}, got {family!r}")
    if family == "A" and rank < 1:
        raise ValueError(f"type A needs rank >= 1, got {rank}")
    if family == "D" and rank < 4:
        raise ValueError(f"type D needs rank >= 4, got {rank}")
    if family == "E6" and rank != 6:
        raise ValueError(f"E6 has rank 6, got {rank}")
    if family == "E7" and rank != 7:
        raise ValueError(f"E7 has rank 7, got {rank}")


def root_system(family: str, rank: int) -> RootSystem:
    """Build the root system of the given family and rank, O(rank)."""
    _validate(family, rank)
    neighbours = [[] for _ in range(rank)]
    for a, b in _edges(family, rank):
        neighbours[a - 1].append(b)
        neighbours[b - 1].append(a)
    return RootSystem(family, rank, tuple(tuple(sorted(row)) for row in neighbours))


def minuscule_weights(family: str, rank: int) -> frozenset[int]:
    """Indices of the minuscule fundamental weights of the system.

    Every fundamental weight of type A is minuscule; type D contributes the
    natural weight and the two spin weights; E6 has the two 27-dimensional
    ones and E7 a single 56-dimensional one.
    """
    _validate(family, rank)
    if family == "A":
        return frozenset(range(1, rank + 1))
    if family == "D":
        return frozenset({1, rank - 1, rank})
    if family == "E6":
        return frozenset({1, 6})
    return frozenset({7})


def check_minuscule(family: str, rank: int, weight_index: int) -> None:
    """Raise ``ValueError`` unless ``omega_i`` is minuscule for the system."""
    if weight_index not in minuscule_weights(family, rank):
        raise ValueError(
            f"omega_{weight_index} is not minuscule for {root_system(family, rank)}"
        )


def minuscule_orbit_size(family: str, rank: int, weight_index: int) -> int:
    """Number of weights in the W-orbit of the minuscule ``omega_i``.

    In closed form, so callers can size a model before building it:
    C(rank+1, i) in type A, 2*rank for the natural weight of type D,
    2^(rank-1) for its spin weights, 27 for E6 and 56 for E7.
    """
    check_minuscule(family, rank, weight_index)
    if family == "A":
        return comb(rank + 1, weight_index)
    if family == "D":
        return 2 * rank if weight_index == 1 else 2 ** (rank - 1)
    return 27 if family == "E6" else 56


def minuscule_dimension(family: str, rank: int, weight_index: int) -> int:
    """dim G/P for the minuscule ``omega_i``: the Coxeter length of the
    longest element of W^P, which is the vertex count of its quiver.

    In closed form, so callers can size a quiver before building it:
    r(n-r) for Gr(r, n) in type A (n = rank+1, r = i), 2(rank-1) for the
    quadric of type D, rank(rank-1)/2 for its spinor varieties, 16 for E6
    and 27 for E7.
    """
    check_minuscule(family, rank, weight_index)
    if family == "A":
        return weight_index * (rank + 1 - weight_index)
    if family == "D":
        return 2 * (rank - 1) if weight_index == 1 else rank * (rank - 1) // 2
    return 16 if family == "E6" else 27


def fundamental_weight(system: RootSystem, i: int) -> Weight:
    """``omega_i`` in fundamental-weight coordinates (a unit vector)."""
    if not 1 <= i <= system.rank:
        raise ValueError(f"weight index {i} out of range 1..{system.rank}")
    return tuple(1 if j == i else 0 for j in range(1, system.rank + 1))
