"""Permutations, Bruhat order, minuscule posets.

The Bruhat comparisons are checked against the cover-walk oracle, which
never looks at sorted prefixes.
"""

from itertools import combinations, permutations
import random

import pytest

from oracles import (
    bottom_by_reflections,
    bruhat_downset,
    bruhat_leq_bruteforce,
    canonical_word_by_scans,
    indexset,
    minuscule_orbit_by_bfs,
    node_from_word,
    permutation,
    word_descends,
)
from torusq.rootdata import (
    minuscule_dimension,
    minuscule_orbit_size,
    minuscule_weights,
    root_system,
)
from torusq.weyl import (
    MinusculePoset,
    bruhat_leq,
    pi_projection,
    right_multiply,
    word_to_perm,
)
from torusq.verify import minuscule_model


def test_word_reading_order():
    # nearest letter first: the rightmost letter acts before the others
    assert word_to_perm((4, 5, 6, 3, 2, 1), 7) == (5, 1, 2, 3, 6, 7, 4)
    assert word_to_perm((2, 1, 3, 2), 4) == (3, 4, 1, 2)
    assert word_to_perm((), 3) == (1, 2, 3)


def test_word_to_perm_folds_right_multiply():
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randint(2, 12)
        word = [rng.randint(1, n - 1) for _ in range(rng.randint(0, 3 * n))]
        folded = tuple(range(1, n + 1))
        for i in word:
            folded = right_multiply(folded, i)
        assert word_to_perm(word, n) == folded
    with pytest.raises(ValueError, match=r"^reflection index 7 out of range for n=7$"):
        word_to_perm((1, 7, 2), 7)


def test_right_multiply_swaps_positions():
    assert right_multiply((3, 1, 2), 1) == (1, 3, 2)
    assert right_multiply((3, 1, 2), 2) == (3, 2, 1)


def test_bruhat_against_cover_walk_s4():
    everyone = list(permutations(range(1, 5)))
    for u in everyone:
        for w in everyone:
            assert bruhat_leq(u, w) == bruhat_leq_bruteforce(u, w)


def test_bruhat_against_cover_walk_s5_spot():
    w = (5, 3, 4, 1, 2)
    down = bruhat_downset(w)
    for u in permutations(range(1, 6)):
        assert bruhat_leq(u, w) == (u in down)


def test_bruhat_size_mismatch():
    with pytest.raises(ValueError):
        bruhat_leq((1, 2), (1, 2, 3))


def test_pi_projection_sorts_prefix():
    assert pi_projection((5, 2, 3, 6, 7, 4, 1), 3) == (2, 3, 5)


# ---------------------------------------------------------------------------
# minuscule posets


def orbit(family, rank, weight):
    return MinusculePoset(root_system(family, rank), weight)


def test_orbit_sizes():
    assert len(minuscule_model("A", 4, 2).nodes) == 10  # C(5,2)
    assert len(minuscule_model("D", 4, 1).nodes) == 8  # 2n
    assert len(minuscule_model("D", 5, 5).nodes) == 16  # 2^(n-1)
    assert len(minuscule_model("E6", 6, 1).nodes) == 27
    assert len(minuscule_model("E7", 7, 7).nodes) == 56
    # the orbit listing, the grown ideals' sizes and the greedy bottom
    # against the orbit found by breadth-first search; the cases include
    # every one of test_quiver's
    cases = [("A", rank) for rank in range(1, 11)] + [("D", rank) for rank in range(4, 10)]
    for family, rank in cases + [("E6", 6), ("E7", 7)]:
        for w in minuscule_weights(family, rank):
            model = minuscule_model(family, rank, w)
            nodes, depth, bottom = minuscule_orbit_by_bfs(model.system, w)
            assert set(model.nodes) == set(nodes)
            assert {node: model.ideals[node].bit_count() for node in model.nodes} == depth
            assert model.poset.bottom == bottom
            assert len(model.nodes) == minuscule_orbit_size(family, rank, w)
            # dim G/P in closed form: the length of the longest element
            length = len(model.poset.canonical_word(bottom))
            assert minuscule_dimension(family, rank, w) == length
    for size in (minuscule_orbit_size, minuscule_dimension):
        with pytest.raises(ValueError):
            size("D", 5, 2)
        with pytest.raises(ValueError):
            size("A", 0, 1)


def test_the_bottom_node_is_the_reflection_walk():
    # the walk in place on one list against one reflection per step, and
    # the word walked back up from a sorted list of candidates against a
    # scan of the whole weight for each letter, on every minuscule weight
    # of A1..A30, A100, D4..D71, E6 and E7
    ranks = [("A", rank) for rank in [*range(1, 31), 100]]
    ranks += [("D", rank) for rank in range(4, 72)]
    for family, rank in ranks + [("E6", 6), ("E7", 7)]:
        system = root_system(family, rank)
        for w in minuscule_weights(family, rank):
            poset = MinusculePoset(system, w)
            assert poset.bottom == bottom_by_reflections(system, w)
            assert poset.canonical_word(poset.bottom) == canonical_word_by_scans(poset, poset.bottom)


def test_top_and_bottom():
    model = minuscule_model("A", 3, 2)
    poset = model.poset
    assert model.ideals[poset.top] == 0
    assert model.ideals[poset.bottom].bit_count() == 4  # r(n-r)
    assert poset.canonical_word(poset.bottom) == (2, 1, 3, 2)


def test_canonical_word_lengths():
    model = minuscule_model("D", 4, 3)
    poset = model.poset
    for node in model.nodes:
        word = poset.canonical_word(node)
        assert len(word) == model.ideals[node].bit_count()
        assert node_from_word(poset, word) == node
        assert word_descends(poset, word)


@pytest.mark.parametrize("mu", [
    (0, 0, 0),  # the zero weight
    (1, 0, 0),  # omega_1, the top of another minuscule orbit of A3
    (1, 1, 0),
    # raising at 1 takes coordinate 2 from -1 to -2 while it waits its turn;
    # raised there all the same, (-1, -1, 1) would end at the top
    (-1, -1, 0),
    (-1, -1, 1),
    (0, 1),  # wrong length
    (0, 1, 0, 0),
])
def test_canonical_word_refuses_weights_outside_the_orbit(mu):
    with pytest.raises(ValueError):
        orbit("A", 3, 2).canonical_word(mu)


def test_word_descends_rejects_non_reduced():
    poset = orbit("A", 3, 2)
    assert not word_descends(poset, (2, 2))
    assert not word_descends(poset, (1,))  # top weight has coordinate 0 at 1
    assert word_descends(poset, (1, 2))


def test_type_a_dictionary():
    model = minuscule_model("A", 4, 2)
    poset = model.poset
    for node in model.nodes:
        entries = indexset(poset, node)
        assert poset.node_of_indexset(entries) == node
        assert permutation(poset, node)[:2] == entries
    # entrywise dominance of index sets refines depth and matches Bruhat
    # order of the Grassmannian permutations
    for a in model.nodes:
        for b in model.nodes:
            ia, ib = indexset(poset, a), indexset(poset, b)
            dominated = all(x <= y for x, y in zip(ia, ib))
            if dominated:
                assert model.ideals[a].bit_count() <= model.ideals[b].bit_count()
            assert dominated == bruhat_leq(
                permutation(poset, a), permutation(poset, b)
            )


def test_index_sets_exhaust_combinations():
    model = minuscule_model("A", 4, 3)
    found = {indexset(model.poset, node) for node in model.nodes}
    assert found == set(combinations(range(1, 6), 3))


def test_node_of_indexset_is_the_canonical_word_inverse():
    # the closed form against the canonical-word route, every type-A node
    # with n <= 9, entries given in any order
    for n in range(2, 10):
        for r in range(1, n):
            model = minuscule_model("A", n - 1, r)
            poset = model.poset
            for node in model.nodes:
                entries = indexset(poset, node)
                assert poset.node_of_indexset(entries) == node
                assert poset.node_of_indexset(entries[::-1]) == node


@pytest.mark.parametrize("entries", [
    (2,), (1, 2, 3), (2, 2), (0, 3), (3, 6), (),
])
def test_node_of_indexset_rejects_non_nodes(entries):
    poset = orbit("A", 4, 2)  # Gr(2, 5)
    with pytest.raises(ValueError):
        poset.node_of_indexset(entries)


def test_node_of_indexset_is_type_a_only():
    with pytest.raises(ValueError):
        orbit("D", 4, 1).node_of_indexset((1,))


def test_word_descends_rejects_letters_outside_the_rank():
    poset = orbit("A", 4, 3)
    for word in [(-1,), (0,), (5,), (9, 9), (3, -2)]:
        assert not word_descends(poset, word)
