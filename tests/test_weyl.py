"""Permutations, reduced words, minuscule posets.

The Bruhat comparisons are checked against the cover-walk oracle, which
never looks at sorted prefixes.
"""

from itertools import combinations, permutations

from hypothesis import given, strategies as st
import pytest

from oracles import bruhat_downset, bruhat_leq_bruteforce, inversions
from torusq.rootdata import minuscule_orbit_size, minuscule_weights, root_system
from torusq.weyl import (
    MinusculePoset,
    bruhat_leq,
    descents,
    pi_projection,
    reduced_word,
    right_multiply,
    word_to_perm,
)


def test_word_reading_order():
    # nearest letter first: the rightmost letter acts before the others
    assert word_to_perm((4, 5, 6, 3, 2, 1), 7) == (5, 1, 2, 3, 6, 7, 4)
    assert word_to_perm((2, 1, 3, 2), 4) == (3, 4, 1, 2)
    assert word_to_perm((), 3) == (1, 2, 3)


def test_right_multiply_swaps_positions():
    assert right_multiply((3, 1, 2), 1) == (1, 3, 2)
    assert right_multiply((3, 1, 2), 2) == (3, 2, 1)


perms5 = st.integers(min_value=2, max_value=5).flatmap(
    lambda n: st.permutations(list(range(1, n + 1)))
)


@given(perms5)
def test_reduced_word_roundtrip(line):
    w = tuple(line)
    word = reduced_word(w)
    assert len(word) == inversions(w)
    assert word_to_perm(word, len(w)) == w


def test_descents_and_length():
    assert descents((3, 1, 4, 2)) == [1, 3]
    assert len(reduced_word((4, 3, 2, 1))) == 6


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
    assert len(orbit("A", 4, 2)) == 10  # C(5,2)
    assert len(orbit("D", 4, 1)) == 8  # 2n
    assert len(orbit("D", 5, 5)) == 16  # 2^(n-1)
    assert len(orbit("E6", 6, 1)) == 27
    assert len(orbit("E7", 7, 7)) == 56
    cases = [("A", rank) for rank in range(1, 11)] + [("D", rank) for rank in range(4, 10)]
    for family, rank in cases + [("E6", 6), ("E7", 7)]:
        for w in minuscule_weights(family, rank):
            assert minuscule_orbit_size(family, rank, w) == len(orbit(family, rank, w))
    with pytest.raises(ValueError):
        minuscule_orbit_size("D", 5, 2)
    with pytest.raises(ValueError):
        minuscule_orbit_size("A", 0, 1)


def test_top_and_bottom():
    poset = orbit("A", 3, 2)
    assert poset.depth(poset.top) == 0
    assert poset.depth(poset.bottom) == 4  # r(n-r)
    assert poset.canonical_word(poset.bottom) == (2, 1, 3, 2)


def test_canonical_word_lengths():
    poset = orbit("D", 4, 3)
    for node in poset.nodes:
        word = poset.canonical_word(node)
        assert len(word) == poset.depth(node)
        assert poset.node_from_word(word) == node
        assert poset.word_descends(word)


def test_word_descends_rejects_non_reduced():
    poset = orbit("A", 3, 2)
    assert not poset.word_descends((2, 2))
    assert not poset.word_descends((1,))  # top weight has coordinate 0 at 1
    assert poset.word_descends((1, 2))


def test_type_a_dictionary():
    poset = orbit("A", 4, 2)
    for node in poset.nodes:
        entries = poset.indexset(node)
        assert poset.node_of_indexset(entries) == node
        assert poset.permutation(node)[:2] == entries
    # entrywise dominance of index sets refines depth and matches Bruhat
    # order of the Grassmannian permutations
    for a in poset.nodes:
        for b in poset.nodes:
            ia, ib = poset.indexset(a), poset.indexset(b)
            dominated = all(x <= y for x, y in zip(ia, ib))
            if dominated:
                assert poset.depth(a) <= poset.depth(b)
            assert dominated == bruhat_leq(
                poset.permutation(a), poset.permutation(b)
            )


def test_index_sets_exhaust_combinations():
    poset = orbit("A", 4, 3)
    found = {poset.indexset(node) for node in poset.nodes}
    assert found == set(combinations(range(1, 6), 3))


def test_node_of_indexset_is_the_canonical_word_inverse():
    # the closed form against the canonical-word route, every type-A node
    # with n <= 9, entries given in any order
    for n in range(2, 10):
        for r in range(1, n):
            poset = orbit("A", n - 1, r)
            for node in poset.nodes:
                entries = poset.indexset(node)
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
        assert not poset.word_descends(word)
