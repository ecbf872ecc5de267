"""Marked quivers: structure, holes, components, words, DOT output.

Positions are 0-based throughout; a quiver's order has early positions
high, so ideals collect suffixes of the building word.
"""

import tracemalloc
from itertools import combinations

import pytest

from oracles import ideal_node_dictionary_by_words, quiver_order_by_closure
from torusq import quiver as qv, verify
from torusq.criteria import minuscule_minimal_v_node, minuscule_model
from torusq.rootdata import minuscule_orbit_size, minuscule_weights, root_system
from torusq.weyl import MinusculePoset

MINUSCULE_CASES = (
    [("A", rank, w) for rank in range(1, 11) for w in range(1, rank + 1)]
    + [("D", rank, w) for rank in range(4, 9) for w in sorted(minuscule_weights("D", rank))]
    + [("E6", 6, 1), ("E6", 6, 6), ("E7", 7, 7)]
)


def test_gr24_full_quiver():
    q = qv.quiver_from_word((2, 1, 3, 2), root_system("A", 3))
    assert q.n_vertices == 4
    assert sorted(q.arrows) == [(0, 1), (0, 2), (1, 3), (2, 3)]
    assert q.next[0] == 3 and q.prev[3] == 0
    assert q.next[1] is None
    assert len(list(q.ideals())) == 6  # one per Schubert variety of Gr(2,4)


def test_ideals_grow_by_one_maximal_vertex():
    q = minuscule_model("E6", 6, 1).full
    listed = q.ideals()
    assert listed[0] == (frozenset(), None)
    position = {ideal: k for k, (ideal, _) in enumerate(listed)}
    assert len(position) == len(listed) == 27
    sizes = [len(ideal) for ideal, _ in listed]
    assert sizes == sorted(sizes)
    for k, (ideal, v) in enumerate(listed[1:], start=1):
        assert q.is_ideal(ideal)
        assert position[ideal - {v}] < k
        assert q.above(v) & ideal == {v}  # v is maximal


def test_quiver_is_an_immutable_value():
    system = root_system("A", 3)
    q = qv.quiver_from_word((2, 1, 3, 2), system)
    again = qv.quiver_from_word((2, 1, 3, 2), system)
    assert q is not again and q == again and hash(q) == hash(again)
    with pytest.raises(AttributeError):
        q.members = frozenset()
    marked = q.marked({1, 3})
    assert marked is not q and marked.members == {1, 3}
    assert q.members == {0, 1, 2, 3} and q == again
    assert marked != q and marked.targets == q.targets
    report = qv.classify_holes(marked)
    with pytest.raises(AttributeError):
        report.real = ()


@pytest.mark.parametrize("family,rank,weight", MINUSCULE_CASES)
def test_dictionary_matches_word_replay(family, rank, weight):
    model = minuscule_model(family, rank, weight)
    oracle = ideal_node_dictionary_by_words(model.poset, model.full)
    assert len(oracle) == len(model.nodes) == minuscule_orbit_size(family, rank, weight)
    assert set(model.nodes) == set(oracle.values())
    # the lookups quiver build runs: grown from the canonical word, replayed
    for ideal, node in oracle.items():
        assert model.ideal_of(node) == ideal
        assert model.node_of(ideal) == node
    sizes = [len(model.ideal_of(node)) for node in model.nodes]
    assert sizes == sorted(sizes)  # graded order


def test_order_direction():
    q = qv.quiver_from_word((2, 1, 3, 2), root_system("A", 3))
    # arrows point toward later positions, which sit lower
    assert 0 in q.above(3)
    assert 3 not in q.above(0)
    assert q.above(3) == {0, 1, 2, 3}
    assert q.above(0) == {0}


@pytest.mark.parametrize("family,rank,weight", MINUSCULE_CASES)
def test_above_is_the_closure_of_the_arrows(family, rank, weight):
    q = minuscule_model(family, rank, weight).full
    below = quiver_order_by_closure(q.system, q.word)
    for i in range(q.n_vertices):
        assert q.above(i) == {j for j in range(q.n_vertices) if i in below[j]}


@pytest.mark.parametrize("family,rank,weight", [
    ("A", 3, 2), ("D", 4, 1), ("A", 5, 3), ("D", 5, 5), ("A", 6, 3),
])
def test_is_ideal_is_down_closure(family, rank, weight):
    q = minuscule_model(family, rank, weight).full
    assert q.n_vertices <= 12
    below = quiver_order_by_closure(q.system, q.word)
    for size in range(q.n_vertices + 1):
        for subset in combinations(range(q.n_vertices), size):
            closed = all(below[v] <= set(subset) for v in subset)
            assert q.is_ideal(subset) == closed


def test_full_quiver_at_the_vertex_limit_holds_little_memory():
    # one set of everything below each vertex would hold ~N^2 / 4 integers
    system = root_system("A", 100)
    poset = MinusculePoset(system, 50)
    word = poset.canonical_word(poset.bottom)
    tracemalloc.start()
    try:
        q = qv.quiver_from_word(word, system)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert q.n_vertices == 2550
    assert held < 5 * 2**20


def test_ideal_checks():
    q = qv.quiver_from_word((2, 1, 3, 2), root_system("A", 3))
    assert q.is_ideal({3})
    assert q.is_ideal({1, 3})
    assert not q.is_ideal({0})
    with pytest.raises(ValueError):
        q.marked({0, 3})


def test_divisor_hole_in_gr24():
    model = minuscule_model("A", 3, 2)
    node = model.poset.node_of_indexset((2, 4))
    report = model.holes(node)
    assert report.real == (3,)
    assert report.essential == (3,)
    assert report.virtual == ()
    assert not model.is_smooth(node)
    comps = model.singular_components(node)
    assert [model.poset.indexset(c) for c in comps] == [(1, 2)]


def test_full_grassmannian_is_smooth():
    model = minuscule_model("A", 3, 2)
    assert model.is_smooth(model.poset.bottom)
    assert model.holes(model.poset.bottom).real == ()


def test_virtual_holes_show_up():
    # the point Schubert variety of Gr(2,4): nothing marked, letters
    # without repetition above are virtual
    model = minuscule_model("A", 3, 2)
    node = model.poset.node_of_indexset((1, 2))
    report = model.holes(node)
    assert report.real == ()
    assert 3 in report.virtual


def test_d4_natural_weight_minimal_v():
    model = minuscule_model("D", 4, 1)
    v = minuscule_minimal_v_node(model.poset)
    assert len(model.ideal_of(v)) == 4
    report = model.holes(v)
    assert len(report.real) == 1
    hole = report.real[0]
    assert model.quiver_of(v).label(hole) == 2  # the fork joint n-2
    comps = model.singular_components(v)
    assert [model.poset.canonical_word(c) for c in comps] == [(1,)]


def test_d4_spin_minimal_v():
    model = minuscule_model("D", 4, 3)
    word = qv.minimal_v_word("D", 4, 3)
    assert word == (4, 1, 2, 3)
    v = model.poset.node_from_word(word)
    report = model.holes(v)
    assert len(report.real) == 1
    assert model.quiver_of(v).label(report.real[0]) == 2


def test_d_spin_words_descend_both_weights():
    for n in (4, 5, 6, 7):
        for weight in (n - 1, n):
            model = minuscule_model("D", n, weight)
            word = qv.minimal_v_word("D", n, weight)
            assert model.poset.word_descends(word)
            # first reflection from the top must be the weight itself
            assert word[-1] == weight


def test_e6_full_quiver_smooth():
    model = minuscule_model("E6", 6, 1)
    bottom = model.poset.bottom
    assert len(model.ideal_of(bottom)) == 16
    assert model.is_smooth(bottom)


def test_e6_minimal_v():
    model = minuscule_model("E6", 6, 1)
    v = minuscule_minimal_v_node(model.poset)
    assert len(model.ideal_of(v)) == 10
    assert len(model.holes(v).real) == 1


def test_e7_minimal_v():
    word = qv.minimal_v_word("E7", 7, 7)
    assert len(word) == 15
    model = minuscule_model("E7", 7, 7)
    assert model.poset.word_descends(word)
    v = model.poset.node_from_word(word)
    assert model.holes(v).real != ()


def test_minimal_v_word_exclusions():
    with pytest.raises(ValueError):
        qv.minimal_v_word("A", 4, 1)
    with pytest.raises(ValueError):
        qv.minimal_v_word("A", 4, 4)
    with pytest.raises(ValueError):
        qv.minimal_v_word("D", 5, 2)  # not minuscule
    assert qv.minimal_v_word("A", 4, 2) == (2, 1, 4, 3, 2)
    assert qv.minimal_v_word("D", 5, 1) == (5, 4, 3, 2, 1)


def test_e6_weight_six_mirror():
    a = qv.minimal_v_word("E6", 6, 1)
    b = qv.minimal_v_word("E6", 6, 6)
    mirror = {1: 6, 6: 1, 3: 5, 5: 3, 2: 2, 4: 4}
    assert b == tuple(mirror[x] for x in a)
    assert minuscule_model("E6", 6, 6).poset.word_descends(b)


def test_commutation_moves():
    system = root_system("A", 3)
    moves = qv.commutation_moves((2, 1, 3, 2), system)
    assert (1, (2, 3, 1, 2)) in moves
    # adjacent letters that braid (pairing != 0) are not offered
    assert all(other[p] != 2 or other[p + 1] != 1 for p, other in moves)


def test_commutation_isomorphism():
    system = root_system("D", 4)
    word = (3, 4, 2, 1)
    qa = qv.quiver_from_word(word, system)
    for p, other in qv.commutation_moves(word, system):
        qb = qv.quiver_from_word(other, system)
        assert qv.quivers_isomorphic_under_swap(qa, qb, p)


def test_swap_isomorphism_compares_the_order():
    system = root_system("A", 3)
    qa = qv.quiver_from_word((2, 1, 3, 2), system)
    qb = qv.quiver_from_word((2, 3, 1, 2), system)
    assert qv.quivers_isomorphic_under_swap(qa, qb, 1)
    assert qv.quivers_isomorphic_under_swap(qa, qb._replace(targets=qb.targets), 1)
    # same labels, but the arrow 0 -> 2 is lost, or an arrow 0 -> 3 is gained
    assert qb.targets[0] == (1, 2)
    for targets in ((1,), (1, 2, 3)):
        changed = qb._replace(targets=(targets,) + qb.targets[1:])
        assert not qv.quivers_isomorphic_under_swap(qa, changed, 1)


def test_verify_reads_the_lookups_quiver_build_runs(monkeypatch):
    grown = qv.MinusculeQuiver.ideal_of

    def short_by_one(self, node):
        # the earliest position is maximal, so dropping it leaves an ideal
        ideal = grown(self, node)
        return ideal - {min(ideal)} if ideal else ideal

    monkeypatch.setattr(qv.MinusculeQuiver, "ideal_of", short_by_one)
    assert not verify.cross_smooth()["passed"]
    assert not verify.cross_singular()["passed"]


def test_dot_output_is_stable_and_annotated():
    model = minuscule_model("E6", 6, 1)
    v = minuscule_minimal_v_node(model.poset)
    q = model.quiver_of(v)
    dot = qv.quiver_to_dot(q, qv.classify_holes(q))
    assert dot == qv.quiver_to_dot(q, qv.classify_holes(q))
    assert dot.startswith("digraph quiver {")
    assert dot.rstrip().endswith("}")
    assert dot.count("peripheries=2") == 1  # exactly one circled hole
    assert "style=dotted" in dot  # unmarked rest of the full quiver
    marked_lines = [
        line for line in dot.splitlines()
        if "label=" in line and "dotted" not in line
    ]
    assert len(marked_lines) == 10  # one solid vertex per letter of v


def test_dot_smooth_case_has_no_double_circle():
    model = minuscule_model("A", 3, 2)
    q = model.quiver_of(model.poset.bottom)
    dot = qv.quiver_to_dot(q, qv.classify_holes(q))
    assert "peripheries" not in dot
    assert "style=dotted" not in dot
