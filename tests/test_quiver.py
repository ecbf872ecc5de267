"""Marked quivers: structure, holes, components, words, DOT output.

Positions are 0-based throughout; a quiver's order has early positions
high, so ideals collect suffixes of the building word.
"""

import json
import tracemalloc
from itertools import combinations, product

import pytest

from oracles import (
    ideal_node_dictionary_by_words,
    ideals_by_vertex_scan,
    node_from_word,
    quiver_by_pairing_scan,
    quiver_order_by_closure,
    quivers_isomorphic_by_sorted_targets,
    word_descends,
)
from torusq import quiver as qv, verify
from torusq.cli import main
from torusq.rootdata import (
    RootSystem,
    minuscule_orbit_size,
    minuscule_weights,
    reflect,
    root_system,
)
from torusq.verify import minuscule_model
from torusq.weyl import MinusculePoset
from verify_memos import fresh_verify_memos, run_all_in_one_process

MINUSCULE_CASES = (
    [("A", rank, w) for rank in range(1, 11) for w in range(1, rank + 1)]
    + [("D", rank, w) for rank in range(4, 9) for w in sorted(minuscule_weights("D", rank))]
    + [("E6", 6, 1), ("E6", 6, 6), ("E7", 7, 7)]
)


@pytest.fixture(scope="module")
def verify_scope():
    """The models one ``verify all`` builds on an empty cache, each time
    one is built, with every canonical word it walks on weights."""
    models, walks = [], []
    canonical_word = MinusculePoset.canonical_word

    def counting(self, mu):
        walks.append(mu)
        return canonical_word(self, mu)

    class Recording(qv.MinusculeModel):
        def __init__(self, system, weight_index):
            super().__init__(system, weight_index)
            models.append(self)

    with pytest.MonkeyPatch.context() as mp:
        fresh_verify_memos(mp)
        mp.setattr(MinusculePoset, "canonical_word", counting)
        mp.setattr(qv, "MinusculeModel", Recording)
        results = run_all_in_one_process()
    assert all(result["passed"] for result in results)
    return models, walks


def test_verify_walks_the_weights_once_per_node(verify_scope):
    # each model walks its bottom word for the full quiver and then each
    # node's word once, into the ``words`` the suites read
    models, walks = verify_scope
    assert len(models) == 35
    assert sum(len(model.nodes) for model in models) == 728
    assert len(walks) == 728 + 35
    for model in models:
        assert list(model.words) == model.nodes


@pytest.mark.parametrize("family,rank,weight", [("A", 100, 50), ("D", 71, 71), ("D", 71, 70)])
def test_full_quiver_at_the_vertex_limit_matches_the_pairing_scan(family, rank, weight):
    system = root_system(family, rank)
    poset = MinusculePoset(system, weight)
    word = poset.canonical_word(poset.bottom)
    assert qv.quiver_from_word(word, system) == quiver_by_pairing_scan(word, system)


def test_quivers_of_the_verify_words_match_the_pairing_scan(verify_scope):
    # every canonical word of every model verify builds, and each word one
    # commutation move away, as the quiver-words suite builds them
    models, _ = verify_scope
    for model in models:
        for word in model.words.values():
            others = [other for _, other in qv.commutation_moves(word, model.system)]
            for w in [word, *others]:
                assert qv.quiver_from_word(w, model.system) == quiver_by_pairing_scan(
                    w, model.system
                )


def test_ideals_match_the_vertex_scan(verify_scope):
    # the same list, order included: the order of ``MinusculeModel.nodes``
    # reaches the verify failures
    models, _ = verify_scope
    extra = [("D", 8, 7), ("D", 8, 8), ("E7", 7, 7)]
    quivers = [model.full for model in models]
    quivers += [qv.MinusculeQuiver(root_system(*case[:2]), case[2]).full for case in extra]
    for q in quivers:
        assert q.ideals() == ideals_by_vertex_scan(q)


def test_the_full_quiver_is_built_without_pairings(monkeypatch):
    # one pass over the word with the neighbour lists of the root system,
    # not one Cartan pairing per pair of positions
    calls = []
    pairing = RootSystem.pairing

    def counting(self, i, j):
        calls.append((i, j))
        return pairing(self, i, j)

    monkeypatch.setattr(RootSystem, "pairing", counting)
    minuscule = qv.MinusculeQuiver(root_system("A", 100), 50)
    assert minuscule.full.n_vertices == 2550
    assert calls == []


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
    assert model.ideals == {node: ideal for ideal, node in oracle.items()}
    for node, word in model.words.items():
        assert len(word) == len(model.ideals[node])
        assert node_from_word(model.poset, word) == node
    sizes = [len(model.ideals[node]) for node in model.nodes]
    assert sizes == sorted(sizes)  # graded order


def test_word_of_is_the_canonical_word():
    # the heap on the quiver against the walk up the weights, on every node
    # of A1..A9 (every weight), D4..D8 (every minuscule weight), E6 and E7,
    # which covers every model verify builds; the model takes its words from
    # the walk alone, so this is what checks that the quiver reads each one
    # back and grows it into the same ideal
    cases = [case for case in MINUSCULE_CASES if case[:2] != ("A", 10)]
    nodes = 0
    for family, rank, weight in cases:
        minuscule = qv.MinusculeQuiver(root_system(family, rank), weight)
        oracle = ideal_node_dictionary_by_words(minuscule.poset, minuscule.full)
        for ideal, node in oracle.items():
            word = minuscule.poset.canonical_word(node)
            assert minuscule.word_of(ideal) == word
            assert minuscule.grow(word) == ideal
        nodes += len(oracle)
    assert nodes == 2692


def test_verify_derives_each_node_once(monkeypatch):
    # the models list their nodes without growing or reading any word; the
    # suites grow the 21 minimal words of minimal-singular and minima-sweep
    # and read the 102 component words of cross-singular
    calls = {"grow": 0, "word_of": 0}

    def counting(name):
        method = getattr(qv.MinusculeQuiver, name)

        def wrapped(self, arg):
            calls[name] += 1
            return method(self, arg)

        return wrapped

    fresh_verify_memos(monkeypatch)
    for name in calls:
        monkeypatch.setattr(qv.MinusculeQuiver, name, counting(name))
    assert all(result["passed"] for result in run_all_in_one_process())
    assert calls == {"grow": 21, "word_of": 102}


def _faulty_reflect(fault):
    """``reflect`` with ``fault(system, node)`` applied to each result."""
    return lambda system, node, b: fault(system, reflect(system, node, b))


def _short_at_bottom(canonical_word):
    """``canonical_word`` with the bottom node's word one letter short."""

    def faulty(self, mu):
        word = canonical_word(self, mu)
        return word[1:] if mu == self.bottom else word

    return faulty


@pytest.mark.parametrize("faults,message", [
    ([(qv, "reflect", lambda system, node, b: node)],
     "letter 1 does not lower (0, 1, 0)"),
    ([(qv, "reflect", _faulty_reflect(lambda system, node: tuple(2 * c for c in node)))],
     "non-minuscule coordinate in orbit: (2, -2, 2)"),
    # the bottom, the one node with no coordinate +1, becomes the top
    ([(qv, "reflect", _faulty_reflect(
        lambda system, node: node if 1 in node else (0, 1, 0)))],
     "ideal/coset correspondence is not a bijection"),
    ([(qv, "minuscule_orbit_size", lambda family, rank, weight: 7)],
     "6 ideals for 7 coset elements"),
    # the full quiver one vertex short, and an orbit size that agrees with it
    ([(MinusculePoset, "canonical_word", _short_at_bottom(MinusculePoset.canonical_word)),
      (qv, "minuscule_orbit_size", lambda family, rank, weight: 5)],
     "the full ideal is not the bottom node"),
])
def test_model_build_checks_fire(monkeypatch, faults, message):
    # each build check of Gr(2,4) under the faults that reach it; its orbit runs
    # (0,1,0) -> (1,-1,1) -> (-1,0,1), (1,0,-1) -> (-1,1,-1) -> (0,-1,0)
    for target, name, fault in faults:
        monkeypatch.setattr(target, name, fault)
    with pytest.raises(AssertionError) as exc:
        qv.MinusculeModel(root_system("A", 3), 2)
    assert str(exc.value) == message


@pytest.mark.parametrize("family,rank,weight,longest", [
    ("A", 4, 2, 6), ("A", 5, 3, 6), ("D", 5, 1, 5), ("D", 5, 5, 5),
    ("E6", 6, 1, 5), ("E7", 7, 7, 4),
])
def test_grow_matches_the_weight_replay(family, rank, weight, longest):
    # every word of up to ``longest`` letters 1..rank: grown when the letters
    # lower the weight one by one, into the ideal of the replayed node, and
    # refused otherwise; the grown ideals are all those of that size
    minuscule = qv.MinusculeQuiver(root_system(family, rank), weight)
    poset = minuscule.poset
    node_at = ideal_node_dictionary_by_words(poset, minuscule.full)
    refusal = "{} is not a reduced word of letters 1..%d in this orbit" % rank
    grown = set()
    for length in range(longest + 1):
        for word in product(range(1, rank + 1), repeat=length):
            if word_descends(poset, word):
                ideal = minuscule.grow(word)
                assert node_at[ideal] == node_from_word(poset, word)
                grown.add(ideal)
                continue
            with pytest.raises(ValueError) as exc:
                minuscule.grow(word)
            assert str(exc.value) == refusal.format(word)
    assert grown == {ideal for ideal in node_at if len(ideal) <= longest}


def test_column_set_word_grows_the_ideal_of_its_column_set():
    # the --as indexset route against the closed-form node, every type-A
    # column set with n <= 9
    for n in range(2, 10):
        for r in range(1, n):
            model = minuscule_model("A", n - 1, r)
            for entries in combinations(range(1, n + 1), r):
                node = model.poset.node_of_indexset(entries)
                assert model.grow(qv.column_set_word(entries)) == model.ideals[node]


def test_a_request_walks_the_weights_once(capsys, monkeypatch):
    # only the bottom word that builds the full quiver is read off weights;
    # the answer's words and its 49 components come from the quiver
    calls = []
    canonical_word = MinusculePoset.canonical_word

    def counting(self, mu):
        calls.append(mu)
        return canonical_word(self, mu)

    monkeypatch.setattr(MinusculePoset, "canonical_word", counting)
    assert main(["quiver", "build", "--family", "A", "--rank", "100",
                 "--weight", "50", "--w", "minimal", "--json"]) == 0
    assert '"singular_components"' in capsys.readouterr().out
    assert len(calls) == 1
    assert calls[0] == MinusculePoset(root_system("A", 100), 50).bottom


def test_a_request_scans_up_sets_only_to_classify_holes(capsys, monkeypatch):
    # one up-set per candidate hole, and none again for the 49 components
    calls, candidates, inside = [], [], []
    above, classify = qv.Quiver.above, qv.classify_holes

    def counting_above(self, i):
        calls.append((bool(inside), i))
        return above(self, i)

    def counting_classify(q):
        candidates.extend(i for i in sorted(q.members) if q.prev[i] not in q.members)
        inside.append(True)
        try:
            return classify(q)
        finally:
            inside.pop()

    monkeypatch.setattr(qv.Quiver, "above", counting_above)
    monkeypatch.setattr(qv, "classify_holes", counting_classify)
    assert main(["quiver", "build", "--family", "A", "--rank", "100",
                 "--weight", "50", "--w", "minimal", "--json"]) == 0
    assert len(json.loads(capsys.readouterr().out)["result"]["singular_components"]) == 49
    assert calls == [(True, i) for i in candidates]


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
    for outside in ({4}, {-1}, {3, 4}, {-1, 3}):
        with pytest.raises(ValueError, match="^members must be existing vertex positions$"):
            q.marked(outside)
    assert q.marked(set()).members == frozenset()


def test_divisor_hole_in_gr24():
    model = minuscule_model("A", 3, 2)
    ideal = model.ideals[model.poset.node_of_indexset((2, 4))]
    report = model.holes(ideal)
    assert report.real == (3,)
    assert report.essential == (3,)
    assert report.virtual == ()
    assert report.components == (model.ideals[model.poset.node_of_indexset((1, 2))],)


@pytest.mark.parametrize("family,rank,weight", [
    case for case in MINUSCULE_CASES if case[0] != "A" or case[1] <= 7
])
def test_each_essential_hole_carves_its_own_component(family, rank, weight):
    model = minuscule_model(family, rank, weight)
    for ideal in model.ideals.values():
        q = model.full.marked(ideal)
        report = qv.classify_holes(q)
        comps = report.components
        assert len(set(comps)) == len(comps) == len(report.essential)
        for h, comp in zip(report.essential, comps):
            assert h not in comp and comp < ideal and q.is_ideal(comp)


@pytest.mark.parametrize("family,rank,weight", [
    case for case in MINUSCULE_CASES if case[0] != "A" or case[1] <= 7
])
def test_components_drop_the_up_set_of_each_essential_hole(family, rank, weight):
    model = minuscule_model(family, rank, weight)
    below = quiver_order_by_closure(model.system, model.full.word)
    for ideal in model.ideals.values():
        report = qv.classify_holes(model.full.marked(ideal))
        assert report.components == tuple(
            ideal - {j for j in range(model.full.n_vertices) if h in below[j]}
            for h in report.essential
        )


def test_full_grassmannian_is_smooth():
    model = minuscule_model("A", 3, 2)
    report = model.holes(model.full.members)
    assert report.real == () and report.components == ()


def test_virtual_holes_show_up():
    # the point Schubert variety of Gr(2,4): nothing marked, letters
    # without repetition above are virtual
    model = minuscule_model("A", 3, 2)
    report = model.holes(model.ideals[model.poset.node_of_indexset((1, 2))])
    assert report.real == ()
    assert 3 in report.virtual


def test_d4_natural_weight_minimal_v():
    model = minuscule_model("D", 4, 1)
    v = model.grow(qv.minimal_v_word("D", 4, 1))
    assert len(v) == 4
    report = model.holes(v)
    assert len(report.real) == 1
    hole = report.real[0]
    assert model.full.label(hole) == 2  # the fork joint n-2
    assert [model.word_of(c) for c in report.components] == [(1,)]


def test_d4_spin_minimal_v():
    model = minuscule_model("D", 4, 3)
    word = qv.minimal_v_word("D", 4, 3)
    assert word == (4, 1, 2, 3)
    v = model.ideals[node_from_word(model.poset, word)]
    assert model.grow(word) == v
    report = model.holes(v)
    assert len(report.real) == 1
    assert model.full.label(report.real[0]) == 2


def test_d_spin_words_descend_both_weights():
    for n in (4, 5, 6, 7):
        for weight in (n - 1, n):
            model = minuscule_model("D", n, weight)
            word = qv.minimal_v_word("D", n, weight)
            assert word_descends(model.poset, word)
            # first reflection from the top must be the weight itself
            assert word[-1] == weight


def test_e6_full_quiver_smooth():
    model = minuscule_model("E6", 6, 1)
    bottom = model.ideals[model.poset.bottom]
    assert bottom == model.full.members and len(bottom) == 16
    assert not model.holes(bottom).real


def test_e6_minimal_v():
    model = minuscule_model("E6", 6, 1)
    v = model.grow(qv.minimal_v_word("E6", 6, 1))
    assert len(v) == 10
    assert len(model.holes(v).real) == 1


def test_e7_minimal_v():
    word = qv.minimal_v_word("E7", 7, 7)
    assert len(word) == 15
    model = minuscule_model("E7", 7, 7)
    assert word_descends(model.poset, word)
    v = model.ideals[node_from_word(model.poset, word)]
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
    assert word_descends(minuscule_model("E6", 6, 6).poset, b)


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


def test_swap_check_agrees_with_the_sorted_targets_oracle():
    # every (word, move) of the quiver-words plans, at the move's own
    # position and at every other one: the arrow sets against the sorted
    # target tuples of each vertex
    plans = [("A", n - 1, r) for n in range(4, 8) for r in range(1, n)]
    plans += [("D", n, w) for n in (4, 5, 6) for w in (1, n - 1, n)]
    plans += [("E6", 6, 1), ("E6", 6, 6), ("E7", 7, 7)]
    moves = 0
    for family, rank, weight in plans:
        model = minuscule_model(family, rank, weight)
        for word in model.words.values():
            qa = qv.quiver_from_word(word, model.system)
            for p, other in qv.commutation_moves(word, model.system):
                qb = qv.quiver_from_word(other, model.system)
                moves += 1
                assert qv.quivers_isomorphic_under_swap(qa, qb, p)
                for s in range(len(word) - 1):
                    assert qv.quivers_isomorphic_under_swap(
                        qa, qb, s
                    ) == quivers_isomorphic_by_sorted_targets(qa, qb, s), (word, p, s)
    assert moves == 591


def test_quiver_from_word_names_the_first_letter_out_of_range():
    system = root_system("A", 3)
    for word, bad in [((2, 5, 0, 1), 5), ((0, 2, 7), 0), ((1, 2, 4), 4), ((-1, 3), -1)]:
        with pytest.raises(ValueError) as exc:
            qv.quiver_from_word(word, system)
        assert str(exc.value) == f"letter {bad} out of range for A3"
    assert qv.quiver_from_word((), system).n_vertices == 0


def test_verify_reads_the_lookups_quiver_build_runs(monkeypatch):
    classify = qv.classify_holes

    def one_hole_short(q):
        # the last real hole goes missing, with the component it carves out
        report = classify(q)
        real = report.real[:-1]
        kept = [i for i, h in enumerate(report.essential) if h in real]
        return report._replace(
            real=real,
            essential=tuple(report.essential[i] for i in kept),
            components=tuple(report.components[i] for i in kept),
        )

    # models cached by earlier calls keep the reports they classified
    fresh_verify_memos(monkeypatch)
    monkeypatch.setattr(qv, "classify_holes", one_hole_short)
    assert not verify.cross_smooth()["passed"]
    assert not verify.cross_singular()["passed"]

    def first_component_only(q):
        report = classify(q)
        return report._replace(components=report.components[:1])

    fresh_verify_memos(monkeypatch)
    monkeypatch.setattr(qv, "classify_holes", first_component_only)
    assert verify.cross_smooth()["passed"]
    assert not verify.cross_singular()["passed"]


def test_verify_all_classifies_each_marked_quiver_once(monkeypatch):
    calls = []
    classify = qv.classify_holes

    def counting(q):
        calls.append((q.word, q.members))
        return classify(q)

    fresh_verify_memos(monkeypatch)
    monkeypatch.setattr(qv, "classify_holes", counting)
    assert all(result["passed"] for result in run_all_in_one_process())
    assert len(calls) == len(set(calls)) == 279


def test_dot_output_is_stable_and_annotated():
    model = minuscule_model("E6", 6, 1)
    q = model.full.marked(model.grow(qv.minimal_v_word("E6", 6, 1)))
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
    q = model.full.marked(model.ideals[model.poset.bottom])
    dot = qv.quiver_to_dot(q, qv.classify_holes(q))
    assert "peripheries" not in dot
    assert "style=dotted" not in dot
