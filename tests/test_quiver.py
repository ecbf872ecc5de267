"""Quivers and their ideal masks: structure, holes, components, words, DOT output.

Positions are 0-based throughout; a quiver's order has early positions
high, so ideals collect suffixes of the building word.
"""

import json
import tracemalloc
from itertools import combinations, product
from types import SimpleNamespace

import pytest

from oracles import (
    as_mask,
    canonical_word_by_scans,
    classify_holes_by_pairing,
    classify_holes_by_scans,
    ideal_node_dictionary_by_words,
    ideals_by_vertex_scan,
    is_homogeneous,
    is_ideal,
    is_smooth_by_poincare,
    marked_set,
    node_from_word,
    quiver_by_pairing_scan,
    quiver_order_by_closure,
    quivers_isomorphic_by_arrow_sets,
    quivers_isomorphic_by_sorted_targets,
    quivers_isomorphic_under_swap_by_sigma,
    reflect,
    singular_components_by_curves,
    tangent_curves,
    word_descends,
    word_of_by_heap,
)
from torusq import quiver as qv, verify
from torusq.cli import main
from torusq.rootdata import RootSystem, minuscule_orbit_size, minuscule_weights, root_system
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
    one is built, with every canonical word it walks on weights, as
    ``(poset, node)``."""
    models, walks = [], []
    canonical_word = MinusculePoset.canonical_word

    def counting(self, mu):
        walks.append((self, tuple(mu)))
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


def test_verify_walks_each_bottom_and_each_component_it_reads(verify_scope):
    # each model walks its bottom word, for the full quiver, and the words
    # of its 728 nodes come from the words one level up; the other walks are
    # the nodes of the 102 components cross-singular reads, in its order
    models, walks = verify_scope
    assert len(models) == 35
    assert sum(len(model.nodes) for model in models) == 728
    read = {model.poset: [model.poset.bottom] for model in models}
    built = {(m.system.family, m.system.rank, m.poset.weight_index): m for m in models}
    for r, n in verify._SWEEP_BOXES:
        model = built["A", n - 1, r]
        node_of = {ideal: node for node, ideal in model.ideals.items()}
        read[model.poset] += [node_of[c] for ideal in model.ideals.values()
                              for c in model.holes(ideal).components]
    assert len(walks) == 35 + 102
    for model in models:
        assert [mu for poset, mu in walks if poset is model.poset] == read[model.poset]
        assert list(model.words) == model.nodes


def test_model_words_are_the_canonical_words(verify_scope):
    models, _ = verify_scope
    models = models + [qv.MinusculeModel(root_system(*case[:2]), case[2])
                       for case in [("D", 8, 7), ("D", 8, 8), ("E7", 7, 7)]]
    for model in models:
        for node in model.nodes:
            assert model.words[node] == model.poset.canonical_word(node)


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


def test_the_full_quiver_is_built_without_pairings():
    # the root system is its neighbour lists alone, 2 * 99 entries at A100
    # and no rank x rank table; the full quiver is built from them, and a
    # commutation move tests one neighbour list per adjacent pair
    system = root_system("A", 100)
    assert system == ("A", 100, system.neighbours)
    assert sum(map(len, system.neighbours)) == 2 * 99
    assert qv.MinusculeQuiver(system, 50).full.n_vertices == 2550
    reads = []

    class CountingList(tuple):
        def __contains__(self, b):
            reads.append(b)
            return tuple.__contains__(self, b)

    system = root_system("A", 3)
    system = RootSystem(system.family, system.rank, tuple(map(CountingList, system.neighbours)))
    assert qv.commutation_moves((1, 3, 2), system) == [(0, (3, 1, 2))]
    assert reads == [3, 2]


def test_gr24_full_quiver():
    q = qv.quiver_from_word((2, 1, 3, 2), root_system("A", 3))
    assert q.n_vertices == 4
    assert q.targets == ((1, 2), (3,), (3,), ())  # arrows 0->1, 0->2, 1->3, 2->3
    chains = q.hole_masks()[1]  # s(0) = 3 and p(3) = 0; 1 and 2 repeat no letter
    assert chains == [0, 0b0010, 0b1001, 0b0100]
    assert len(list(q.ideals())) == 6  # one per Schubert variety of Gr(2,4)


def test_ideals_grow_by_one_maximal_vertex():
    q = minuscule_model("E6", 6, 1).full
    listed = q.ideals()
    assert listed[0] == (0, None, None)
    position = {ideal: k for k, (ideal, _, _) in enumerate(listed)}
    assert len(position) == len(listed) == 27
    sizes = [ideal.bit_count() for ideal, _, _ in listed]
    assert sizes == sorted(sizes)
    up = q.hole_masks()[0]
    for k, (ideal, v, parent) in enumerate(listed[1:], start=1):
        assert is_ideal(q, ideal)
        assert ideal >> v & 1 and position[ideal ^ 1 << v] == parent < k
        assert up[v] & ideal == 1 << v  # v is maximal


def test_quiver_is_an_immutable_value():
    system = root_system("A", 3)
    q = qv.quiver_from_word((2, 1, 3, 2), system)
    again = qv.quiver_from_word((2, 1, 3, 2), system)
    assert q is not again and q == again and hash(q) == hash(again)
    assert q == (system, (2, 1, 3, 2), q.targets)
    with pytest.raises(AttributeError):
        q.targets = ()
    ideal = as_mask({1, 3})
    assert ideal == 0b1010 and list(qv.positions(ideal)) == [1, 3]
    report = qv.classify_holes(ideal, q.hole_masks())
    assert q == again
    with pytest.raises(AttributeError):
        report.real = ()


@pytest.mark.parametrize("family,rank,weight", MINUSCULE_CASES)
def test_dictionary_matches_word_replay(family, rank, weight):
    model = minuscule_model(family, rank, weight)
    oracle = ideal_node_dictionary_by_words(model.poset, model.full)
    assert len(oracle) == len(model.nodes) == minuscule_orbit_size(family, rank, weight)
    assert model.ideals == {node: ideal for ideal, node in oracle.items()}
    for node, word in model.words.items():
        assert len(word) == model.ideals[node].bit_count()
        assert node_from_word(model.poset, word) == node
    sizes = [model.ideals[node].bit_count() for node in model.nodes]
    assert sizes == sorted(sizes)  # graded order


def test_word_of_is_the_canonical_word():
    # the node read off the quiver and walked up against a scan of the whole
    # weight per letter, on every node of A1..A9 (every weight), D4..D8
    # (every minuscule weight), E6 and E7, which covers every model verify
    # builds; the model takes its words from the words one level up, so
    # this is what checks that the quiver reads each one back and grows it
    # into the same ideal
    cases = [case for case in MINUSCULE_CASES if case[:2] != ("A", 10)]
    nodes = 0
    for family, rank, weight in cases:
        minuscule = qv.MinusculeQuiver(root_system(family, rank), weight)
        oracle = ideal_node_dictionary_by_words(minuscule.poset, minuscule.full)
        for ideal, node in oracle.items():
            word = canonical_word_by_scans(minuscule.poset, node)
            assert minuscule.word_of(ideal) == word
            assert minuscule.grow(word) == ideal
        nodes += len(oracle)
    assert nodes == 2692


def test_word_of_reads_back_every_grown_word_of_the_verify_models(verify_scope):
    # the label tops of ``word_of`` against the flags of ``grow``, both ways
    # round on every node of the 35 models ``verify all`` builds
    models, _ = verify_scope
    nodes = 0
    for model in models:
        for node, word in model.words.items():
            ideal = model.grow(word)
            assert ideal == model.ideals[node]
            assert model.word_of(ideal) == word
            nodes += 1
    assert nodes == 728


def test_word_of_pops_the_labels_in_the_order_of_a_heap(verify_scope):
    # the walk on the ideal's node against the label tops of the quiver
    # popped off a heap, on every ideal of the 35 models ``verify all``
    # builds and at A100/omega_50 and D71/omega_71 on the full and minimal
    # ideals and the minimal one's singular components
    models, _ = verify_scope
    for model in models:
        for ideal in model.ideals.values():
            assert model.word_of(ideal) == word_of_by_heap(model, ideal)
    for family, rank, weight in [("A", 100, 50), ("D", 71, 71)]:
        minuscule = qv.MinusculeQuiver(root_system(family, rank), weight)
        minimal = minuscule.grow(qv.minimal_v_word(family, rank, weight))
        components = qv.classify_holes(minimal, minuscule.masks).components
        assert components
        for ideal in ((1 << minuscule.full.n_vertices) - 1, minimal, *components):
            assert minuscule.word_of(ideal) == word_of_by_heap(minuscule, ideal)


@pytest.mark.parametrize("family,rank,weight", [("A", 5, 3), ("D", 5, 5)])
def test_mask_containment_is_set_containment(family, rank, weight):
    # every ordered pair of nodes: the criterion on masks against the
    # essential holes of the set oracle, and the refusal when v is not in w
    model = minuscule_model(family, rank, weight)
    contained = refused = 0
    for w in model.ideals.values():
        essential = classify_holes_by_scans(model.full, w).essential
        w_set = marked_set(w)
        for v in model.ideals.values():
            v_set = marked_set(v)
            if v_set <= w_set:
                contained += 1
                assert model.semistable_in_smooth(w, v) == all(h in v_set for h in essential)
                continue
            refused += 1
            with pytest.raises(ValueError) as exc:
                model.semistable_in_smooth(w, v)
            assert str(exc.value) == "w does not dominate v: no semistable points"
    assert contained and refused and contained + refused == len(model.nodes) ** 2


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


# Gr(2,4)'s root system with neighbour lists a fault may replace: the full
# quiver and the listing read them, while the poset the model walks keeps
# the true lists (see ``test_model_build_checks_fire``)
_GR24 = SimpleNamespace(family="A", rank=3, neighbours=root_system("A", 3).neighbours)


def _short_at_bottom(canonical_word):
    """``canonical_word`` with the bottom node's word one letter short."""

    def faulty(self, mu):
        word = canonical_word(self, mu)
        return word[1:] if mu == self.bottom else word

    return faulty


@pytest.mark.parametrize("faults,message", [
    # no neighbours: the quiver has no arrows, so the vertex of label 1 is
    # addable at the top
    ([(_GR24, "neighbours", ((), (), ()))], "letter 1 does not lower (0, 1, 0)"),
    # 3 lists 1 and 2, but 1 lists neither: (1,-1,1) steps at 3 to (2,0,-1)
    ([(_GR24, "neighbours", ((), (1, 3), (1, 2)))],
     "non-minuscule coordinate in orbit: (2, 0, -1)"),
    # 3 listed twice as its own neighbour: the step at 3 leaves (1,-1,1)
    # where it was, and that node gets two ideals
    ([(_GR24, "neighbours", ((2, 2), (1, 3), (3, 3)))],
     "ideal/coset correspondence is not a bijection"),
    ([(qv, "minuscule_orbit_size", lambda family, rank, weight: 7)],
     "6 ideals for 7 coset elements"),
    # the full quiver one vertex short, and an orbit size that agrees with it
    ([(MinusculePoset, "canonical_word", _short_at_bottom(MinusculePoset.canonical_word)),
      (qv, "minuscule_orbit_size", lambda family, rank, weight: 5)],
     "the full ideal is not the bottom node"),
    # 3 lists 2 twice and 1 once, and neither lists 3: six distinct nodes,
    # each with its parent, the last of them (-1,-1,0)
    ([(_GR24, "neighbours", ((), (3,), (1, 2, 2)))],
     "the full ideal is not the bottom node"),
    # 2 listed as its own neighbour: the first step leaves (0,0,1), with no
    # coordinate -1 to step back up at
    ([(_GR24, "neighbours", ((), (2, 3), (1,)))],
     "the canonical parent of (0, 0, 1) is not listed"),
    # 3 lists no neighbour: (1,-1,1) steps at 3 to (1,-1,-1), whose parent
    # at 2 would be (0,1,-2), no node of the listing
    ([(_GR24, "neighbours", ((2,), (1, 3), ()))],
     "the canonical parent of (1, -1, -1) is not listed"),
    # 1 listed as its own neighbour: (1,-1,1) steps at 1 to (0,-1,1), whose
    # parent at 2 would be (-1,1,0)
    ([(_GR24, "neighbours", ((1,), (1, 3), (2,)))],
     "the canonical parent of (0, -1, 1) is not listed"),
])
def test_model_build_checks_fire(monkeypatch, faults, message):
    # each build check of Gr(2,4) under the faults that reach it; its orbit runs
    # (0,1,0) -> (1,-1,1) -> (-1,0,1), (1,0,-1) -> (-1,1,-1) -> (0,-1,0)
    system = root_system("A", 3)
    monkeypatch.setattr(qv, "MinusculePoset", lambda _, weight: MinusculePoset(system, weight))
    for target, name, fault in faults:
        monkeypatch.setattr(target, name, fault)
    with pytest.raises(AssertionError) as exc:
        qv.MinusculeModel(_GR24, 2)
    assert str(exc.value) == message


def test_model_build_steps_by_the_neighbour_lists(monkeypatch):
    # the true lists on the stand-in build the model of the true system
    system = root_system("A", 3)
    monkeypatch.setattr(qv, "MinusculePoset", lambda _, weight: MinusculePoset(system, weight))
    model, true = qv.MinusculeModel(_GR24, 2), minuscule_model("A", 3, 2)
    assert model.ideals == true.ideals and model.words == true.words


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
    assert grown == {ideal for ideal in node_at if ideal.bit_count() <= longest}


def test_column_set_word_grows_the_ideal_of_its_column_set():
    # the --as indexset route against the closed-form node, every type-A
    # column set with n <= 9
    for n in range(2, 10):
        for r in range(1, n):
            model = minuscule_model("A", n - 1, r)
            for entries in combinations(range(1, n + 1), r):
                node = model.poset.node_of_indexset(entries)
                assert model.grow(qv.column_set_word(entries)) == model.ideals[node]


def test_a_request_walks_the_bottom_and_each_node_it_prints(capsys, monkeypatch):
    # 51 walks: the bottom word that builds the full quiver, then the nodes
    # of the answer and of its 49 components, each read off its ideal
    # (against a heap of label tops replayed on weights); no orbit is listed
    calls = []
    canonical_word = MinusculePoset.canonical_word

    def counting(self, mu):
        calls.append(tuple(mu))
        return canonical_word(self, mu)

    def listing(self, system, weight_index):
        raise AssertionError("a request listed the orbit")

    monkeypatch.setattr(MinusculePoset, "canonical_word", counting)
    monkeypatch.setattr(qv.MinusculeModel, "__init__", listing)
    assert main(["quiver", "build", "--family", "A", "--rank", "100",
                 "--weight", "50", "--w", "minimal", "--json"]) == 0
    assert '"singular_components"' in capsys.readouterr().out
    monkeypatch.undo()
    minuscule = qv.MinusculeQuiver(root_system("A", 100), 50)
    minimal = minuscule.grow(qv.minimal_v_word("A", 100, 50))
    components = qv.classify_holes(minimal, minuscule.masks).components
    assert len(components) == 49
    printed = [node_from_word(minuscule.poset, word_of_by_heap(minuscule, ideal))
               for ideal in (minimal, *components)]
    assert calls == [minuscule.poset.bottom, *printed]


def test_a_request_scans_up_sets_only_to_classify_holes(capsys, monkeypatch):
    # one mask pass over the full quiver, and the one hole report reads it:
    # no up-set is scanned again per candidate or for the 49 components
    passes, classified = [], []
    hole_masks, classify = qv.Quiver.hole_masks, qv.classify_holes

    def counting_hole_masks(self):
        passes.append(hole_masks(self))
        return passes[-1]

    def counting_classify(marked, masks):
        classified.append(masks)
        return classify(marked, masks)

    monkeypatch.setattr(qv.Quiver, "hole_masks", counting_hole_masks)
    monkeypatch.setattr(qv, "classify_holes", counting_classify)
    assert main(["quiver", "build", "--family", "A", "--rank", "100",
                 "--weight", "50", "--w", "minimal", "--json"]) == 0
    assert len(json.loads(capsys.readouterr().out)["result"]["singular_components"]) == 49
    assert len(passes) == len(classified) == 1
    assert classified[0] is passes[0] and len(passes[0][0]) == 2550


def test_order_direction():
    up = qv.quiver_from_word((2, 1, 3, 2), root_system("A", 3)).hole_masks()[0]
    # arrows point toward later positions, which sit lower
    assert up[3] >> 0 & 1
    assert not up[0] >> 3 & 1
    assert up[3] == as_mask({0, 1, 2, 3})
    assert up[0] == as_mask({0})


@pytest.mark.parametrize("family,rank,weight", MINUSCULE_CASES)
def test_above_is_the_closure_of_the_arrows(family, rank, weight):
    model = minuscule_model(family, rank, weight)
    q = model.full
    below = quiver_order_by_closure(q.system, q.word)
    up = model.masks[0]
    assert up == q.hole_masks()[0]
    for i in range(q.n_vertices):
        assert up[i] == as_mask(j for j in range(q.n_vertices) if i in below[j])


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
            assert is_ideal(q, as_mask(subset)) == closed


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
    assert is_ideal(q, as_mask({3}))
    assert is_ideal(q, as_mask({1, 3}))
    assert not is_ideal(q, as_mask({0}))
    assert not is_ideal(q, as_mask({0, 3}))
    assert is_ideal(q, 0)


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
        report = qv.classify_holes(ideal, model.masks)
        comps = report.components
        assert len(set(comps)) == len(comps) == len(report.essential)
        for h, comp in zip(report.essential, comps):
            assert not comp >> h & 1 and comp & ~ideal == 0 and comp != ideal
            assert is_ideal(model.full, comp)


@pytest.mark.parametrize("family,rank,weight", [
    case for case in MINUSCULE_CASES if case[0] != "A" or case[1] <= 7
])
def test_components_drop_the_up_set_of_each_essential_hole(family, rank, weight):
    model = minuscule_model(family, rank, weight)
    below = quiver_order_by_closure(model.system, model.full.word)
    for ideal in model.ideals.values():
        report = qv.classify_holes(ideal, model.masks)
        assert report.components == tuple(
            ideal & ~as_mask(j for j in range(model.full.n_vertices) if h in below[j])
            for h in report.essential
        )


@pytest.mark.parametrize("family,rank,weight", [
    case for case in MINUSCULE_CASES if case[0] != "A" or case[1] <= 7
])
def test_holes_match_the_pairing_oracle(family, rank, weight):
    model = minuscule_model(family, rank, weight)
    for ideal in model.ideals.values():
        report = qv.classify_holes(ideal, model.masks)
        assert (report.real, report.virtual, report.essential) == (
            classify_holes_by_pairing(model.full, ideal)
        )
        assert model.holes(ideal) == report


@pytest.mark.parametrize("family,rank,weight", MINUSCULE_CASES)
def test_mask_classification_matches_the_up_set_scans(family, rank, weight):
    # every ideal, on the model's shared masks and on masks built per call
    model = minuscule_model(family, rank, weight)
    for ideal in model.ideals.values():
        report = classify_holes_by_scans(model.full, ideal)
        assert qv.classify_holes(ideal, model.masks) == report
        assert qv.classify_holes(ideal, model.full.hole_masks()) == report


def test_full_grassmannian_is_smooth():
    model = minuscule_model("A", 3, 2)
    report = model.holes((1 << model.full.n_vertices) - 1)
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
    assert v.bit_count() == 4
    report = model.holes(v)
    assert len(report.real) == 1
    hole = report.real[0]
    assert model.full.word[hole] == 2  # the fork joint n-2
    assert [model.word_of(c) for c in report.components] == [(1,)]


def test_d4_spin_minimal_v():
    model = minuscule_model("D", 4, 3)
    word = qv.minimal_v_word("D", 4, 3)
    assert word == (4, 1, 2, 3)
    v = model.ideals[node_from_word(model.poset, word)]
    assert model.grow(word) == v
    report = model.holes(v)
    assert len(report.real) == 1
    assert model.full.word[report.real[0]] == 2


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
    assert bottom == (1 << model.full.n_vertices) - 1 and bottom.bit_count() == 16
    assert not model.holes(bottom).real


def test_e6_minimal_v():
    model = minuscule_model("E6", 6, 1)
    v = model.grow(qv.minimal_v_word("E6", 6, 1))
    assert v.bit_count() == 10
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


def _swap_check(qa, qb, p):
    """The swap check on the quivers' target tuples; on the same targets as
    lists, the form ``quiver-words`` passes, it must answer alike."""
    answer = qv.quivers_isomorphic_under_swap(qa.word, qa.targets, qb.word, qb.targets, p)
    a, b = ([list(ts) for ts in q.targets] for q in (qa, qb))
    assert qv.quivers_isomorphic_under_swap(qa.word, a, qb.word, b, p) == answer
    return answer


def _with_targets(q, targets):
    """The quiver ``q`` with its arrows replaced by ``targets``."""
    return qv.Quiver(q.system, q.word, targets)


def test_commutation_isomorphism():
    system = root_system("D", 4)
    word = (3, 4, 2, 1)
    qa = qv.quiver_from_word(word, system)
    targets = qv.word_targets(word, system)
    for p, other in qv.commutation_moves(word, system):
        qb = qv.quiver_from_word(other, system)
        assert _swap_check(qa, qb, p)
        assert qv.quivers_isomorphic_under_swap(
            word, targets, other, qv.word_targets(other, system), p
        )


def test_swap_isomorphism_compares_the_order():
    system = root_system("A", 3)
    qa = qv.quiver_from_word((2, 1, 3, 2), system)
    qb = qv.quiver_from_word((2, 3, 1, 2), system)
    assert _swap_check(qa, qb, 1)
    assert _swap_check(qa, _with_targets(qb, qb.targets), 1)
    # same labels, but the arrow 0 -> 2 is lost, or an arrow 0 -> 3 is gained
    assert qb.targets[0] == (1, 2)
    for targets in ((1,), (1, 2, 3)):
        changed = _with_targets(qb, (targets,) + qb.targets[1:])
        assert not _swap_check(qa, changed, 1)


def test_swap_check_refuses_an_unsorted_target_tuple():
    # the same arrows as an isomorphic quiver, listed out of order
    system = root_system("A", 3)
    qa = qv.quiver_from_word((2, 1, 3, 2), system)
    qb = qv.quiver_from_word((2, 3, 1, 2), system)
    assert qb.targets[0] == (1, 2)
    unsorted = _with_targets(qb, ((2, 1),) + qb.targets[1:])
    assert quivers_isomorphic_by_arrow_sets(qa, unsorted, 1)
    assert not quivers_isomorphic_by_sorted_targets(qa, unsorted, 1)
    assert not _swap_check(qa, unsorted, 1)


def _swaps_of_the_quiver_words_plans():
    """Every (word, move) of the quiver-words plans, as (qa, qb, p)."""
    plans = [("A", n - 1, r) for n in range(4, 8) for r in range(1, n)]
    plans += [("D", n, w) for n in (4, 5, 6) for w in (1, n - 1, n)]
    plans += [("E6", 6, 1), ("E6", 6, 6), ("E7", 7, 7)]
    for family, rank, weight in plans:
        model = minuscule_model(family, rank, weight)
        for word in model.words.values():
            qa = qv.quiver_from_word(word, model.system)
            for p, other in qv.commutation_moves(word, model.system):
                yield qa, qv.quiver_from_word(other, model.system), p


def _assert_swap_check_agrees(oracle):
    # at the move's own position and at every other one
    moves = 0
    for qa, qb, p in _swaps_of_the_quiver_words_plans():
        moves += 1
        assert _swap_check(qa, qb, p)
        for s in range(qa.n_vertices - 1):
            assert _swap_check(qa, qb, s) == oracle(qa, qb, s), (qa.word, p, s)
    assert moves == 591


def test_target_lists_are_the_quivers_targets_on_every_word_the_suite_walks():
    # each word and each swapped word of the quiver-words plans, as lists
    # and against the arrows tested pair by pair from the definition
    words = 0
    for qa, qb, _ in _swaps_of_the_quiver_words_plans():
        for q in (qa, qb):
            words += 1
            built = qv.word_targets(q.word, q.system)
            assert built == [list(ts) for ts in q.targets]
            assert q.targets == quiver_by_pairing_scan(q.word, q.system).targets
    assert words == 2 * 591


def _one_list_perturbed(targets, p):
    """Copies of a target list of lists with one list changed: its last
    target dropped, p or p + 1 added where missing, or its order reversed."""
    for k, ts in enumerate(targets):
        changes = [ts[:-1]] if ts else []
        changes += [sorted(ts + [t]) for t in (p, p + 1) if t not in ts]
        if len(ts) > 1:
            changes.append(ts[::-1])
        for changed in changes:
            yield targets[:k] + [changed] + targets[k + 1 :]


def test_swap_check_agrees_with_the_permutation_list_check():
    # the target lists quiver-words compares, as built and with one list of
    # either side perturbed, against the check that reads the swap through a
    # permutation list of every position
    moves, perturbed, refused = 0, 0, 0
    for qa, qb, p in _swaps_of_the_quiver_words_plans():
        a, b = (qv.word_targets(q.word, q.system) for q in (qa, qb))
        moves += 1
        assert qv.quivers_isomorphic_under_swap(qa.word, a, qb.word, b, p)
        assert quivers_isomorphic_under_swap_by_sigma(qa.word, a, qb.word, b, p)
        cases = [(changed, b) for changed in _one_list_perturbed(a, p)]
        cases += [(a, changed) for changed in _one_list_perturbed(b, p)]
        for ta, tb in cases:
            answer = qv.quivers_isomorphic_under_swap(qa.word, ta, qb.word, tb, p)
            assert answer == quivers_isomorphic_under_swap_by_sigma(
                qa.word, ta, qb.word, tb, p
            ), (qa.word, p, ta, tb)
            perturbed += 1
            refused += not answer
    assert moves == 591
    # only an order reversed in a list holding p or p + 1 can still pass
    assert perturbed > refused > 0.9 * perturbed


def test_swap_check_agrees_with_the_sorted_targets_oracle():
    # the target tuples vertex by vertex against the sorted image of each
    # vertex's targets
    _assert_swap_check_agrees(quivers_isomorphic_by_sorted_targets)


def test_swap_check_agrees_with_the_arrow_sets_oracle():
    _assert_swap_check_agrees(quivers_isomorphic_by_arrow_sets)


def test_quiver_from_word_names_the_first_letter_out_of_range():
    system = root_system("A", 3)
    for word, bad in [((2, 5, 0, 1), 5), ((0, 2, 7), 0), ((1, 2, 4), 4), ((-1, 3), -1)]:
        for build in (qv.quiver_from_word, qv.word_targets):
            with pytest.raises(ValueError) as exc:
                build(word, system)
            assert str(exc.value) == f"letter {bad} out of range for A3"
    assert qv.quiver_from_word((), system).n_vertices == 0


def test_verify_reads_the_lookups_quiver_build_runs(monkeypatch):
    classify = qv.classify_holes

    def one_hole_short(marked, masks):
        # the last real hole goes missing, with the component it carves out
        report = classify(marked, masks)
        real = report.real[:-1]
        kept = [i for i, h in enumerate(report.essential) if h in real]
        return qv.HoleReport(
            real, report.virtual,
            tuple(report.essential[i] for i in kept),
            tuple(report.components[i] for i in kept),
        )

    # models cached by earlier calls keep the reports they classified
    fresh_verify_memos(monkeypatch)
    monkeypatch.setattr(qv, "classify_holes", one_hole_short)
    assert not verify.cross_smooth()["passed"]
    assert not verify.cross_singular()["passed"]

    def first_component_only(marked, masks):
        report = classify(marked, masks)
        return qv.HoleReport(report.real, report.virtual, report.essential,
                             report.components[:1])

    fresh_verify_memos(monkeypatch)
    monkeypatch.setattr(qv, "classify_holes", first_component_only)
    assert verify.cross_smooth()["passed"]
    assert not verify.cross_singular()["passed"]


def test_verify_all_classifies_each_marked_quiver_once(monkeypatch):
    calls = []
    classify = qv.classify_holes

    def counting(marked, masks):
        # each model classifies on its own quiver's masks
        calls.append((id(masks), marked))
        return classify(marked, masks)

    fresh_verify_memos(monkeypatch)
    monkeypatch.setattr(qv, "classify_holes", counting)
    assert all(result["passed"] for result in run_all_in_one_process())
    assert len(calls) == len(set(calls)) == 279


def test_dot_output_is_stable_and_annotated():
    model = minuscule_model("E6", 6, 1)
    q, v = model.full, model.grow(qv.minimal_v_word("E6", 6, 1))
    dot = qv.quiver_to_dot(q, v, qv.classify_holes(v, q.hole_masks()))
    assert dot == qv.quiver_to_dot(q, v, qv.classify_holes(v, model.masks))
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
    bottom = model.ideals[model.poset.bottom]
    dot = qv.quiver_to_dot(model.full, bottom, qv.classify_holes(bottom, model.masks))
    assert "peripheries" not in dot
    assert "style=dotted" not in dot


# the orbits of the checks against criteria that use no holes: A2..A8 at
# every weight, D4..D8 at weights 1, n-1 and n, E6 omega_1/omega_6 and E7 omega_7
CRITERIA_ORBITS = (
    [("A", n, k) for n in range(2, 9) for k in range(1, n + 1)]
    + [("D", n, k) for n in range(4, 9) for k in (1, n - 1, n)]
    + [("E6", 6, 1), ("E6", 6, 6), ("E7", 7, 7)]
)


def test_smooth_iff_the_poincare_polynomial_is_palindromic():
    """``classify_holes`` finds no real hole exactly when the Poincare
    polynomial of the ideals below is palindromic (Carrell-Peterson), on
    every ideal of 53 orbits, D and E among them: a check of the hole rule
    outside type A that shares nothing with it but the full quiver."""
    nodes = smooth = 0
    for family, rank, weight in CRITERIA_ORBITS:
        minuscule = qv.MinusculeQuiver(root_system(family, rank), weight)
        ideals = [ideal for ideal, _, _ in ideals_by_vertex_scan(minuscule.full)]
        for w in ideals:
            expected = is_smooth_by_poincare(ideals, w)
            assert (not qv.classify_holes(w, minuscule.masks).real) is expected, (
                family, rank, weight, w)
            smooth += expected
        nodes += len(ideals)
    assert (len(CRITERIA_ORBITS), nodes, smooth) == (53, 1668, 532)


def test_singular_locus_matches_the_t_stable_curves_and_homogeneity():
    """``classify_holes`` against two criteria that use no holes, on every
    ideal of the 53 orbits: the T-stable curves through each fixed point
    give smoothness and the exact component ideals of the singular locus,
    and homogeneity (Brion-Polo, Hong-Mok) gives smoothness.  The nodes
    are replayed by the oracles' reflections along the vertex scan's
    listing, and the roots come from the oracles' Cartan matrix."""
    nodes = smooth = components = 0
    for family, rank, weight in CRITERIA_ORBITS:
        system = root_system(family, rank)
        minuscule = qv.MinusculeQuiver(system, weight)
        listed, word = ideals_by_vertex_scan(minuscule.full), minuscule.full.word
        weights = [minuscule.poset.top]
        for _, v, k in listed[1:]:
            weights.append(reflect(system, weights[k], word[v]))
        ideals = [ideal for ideal, _, _ in listed]
        curves = tangent_curves(system, weights)
        for w in ideals:
            report = qv.classify_holes(w, minuscule.masks)
            expected = singular_components_by_curves(curves, ideals, w)
            assert sorted(report.components) == sorted(expected), (family, rank, weight, w)
            assert (not report.real) is (not expected), (family, rank, weight, w)
            letters = {word[i] for i in marked_set(w)}
            assert is_homogeneous(system, weight, letters, w.bit_count()) is (not expected), (
                family, rank, weight, w)
            smooth += not expected
            components += len(expected)
        nodes += len(ideals)
    assert (len(CRITERIA_ORBITS), nodes, smooth, components) == (53, 1668, 532, 1446)
