"""The semistable-vs-singular comparison in all of its formulations.

The point of the report and of the cross verdicts that ``verify`` keeps
is that several independently computed verdicts must coincide; these tests pin a few of them to hand-checked
values and sweep the coincidence on small boxes.
"""

import json
from itertools import combinations
from math import gcd

import pytest

from oracles import is_certified_minimum_gr, node_from_word, separated_by_components
from torusq import criteria, grassmannian as gr, verify
from torusq.cli import main
from torusq.quiver import minimal_v_word


def test_singular_tops_gr25():
    def tops(w):
        result, _ = criteria.semistable_meets_singular_gr(w, 2, 5)
        return [gr.partition_to_indexset(mu, 2, 5) for mu in result["singular_components"]]

    assert tops((3, 5)) == [(2, 3)]
    assert tops((4, 5)) == []  # smooth variety
    assert tops((2, 4)) == [(1, 2)]


def minimal_v_report(r, n):
    """The report's ``minimal_v`` block and warnings at the top column set
    of Gr(r, n), which lies above v, so only the formula can warn."""
    result, warnings = criteria.semistable_meets_singular_gr(range(n - r + 1, n + 1), r, n)
    return result["minimal_v"], warnings


def test_semistable_bottoms_report():
    # gcd(2, 5) = 1: every semistable point is stable, no oracle minima
    assert minimal_v_report(2, 5) == (
        {"value": (3, 5), "formula": (3, 5), "oracle": None, "agrees": True}, []
    )

    block, warnings = minimal_v_report(2, 4)
    assert block == {"value": (2, 4), "formula": (3, 4), "oracle": [(2, 4)],
                     "agrees": False}
    assert warnings == [
        "two-branch closed form (3, 4) overshoots the minimal semistable element (2, 4)"
    ]

    block, _ = minimal_v_report(3, 5)
    assert block == {"value": (2, 4, 5), "formula": (3, 4, 5), "oracle": None,
                     "agrees": False}

    block, _ = minimal_v_report(3, 6)  # gcd 3: the proven minimum is the oracle
    assert block == {"value": (2, 4, 6), "formula": (3, 5, 6), "oracle": [(2, 4, 6)],
                     "agrees": False}

    # each of these lies above its box's minimal element
    for w, r, n in [((3, 5), 2, 5), ((2, 4), 2, 4), ((3, 4, 5), 3, 5), ((3, 5, 6), 3, 6)]:
        result, _ = criteria.semistable_meets_singular_gr(w, r, n)
        assert result["semistable_nonempty"] is True, (w, r, n)


def test_certified_oracle_equals_the_sweep():
    """``oracle``, the proven minimum, is what the sweep of every column
    set finds, and so is the certificate of r + 1 fits at v, on every box
    with n <= 13."""
    for n in range(2, 14):
        for r in range(1, n):
            sweep = verify.minimal_semistable_oracle_gr(r, n)
            v = gr.minimal_semistable(r, n)
            assert is_certified_minimum_gr(v, r, n) is (sweep == [v]), (r, n)
            oracle = minimal_v_report(r, n)[0]["oracle"]
            assert oracle == (None if gcd(r, n) == 1 else sweep), (r, n)


def test_proven_minimum_is_certified_beyond_the_sweep():
    """The certificate confirms ``oracle`` on every box with gcd(r, n) > 1
    and 14 <= n <= 60, past the sweep's reach, and on a few at the
    ``gr analyze`` limit n = 300, among them r = 150 and 152, where the
    certificate costs most."""
    boxes = [(r, n) for n in range(14, 61) for r in range(2, n) if gcd(r, n) > 1]
    assert len(boxes) == 648
    boxes += [(r, 300) for r in (2, 100, 150, 152, 200, 270, 298)]
    for r, n in boxes:
        [v] = minimal_v_report(r, n)[0]["oracle"]
        assert is_certified_minimum_gr(v, r, n), (r, n)


def test_formula_agrees_exactly_when_n_is_1_mod_r():
    for n in range(3, 10):
        for r in range(2, n):
            agree = gr.minimal_semistable(r, n) == gr.minimal_semistable_formula(r, n)
            assert agree == (n % r == 1), (r, n)


def test_meets_report_gr25():
    assert criteria.semistable_meets_singular_gr((3, 5), 2, 5) == (
        {
            "partition": (1, 0),
            "corners": [(1, 1)],
            "singular_components": [(2, 2)],
            "smooth": False,
            "minimal_v": {"value": (3, 5), "formula": (3, 5), "oracle": None,
                          "agrees": True},
            "semistable_nonempty": True,
            "ss_in_smooth": True,  # v = (3, 5) is not below the top (2, 3)
            "quotient_smooth": True,
        },
        [],
    )


def test_meets_report_below_v():
    result, warnings = criteria.semistable_meets_singular_gr((1, 2), 2, 5)
    assert not result["semistable_nonempty"]
    assert result["ss_in_smooth"] is None  # nothing semistable to compare
    assert result["quotient_smooth"] is False
    assert warnings == ["no semistable points below this element"]


def test_cross_verdicts_raise_without_semistable_points():
    with pytest.raises(ValueError):
        verify.gr_cross_verdicts((1, 2), 2, 5)


def test_cross_verdicts_agree_on_small_boxes():
    for r, n in [(2, 4), (2, 5), (3, 5), (2, 6), (3, 6)]:
        v = gr.minimal_semistable(r, n)
        for w in combinations(range(1, n + 1), r):
            if not gr.indexset_leq(v, w):
                continue
            verdicts = verify.gr_cross_verdicts(w, r, n)
            assert len(set(verdicts.values())) == 1, (r, n, w, verdicts)
            assert verdicts["pair-comparison"] is True  # no failures this small


def test_first_failing_case():
    # the smallest column set whose semistable points reach the singular
    # locus lives in the 4x5 box
    verdicts = verify.gr_cross_verdicts((5, 7, 8, 9), 4, 9)
    assert verdicts == {
        "pair-comparison": False,
        "diagram": False,
        "gap-inequality": False,
        "quiver": False,
    }
    # its neighbours one step up are fine again
    assert all(verify.gr_cross_verdicts((6, 7, 8, 9), 4, 9).values())


def test_report_separation_equals_the_component_comparison():
    """The report's one inequality per gap gives the verdict of comparing
    v with every singular component's column set, on every column set
    above v with n <= 12 and on the Gr(150, 300) staircase."""
    cases = [
        (w, r, n)
        for n in range(2, 13)
        for r in range(1, n)
        for w in combinations(range(1, n + 1), r)
        if gr.indexset_leq(gr.minimal_semistable(r, n), w)
    ]
    cases.append((tuple(range(2, 301, 2)), 150, 300))
    verdicts = []
    for w, r, n in cases:
        result, _ = criteria.semistable_meets_singular_gr(w, r, n)
        assert result["ss_in_smooth"] is separated_by_components(w, r, n), (w, r, n)
        verdicts.append(result["ss_in_smooth"])
    assert (len(verdicts), verdicts.count(False)) == (887, 160)


def test_model_cache_returns_same_object():
    a = verify.minuscule_model("A", 4, 2)
    b = verify.minuscule_model("A", 4, 2)
    assert a is b


def test_minimal_v_node_depth_matches_word_length():
    for family, rank, weight in [("A", 4, 2), ("D", 4, 1), ("D", 5, 5), ("E6", 6, 1)]:
        model = verify.minuscule_model(family, rank, weight)
        word = minimal_v_word(family, rank, weight)
        ideal = model.grow(word)
        assert ideal.bit_count() == len(word)
        assert model.ideals[node_from_word(model.poset, word)] == ideal


def test_minuscule_report_quadric():
    model = verify.minuscule_model("D", 4, 1)
    v = model.grow(minimal_v_word("D", 4, 1))
    holes = model.holes(v)
    assert holes.real  # not smooth
    assert holes.real == holes.essential
    assert len(holes.components) == 1
    # the hole sits inside the ideal of v
    assert model.semistable_in_smooth(v, v) is True

    bottom = (1 << model.full.n_vertices) - 1
    assert not model.holes(bottom).real
    assert model.semistable_in_smooth(bottom, v) is True

    top = 0
    assert not model.holes(top).real
    assert v & ~top  # no semistable points
    with pytest.raises(ValueError):
        model.semistable_in_smooth(top, v)


def test_quiver_verdict_matches_grassmannian_route():
    model = verify.minuscule_model("A", 4, 2)
    v = model.grow(minimal_v_word("A", 4, 2))
    for w in combinations(range(1, 6), 2):
        if not gr.indexset_leq((3, 5), w):
            continue
        ideal = model.ideals[model.poset.node_of_indexset(w)]
        result, _ = criteria.semistable_meets_singular_gr(w, 2, 5)
        assert model.semistable_in_smooth(ideal, v) == result["ss_in_smooth"]
        lam = gr.indexset_to_partition(w, 2, 5)
        assert (not model.holes(ideal).real) == gr.is_smooth(lam, 2, 5)


def test_quotient_report_consistency(capsys):
    # the quotient verdict folds gcd, nonemptiness and separation together
    for r, n in [(2, 4), (2, 5), (3, 5), (2, 6), (3, 7)]:
        v = gr.minimal_semistable(r, n)
        for w in combinations(range(1, n + 1), r):
            assert main(["gr", "analyze", "--n", str(n), "--r", str(r),
                         "--w", ",".join(map(str, w)), "--json"]) == 0
            result = json.loads(capsys.readouterr().out)["result"]
            nonempty = gr.indexset_leq(v, w)
            expected = (
                gcd(r, n) == 1 and nonempty and separated_by_components(w, r, n)
            )
            assert result["quotient_smooth"] is expected
            lam = gr.indexset_to_partition(w, r, n)
            assert result["smooth"] is gr.is_smooth(lam, r, n)
