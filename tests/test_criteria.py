"""The semistable-vs-singular comparison in all of its formulations.

The point of the report and of the cross verdicts that ``verify`` keeps
is that several independently computed verdicts must coincide; these tests pin a few of them to hand-checked
values and sweep the coincidence on small boxes.
"""

import json
from itertools import combinations
from math import gcd

import pytest

from oracles import node_from_word
from torusq import criteria, grassmannian as gr, smt, verify
from torusq.cli import main
from torusq.quiver import minimal_v_word


def test_singular_tops_gr25():
    def tops(w):
        result, _ = criteria.semistable_meets_singular_gr(w, 2, 5)
        return [gr.partition_to_indexset(mu, 2, 5) for mu in result["singular_components"]]

    assert tops((3, 5)) == [(2, 3)]
    assert tops((4, 5)) == []  # smooth variety
    assert tops((2, 4)) == [(1, 2)]


def test_semistable_bottoms_report():
    # gcd(2, 5) = 1: no certificate is run
    assert criteria.e_ss_gr(2, 5) == (
        {"value": (3, 5), "formula": (3, 5), "oracle": None, "agrees": True}, []
    )

    block, warnings = criteria.e_ss_gr(2, 4)
    assert block == {"value": (2, 4), "formula": (3, 4), "oracle": [(2, 4)],
                     "agrees": False}
    assert len(warnings) == 1 and "overshoots" in warnings[0]

    block, _ = criteria.e_ss_gr(3, 5)
    assert block == {"value": (2, 4, 5), "formula": (3, 4, 5), "oracle": None,
                     "agrees": False}

    block, _ = criteria.e_ss_gr(3, 6)  # gcd 3: the certificate runs
    assert block == {"value": (2, 4, 6), "formula": (3, 5, 6), "oracle": [(2, 4, 6)],
                     "agrees": False}

    # each of these lies above its box's minimal element
    for w, r, n in [((3, 5), 2, 5), ((2, 4), 2, 4), ((3, 4, 5), 3, 5), ((3, 5, 6), 3, 6)]:
        result, _ = criteria.semistable_meets_singular_gr(w, r, n)
        assert result["semistable_nonempty"] is True, (w, r, n)


def test_certified_oracle_equals_the_sweep():
    """``oracle`` from r + 1 fits at v is what the sweep of every column
    set finds, on every box with n <= 13."""
    for n in range(2, 14):
        for r in range(1, n):
            sweep = smt.minimal_semistable_oracle_gr(r, n)
            v = gr.minimal_semistable(r, n)
            assert smt.is_certified_minimum_gr(v, r, n) is (sweep == [v]), (r, n)
            oracle = criteria.e_ss_gr(r, n)[0]["oracle"]
            assert oracle == (None if gcd(r, n) == 1 else sweep), (r, n)


def test_unconfirmed_minimum_is_reported(monkeypatch):
    monkeypatch.setattr(smt, "is_certified_minimum_gr", lambda v, r, n: False)
    block, warnings = criteria.e_ss_gr(3, 6)
    assert block["oracle"] == [] and block["agrees"] is False
    assert any("confirms" in w for w in warnings)
    result, warnings = criteria.semistable_meets_singular_gr((3, 5, 6), 3, 6)
    assert result["semistable_nonempty"] is True
    assert any("confirms" in w for w in warnings)
    block, warnings = criteria.e_ss_gr(2, 5)  # gcd 1: nothing to confirm
    assert block["oracle"] is None and warnings == []


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


def test_model_cache_returns_same_object():
    a = verify.minuscule_model("A", 4, 2)
    b = verify.minuscule_model("A", 4, 2)
    assert a is b


def test_minimal_v_node_depth_matches_word_length():
    for family, rank, weight in [("A", 4, 2), ("D", 4, 1), ("D", 5, 5), ("E6", 6, 1)]:
        model = verify.minuscule_model(family, rank, weight)
        word = minimal_v_word(family, rank, weight)
        ideal = model.grow(word)
        assert len(ideal) == len(word)
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

    bottom = model.full.members
    assert not model.holes(bottom).real
    assert model.semistable_in_smooth(bottom, v) is True

    top = frozenset()
    assert not model.holes(top).real
    assert not v <= top  # no semistable points
    with pytest.raises(ValueError):
        model.semistable_in_smooth(top, v)


def test_quiver_verdict_matches_grassmannian_route():
    model = verify.minuscule_model("A", 4, 2)
    v = model.grow(minimal_v_word("A", 4, 2))
    for w in combinations(range(1, 6), 2):
        if not gr.indexset_leq((3, 5), w):
            continue
        ideal = model.ideals[model.poset.node_of_indexset(w)]
        assert model.semistable_in_smooth(ideal, v) == gr.semistable_in_smooth(
            w, 2, 5
        )
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
                gcd(r, n) == 1 and nonempty and gr.semistable_in_smooth(w, r, n)
            )
            assert result["quotient_smooth"] is expected
            lam = gr.indexset_to_partition(w, r, n)
            assert result["smooth"] is gr.is_smooth(lam, r, n)
