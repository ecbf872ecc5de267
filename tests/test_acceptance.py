"""Acceptance gate: ten exact, integer-valued checks, one per test.

Each test prints a single ``AC<k>: PASS`` line (visible with ``pytest -s``)
after its assertions go through, so the gate can be read off a terminal in
one glance.  Everything here is either an exhaustive sweep or a frozen
integer; there are no tolerances.
"""

import json
from itertools import combinations_with_replacement, permutations, product
from math import gcd
from pathlib import Path

from oracles import family_element, invariant_dim_geometric, is_standard_exhaustive
from torusq import smt, verify


def _gate(tag: str, result: dict, detail: str = ""):
    note = detail or f"{result['checks']} checks"
    if result["passed"]:
        print(f"{tag}: PASS — {note}")
    else:
        print(f"{tag}: FAIL — {result['failures'][:3]}")
    assert result["passed"], result["failures"]


def test_ac1_sl7_dimension_chain():
    result = verify.golden_sl7()
    # independent cross-check: every frozen count equals the rank of the
    # section-evaluation matrix at random points
    for k, j, predicted, tag in smt.family_rows("a", 7, 3):
        if tag == "copy":
            continue
        w = family_element("a", 7, 3, k, j)
        assert invariant_dim_geometric(w, 1) == predicted, (k, j)
    _gate("AC1", result, f"{result['checks']} frozen counts, each matching "
          "the geometric rank oracle")


def test_ac2_family_dimension_tables():
    _gate("AC2", verify.family_tables())


def test_ac3_minimal_borel_elements():
    result = verify.minimal_borel()
    got = smt.minimal_borel_semistable(5)
    assert len(got) == 4
    _gate("AC3", result, "S_5 brute force (120 permutations) matches the "
          "4-element closed form")


def test_ac4_hilbert_function_growth():
    result = verify.hilbert()
    assert result["info"]["flagged"] == []
    _gate("AC4", result, f"{result['checks']} section counts grow like a "
          "free polynomial ring; no anomalies flagged")


def test_ac5_smoothness_cross_characterization():
    _gate("AC5", verify.cross_smooth())


def test_ac6_singular_components_cross_check():
    _gate("AC6", verify.cross_singular())


def test_ac7_criterion_equivalence():
    _gate("AC7", verify.minima_sweep())


def test_ac8_minimal_element_is_singular():
    _gate("AC8", verify.minimal_singular())


def test_ac9_word_independence_of_quivers():
    _gate("AC9", verify.quiver_words())


def test_ac10_greedy_equals_exhaustive_standardness():
    checks = 0
    for n in range(2, 6):
        for m in (1, 2):
            shapes = list(product(range(1, n + 1), repeat=m))
            for w in permutations(range(1, n + 1)):
                for shorts in shapes:
                    for missings in shapes:
                        assert smt.is_standard_on(shorts, missings, w) == (
                            is_standard_exhaustive(shorts, missings, w)
                        ), (n, w, shorts, missings)
                        checks += 1
    print(f"AC10: PASS — greedy standardness equals exhaustive chain search "
          f"on {checks} tableau/element pairs (n <= 5)")


def test_invariant_dimension_against_geometry_s5_spotcheck():
    # not one of the ten gates, but the obvious global sanity pass: the
    # combinatorial count equals the geometric rank on a spread of S_5
    for w in list(permutations(range(1, 6)))[::7]:
        for m in (1, 2):
            assert smt.invariant_dimension(w, m) == invariant_dim_geometric(w, m)


def test_full_suite_runner():
    # the suites and their check counts are read from the record of
    # ``verify all --json`` that test_golden pins byte for byte
    text = (Path(__file__).parent / "golden" / "verify.txt").read_text()
    pinned = json.loads(text[text.index("\n") + 1:])
    results = verify.run_suite("all")
    assert len(results) == len(pinned)
    assert all(r["passed"] for r in results)
    total = sum(r["checks"] for r in results)
    assert total == sum(p["checks"] for p in pinned)
    print(f"verify all: {total} checks across {len(results)} suites")
