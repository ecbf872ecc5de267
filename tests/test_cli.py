"""End-to-end runs of the command line entry point, in process."""

import json
from math import gcd

import pytest

from oracles import invariant_witnesses_by_filter, is_invariant_chain, word_descends
from torusq import cli, criteria, grassmannian as gr, quiver as qv, smt, verify
from torusq.cli import GR_MAX_N, QUIVER_MAX_VERTICES, SMT_MINIMAL_MAX_N, SMT_WORD_MAX_N, main
from torusq.rootdata import minuscule_dimension, root_system
from torusq.weyl import MinusculePoset
from verify_memos import fresh_verify_memos

# README's D4 quadric example: the quiver of the minimal semistable element
QUADRIC_DOT = """\
digraph quiver {
  rankdir=TB;
  v0 [label="1", shape=circle, style=dotted];
  v1 [label="2", shape=circle, style=dotted];
  v2 [label="3", shape=circle];
  v3 [label="4", shape=circle];
  v4 [label="2", shape=circle, peripheries=2];
  v5 [label="1", shape=circle];
  v0 -> v1 [style=dotted];
  v0 -> v4 [style=dotted];
  v1 -> v2 [style=dotted];
  v1 -> v3 [style=dotted];
  v2 -> v4;
  v3 -> v4;
  v4 -> v5;
}
"""


def run_json(capsys, argv):
    code = main(argv + ["--json"])
    out = capsys.readouterr().out
    return code, json.loads(out), out


def test_analyze_envelope_and_determinism(capsys):
    code, payload, raw1 = run_json(capsys, ["gr", "analyze", "--n", "5", "--r", "2", "--w", "3,5"])
    assert code == 0
    assert sorted(payload) == ["input", "result", "warnings", "witnesses"]
    assert payload["input"] == {"n": 5, "r": 2, "w": [3, 5]}
    result = payload["result"]
    assert result["partition"] == [1, 0]
    assert result["smooth"] is False
    assert result["singular_components"] == [[2, 2]]
    assert result["ss_in_smooth"] is True
    assert result["quotient_smooth"] is True
    assert result["minimal_v"]["agrees"] is True
    assert payload["witnesses"][0]["degree"] == 5
    # byte-for-byte reproducible
    _, _, raw2 = run_json(capsys, ["gr", "analyze", "--n", "5", "--r", "2", "--w", "3,5"])
    assert raw1 == raw2


def test_analyze_flags_even_box(capsys):
    code, payload, _ = run_json(capsys, ["gr", "analyze", "--n", "4", "--r", "2", "--w", "2,4"])
    assert code == 0
    result = payload["result"]
    assert result["quotient_smooth"] is False
    assert result["minimal_v"]["value"] == [2, 4]
    assert result["minimal_v"]["formula"] == [3, 4]
    assert result["minimal_v"]["oracle"] == [[2, 4]]
    assert result["minimal_v"]["agrees"] is False
    assert any("overshoots" in w for w in payload["warnings"])
    assert payload["witnesses"] == [{"degree": 2, "chain": [[2, 4], [1, 3]]}]


def test_analyze_below_minimal_element(capsys):
    code, payload, _ = run_json(capsys, ["gr", "analyze", "--n", "5", "--r", "2", "--w", "1,3"])
    assert code == 0
    assert payload["result"]["semistable_nonempty"] is False
    assert payload["result"]["ss_in_smooth"] is None
    assert payload["result"]["quotient_smooth"] is False
    assert payload["witnesses"] == []
    assert any("no semistable points" in w for w in payload["warnings"])


def test_analyze_text_mode(capsys):
    assert main(["gr", "analyze", "--n", "5", "--r", "2", "--w", "3,5"]) == 0
    out = capsys.readouterr().out
    assert "quotient_smooth: True" in out
    assert "partition: [1, 0]" in out


@pytest.mark.parametrize("argv, stdout", [
    # below v = (3, 5): an empty semistable locus
    (["--n", "5", "--r", "2", "--w", "1,3"], """\
corners: [[2, 2]]
minimal_v: {agrees=True, formula=[3, 5], oracle=None, value=[3, 5]}
partition: [3, 2]
quotient_smooth: False
semistable_nonempty: False
singular_components: []
smooth: True
ss_in_smooth: None
warning: no semistable points below this element
"""),
    # gcd 2 at v = (2, 4): the two-branch form overshoots
    (["--n", "4", "--r", "2", "--w", "2,4"], """\
corners: [[1, 1]]
minimal_v: {agrees=False, formula=[3, 4], oracle=[[2, 4]], value=[2, 4]}
partition: [1, 0]
quotient_smooth: False
semistable_nonempty: True
singular_components: [[2, 2]]
smooth: False
ss_in_smooth: True
warning: two-branch closed form (3, 4) overshoots the minimal semistable element (2, 4)
"""),
    # gcd 2 below v: both warnings, in this order
    (["--n", "4", "--r", "2", "--w", "2,3"], """\
corners: [[2, 1]]
minimal_v: {agrees=False, formula=[3, 4], oracle=[[2, 4]], value=[2, 4]}
partition: [1, 1]
quotient_smooth: False
semistable_nonempty: False
singular_components: []
smooth: True
ss_in_smooth: None
warning: two-branch closed form (3, 4) overshoots the minimal semistable element (2, 4)
warning: no semistable points below this element
"""),
])
def test_analyze_text_mode_full_stdout(capsys, argv, stdout):
    assert main(["gr", "analyze", *argv]) == 0
    assert capsys.readouterr().out == stdout


def test_analyze_prints_the_criteria_report(capsys):
    for r, n, w in [(2, 5, (3, 5)), (2, 4, (2, 3)), (4, 9, (5, 7, 8, 9))]:
        result, warnings = criteria.semistable_meets_singular_gr(w, r, n)
        argv = ["gr", "analyze", "--n", str(n), "--r", str(r), "--w", ",".join(map(str, w))]
        _, payload, _ = run_json(capsys, argv)
        assert payload["result"] == json.loads(cli._json(result))
        assert payload["warnings"] == warnings


def test_analyze_rejects_bad_column_set(capsys):
    with pytest.raises(SystemExit):
        main(["gr", "analyze", "--n", "5", "--r", "2", "--w", "9,9"])


# Boxes where the old depth-first chain search ran from 16 s to minutes.
CLIFF_BOXES = [
    (4, 12, (3, 6, 9, 12)),
    (4, 10, (3, 5, 8, 10)),
    (5, 11, (1, 4, 6, 9, 11)),
    (5, 13, (2, 5, 8, 10, 13)),
]


@pytest.mark.parametrize("r, n, w", CLIFF_BOXES)
def test_analyze_cliff_boxes(capsys, r, n, w):
    code, payload, _ = run_json(
        capsys,
        ["gr", "analyze", "--n", str(n), "--r", str(r), "--w", ",".join(map(str, w))],
    )
    assert code == 0
    nonempty = gr.indexset_leq(gr.minimal_semistable(r, n), w)
    assert payload["result"]["semistable_nonempty"] is nonempty
    for witness in payload["witnesses"]:
        assert is_invariant_chain(witness["chain"], w, r, n, witness["degree"])
    assert bool(payload["witnesses"]) is nonempty


@pytest.mark.parametrize("r, n, w", [
    (4, 8, (5, 6, 7, 8)),
    (8, 16, (9, 10, 11, 12, 13, 14, 15, 16)),
    (3, 9, (3, 6, 9)),
    (2, 5, (3, 5)),
    (3, 9, (2, 6, 9)),
    # the size limit, top set, both with gcd(r, n) > 1
    (2, GR_MAX_N, (GR_MAX_N - 1, GR_MAX_N)),
    (150, GR_MAX_N, tuple(range(GR_MAX_N - 149, GR_MAX_N + 1))),
])
def test_analyze_sweeps_nothing_and_builds_one_chain(capsys, monkeypatch, r, n, w):
    """One valid chain, in the least degree m0, only when v <= w, read off
    the closed form S_k: never the sweep of every column set, no list of
    column sets at all, never degree 2*m0, and no flagged-tableau fill."""
    def refuse(*args):
        raise AssertionError("gr analyze sweeps no column sets")

    fills = []
    monkeypatch.setattr(smt, "minimal_semistable_oracle_gr", refuse)
    monkeypatch.setattr(smt, "combinations", refuse)
    monkeypatch.setattr(smt, "_chain_fits", lambda *args: fills.append(args))
    code, payload, _ = run_json(
        capsys,
        ["gr", "analyze", "--n", str(n), "--r", str(r), "--w", ",".join(map(str, w))],
    )
    assert code == 0
    assert fills == []
    above = gr.indexset_leq(gr.minimal_semistable(r, n), w)
    assert payload["result"]["semistable_nonempty"] is above
    m0 = n // gcd(r, n)
    assert [x["degree"] for x in payload["witnesses"]] == ([m0] if above else [])
    for x in payload["witnesses"]:
        assert is_invariant_chain(x["chain"], w, r, n, x["degree"])
        assert x["chain"] == [list(cols) for cols in gr.minimal_invariant_chain(r, n)]


@pytest.mark.parametrize("argv", [
    ["--n", "5", "--r", "2", "--w", "a,b"],
    ["--n", "5", "--r", "2", "--w", "3,3"],
    ["--n", "5", "--r", "7", "--w", "1,2,3,4,5,6,7"],
    ["--n", "5", "--r", "5", "--w", "1,2,3,4,5"],
    ["--n", "5", "--r", "0", "--w", ""],
    ["--n", str(GR_MAX_N + 1), "--r", "2", "--w", f"{GR_MAX_N},{GR_MAX_N + 1}"],
])
def test_analyze_usage_errors_exit_2_with_one_line(capsys, monkeypatch, argv):
    def refuse(*args):
        raise AssertionError("usage errors are refused before any analysis")

    monkeypatch.setattr(criteria, "semistable_meets_singular_gr", refuse)
    with pytest.raises(SystemExit) as exc:
        main(["gr", "analyze", *argv, "--json"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def test_usage_error_is_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gr", "analyze", "--n", "5"])
    assert exc.value.code == 2


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == "0.1.0"


def test_quiver_build_minimal_with_dot(tmp_path, capsys):
    dot = tmp_path / "quadric.dot"
    code, payload, _ = run_json(
        capsys,
        ["quiver", "build", "--family", "D", "--rank", "4", "--weight", "1",
         "--w", "minimal", "--dot", str(dot)],
    )
    assert code == 0
    result = payload["result"]
    assert result["length"] == 4
    assert result["smooth"] is False
    assert len(result["holes"]["real"]) == 1
    assert result["singular_components"] == [[1]]
    assert dot.read_bytes() == QUADRIC_DOT.encode()
    # same quiver again: identical bytes on disk
    dot2 = tmp_path / "again.dot"
    main(["quiver", "build", "--family", "D", "--rank", "4", "--weight", "1",
          "--w", "minimal", "--dot", str(dot2), "--json"])
    capsys.readouterr()
    assert dot2.read_bytes() == QUADRIC_DOT.encode()


def test_quiver_build_dot_classifies_holes_once(tmp_path, capsys, monkeypatch):
    calls = []
    classify = qv.classify_holes

    def counting(marked, masks):
        calls.append(marked)
        return classify(marked, masks)

    monkeypatch.setattr(qv, "classify_holes", counting)
    dot = tmp_path / "quadric.dot"
    main(["quiver", "build", "--family", "D", "--rank", "4", "--weight", "1",
          "--w", "minimal", "--dot", str(dot), "--json"])
    capsys.readouterr()
    assert len(calls) == 1
    assert dot.read_bytes() == QUADRIC_DOT.encode()


@pytest.mark.parametrize("argv,message", [
    (["--family", "D", "--rank", "72", "--weight", "72"], "2556 vertices"),
    (["--family", "D", "--rank", "100", "--weight", "99"], "4950 vertices"),
    (["--family", "A", "--rank", "101", "--weight", "50"], "rank 100"),
    (["--family", "A", "--rank", "1000000000", "--weight", "1"], "rank 100"),
    (["--family", "E6", "--rank", "9", "--weight", "1"], "E6 has rank 6, got 9"),
    (["--family", "E7", "--rank", "6", "--weight", "7"], "E7 has rank 7, got 6"),
])
def test_quiver_build_refuses_large_orbits_before_building(capsys, monkeypatch,
                                                           argv, message):
    class Unbuildable:
        def __init__(self, *args):
            raise AssertionError("the model was built")

    monkeypatch.setattr(qv, "MinusculePoset", Unbuildable)
    with pytest.raises(SystemExit) as exc:
        main(["quiver", "build", *argv, "--w", "full", "--json"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and message in lines[0]


def test_quiver_build_admits_the_largest_benchmark_case(capsys):
    code, payload, _ = run_json(
        capsys,
        ["quiver", "build", "--family", "A", "--rank", "13", "--weight", "7",
         "--w", "full"],
    )
    assert code == 0
    assert payload["result"]["length"] == 49


@pytest.mark.parametrize("argv,dot", [
    (["--family", "A", "--rank", "13", "--weight", "7", "--w", "full"], False),
    (["--family", "D", "--rank", "5", "--weight", "5", "--w", "minimal"], True),
])
def test_quiver_build_never_enumerates_the_orbit(tmp_path, capsys, monkeypatch,
                                                 argv, dot):
    def unbuildable(*args):
        raise AssertionError("the orbit was enumerated")

    monkeypatch.setattr(qv, "MinusculeModel", unbuildable)
    monkeypatch.setattr(qv.Quiver, "ideals", unbuildable)
    fresh_verify_memos(monkeypatch)
    path = tmp_path / "spinor.dot"
    if dot:
        argv = [*argv, "--dot", str(path)]
    code, payload, _ = run_json(capsys, ["quiver", "build", *argv])
    assert code == 0
    assert payload["result"]["length"] == len(payload["result"]["members"])
    assert verify.minuscule_model.cache_info().currsize == 0
    assert path.exists() == dot


@pytest.mark.parametrize("element", ["full", "minimal"])
@pytest.mark.parametrize("family,rank,weight,vertices", [
    ("A", 100, 50, QUIVER_MAX_VERTICES),
    ("D", 71, 71, 2485),
])
def test_quiver_build_at_the_vertex_limit(capsys, family, rank, weight, vertices,
                                          element):
    # no golden corpus reaches these sizes, so check what must hold instead
    code, payload, _ = run_json(
        capsys,
        ["quiver", "build", "--family", family, "--rank", str(rank),
         "--weight", str(weight), "--w", element],
    )
    assert code == 0
    result = payload["result"]
    assert result["vertices"] == vertices == minuscule_dimension(family, rank, weight)
    assert result["length"] == len(result["word"]) == len(result["members"])
    poset = MinusculePoset(root_system(family, rank), weight)
    assert word_descends(poset, result["word"])
    if element == "full":
        assert result["members"] == list(range(vertices))
        assert result["smooth"] is True and result["singular_components"] == []
    else:
        assert result["smooth"] is False and result["singular_components"]
    for word in result["singular_components"]:
        assert word_descends(poset, word) and len(word) < result["length"]


def test_quiver_build_word_and_indexset_agree(capsys):
    code, by_word, _ = run_json(
        capsys,
        ["quiver", "build", "--family", "A", "--rank", "3", "--weight", "2",
         "--w", "2,1,3,2"],
    )
    assert code == 0
    code, by_set, _ = run_json(
        capsys,
        ["quiver", "build", "--family", "A", "--rank", "3", "--weight", "2",
         "--w", "3,4", "--as", "indexset"],
    )
    assert code == 0
    assert by_word["result"] == by_set["result"]
    assert by_word["result"]["vertices"] == 4
    assert by_word["result"]["smooth"] is True


def test_quiver_build_rejects_non_reduced_word(capsys):
    with pytest.raises(SystemExit):
        main(["quiver", "build", "--family", "A", "--rank", "3", "--weight", "2",
              "--w", "2,2"])


@pytest.mark.parametrize("argv", [
    ["--weight", "3", "--w", "-1"],
    ["--weight", "4", "--w", "0"],
    ["--weight", "2", "--w", "9,9"],
    ["--weight", "2", "--w", "5"],
    ["--weight", "2", "--w", "2,6", "--as", "indexset"],
    ["--weight", "2", "--w", "0,3", "--as", "indexset"],
    ["--weight", "2", "--w", "3,3", "--as", "indexset"],
])
def test_quiver_build_rejects_elements_outside_the_orbit(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(["quiver", "build", "--family", "A", "--rank", "4", *argv, "--json"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def test_quiver_build_unwritable_dot_is_a_usage_error(tmp_path, capsys):
    dot = tmp_path / "missing" / "q.dot"
    with pytest.raises(SystemExit) as exc:
        main(["quiver", "build", "--family", "D", "--rank", "4", "--weight", "1",
              "--dot", str(dot), "--json"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: cannot write {dot}")
    assert not dot.exists()


def test_quiver_rank_is_forced_for_e6(capsys):
    code, payload, _ = run_json(
        capsys, ["quiver", "build", "--family", "E6", "--weight", "1", "--w", "full"]
    )
    assert code == 0
    assert payload["input"]["rank"] == 6
    assert run_json(
        capsys,
        ["quiver", "build", "--family", "E6", "--rank", "6", "--weight", "1",
         "--w", "full"],
    )[1] == payload
    assert payload["result"]["length"] == 16
    assert payload["result"]["smooth"] is True


def test_smt_dim(capsys):
    code, payload, _ = run_json(
        capsys, ["smt", "dim", "--n", "7", "--w", "5,2,3,6,7,4,1", "--m", "1"]
    )
    assert code == 0
    assert payload["result"] == {"dim": 4, "m": 1}
    assert len(payload["witnesses"]) == 4
    # same element entered as a reduced word
    code, payload, _ = run_json(
        capsys,
        ["smt", "dim", "--n", "7", "--w", "4,5,6,3,2,1", "--as", "word", "--m", "1"],
    )
    assert payload["input"]["w"] == [5, 1, 2, 3, 6, 7, 4]
    assert payload["result"]["dim"] == 1


@pytest.mark.parametrize("w", ["1,2,3,4,5,6,7", "7,6,5,4,3,2,1"])
def test_smt_dim_degree_zero(capsys, w):
    code, payload, _ = run_json(capsys, ["smt", "dim", "--n", "7", "--w", w, "--m", "0"])
    assert code == 0
    assert payload["result"] == {"dim": 1, "m": 0}
    assert payload["witnesses"] == [{"shorts": [], "missings": []}]


def test_smt_dim_runs_no_walk(capsys, monkeypatch):
    cases = [(w, m) for w in smt.parabolic_lifts(7) for m in range(4)]
    expected = {case: invariant_witnesses_by_filter(*case) for case in cases}

    def refuse(*args):
        raise AssertionError("smt dim walked the multisets")

    for name in ("is_standard_on", "invariant_dimension"):
        monkeypatch.setattr(smt, name, refuse)
    for (w, m), witnesses in expected.items():
        argv = ["smt", "dim", "--n", "7", "--w", ",".join(map(str, w)), "--m", str(m)]
        assert main(argv) == 0
        assert capsys.readouterr().out == f"dim: {len(witnesses)}\nm: {m}\n"
        code, payload, _ = run_json(capsys, argv)
        assert payload["result"]["dim"] == len(witnesses)
        assert payload["witnesses"] == [
            {"shorts": sorted(values, reverse=True), "missings": sorted(values)}
            for values in witnesses
        ]


def test_smt_minimal(capsys):
    code, payload, _ = run_json(capsys, ["smt", "minimal", "--n", "3"])
    assert code == 0
    assert payload["result"] == {"count": 2, "elements": [[2, 3, 1], [3, 1, 2]]}


def test_smt_pn_check(capsys):
    code, payload, _ = run_json(
        capsys, ["smt", "pn-check", "--n", "4", "--w", "4,3,2,1", "--max-m", "3"]
    )
    assert code == 0
    result = payload["result"]
    assert result["t"] == 3
    assert [row["expected"] for row in result["degrees"]] == [6, 10]
    assert result["all_match"] is True


W40 = ",".join(map(str, (36, *range(2, 36), 37, 38, 39, 40, 1)))  # w(1) = 36 < n


@pytest.mark.parametrize("argv", [
    ["--n", "2", "--w", "2,1", "--max-m", "113"],  # 987 616 walk entries
    ["--n", "40", "--w", W40, "--max-m", "4"],  # 711 288, as at n = 36
])
def test_smt_pn_check_answers_up_to_its_walk_budget(capsys, argv):
    code, payload, _ = run_json(capsys, ["smt", "pn-check", *argv])
    assert code == 0
    assert payload["result"]["all_match"] is True


QUADRIC_TEXT = """\
holes: {essential=[4], real=[4], virtual=[]}
length: 4
members: [2, 3, 4, 5]
singular_components: [[1]]
smooth: False
vertices: 6
word: [3, 4, 2, 1]
"""


@pytest.mark.parametrize("argv, stdout", [
    (["quiver", "build", "--family", "D", "--rank", "4", "--weight", "1"], QUADRIC_TEXT),
    (["quiver", "build", "--family", "A", "--rank", "4", "--weight", "2", "--w", "3,5",
      "--as", "indexset"], """\
holes: {essential=[4], real=[4], virtual=[]}
length: 5
members: [1, 2, 3, 4, 5]
singular_components: [[1, 2]]
smooth: False
vertices: 6
word: [2, 1, 4, 3, 2]
"""),
    (["smt", "minimal", "--n", "4"], """\
count: 3
elements: [[2, 3, 4, 1], [3, 1, 4, 2], [4, 1, 2, 3]]
"""),
    (["smt", "pn-check", "--n", "7", "--w", "7,6,5,4,3,2,1", "--max-m", "2"], """\
all_match: True
degrees: [{computed=21, expected=21, m=2, match=True}]
t: 6
"""),
    (["smt", "pn-check", "--n", "4", "--w", "4,3,2,1", "--max-m", "3"], """\
all_match: True
degrees: [{computed=6, expected=6, m=2, match=True}, {computed=10, expected=10, m=3, match=True}]
t: 3
"""),
])
def test_text_mode_full_stdout(capsys, argv, stdout):
    assert main(argv) == 0
    assert capsys.readouterr().out == stdout


def test_quiver_build_dot_text_mode_full_stdout(tmp_path, capsys):
    dot = tmp_path / "quadric.dot"
    argv = ["quiver", "build", "--family", "D", "--rank", "4", "--weight", "1",
            "--w", "minimal", "--dot", str(dot)]
    assert main(argv) == 0
    assert capsys.readouterr().out == f"wrote {dot}\n" + QUADRIC_TEXT
    assert dot.read_bytes() == QUADRIC_DOT.encode()


W20 = ",".join(map(str, (20, *range(2, 20), 1)))  # t = 19
W225 = ",".join(map(str, (225, *range(2, 225), 1)))  # t = 224


@pytest.mark.parametrize("argv", [
    ["dim", "--n", "4", "--w", "4,3,2,1", "--m", "-1"],
    ["dim", "--n", "4", "--w", "9", "--as", "word", "--m", "1"],
    ["dim", "--n", "1", "--w", "1", "--m", "1"],
    ["minimal", "--n", "-3"],
    ["minimal", "--n", "1"],
    ["pn-check", "--n", "4", "--w", "4,3,2,1", "--max-m", "-2"],
    ["pn-check", "--n", "1", "--w", "1"],
    ["dim", "--n", "20", "--w", W20, "--m", "9"],  # 4 686 825 witnesses
    ["dim", "--n", "20", "--w", W20, "--m", str(10**300)],  # ~5 400 digits
    ["dim", "--n", "3", "--w", "3,2,1", "--m", "2000"],  # 2 001 witnesses of 4 000 entries
    ["dim", "--n", "2", "--w", "2,1", "--m", str(10**9)],  # one of 2 * 10^9 entries
    ["dim", "--n", "225", "--w", W225, "--m", "2"],  # 25 200 witnesses, 100 800 entries
    ["pn-check", "--n", "20", "--w", W20, "--max-m", "9"],  # 171 685 760 walk entries
    ["pn-check", "--n", "2", "--w", "2,1", "--max-m", "114"],  # 1 013 836 walk entries
    ["pn-check", "--n", "20", "--w", W20, "--max-m", str(10**9)],
    ["minimal", "--n", str(SMT_MINIMAL_MAX_N + 1)],
    ["dim", "--n", "3000000", "--w", "1,2", "--m", "1"],
    ["dim", "--n", str(SMT_WORD_MAX_N + 1), "--w", "1", "--as", "word", "--m", "1"],
    ["pn-check", "--n", str(10**9), "--w", "1", "--as", "word"],
])
def test_smt_usage_errors_exit_2_with_one_line(capsys, monkeypatch, argv):
    def refuse(*args):
        raise AssertionError("usage errors are refused before any walk or listing")

    word_to_perm = cli.word_to_perm

    def small_only(word, n):  # a permutation of n is built only within the limit
        if n > SMT_WORD_MAX_N:
            refuse()
        return word_to_perm(word, n)

    for name in ("is_standard_on", "invariant_dimension", "invariant_witnesses",
                 "minimal_borel_semistable"):
        monkeypatch.setattr(smt, name, refuse)
    monkeypatch.setattr(cli, "word_to_perm", small_only)
    with pytest.raises(SystemExit) as exc:
        main(["smt", *argv, "--json"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def test_verify_single_suite(capsys):
    assert main(["verify", "golden-sl7"]) == 0
    out = capsys.readouterr().out
    assert "golden-sl7: PASS (16 checks)" in out


def test_verify_json_lists_every_suite(capsys):
    code = main(["verify", "all", "--json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert len(out) == 9
    assert all(entry["passed"] for entry in out)
    assert all(entry["failures"] == [] for entry in out)


def test_verify_rejects_unknown_suite(capsys):
    with pytest.raises(SystemExit):
        main(["verify", "no-such-suite"])


def test_verify_has_no_max_n(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "minima-sweep", "--max-n", "3"])
    assert exc.value.code == 2
    assert "--max-n" in capsys.readouterr().err
