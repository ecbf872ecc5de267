"""Self-tests of the benchmark's own logic.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import itertools
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

from harness import metrics, speed  # noqa: E402
from harness.checks import check_answer  # noqa: E402
from harness.runner import Outcome, run_query  # noqa: E402
from harness.stats import censored_latencies, percentile  # noqa: E402
from harness.tracing import Tracer  # noqa: E402
from harness.workloads import CLIFF_CASES, WORKLOADS, gr_argv  # noqa: E402
from torusq import cli, verify  # noqa: E402


def take(name, seed, k=300):
    return list(itertools.islice(WORKLOADS[name].queries(seed), k))


# --------------------------------------------------------------------------
# inputs


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_same_argv_lists(name):
    assert take(name, 7) == take(name, 7)


@pytest.mark.parametrize("name", ["gr-analyze", "smt-sections", "quiver-build"])
def test_other_seed_gives_other_argv_lists(name):
    assert take(name, 7) != take(name, 8)


@pytest.mark.parametrize("seed", range(10))
def test_cliff_cases_are_always_in_gr_analyze(seed):
    head = take("gr-analyze", seed, len(CLIFF_CASES))
    assert head == [gr_argv(r, n, w) for r, n, w in CLIFF_CASES]
    # the run makes these however short it is
    assert WORKLOADS["gr-analyze"].mandatory >= len(CLIFF_CASES)


def test_gr_stream_deals_every_column_set_of_a_box():
    # Gr(r, n) for n = 5 has 30 column sets over r = 1..4; after enough
    # rounds each has come up, whatever the seed
    body = take("gr-analyze", 3, 400)[len(CLIFF_CASES):]
    seen = {tuple(a) for a in body if a[a.index("--n") + 1] == "5"}
    assert len(seen) == 30


# --------------------------------------------------------------------------
# percentiles


def test_percentile_interpolates_between_ranks():
    assert percentile([4, 1, 3, 2], 50) == 2.5
    assert percentile([4, 1, 3, 2], 0) == 1
    assert percentile([4, 1, 3, 2], 100) == 4
    assert percentile([7.0], 90) == 7.0
    assert percentile(range(11), 90) == 9


def _outcome(latency, killed=False):
    return Outcome([], latency, None, killed, None if killed else 0, "", "", 10.0, None)


def test_killed_and_wrong_queries_count_at_the_deadline():
    outcomes = [_outcome(0.01 * i) for i in range(1, 9)]
    outcomes += [_outcome(1.503, killed=True), _outcome(0.02)]
    ok = [True] * 8 + [False, False]
    lat = censored_latencies(outcomes, ok, deadline_s=1.5)
    assert lat[:8] == [o.latency_s for o in outcomes[:8]]
    assert lat[8] == 1.503  # the time the client waited for the kill
    assert lat[9] == 1.5  # a wrong answer never beats the deadline
    assert percentile(lat, 50) == pytest.approx(0.055)
    assert percentile(lat, 90) == pytest.approx(1.5 + 0.1 * 0.003)


# --------------------------------------------------------------------------
# host speed


def test_scaling_takes_out_the_host_speed():
    assert speed.scale(0.5, speed.REFERENCE_S) == 0.5
    # on a host at half the reference speed the kernel takes twice as long
    assert speed.scale(0.5, 2 * speed.REFERENCE_S) == pytest.approx(0.25)


def test_sampler_times_its_body_without_the_handler():
    with speed.Sampler() as s:
        end = time.perf_counter() + 0.1
        while time.perf_counter() < end:
            pass
    # before, after, and about one sample per interval in between
    assert len(s.samples) >= 2 + 0.1 / speed.INTERVAL_S - 2
    assert s.kernel_s > 0 and s.handler_s > 0
    assert s.elapsed == pytest.approx(0.1 - s.handler_s, abs=0.01)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_answered_requests_carry_the_sampled_speed():
    o = run_query(cli.main, gr_argv(2, 5, (3, 5)), deadline_s=30)
    assert o.kernel_s > 0
    r, n, w = CLIFF_CASES[1]
    assert run_query(cli.main, gr_argv(r, n, w), deadline_s=0.2).kernel_s is None


# --------------------------------------------------------------------------
# the child runner


def test_deadline_kills_a_cliff_case():
    r, n, w = CLIFF_CASES[1]
    o = run_query(cli.main, gr_argv(r, n, w), deadline_s=0.3)
    assert o.killed and o.code is None
    assert 0.3 <= o.latency_s < 3
    with pytest.raises(ChildProcessError):  # the child has been reaped
        os.waitpid(-1, os.WNOHANG)


def test_child_answer_is_checked():
    o = run_query(cli.main, gr_argv(2, 5, (3, 5)), deadline_s=30)
    assert not o.killed and o.code == 0 and o.maxrss_mb > 0
    assert check_answer(o.argv, o.code, o.stdout) == []


def test_usage_error_is_an_exit_code_not_a_crash():
    o = run_query(cli.main, ["gr", "analyze", "--json", "--n", "5"], deadline_s=30)
    assert o.code == 2 and "required" in o.error
    assert check_answer(o.argv, o.code, o.stdout) == ["exit code 2"]


# --------------------------------------------------------------------------
# answer checks


def _answer(argv):
    o = run_query(cli.main, argv, deadline_s=60)
    assert o.code == 0
    return json.loads(o.stdout)


def _problems(argv, payload):
    return check_answer(argv, 0, json.dumps(payload))


def test_bad_gr_chain_is_caught():
    argv = gr_argv(2, 4, (2, 4))
    payload = _answer(argv)
    assert payload["witnesses"] and _problems(argv, payload) == []
    chain = payload["witnesses"][0]["chain"]
    chain[0] = [3, 4]  # not below w = (2, 4)
    assert _problems(argv, payload)
    payload["witnesses"] = []
    del payload["warnings"]
    assert _problems(argv, payload) == ["missing input/result/witnesses/warnings envelope"]


def test_bad_section_counts_are_caught():
    dim = ["smt", "dim", "--json", "--n", "5", "--w", "5,4,3,2,1", "--m", "2"]
    payload = _answer(dim)
    assert _problems(dim, payload) == []
    payload["result"]["dim"] += 1
    assert _problems(dim, payload)
    payload["result"]["dim"] -= 1
    payload["witnesses"][0]["missings"] = payload["witnesses"][0]["shorts"][::-1][:1] * 2
    payload["witnesses"][0]["shorts"] = [1, 5]
    assert _problems(dim, payload)

    pn = ["smt", "pn-check", "--json", "--n", "5", "--w", "5,4,3,2,1", "--max-m", "3"]
    payload = _answer(pn)
    assert _problems(pn, payload) == []
    payload["result"]["degrees"][1]["expected"] += 1
    assert _problems(pn, payload)


def test_bad_quiver_and_suite_answers_are_caught():
    argv = ["quiver", "build", "--json", "--family", "D", "--rank", "4", "--weight", "1",
            "--w", "full"]
    payload = _answer(argv)
    assert _problems(argv, payload) == []
    payload["result"]["members"].pop()
    assert _problems(argv, payload)

    suites = [{"suite": f"s{i}", "passed": True, "checks": 213} for i in range(9)]
    assert _problems(["verify", "all", "--json"], suites) == ["1917 checks, expected 1921"]
    suites[0]["checks"] += 4
    assert _problems(["verify", "all", "--json"], suites) == []
    suites[3]["passed"] = False
    assert _problems(["verify", "all", "--json"], suites) == ["suites failed: ['s3']"]


def test_changed_verdict_fails_the_digest():
    from harness.checks import argv_key, result_digest

    argv = gr_argv(2, 5, (3, 5))
    payload = _answer(argv)
    digests = {argv_key(argv): result_digest(payload)}
    assert check_answer(argv, 0, json.dumps(payload), digests) == []
    payload["witnesses"] = []  # witnesses are not part of the digest
    assert check_answer(argv, 0, json.dumps(payload), digests) == []
    payload["result"]["smooth"] = not payload["result"]["smooth"]
    assert check_answer(argv, 0, json.dumps(payload), digests) == [
        "verdict differs from the stored digest"
    ]


# --------------------------------------------------------------------------
# tracing


def _traced(argvs):
    tracer = Tracer()
    tracer.install()
    try:
        return [run_query(cli.main, argv, 60, tracer) for argv in argvs]
    finally:
        tracer.uninstall()


def test_two_traced_runs_of_one_seed_give_identical_counts():
    argvs = take("gr-analyze", 5, 12)[len(CLIFF_CASES):]
    argvs += take("smt-sections", 5, 4) + take("quiver-build", 5, 6)
    first, second = _traced(argvs), _traced(argvs)
    assert all(o.code == 0 for o in first + second)
    assert [o.trace["counts"] for o in first] == [o.trace["counts"] for o in second]
    assert all(o.trace["counts"]["cli.main.calls"] == 1 for o in first)


def test_tracing_is_removed_again():
    before = (cli.main, verify.SUITES["hilbert"], verify.run_suite)
    _traced([gr_argv(1, 5, (2,))])
    assert (cli.main, verify.SUITES["hilbert"], verify.run_suite) == before


def test_spans_nest_and_counts_match():
    (o,) = _traced([["verify", "minimal-singular", "--json"]])
    spans = o.trace["spans"]
    names = [s[0] for s in spans]
    assert names[0] == "cli.main" and spans[0][3] == -1
    assert "verify.minimal-singular" in names
    for name, start, end, parent in spans[1:]:
        assert spans[parent][1] <= start <= end <= spans[parent][2]
    for name in set(names):
        assert o.trace["counts"][name + ".calls"] == names.count(name)


# --------------------------------------------------------------------------
# the contract with BENCHMARK.json


def test_benchmark_json_names_the_harness_workloads_and_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == metrics.END_TO_END
    per_layer = {name: unit for name, (unit, _, _) in metrics.PER_LAYER.items()}
    per_layer.update(metrics.TRACE_RUN)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer
    assert max(m["bound"] for m in spec["end_to_end"]) == next(
        m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s"
    )


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gr-analyze", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0 and out.stdout == ""
