#!/usr/bin/env python3
"""Benchmark of the torusq command line: real CLI requests, end to end.

    python3 perfbench/run.py --workload gr-analyze --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  A closed loop with one client sends
seeded ``torusq`` argv lists to ``torusq.cli.main``; each request runs in
a child forked from this process, which has imported ``torusq.cli`` and
computed nothing, so every request starts from the state of a fresh
``torusq`` process.  Every answer is checked.  ``--trace 0`` reports the
end-to-end metrics, at a reference speed of the host sampled inside each
request (``harness/speed.py``); ``--trace 1`` the per-layer metrics of
a traced run.
The last line of stdout is the result object; the line before it holds
the run's stamp and the metrics that are reported but not gated.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

from harness import metrics, speed  # noqa: E402
from harness.checks import argv_key, check_answer  # noqa: E402
from harness.runner import run_query  # noqa: E402
from harness.tracing import Tracer, aggregate  # noqa: E402
from harness.workloads import LIMIT_S, VERIFY_SUITES, WORKLOADS  # noqa: E402

SETUP_REPEATS = 11
# Times the import with the host's speed sampled, in a fresh interpreter
IMPORT_PROBE = """import sys
sys.path[:0] = sys.argv[1:3]
from harness.speed import Sampler
with Sampler() as s:
    import torusq.cli
print(s.elapsed, s.kernel_s)
"""


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# --------------------------------------------------------------------------
# stamp


def loadavg():
    with open("/proc/loadavg") as handle:
        return [float(v) for v in handle.read().split()[:3]]


def git_commit():
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "torusq").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


# --------------------------------------------------------------------------
# set-up


def measure_setup():
    """Median seconds a fresh interpreter spends importing torusq.cli, at
    the reference speed and as measured."""
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, "-E", "-c", IMPORT_PROBE, str(SRC), str(HERE)],
            capture_output=True, text=True, check=True, timeout=60, cwd=ROOT,
        )
        seconds, kernel_s = (float(v) for v in out.stdout.split())
        scaled.append(speed.scale(seconds, kernel_s))
        raw.append(seconds)
    return statistics.median(scaled), statistics.median(raw)


def load_digests(workload):
    path = HERE / "digests.json"
    if not path.is_file():
        return {}
    return json.loads(path.read_text()).get(workload, {})


# --------------------------------------------------------------------------
# runs


def drive(entry, workload, argvs, seconds, tracer=None):
    """Closed loop: the next request goes out when the previous one is done."""
    outcomes = []
    start = time.perf_counter()
    for argv in argvs:
        extra = len(outcomes) - workload.mandatory
        if outcomes and extra >= 0 and extra % workload.round_size == 0 and (
            time.perf_counter() - start >= seconds
        ):
            break
        outcomes.append(run_query(entry, argv, workload.deadline_s, tracer))
    return outcomes, time.perf_counter() - start


def judge(outcomes, digests):
    """Verdict per query ("ok", "wrong" or "killed") and the problems found."""
    verdicts, problems = [], []
    for o in outcomes:
        if o.killed:
            verdicts.append("killed")
            continue
        if o.code is None:
            found = [o.error]
        else:
            found = check_answer(o.argv, o.code, o.stdout, digests)
        verdicts.append("wrong" if found else "ok")
        if found:
            problems.append({"argv": o.argv, "problems": found, "stderr": o.error})
    return verdicts, problems


def failed_suites(outcome, verdict):
    """verify-all counts its suites as the operations."""
    if verdict == "killed" or outcome.code is None:
        return VERIFY_SUITES
    try:
        suites = json.loads(outcome.stdout)
        return sum(1 for s in suites if not s["passed"]) + max(0, VERIFY_SUITES - len(suites))
    except (ValueError, TypeError, KeyError):
        return VERIFY_SUITES


def reported_only(workload, outcomes, verdicts):
    """Figures reported beside the metrics but not gated: they are 0 on most
    workloads, and a gated metric must never be 0."""
    attempted = len(outcomes)
    killed = verdicts.count("killed")
    wrong = verdicts.count("wrong")
    out = {"killed": killed, "wrong": wrong, "attempted": attempted}
    if workload.name == "verify-all":
        suites = VERIFY_SUITES * attempted
        bad = sum(failed_suites(o, v) for o, v in zip(outcomes, verdicts))
        walls = [o.latency_s for o, v in zip(outcomes, verdicts) if v == "ok"]
        out["failed_frac"] = {"value": bad / suites, "unit": "frac", "samples": suites}
        out["wall_s"] = {
            "value": statistics.median(walls) if walls else None,
            "unit": "s", "samples": len(walls),
        }
    else:
        over = sum(
            1 for o, v in zip(outcomes, verdicts) if v != "ok" or o.latency_s > LIMIT_S
        )
        out["over_limit_frac"] = {"value": over / attempted, "unit": "frac",
                                  "samples": attempted}
        out["failed_frac"] = {"value": (killed + wrong) / attempted, "unit": "frac",
                              "samples": attempted}
    return out


def at_reference_speed(o):
    """The outcome with its latency scaled by the speed sampled in its child
    (a killed request keeps the time the client waited)."""
    if o.kernel_s is None:
        return o
    return dataclasses.replace(o, latency_s=speed.scale(o.latency_s, o.kernel_s))


def timed_run(cli, workload, args, digests):
    """Every time is at the reference speed; the figures as measured go
    into the detail line as ``raw``.  The run's wall time is scaled by the
    ratio of its scaled to its raw request time."""
    setup_s, raw_setup_s = measure_setup()
    outcomes, wall = drive(cli.main, workload, workload.queries(args.seed), args.seconds)
    scaled = [at_reference_speed(o) for o in outcomes]
    sampled = [(o.latency_s, s.latency_s) for o, s in zip(outcomes, scaled) if o.kernel_s]
    ratio = sum(s for _, s in sampled) / sum(r for r, _ in sampled) if sampled else 1.0
    verdicts, problems = judge(outcomes, digests)
    result = metrics.end_to_end(
        scaled, verdicts, wall * ratio, workload.deadline_s, setup_s, SETUP_REPEATS
    )
    raw = metrics.end_to_end(
        outcomes, verdicts, wall, workload.deadline_s, raw_setup_s, SETUP_REPEATS
    )
    detail = {
        "run_wall_s": wall,
        "speed_ratio": ratio,
        "raw": {name: m["value"] for name, m in raw.items()},
        **reported_only(workload, outcomes, verdicts),
    }
    return outcomes, verdicts, problems, result, detail


def traced_run(cli, workload, args, digests):
    """Trace the seed's first ``trace_size`` requests, at least twice and
    again while time remains; the counts of every request must repeat
    exactly from one pass to the next."""
    trace_set = list(itertools.islice(workload.queries(args.seed), workload.trace_size))
    passes = []
    tracer = Tracer()
    tracer.install()
    start = time.perf_counter()
    try:
        while len(passes) < 2 or time.perf_counter() - start < args.seconds:
            passes.append(drive(cli.main, workload, trace_set, float("inf"), tracer)[0])
    finally:
        tracer.uninstall()
    wall = time.perf_counter() - start
    outcomes = [o for outs in passes for o in outs]
    verdicts, problems = judge(outcomes, digests)
    ok = [v == "ok" for v in verdicts]
    done = [o for o, good in zip(outcomes, ok) if good]
    first = {
        tuple(o.argv): o.trace["counts"] for o, good in zip(passes[0], ok) if good
    }
    for o in done:
        if first.get(tuple(o.argv), o.trace["counts"]) != o.trace["counts"]:
            problems.append({"argv": o.argv, "problems": ["trace counts differ between passes"]})
    # the completed requests of one pass without tracing, for the overhead
    once = [o for o, good in zip(passes[0], ok) if good]
    plain, _ = drive(cli.main, workload, [o.argv for o in once], float("inf"))
    traced_s = sum(o.latency_s for o in done) / len(passes)
    plain_s = sum(o.latency_s for o in plain)
    result = metrics.per_layer(
        aggregate(o.trace for o in done), len(done), len(passes), traced_s - plain_s
    )
    detail = {
        "run_wall_s": wall,
        "passes": len(passes),
        "trace_set": len(trace_set),
        "traced_s_per_pass": traced_s,
        "untraced_s_per_pass": plain_s,
        **reported_only(workload, outcomes, verdicts),
    }
    return outcomes, verdicts, problems, result, detail


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "torusq" / "cli.py").is_file():
        print(f"error: no torusq source under {SRC}", file=sys.stderr)
        return 2
    stamp = {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": loadavg(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    sys.path.insert(0, str(SRC))
    from torusq import cli

    workload = WORKLOADS[args.workload]
    digests = load_digests(args.workload)
    run = traced_run if args.trace else timed_run
    outcomes, verdicts, problems, result, detail = run(cli, workload, args, digests)
    stamp["loadavg_end"] = loadavg()
    for when in ("loadavg_start", "loadavg_end"):
        if stamp[when][0] > stamp["nproc"]:
            print(f"warning: {when} {stamp[when][0]} exceeds nproc {stamp['nproc']}",
                  file=sys.stderr)
    for p in problems:
        print(f"problem: {json.dumps(p)}", file=sys.stderr)
    checked = sum(1 for o in outcomes if argv_key(o.argv) in digests and not o.killed)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"attempted {len(outcomes)}  killed {detail['killed']}  wrong {detail['wrong']}  "
          f"digest-checked {checked}")
    for name, m in result.items():
        samples = f"  (n={m['samples']})" if "samples" in m else ""
        print(f"  {name:44s} {m['value']:.6g} {m['unit']}{samples}")
    for name in ("over_limit_frac", "failed_frac", "wall_s"):
        if name in detail and detail[name]["value"] is not None:
            m = detail[name]
            print(f"  {name:44s} {m['value']:.6g} {m['unit']}  (n={m['samples']}, not gated)")
    print(json.dumps({"stamp": stamp, "detail": detail}, sort_keys=True))
    print(json.dumps({
        "correct": not problems,
        "attempted": len(outcomes),
        "failed": verdicts.count("wrong"),
        "metrics": {name: {"value": m["value"], "unit": m["unit"]} for name, m in result.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
