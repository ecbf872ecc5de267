#!/usr/bin/env python3
"""Record the verdict digests that run.py compares answers against.

    python3 perfbench/record_digests.py

Runs the leading requests of each workload's default-seed stream (seed 0),
checks every answer, and writes the digest of each correct answer's
``result`` object to ``perfbench/digests.json``, keyed by its argv.
Queries cut at the deadline get no digest.  Run it again only when a
change to the program is meant to change a verdict.
"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from harness.checks import argv_key, check_answer, result_digest  # noqa: E402
from harness.runner import run_query  # noqa: E402
from harness.workloads import WORKLOADS  # noqa: E402

DEFAULT_SEED = 0
# Enough leading requests to cover every distinct argv the workloads can
# make: the gr-analyze body deals all column sets of its boxes, and the
# other workloads go over fixed sets.
LEADING = {"gr-analyze": 1000, "smt-sections": 180, "quiver-build": 90, "verify-all": 1}


def main() -> int:
    from torusq import cli

    digests = {}
    for name, workload in WORKLOADS.items():
        found = digests[name] = {}
        for argv in itertools.islice(workload.queries(DEFAULT_SEED), LEADING[name]):
            o = run_query(cli.main, argv, workload.deadline_s)
            if o.killed:
                continue
            problems = check_answer(argv, o.code, o.stdout)
            if problems:
                print(f"not recorded, wrong answer: {argv} {problems}", file=sys.stderr)
                return 1
            found[argv_key(argv)] = result_digest(json.loads(o.stdout))
        print(f"{name}: {len(found)} digests", file=sys.stderr)
    (HERE / "digests.json").write_text(json.dumps(digests, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
