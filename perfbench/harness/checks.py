"""Independent checks of every answer, not just its timing.

Each checker takes the argv and the parsed ``--json`` output and returns
a list of problems (empty when the answer is right).  The checks rebuild
what they need from the argv and use no torusq code, so they stay
independent of the program they judge.  Verdicts are also compared with
stored digests of known answers (``digests.json``); witnesses are left
out of the digest, so a faster search that finds another valid
certificate still passes, while a changed verdict does not.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from math import comb

from .workloads import VERIFY_CHECKS, VERIFY_SUITES

ENVELOPE = ("input", "result", "witnesses", "warnings")


def _opt(argv, flag):
    return argv[argv.index(flag) + 1]


def _ints(text):
    return [int(v) for v in text.split(",")]


def argv_key(argv) -> str:
    return hashlib.sha256(" ".join(argv).encode()).hexdigest()[:16]


def result_digest(payload) -> str:
    """Digest of the verdict: the ``result`` object, or the suite list."""
    result = payload["result"] if isinstance(payload, dict) else payload
    text = json.dumps(result, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _check_gr(argv, payload):
    n, r, w = int(_opt(argv, "--n")), int(_opt(argv, "--r")), _ints(_opt(argv, "--w"))
    problems = []
    for wit in payload["witnesses"]:
        m, chain = wit["degree"], [tuple(c) for c in wit["chain"]]
        if (m * r) % n or len(chain) != m:
            problems.append(f"degree {m} chain of length {len(chain)}")
            continue
        bound = tuple(w)
        for cols in chain:
            if len(cols) != r or list(cols) != sorted(set(cols)) or not (
                1 <= cols[0] and cols[-1] <= n
            ):
                problems.append(f"{cols} is not an {r}-subset of 1..{n}")
            elif any(c > b for c, b in zip(cols, bound)):
                problems.append(f"{cols} is not below {bound}")
            bound = cols
        uses = Counter(v for cols in chain for v in cols)
        if any(uses[v] != m * r // n for v in range(1, n + 1)):
            problems.append(f"chain is not torus invariant: {dict(uses)}")
    result = payload["result"]
    if payload["witnesses"] and result.get("semistable_nonempty") is not True:
        problems.append("an invariant chain exists but semistable_nonempty is not True")
    return problems


def _check_smt_dim(argv, payload):
    n, m = int(_opt(argv, "--n")), int(_opt(argv, "--m"))
    problems = []
    wits = payload["witnesses"]
    if payload["result"].get("dim") != len(wits):
        problems.append(f"dim {payload['result'].get('dim')} but {len(wits)} witnesses")
    seen = set()
    for t in wits:
        shorts, missings = t["shorts"], t["missings"]
        if (
            len(shorts) != m
            or shorts != sorted(shorts, reverse=True)
            or missings != sorted(shorts)
            or not all(1 <= v <= n for v in shorts)
        ):
            problems.append(f"not a canonical invariant tableau: {t}")
        seen.add(tuple(shorts))
    if len(seen) != len(wits):
        problems.append("repeated witness")
    return problems


def _check_pn(argv, payload):
    max_m = int(_opt(argv, "--max-m"))
    result = payload["result"]
    t, rows = result["t"], result["degrees"]
    problems = []
    if [row["m"] for row in rows] != list(range(2, max_m + 1)):
        problems.append(f"degrees {[row['m'] for row in rows]}")
    for row in rows:
        if row["expected"] != comb(t + row["m"] - 1, row["m"]):
            problems.append(f"expected {row['expected']} in degree {row['m']} for t={t}")
        if row["match"] != (row["computed"] == row["expected"]):
            problems.append(f"match flag wrong in degree {row['m']}")
    if result["all_match"] != all(row["match"] for row in rows):
        problems.append("all_match flag wrong")
    return problems


def _check_quiver(argv, payload):
    result = payload["result"]
    members = result["members"]
    problems = []
    if len(members) != result["length"] or len(set(members)) != len(members):
        problems.append(f"{len(members)} members for length {result['length']}")
    if len(result["word"]) != result["length"]:
        problems.append("word length differs from length")
    if any(not 0 <= v < result["vertices"] for v in members):
        problems.append("member outside the quiver")
    return problems


def _check_verify(argv, suites):
    problems = []
    if len(suites) != VERIFY_SUITES:
        problems.append(f"{len(suites)} suites, expected {VERIFY_SUITES}")
    failed = [s["suite"] for s in suites if not s["passed"]]
    if failed:
        problems.append(f"suites failed: {failed}")
    total = sum(s["checks"] for s in suites)
    if total != VERIFY_CHECKS:
        problems.append(f"{total} checks, expected {VERIFY_CHECKS}")
    return problems


def check_answer(argv, code, stdout, digests=None) -> list[str]:
    """Problems with one answer; an empty list means it is correct."""
    if code != 0:
        return [f"exit code {code}"]
    try:
        payload = json.loads(stdout)
    except ValueError:
        return ["output is not JSON"]
    if argv[0] == "verify":
        if not isinstance(payload, list):
            return ["verify output is not a suite list"]
    elif not isinstance(payload, dict) or any(k not in payload for k in ENVELOPE):
        return ["missing input/result/witnesses/warnings envelope"]
    checker = {
        ("gr", "analyze"): _check_gr,
        ("smt", "dim"): _check_smt_dim,
        ("smt", "pn-check"): _check_pn,
        ("quiver", "build"): _check_quiver,
        ("verify", "all"): _check_verify,
    }[(argv[0], argv[1])]
    try:
        problems = checker(argv, payload)
    except (KeyError, TypeError, ValueError) as exc:
        problems = [f"malformed answer: {exc!r}"]
    expected = (digests or {}).get(argv_key(argv))
    if expected is not None and result_digest(payload) != expected:
        problems.append("verdict differs from the stored digest")
    return problems
