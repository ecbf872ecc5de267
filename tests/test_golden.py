"""Byte-for-byte golden corpora of the CLI's ``--json`` output.

``golden/gr_analyze.txt`` holds the exact stdout of ``torusq gr analyze
--json`` for every column set of every box Gr(r, n) with 2 <= n <= 7
(240 calls), witnesses included.  ``golden/smt.txt`` holds ``torusq smt
dim --json`` for m = 1, 2, 3 and ``torusq smt pn-check --max-m 3 --json``
for every permutation in S_3 and S_4 and every two-ended coset
representative (:func:`torusq.smt.parabolic_lifts`) for n = 5..7 (488
calls).  Each record is a ``$ torusq ...`` line followed by the output.
Any change to an answer, a witness, a warning or the formatting shows up
here.

Rewrite the corpora (only when a change of output is intended) with::

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
from itertools import combinations, permutations
from pathlib import Path

from torusq.cli import main
from torusq.smt import parabolic_lifts

GOLDEN = Path(__file__).parent / "golden"
PROMPT = "$ torusq "


def gr_analyze_argvs():
    for n in range(2, 8):
        for r in range(1, n):
            for w in combinations(range(1, n + 1), r):
                yield ["gr", "analyze", "--n", str(n), "--r", str(r),
                       "--w", ",".join(map(str, w)), "--json"]


def smt_argvs():
    elements = [w for n in (3, 4) for w in permutations(range(1, n + 1))]
    elements += [w for n in (5, 6, 7) for w in parabolic_lifts(n)]
    for w in elements:
        head = ["--n", str(len(w)), "--w", ",".join(map(str, w))]
        for m in (1, 2, 3):
            yield ["smt", "dim", *head, "--m", str(m), "--json"]
        yield ["smt", "pn-check", *head, "--max-m", "3", "--json"]


CORPORA = {
    "gr_analyze.txt": (gr_analyze_argvs, 240),
    "smt.txt": (smt_argvs, 488),
}


def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def read_corpus(name):
    records = {}
    command, lines = None, []
    for line in (GOLDEN / name).read_text().splitlines(keepends=True):
        if line.startswith(PROMPT):
            if command is not None:
                records[command] = "".join(lines)
            command, lines = line[len(PROMPT):].rstrip("\n"), []
        else:
            lines.append(line)
    if command is not None:
        records[command] = "".join(lines)
    return records


def check_corpus(name):
    argvs_of, count = CORPORA[name]
    records = read_corpus(name)
    argvs = list(argvs_of())
    assert len(argvs) == count
    assert sorted(records) == sorted(" ".join(a) for a in argvs)
    for argv in argvs:
        code, out = run(argv)
        assert code == 0, argv
        assert out == records[" ".join(argv)], argv


def test_gr_analyze_json_is_byte_identical():
    check_corpus("gr_analyze.txt")


def test_smt_json_is_byte_identical():
    check_corpus("smt.txt")


if __name__ == "__main__":
    for name, (argvs_of, _count) in CORPORA.items():
        with (GOLDEN / name).open("w", newline="") as handle:
            for argv in argvs_of():
                code, out = run(argv)
                assert code == 0, argv
                handle.write(PROMPT + " ".join(argv) + "\n" + out)
