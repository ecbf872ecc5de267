"""Byte-for-byte golden corpus of ``gr analyze --json``.

``golden/gr_analyze.txt`` holds the exact stdout of ``torusq gr analyze
--json`` for every column set of every box Gr(r, n) with 2 <= n <= 7
(240 calls), witnesses included.  Each record is a ``$ torusq ...`` line
followed by the output.  Any change to an answer, a witness chain, a
warning or the formatting shows up here.

Rewrite the corpus (only when a change of output is intended) with::

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
from itertools import combinations
from pathlib import Path

from torusq.cli import main

CORPUS = Path(__file__).parent / "golden" / "gr_analyze.txt"
PROMPT = "$ torusq "


def corpus_argvs():
    for n in range(2, 8):
        for r in range(1, n):
            for w in combinations(range(1, n + 1), r):
                yield ["gr", "analyze", "--n", str(n), "--r", str(r),
                       "--w", ",".join(map(str, w)), "--json"]


def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def read_corpus():
    records = {}
    command, lines = None, []
    for line in CORPUS.read_text().splitlines(keepends=True):
        if line.startswith(PROMPT):
            if command is not None:
                records[command] = "".join(lines)
            command, lines = line[len(PROMPT):].rstrip("\n"), []
        else:
            lines.append(line)
    if command is not None:
        records[command] = "".join(lines)
    return records


def test_gr_analyze_json_is_byte_identical():
    records = read_corpus()
    argvs = list(corpus_argvs())
    assert len(argvs) == 240
    assert sorted(records) == sorted(" ".join(a) for a in argvs)
    for argv in argvs:
        code, out = run(argv)
        assert code == 0, argv
        assert out == records[" ".join(argv)], argv


if __name__ == "__main__":
    with CORPUS.open("w", newline="") as handle:
        for argv in corpus_argvs():
            code, out = run(argv)
            assert code == 0, argv
            handle.write(PROMPT + " ".join(argv) + "\n" + out)
