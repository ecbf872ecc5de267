"""Byte-for-byte golden corpora of the CLI's ``--json`` output.

``golden/gr_analyze.txt`` holds the exact stdout of ``torusq gr analyze
--json`` for every column set of every box Gr(r, n) with 2 <= n <= 7
(240 calls), witnesses included.  ``golden/gr_analyze_large.txt`` holds
the same for larger boxes, where the certificates are costly: for every
Gr(r, n) with 8 <= n <= 12 the top column set, the minimal semistable
element v and the lower cover of v that lowers its first entry; the
four boxes whose chain search once ran for 16 s to minutes; and
Gr(8, 16), Gr(8, 17) at the top set and at v (131 calls).
``golden/smt.txt`` holds ``torusq smt dim --json`` for m = 1, 2, 3 and ``torusq smt pn-check --max-m 3 --json``
for every permutation in S_3 and S_4 and every two-ended coset
representative (:func:`torusq.smt.parabolic_lifts`) for n = 5..7 (488
calls).  ``golden/quiver_build.txt`` holds ``torusq quiver build --json``
for type A with n <= 7 (``minimal`` where defined, ``full``, and every
column set with ``--as indexset``) and for D4..D6 (every minuscule
weight), E6 (omega_1, omega_6) and E7 (omega_7): ``minimal`` plus every
orbit node given by its canonical word (535 calls).
``golden/quiver_build_large.txt`` holds ``torusq quiver build --json``
with ``minimal`` and ``full`` at the sizes where listing the orbit is
costly: A8..A12 with every weight 2..n-2 and D7, D8 with
every minuscule weight (92 calls).  ``golden/verify.txt``
holds ``torusq verify all --json``.  At the admission limit of ``quiver
build``, where a record would run to 0.8 MB, only the sha256 of the output
is pinned: A100/omega_50 and D71/omega_71, omega_70 with ``minimal`` and
``full``, and the D71 quadric omega_1 with ``minimal`` (``LIMIT_DIGESTS``), and so it is for ``smt dim --json`` at its witness
limit (``SMT_LIMIT_DIGESTS``) and for ``gr analyze --json`` at n = 300,
where gcd(r, n) > 1, and at its largest answer (``GR_LIMIT_DIGESTS``).
Each record is a ``$ torusq ...`` line (arguments quoted as a shell would
need them) followed by the output.  Any change to an answer, a witness, a warning or the formatting
shows up here.

Rewrite the corpora (only when a change of output is intended) with::

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
import shlex
from itertools import combinations, permutations
from pathlib import Path

import pytest

from torusq import verify
from torusq.cli import main
from torusq.grassmannian import minimal_semistable
from torusq.rootdata import minuscule_weights
from torusq.smt import parabolic_lifts
from torusq.verify import minuscule_model
from verify_memos import fresh_verify_memos

GOLDEN = Path(__file__).parent / "golden"
PROMPT = "$ torusq "


def gr_analyze_argvs():
    for n in range(2, 8):
        for r in range(1, n):
            for w in combinations(range(1, n + 1), r):
                yield ["gr", "analyze", "--n", str(n), "--r", str(r),
                       "--w", ",".join(map(str, w)), "--json"]


def gr_analyze_large_argvs():
    boxes = []
    for n in range(8, 13):
        for r in range(1, n):
            v = minimal_semistable(r, n)
            boxes += [(r, n, tuple(range(n - r + 1, n + 1))), (r, n, v),
                      (r, n, (v[0] - 1, *v[1:]))]
    boxes += [(4, 12, (3, 6, 9, 12)), (4, 10, (3, 5, 8, 10)),
              (5, 11, (1, 4, 6, 9, 11)), (5, 13, (2, 5, 8, 10, 13))]
    for r, n in ((8, 16), (8, 17)):
        boxes += [(r, n, tuple(range(n - r + 1, n + 1))), (r, n, minimal_semistable(r, n))]
    for r, n, w in dict.fromkeys(boxes):
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


def quiver_build_argvs():
    for n in range(2, 8):
        for r in range(1, n):
            head = ["quiver", "build", "--family", "A", "--rank", str(n - 1),
                    "--weight", str(r)]
            elements = ["full"] if r in (1, n - 1) else ["minimal", "full"]
            for element in elements:
                yield [*head, "--w", element, "--json"]
            for w in combinations(range(1, n + 1), r):
                yield [*head, "--w", ",".join(map(str, w)), "--as", "indexset",
                       "--json"]
    cases = [("D", rank) for rank in (4, 5, 6)] + [("E6", 6), ("E7", 7)]
    for family, rank in cases:
        for weight in sorted(minuscule_weights(family, rank)):
            head = ["quiver", "build", "--family", family]
            if family == "D":
                head += ["--rank", str(rank)]
            head += ["--weight", str(weight)]
            yield [*head, "--w", "minimal", "--json"]
            model = minuscule_model(family, rank, weight)
            for node in model.nodes:
                word = ",".join(map(str, model.poset.canonical_word(node)))
                yield [*head, "--w", word, "--json"]


def quiver_build_large_argvs():
    cases = [("A", rank, range(2, rank)) for rank in range(8, 13)]
    cases += [("D", rank, sorted(minuscule_weights("D", rank))) for rank in (7, 8)]
    for family, rank, weights in cases:
        for weight in weights:
            for element in ("minimal", "full"):
                yield ["quiver", "build", "--family", family, "--rank", str(rank),
                       "--weight", str(weight), "--w", element, "--json"]


def verify_argvs():
    yield ["verify", "all", "--json"]


CORPORA = {
    "gr_analyze.txt": (gr_analyze_argvs, 240),
    "gr_analyze_large.txt": (gr_analyze_large_argvs, 131),
    "smt.txt": (smt_argvs, 488),
    "quiver_build.txt": (quiver_build_argvs, 535),
    "quiver_build_large.txt": (quiver_build_large_argvs, 92),
    "verify.txt": (verify_argvs, 1),
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
    assert sorted(records) == sorted(shlex.join(a) for a in argvs)
    for argv in argvs:
        code, out = run(argv)
        assert code == 0, argv
        assert out == records[shlex.join(argv)], argv


def test_gr_analyze_json_is_byte_identical():
    check_corpus("gr_analyze.txt")


def test_gr_analyze_large_json_is_byte_identical():
    check_corpus("gr_analyze_large.txt")


def test_smt_json_is_byte_identical():
    check_corpus("smt.txt")


def test_quiver_build_json_is_byte_identical():
    check_corpus("quiver_build.txt")


def test_quiver_build_large_json_is_byte_identical():
    check_corpus("quiver_build_large.txt")


def test_verify_json_is_byte_identical():
    check_corpus("verify.txt")


# sha256 of the ``torusq quiver build --json`` bytes at the admission limit
# (N = 2550 and 2485 vertices; 140 for the quadric), keyed by
# (family, rank, weight, --w)
LIMIT_DIGESTS = {
    ("A", "100", "50", "minimal"):
        "0b708cc306dd0d2957540e9ccce1cff94a7a24134f340cd72a9de0284026d001",
    ("A", "100", "50", "full"):
        "4da06f0f8d718d96c92985b2eccbe3e5ef6e1ffe4c1999c93bcabd64eab1caf8",
    ("D", "71", "71", "minimal"):
        "a4d902f304fd0e0229eece2813d7a17f14896a1e436b43e5e2fc7c3c7cebd860",
    ("D", "71", "71", "full"):
        "0e8580463bb5df34190a9ef68711818016d26d92fe7aa68d15b6841dbdff7e25",
    ("D", "71", "70", "minimal"):
        "a42e453fb768c43252388f148f8b2788fe3d159e765ef26a36e6aa469c6b2a30",
    ("D", "71", "70", "full"):
        "989aacc56af9437c2a643218917abbf73b7b52e377d272e3510cb82440088f2e",
    ("D", "71", "1", "minimal"):
        "87d995fa0345bc3647c9db04ed2bfc3e54dc6f761ef467f440d117e2adf809c0",
}


@pytest.mark.parametrize("family,rank,weight,w", list(LIMIT_DIGESTS))
def test_quiver_build_json_at_the_admission_limit_is_pinned(family, rank, weight, w):
    code, out = run(["quiver", "build", "--family", family, "--rank", rank,
                     "--weight", weight, "--w", w, "--json"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == LIMIT_DIGESTS[family, rank, weight, w]


# sha256 of the ``torusq smt dim --json`` bytes at the witness limit, keyed by
# (n, m) for w = (n, 2, ..., n-1, 1): 8 855 witnesses at n = 21, m = 4, and
# 24 976 of 4 entries at n = 224, m = 2 (99 904, just under
# SMT_MAX_WITNESS_ENTRIES; n = 225 is refused)
SMT_LIMIT_DIGESTS = {
    (21, 4): "05980b0ba48b3a2a52ee2b607d2d93a0e1fc2f33584992f93e7399812dbfd601",
    (224, 2): "18faa24821edc4cd6835d7329d903d85b52ef81d6effda0dea7d34f8c7dd1b79",
}


@pytest.mark.parametrize("n,m", list(SMT_LIMIT_DIGESTS))
def test_smt_dim_json_at_the_witness_limit_is_pinned(n, m):
    w = ",".join(map(str, (n, *range(2, n), 1)))
    code, out = run(["smt", "dim", "--n", str(n), "--w", w, "--m", str(m), "--json"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SMT_LIMIT_DIGESTS[n, m]


# sha256 of the ``torusq gr analyze --json`` bytes at the size limit, keyed
# by (r, n, w): the top set at r = 150 and 152 (the costliest r at n = 300),
# the staircase 2, 4, ..., 300 (149 singular components), and the top set of
# Gr(279, 293), the largest answer (a chain of 293 column sets, 1.2 MB)
GR_LIMIT_DIGESTS = {
    (152, 300, "top"):
        "c54b241c6ea7066ba29ca71e8adf102ba600995a20bb4ba8f405858ee2af5f1e",
    (150, 300, "top"):
        "4c9ac1a45fa70a4ba71251ccb43b3b62330bc69297badb0b9c08c7671cb94e2e",
    (150, 300, "staircase"):
        "fcb254e9a25c9c34e8e8461b172d9009fd8f5ed74737042f22cc018055fff700",
    (279, 293, "top"):
        "ca2c3ff2dd50bce69e1ff8b6d91c78df439bae32150eeb3bc3c8595bdd91cae7",
}


@pytest.mark.parametrize("r,n,w", list(GR_LIMIT_DIGESTS))
def test_gr_analyze_json_at_the_size_limit_is_pinned(r, n, w):
    cols = range(n - r + 1, n + 1) if w == "top" else range(2, n + 1, 2)
    code, out = run(["gr", "analyze", "--n", str(n), "--r", str(r),
                     "--w", ",".join(map(str, cols)), "--json"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GR_LIMIT_DIGESTS[r, n, w]


@pytest.mark.parametrize("suite", list(verify.SUITES))
def test_each_verify_suite_alone_prints_its_record(suite, monkeypatch):
    # the caches the suites share must not make a suite depend on the ones
    # run before it: alone, on empty caches, each prints its record of
    # ``verify all``, check count included
    fresh_verify_memos(monkeypatch)
    [record] = read_corpus("verify.txt").values()
    [expected] = [entry for entry in json.loads(record) if entry["suite"] == suite]
    code, out = run(["verify", suite, "--json"])
    assert code == 0
    assert json.loads(out) == [expected]


if __name__ == "__main__":
    for name, (argvs_of, _count) in CORPORA.items():
        with (GOLDEN / name).open("w", newline="") as handle:
            for argv in argvs_of():
                code, out = run(argv)
                assert code == 0, argv
                handle.write(PROMPT + shlex.join(argv) + "\n" + out)
