"""``cli.main`` reads an exactly spelled request from its leaf's table.

The whole tree from ``build_parser`` is the oracle: every argv below must
give the same exit code, stdout and stderr through ``main`` as through
``build_parser().parse_args(argv)``.  Abbreviations, help, ``--``, extra
positionals and unknown options are the cases the reader leaves to
argparse; a property test checks that whatever it does accept, it reads
as argparse would.
"""

import json
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import test_golden as golden
import torusq
from torusq import cli

SRC = Path(torusq.__file__).resolve().parent.parent

# One valid call per leaf, and the same call with an abbreviated option
LEAVES = {
    ("gr", "analyze"): (
        ["--n", "5", "--r", "2", "--w", "3,5"],
        ["--n", "5", "--r", "2", "--w", "3,5", "--js"],
    ),
    ("quiver", "build"): (
        ["--family", "D", "--rank", "4", "--weight", "1"],
        ["--fam", "D", "--rank", "4", "--weight", "1"],
    ),
    ("smt", "dim"): (
        ["--n", "4", "--w", "4,2,3,1", "--m", "2"],
        ["--n", "4", "--w", "4,2,3,1", "--m", "2", "--js"],
    ),
    ("smt", "minimal"): (["--n", "4"], ["--n", "4", "--js"]),
    ("smt", "pn-check"): (
        ["--n", "4", "--w", "4,2,3,1", "--max-m", "2"],
        ["--n", "4", "--w", "4,2,3,1", "--max", "2"],
    ),
    ("verify",): (["golden-sl7"], ["golden-sl7", "--js"]),
}


def _corpus():
    yield [], "empty"
    yield ["--version"], "version"
    yield ["--help"], "help"
    yield ["gr", "--help"], "group help"
    yield ["nope"], "unknown command"
    for words, (valid, abbreviated) in LEAVES.items():
        leaf = list(words)
        name = " ".join(words)
        pairs = [f"{a}={b}" for a, b in zip(valid[::2], valid[1::2])
                 if a.startswith("--")]
        cases = {
            "valid": valid,
            "json": valid + ["--json"],
            "-h": ["-h"],
            "--help": valid + ["--help"],
            "missing required": valid[2:],
            "bad choice": valid + ["--as", "bogus"],
            "bad family": valid + ["--family", "Z"],
            "non-integer n": valid + ["--n", "five"],
            "unknown option": ["--max-n", "3"] + valid,
            "extra positional": valid + ["extra"],
            "abbreviated": abbreviated,
            "opt=value": pairs + ([] if pairs else valid),
            "negative value": valid + ["--w", "-1"],
            "root option after leaf": valid + ["--version"],
            "double dash": valid + ["--", "x"],
            "repeated option": valid + valid[:2],
            "empty --w=": valid + ["--w="],
            "value that is a flag name": valid + ["--w", "--json"],
        }
        for case, rest in cases.items():
            yield leaf + rest, f"{name}: {case}"


CORPUS = list(_corpus())


def _run(capsys, call, argv):
    try:
        code = call(list(argv))
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def _whole_tree(argv):
    args = cli.build_parser().parse_args(argv)
    return args.func(args)


@pytest.mark.parametrize("argv", [a for a, _ in CORPUS], ids=[i for _, i in CORPUS])
def test_main_answers_like_the_whole_tree(capsys, argv):
    assert _run(capsys, cli.main, argv) == _run(capsys, _whole_tree, argv)


def test_a_leaf_request_never_builds_the_whole_tree(capsys, monkeypatch):
    expected = {words: _run(capsys, cli.main, list(words) + valid)
                for words, (valid, _) in LEAVES.items()}

    def refuse():
        raise AssertionError("build_parser called")

    monkeypatch.setattr(cli, "build_parser", refuse)
    for words, (valid, _) in LEAVES.items():
        code, out, err = _run(capsys, cli.main, list(words) + valid)
        assert (code, out, err) == expected[words] and code == 0, words
    # every request of the golden corpora, byte for byte
    for name, (argvs_of, count) in golden.CORPORA.items():
        records = golden.read_corpus(name)
        argvs = list(argvs_of())
        assert len(argvs) == count
        for argv in argvs:
            assert golden.run(argv) == (0, records[shlex.join(argv)]), argv
    with pytest.raises(AssertionError, match="build_parser called"):
        cli.main(["--version"])


# The pieces of the generated argvs: every exact flag and its abbreviations,
# in both value forms, awkward values, help, ``--`` and stray positionals.
VALUES = ["", "-1", "+4", "1_0", "4.0", "\u0664", "0", "2", "3", "5", "3,5",
          "4,2,3,1", "a=b", "=", "--json", "--n", "minimal", "full"]
VALUES += sorted({value for valid, _ in LEAVES.values() for value in valid}
                 | {choice for _, table, _ in cli.LEAVES.values()
                    for row in table for choice in row[3] or ()})
WHOLE_TREE = cli.build_parser()


@st.composite
def leaf_argvs(draw):
    words = draw(st.sampled_from(sorted(LEAVES)))
    flags = [row[0] for row in cli.LEAVES[words][1] if row[0].startswith("-")]
    flags.append("--json")
    others = [f[:k] for f in flags for k in range(3, len(f))]
    others += ["-h", "--help", "--", "--version", "--max-n"]
    spelling = st.one_of(st.sampled_from(flags), st.sampled_from(others))
    valid, _ = LEAVES[words]
    pieces = [valid[i:i + 2] for i in range(0, len(valid), 2)]
    pieces = [["=".join(p)] if len(p) == 2 and draw(st.booleans()) else p
              for p in pieces if draw(st.integers(0, 5))]
    value = st.sampled_from(VALUES)
    extra = st.one_of(
        st.tuples(spelling, value).map(list),
        st.tuples(spelling, value).map(lambda p: ["=".join(p)]),
        spelling.map(lambda flag: [flag]),
        value.map(lambda v: [v]),
    )
    pieces += draw(st.lists(extra, max_size=3))
    pieces = draw(st.permutations(pieces))
    return words, [token for piece in pieces for token in piece]


@settings(max_examples=500, deadline=None)
@given(leaf_argvs())
def test_the_reader_reads_what_argparse_reads(case):
    words, rest = case
    args = cli._read_leaf(words, rest)
    if args is not None:
        whole = WHOLE_TREE.parse_args(list(words) + rest)
        assert vars(args) == {key: value for key, value in vars(whole).items()
                              if not key.endswith("command")}


def _console(*argv):
    return subprocess.run(
        [sys.executable, "-m", "torusq.cli", *argv],
        capture_output=True, cwd=SRC,
    )


def test_console_script_reads_sys_argv(capsys):
    argv = ["quiver", "build", "--family", "D", "--rank", "5", "--weight", "5",
            "--w", "full", "--json"]
    assert cli.main(argv) == 0
    in_process = capsys.readouterr().out
    done = _console(*argv)
    assert done.returncode == 0
    assert done.stdout == in_process.encode()
    assert json.loads(done.stdout)["result"]["vertices"] == 10


def test_console_script_usage_error_exits_2():
    done = _console("gr", "analyze", "--n", "5")
    assert done.returncode == 2
    assert b"required" in done.stderr
    assert done.stderr.startswith(b"usage: torusq gr analyze ")
