"""``cli.main`` reads an exactly spelled request from its leaf's table.

The whole tree from ``build_parser`` is the oracle: every argv below must
give the same exit code, stdout and stderr through ``main`` as through
``build_parser().parse_args(argv)``.  Abbreviations, help, ``--``, extra
positionals and unknown options are the cases the reader leaves to
argparse; a property test checks that whatever it does accept, it reads
as argparse would.
"""

import io
import json
import os
import shlex
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

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


def _into_a_closed_pipe(*argv):
    """A console call whose stdout is a pipe with its read end closed."""
    read, write = os.pipe()
    os.close(read)
    try:
        return subprocess.run(
            [sys.executable, "-m", "torusq.cli", *argv],
            stdout=write, stderr=subprocess.PIPE, cwd=SRC,
        )
    finally:
        os.close(write)


@pytest.mark.parametrize("argv", [
    # 807 KB, past any pipe buffer, and a few lines written by print one by one
    ["quiver", "build", "--family", "A", "--rank", "100", "--weight", "50",
     "--w", "minimal", "--json"],
    ["gr", "analyze", "--n", "4", "--r", "2", "--w", "2,4"],
])
def test_a_closed_stdout_ends_with_141_and_no_traceback(argv):
    done = _into_a_closed_pipe(*argv)
    assert (done.returncode, done.stderr) == (141, b"")


# Values for the whole-CLI fuzz: small integers, which often make a request
# that runs, limits and the values just past them; column sets,
# permutations and words; and junk in place of any value.
_JOIN = ",".join
MOSTLY = st.sampled_from([True] * 7 + [False])
FUZZ_INTS = st.one_of(
    st.integers(1, 6).map(str),
    st.integers(-2, 12).map(str),
    st.sampled_from(["13", "100", "101", "300", "301", "501", str(2**70)]),
)
FUZZ_WORDS = st.one_of(
    st.sets(st.integers(1, 7), min_size=1, max_size=4).map(
        lambda w: _JOIN(map(str, sorted(w)))),
    st.integers(2, 6).flatmap(lambda n: st.permutations(range(1, n + 1))).map(
        lambda w: _JOIN(map(str, w))),
    st.lists(st.integers(-1, 9), max_size=8).map(lambda w: _JOIN(map(str, w))),
    st.sampled_from(["minimal", "full"]),
)
FUZZ_JUNK = st.sampled_from(["x", "", "1.5", "+3", "-0", "-1", "a,b", "1,,2",
                             "4 2 3 1", "bogus", "--json"])
FUZZ_EXTRAS = st.sampled_from([
    ["--json"], ["--json"], ["-h"], ["--"], ["extra"], ["--max-n", "3"],
    ["--version"], ["--as"], ["--fam", "A"],
])


@st.composite
def whole_cli_argvs(draw, dot_dir):
    """An argv for one leaf of ``cli.LEAVES``: most of its options, each with
    its value in the leaf's valid call above or a drawn one, a few stray
    tokens, in any order.  ``--dot`` only names paths under ``dot_dir``, one
    of them in a directory that does not exist."""
    words = draw(st.sampled_from(sorted(cli.LEAVES)))
    valid, _ = LEAVES[words]
    known = dict(zip(valid[::2], valid[1::2]))
    pieces = []
    for flag, _, convert, choices, _, _ in cli.LEAVES[words][1]:
        if not draw(MOSTLY):
            continue
        if flag == "--dot":
            value = draw(st.sampled_from(
                [str(dot_dir / "q.dot"), str(dot_dir / "none" / "q.dot")]))
        elif not draw(MOSTLY):
            value = draw(FUZZ_JUNK)
        elif flag in known and draw(st.booleans()):
            value = known[flag]
        elif choices is not None:
            value = draw(st.sampled_from(choices))
        else:
            value = draw(FUZZ_INTS if convert is int else FUZZ_WORDS)
        pieces.append([flag, value] if flag.startswith("-") else [value])
    if not draw(MOSTLY):
        pieces += draw(st.lists(FUZZ_EXTRAS, min_size=1, max_size=2))
    pieces = draw(st.permutations(pieces))
    return [*words, *(token for piece in pieces for token in piece)]


@settings(max_examples=250, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_every_call_ends_with_0_1_or_2_and_one_error(tmp_path, data):
    argv = data.draw(whole_cli_argvs(tmp_path))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    lines = err.getvalue().splitlines()
    assert code in (0, 1, 2), argv
    if code == 2:
        one_line = len(lines) == 1 and lines[0].startswith("error: ")
        usage = lines[0].startswith("usage: torusq") and ": error: " in lines[-1]
        assert one_line or usage, (argv, lines)
    else:
        assert lines == [], (argv, lines)
