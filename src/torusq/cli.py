"""Command-line front end.

Subcommands mirror the library layers: ``gr`` for Young-diagram analysis
of Grassmannian Schubert varieties, ``quiver`` for building and rendering
marked quivers, ``smt`` for standard-monomial section counts, and
``verify`` for the built-in cross-check suites.  Each subcommand's options
are one table in ``LEAVES``.  A request that spells its options exactly is
read straight from that table; argparse is imported and builds the whole
tree from the same table only for help, errors and abbreviated options.

Every leaf but ``verify`` ends by handing its input, result, witnesses
and warnings to ``_report``, the one answer printer: sorted ``key: value``
lines of the result, then ``warning:`` lines, by default, and a stable
JSON envelope ``{"input", "result", "witnesses", "warnings"}`` under
``--json`` (keys sorted, two-space indent, so identical queries produce
identical bytes).
The JSON is written by ``_json``, a small emitter whose output is
byte-identical to ``json.dumps(value, indent=2, sort_keys=True,
default=list)`` on every payload the CLI writes; the json package itself
is never imported, and its C helper ``_json`` loads only for a string
that needs escapes.
Exit codes: 0 on success, 1 when a verification suite fails, 2 on usage
errors, 141 when the reader closes stdout before the output is written
(128 + SIGPIPE, as a shell reports a process that SIGPIPE ends).
"""

import os
import sys
from types import SimpleNamespace

from . import __version__, criteria, grassmannian as gr, quiver as qv, smt, verify
from .rootdata import minuscule_dimension, root_system
from .weyl import word_to_perm


# Largest inputs, refused before anything is computed.  ``quiver build``
# never lists the orbit: its cost grows with the vertex count N = dim G/P
# (at most two arrows per vertex) and the rank (the length of each weight
# tuple, walked down to the bottom node and up from each node printed).
# Whole calls at A100/omega_50 (N = 2550) take 0.04-0.05 s with --w full,
# 0.08-0.09 s with minimal, at D71 spin 0.04-0.05 and 0.06-0.07 s (2-vCPU VM,
# best to median of 11, two runs), <= 17.8 MB RSS.
# ``gr analyze`` lists no column set and fills no tableau: the minimum and
# the chain it prints are proven closed forms, so the cost is the report and
# the JSON of that chain.  At n = 300, top set, r = 150-152 take 0.04-0.07 s
# as a whole call in a subprocess, import included (best to median of 15 on
# a 2-vCPU VM), and so does the staircase (2, 4, ..., 300) of Gr(150, 300),
# whose 149 corners each grow a component; the report without the chain takes
# 0.13 ms in process at the top set, 0.45 ms at the staircase (best of 5x20).
# The largest answer is a prime n with r near n: Gr(279, 293), top set,
# prints a chain of 293 column sets, 1.2 MB, in 0.02 s in process.
#
# ``smt dim`` answers from the closed form C(t+m-1, m), t = w(1) - w(n);
# a degree whose bound C(t+m-1, m) <= (t+m)^min(m, t-1) passes
# 2^SMT_MAX_DIM_BITS (~3 900 digits; Python prints no integer over 4 300)
# is refused without computing the count.  ``smt dim --json`` lists every
# witness, 2*m entries each, and stops at SMT_MAX_WITNESS_ENTRIES entries in
# all: a whole call with 8 855 witnesses (n = 21, m = 4, 70 840 entries)
# takes 0.12-0.20 s and writes 1.4 MB, one with 24 976 (n = 224, m = 2)
# 0.24-0.39 s and 2.9 MB (fastest to slowest of 11); 50 000 at m = 1 take
# 0.30-0.41 s in process.
# ``smt pn-check`` walks the pairs of the standardness test down the
# C(w(1)+m-1, m) sorted multisets of 1..w(1) in each degree m = 2..max_m,
# reading 2*m entries of each, and admits SMT_MAX_WALK_ENTRIES entries in
# all: w(1) = 36, max_m = 4 (711 288 entries) takes 0.12 s at best and
# 0.13-0.18 s in the median, n = 2, max_m = 113 (987 616) 0.08 s in both
# (whole calls on a 2-vCPU VM, best and median of 11).
# ``smt minimal`` answers n-1 permutations of n, O(n^2) output: 0.26 s and
# 41 MB at n = 500.  ``--as word`` costs n + letters: 9 999 letters at
# n = 10 000 take 0.09 s.
QUIVER_MAX_RANK = 100
QUIVER_MAX_VERTICES = 2550
GR_MAX_N = 300
SMT_MAX_DIM_BITS = 13_000
SMT_MAX_WITNESS_ENTRIES = 100_000
SMT_MAX_WALK_ENTRIES = 1_000_000
SMT_MINIMAL_MAX_N = 500
SMT_WORD_MAX_N = 10_000


def _usage_error(message):
    """Exit 2 with a single line on stderr."""
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.replace(",", " ").split())
    except ValueError:
        _usage_error(f"{text!r} is not a list of integers")


def _string(text: str) -> str:
    """``text`` as json.dumps writes it: printable ASCII with no ``"`` or
    backslash as it is, any other str by ``_json``, a non-str TypeError."""
    if str.isascii(text) and text.isprintable() and '"' not in text and "\\" not in text:
        return '"' + text + '"'
    from _json import encode_basestring_ascii

    return encode_basestring_ascii(text)


def _json(value, indent: str = "\n") -> str:
    """``value`` as ``json.dumps(value, indent=2, sort_keys=True,
    default=list)`` writes it, byte for byte: keys sorted, two-space indent,
    so identical queries give identical bytes.

    The domain is what the CLI writes: str, int, bool and None, dicts with
    str keys, lists and tuples (NamedTuples included) of these, and any
    other iterable of them, written as its ``list``.  A float or a dict key
    that is not a str raises TypeError instead of writing other bytes.
    ``indent`` is the newline and indent of the enclosing level.
    """
    if isinstance(value, str):
        return _string(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = indent + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = (_string(key) + ": " + _json(value[key], inner)
                 for key in sorted(value))
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if not isinstance(value, (list, tuple)):
        return _json(list(value), indent)  # json's default=list
    if not value:
        return "[]"
    if all(type(item) is int for item in value):
        items = map(int.__repr__, value)
    else:
        items = (_json(item, inner) for item in value)
    return "[" + inner + ("," + inner).join(items) + indent + "]"


def _report(args, input: dict, result: dict, witnesses=(), warnings=()) -> int:
    """Print one answer and return exit code 0: the envelope ``{"input",
    "result", "witnesses", "warnings"}`` under ``--json``, otherwise the
    result's ``key: value`` lines, keys sorted, then one ``warning:`` line
    per warning."""
    if args.json:
        print(_json({"input": input, "result": result, "witnesses": witnesses,
                     "warnings": warnings}))
    else:
        for key in sorted(result):
            print(f"{key}: {_plain(result[key])}")
        for warning in warnings:
            print(f"warning: {warning}")
    return 0


def _plain(value):
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_plain(v) for v in value) + "]"
    if isinstance(value, dict):
        return "{" + ", ".join(f"{k}={_plain(v)}" for k, v in sorted(value.items())) + "}"
    return str(value)


# ---------------------------------------------------------------------------


def cmd_gr_analyze(args) -> int:
    if args.n > GR_MAX_N:
        _usage_error(f"--n {args.n}: gr analyze stops at n = {GR_MAX_N}")
    w = _ints(args.w)
    try:
        gr.check_box(args.r, args.n)
        gr.check_indexset(w, args.r, args.n)
    except ValueError as exc:
        _usage_error(exc)
    result, warnings = criteria.semistable_meets_singular_gr(w, args.r, args.n)
    witnesses = []
    if result["semistable_nonempty"]:
        chain = gr.minimal_invariant_chain(args.r, args.n)
        witnesses.append({"degree": len(chain), "chain": chain})
    return _report(args, {"n": args.n, "r": args.r, "w": w}, result, witnesses, warnings)


def _resolve_ideal(minuscule, args) -> int:
    """The order ideal of the full quiver that ``--w`` names, as a mask."""
    system = minuscule.system
    if args.w == "full":
        return (1 << minuscule.full.n_vertices) - 1
    if args.w == "minimal":
        word = qv.minimal_v_word(system.family, system.rank, minuscule.poset.weight_index)
    elif args.element_format == "indexset":
        word = qv.column_set_word(minuscule.poset.check_indexset(_ints(args.w)))
    else:
        word = _ints(args.w)
    return minuscule.grow(word)


def cmd_quiver_build(args) -> int:
    rank = args.rank
    if rank is None:
        if args.family in ("A", "D"):
            _usage_error("--rank is required for families A and D")
        rank = 6 if args.family == "E6" else 7
    if rank > QUIVER_MAX_RANK:
        _usage_error(f"--rank {rank}: quiver build stops at rank {QUIVER_MAX_RANK}")
    try:
        size = minuscule_dimension(args.family, rank, args.weight)
    except ValueError as exc:
        _usage_error(exc)
    if size > QUIVER_MAX_VERTICES:
        _usage_error(
            f"the quiver of omega_{args.weight} in {root_system(args.family, rank)} "
            f"has {size} vertices; quiver build stops at {QUIVER_MAX_VERTICES}"
        )
    try:
        minuscule = qv.MinusculeQuiver(root_system(args.family, rank), args.weight)
        ideal = _resolve_ideal(minuscule, args)
    except ValueError as exc:
        _usage_error(exc)
    word = minuscule.word_of(ideal)
    holes = qv.classify_holes(ideal, minuscule.masks)
    if args.dot:
        try:
            with open(args.dot, "w", newline="") as handle:
                handle.write(qv.quiver_to_dot(minuscule.full, ideal, holes))
        except OSError as exc:
            _usage_error(f"cannot write {args.dot}: {exc.strerror}")
        if not args.json:
            print(f"wrote {args.dot}")
    return _report(
        args,
        {"family": args.family, "rank": rank, "weight": args.weight, "w": args.w},
        {"word": word, "length": len(word), "vertices": minuscule.full.n_vertices,
         "members": list(qv.positions(ideal)),
         "holes": {"real": holes.real, "virtual": holes.virtual,
                   "essential": holes.essential},
         "smooth": not holes.real,
         "singular_components": [minuscule.word_of(c) for c in holes.components]},
    )


def _smt_size(n: int) -> None:
    if n < 2:
        _usage_error(f"--n {n}: the weight omega_1 + omega_(n-1) needs n >= 2")


def _smt_element(args):
    _smt_size(args.n)
    values = _ints(args.w)
    if args.element_format == "word":
        if args.n > SMT_WORD_MAX_N:
            _usage_error(f"--n {args.n}: --as word stops at n = {SMT_WORD_MAX_N}")
        try:
            return word_to_perm(values, args.n)
        except ValueError as exc:
            _usage_error(exc)
    if len(values) != args.n or sorted(values) != list(range(1, args.n + 1)):
        _usage_error(f"{values} is not a permutation of 1..{args.n}")
    return values


def cmd_smt_dim(args) -> int:
    w = _smt_element(args)
    m = args.m
    if m < 0:
        _usage_error(f"--m {m}: the degree must be non-negative")
    t = smt.invariant_generators(w)
    if min(m, t - 1) * (t + m).bit_length() > SMT_MAX_DIM_BITS:
        _usage_error(
            f"--m {m}: the count C(t+m-1, m) with t = {t} may reach "
            f"2^{SMT_MAX_DIM_BITS}; smt dim stops there"
        )
    dim = smt.monomial_count(t, m)
    if args.json and 2 * m * dim > SMT_MAX_WITNESS_ENTRIES:
        _usage_error(
            f"--m {m}: --json would list {dim} x 2*m witness entries; smt dim "
            f"--json stops at {SMT_MAX_WITNESS_ENTRIES}"
        )
    witnesses = smt.invariant_witnesses(w, m) if args.json else ()
    return _report(args, {"n": args.n, "w": w, "m": m}, {"dim": dim, "m": m},
                   [{"shorts": values[::-1], "missings": values} for values in witnesses])


def cmd_smt_minimal(args) -> int:
    _smt_size(args.n)
    if args.n > SMT_MINIMAL_MAX_N:
        _usage_error(f"--n {args.n}: smt minimal stops at n = {SMT_MINIMAL_MAX_N}")
    elements = smt.minimal_borel_semistable(args.n)
    return _report(args, {"n": args.n}, {"count": len(elements), "elements": elements})


def cmd_smt_pn_check(args) -> int:
    w = _smt_element(args)
    if args.max_m < 2:
        _usage_error(f"--max-m {args.max_m}: the check compares degrees 2..max-m")
    read, multisets = 0, w[0]  # C(w(1), 1)
    for m in range(2, args.max_m + 1):
        multisets = multisets * (w[0] + m - 1) // m  # C(w(1)+m-1, m)
        read += 2 * m * multisets
        if read > SMT_MAX_WALK_ENTRIES:
            _usage_error(
                f"--max-m {args.max_m}: pn-check at w(1) = {w[0]} reads more than "
                f"{SMT_MAX_WALK_ENTRIES} walk entries; it stops there"
            )
    return _report(args, {"n": args.n, "w": w, "max_m": args.max_m},
                   smt.projective_normality_check(w, range(2, args.max_m + 1)))


def cmd_verify(args) -> int:
    results = verify.run_suite(args.suite)
    if args.json:
        print(_json(results))
    else:
        for res in results:
            status = "PASS" if res["passed"] else "FAIL"
            print(f"{res['suite']}: {status} ({res['checks']} checks)")
            for f in res["failures"]:
                print(f"  {f}")
    return 0 if all(r["passed"] for r in results) else 1


# ---------------------------------------------------------------------------


# A leaf's options as data, one row each: flag, dest, converter, choices,
# default (_REQUIRED when the option must be given) and help.  A flag
# without dashes names a positional.
_REQUIRED = object()


def _option(flag, convert=str, *, dest=None, choices=None, default=_REQUIRED,
            help=None):
    return (flag, dest or flag.lstrip("-").replace("-", "_"), convert, choices,
            default, help)


_SMT_ELEMENT = (
    _option("--n", int),
    _option("--w"),
    _option("--as", dest="element_format", choices=("oneline", "word"),
            default="oneline"),
)

# The runnable subcommands, keyed by the words that name them: the help
# line listed under the parent command, the options, and the handler.
# Every leaf also takes --json.
LEAVES = {
    ("gr", "analyze"): (
        "full diagram report for one element",
        (_option("--n", int), _option("--r", int),
         _option("--w", help="column set, e.g. 2,4")),
        cmd_gr_analyze),
    ("quiver", "build"): (
        "build/mark a quiver, optionally as DOT",
        (_option("--family", choices=("A", "D", "E6", "E7")),
         _option("--rank", int, default=None),
         _option("--weight", int),
         _option("--w", default="minimal", help="'minimal', 'full', a reduced "
                 "word, or an index set with --as indexset"),
         _option("--as", dest="element_format", choices=("word", "indexset"),
                 default="word"),
         _option("--dot", default=None, help="write a Graphviz file here")),
        cmd_quiver_build),
    ("smt", "dim"): (
        "invariant section count on X(w)", _SMT_ELEMENT + (_option("--m", int),),
        cmd_smt_dim),
    ("smt", "minimal"): (
        "minimal semistable permutations", (_option("--n", int),), cmd_smt_minimal),
    ("smt", "pn-check"): (
        "polynomial-ring growth of sections",
        _SMT_ELEMENT + (_option("--max-m", int, default=3),), cmd_smt_pn_check),
    ("verify",): (
        "run a built-in verification suite",
        (_option("suite", choices=(*sorted(verify.SUITES), "all")),), cmd_verify),
}
GROUPS = {
    "gr": "Grassmannian Schubert varieties",
    "quiver": "minuscule quivers",
    "smt": "standard-monomial section counts",
}


def _read_leaf(words: tuple[str, ...], rest: list[str]) -> SimpleNamespace | None:
    """The request after the leaf ``words`` when every option in ``rest``
    is spelled exactly (``--opt value``, ``--opt=value``, ``--json``, the
    ``verify`` positional) with a valid value; None for anything else, which
    argparse answers: help, ``--``, abbreviations, unknown or extra tokens,
    values that start with ``-``, bad values, missing required options."""
    _, table, func = LEAVES[words]
    options = {row[0]: row for row in table}
    positionals = [row for row in table if not row[0].startswith("-")]
    values = {"json": False, "func": func}
    tokens = iter(rest)
    for token in tokens:
        if token == "--json":
            values["json"] = True
            continue
        if token.startswith("-"):
            flag, eq, value = token.partition("=")
            row = options.get(flag)
            if row is None:
                return None
            if not eq:
                value = next(tokens, "-")  # a missing value reads as a flag
        elif positionals:
            row, value = positionals.pop(), token
        else:
            return None
        _, dest, convert, choices, _, _ = row
        if value.startswith("-"):
            return None
        try:
            value = convert(value)
        except ValueError:
            return None
        if choices is not None and value not in choices:
            return None
        values[dest] = value
    for _, dest, _, _, default, _ in table:
        if dest not in values:
            if default is _REQUIRED:
                return None
            values[dest] = default
    return SimpleNamespace(**values)


def _add_leaf(parser, words: tuple[str, ...]) -> None:
    """Define the options of the leaf ``words`` on an argparse parser."""
    _, table, func = LEAVES[words]
    for flag, dest, convert, choices, default, help in table:
        if flag.startswith("-"):
            required = default is _REQUIRED
            parser.add_argument(flag, dest=dest, type=convert, choices=choices,
                                required=required, default=None if required else default,
                                help=help)
        else:
            parser.add_argument(flag, type=convert, choices=choices, help=help)
    parser.add_argument("--json", action="store_true")
    parser.set_defaults(func=func)


def build_parser():
    """The whole command tree as an argparse parser: every group and leaf,
    for help, errors and abbreviated options."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="torusq",
        description="Torus quotients of minuscule Schubert varieties: "
        "smoothness, semistability, and section counts.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    groups = {}
    for words, (help_line, _, _) in LEAVES.items():
        parent = sub
        if len(words) == 2:
            group = words[0]
            if group not in groups:
                groups[group] = sub.add_parser(group, help=GROUPS[group]).add_subparsers(
                    dest=f"{group}_command", required=True)
            parent = groups[group]
        _add_leaf(parent.add_parser(words[-1], help=help_line), words)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    words = tuple(argv[:2])
    if words not in LEAVES:
        words = words[:1]
    args = _read_leaf(words, argv[len(words):]) if words in LEAVES else None
    try:
        try:
            if args is None:
                # Help, errors and abbreviations: argparse answers from the
                # whole tree, so every usage and error text has one source.
                args = build_parser().parse_args(argv)
            return args.func(args)
        finally:
            sys.stdout.flush()  # a late EPIPE raises here, not at exit
    except BrokenPipeError:
        # The reader is gone.  As in the Python docs' "Note on SIGPIPE",
        # point stdout at devnull so that the flush at exit writes the rest
        # nowhere instead of printing a second error.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
