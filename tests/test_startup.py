"""Start-up cost of every call: what ``import torusq.cli`` loads.

``dataclasses`` pulls in ``inspect`` and with it ``ast``, ``dis`` and
``tokenize``, about half of the package's import time.  The records are
plain tuple subclasses, so none of these loads, and no
``collections.namedtuple`` call compiles a ``__new__`` for each record.
``argparse`` and ``gettext`` load only when a request needs help or an
error text: an exactly spelled request is read from its leaf's option
table.  ``--json`` is written by the CLI's own emitter, so the json
package never loads either, and json's C helper ``_json`` only for a
string that needs escapes.  ``heapq`` does not load: the quiver keeps its
ready labels in a sorted list.  The tests
read ``sys.modules`` in a fresh interpreter that imports nothing else
first (the import test diffs it around the import, so whatever ``site``
loads first does not count) and print it as a Python literal, and they
check module names, not timings.
"""

import ast
import subprocess
import sys
from pathlib import Path

import torusq

from test_cli_parser import LEAVES

SRC = Path(torusq.__file__).resolve().parent.parent
HEAVY = {"dataclasses", "inspect", "ast", "dis", "tokenize"}
PARSING = {"argparse", "gettext"}
JSON = {"json", "json.encoder", "json.decoder", "json.scanner"}
UNUSED = {"heapq", "_heapq", "_json"}


def _fresh(script):
    return subprocess.run(
        [sys.executable, "-E", "-c",
         f"import sys\nsys.path.insert(0, {str(SRC)!r})\n{script}"],
        capture_output=True, text=True, check=True,
    ).stdout


def test_importing_the_cli_loads_no_introspection_modules():
    out = _fresh(
        "before = set(sys.modules)\n"
        "import torusq.cli\n"
        "print(repr(sorted(set(sys.modules) - before)))\n"
    )
    loaded = set(ast.literal_eval(out))
    assert "torusq.cli" in loaded
    unwanted = HEAVY | PARSING | JSON | UNUSED
    assert not loaded & unwanted, sorted(loaded & unwanted)


def test_a_bare_interpreter_imports_neither_typing_nor_re():
    """Without ``site`` (``python -S``), which on some installs imports
    ``typing`` first, the package loads neither: its records are plain
    ``tuple`` subclasses and nothing is annotated from ``typing``."""
    out = subprocess.run(
        [sys.executable, "-S", "-E", "-c",
         f"import sys\nsys.path.insert(0, {str(SRC)!r})\nimport torusq.cli\n"
         "print(repr(sorted(sys.modules)))\n"],
        capture_output=True, text=True, check=True,
    ).stdout
    loaded = set(ast.literal_eval(out))
    assert "torusq.cli" in loaded
    assert not loaded & {"typing", "re"}, sorted(loaded & {"typing", "re"})


def test_a_valid_request_never_loads_argparse():
    """Nor json: a valid ``--json`` request of every leaf loads neither
    the json package nor its C helper ``_json``."""
    requests = [list(words) + valid + ["--json"] for words, (valid, _) in LEAVES.items()]
    out = _fresh(
        "from torusq import cli\n"
        f"for argv in {requests!r}:\n"
        "    assert cli.main(argv) == 0, argv\n"
        "print(repr(sorted(sys.modules)))\n",
    )
    loaded = set(ast.literal_eval(out.splitlines()[-1]))
    assert "torusq.verify" in loaded
    unwanted = PARSING | JSON | {"_json"}
    assert not loaded & unwanted, sorted(loaded & unwanted)


def test_verify_all_loads_no_process_pool():
    """``verify all`` hands a share of its suites to a child made with
    ``os.fork`` and reads its results with ``marshal``; neither a pool nor
    a pickler loads for it."""
    out = _fresh(
        "from torusq import cli\n"
        "assert cli.main(['verify', 'all', '--json']) == 0\n"
        "print(repr(sorted(sys.modules)))\n",
    )
    loaded = set(ast.literal_eval(out.splitlines()[-1]))
    pools = {"multiprocessing", "concurrent.futures", "pickle", "subprocess"}
    assert not loaded & pools, sorted(loaded & pools)


def test_help_still_prints_usage():
    out = _fresh("from torusq import cli\ncli.main(['--help'])\n")
    assert out.startswith("usage: torusq ")
