"""Start-up cost of every call: what ``import torusq.cli`` loads.

``dataclasses`` pulls in ``inspect`` and with it ``ast``, ``dis`` and
``tokenize``, about half of the package's import time.  The records are
named tuples so that none of these loads.  ``argparse`` and ``gettext``
load only when a request needs help or an error text: an exactly spelled
request is read from its leaf's option table.  The tests read
``sys.modules`` in a fresh interpreter (the import test diffs it around
the import, so whatever ``site`` loads first does not count), and they
check module names, not timings.
"""

import json
import subprocess
import sys
from pathlib import Path

import torusq

from test_cli_parser import LEAVES

SRC = Path(torusq.__file__).resolve().parent.parent
HEAVY = {"dataclasses", "inspect", "ast", "dis", "tokenize"}
PARSING = {"argparse", "gettext"}


def _fresh(script, *argv):
    return subprocess.run(
        [sys.executable, "-E", "-c",
         f"import json, sys\nsys.path.insert(0, {str(SRC)!r})\n{script}", *argv],
        capture_output=True, text=True, check=True,
    ).stdout


def test_importing_the_cli_loads_no_introspection_modules():
    out = _fresh(
        "before = set(sys.modules)\n"
        "import torusq.cli\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    loaded = set(json.loads(out))
    assert "torusq.cli" in loaded
    assert not loaded & (HEAVY | PARSING), sorted(loaded & (HEAVY | PARSING))


def test_a_valid_request_never_loads_argparse():
    requests = [list(words) + valid + ["--json"] for words, (valid, _) in LEAVES.items()]
    out = _fresh(
        "from torusq import cli\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    assert cli.main(argv) == 0, argv\n"
        "print(json.dumps(sorted(sys.modules)))\n",
        json.dumps(requests),
    )
    loaded = set(json.loads(out.splitlines()[-1]))
    assert "torusq.verify" in loaded
    assert not loaded & PARSING, sorted(loaded & PARSING)


def test_help_still_prints_usage():
    out = _fresh("from torusq import cli\ncli.main(['--help'])\n")
    assert out.startswith("usage: torusq ")
