"""Start-up cost of every call: what ``import torusq.cli`` loads.

``dataclasses`` pulls in ``inspect`` and with it ``ast``, ``dis`` and
``tokenize``, about half of the package's import time.  The records are
named tuples so that none of these loads.  The test diffs ``sys.modules``
around the import in a fresh interpreter, so whatever ``site`` loads
first does not count, and it checks module names, not timings.
"""

import json
import subprocess
import sys
from pathlib import Path

import torusq

SRC = Path(torusq.__file__).resolve().parent.parent
HEAVY = {"dataclasses", "inspect", "ast", "dis", "tokenize"}


def test_importing_the_cli_loads_no_introspection_modules():
    script = (
        "import json, sys\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "before = set(sys.modules)\n"
        "import torusq.cli\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    out = subprocess.run(
        [sys.executable, "-E", "-c", script],
        capture_output=True, text=True, check=True,
    ).stdout
    loaded = set(json.loads(out))
    assert "torusq.cli" in loaded
    assert not loaded & HEAVY, sorted(loaded & HEAVY)
