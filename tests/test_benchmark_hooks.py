"""The benchmark's traced run finds every name it wraps in this tree.

``perfbench/harness/tracing.py`` imports every layer of the package, wraps
each layer's public functions in every namespace that holds them, and
reads ``MinusculePoset.node_of_indexset``, ``MinusculeModel.__init__`` and
``Quiver.ideals`` from their class dicts, so a moved or renamed name
breaks the traced run.  Here the tracer is loaded from its file, installed
on this tree and uninstalled again, without running the benchmark.
"""

import importlib.util
from pathlib import Path

from torusq import cli, quiver as qv, verify, weyl

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "harness" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def traced_methods():
    return [
        vars(weyl.MinusculePoset)["node_of_indexset"],
        vars(qv.MinusculeModel)["__init__"],
        vars(qv.Quiver)["ideals"],
    ]


def test_tracer_installs_on_this_tree_and_restores_it():
    tracing = load_tracing()
    main, run_suite, methods = cli.main, verify.run_suite, traced_methods()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.main is not main and verify.run_suite is not run_suite
        assert verify.minimal_semistable_oracle_gr(2, 4) == [(2, 4)]
        assert tracer.counts["verify.minimal_semistable_oracle_gr.calls"] == 1
    finally:
        tracer.uninstall()
    assert cli.main is main
    assert verify.run_suite is run_suite
    assert traced_methods() == methods
