"""Spans and counts around the calls into each torusq layer.

The traced run wraps the public functions of every package module from
here, without touching the package source.  A wrapper records a span
(name, start, end, parent span) or, for primitives called too often for a
span per call, only a count.  Spans stay in memory in the query child,
which sends them back with its answer; the parent turns them into
per-layer totals and self times (a span minus its child spans).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "criteria", "grassmannian", "smt", "quiver", "weyl", "rootdata", "verify")

# Primitives: counted in every namespace that imports them, never spanned.
COUNTED = frozenset({
    "weyl.bruhat_leq", "weyl.right_multiply", "weyl.word_to_perm", "weyl.pi_projection",
    "weyl.identity_perm", "weyl.check_perm",
    "rootdata.reflect", "rootdata.fundamental_weight",
    "grassmannian.check_box", "grassmannian.check_indexset", "grassmannian.check_partition",
    "grassmannian.indexset_leq", "grassmannian.diagram_leq",
    "grassmannian.indexset_to_partition", "grassmannian.partition_to_indexset",
    "smt.canonical_invariant_tableau",
})

# Constructors and methods with a span of their own: span name -> attribute.
METHODS = {
    "weyl.MinusculePoset": ("weyl", "MinusculePoset", "__init__"),
    "weyl.node_of_indexset": ("weyl", "MinusculePoset", "node_of_indexset"),
    "quiver.MinusculeModel": ("quiver", "MinusculeModel", "__init__"),
    "quiver.Quiver.ideals": ("quiver", "Quiver", "ideals"),
}

# Useful outcomes, counted as "<name>.hits" next to "<name>.calls".
HITS = {
    "smt.invariant_chain_gr": lambda result: result is not None,
    "smt.is_standard_on": bool,
}


class Tracer:
    def __init__(self):
        self._restore = []
        self.reset()

    def reset(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = Counter()
        self._stack = []

    def export(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts)}

    def _span(self, name, fn):
        hit = HITS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans, stack = self.spans, self._stack  # reset() replaces them
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            self.counts[name + ".calls"] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index] = [name, start, time.perf_counter(), parent]
                stack.pop()
            if hit is not None and hit(result):
                self.counts[name + ".hits"] += 1
            return result

        return wrapper

    def _count(self, name, fn):
        key = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every public function of every layer, in every namespace."""
        modules = {layer: importlib.import_module(f"torusq.{layer}") for layer in LAYERS}
        suite_names = {fn: f"verify.{key}" for key, fn in modules["verify"].SUITES.items()}
        wrappers = {}
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != module.__name__:
                    continue
                name = suite_names.get(obj, f"{layer}.{attr}")
                wrap = self._count if name in COUNTED else self._span
                wrappers[obj] = wrap(name, obj)
        namespaces = [importlib.import_module("torusq"), *modules.values()]
        for namespace in namespaces:
            for attr, obj in list(vars(namespace).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._set(namespace, attr, wrappers[obj])
        suites = modules["verify"].SUITES
        for key, fn in list(suites.items()):
            self._restore.append((suites, key, fn))
            suites[key] = wrappers[fn]
        for name, (layer, cls_name, attr) in METHODS.items():
            cls = getattr(modules[layer], cls_name)
            self._set(cls, attr, self._span(name, vars(cls)[attr]))

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)
        self._restore.clear()


def aggregate(traces) -> dict:
    """Totals over the traces of completed queries.

    Returns ``{"calls": Counter, "total_s": {name: s}, "self_s": {name: s}}``;
    a span's self time is its duration minus its direct child spans.
    """
    calls = Counter()
    total = defaultdict(float)
    self_time = defaultdict(float)
    for trace in traces:
        calls.update(trace["counts"])
        spans = trace["spans"]
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        for (name, start, end, _parent), inner in zip(spans, child):
            total[name] += end - start
            self_time[name] += end - start - inner
    return {"calls": calls, "total_s": dict(total), "self_s": dict(self_time)}
