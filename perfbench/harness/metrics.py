"""Metric definitions: the end-to-end set and the per-layer set.

``BENCHMARK.json`` names exactly these; a self-test keeps the two in step.
Per-layer counts and times are per completed request of the traced set,
so they compare across commits; the traced run states how many of its
requests completed.
"""

from __future__ import annotations

from .stats import censored_latencies, per_input_medians, percentile
from .tracing import LAYERS

END_TO_END = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "queries_per_s": "1/s",
    "peak_rss_mb": "MB",
}

SUITES = (
    "golden-sl7", "family-tables", "cross-smooth", "cross-singular", "quiver-words",
    "minimal-borel", "hilbert", "minimal-singular", "minima-sweep",
)


def end_to_end(outcomes, verdicts, wall_s, deadline_s, setup_s, setup_samples) -> dict:
    """Every end-to-end metric as {name: {"value", "unit", "samples"}}."""
    ok = [v == "ok" for v in verdicts]
    latencies = per_input_medians(outcomes, censored_latencies(outcomes, ok, deadline_s))
    answered = [o for o, good in zip(outcomes, ok) if good]
    values = {
        "setup_s": (setup_s, setup_samples),
        "latency_p50_ms": (1000 * percentile(latencies, 50), len(latencies)),
        "latency_p90_ms": (1000 * percentile(latencies, 90), len(latencies)),
        "queries_per_s": (len(answered) / wall_s, len(answered)),
        "peak_rss_mb": (max((o.maxrss_mb for o in answered), default=0.0), len(answered)),
    }
    return {
        name: {"value": value, "unit": END_TO_END[name], "samples": samples}
        for name, (value, samples) in values.items()
    }


def _calls(name):
    return lambda agg: agg["calls"].get(name + ".calls", 0)


def _total_ms(name):
    return lambda agg: 1000 * agg["total_s"].get(name, 0.0)


def _self_ms(name):
    return lambda agg: 1000 * agg["self_s"].get(name, 0.0)


def _layer_self_ms(layer):
    return lambda agg: 1000 * sum(
        s for name, s in agg["self_s"].items() if name.split(".")[0] == layer
    )


def _share(numerator, denominator):
    def value(agg):
        den = denominator(agg)
        return numerator(agg) / den if den else 0.0
    return value


def _hits(name):
    return lambda agg: agg["calls"].get(name + ".hits", 0)


def _cache_hit_ratio(agg):
    lookups = _calls("criteria.minuscule_model")(agg)
    builds = _calls("quiver.MinusculeModel")(agg)
    return 1 - builds / lookups if lookups else 0.0


# name -> (unit, value from the aggregate, divided by completed queries?)
PER_LAYER = {
    **{f"{layer}.self_ms": ("ms/query", _layer_self_ms(layer), True) for layer in LAYERS},
    "criteria.e_ss_gr.calls": ("count/query", _calls("criteria.e_ss_gr"), True),
    "grassmannian.singular_components.calls":
        ("count/query", _calls("grassmannian.singular_components"), True),
    "criteria.gr_cross_verdicts.total_ms":
        ("ms/query", _total_ms("criteria.gr_cross_verdicts"), True),
    "criteria.model_cache_hit_ratio": ("ratio", _cache_hit_ratio, False),
    "smt.invariant_chain_gr.calls": ("count/query", _calls("smt.invariant_chain_gr"), True),
    "smt.invariant_chain_gr.self_ms": ("ms/query", _self_ms("smt.invariant_chain_gr"), True),
    "smt.minimal_semistable_oracle_gr.calls":
        ("count/query", _calls("smt.minimal_semistable_oracle_gr"), True),
    "smt.minimal_semistable_oracle_gr.total_ms":
        ("ms/query", _total_ms("smt.minimal_semistable_oracle_gr"), True),
    "smt.chain_found_ratio": ("ratio", _share(
        _hits("smt.invariant_chain_gr"), _calls("smt.invariant_chain_gr")), False),
    "smt.invariant_witnesses.total_ms":
        ("ms/query", _total_ms("smt.invariant_witnesses"), True),
    "smt.is_standard_on.calls": ("count/query", _calls("smt.is_standard_on"), True),
    "smt.max_coset_member_below.calls":
        ("count/query", _calls("smt.max_coset_member_below"), True),
    "smt.max_coset_member_below.self_ms":
        ("ms/query", _self_ms("smt.max_coset_member_below"), True),
    "smt.standard_ratio": ("ratio", _share(
        _hits("smt.is_standard_on"), _calls("smt.is_standard_on")), False),
    "weyl.bruhat_leq.calls": ("count/query", _calls("weyl.bruhat_leq"), True),
    "rootdata.reflect.calls": ("count/query", _calls("rootdata.reflect"), True),
    "weyl.MinusculePoset.total_ms": ("ms/query", _total_ms("weyl.MinusculePoset"), True),
    "quiver.MinusculeModel.self_ms": ("ms/query", _self_ms("quiver.MinusculeModel"), True),
    "quiver.Quiver.ideals.total_ms": ("ms/query", _total_ms("quiver.Quiver.ideals"), True),
    "quiver.classify_holes.calls": ("count/query", _calls("quiver.classify_holes"), True),
    "weyl.node_of_indexset.calls": ("count/query", _calls("weyl.node_of_indexset"), True),
    "weyl.node_of_indexset.total_ms":
        ("ms/query", _total_ms("weyl.node_of_indexset"), True),
    **{f"verify.{suite}.wall_ms": ("ms/query", _total_ms(f"verify.{suite}"), True)
       for suite in SUITES},
}

TRACE_RUN = {"trace.completed_queries": "count", "trace.overhead_s": "s"}


def per_layer(agg, completed: int, passes: int, overhead_s: float) -> dict:
    """Every per-layer metric as {name: {"value", "unit"}}.

    ``agg`` covers ``completed`` requests over ``passes`` passes of the
    traced set; ``trace.completed_queries`` is the number per pass.
    """
    out = {}
    for name, (unit, value, per_query) in PER_LAYER.items():
        v = value(agg)
        if per_query:
            v = v / completed if completed else 0.0
        out[name] = {"value": v, "unit": unit}
    for name, value in (("trace.completed_queries", completed / passes),
                        ("trace.overhead_s", overhead_s)):
        out[name] = {"value": value, "unit": TRACE_RUN[name]}
    return out
