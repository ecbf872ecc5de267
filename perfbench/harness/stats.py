"""Percentiles of per-query latencies, with killed queries censored."""

from __future__ import annotations

import statistics
from collections import defaultdict


def percentile(values, q: float) -> float:
    """The q-th percentile (0..100) by linear interpolation between ranks."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of no values")
    pos = (len(data) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def censored_latencies(outcomes, verdicts, deadline_s: float) -> list[float]:
    """Latency of each attempted query; one without a correct answer counts
    at the deadline, or at the time the client waited if that was longer."""
    return [
        o.latency_s if ok else max(o.latency_s, deadline_s)
        for o, ok in zip(outcomes, verdicts)
    ]


def per_input_medians(outcomes, latencies) -> list[float]:
    """Each latency replaced by the median over the run's repeats of the
    same argv, which takes out most of the machine's noise while keeping
    every input's weight in the mix."""
    repeats = defaultdict(list)
    for o, latency in zip(outcomes, latencies):
        repeats[tuple(o.argv)].append(latency)
    medians = {argv: statistics.median(v) for argv, v in repeats.items()}
    return [medians[tuple(o.argv)] for o in outcomes]
