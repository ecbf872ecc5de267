"""The four workloads: seeded streams of ``torusq`` argv lists.

Each stream is an endless generator; the run takes queries from it until
its time is up.  The program only ever sees the argv lists.  Draws are
stratified: sizes, ranks and (for small boxes) column sets are dealt
from seeded permutations, each value once per round, rather than drawn
independently.  Any stretch of a stream therefore has the mix the
workload names, and one seed's figures stay close to another's.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterator

# Gr(r, n) boxes named in the ROADMAP whose chain search runs for 16 s to
# minutes at the seed commit.  They open every gr-analyze stream, so no
# run ever drops them.
CLIFF_CASES = (
    (4, 12, (3, 6, 9, 12)),
    (4, 10, (3, 5, 8, 10)),
    (5, 11, (1, 4, 6, 9, 11)),
    (5, 13, (2, 5, 8, 10, 13)),
)

# Box sizes of the random part of gr-analyze.  Larger boxes have column
# sets whose chain search runs for seconds (from n = 8 on, some run past
# 3 s), and a few more or fewer of those per run swing its throughput by
# more than a tenth from one seed to the next.  CLIFF_CASES stand in for
# them.
GR_SIZES = range(5, 8)
SMT_SIZES = range(6, 12)
# 70% `smt dim` with m = 1, 2, 3 equally often (the m), 30% `pn-check` (0)
SMT_JOBS = (1, 2, 3) * 7 + (0,) * 9
QUIVER_A_SIZES = range(6, 15)  # n = rank + 1
QUIVER_D_RANKS = range(4, 11)
QUIVER_E_CASES = (("E6", 1), ("E6", 6), ("E7", 7))

VERIFY_SUITES = 9
VERIFY_CHECKS = 1921


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


def gr_argv(r: int, n: int, w) -> list[str]:
    return ["gr", "analyze", "--json", "--n", str(n), "--r", str(r), "--w", _csv(w)]


def _cycle(rng: random.Random, items) -> Iterator:
    """Endless seeded permutations of ``items``: each item once per round."""
    items = list(items)
    while True:
        rng.shuffle(items)
        yield from items


def _cycles(rng: random.Random, make_items):
    """One lazily created ``_cycle`` per key."""
    cycles = {}

    def draw(key):
        if key not in cycles:
            cycles[key] = _cycle(rng, make_items(key))
        return next(cycles[key])

    return draw


def gr_analyze(rng: random.Random) -> Iterator[list[str]]:
    for r, n, w in CLIFF_CASES:
        yield gr_argv(r, n, w)
    rank = _cycles(rng, lambda n: range(1, n))
    column_set = _cycles(rng, lambda box: combinations(range(1, box[1] + 1), box[0]))
    for n in _cycle(rng, GR_SIZES):
        r = rank(n)
        yield gr_argv(r, n, column_set((r, n)))


def smt_corpus() -> list[list[str]]:
    """The fixed smt-sections query set: one query per (n, job) slot.

    Uniform random permutations of 1..n make a run's figures depend on
    which permutations it drew by 10-25% (measured over seeds), because a
    few per run cost 50x the median; so the permutations are drawn once,
    from a fixed corpus seed, and every run goes over the same set.  The
    first value of w bounds which single boxes can start a chain and sets
    most of a query's cost, so it is dealt per (n, job) rather than drawn.
    """
    rng = random.Random("smt-sections corpus")
    first = _cycles(rng, lambda cell: range(1, cell[0] + 1))
    corpus = []
    for n in SMT_SIZES:
        for m in SMT_JOBS:
            head = first((n, m))
            w = _csv([head, *rng.sample([v for v in range(1, n + 1) if v != head], n - 1)])
            if m:
                corpus.append(["smt", "dim", "--json", "--n", str(n), "--w", w, "--m", str(m)])
            else:
                corpus.append(["smt", "pn-check", "--json", "--n", str(n), "--w", w,
                               "--max-m", "3"])
    return corpus


def smt_sections(rng: random.Random) -> Iterator[list[str]]:
    yield from _cycle(rng, smt_corpus())


def quiver_corpus() -> list[list[str]]:
    """The fixed quiver-build query set: every minuscule case in range once.

    Type A has one query per (n, r), its element dealt in turn from
    minimal, full and a column set drawn once; types D and E have one per
    (rank, weight), alternating minimal and full, and both for E.  Drawn
    column sets are fixed like the smt-sections permutations, since the
    linear node_of_indexset scan makes their cost depend on where the node
    sits.
    """
    rng = random.Random("quiver-build corpus")
    a_elements = _cycle(rng, ("minimal", "full", "indexset"))
    other_elements = _cycle(rng, ("minimal", "full"))
    corpus = []
    for n in QUIVER_A_SIZES:
        for r in range(2, n - 1):
            head = ["--family", "A", "--rank", str(n - 1), "--weight", str(r)]
            element = next(a_elements)
            if element == "indexset":
                cols = sorted(rng.sample(range(1, n + 1), r))
                corpus.append([*head, "--w", _csv(cols), "--as", "indexset"])
            else:
                corpus.append([*head, "--w", element])
    for k in QUIVER_D_RANKS:
        for weight in (1, k - 1, k):
            corpus.append(["--family", "D", "--rank", str(k), "--weight", str(weight),
                           "--w", next(other_elements)])
    for name, weight in QUIVER_E_CASES:
        for element in ("minimal", "full"):
            corpus.append(["--family", name, "--weight", str(weight), "--w", element])
    return [["quiver", "build", "--json", *args] for args in corpus]


def quiver_build(rng: random.Random) -> Iterator[list[str]]:
    yield from _cycle(rng, quiver_corpus())


def verify_all(rng: random.Random) -> Iterator[list[str]]:
    while True:
        yield ["verify", "all", "--json"]


@dataclass(frozen=True)
class Workload:
    name: str
    stream: Callable[[random.Random], Iterator[list[str]]]
    deadline_s: float  # the parent kills a query child after this long
    mandatory: int  # leading queries a run always makes, time or not
    round_size: int  # after those, a timed run ends only after whole rounds
    trace_size: int  # leading requests of the stream that a traced run makes

    def queries(self, seed: int) -> Iterator[list[str]]:
        return self.stream(random.Random(f"{self.name}:{seed}"))


WORKLOADS = {
    w.name: w
    for w in (
        # the cliff boxes and one request that answers, however short the run
        Workload("gr-analyze", gr_analyze, deadline_s=1.5, mandatory=len(CLIFF_CASES) + 1,
                 round_size=1, trace_size=len(CLIFF_CASES) + 180),
        Workload("smt-sections", smt_sections, deadline_s=10.0, mandatory=0,
                 round_size=len(smt_corpus()), trace_size=len(smt_corpus())),
        Workload("quiver-build", quiver_build, deadline_s=10.0, mandatory=0,
                 round_size=len(quiver_corpus()), trace_size=len(quiver_corpus())),
        Workload("verify-all", verify_all, deadline_s=60.0, mandatory=1,
                 round_size=1, trace_size=1),
    )
}

# North-star latency limit of one CLI answer.
LIMIT_S = 1.0
