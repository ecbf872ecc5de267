"""Self-contained verification suites behind ``torusq verify``.

Each suite re-derives a published or independently computable fact with
the library and reports pass/fail plus a check count.  The suites dualize
the test suite so that an installed package can be smoke-tested without
pytest.  The formulations of the semistable-vs-singular verdict that the
suites compare (:func:`gr_cross_verdicts`) and the cached orbit listings
they walk (:func:`minuscule_model`) live here, off the request path.

Work the suites share is done once per process, by ``functools.cache``:
each orbit listing is built once (:func:`minuscule_model`), each walked
section count ``smt.invariant_dimension(w, m)`` is computed once per
(w, m) (:func:`_invariant_dimension`: the families, S_5 and the lifts
overlap), and each Grassmannian word's partition once per (word, r, n)
(:func:`_partition_of_word`: ``cross-smooth`` and ``cross-singular`` read
the same nodes).  The caches hold results only, read through the library
functions on a miss, so a suite run alone gives what it gives inside
``all``.

``all`` runs in two processes where two CPUs are allowed
(:func:`run_suite`).  A forked child runs ``golden-sl7``,
``family-tables``, ``minimal-borel`` and ``hilbert``, which share the
section counts of ``_invariant_dimension``, ``quiver-words``, which reads
no hole report, and ``minimal-singular``, whose D and E listings
``quiver-words`` has built there.  This process runs ``cross-smooth``,
``cross-singular`` and ``minima-sweep``, which share the type-A models
and their hole reports.  Alone in a fresh process the shares take 12.0
and 12.4 ms (best of fifteen on a 2-vCPU VM, Python 3.11); the other
splits timed were slower.  23 listings are built in both processes; on
one CPU that costs more than the split saves, so there, and without
``os.sched_getaffinity``, the suites run one after another here.
"""

import marshal
import os
from functools import cache
from itertools import combinations, combinations_with_replacement, permutations, starmap
from math import gcd
from operator import gt

from . import criteria, grassmannian as gr, quiver as qv, smt
from .rootdata import root_system
from .weyl import bruhat_leq, pi_projection, word_to_perm


def _result(name, checks, failures, info=None):
    return {
        "suite": name,
        "passed": not failures,
        "checks": checks,
        "failures": failures[:20],
        "info": info or {},
    }


@cache
def minuscule_model(family, rank, weight) -> qv.MinusculeModel:
    """Cached orbit listings; a node's answers are ``quiver build``'s."""
    return qv.MinusculeModel(root_system(family, rank), weight)


@cache
def _invariant_dimension(w, m):
    """The walked section count, once per (w, m) across the suites."""
    return smt.invariant_dimension(w, m)


@cache
def _partition_of_word(word, r, n):
    """The partition of the Gr(r, n) Schubert cell with reduced word
    ``word``, read once per (word, r, n) across the suites."""
    perm = word_to_perm(word, n)
    return gr.indexset_to_partition(pi_projection(perm, r), r, n)


def gr_cross_verdicts(w, r, n):
    """All available formulations of the criterion for one column set.

    Returns a dict of named booleans that must coincide: the report's
    ``ss_in_smooth`` (v against each singular component's column set),
    the diagram criterion (each singular component's partition against
    v's), the gap inequality and the quiver hole criterion, on the ideals
    of w and of the minimal semistable element v read from the orbit
    listing.  Raises when X_w has no semistable points at all.
    """
    result, _ = criteria.semistable_meets_singular_gr(w, r, n)
    if not result["semistable_nonempty"]:
        raise ValueError(f"X_{w} has no semistable points")
    v = result["minimal_v"]["value"]
    out = {
        "pair-comparison": result["ss_in_smooth"],
        "diagram": gr.semistable_in_smooth(w, r, n),
        "gap-inequality": all(
            w[i - 1] < v[i]
            for i in range(1, r)
            if w[i] > w[i - 1] + 1
        ),
    }
    model = minuscule_model("A", n - 1, r)
    out["quiver"] = model.semistable_in_smooth(
        model.ideals[model.poset.node_of_indexset(w)],
        model.ideals[model.poset.node_of_indexset(v)],
    )
    return out


def golden_sl7() -> dict:
    """The worked SL(7) chain: sixteen exact degree-one section counts
    along the family seeded at (5,1,2,3,6,7,4), plus its landmark
    one-line forms."""
    failures = []
    rows = [r for r in smt.family_walk("a", 7, 3) if r[3] != "copy"]
    if len(rows) != 16:
        failures.append(f"expected 16 chain rows, enumerated {len(rows)}")
    landmarks = {
        (0, None): (5, 1, 2, 3, 6, 7, 4),
        (1, 2): (5, 2, 1, 3, 6, 7, 4),
        (1, 6): (5, 2, 3, 6, 7, 4, 1),
        (3, 4): (5, 6, 7, 4, 3, 2, 1),
        (6, 1): (7, 6, 5, 4, 3, 2, 1),
    }
    checks = 0
    for k, j, predicted, _tag, elt in rows:
        if (k, j) in landmarks and landmarks[(k, j)] != elt:
            failures.append(f"element ({k},{j}) is {elt}, expected {landmarks[(k, j)]}")
        computed = _invariant_dimension(elt, 1)
        checks += 1
        if computed != predicted:
            failures.append(
                f"({k},{j}) {elt}: computed {computed}, predicted {predicted}"
            )
    return _result("golden-sl7", checks, failures)


def _family_plans(n):
    """Every admissible (case, i) of the three extension families in S_n."""
    return (
        [("a2", None)]
        + [("a", i) for i in range(1, n - 2)]
        + [("b", i) for i in range(1, n)]
    )


def family_tables() -> dict:
    """Degree-one section counts along all three families, every admissible
    (i, k, j), against the closed-form predictions."""
    failures = []
    checks = 0
    for n in (4, 5, 6, 7):
        for case, i in _family_plans(n):
            for k, j, predicted, _tag, elt in smt.family_walk(case, n, i):
                computed = _invariant_dimension(elt, 1)
                checks += 1
                if computed != predicted:
                    failures.append(
                        f"case {case} n={n} i={i} (k={k}, j={j}): "
                        f"computed {computed}, predicted {predicted}"
                    )
    return _result("family-tables", checks, failures)


# Every box Gr(r, n) with 3 <= n <= 7, the range of the Grassmannian sweeps.
_SWEEP_BOXES = [(r, n) for n in range(3, 8) for r in range(1, n)]


def cross_smooth() -> dict:
    """Diagram smoothness (rotated complement a rectangle) against the
    empty-growth test, and against the quiver test across Grassmannians."""
    failures = []
    checks = 0
    for rows_ in range(1, 5):
        for cols in range(1, 5):
            r, n = rows_, rows_ + cols
            # the partitions in the box: multisets of parts, largest first
            for lam in combinations_with_replacement(range(cols, -1, -1), rows_):
                checks += 1
                if gr.is_smooth(lam, r, n) != (not gr.singular_components(lam, r, n)):
                    failures.append(f"box {rows_}x{cols}, {lam}: smooth tests split")
    for r, n in _SWEEP_BOXES:
        model = minuscule_model("A", n - 1, r)
        for node, ideal in model.ideals.items():
            lam = _partition_of_word(model.words[node], r, n)
            checks += 1
            if (not model.holes(ideal).real) != gr.is_smooth(lam, r, n):
                failures.append(f"Gr({r},{n}) {lam}: quiver vs diagram smoothness")
    return _result("cross-smooth", checks, failures)


def cross_singular() -> dict:
    """Quiver singular components against diagram growth, elementwise,
    across every Schubert variety of every Gr(r, n) with n <= 7.  Each
    component is read through its quiver word, as ``quiver build`` prints
    it."""
    failures = []
    checks = 0
    for r, n in _SWEEP_BOXES:
        model = minuscule_model("A", n - 1, r)
        for node, ideal in model.ideals.items():
            lam = _partition_of_word(model.words[node], r, n)
            expected = set(gr.singular_components(lam, r, n))
            got = {
                _partition_of_word(model.word_of(c), r, n)
                for c in model.holes(ideal).components
            }
            checks += 1
            if expected != got:
                failures.append(
                    f"Gr({r},{n}) {lam}: quiver gives {sorted(got)}, diagram {sorted(expected)}"
                )
    return _result("cross-singular", checks, failures)


def quiver_words() -> dict:
    """Word independence: a commutation move induces a quiver isomorphism,
    for every element of every minuscule poset in scope."""
    failures = []
    checks = 0
    plans = [("A", n - 1, r) for n in range(4, 8) for r in range(1, n)]
    plans += [("D", n, w) for n in (4, 5, 6) for w in (1, n - 1, n)]
    plans += [("E6", 6, 1), ("E6", 6, 6), ("E7", 7, 7)]
    for family, rank, weight in plans:
        model = minuscule_model(family, rank, weight)
        system = model.system
        for word in model.words.values():
            moves = qv.commutation_moves(word, system)
            if not moves:
                continue
            targets = qv.word_targets(word, system)
            for p, other in moves:
                checks += 1
                if not qv.quivers_isomorphic_under_swap(
                    word, targets, other, qv.word_targets(other, system), p
                ):
                    failures.append(
                        f"{system} omega_{weight}, word {word}, swap at {p}"
                    )
    return _result("quiver-words", checks, failures)


def _bruhat_minima(elements):
    """The Bruhat-minimal members of a set of permutations: taken in order
    of length (u < w forces l(u) < l(w)), w is minimal when no minimal
    member found before it lies below it."""
    minima = []
    for w in sorted(elements, key=lambda w: sum(starmap(gt, combinations(w, 2)))):
        if not any(bruhat_leq(u, w) for u in minima):
            minima.append(w)
    return minima


def minimal_borel() -> dict:
    """Brute force over S_5: the Bruhat-minimal permutations carrying a
    degree-one invariant are exactly the closed-form family."""
    n = 5
    failures = []
    hits = [
        w for w in permutations(range(1, n + 1)) if _invariant_dimension(w, 1) > 0
    ]
    minimal = set(_bruhat_minima(hits))
    expected = set(smt.minimal_borel_semistable(n))
    if minimal != expected:
        failures.append(
            f"n={n}: brute force found {sorted(minimal)}, formula {sorted(expected)}"
        )
    return _result("minimal-borel", len(hits) + 1, failures, {"n": n})


def hilbert() -> dict:
    """Section counts grow like a free polynomial ring on the degree-one
    invariants, for every lift with at least one invariant.

    Failures on elements reachable by the extension families are hard;
    anything else would only be flagged, but none is expected."""
    failures = []
    flagged = []
    checks = 0
    for n in (4, 5, 6):
        family_elements = {
            row[4]
            for case, i in _family_plans(n)
            for row in smt.family_walk(case, n, i)
        }
        degrees = (2, 3) if n <= 5 else (2,)
        for w in smt.parabolic_lifts(n):
            if _invariant_dimension(w, 1) < 1:
                continue
            report = smt.projective_normality_check(w, degrees)
            checks += len(report["degrees"])
            if not report["all_match"]:
                message = f"n={n} lift {w}: {report['degrees']}"
                if w in family_elements:
                    failures.append(message)
                else:
                    flagged.append(message)
    return _result("hilbert", checks, failures, {"flagged": flagged})


def minimal_singular() -> dict:
    """The minimal semistable element is a singular point of its own
    Schubert variety in every non-excluded minuscule case in scope: its
    quiver has at least one real hole."""
    failures = []
    checks = 0
    plans = [("A", n - 1, r)
             for n in range(4, 9)
             for r in range(2, n - 1)
             if gcd(r, n) == 1]
    plans += [("D", n, 1) for n in (4, 5, 6)]
    plans += [("D", n, n - 1) for n in (4, 5, 6)]
    plans += [("E6", 6, 1), ("E7", 7, 7)]
    for family, rank, weight in plans:
        model = minuscule_model(family, rank, weight)
        holes = model.holes(model.grow(qv.minimal_v_word(family, rank, weight)))
        checks += 1
        if not holes.real:
            failures.append(f"{family}{rank} omega_{weight}: no real hole on v")
    return _result("minimal-singular", checks, failures)


def minima_sweep() -> dict:
    """All formulations of the separation criterion agree.

    Type A: for every w above the minimal semistable element, the diagram
    test, pair comparison, the gap inequality and the quiver hole
    criterion coincide; the minimal element itself is re-derived per
    (r, n) from the invariant-chain certificate of every column set.  The
    other minuscule families compare the hole criterion against the pair
    comparison directly.  Gr(4, 9) is added on top of the sweep because it
    is the smallest case where the criterion can actually fail."""
    failures = []
    checks = 0
    for r, n in _SWEEP_BOXES:
        v = gr.minimal_semistable(r, n)
        oracle = smt.minimal_semistable_oracle_gr(r, n)
        checks += 1
        if oracle != [v]:
            failures.append(
                f"Gr({r},{n}): closed form {v} but sweep found {oracle}"
            )
    for r, n in _SWEEP_BOXES + [(4, 9)]:
        v = gr.minimal_semistable(r, n)
        for w in combinations(range(1, n + 1), r):
            if not gr.indexset_leq(v, w):
                continue
            verdicts = gr_cross_verdicts(w, r, n)
            checks += 1
            if len(set(verdicts.values())) != 1:
                failures.append(f"Gr({r},{n}) w={w}: {verdicts}")
    checks += 1
    if gr_cross_verdicts((5, 7, 8, 9), 4, 9)["diagram"]:
        failures.append(
            "Gr(4,9) w=(5,7,8,9): expected the singular component above "
            "(2,2,0,0) to swallow the semistable locus"
        )
    for family, rank, weight in [
        ("D", 4, 1), ("D", 5, 1), ("D", 4, 3), ("D", 5, 4), ("E6", 6, 1),
    ]:
        model = minuscule_model(family, rank, weight)
        v = model.grow(qv.minimal_v_word(family, rank, weight))
        for node, ideal in model.ideals.items():
            if v & ~ideal:
                continue
            quiver_verdict = model.semistable_in_smooth(ideal, v)
            pair_verdict = not any(v & ~comp == 0 for comp in model.holes(ideal).components)
            checks += 1
            if quiver_verdict != pair_verdict:
                failures.append(
                    f"{family}{rank} omega_{weight} at {node}: "
                    f"quiver {quiver_verdict} vs pairs {pair_verdict}"
                )
    return _result("minima-sweep", checks, failures)


SUITES = {
    "golden-sl7": golden_sl7,
    "family-tables": family_tables,
    "cross-smooth": cross_smooth,
    "cross-singular": cross_singular,
    "quiver-words": quiver_words,
    "minimal-borel": minimal_borel,
    "hilbert": hilbert,
    "minimal-singular": minimal_singular,
    "minima-sweep": minima_sweep,
}


# The share of ``all`` a forked child runs (see the module docstring)
_CHILD_SHARE = (
    "golden-sl7", "family-tables", "quiver-words", "minimal-borel", "hilbert",
    "minimal-singular",
)
_PARENT_SHARE = tuple(name for name in SUITES if name not in _CHILD_SHARE)


def _run_in_process(names) -> list[dict]:
    """Run the named suites here, in order: the path of one suite alone,
    and of ``all`` wherever no child can take a share."""
    return [SUITES[name]() for name in names]


def _fork_child_share():
    """Start a child on ``_CHILD_SHARE`` and return (pid, read end of its
    pipe), or None where this process may use only one CPU, or none is
    known (no ``os.sched_getaffinity``, as on macOS and Windows), or the
    fork fails.

    The child sends its results as one ``marshal`` blob (they hold only
    str, int, bool, list and dict), writes nothing to stdout or stderr,
    and leaves through ``os._exit``, so no buffer, atexit hook or caller's
    frame of this process runs in it.  A child that raises sends nothing.
    """
    affinity = getattr(os, "sched_getaffinity", None)
    if affinity is None or len(affinity(0)) < 2:
        return None
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        return None
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            with open(write_fd, "wb") as pipe:
                pipe.write(marshal.dumps(_run_in_process(_CHILD_SHARE)))
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, read_fd


def _collect(pid, read_fd):
    """Read the child's pipe to EOF and reap it; its results, or None
    when it exited without a complete answer."""
    try:
        with open(read_fd, "rb") as pipe:
            data = pipe.read()
    finally:
        _, status = os.waitpid(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        return None
    return marshal.loads(data)


def run_suite(name: str) -> list[dict]:
    """Run one suite (or ``all``) and return the result dicts.

    ``all`` runs ``_CHILD_SHARE`` in a forked child while this process
    runs the rest, and merges the results in ``SUITES`` order.  Where no
    child runs, or it gives no complete answer, this process runs the
    child's share itself, so a suite that raises in the child raises here.
    """
    if name != "all":
        return _run_in_process([name])
    child = _fork_child_share()
    if child is None:
        return _run_in_process(SUITES)
    try:
        results = dict(zip(_PARENT_SHARE, _run_in_process(_PARENT_SHARE)))
    finally:
        theirs = _collect(*child)
    if theirs is None:
        theirs = _run_in_process(_CHILD_SHARE)
    results.update(zip(_CHILD_SHARE, theirs))
    return [results[name] for name in SUITES]
