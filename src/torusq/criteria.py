"""Where the semistable locus meets the singular locus.

The smooth-quotient question reduces to a finite comparison: collect the
maximal torus-fixed indices that are singular on X(w) (the tops of the
singular components) and the minimal ones below w whose variety carries
semistable points, then ask whether any singular top dominates a
semistable bottom.  If none does, the semistable locus stays inside the
smooth locus and, when the torus acts with trivial generic stabilizer,
the quotient is smooth.

A query gets one report per column set
(:func:`semistable_meets_singular_gr`), each quantity computed once.  The
independent computations of the same verdict that the verification
suites compare live in :mod:`torusq.verify`.
"""

from math import gcd

from . import grassmannian as gr
from . import smt


def e_ss_gr(w, r, n):
    """Minimal semistable indices below w, with both closed forms attached.

    ``minimal`` is the ceiling form v (the true minimum), ``formula`` the
    two-branch variant kept for comparison; a warning records any
    disagreement.  ``elements`` is [v] if v <= w, else empty.  When
    gcd(r, n) > 1, ``oracle`` is [v] if the chain certificates at v and
    its lower covers show that a sweep of every column set finds [v]
    (r + 1 fits, see :func:`torusq.smt.is_certified_minimum_gr`), else
    empty with a warning; None otherwise.
    """
    w = gr.check_indexset(w, r, n)
    v = gr.minimal_semistable(r, n)
    formula_v = gr.minimal_semistable_formula(r, n)
    warnings = []
    if formula_v != v:
        warnings.append(
            f"two-branch closed form {formula_v} overshoots the minimal "
            f"semistable element {v}"
        )
    oracle = None
    if gcd(r, n) > 1:
        oracle = [v] if smt.is_certified_minimum_gr(v, r, n) else []
        if not oracle:
            warnings.append(f"no chain certificate confirms the minimum {v}")
    return {
        "elements": [v] if gr.indexset_leq(v, w) else [],
        "minimal": v,
        "formula": formula_v,
        "oracle": oracle,
        "warnings": warnings,
    }


def semistable_meets_singular_gr(w, r, n):
    """The Grassmannian report for one column set w.

    ``singular_components`` are the partitions of the singular-locus
    components of X_w and ``e_sing`` their column sets, the maximal
    singular fixed indices; ``e_ss`` are the minimal semistable indices
    below w, reported with ``minimal``, ``formula`` and ``oracle`` as in
    :func:`e_ss_gr`.  ``separated`` is True when no singular top dominates
    a semistable bottom, i.e. semistable points avoid the singular locus.
    """
    w = gr.check_indexset(w, r, n)
    components = gr.singular_components(gr.indexset_to_partition(w, r, n), r, n)
    sing = [gr.partition_to_indexset(mu, r, n) for mu in components]
    ss = e_ss_gr(w, r, n)
    bad_pairs = [
        (a, b)
        for a in sing
        for b in ss["elements"]
        if gr.indexset_leq(b, a)
    ]
    return {
        "singular_components": components,
        "e_sing": sing,
        "e_ss": ss["elements"],
        "minimal": ss["minimal"],
        "formula": ss["formula"],
        "oracle": ss["oracle"],
        "pairs": bad_pairs,
        "separated": not bad_pairs,
        "semistable_nonempty": bool(ss["elements"]),
        "warnings": ss["warnings"],
    }
