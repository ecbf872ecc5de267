"""Where the semistable locus meets the singular locus.

The smooth-quotient question for Gr(r, n) is one comparison.  X(w) has
semistable points exactly when the minimal semistable column set v lies
below w, and its semistable locus leaves the smooth locus exactly when
some singular component of X(w) contains X(v), i.e. when v lies below the
column set of a component.  If none does, the semistable locus stays
inside the smooth locus and, when gcd(r, n) = 1 (every semistable point
is stable), the quotient is smooth.

A query gets one report per column set
(:func:`semistable_meets_singular_gr`), the ``result`` that ``gr analyze``
prints, each quantity computed once.  The independent computations of the
same verdict that the verification suites compare live in
:mod:`torusq.verify`.
"""

from math import gcd

from . import grassmannian as gr
from . import smt


def e_ss_gr(r, n):
    """The minimal semistable column set v of Gr(r, n), with its warnings.

    Returns the ``minimal_v`` block and a list of warnings.  ``value`` is
    the ceiling form v (the true minimum), ``formula`` the two-branch
    variant kept for comparison; a warning records any disagreement.
    When gcd(r, n) > 1, ``oracle`` is [v] if the chain certificates at v
    and its lower covers show that a sweep of every column set finds [v]
    (r + 1 fits, see :func:`torusq.smt.is_certified_minimum_gr`), else
    empty with a warning; None otherwise.  ``agrees`` is True when the
    formula and the oracle both name v.
    """
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
        "value": v,
        "formula": formula_v,
        "oracle": oracle,
        "agrees": formula_v == v and oracle in (None, [v]),
    }, warnings


def semistable_meets_singular_gr(w, r, n):
    """The Grassmannian report for one column set w, with its warnings.

    ``singular_components`` are the partitions of the singular-locus
    components of X_w and ``minimal_v`` is :func:`e_ss_gr`'s block.
    ``ss_in_smooth`` is True when v lies below no component's column set,
    i.e. semistable points avoid the singular locus, and None (with a
    warning) when v is not below w and X_w has no semistable points.
    """
    w = gr.check_indexset(w, r, n)
    lam = gr.indexset_to_partition(w, r, n)
    components = gr.singular_components(lam, r, n)
    minimal_v, warnings = e_ss_gr(r, n)
    v = minimal_v["value"]
    if gr.indexset_leq(v, w):
        separated = not any(
            gr.indexset_leq(v, gr.partition_to_indexset(mu, r, n))
            for mu in components
        )
    else:
        separated = None
        warnings.append("no semistable points below this element")
    result = {
        "partition": lam,
        "corners": gr.corners(lam, r, n),
        "singular_components": components,
        "smooth": not components,
        "minimal_v": minimal_v,
        "semistable_nonempty": separated is not None,
        "ss_in_smooth": separated,
        # oracle is None exactly when gcd(r, n) = 1, when every semistable
        # point is stable
        "quotient_smooth": minimal_v["oracle"] is None and separated is True,
    }
    return result, warnings
