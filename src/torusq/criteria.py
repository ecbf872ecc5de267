"""Where the semistable locus meets the singular locus.

The smooth-quotient question for Gr(r, n) is one comparison.  X(w) has
semistable points exactly when the minimal semistable column set v lies
below w, and its semistable locus leaves the smooth locus exactly when
some singular component of X(w) contains X(v), which one inequality per
gap of w decides.  If none does, the semistable locus stays inside the
smooth locus and, when gcd(r, n) = 1 (every semistable point is stable),
the quotient is smooth.

A query gets one report per column set
(:func:`semistable_meets_singular_gr`), the ``result`` that ``gr analyze``
prints, each quantity computed once.  The independent computations of the
same verdict that the verification suites compare live in
:mod:`torusq.verify`.
"""

from math import gcd

from . import grassmannian as gr


def semistable_meets_singular_gr(w, r, n):
    """The Grassmannian report for one column set w, with its warnings.

    ``singular_components`` are the partitions of the singular-locus
    components of X_w.  ``minimal_v`` holds the minimal semistable column
    set v, proven at :func:`torusq.grassmannian.minimal_semistable`, and
    the two-branch ``formula`` kept for comparison (``agrees``, with a
    warning when it does not); ``oracle`` is [v], what ``verify
    minima-sweep`` finds by sweeping every column set, when gcd(r, n) > 1.
    ``ss_in_smooth`` is None (with a warning) when v is not below w and
    X_w has no semistable points; otherwise it is True when no singular
    component contains X(v), i.e. w_k < v_{k+1} at every gap w_{k+1} >
    w_k + 1.  Proof: with lambda_k = n - r + k - w_k, a gap with w_k > k
    is exactly a corner (k, c) of lambda that grows a component
    (lambda_{k+1} < c < n - r).  It raises rows j..k+1 to c + 1 (j the
    first row of length c), so its column set is w_t - 1 at rows j..k,
    w_k at row k+1 and w elsewhere; as v <= w increases strictly, v lies
    below it iff v_{k+1} <= w_k.  A gap with w_k = k never fails, as
    v_{k+1} >= k + 1.
    """
    lam = gr.indexset_to_partition(w, r, n)
    components = gr.singular_components(lam, r, n)
    v = gr.minimal_semistable(r, n)
    formula_v = gr.minimal_semistable_formula(r, n)
    warnings = []
    if formula_v != v:
        warnings.append(
            f"two-branch closed form {formula_v} overshoots the minimal "
            f"semistable element {v}"
        )
    if gr.indexset_leq(v, w):
        separated = all(
            w[k - 1] < v[k] for k in range(1, r) if w[k] > w[k - 1] + 1
        )
    else:
        separated = None
        warnings.append("no semistable points below this element")
    result = {
        "partition": lam,
        "corners": gr.corners(lam, r, n),
        "singular_components": components,
        "smooth": not components,
        "minimal_v": {
            "value": v,
            "formula": formula_v,
            "oracle": [v] if gcd(r, n) > 1 else None,
            "agrees": formula_v == v,
        },
        "semistable_nonempty": separated is not None,
        "ss_in_smooth": separated,
        # the criterion proves a smooth quotient only when gcd(r, n) = 1,
        # when every semistable point is stable
        "quotient_smooth": gcd(r, n) == 1 and separated is True,
    }
    return result, warnings
