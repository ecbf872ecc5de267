"""Torus quotients of minuscule Schubert varieties.

Combinatorial models (Young diagrams, minuscule posets, marked quivers)
for deciding when the GIT quotient of a Schubert variety by the maximal
torus is smooth or projectively normal, together with standard-monomial
section counts and the built-in cross-verification suites.
"""

__version__ = "0.1.0"

from .grassmannian import (
    indexset_to_partition,
    is_smooth,
    minimal_semistable,
    partition_to_indexset,
    semistable_in_smooth,
    singular_components,
)
from .quiver import Quiver, classify_holes, minimal_v_word, quiver_from_word, quiver_to_dot
from .smt import (
    invariant_dimension,
    invariant_witnesses,
    is_standard_on,
    minimal_borel_semistable,
    projective_normality_check,
)
from .weyl import MinusculePoset, bruhat_leq, word_to_perm

__all__ = [
    "MinusculePoset",
    "Quiver",
    "__version__",
    "bruhat_leq",
    "classify_holes",
    "indexset_to_partition",
    "invariant_dimension",
    "invariant_witnesses",
    "is_smooth",
    "is_standard_on",
    "minimal_borel_semistable",
    "minimal_semistable",
    "minimal_v_word",
    "partition_to_indexset",
    "projective_normality_check",
    "quiver_from_word",
    "quiver_to_dot",
    "semistable_in_smooth",
    "singular_components",
    "word_to_perm",
]
