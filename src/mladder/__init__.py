"""Generalized Moebius ladders: M-polynomials, degree-based indices, and
cross-validation of published closed forms against direct graph enumeration.
"""

from .closed_forms import (
    OutOfStatedRange,
    prop41_indices,
    prop42_indices,
    thm31_mpoly,
    thm32_mpoly,
)
from .graph import Graph
from .indices import (
    IndexSet,
    alpha_label,
    indices_from_edges,
    indices_from_mpoly,
    normalize_alpha,
)
from .ladder import InvalidParams, build_ladder
from .mpoly import MPoly, ZeroExponentWeight
from .verify import (
    CaseResult,
    VerificationReport,
    values_equal,
    verify_all,
)

__version__ = "0.1.0"

__all__ = [
    "CaseResult",
    "Graph",
    "IndexSet",
    "InvalidParams",
    "MPoly",
    "OutOfStatedRange",
    "VerificationReport",
    "ZeroExponentWeight",
    "alpha_label",
    "build_ladder",
    "indices_from_edges",
    "indices_from_mpoly",
    "normalize_alpha",
    "prop41_indices",
    "prop42_indices",
    "thm31_mpoly",
    "thm32_mpoly",
    "values_equal",
    "verify_all",
    "__version__",
]
