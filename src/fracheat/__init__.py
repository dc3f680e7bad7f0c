"""fracheat: numerical laboratory for the time-fractional heat propagator.

Implements the propagator E_alpha(-t^alpha L) under its two
representations — direct Mittag-Leffler evaluation and Wright-function
subordination over the classical heat semigroup — and quantifies the
endpoint behavior of L^p -> L^q time-decay constants under each.
"""

from .errors import (
    EvaluationError,
    FracHeatError,
    InsufficientDataError,
    QuadratureError,
    UnreliableEvaluationError,
)
from .special_functions import (
    Alpha,
    mittag_leffler_contour,
    mittag_leffler_neg,
    reciprocal_gamma,
    wright_m,
)
from .subordination import (
    endpoint_divergence_profile,
    subordinate_scalar,
    subordination_constant,
    wright_moment,
    wright_moments,
)

__version__ = "0.1.0"

__all__ = [
    "Alpha",
    "reciprocal_gamma",
    "mittag_leffler_neg",
    "mittag_leffler_contour",
    "wright_m",
    "subordinate_scalar",
    "wright_moment",
    "wright_moments",
    "subordination_constant",
    "endpoint_divergence_profile",
    "FracHeatError",
    "EvaluationError",
    "UnreliableEvaluationError",
    "QuadratureError",
    "InsufficientDataError",
    "__version__",
]
