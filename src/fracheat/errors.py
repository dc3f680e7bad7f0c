"""Exception hierarchy shared across the package."""


class FracHeatError(Exception):
    """Base class for all package-specific errors."""


class EvaluationError(FracHeatError):
    """A special-function evaluation could not be completed."""


class UnreliableEvaluationError(EvaluationError):
    """A rule refused a node: it needs more than its node budget, or its sum
    missed its certificate. Nothing is retried at higher precision; raised
    instead of returning a silently wrong number.
    """


class QuadratureError(FracHeatError):
    """An improper integral failed to meet its target tolerance."""


class InsufficientDataError(FracHeatError):
    """A fit was requested on too few usable data points."""
