"""Concrete surrogates for a positive operator with power-law trace growth.

A model is either a discrete spectrum (eigenvalues with multiplicities,
e.g. a torus Laplacian) or an idealized power-law counting function
c * s^lambda. Everything downstream consumes only the counting function
tau(s) = #{spectrum below s} and a scalar kernel, so these surrogates
stand in for the geometric operators in the catalog.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .decay_analysis import _exponent_gap, _log_grid_sup
from .errors import InsufficientDataError
from .special_functions import Alpha, _fit_line, _ml_neg

__all__ = [
    "DiscreteSpectrum",
    "PowerLawSpectrum",
    "SpectralModel",
    "TraceCatalogEntry",
    "DEFAULT_CATALOG",
    "torus_laplacian_1d",
    "torus_laplacian_2d",
    "trace_counting",
    "TraceGrowthReport",
    "verify_trace_growth",
    "condition_supremum",
]


@dataclass(frozen=True)
class DiscreteSpectrum:
    """Strictly positive eigenvalues, ascending, with multiplicities."""

    eigenvalues: tuple[float, ...]
    multiplicities: tuple[int, ...]

    def __post_init__(self) -> None:
        ev = tuple(float(e) for e in self.eigenvalues)
        mult = tuple(int(m) for m in self.multiplicities)
        if len(ev) != len(mult):
            raise ValueError("eigenvalues and multiplicities must have equal length")
        if not ev:
            raise ValueError("spectrum must be nonempty")
        if not all(0.0 < e < math.inf for e in ev):
            raise ValueError("eigenvalues must be strictly positive and finite")
        if any(a >= b for a, b in zip(ev[:-1], ev[1:])):
            raise ValueError("eigenvalues must be sorted strictly ascending")
        if any(m < 1 for m in mult):
            raise ValueError("multiplicities must be positive integers")
        object.__setattr__(self, "eigenvalues", ev)
        object.__setattr__(self, "multiplicities", mult)


@dataclass(frozen=True)
class PowerLawSpectrum:
    """Idealized counting function tau(s) = c * s^lambda_exp."""

    c: float
    lambda_exp: float

    def __post_init__(self) -> None:
        if not (0.0 < self.c < math.inf and 0.0 < self.lambda_exp < math.inf):
            raise ValueError("c and lambda_exp must be positive and finite")


@dataclass(frozen=True)
class SpectralModel:
    variant: DiscreteSpectrum | PowerLawSpectrum
    label: str = ""


@dataclass(frozen=True)
class TraceCatalogEntry:
    """A named operator family with its trace-growth exponent."""

    name: str
    lambda_exp: float
    provenance: str

    def __post_init__(self) -> None:
        if not 0.0 < self.lambda_exp < math.inf:
            raise ValueError("lambda_exp must be positive and finite")

    def model(self, c: float = 1.0) -> SpectralModel:
        return SpectralModel(PowerLawSpectrum(c=c, lambda_exp=self.lambda_exp),
                             label=self.name)


DEFAULT_CATALOG: tuple[TraceCatalogEntry, ...] = (
    *(TraceCatalogEntry(f"euclidean-laplacian-{n}d", n / 2,
                        "Laplacian on R^n: Weyl counting ~ s^{n/2}") for n in (1, 2, 3)),
    TraceCatalogEntry("compact-lie-sublaplacian-Q4", 2.0, "sub-Laplacian on a compact Lie "
                      "group of homogeneous dimension Q=4: lambda=Q/2"),
    TraceCatalogEntry("heisenberg-sublaplacian-n1", 2.0,
                      "positive sub-Laplacian on the Heisenberg group H_n, n=1: lambda=n+1"),
    TraceCatalogEntry("rockland-Q4-nu2", 2.0, "positive Rockland operator of order nu=2 on a "
                      "graded group of homogeneous dimension Q=4: lambda=Q/nu"),
)


def torus_laplacian_1d(k_max: int = 200) -> SpectralModel:
    """Laplacian on the circle of circumference 2 pi: eigenvalues k^2 with
    multiplicity 2 (sin and cos modes)."""
    ev = tuple(float(k * k) for k in range(1, k_max + 1))
    return SpectralModel(DiscreteSpectrum(ev, (2,) * k_max), label="torus-laplacian-1d")


def torus_laplacian_2d(k_max: int = 60) -> SpectralModel:
    """Laplacian on the square 2-torus: eigenvalues j^2 + k^2 with lattice
    multiplicities, truncated at frequency k_max per axis."""
    k2 = np.arange(-k_max, k_max + 1) ** 2
    ev, counts = np.unique(k2[:, None] + k2[None, :], return_counts=True)
    return SpectralModel(  # ev[0] = 0 is the zero mode
        DiscreteSpectrum(tuple(ev[1:]), tuple(counts[1:])),
        label="torus-laplacian-2d",
    )


def trace_counting(model: SpectralModel, s):
    """tau(s): generalized count of spectrum strictly below s (float or array)."""
    s = np.asarray(s, dtype=float)
    if not np.all(s > 0.0):
        raise ValueError(f"s must be positive, got {s}")
    v = model.variant
    if isinstance(v, PowerLawSpectrum):
        return (v.c * s ** v.lambda_exp)[()]
    # the eigenvalues ascend strictly: those below s are a prefix
    return np.cumsum((0.0, *v.multiplicities))[np.searchsorted(v.eigenvalues, s)][()]


@dataclass(frozen=True)
class TraceGrowthReport:
    label: str
    lambda_claim: float
    fitted_slope: float
    relative_deviation: float
    n_points: int
    s_lo: float
    s_hi: float

    @property
    def within_10_percent(self) -> bool:
        return self.relative_deviation <= 0.10


def verify_trace_growth(
    model: SpectralModel,
    lambda_claim: float,
    s_range: tuple[float, float],
) -> TraceGrowthReport:
    """Closed-form least-squares slope of log tau(s) vs log s, at 60 log-spaced s,
    against the claimed exponent, which must be positive and finite.
    Requires the range to span at least three decades."""
    if not 0.0 < lambda_claim < math.inf:
        raise ValueError(f"lambda_claim must be positive and finite, got {lambda_claim}")
    s_lo, s_hi = float(s_range[0]), float(s_range[1])
    if not (0.0 < s_lo < s_hi):
        raise ValueError("s_range must be an increasing pair of positive reals")
    if s_hi / s_lo < 1e3:
        raise ValueError("s_range must span at least 3 decades")
    ss = np.logspace(math.log10(s_lo), math.log10(s_hi), 60)
    tau = trace_counting(model, ss)
    keep = tau > 0.0
    if keep.sum() < 5:
        raise InsufficientDataError(
            f"only {int(keep.sum())} nonzero counting values in [{s_lo}, {s_hi}]"
        )
    slope, _ = _fit_line(np.log(ss[keep]), np.log(tau[keep]))
    rel = abs(slope - lambda_claim) / abs(lambda_claim)
    return TraceGrowthReport(
        label=model.label, lambda_claim=float(lambda_claim), fitted_slope=slope,
        relative_deviation=rel, n_points=int(keep.sum()), s_lo=s_lo, s_hi=s_hi,
    )


def condition_supremum(
    model: SpectralModel,
    p: float,
    q: float,
    alpha: Alpha | float,
    t: float,
    representation: str = "direct_ml",
) -> float:
    """sup over s of tau(s)^(1/p - 1/q) * K(t, s), where K is the
    fractional multiplier E_alpha(-t^alpha s) ("direct_ml") or the heat
    kernel exp(-t s) ("heat"), by the grid search of
    decay_analysis._log_grid_sup.

    A power law with lambda (1/p - 1/q) > 1 on the direct route with
    alpha < 1, whose multiplier decays like 1/s, diverges analytically:
    that is reported as math.inf with a warning, without a search. A
    search whose maximizer lies outside s in [1e-8, 1e8] raises
    ValueError.
    """
    if representation not in ("direct_ml", "heat"):
        raise ValueError(f"unknown representation {representation!r}")
    delta = _exponent_gap(p, q)
    t = float(t)
    if not 0.0 < t < math.inf:
        raise ValueError("t must be positive and finite")
    a = Alpha.coerce(alpha)

    ta = t ** a

    def objective(s: np.ndarray) -> np.ndarray:
        if representation == "heat":
            kernel = np.exp(-t * s)
        else:
            with np.errstate(over="ignore"):
                x = ta * s
            if not np.all(x < math.inf):  # t near the double range
                raise ValueError(f"x must be finite and nonnegative, got {x.max()}")
            kernel = _ml_neg(a, x)  # alpha validated once, above
        tau = trace_counting(model, s)
        return np.where(tau > 0.0, tau ** delta * kernel, 0.0)

    v = model.variant
    if (representation == "direct_ml" and a < 1.0
            and isinstance(v, PowerLawSpectrum) and v.lambda_exp * delta > 1.0):
        # tau^delta K ~ s^(lambda delta - 1) / Gamma(1 - alpha)
        warnings.warn("condition supremum diverges; reporting inf (endpoint case "
                      "lambda * (1/p - 1/q) > 1)", RuntimeWarning)
        return math.inf
    (sup,) = _log_grid_sup(objective)
    return sup
