"""Supremum computations and the endpoint-loss comparison.

The decay rate of the fractional evolution in L^p -> L^q comes from
suprema of the form sup_s tau(s)^delta K(t,s) with tau(s) ~ s^lambda.
Writing beta = lambda * delta, everything reduces to one-dimensional
suprema sup_s s^beta K(t, s) for the three kernels: the heat kernel
exp(-t s), the fractional multiplier E_alpha(-t^alpha s), and its
algebraic bound 1/(1 + t^alpha s).

The headline comparison: the direct-route constant stays bounded as
beta -> 1 (endpoint admitted), while the subordination-route constant
Gamma(1-beta)/Gamma(1-alpha*beta) blows up (endpoint lost).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InsufficientDataError
from .special_functions import Alpha, _fit_line, _ml_neg
from .subordination import wright_moments

__all__ = [
    "sup_heat_closed_form",
    "sup_bound_kernel_closed_form",
    "sup_heat_numeric",
    "sup_ml_numeric",
    "ml_supremum_profile",
    "FitResult",
    "fit_decay_exponent",
    "RepresentationRecord",
    "ComparisonReport",
    "compare_representations",
]


def _exponent_gap(p: float, q: float) -> float:
    """delta = 1/p - 1/q for an L^p -> L^q estimate, 1 < p <= 2 <= q < inf
    and p, q not both 2."""
    p, q = float(p), float(q)
    if not (1.0 < p <= 2.0 <= q < math.inf and p < q):
        raise ValueError(f"require 1 < p <= 2 <= q < inf and p < q, got p={p}, q={q}")
    return 1.0 / p - 1.0 / q


def _direct_or_logs(direct, log_value) -> float:
    """direct(), a closed form, unless it overflows (to inf, or raising);
    then exp(log_value()), inf past the double range."""
    try:
        value = direct()
    except OverflowError:
        value = math.inf
    try:
        return value if value < math.inf else math.exp(log_value())
    except OverflowError:  # past the double range
        return math.inf


def sup_heat_closed_form(beta: float, t: float) -> float:
    """sup over s > 0 of s^beta exp(-t s) = (beta/t)^beta exp(-beta), in
    logs where that overflows or beta/t leaves the double range."""
    beta, t = float(beta), float(t)
    if not (0.0 < beta < math.inf and 0.0 < t < math.inf):
        raise ValueError("beta must be positive and finite and t positive and finite")
    r = beta / t
    log_r = math.log(r) if 0.0 < r < math.inf else math.log(beta) - math.log(t)
    return _direct_or_logs(lambda: r ** beta * math.exp(-beta) if r > 0.0 else math.inf,
                           lambda: beta * log_r - beta)


def sup_bound_kernel_closed_form(alpha: Alpha | float, beta: float, t: float) -> float:
    """sup over s > 0 of s^beta / (1 + t^alpha s).

    Stationary point s* = beta / (t^alpha (1 - beta)) for beta < 1, giving
    (1-beta) (beta/(1-beta))^beta t^{-alpha beta}; for beta = 1 the
    supremum is the s -> inf limit t^{-alpha}.
    """
    a = Alpha.coerce(alpha)
    beta, t = float(beta), float(t)
    if not (0.0 < beta <= 1.0 and 0.0 < t < math.inf):
        raise ValueError("require 0 < beta <= 1 and finite t > 0")
    if beta == 1.0:
        return _direct_or_logs(lambda: t ** (-a), lambda: -a * math.log(t))
    c = (1.0 - beta) * (beta / (1.0 - beta)) ** beta
    return _direct_or_logs(lambda: c * t ** (-a * beta),
                           lambda: math.log(c) - a * beta * math.log(t))


# the search grid: 400 log-spaced points in [1e-8, 1e8]
_GRID_LOG_S = np.linspace(math.log(1e-8), math.log(1e8), 400)
_GRID_S = np.exp(_GRID_LOG_S)
# each 33-point refinement grid spans the two steps around the last argmax,
# so a level narrows the step 16-fold: from 0.09 to 5e-15 in log s
_REFINE_LEVELS = 11


def _log_grid_sup(f, on_grid: np.ndarray | None = None) -> list[float]:
    """sup over s > 0 of each of m objectives, where f maps a 1-D array
    holding m rows of points s end to end, row r for objective r, to their
    values: the maximum of each objective on the 400 points of `_GRID_S`
    (`on_grid`, if given, holds f on m copies of them; else m = 1), refined
    by nested 33-point grids on log s around its argmax. Each level
    evaluates every row in one call of f.

    It returns the m suprema or raises ValueError: when a row's maximum on
    the grid is its first point (the maximizer lies at or below s = 1e-8,
    or f is 0 on the grid), and when its argmax is among the last 3 points
    while the positive values of the last 20 never fall (log-differences
    > -1e-12) and rise in total by more than 1e-4 in log (the maximizer
    lies past s = 1e8). A flat approach to a finite limit, such as the
    endpoint exponent of a 1/s kernel, does not trip it. The callers decide
    divergent suprema analytically, before any search.
    """
    vals = (f(_GRID_S) if on_grid is None else on_grid).reshape(-1, _GRID_S.size)
    rows = np.arange(vals.shape[0])
    i = vals.argmax(axis=1)
    for v, j in zip(vals, i):
        tail = v[-20:]
        tail = tail[tail > 0.0]
        if j == 0 or (j >= v.size - 3 and tail.size >= 2
                      and np.all(np.diff(np.log(tail)) > -1e-12)
                      and math.log(tail[-1] / tail[0]) > 1e-4):
            raise ValueError("the maximizer of the supremum lies outside the search grid "
                             "s in [1e-8, 1e8]")
    lls, best = np.broadcast_to(_GRID_LOG_S, vals.shape), vals[rows, i]
    for _ in range(_REFINE_LEVELS):
        lls = np.linspace(lls[rows, np.maximum(i - 1, 0)],
                          lls[rows, np.minimum(i + 1, lls.shape[1] - 1)], 33, axis=1)
        vals = f(np.exp(lls.ravel())).reshape(lls.shape)
        i = vals.argmax(axis=1)
        best = np.maximum(best, vals[rows, i])
    return best.tolist()


def _power_times(s: np.ndarray, beta: float, kernel: np.ndarray, log_kernel) -> np.ndarray:
    """s^beta kernel; exp(beta log s + log_kernel) where that is not finite (s^beta overflows)."""
    with np.errstate(over="ignore", invalid="ignore"):
        v = s ** beta * kernel
        return np.where(np.isfinite(v), v, np.exp(beta * np.log(s) + log_kernel))


def sup_heat_numeric(beta: float, t: float) -> float:
    """Grid-searched sup_s s^beta exp(-t s); cross-check for the closed form."""
    beta, t = float(beta), float(t)
    if not (0.0 < beta < math.inf and 0.0 < t < math.inf):
        raise ValueError("beta must be positive and finite and t positive and finite")
    (sup,) = _log_grid_sup(lambda s: _power_times(s, beta, np.exp(-t * s), -t * s))
    return sup


def _ml_profile_sup(alpha: Alpha, betas: Sequence[float]) -> list[float]:
    """sup over u > 0 of u^beta E_alpha(-u) for each beta of `betas` (each
    finite: beta <= 1, or alpha = 1). One evaluation of E_alpha on the
    search grid serves every beta, and each refinement level evaluates it
    once for all of them; nothing is kept past the call. Each power is
    taken with its scalar beta, so each supremum is bit for bit its own
    one-beta search."""
    def weighted(u, ml):  # row r of u to the power betas[r], times E_alpha(-u)
        rows, ks = u.reshape(len(betas), -1), ml.reshape(len(betas), -1)
        # u^beta overflows only at alpha = 1 (beta > 1): -u is log E_1(-u)
        return np.concatenate([_power_times(v, b, k, -v) for v, b, k in zip(rows, betas, ks)])

    on_grid = np.tile(_ml_neg(alpha, _GRID_S), len(betas))  # alpha validated
    return _log_grid_sup(lambda u: weighted(u, _ml_neg(alpha, u)),
                         weighted(np.tile(_GRID_S, len(betas)), on_grid))


def ml_supremum_profile(alpha: Alpha | float, beta: float, exact_kernel: bool = True) -> float:
    """The t-free factor U(beta) = sup_u u^beta K(u): `sup_ml_numeric` at
    t = 1, bit for bit.

    Substituting u = t^alpha s shows sup_s s^beta K(t^alpha s) =
    t^{-alpha beta} U(beta), so U(beta) is exactly the compensated
    (time-independent) decay constant of the direct route.
    """
    return sup_ml_numeric(alpha, beta, 1.0, exact_kernel)


def sup_ml_numeric(alpha: Alpha | float, beta: float, t: float,
                   exact_kernel: bool = True) -> float:
    """sup over s > 0 of s^beta * kernel(t^alpha s), as t^{-alpha beta}
    times the grid search of sup_u u^beta kernel(u).

    kernel is E_alpha(-.) when exact_kernel, else the algebraic bound
    1/(1 + .). Both decay like 1/u for alpha < 1 (E_alpha(-u) ~
    1/(u Gamma(1-alpha))), so beta > 1 is inf analytically, without a
    search: the growth u^(beta-1) can stay below an interior peak up to
    u = 1e8. E_1(-u) = exp(-u) keeps every supremum finite. A search whose
    maximizer lies outside the grid raises ValueError (see `_log_grid_sup`).
    """
    a = Alpha.coerce(alpha)
    beta, t = float(beta), float(t)
    if not (0.0 < beta < math.inf and 0.0 < t < math.inf):
        raise ValueError("beta must be positive and finite and t positive and finite")
    if beta > 1.0 and (a < 1.0 or not exact_kernel):
        return math.inf
    if exact_kernel:
        (u_sup,) = _ml_profile_sup(a, (beta,))
    else:
        (u_sup,) = _log_grid_sup(lambda u: u ** beta / (1.0 + u))
    return _direct_or_logs(lambda: t ** (-a * beta) * u_sup,
                           lambda: math.log(u_sup) - a * beta * math.log(t))


@dataclass(frozen=True)
class FitResult:
    slope: float
    intercept: float
    max_abs_residual: float
    n_points: int


def fit_decay_exponent(t_values: Sequence[float], y_values: Sequence[float]) -> FitResult:
    """Least-squares line through (log t, log y), in closed form.

    Needs at least 5 points spanning two decades in t, with t and y
    finite and strictly positive.
    """
    t = np.asarray(t_values, dtype=float)
    y = np.asarray(y_values, dtype=float)
    if t.shape != y.shape or t.ndim != 1:
        raise ValueError("t_values and y_values must be 1-d arrays of equal length")
    if t.size < 5:
        raise InsufficientDataError(f"need at least 5 points, got {t.size}")
    if not np.all((t > 0.0) & (t < math.inf)):
        raise ValueError("t values must be positive and finite")
    if t.max() / t.min() < 100.0:
        raise InsufficientDataError("t values must span at least 2 decades")
    if not np.all((y > 0.0) & (y < math.inf)):
        raise ValueError("y values must be positive and finite for a log-log fit")
    lt, ly = np.log(t), np.log(y)
    slope, intercept = _fit_line(lt, ly)
    resid = ly - (slope * lt + intercept)
    return FitResult(slope=slope, intercept=intercept,
                     max_abs_residual=float(np.abs(resid).max()), n_points=int(t.size))


@dataclass(frozen=True)
class RepresentationRecord:
    alpha: float
    lambda_exp: float
    delta: float
    eps: float
    representation: str
    constant: float
    slope: float
    method: str


@dataclass(frozen=True)
class ComparisonReport:
    records: tuple[RepresentationRecord, ...]
    direct_uniform_bound: float
    verdict: str


def compare_representations(
    alpha: Alpha | float,
    lambda_exp: float,
    eps_list: Sequence[float],
) -> ComparisonReport:
    """Probe the endpoint delta = 1/lambda through delta_k = 1/lambda - eps_k.

    For each probe, records the direct-route compensated constant
    sup_u u^{lambda delta_k} E_alpha(-u) (time-independent by scaling) and
    the subordination-route constant Gamma(1 - lambda delta_k) /
    Gamma(1 - alpha lambda delta_k) computed by quadrature. eps = 0 is the
    endpoint itself: finite for the direct route, divergent (inf) for
    subordination.
    """
    a = Alpha.coerce(alpha)
    lambda_exp = float(lambda_exp)
    if lambda_exp <= 0.0:
        raise ValueError("lambda_exp must be positive")
    eps = sorted({float(e) for e in eps_list} | {0.0}, reverse=True)
    if not all(0.0 <= e < 1.0 / lambda_exp for e in eps):
        raise ValueError(f"each eps must lie in [0, 1/lambda) = [0, {1.0 / lambda_exp}), got {eps}")
    deltas = [1.0 / lambda_exp - e for e in eps]
    betas = [lambda_exp * d for d in deltas]  # = 1 - lambda*eps, the endpoint at eps=0
    directs = _ml_profile_sup(a, betas)  # every beta <= 1: one E_alpha grid
    # the finite constants come after the suprema: taken before them, they
    # raise a cold decay-compare's peak RSS by 0.7 MB (alpha 0.5, lambda 3).
    # With eps = 0 alone there are none, and no call: wright_moments refuses
    # alpha > 0.995, which the supremum takes
    gammas = [-b for b in betas if b < 1.0]
    finite = iter(wright_moments(a, gammas) if gammas else [])
    records: list[RepresentationRecord] = []
    for e, delta_k, beta, direct in zip(eps, deltas, betas, directs):
        records.append(RepresentationRecord(
            alpha=a, lambda_exp=lambda_exp, delta=delta_k, eps=e, representation="direct_ml",
            constant=direct, slope=-a * beta, method="grid-supremum"))
        if beta < 1.0:
            sub = next(finite)
            method = "quadrature"
        else:
            sub = math.inf
            method = "divergent-at-endpoint"
        records.append(RepresentationRecord(
            alpha=a, lambda_exp=lambda_exp, delta=delta_k, eps=e, representation="subordination",
            constant=sub, slope=-a * beta, method=method))
    verdict = (
        "direct route admits the endpoint delta = 1/lambda with a finite "
        "constant; subordination route requires the strict inequality "
        "delta < 1/lambda (constant diverges at the endpoint)"
    )
    # (1+x) E_alpha(-x) <= (1+x)/(1 + x/Gamma(1+alpha)) <= 1 (Simon 2014, EJP 19)
    return ComparisonReport(records=tuple(records), direct_uniform_bound=1.0, verdict=verdict)
