"""Scalar special functions for the fractional heat propagator.

Provides gamma helpers, the Mittag-Leffler function E_alpha(-x) on the
negative real axis (series, tail-truncated asymptotic expansion, and a
batched Hankel node rule checked against them), and the Wright-type
density M_alpha(s) that subordinates the fractional propagator to the
classical heat semigroup.

All evaluations are pure functions of their arguments; there is no global
mutable state beyond internal memoization of immutable results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import mpmath as mp
import numpy as np
from scipy.special import gammaln, gammasgn, psi

from .errors import ConvergenceError, UnreliableEvaluationError

__all__ = [
    "Alpha",
    "EvalPolicy",
    "DEFAULT_POLICY",
    "GAMMA_OVERFLOW_THRESHOLD",
    "gamma_fn",
    "reciprocal_gamma",
    "mittag_leffler_neg",
    "mittag_leffler_neg_info",
    "mittag_leffler_contour",
    "wright_m",
    "wright_m_info",
    "wright_log_envelope",
    "uniform_bound_constant",
]

# math.gamma overflows past this argument
GAMMA_OVERFLOW_THRESHOLD = 171.624376956302

_EPS_BY_PRECISION = {"standard": 2.220446049250313e-16, "extended": 1e-30}

# cancellation beyond this many decimal digits is not recovered
_MAX_ESCALATION_DPS = 1200


@dataclass(frozen=True)
class Alpha:
    """Fractional time order. The evolution theorems use 0 < alpha < 1;
    alpha = 1 is admitted for classical-limit identity checks only."""

    value: float

    def __post_init__(self) -> None:
        if not (0.0 < self.value <= 1.0):
            raise ValueError(f"alpha must lie in (0, 1], got {self.value}")

    @staticmethod
    def coerce(alpha: "Alpha | float") -> float:
        if isinstance(alpha, Alpha):
            return alpha.value
        return Alpha(float(alpha)).value


@dataclass(frozen=True)
class EvalPolicy:
    """Truncation, switching and precision parameters for E_alpha and M_alpha.

    ``series_asymptotic_switch`` is the x above which the asymptotic
    expansion is attempted first; it is accepted only when its
    optimal-truncation error estimate meets ``series_tol``, otherwise the
    evaluation falls back to the (precision-escalated) power series.
    """

    series_tol: float = 1e-12
    series_max_terms: int = 200_000
    series_asymptotic_switch: float = 5.0
    asymptotic_order: int = 400
    working_precision: str = "standard"

    def __post_init__(self) -> None:
        if self.working_precision not in _EPS_BY_PRECISION:
            raise ValueError(f"unknown working_precision {self.working_precision!r}")
        if self.series_tol <= _EPS_BY_PRECISION[self.working_precision]:
            raise ValueError("series_tol must exceed the working-precision epsilon")
        if self.series_max_terms < 1 or self.asymptotic_order < 1:
            raise ValueError("term budgets must be positive")


DEFAULT_POLICY = EvalPolicy()


# ---------------------------------------------------------------------------
# gamma helpers
# ---------------------------------------------------------------------------

def _is_nonpositive_integer(x: float) -> bool:
    return x <= 0.0 and x == math.floor(x)


def gamma_fn(x: float) -> float:
    """Gamma function on the real line, poles and overflow signalled.

    Raises ValueError at the poles 0, -1, -2, ... and OverflowError past
    the double-precision overflow threshold.
    """
    x = float(x)
    if _is_nonpositive_integer(x):
        raise ValueError(f"gamma_fn pole at x = {x}; use reciprocal_gamma instead")
    if x > GAMMA_OVERFLOW_THRESHOLD:
        raise OverflowError(f"gamma_fn overflows for x = {x} > {GAMMA_OVERFLOW_THRESHOLD}")
    return math.gamma(x)


def reciprocal_gamma(x: float) -> float:
    """1/Gamma(x), defined for every real x (zero at the poles of Gamma)."""
    x = float(x)
    if _is_nonpositive_integer(x):
        return 0.0
    lg = gammaln(x)
    if not math.isfinite(lg):
        return 0.0
    if -lg > 709.0:  # 1/Gamma overflows deep on the negative axis
        return math.copysign(math.inf, gammasgn(x))
    return gammasgn(x) * math.exp(-lg)


def _log_abs_reciprocal_gamma(x: float) -> tuple[float, float]:
    """(log|1/Gamma(x)|, sign); sign 0 with log -inf at the poles."""
    if _is_nonpositive_integer(x):
        return -math.inf, 0.0
    lg = gammaln(x)
    if not math.isfinite(lg):
        return -math.inf, 0.0
    return -lg, gammasgn(x)


# ---------------------------------------------------------------------------
# Mittag-Leffler E_alpha(-x), x >= 0
# ---------------------------------------------------------------------------

def _ml_asymptotic(alpha: float, x: float, kmax: int) -> tuple[float, float]:
    """Tail-truncated expansion E_alpha(-x) ~ sum_k (-1)^{k+1} x^{-k}/Gamma(1-alpha k).

    Returns (value, absolute error estimate); the estimate is the first
    omitted term under optimal truncation (stop before the smallest term).
    """
    if x <= 1.0:
        return 0.0, math.inf
    lx = math.log(x)
    lpi = math.log(math.pi)
    total = 0.0
    prev_env = math.inf
    err = math.inf
    for k in range(1, kmax + 1):
        w = alpha * k
        # by reflection, |1/Gamma(1-w)| = Gamma(w)|sin(pi w)|/pi; the smooth
        # envelope x^{-k} Gamma(w)/pi bounds the term and (unlike the term
        # magnitude itself, which dips near the sin zeros) decays
        # monotonically up to the optimal truncation index
        lenv = -k * lx + float(gammaln(w)) - lpi
        if lenv >= prev_env:
            return total, err  # envelope turned: optimal truncation reached
        prev_env = lenv
        err = math.exp(lenv) if lenv < 690.0 else math.inf
        lr, sign = _log_abs_reciprocal_gamma(1.0 - w)
        if sign != 0.0:
            lmag = -k * lx + lr
            if lmag >= 690.0:
                return total, math.inf
            total += (1.0 if k % 2 == 1 else -1.0) * sign * math.exp(lmag)
        if err < 1e-20 * abs(total):
            return total, err
    return total, err


def _ml_series_double(
    alpha: float, x: float, max_terms: int
) -> tuple[float | None, float, float]:
    """Power series in double precision with compensated (exact) summation.

    Returns (value, absolute error estimate, log of largest term); value is
    None when the terms overflow double precision or exceed the budget.
    """
    # locate the largest term and the truncation index by magnitude
    block = 256
    k0 = 0
    lmax = -math.inf
    tail_cut = None
    lx = math.log(x) if x > 0.0 else -math.inf
    while True:
        ks = np.arange(k0, k0 + block, dtype=float)
        lmag = ks * lx - gammaln(alpha * ks + 1.0) if x > 0.0 else np.where(ks == 0, 0.0, -np.inf)
        lmax = max(lmax, float(lmag.max()))
        if lmax > 690.0:
            return None, math.inf, lmax
        below = np.nonzero(lmag < lmax - 40.0)[0]
        if below.size and float(lmag[-1]) < lmax - 40.0:
            tail_cut = k0 + int(below[0])
            break
        k0 += block
        if k0 > max_terms:
            return None, math.inf, lmax
    n = tail_cut + 1
    ks = np.arange(0, n, dtype=float)
    lmag = ks * lx - gammaln(alpha * ks + 1.0) if x > 0.0 else np.where(ks == 0, 0.0, -np.inf)
    terms = np.exp(lmag)
    terms[1::2] *= -1.0
    value = math.fsum(terms.tolist())
    err = n * 1.1e-16 * math.exp(lmax)
    return value, err, lmax


def _ml_series_mp(alpha: float, x: float, dps: int, max_terms: int) -> float:
    with mp.workdps(dps):
        a = mp.mpf(alpha)
        z = mp.mpf(x)
        total = mp.mpf(0)
        largest = mp.mpf("1e-300")
        tiny_run = 0
        power = mp.mpf(1)  # (-z)^k, updated incrementally
        for k in range(max_terms):
            term = power * mp.rgamma(a * k + 1)
            power *= -z
            total += term
            mag = abs(term)
            if mag > largest:
                largest = mag
            if k > 3 and mag < mp.mpf(10) ** (-dps - 8) * largest:
                tiny_run += 1
                if tiny_run > 3:
                    return float(total)
            else:
                tiny_run = 0
        raise ConvergenceError(
            f"Mittag-Leffler series did not converge within {max_terms} terms "
            f"(alpha={alpha}, x={x})"
        )


@lru_cache(maxsize=300_000)
def _ml_neg_cached(alpha: float, x: float, tol: float, switch: float,
                   kmax_asym: int, max_terms: int, extended: bool) -> tuple[float, str]:
    if x == 0.0:
        return 1.0, "exact"
    if alpha == 1.0:
        # classical limit; the general engine is exercised against this
        # identity in the test suite
        return math.exp(-x), "exp"
    target = tol if not extended else min(tol, 1e-16)

    def try_asymptotic() -> tuple[float, str] | None:
        v, err = _ml_asymptotic(alpha, x, kmax_asym)
        if math.isfinite(err) and err <= target * max(abs(v), 1e-300):
            return v, "asymptotic"
        return None

    if x >= switch:
        got = try_asymptotic()
        if got is not None:
            return got

    series = _ml_series_double(alpha, x, max_terms)
    value, err, lmax = series
    if value is not None and err <= target * abs(value) and not extended:
        return value, "series"

    if x < switch:
        got = try_asymptotic()
        if got is not None:
            return got

    # escalate the series in extended precision; digits needed follow from
    # the ratio of the largest term to the result magnitude
    if value is None:
        # the double-precision scan aborted before locating the peak, so
        # its lmax is only a lower bound; solve lx = alpha*psi(alpha*k+1)
        # for the true peak index instead
        lo, hi = 1.0, 2.0
        while alpha * float(psi(alpha * hi + 1.0)) < math.log(x):
            lo, hi = hi, hi * 2.0
            if hi > 1e12:
                break
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if alpha * float(psi(alpha * mid + 1.0)) < math.log(x):
                lo = mid
            else:
                hi = mid
        k_peak = 0.5 * (lo + hi)
        lmax = k_peak * math.log(x) - float(gammaln(alpha * k_peak + 1.0))
    lval = math.log(0.05 / (1.0 + x))
    dps = int((lmax - lval) / math.log(10.0)) + 25
    if extended:
        dps = max(dps, 35)
    if dps > _MAX_ESCALATION_DPS:
        raise UnreliableEvaluationError(
            f"E_alpha(-x) needs ~{dps} digits at alpha={alpha}, x={x}; "
            "beyond the escalation budget"
        )
    return _ml_series_mp(alpha, x, dps, max_terms), f"series-extended[{dps}dps]"


def mittag_leffler_neg_info(
    alpha: Alpha | float, x: float, policy: EvalPolicy = DEFAULT_POLICY
) -> tuple[float, str]:
    """E_alpha(-x) together with the evaluation method actually used."""
    a = Alpha.coerce(alpha)
    x = float(x)
    if not 0.0 <= x < math.inf:
        raise ValueError(f"x must be finite and nonnegative, got {x}")
    return _ml_neg_cached(
        a,
        x,
        policy.series_tol,
        policy.series_asymptotic_switch,
        policy.asymptotic_order,
        policy.series_max_terms,
        policy.working_precision == "extended",
    )


def mittag_leffler_neg(
    alpha: Alpha | float, x: float, policy: EvalPolicy = DEFAULT_POLICY
) -> float:
    """Mittag-Leffler function E_alpha(-x) for x >= 0; lies in (0, 1]."""
    return mittag_leffler_neg_info(alpha, x, policy)[0]


# Weideman & Trefethen (2007) optimal parabola for the Bromwich integral at
# t = 1 with N midpoint nodes on theta in (-pi, pi):
# g(theta) = N (0.1309 - 0.1194 theta^2 + 0.25 i theta), error ~ 2.85^-N.
_HANKEL_NODES = 32
# largest alpha on a 0.005 step at which the rule's relative error, against
# arbitrary-precision series sums at x in {0} and 80 log-spaced points of
# [1e-12, 1e6], is at most 1e-12 (5.8e-13 here; 1.02e-12 at 0.99)
_HANKEL_ALPHA_CAP = 0.985


@lru_cache(maxsize=64)
def _hankel_rule(alpha: float) -> tuple[np.ndarray, np.ndarray, float]:
    """(g^alpha, w, 1/Gamma(1-alpha)) with
    E_alpha(-x) = Re sum_j w_j / (g_j^alpha + x),
    w_j = h e^{g_j} g_j^{alpha-1} g'_j / (2 pi i)."""
    n = _HANKEL_NODES
    theta = (2.0 * np.arange(n) - (n - 1)) * (math.pi / n)
    g = n * (0.1309 - 0.1194 * theta ** 2 + 0.25j * theta)
    dg = n * (0.25j - 0.2388 * theta)
    w = np.exp(g) * g ** (alpha - 1.0) * dg / (1j * n)  # h / (2 pi i) = 1 / (i n)
    ga = g ** alpha
    for arr in (ga, w):
        arr.setflags(write=False)  # shared by every caller through the cache
    return ga, w, reciprocal_gamma(1.0 - alpha)


def _ml_hankel(alpha: float, x: np.ndarray) -> np.ndarray:
    """E_alpha(-x) for an array of x >= 0 and 0 < alpha < 1 by a frozen
    32-node trapezoid rule on a Hankel parabola.

    For 0 < alpha < 1, g^alpha = -x has no root on the principal sheet, so
    one contour serves every x. Past x = 1 the rule sums
    1/(g^alpha + x) = 1/x - g^alpha / (x (g^alpha + x)) with the exact
    sum of the weights, 1/Gamma(1-alpha), which keeps the relative error
    flat as E_alpha(-x) ~ 1/(x Gamma(1-alpha)). One (x.size, 32) complex
    temporary is formed: callers block long arrays.
    """
    ga, w, rg = _hankel_rule(alpha)
    x = np.asarray(x, dtype=float)
    r = 1.0 / (ga + x[:, None])
    out = (r @ w).real
    far = x > 1.0
    out[far] = (rg - (r[far] @ (w * ga)).real) / x[far]
    out[x == 0.0] = 1.0
    return out


def mittag_leffler_contour(alpha: Alpha | float, x: float) -> float:
    """E_alpha(-x) at one x > 0 by the Hankel node rule behind the direct
    propagator. Independent of the series/asymptotic route, its reference.
    """
    a = Alpha.coerce(alpha)
    x = float(x)
    if x <= 0.0:
        raise ValueError(f"contour route requires x > 0, got {x}")
    if not a < 1.0:
        raise ValueError("contour route requires 0 < alpha < 1")
    return float(_ml_hankel(a, np.array([x]))[0])


# ---------------------------------------------------------------------------
# Wright-type function M_alpha(s), s >= 0
# ---------------------------------------------------------------------------

_WRIGHT_ALPHA_CAP = 0.995  # series conditioning degrades as alpha -> 1


def wright_log_envelope(alpha: float, s: float) -> float:
    """log of the large-s decay envelope of M_alpha.

    Leading-order stretched-exponential asymptotics:
    M_alpha(s) ~ A s^{(alpha-1/2)/(1-alpha)} exp(-B s^{1/(1-alpha)}).
    Used for adaptive truncation of integrals over s and for sizing the
    extended-precision escalation; validated numerically in the tests.
    """
    a = alpha
    if s <= 0.0:
        return math.log(abs(reciprocal_gamma(1.0 - a)) + 1e-300)
    log_amp = -0.5 * math.log(2.0 * math.pi * (1.0 - a)) \
        - 0.5 * ((1.0 - 2.0 * a) / (1.0 - a)) * math.log(a)
    b = (1.0 - a) * a ** (a / (1.0 - a))
    # form the stretched exponent in logs so huge s cannot overflow
    log_stretch = math.log(b) + math.log(s) / (1.0 - a)
    if log_stretch > 700.0:
        return -math.inf
    return log_amp + (a - 0.5) / (1.0 - a) * math.log(s) - math.exp(log_stretch)


@dataclass(frozen=True)
class WrightEval:
    value: float
    method: str
    reliable: bool
    cancellation_ratio: float


def _wright_contour_saddle(alpha: float, s: float, n: int = 600) -> float | None:
    """M_alpha(s) from its Hankel representation
    (1/2 pi i) int e^{sigma - s sigma^alpha} sigma^{alpha-1} d sigma
    on a parabola scaled to pass through the saddle (s alpha)^{1/(1-alpha)}.

    For alpha near 1 and s >= 1 the alternating series cancels
    catastrophically while this contour stays perfectly conditioned (the
    integrand maximum sits at the scale of the value itself). Returns None
    when the integrand rises along the contour (conditioning lost), so the
    caller can fall back to the series.
    """
    log_mu = math.log(s * alpha) / (1.0 - alpha)
    if log_mu > 690.0:
        return 0.0  # value far below double-precision underflow
    mu = max(math.exp(log_mu), 1.0)

    def re_f(u: float) -> float:
        g = mu * (1j * u + 1.0) ** 2
        return (g - s * g ** alpha).real

    f0 = re_f(0.0)
    if f0 < -700.0:
        return 0.0
    fmax = f0
    half_width = 0.1
    while half_width < 60.0:
        v = re_f(half_width)
        fmax = max(fmax, v)
        if v < fmax - 60.0:
            break
        half_width *= 1.25
    if fmax > f0 + 25.0:
        return None  # contour badly conditioned here; let the series handle it
    u = np.linspace(-half_width, half_width, n)
    h = u[1] - u[0]
    g = mu * (1j * u + 1.0) ** 2
    dg = 2j * mu * (1j * u + 1.0)
    integrand = np.exp(g - s * g ** alpha) * g ** (alpha - 1.0) * dg
    return float(((h / (2j * math.pi)) * integrand.sum()).real)


def _wright_series_mp(alpha: float, s: float, dps: int, max_terms: int) -> float:
    with mp.workdps(dps):
        a = mp.mpf(alpha)
        z = mp.mpf(s)
        total = mp.mpf(0)
        largest = mp.mpf("1e-300")
        tiny_run = 0
        coeff = mp.mpf(1)  # (-z)^n / n!, updated incrementally
        for n in range(max_terms):
            term = coeff * mp.rgamma(1 - a - a * n)
            coeff *= -z / (n + 1)
            total += term
            mag = abs(term)
            if mag > largest:
                largest = mag
            if n > 3 and mag < mp.mpf(10) ** (-dps - 8) * largest:
                tiny_run += 1
                if tiny_run > 4:
                    return float(total)
            else:
                tiny_run = 0
        raise ConvergenceError(
            f"Wright series did not converge within {max_terms} terms "
            f"(alpha={alpha}, s={s})"
        )


@lru_cache(maxsize=600_000)
def _wright_cached(alpha: float, s: float, tol: float, max_terms: int,
                   extended: bool) -> WrightEval:
    if s == 0.0:
        return WrightEval(reciprocal_gamma(1.0 - alpha), "exact", True, 1.0)
    log_value_est = wright_log_envelope(alpha, s)
    if s >= 1.0:
        # at or past the density peak the alternating series cancels (for
        # alpha near 1, catastrophically) while the saddle-scaled contour
        # stays well conditioned; it also resolves the stretched-exponential
        # tail far below double-precision series reach
        val = _wright_contour_saddle(alpha, s)
        if val is not None:
            return WrightEval(val, "contour-saddle", True, 1.0)
    if s >= 1.0 and log_value_est < -80.0:
        # contour declined but the envelope certifies the value is below
        # any absolute tolerance used here
        return WrightEval(0.0, "envelope-underflow", True, 1.0)
    ls = math.log(s)
    tol_abs = max(tol * 1e-2, 1e-15) * max(math.exp(wright_log_envelope(alpha, s)), 1e-4)
    log_cut = math.log(tol_abs) - 5.0

    terms: list[float] = []
    largest = 0.0
    log_largest = -math.inf
    overflowed = False
    k = 0
    while k <= max_terms:
        lr, sign = _log_abs_reciprocal_gamma(1.0 - alpha * (k + 1))
        if sign != 0.0:
            lmag = k * ls - gammaln(k + 1.0) + lr
            if lmag > 690.0:
                overflowed = True
                log_largest = max(log_largest, lmag)
                k += 1
                # keep scanning for the true peak so escalation is sized right
                if lmag < log_largest - 40.0:
                    break
                continue
            term = (1.0 if k % 2 == 0 else -1.0) * sign * math.exp(lmag)
            terms.append(term)
            mag = abs(term)
            if mag > largest:
                largest = mag
                log_largest = lmag
            if k > 3 and lmag < log_cut and lmag < log_largest - 5.0:
                break
        k += 1
    if not overflowed and k <= max_terms:
        value = math.fsum(terms)
        err = len(terms) * 1.1e-16 * largest
        if err <= max(tol_abs, tol * abs(value)) and not extended:
            ratio = largest / abs(value) if value != 0.0 else math.inf
            return WrightEval(value, "series", True, ratio)

    floor = max(log_value_est, -140.0)  # never resolve below the envelope floor
    dps = int((log_largest - min(floor, 0.0)) / math.log(10.0)) \
        + int(-math.log10(tol)) + 8
    if extended:
        dps = max(dps, 35)
    if dps > _MAX_ESCALATION_DPS:
        return WrightEval(math.nan, "unreliable", False, math.inf)
    value = _wright_series_mp(alpha, s, dps, max_terms)
    ratio = math.exp(min(log_largest - min(log_value_est, 0.0), 700.0))
    return WrightEval(value, f"series-extended[{dps}dps]", True, ratio)


def wright_m_info(
    alpha: Alpha | float, s: float, policy: EvalPolicy = DEFAULT_POLICY
) -> WrightEval:
    """M_alpha(s) with method and reliability metadata."""
    a = Alpha.coerce(alpha)
    if not a < 1.0:
        raise ValueError("wright_m requires 0 < alpha < 1")
    if a > _WRIGHT_ALPHA_CAP:
        raise ValueError(
            f"alpha={a} too close to 1 for reliable Wright evaluation; "
            f"cap is {_WRIGHT_ALPHA_CAP}"
        )
    s = float(s)
    if not 0.0 <= s < math.inf:
        raise ValueError(f"s must be finite and nonnegative, got {s}")
    return _wright_cached(
        a, s, policy.series_tol, policy.series_max_terms,
        policy.working_precision == "extended",
    )


def wright_m(
    alpha: Alpha | float, s: float, policy: EvalPolicy = DEFAULT_POLICY
) -> float:
    """Wright-type density M_alpha(s) >= 0 on s >= 0.

    Raises UnreliableEvaluationError when cancellation exceeds the
    recoverable precision, never returning a silently wrong number.
    """
    res = wright_m_info(alpha, s, policy)
    if not res.reliable:
        raise UnreliableEvaluationError(
            f"M_alpha unreliable at alpha={Alpha.coerce(alpha)}, s={s}"
        )
    return res.value


# ---------------------------------------------------------------------------
# uniform bound constant
# ---------------------------------------------------------------------------

def uniform_bound_constant(
    alpha: Alpha | float,
    x_max: float = 1e6,
    grid_points: int = 2000,
    policy: EvalPolicy = DEFAULT_POLICY,
) -> float:
    """Numerical estimate C_hat(alpha) = max over a log grid of (1+x) E_alpha(-x).

    The bound (1+x) E_alpha(-x) <= C holds with an unspecified constant;
    this reports the observed grid maximum (>= 1, the value at x = 0).
    """
    if x_max < 1e3:
        raise ValueError("x_max must be at least 1e3")
    if grid_points < 1000:
        raise ValueError("grid_points must be at least 1000")
    xs = np.concatenate(([0.0], np.logspace(-6.0, math.log10(x_max), grid_points)))
    best = 0.0
    for x in xs:
        val = (1.0 + x) * mittag_leffler_neg(alpha, float(x), policy)
        if val > best:
            best = val
    return best
