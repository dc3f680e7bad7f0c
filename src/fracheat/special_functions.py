"""Special functions for the fractional heat propagator.

Provides gamma helpers, the Mittag-Leffler function E_alpha(-x) on the
negative real axis (one pole-corrected real-axis rule, and the Hankel node
rule of the propagator, checked against it), and the Wright-type density
M_alpha(s) that subordinates the fractional propagator to the classical
heat semigroup. Every value is a double: E_alpha(-x) from the real-axis
rule, M_alpha to 1e-12 relative from the saddle contour at s >= 1 and the
double series below; a node either M_alpha rule refuses raises, with no
fallback. The arbitrary-precision reference sums the tests hold these rules
to are in tests/mp_reference.py.

The rules take arrays, and the scalar functions are one-element calls. No
computed value is memoized, here or in the suprema that call E_alpha: the
only global state is per-alpha rule tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import UnreliableEvaluationError

__all__ = [
    "Alpha",
    "reciprocal_gamma",
    "mittag_leffler_neg",
    "mittag_leffler_neg_info",
    "mittag_leffler_contour",
    "wright_m",
    "wright_m_info",
    "wright_log_envelope",
]

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


# ---------------------------------------------------------------------------
# gamma helpers
# ---------------------------------------------------------------------------

def reciprocal_gamma(x: float) -> float:
    """1/Gamma(x) for every real x (zero at the poles of Gamma) and x = inf."""
    if not float(x) > -math.inf:  # NaN too
        raise ValueError(f"x must be a number above -inf, got {x}")
    lr, sign = _log_abs_reciprocal_gamma(float(x))
    if lr > 709.0:  # 1/Gamma overflows deep on the negative axis
        return math.copysign(math.inf, sign)
    return sign * math.exp(lr)


def _log_abs_reciprocal_gamma(x: float) -> tuple[float, float]:
    """(log|1/Gamma(x)|, sign); sign 0 with log -inf at the poles and where
    log Gamma(x) overflows (x past about 2.5e305). Off the poles, Gamma(x)
    is negative exactly where x < 0 and ceil(-x) is odd."""
    if x <= 0.0 and x == math.floor(x):
        return -math.inf, 0.0
    try:
        lg = math.lgamma(x)
    except OverflowError:
        lg = math.inf
    if not math.isfinite(lg):
        return -math.inf, 0.0
    return -lg, -1.0 if x < 0.0 and math.ceil(-x) % 2 == 1 else 1.0


def _fit_line(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """(slope, intercept) of the least-squares line, from centred sums: no LAPACK."""
    dx, ym = x - x.mean(), y.mean()
    slope = float(np.dot(dx, y - ym) / np.dot(dx, dx))
    return slope, float(ym - slope * x.mean())


# ---------------------------------------------------------------------------
# Mittag-Leffler E_alpha(-x), x >= 0
# ---------------------------------------------------------------------------

# 8 MiB per temporary: at x >= 1e-12 the rule needs at most about 210/alpha
# nodes, so there it refuses only alpha below about 2e-4
_RULE_MAX_NODES = 1 << 20
# a row is zero-padded to a multiple of _RULE_PAD lanes and summed with rows of
# its width in blocks of at most _RULE_BLOCK lanes (0.5 MiB), batch-independent
_RULE_PAD, _RULE_BLOCK = 32, 1 << 16


def _ml_real_axis(alpha: float, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(E_alpha(-x), node count) at each x > 0 of a 1-D array, 0 < alpha < 1,
    by the trapezoid rule on Mainardi's spectral integral (Mainardi 2014,
    DCDS-B 19): with t = x^(1/alpha) and s = sin((1-alpha) pi/2),

        E_alpha(-x) = (sin((1-alpha) pi)/pi) int_R exp(-t e^u) du / (4 sinh^2(alpha u/2) + 4 s^2).

    The integrand is positive, so nothing cancels at any x. Its nearest poles
    sit at u = +-i theta, theta = pi (1-alpha)/alpha; when theta < pi/2 their
    share of the trapezoid error is subtracted in closed form (Trefethen &
    Weideman 2014, SIAM Review 56). Every x takes its own window of the one
    lattice u_k = h (k + 1/2), each node formed from its integer index: the
    half-step offset makes the correction's q = -exp(-2 pi theta/h) real with
    |1 - q| >= 1, where without it the correction resonates as alpha -> 1.
    Left of the window the integrand is e^(alpha u) + (2 - s2) e^(2 alpha u),
    s2 = 4 s^2, to a relative e^-40, and its lattice sum there is added in
    closed form.
    """
    lt = np.log(x) / alpha  # ln t, finite where t itself would overflow
    # the step resolves the strip |Im u| < pi/2, where exp(-t e^u) stops
    # decaying, to 1e-12; a finer step gains nothing
    h = 0.9 * math.pi ** 2 / math.log(1e5 / 1e-12)
    # the left cut lies e^-20 below the integrand's scale, where the flank's
    # lattice tail takes over; past the right cut exp(-t e^u) < e^-40. A
    # node is h times its half-integer index: lo + h k would carry ulp(lo)
    # into the nodes near u = 0, where the integrand peaks as alpha -> 1
    first = np.floor((np.minimum(-lt, 0.0) - 20.0 / alpha) / h) + 0.5  # half-integer index
    lo = h * first
    n = ((math.log(40.0) - lt - lo) / h).astype(np.int64) + 1
    if np.any(n > _RULE_MAX_NODES):
        raise UnreliableEvaluationError(
            f"E_alpha(-x) needs {n.max()} real-axis nodes at alpha={alpha}, x={x[n.argmax()]}; "
            f"beyond the budget of {_RULE_MAX_NODES}")
    s2 = 4.0 * math.sin(0.5 * math.pi * (1.0 - alpha)) ** 2
    # past x = 1 the integrand is summed times x (r^2 = 1/x), so that its
    # left flank, where 4 sinh^2(alpha u/2) ~ x e^20, neither overflows nor
    # goes subnormal as x approaches the double range
    r = np.exp(-0.5 * alpha * np.maximum(lt, 0.0))
    total, width = np.empty(x.shape), -(-n // _RULE_PAD) * _RULE_PAD
    # two temporaries for every block: fresh ones cost more in page faults
    work = np.empty((2, max(min(width.sum(), _RULE_BLOCK), width.max(initial=0))))
    for w in (_RULE_PAD * np.flatnonzero(np.bincount(width // _RULE_PAD))).tolist():
        rows, k, step = np.flatnonzero(width == w), np.arange(w), max(_RULE_BLOCK // w, 1)
        for i in (rows[b:b + step, None] for b in range(0, rows.size, step)):
            u, f = (a[:i.size * w].reshape(i.size, w) for a in work)
            np.multiply(np.add(first[i], k, out=u), h, out=u)
            # right flank at x < 1e-306 and the padding: 1/inf = 0 loses nothing
            with np.errstate(over="ignore"):
                np.exp(np.negative(np.exp(np.add(lt[i], u, out=f), out=f), out=f), out=f)
                np.sinh(np.multiply(0.5 * alpha, u, out=u), out=u)
                np.square(np.multiply(u, 2.0 * r[i], out=u), out=u)
                f /= np.add(u, s2 * r[i] * r[i], out=u)
            f[:, -_RULE_PAD:][k[-_RULE_PAD:] >= n[i]] = 0.0  # past the row's own cut
            total[i[:, 0]] = f.sum(axis=1)
    # 1 - alpha is exact in floating point, while sin(alpha pi) loses about
    # 1e-14 near alpha = 1
    c = math.sin(math.pi * (1.0 - alpha)) / math.pi
    # the flank's lattice sum over u = lo - k h, k >= 1: two geometric
    # series of ratio d = e^(-alpha h) from e = e^(alpha (lo - h))
    d, e = math.exp(-alpha * h), np.exp(alpha * (lo - h))
    tail = e / (1.0 - d) + (2.0 - s2) * e * e / (1.0 - d * d)
    value = c * h * (r * r * total + tail)
    theta = math.pi * (1.0 - alpha) / alpha
    if theta < 0.5 * math.pi:
        q = -math.exp(-2.0 * math.pi * theta / h)
        # Re exp(-t e^(i theta)); past t = e^700 it underflows to 0
        t = np.exp(np.minimum(lt, 700.0))
        pole = np.exp(-t * math.cos(theta)) * np.cos(t * math.sin(theta))
        value -= 2.0 * pole * q / (alpha * (1.0 - q))
    # E_alpha(-x) <= 1/(1 + x/Gamma(1+alpha)) <= 1 (Simon 2014, EJP 19);
    # round-off would otherwise lift tiny x just above 1
    return np.minimum(value, 1.0), n


def _ml_neg(alpha: float, x: np.ndarray) -> np.ndarray:
    """E_alpha(-x) at each x >= 0 of a 1-D array, alpha validated: 1 at x = 0,
    0 at x = inf (the limit), exp(-x) at alpha = 1 (the classical limit,
    which the tests check the rule against), else the real-axis rule."""
    value = np.where(x < math.inf, 1.0, 0.0)
    pos = np.flatnonzero((x > 0.0) & (x < math.inf))
    value[pos] = np.exp(-x[pos]) if alpha == 1.0 else _ml_real_axis(alpha, x[pos])[0]
    return value


def mittag_leffler_neg_info(alpha: Alpha | float, x: float) -> tuple[float, str]:
    """E_alpha(-x) together with the evaluation method actually used."""
    a = Alpha.coerce(alpha)
    x = float(x)
    if not 0.0 <= x < math.inf:
        raise ValueError(f"x must be finite and nonnegative, got {x}")
    if x == 0.0 or a == 1.0:
        return float(_ml_neg(a, np.array([x]))[0]), "exact" if x == 0.0 else "exp"
    value, nodes = _ml_real_axis(a, np.array([x]))  # its one-row call
    return float(value[0]), f"real-axis[{nodes[0]}]"


def mittag_leffler_neg(alpha: Alpha | float, x: float) -> float:
    """Mittag-Leffler function E_alpha(-x) for x >= 0; lies in (0, 1]."""
    return mittag_leffler_neg_info(alpha, x)[0]


# Weideman & Trefethen (2007) optimal parabola for the Bromwich integral at
# t = 1 with N midpoint nodes on theta in (-pi, pi):
# g(theta) = N (0.1309 - 0.1194 theta^2 + 0.25 i theta), error ~ 2.85^-N.
_HANKEL_NODES = 32
# largest alpha on a 0.005 step at which the rule's relative error, measured
# offline against arbitrary-precision power and asymptotic sums at x in {0}
# and 80 log-spaced points of [1e-12, 1e6], is at most 1e-12 (6.0e-13 here;
# 1.2e-12 at 0.99)
_HANKEL_ALPHA_CAP = 0.985


@lru_cache(maxsize=64)
def _hankel_rule(alpha: float) -> tuple[np.ndarray, np.ndarray, tuple, tuple, float]:
    """(Re g^alpha, (Im g^alpha)^2, near weights, far weights, 1/Gamma(1-alpha))
    on the 16 nodes with theta > 0 of the rule E_alpha(-x) =
    Re sum_j w_j / (g_j^alpha + x), w_j = h e^{g_j} g_j^{alpha-1} g'_j / (2 pi i),
    over 32 nodes. Node -theta holds the conjugates of node theta, so for
    real x a pair sums to 2 (Re w a + Im w Im g^alpha) / (a^2 + (Im g^alpha)^2),
    a = Re g^alpha + x. The weights (2 Re v, 2 Im v Im g^alpha) are near for
    v = w and far for v = w g^alpha (see `_ml_hankel`)."""
    n = _HANKEL_NODES
    theta = (2.0 * np.arange(n // 2, n) - (n - 1)) * (math.pi / n)
    g = n * (0.1309 - 0.1194 * theta ** 2 + 0.25j * theta)
    dg = n * (0.25j - 0.2388 * theta)
    w = np.exp(g) * g ** (alpha - 1.0) * dg / (1j * n)  # h / (2 pi i) = 1 / (i n)
    ga = g ** alpha
    gr, gi2 = ga.real, ga.imag ** 2
    near, far = ((2.0 * v.real, 2.0 * v.imag * ga.imag) for v in (w, w * ga))
    for arr in (gr, gi2, *near, *far):
        arr.setflags(write=False)  # shared by every caller through the cache
    return gr, gi2, near, far, reciprocal_gamma(1.0 - alpha)


# past x = 1e150 the far sum is below 1e-140 of 1/Gamma(1-alpha): it is taken
# at x = 1e150, where a^2 cannot overflow
_HANKEL_FAR_X = 1e150


def _ml_hankel(alpha: float, x: np.ndarray) -> np.ndarray:
    """E_alpha(-x) for an array of x >= 0 and 0 < alpha < 1 by a frozen
    32-node trapezoid rule on a Hankel parabola, summed as 16 conjugate
    pairs in real arithmetic.

    For 0 < alpha < 1, g^alpha = -x has no root on the principal sheet, so
    one contour serves every x. Each x takes one branch. Up to x = 1 it sums
    w / (g^alpha + x); past x = 1 it sums
    1/(g^alpha + x) = 1/x - g^alpha / (x (g^alpha + x)) with the exact
    sum of the weights, 1/Gamma(1-alpha), which keeps the relative error
    flat as E_alpha(-x) ~ 1/(x Gamma(1-alpha)). A branch forms a few
    (rows, 16) float temporaries: callers block long arrays.
    """
    gr, gi2, near, far_w, rg = _hankel_rule(alpha)
    x = np.asarray(x, dtype=float)
    out = np.empty(x.shape)
    far = x > 1.0
    for sel, (wr, c), xs in ((~far, near, x[~far]),
                             (far, far_w, np.minimum(x[far], _HANKEL_FAR_X))):
        a = gr + xs[:, None]
        out[sel] = ((a * wr + c) / (a * a + gi2)).sum(axis=1)
    out[far] = (rg - out[far]) / x[far]
    out[x == 0.0] = 1.0
    return out


def mittag_leffler_contour(alpha: Alpha | float, x: float) -> float:
    """E_alpha(-x) at one x > 0 by the Hankel node rule behind the direct
    propagator. Independent of mittag_leffler_neg, its reference.
    """
    a = Alpha.coerce(alpha)
    x = float(x)
    if not x > 0.0:  # NaN too
        raise ValueError(f"contour route requires x > 0, got {x}")
    if not a < 1.0:
        raise ValueError("contour route requires 0 < alpha < 1")
    return float(_ml_hankel(a, np.array([x]))[0])


# ---------------------------------------------------------------------------
# Wright-type function M_alpha(s), s >= 0
# ---------------------------------------------------------------------------

# lifted, the cap leaves every table certified to alpha 0.999; the [1, cut] panel
# tables fail first: 3.2e-10 off at 0.9995, which the moment checks refuse at 1e-11
_WRIGHT_ALPHA_CAP = 0.995


def _wright_alpha(alpha: Alpha | float) -> float:
    """alpha as a float where M_alpha is evaluated, 0 < alpha <= the cap;
    ValueError otherwise. Every entry point that integrates or samples the
    density calls it first, before any cut, rule or sample is built."""
    a = Alpha.coerce(alpha)
    if a > _WRIGHT_ALPHA_CAP:
        raise ValueError(f"M_alpha requires 0 < alpha <= {_WRIGHT_ALPHA_CAP} (its panel "
                         f"tables near s = 1 are measured up to it), got alpha={a}")
    return a


# relative error to which a double-precision series sum is certified
_WRIGHT_SERIES_TOL = 1e-12
# term budget of the series: a table still above its envelope cut past it is refused
_SERIES_MAX_TERMS = 200_000

# trapezoid points on the saddle contour (geometric convergence, Weideman &
# Trefethen 2007): against arbitrary-precision series sums at alpha
# 0.05-0.995 and s in [1, 20] wherever M_alpha > 1e-250, 320 points stay
# within 6.2e-13; 256 reach 1.9e-12 at alpha 0.995 and 1 < s < 1/alpha, whose
# wide half-width (52) they under-resolve
_WRIGHT_CONTOUR_POINTS = 320
# contour half-widths scanned for the decay of the integrand (0.1 * 1.25^j)
_WRIGHT_HALF_WIDTHS = 0.1 * 1.25 ** np.arange(30)
_WRIGHT_BLOCK_ROWS = 64  # contour nodes per block: 80 KiB per temporary


def wright_log_envelope(alpha: float, s):
    """log of the large-s decay envelope of M_alpha, at a float or an array s >= 0.

    Leading-order stretched-exponential asymptotics:
    M_alpha(s) ~ A s^{(alpha-1/2)/(1-alpha)} exp(-B s^{1/(1-alpha)}).
    Used for adaptive truncation of integrals over s and for the absolute
    tolerance of the series; validated numerically in the tests.
    """
    a = alpha
    s = np.asarray(s, dtype=float)
    if not np.all(s >= 0.0):  # NaN too
        raise ValueError(f"s must be nonnegative, got {s}")
    log_amp = -0.5 * math.log(2.0 * math.pi * (1.0 - a)) \
        - 0.5 * ((1.0 - 2.0 * a) / (1.0 - a)) * math.log(a)
    b = (1.0 - a) * a ** (a / (1.0 - a))
    with np.errstate(divide="ignore", invalid="ignore"):
        ls = np.log(s)
        log_stretch = math.log(b) + ls / (1.0 - a)  # in logs: huge s cannot overflow
        out = log_amp + (a - 0.5) / (1.0 - a) * ls - np.exp(np.minimum(log_stretch, 700.0))
    out = np.where(log_stretch > 700.0, -np.inf, out)
    return np.where(s > 0.0, out, math.log(abs(reciprocal_gamma(1.0 - a)) + 1e-300))[()]


class WrightEval(NamedTuple):
    value: float
    method: str


@lru_cache(maxsize=8)
def _wright_contour_geometry(alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """The s-free part of the saddle contour g = mu (1 + iu)^2 at one alpha:
    read-only tables (1 - u^2, 2u, R cos(ang), R sin(ang), ang - atan(u),
    (alpha - 1/2) log1p(u^2)), R = (1+u^2)^alpha and ang = 2 alpha atan(u)
    = arg g^alpha, at u = hw_j t_k for every half-width hw_j (axis 1) and
    trapezoid point t_k > 0 (axis 2), and the scan's (1 - u^2, R cos(ang))
    at u = hw_j, j < 29."""
    n = _WRIGHT_CONTOUR_POINTS
    t = (2.0 * np.arange(n // 2) + 1.0) / (n - 1)  # u > 0 of linspace(-1, 1, n)

    def tables(u):
        l1 = np.log1p(u * u)
        ang = 2.0 * alpha * np.arctan(u)
        r = np.exp(alpha * l1)
        return np.stack([1.0 - u * u, 2.0 * u, r * np.cos(ang), r * np.sin(ang),
                         ang - np.arctan(u), (alpha - 0.5) * l1])

    points, scan = tables(_WRIGHT_HALF_WIDTHS[:, None] * t), tables(_WRIGHT_HALF_WIDTHS[:-1])[[0, 2]]
    points.setflags(write=False)  # shared by every caller through the cache
    scan.setflags(write=False)
    return points, scan


def _wright_contour(alpha: float, s: np.ndarray) -> np.ndarray:
    """M_alpha at each s >= 1 from (1/2 pi i) int e^{g - s g^alpha} g^{alpha-1} dg
    on g = mu (1 + iu)^2 through the saddle mu = (s alpha)^{1/(1-alpha)}; NaN
    (declined) where the integrand rises by e^25. With log g = log mu +
    log(1+u^2) + 2i atan(u), g^{alpha-1} dg = 2i g^alpha / (1+iu), and the
    integrand is odd-conjugate in u, so a real sum over u > 0 suffices.
    With P = s mu^alpha, g - s g^alpha = mu (1 - u^2 + 2iu) - P R e^{i ang}
    on the per-alpha tables of `_wright_contour_geometry`: a point costs one
    exp and one cos, the half-width scan none. Past mu = 1, P is mu / alpha,
    which holds at the saddle and keeps P consistent with mu to one rounding
    (s e^{alpha log mu} carries the rounding of alpha log mu, times P: up to
    3e-12 of M_alpha near alpha = 1)."""
    n = _WRIGHT_CONTOUR_POINTS
    (a, b, c, d, e, f), (scan_a, scan_c) = _wright_contour_geometry(alpha)

    log_mu = np.log(s[:, None] * alpha) / (1.0 - alpha)
    lmu = np.where(log_mu > 690.0, 0.0, np.maximum(log_mu, 0.0))
    mu = np.exp(lmu)
    p = np.where(lmu > 0.0, mu / alpha, s[:, None])  # s mu^alpha
    f0 = mu - p
    # rows far below underflow are 0, and only the others are computed
    live = np.flatnonzero(~((log_mu > 690.0) | (f0 < -700.0))[:, 0])

    def block(i):
        with np.errstate(over="ignore", invalid="ignore"):
            scan = mu[i] * scan_a - p[i] * scan_c  # Re(g - s g^alpha) at u = hw_j
            fmax = np.maximum.accumulate(np.maximum(scan, f0[i]), axis=1)
            drop = scan < fmax - 60.0
            j = np.where(drop.any(axis=1), drop.argmax(axis=1), scan.shape[1])
            fmax = fmax[np.arange(j.size), np.minimum(j, scan.shape[1] - 1)][:, None]
            # Re and Im of the log of the integrand, in place on gathered rows
            re, phase, pc, pd = a[j], b[j], c[j], d[j]
            re *= mu[i]
            re -= np.multiply(pc, p[i], out=pc)
            re += f[j] + alpha * lmu[i]
            phase *= mu[i]
            phase -= np.multiply(pd, p[i], out=pd)
            phase += e[j]
            f_u = np.exp(re, out=re) * np.cos(phase, out=phase)
            val = (4.0 / ((n - 1) * math.pi)) * _WRIGHT_HALF_WIDTHS[j] * f_u.sum(axis=1)
        val[(fmax > f0[i] + 25.0)[:, 0]] = np.nan
        return val

    out = np.zeros(s.shape)
    out[live] = np.concatenate([block(live[k:k + _WRIGHT_BLOCK_ROWS])
                                for k in range(0, live.size, _WRIGHT_BLOCK_ROWS)] + [np.empty(0)])
    return out


def _wright_series_coeffs(alpha: float, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(log|c_k|, sign c_k, log e_k), k < n, of the series M_alpha(s) = sum c_k s^k,
    c_k = (-1)^k / (k! Gamma(1 - alpha (k+1))); sign 0 where Gamma has a pole.
    By reflection |c_k| = Gamma(w)|sin(pi w)|/(pi k!) with w = alpha (k+1), so
    the smooth envelope e_k = Gamma(w)/(pi k!) bounds |c_k| and, unlike |c_k|,
    does not dip to zero near the poles; `_wright_series_table` builds it."""
    table = np.empty((3, n))
    lpi = math.log(math.pi)
    for k in range(n):
        w = alpha * (k + 1.0)
        lfact = math.lgamma(k + 1.0)
        lr, sign = _log_abs_reciprocal_gamma(1.0 - w)
        table[:, k] = lr - lfact, sign if k % 2 == 0 else -sign, math.lgamma(w) - lfact - lpi
    return tuple(table)


@lru_cache(maxsize=64)
def _wright_series_table(alpha: float) -> tuple[np.ndarray, float]:
    """(c_k for k < n, log e_(n-1)), the series' one truncation, built once per alpha:
    n doubled from 64 until the envelope e_k >= |c_k|, falling from k = 0 on
    (Gamma(x + alpha) <= x^alpha Gamma(x), Wendel 1948), is below 1e-17 at its last
    term, e_(n-1) = Gamma(alpha n) / (pi (n-1)!). Refused past the term budget."""
    n, lpi = 64, math.log(math.pi)
    while math.lgamma(alpha * n) - math.lgamma(n) - lpi >= math.log(1e-17):
        if 2 * n > _SERIES_MAX_TERMS:
            raise UnreliableEvaluationError(f"M_alpha series over {n} terms, alpha={alpha}")
        n *= 2
    log_c, sign, log_e = _wright_series_coeffs(alpha, n)
    c = sign * np.exp(log_c)
    c.setflags(write=False)  # shared by every caller through the cache
    return c, float(log_e[-1])


def _wright_series(alpha: float, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(value, certified) of the series at each 0 < s < 1: Horner's rule on the n
    terms of `_wright_series_table`, elementwise, with sum |c_k| s^k as a second
    row. Certified where the rounding bound gamma_2n sum |c_k| s^k (Higham 2002,
    eq. 5.3) plus the dropped terms, at most e_(n-1) s^n r / (1 - r s) with
    r = (alpha n)^alpha / n (e_(k+1)/e_k <= (alpha (k+1))^alpha / (k+1) by Wendel,
    falling with k), is within max(tol_abs, tol |value|). The coefficients' own
    rounding, from exp of their logs, lies outside the bound."""
    tol = _WRIGHT_SERIES_TOL
    c, log_e = _wright_series_table(alpha)
    n, acc = c.size, np.zeros((2, s.size))
    for col in np.stack([c, np.abs(c)]).T[::-1, :, None]:
        np.add(np.multiply(acc, s, out=acc), col, out=acc)
    u2n, r = 2 * n * 2.0 ** -53, (alpha * n) ** alpha / n
    err = u2n / (1.0 - u2n) * acc[1] + np.exp(log_e + n * np.log(s)) * r / (1.0 - r * s)
    tol_abs = max(tol * 1e-2, 1e-15) * np.maximum(np.exp(wright_log_envelope(alpha, s)), 1e-4)
    return acc[0], err <= np.maximum(tol_abs, tol * np.abs(acc[0]))


def _wright_series_moment(alpha: float, gamma: float, lo: float = 0.0) -> float:
    """int_lo^1 s^gamma M_alpha(s) ds, 0 <= lo < 1 (gamma > -1 at lo = 0): sum_k
    c_k (1 - lo^p) / p, p = k + gamma + 1, with 1 - lo^p = -expm1(p ln lo), the
    p = 0 term c_0 ln(1/lo) and every term c_k / p at lo = 0, over the terms of
    `_wright_series_table`, whose envelope bounds the terms dropped. Refused
    where n 1.1e-16 max|term| exceeds tol |sum|."""
    c, _ = _wright_series_table(alpha)
    p = np.arange(c.size) + gamma + 1.0
    if lo > 0.0:
        c = np.where(p == 0.0, -math.log(lo) * c, c * -np.expm1(p * math.log(lo)))
        p[p == 0.0] = 1.0
    terms = c / p
    value = math.fsum(terms)
    if not c.size * 1.1e-16 * np.abs(terms).max() <= _WRIGHT_SERIES_TOL * abs(value):
        raise UnreliableEvaluationError(f"M_alpha moment series at alpha={alpha}, "
                                        f"gamma={gamma} misses its certificate")
    return value


def _wright_m_array(alpha: Alpha | float, s: np.ndarray) -> np.ndarray:
    """M_alpha at each node of a 1-D array s >= 0 in one pass: 1/Gamma(1-alpha)
    at s = 0, the saddle contour from s = 1 on, where the series cancels, and
    the double series below. A node the contour declines, or whose series sum
    misses its certificate, raises UnreliableEvaluationError."""
    alpha = _wright_alpha(alpha)
    value = np.full(s.shape, np.nan)
    value[s == 0.0] = reciprocal_gamma(1.0 - alpha)
    big = s >= 1.0
    value[big] = _wright_contour(alpha, s[big])
    small = (s > 0.0) & ~big
    if small.any():  # the series table is built only for nodes below 1
        series, certified = _wright_series(alpha, s[small])
        value[small] = np.where(certified, series, np.nan)
    if np.isnan(value).any():
        raise UnreliableEvaluationError(f"M_alpha refused at alpha={alpha}, s={s[np.isnan(value)]}: "
                                        "a declined contour node or an uncertified series sum")
    return value


def wright_m_info(alpha: Alpha | float, s: float) -> WrightEval:
    """M_alpha(s) and its rule: "exact" at s = 0, "series" below s = 1,
    "contour-saddle" from s = 1 on (a one-node pass)."""
    s = float(s)
    if not 0.0 <= s < math.inf:
        raise ValueError(f"s must be finite and nonnegative, got {s}")
    method = "exact" if s == 0.0 else "series" if s < 1.0 else "contour-saddle"
    return WrightEval(float(_wright_m_array(alpha, np.array([s]))[0]), method)


def wright_m(alpha: Alpha | float, s: float) -> float:
    """Wright-type density M_alpha(s) >= 0 on s >= 0, a double certified to
    1e-12 relative; UnreliableEvaluationError where a rule refuses the node,
    never a silently wrong number."""
    return wright_m_info(alpha, s).value
