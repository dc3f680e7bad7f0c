"""Wright-subordination integrals over the density M_alpha.

Realizes the scalar subordination formula E_alpha(-x) = int_0^inf
M_alpha(s) exp(-s x) ds, the power-moment identities of M_alpha, and the
endpoint demonstrators: the constant int M_alpha(s) s^{-beta} ds that blows
up as beta -> 1 and the logarithmic divergence of int_eps s^{-1} M_alpha.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import QuadratureError
from .special_functions import (
    Alpha,
    _fit_line,
    _wright_alpha,
    _wright_m_array,
    _wright_series_moment,
    reciprocal_gamma,
    wright_log_envelope,
)

__all__ = [
    "subordinate_scalar",
    "wright_mass_nodes",
    "wright_moment",
    "wright_moments",
    "subordination_constant",
    "EndpointDivergenceProfile",
    "endpoint_divergence_profile",
]

# the one panel schedule of every integral of M_alpha over s in (0, inf): the
# cut adapts to the density's decay envelope up to the ceiling _UPPER_CUT, and
# the tail beyond it, the one truncation, is dropped only when its sampled
# bound is at most _TARGET_TOL (QuadratureError otherwise), once per (alpha,
# weight) in _certified_cut. Gauss-Legendre panels of _NODES_PER_PANEL nodes,
# one rule for every table: _PANELS of them on [_S_FLOOR, cut], fewer on a
# shorter interval or past M_alpha's collapse (see _panel_edges). Each table
# starts at 0 or at 1: below 1 the moments and the endpoint profile integrate
# M_alpha's series term by term. No table is checked against a refined copy: a
# moment is checked against its Gamma-ratio identity, the profile against its closed form
_UPPER_CUT = 40.0
_PANELS = 48
_NODES_PER_PANEL = 16
_TARGET_TOL = 1e-10

_S_FLOOR = 1e-6  # first panel covers [0, _S_FLOOR]; integrands are bounded there

# the panels' Gauss-Legendre rule on [-1, 1] as read-only constants,
# numpy.polynomial.legendre.leggauss(_NODES_PER_PANEL) bit for bit (its
# nodes odd and weights even about 0): a table build runs no eigensolve and
# loads no numpy.polynomial
_LEGENDRE_NODES = np.array([
    0.09501250983763744, 0.2816035507792589, 0.45801677765722737, 0.6178762444026438,
    0.755404408355003, 0.8656312023878318, 0.9445750230732326, 0.9894009349916499])
_LEGENDRE_NODES = np.concatenate((-_LEGENDRE_NODES[::-1], _LEGENDRE_NODES))
_LEGENDRE_WEIGHTS = np.array([
    0.18945061045506864, 0.18260341504492364, 0.16915651939500265, 0.1495959888165767,
    0.12462897125553407, 0.0951585116824926, 0.062253523938647456, 0.027152459411754176])
_LEGENDRE_WEIGHTS = np.concatenate((_LEGENDRE_WEIGHTS[::-1], _LEGENDRE_WEIGHTS))
_LEGENDRE_NODES.setflags(write=False)
_LEGENDRE_WEIGHTS.setflags(write=False)


def _tail_bound(alpha: float, cut: float, weight_exp: float) -> float:
    """Upper bound on int_cut^inf f(s) ds, f(s) = s^weight_exp M_alpha(s),
    from M_alpha sampled on the grid s_k = cut 1.05^k up to the first node
    past 50 cut + 200, or one node past the first below an e^-700 envelope
    (beyond, M_alpha is 0 in double precision); inf where f does not fall
    across the nodes. Where it falls, f(s_k)(s_k+1 - s_k) bounds each cell's
    integral; past the last node these terms fall at least as fast as their
    last ratio r < 1 (the stretched exponential decays ever faster):
    r / (1 - r) last terms."""
    s = cut * 1.05 ** np.arange(int(math.log(50.0 + 200.0 / cut) / math.log(1.05)) + 2)
    s = s[:np.argmax(np.r_[wright_log_envelope(alpha, s), -np.inf] < -700.0) + 2]
    f = _wright_m_array(alpha, s) * s ** weight_exp
    terms = f * (0.05 * s)
    prev, last = terms[-2:]
    if np.any(np.diff(f) > 0.0) or 0.0 < prev <= last:
        return math.inf
    return float(terms.sum() + (last * last / (prev - last) if last > 0.0 else 0.0))


@lru_cache(maxsize=512)
def _certified_cut(alpha: float, weight_exp: float) -> float:
    """The smallest s (up to _UPPER_CUT) beyond which the envelope tail of
    s^weight_exp * M_alpha(s) is negligible at _TARGET_TOL * 1e-3; refused
    unless `_tail_bound` on the tail it drops is at most _TARGET_TOL."""
    log_target = math.log(_TARGET_TOL * 1e-3) - 7.0
    # s = 1.01 * 1.05^j < _UPPER_CUT by repeated products (alpha near 1
    # collapses past 1)
    s = np.cumprod(np.r_[1.01, np.full(int(math.log(_UPPER_CUT) / math.log(1.05)) + 2, 1.05)])
    s = s[s < _UPPER_CUT]
    ls = np.log(s)
    hit = np.flatnonzero(wright_log_envelope(alpha, s) + weight_exp * ls + ls < log_target)
    cut = float(s[hit[0]]) if hit.size else _UPPER_CUT
    bound = _tail_bound(alpha, cut, weight_exp)
    if not bound <= _TARGET_TOL:  # a NaN bound is refused too
        raise QuadratureError(
            f"tail bound {bound:.3e} beyond s={cut:.2f} exceeds the target {_TARGET_TOL}")
    return cut


def _panel_edges(alpha: float, lo: float, hi: float) -> list[float]:
    """Panel edges on [lo, hi] adapted to M_alpha.

    For moderate alpha, _PANELS geometric panels suffice, fewer on an interval
    shorter in log s than [_S_FLOOR, 1] (none wider than there). Close to
    alpha = 1 the density spikes toward a Dirac profile at s = 1: it rises like
    s^m with m = (alpha-1/2)/(1-alpha) and collapses like exp(-b s^{1/(1-alpha)}),
    both extremely steep. There the edges advance in equal increments of phi(s)
    = m log s + b s^{1/(1-alpha)} (the log-variation of the envelope), which
    clusters panels exactly where the integrand moves, until an edge
    past s = 1 where the envelope is below _TARGET_TOL * 1e-4: one panel runs
    from there to hi. Geometric panels cover [lo, 0.5], as many as the same
    rule puts on [lo, 1].
    """
    # round-off must not add a panel: 48 ln(1e4) / ln(1e6) is 32.00000000000001
    count = min(_PANELS, math.ceil(round(_PANELS * math.log(
        (hi if alpha <= 0.85 else 1.0) / lo) / math.log(1.0 / _S_FLOOR), 9)))
    if alpha <= 0.85:
        return np.geomspace(lo, hi, count + 1).tolist()
    m = (alpha - 0.5) / (1.0 - alpha)
    b = (1.0 - alpha) * alpha ** (alpha / (1.0 - alpha))
    inv = 1.0 / (1.0 - alpha)
    edges = np.geomspace(lo, 0.5, count + 1).tolist() if lo < 0.5 < hi else [lo]
    s = edges[-1]
    while s < hi:
        if s > 1.0 and wright_log_envelope(alpha, s) < math.log(_TARGET_TOL * 1e-4):
            s = hi  # M_alpha has collapsed
        else:
            s = min(s + 1.5 / max(m / s + b * inv * s ** (inv - 1.0), 1e-12), hi)
        edges.append(s)
    return edges


def _gauss_panels(edges: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the _NODES_PER_PANEL-point Gauss-Legendre rule
    on each panel between the edges, panel by panel."""
    e = np.asarray(edges)
    mid, hl = 0.5 * (e[:-1] + e[1:])[:, None], 0.5 * (e[1:] - e[:-1])[:, None]
    return (mid + hl * _LEGENDRE_NODES).ravel(), (hl * _LEGENDRE_WEIGHTS).ravel()


def _panel_masses(alpha: float, edges: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """(nodes, Gauss weight * M_alpha(node)) of the panels between the edges,
    the density sampled at every node in one pass. A negative or NaN mass
    raises QuadratureError (M_alpha is >= 0)."""
    nodes, weights = _gauss_panels(edges)
    mass = weights * _wright_m_array(alpha, nodes)
    if not np.all(mass >= 0.0):
        raise QuadratureError("the Wright mass table has a negative or NaN mass "
                              "(the density M_alpha is >= 0)")
    return nodes, mass


@lru_cache(maxsize=512)
def _density_table(alpha: float, lo: float, cut: float) -> tuple[np.ndarray, np.ndarray]:
    """The read-only table of the adapted panels on [lo, cut], built and
    checked once per (alpha, lower limit, certified cut): every weight
    whose certificate gives that cut, every x and Fourier mode read it.
    lo = 0 puts one panel [0, _S_FLOOR] first."""
    nodes, mass = _panel_masses(alpha, ([0.0] if lo == 0.0 else [])
                                + _panel_edges(alpha, lo if lo > 0.0 else _S_FLOOR, cut))
    nodes.setflags(write=False)
    mass.setflags(write=False)
    return nodes, mass


def wright_mass_nodes(alpha: Alpha | float) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature nodes s_i and masses w_i M_alpha(s_i) such that
    int_0^inf M_alpha(s) f(s) ds ~= sum_i mass_i f(s_i).

    The solver's and `subordinate_scalar`'s one table (weight 0 on [0, cut]);
    QuadratureError on an uncertified tail or a negative or NaN mass."""
    a = _wright_alpha(alpha)
    return _density_table(a, 0.0, _certified_cut(a, 0.0))


# heat factors below exp(-_FLUSH) ~ 1e-150 are exact zeros: no exp lane takes
# numpy's slow underflow path, no table product is subnormal, and a flushed
# multiplier lies below the unflushed one by at most exp(-_FLUSH) sum(mass)
_FLUSH = 345.0


def _heat_factors(x: np.ndarray, nodes: np.ndarray, work=None) -> np.ndarray:
    """exp(-x_u s_i), x_u >= 0 in any order and the nodes s_i ascending,
    flushed to 0 where x_u s_i > _FLUSH; written over the leading U K floats
    of `work` (else of a new ceil(9 U K / 8)), the flush mask in the spare
    bytes past them. The exponent -x s^T is one rank-1 BLAS product (one
    rounded product per entry, as a broadcast multiply gives). The largest x
    flushes the lanes [m, K); every lane below m is unflushed in every row,
    so only [m, K) is clamped and masked (one mask byte a lane)."""
    size = x.size * nodes.size
    work = np.empty(-(-9 * size // 8)) if work is None else work
    f = work[:size].reshape(x.size, nodes.size)
    np.dot(-x[:, None], nodes[None, :], out=f)
    m = np.count_nonzero(~(-x.max() * nodes < -_FLUSH))
    tail = f[:, m:]
    far = work[size:].view(bool)[:tail.size].reshape(tail.shape)
    np.less(tail, -_FLUSH, out=far)
    np.maximum(tail, -_FLUSH, out=tail)
    np.exp(f, out=f)
    tail[far] = 0.0
    return f


def _heat_sum(nodes: np.ndarray, mass: np.ndarray, x: np.ndarray, work=None) -> np.ndarray:
    """sum_i mass_i exp(-x_u s_i) at each x_u >= 0 of a 1D array by `_heat_factors`
    (`work` goes to it); the lanes the smallest x flushes, all rows do: left out."""
    m = np.count_nonzero(~(-x.min() * nodes < -_FLUSH))
    return _heat_factors(x, nodes[:m], work) @ mass[:m]


def subordinate_scalar(alpha: Alpha | float, x: float) -> float:
    """int_0^inf M_alpha(s) exp(-s x) ds, the subordination representation
    of E_alpha(-x) built from the heat kernel exp(-s x): the solver's
    multiplier at one x, bit for bit (`_heat_sum` over `wright_mass_nodes`)."""
    x = float(x)
    if not x >= 0.0:  # NaN too; x = inf gives the limit 0
        raise ValueError(f"x must be nonnegative, got {x}")
    return float(_heat_sum(*wright_mass_nodes(alpha), np.array([x]))[0])


def _upper_moment(alpha: float, gamma: float) -> float:
    """int_1^inf s^gamma M_alpha(s) ds on the [1, cut] table of the cut
    certified at the weight max(gamma, 3): every gamma <= 3 shares one, as
    s^3 bounds s^gamma past every cut (>= 1.01); a larger gamma reads the
    table of its own cut, which other weights may share."""
    nodes, mass = _density_table(alpha, 1.0, _certified_cut(alpha, max(gamma, 3.0)))
    return float(np.dot(mass, nodes ** gamma))


def wright_moments(alpha: Alpha | float, gammas: Sequence[float]) -> list[float]:
    """int_0^inf s^gamma M_alpha(s) ds for each finite gamma > -1 of a sequence.

    Alpha and every gamma are checked first. The [0, 1] part is the series
    of M_alpha integrated term by term, certified on its own; the [1, inf)
    part is one panel table per certified cut. No value is checked here
    against a refined table of its own: the callers that print a moment
    check it against Gamma(gamma+1)/Gamma(gamma*alpha+1). Each value is bit
    for bit its one-weight call.
    """
    a = _wright_alpha(alpha)
    gammas = [float(g) for g in gammas]
    for gamma in gammas:
        if not math.isfinite(gamma):
            raise ValueError(f"gamma must be finite, got {gamma}")
        if gamma <= -1.0:
            raise ValueError(
                f"gamma must exceed -1, got {gamma}: int s^gamma M_alpha(s) ds diverges "
                "at s=0 for gamma <= -1 (the endpoint mechanism)"
            )
    return [_wright_series_moment(a, gamma) + _upper_moment(a, gamma) for gamma in gammas]


def wright_moment(alpha: Alpha | float, gamma: float) -> float:
    """int_0^inf s^gamma M_alpha(s) ds, gamma > -1: the one-weight call of
    `wright_moments`. It computes the integral apart from its identity value
    Gamma(gamma+1)/Gamma(gamma*alpha+1) (the series on [0, 1], panels beyond),
    so the identity can be *checked*, not assumed.
    """
    return wright_moments(alpha, [gamma])[0]


def subordination_constant(alpha: Alpha | float, beta: float) -> float:
    """The subordination-route decay constant int_0^inf M_alpha(s) s^{-beta} ds.

    Finite exactly for beta < 1 and strictly increasing in beta; it blows
    up as beta -> 1, which is what denies the subordination route the
    endpoint exponent. Equals Gamma(1-beta)/Gamma(1-alpha*beta), computed
    as the moment at gamma = -beta, apart from that closed form (against
    which `decay-compare` checks every value it prints); `wright_moments`
    at several -beta gives the same values, bit for bit.
    """
    beta = float(beta)
    if not 0.0 < beta < 1.0:
        raise ValueError(
            f"beta must lie in (0, 1), got {beta}: at beta >= 1 the integral "
            "diverges — the endpoint restriction of the subordination route"
        )
    return wright_moment(alpha, -beta)


@dataclass(frozen=True)
class EndpointDivergenceProfile:
    """I(eps) = int_eps^inf s^{-1} M_alpha(s) ds sampled at decreasing eps.

    slope is the closed-form least-squares slope of I(eps) against ln(1/eps);
    it converges to M_alpha(0) = 1/Gamma(1-alpha), exhibiting the logarithmic
    divergence of the borderline integral.
    """

    alpha: float
    eps: tuple[float, ...]
    integral: tuple[float, ...]
    slope: float
    intercept: float
    expected_slope: float


def endpoint_divergence_profile(alpha: Alpha | float,
                                eps_list: Sequence[float]) -> EndpointDivergenceProfile:
    """I(eps_k) = int_eps_k^inf s^-1 M_alpha(s) ds at each of at least two
    eps values in (0, 1), strictly decreasing, with the fit of I against
    ln(1/eps).

    Each integral is a moment's two parts at gamma = -1: the series of M_alpha
    integrated term by term on [eps_k, 1] and the moments' cached [1, cut]
    table, whose dropped tail is certified. The tests check each value against
    its closed form, (ln(1/eps) - gamma_E - alpha psi(1-alpha))/Gamma(1-alpha)
    - sum_k c_k eps^k/k.
    """
    a = _wright_alpha(alpha)
    eps = [float(e) for e in eps_list]
    if len(eps) < 2:
        raise ValueError("need at least two eps values")
    if not all(0.0 < e < 1.0 for e in eps):
        raise ValueError("eps values must lie in (0, 1)")
    if not all(b < a0 for a0, b in zip(eps[:-1], eps[1:])):
        raise ValueError("eps values must decrease toward 0")

    upper = _upper_moment(a, -1.0)
    values = [_wright_series_moment(a, -1.0, e) + upper for e in eps]
    slope, intercept = _fit_line(-np.log(np.asarray(eps)), np.asarray(values))
    return EndpointDivergenceProfile(
        alpha=a,
        eps=tuple(eps),
        integral=tuple(values),
        slope=slope,
        intercept=intercept,
        expected_slope=reciprocal_gamma(1.0 - a),
    )
