"""Tests for the Mittag-Leffler and Wright evaluators.

Reference values were frozen from an independent 50+ digit arbitrary-
precision summation of the defining series.
"""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.special import erfcx

from fracheat.errors import UnreliableEvaluationError
from fracheat.special_functions import (
    Alpha,
    _HANKEL_ALPHA_CAP,
    _HANKEL_FAR_X,
    _fit_line,
    _hankel_rule,
    mittag_leffler_contour,
    mittag_leffler_neg,
    mittag_leffler_neg_info,
    _log_abs_reciprocal_gamma,
    _ml_hankel,
    _ml_neg,
    _ml_real_axis,
    _wright_contour,
    _wright_contour_geometry,
    _wright_m_array,
    _wright_series,
    _wright_series_coeffs,
    _wright_series_moment,
    _WRIGHT_SERIES_TOL,
    reciprocal_gamma,
    wright_log_envelope,
    wright_m,
    wright_m_info,
)
from fracheat import special_functions, subordination
from fracheat.subordination import wright_mass_nodes

import mp_reference

# (alpha, x, E_alpha(-x)) frozen from 50-digit series summation
ML_REFERENCE = [
    (0.25, 1.0, 0.46385276080171328694),
    (0.5, 1.0, 0.42758357615580700441),
    (0.75, 10.0, 0.030643250976059637773),
    (0.9, 0.1, 0.90175694244985939814),
    (0.5, 100.0, 0.0056416137829894329036),
    (0.3, 5.0, 0.13708086902027063758),
]

# (alpha, x, E_alpha(-x)) near alpha = 1, frozen from 60+ digit series
# summation: the poles of the real-axis integrand at +-i pi (1-alpha)/alpha
# near the real axis make a rule whose node offset is not snapped to half a
# step resonate here
ML_NEAR_ONE_REFERENCE = [
    (0.9864, 1e-09, 0.99999999899429372809),
    (0.9864, 1.0, 0.36879797797867034085),
    (0.9864, 30.0, 0.00049003801098717923285),
    (0.9913, 1e-09, 0.99999999899633954563),
    (0.9913, 1.0, 0.368459307055337813),
    (0.9913, 30.0, 0.00031280802688798750559),
    (0.9919, 1e-09, 0.99999999899659084233),
    (0.9919, 1.0, 0.36841843083802203509),
    (0.9919, 30.0, 0.00029115750441745329073),
    (0.9964, 1e-09, 0.99999999899848100671),
    (0.9964, 1.0, 0.36811602669865581143),
    (0.9964, 30.0, 0.00012914194221944003398),
    (0.9999, 1e-09, 0.9999999989999577244),
    (0.9999, 1.0, 0.36788594845385097629),
    (0.9999, 30.0, 3.5815308894603460274e-6),
]

# (alpha, s, M_alpha(s)) frozen from 80-digit series summation
WRIGHT_REFERENCE = [
    (0.25, 0.5, 0.56796881884076957626),
    (0.5, 2.0, 0.20755374871029735167),
    (0.75, 1.5, 0.54873786222645633374),
    (0.6, 3.0, 0.040521472224541041956),
    (0.3, 0.0, 0.77038318386656599884),  # = 1/Gamma(0.7)
]


class TestAlpha:
    def test_valid_range(self):
        assert Alpha(0.5).value == 0.5
        assert Alpha(1.0).value == 1.0

    @pytest.mark.parametrize("bad", [0.0, -0.3, 1.5, math.nan])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(ValueError):
            Alpha(bad)

    def test_coerce_idempotent(self):
        a = Alpha(0.7)
        assert Alpha.coerce(a) == 0.7
        assert Alpha.coerce(0.7) == 0.7


class TestGammaHelpers:
    def test_reciprocal_gamma_zero_at_poles(self):
        assert reciprocal_gamma(0.0) == 0.0
        assert reciprocal_gamma(-3.0) == 0.0
        assert reciprocal_gamma(0.5) == pytest.approx(1.0 / math.sqrt(math.pi))

    @pytest.mark.parametrize("x", [-0.5, -1.5, -2.5, -3.25, -7.9, -40.3, -170.5,
                                   -1.0 + 1e-12, -1.0 - 1e-12, -4.0 + 1e-12, -4.0 - 1e-12,
                                   -1e-12, 1e-12, 0.3, 5.5, 300.0])
    def test_log_and_sign_of_reciprocal_gamma(self, x):
        lr, sign = _log_abs_reciprocal_gamma(x)
        ref = mp.rgamma(mp.mpf(x))
        assert sign == (1.0 if ref > 0 else -1.0)
        assert lr == pytest.approx(float(mp.log(abs(ref))), rel=1e-14, abs=1e-14)

    @pytest.mark.parametrize("x", [0.0, -1.0, -2.0, -171.0, -1e15])
    def test_log_reciprocal_gamma_at_poles(self, x):
        assert _log_abs_reciprocal_gamma(x) == (-math.inf, 0.0)

    def test_reciprocal_gamma_overflow(self):
        # |1/Gamma| passes the double range deep on the negative axis
        assert reciprocal_gamma(-200.5) == -math.inf
        assert reciprocal_gamma(-201.5) == math.inf
        assert reciprocal_gamma(-170.5) == pytest.approx(float(mp.rgamma(-170.5)), rel=1e-12)
        assert reciprocal_gamma(1e306) == 0.0

    def test_reciprocal_gamma_rejects_nan_and_minus_inf(self):
        # NaN once gave 0.0 and -inf an OverflowError from math.floor; +inf
        # keeps the limit 0
        for x in (math.nan, -math.inf):
            with pytest.raises(ValueError, match=f"got {x}"):
                reciprocal_gamma(x)
        assert reciprocal_gamma(math.inf) == 0.0


class TestFitLine:
    @pytest.mark.parametrize("x, slope, intercept", [
        (1e6 + np.linspace(-10.0, 10.0, 9), -0.75, 3.0),  # offset far from 0
        (1e-8 * np.arange(1.0, 6.0), 2e8, -1.0),  # tiny
        (np.log(np.logspace(-3, 3, 13)), -1.5, 0.25),  # log-spaced
        (np.array([1.0, 3.0]), -3.0, 5.0),  # two points
    ])
    def test_recovers_an_exact_line(self, x, slope, intercept):
        fit = _fit_line(x, slope * x + intercept)
        assert fit == (pytest.approx(slope, rel=1e-12), pytest.approx(intercept, rel=1e-12))

    @pytest.mark.parametrize("eps", [list(np.logspace(-2, -5, 8)), [0.5, 0.1, 1e-2, 1e-3]])
    def test_agrees_with_polyfit_on_endpoint_profiles(self, eps):
        # np.polyfit (an SVD least-squares solve) is the reference; over 40
        # alphas in [0.02, 0.99] on these lists the closed form stayed within
        # 1.2e-15 relative in the slope and 6.2e-15 absolute in the intercept
        x = -np.log(np.asarray(eps))
        for alpha in np.linspace(0.05, 0.95, 10):
            prof = subordination.endpoint_divergence_profile(float(alpha), eps)
            slope, intercept = np.polyfit(x, np.asarray(prof.integral), 1)
            assert (prof.slope, prof.intercept) == _fit_line(x, np.asarray(prof.integral))
            assert prof.slope == pytest.approx(slope, rel=1e-14)
            assert prof.intercept == pytest.approx(intercept, rel=0.0, abs=2e-14)


class TestMittagLeffler:
    @pytest.mark.parametrize("alpha,x,expected", ML_REFERENCE)
    def test_reference_values(self, alpha, x, expected):
        assert mittag_leffler_neg(alpha, x) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("alpha,x,expected", ML_NEAR_ONE_REFERENCE)
    def test_reference_values_near_alpha_one(self, alpha, x, expected):
        assert mittag_leffler_neg(alpha, x) == pytest.approx(expected, rel=1e-13, abs=0.0)

    @given(
        alpha=st.floats(min_value=0.05, max_value=0.9999),
        x=st.one_of(st.just(0.0), st.floats(min_value=1e-12, max_value=4e8)),
    )
    @settings(max_examples=60, deadline=None)
    def test_simon_bounds(self, alpha, x):
        # 1/(1 + Gamma(1-alpha) x) <= E_alpha(-x) <= 1/(1 + x/Gamma(1+alpha))
        # for 0 < alpha < 1 (Simon 2014, EJP 19); an independent check of
        # every route, with the Hankel rule at its certified 1e-12
        lower = 1.0 / (1.0 + math.gamma(1.0 - alpha) * x)
        upper = 1.0 / (1.0 + x / math.gamma(1.0 + alpha))
        values = [(mittag_leffler_neg(alpha, x), 1e-13)]
        if x > 0.0 and alpha <= _HANKEL_ALPHA_CAP:
            values.append((mittag_leffler_contour(alpha, x), 1e-12))
        for v, slack in values:
            assert lower * (1.0 - slack) <= v <= upper * (1.0 + slack)

    @pytest.mark.parametrize("alpha", [0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.975, 0.995])
    def test_real_axis_rule_matches_arbitrary_precision_sums(self, alpha):
        # 17 log points of [1e-8, 1e8], and t = x^(1/alpha) = 10, 40 and 79
        # below the power series cut t = 80, in one array call
        x = np.concatenate((np.logspace(-8.0, 8.0, 17), [10.0 ** alpha, 40.0 ** alpha,
                                                        79.0 ** alpha]))
        ref = np.array([mp_reference.ml_neg(alpha, v) for v in x.tolist()])
        assert np.all(np.abs(_ml_neg(alpha, x) - ref) <= 1e-14 * ref)

    @pytest.mark.parametrize("alpha", [0.975, 0.99])
    def test_real_axis_nodes_near_the_peak_are_exact_lattice_points(self, alpha):
        # near alpha = 1 the integrand peaks at u = 0 with width about
        # sqrt(s2)/alpha; nodes formed as lo + h k, |lo| ~ 20, carry ulp(lo)
        # there and miss this bound at alpha 0.975 (1.2e-14), while nodes formed
        # from their integer index keep it
        x = np.logspace(-8.0, -2.0, 33)
        ref = np.array([mp_reference.ml_neg(alpha, v) for v in x.tolist()])
        assert np.all(np.abs(_ml_neg(alpha, x) - ref) <= 5e-15 * ref)

    @given(
        alpha=st.floats(min_value=0.05, max_value=1.0, exclude_max=True),
        xs=st.lists(st.one_of(st.just(0.0), st.floats(min_value=1e-300, max_value=1e300)),
                    min_size=1, max_size=24).flatmap(st.permutations),
    )
    @settings(max_examples=60, deadline=None)
    def test_real_axis_rule_is_row_independent(self, alpha, xs):
        # each x on its own lattice window and padded width: a shuffled
        # batch equals its one-row calls, bit for bit
        x = np.array(xs)
        assert np.array_equal(_ml_neg(alpha, x), [mittag_leffler_neg(alpha, v) for v in xs])
        pos = x[x > 0.0]
        rows = [_ml_real_axis(alpha, pos[i:i + 1]) for i in range(pos.size)]
        value, nodes = _ml_real_axis(alpha, pos)
        assert np.array_equal(value, [v[0] for v, _ in rows])
        assert np.array_equal(nodes, [n[0] for _, n in rows])

    def test_array_rule_leading_asymptotics_at_the_top_of_the_double_range(self):
        # the batch form of the scalar check below, x = 1e300 among others
        x = np.array([1e-12, 1.0, 1e300, 1e6])
        for alpha in (0.05, 0.3, 0.7, 0.99):
            lead = 1.0 / x[2] / math.gamma(1.0 - alpha)
            assert _ml_real_axis(alpha, x)[0][2] == pytest.approx(lead, rel=1e-12, abs=0.0)

    def test_alpha_one_is_exp(self):
        for x in np.linspace(0.0, 30.0, 31):
            assert mittag_leffler_neg(1.0, float(x)) == pytest.approx(
                math.exp(-x), abs=1e-14)

    def test_half_alpha_is_scaled_erfc(self):
        # E_{1/2}(-x) = exp(x^2) erfc(x)
        for x in np.logspace(-3, 2, 40):
            assert mittag_leffler_neg(0.5, float(x)) == pytest.approx(
                float(erfcx(x)), rel=1e-13)

    def test_value_at_zero(self):
        assert mittag_leffler_neg(0.5, 0.0) == 1.0

    def test_rejects_negative_x(self):
        with pytest.raises(ValueError):
            mittag_leffler_neg(0.5, -1.0)

    def test_refuses_alpha_beyond_the_node_budget(self):
        # the rule would need 1,762,733 nodes; refused before allocating them
        with pytest.raises(UnreliableEvaluationError):
            mittag_leffler_neg(5e-5, 1.0)

    def test_smallest_alpha_within_the_node_budget_keeps_simons_bounds(self):
        # alpha 1e-4 takes 881,375 nodes at x = 1, where the arbitrary-
        # precision sums do not converge: Simon's bounds (Simon 2014, EJP 19)
        # are 4.1e-9 apart there
        alpha, x = 1e-4, 1.0
        value, method = mittag_leffler_neg_info(alpha, x)
        assert method == "real-axis[881375]"
        assert 1.0 / (1.0 + math.gamma(1.0 - alpha) * x) <= value
        assert value <= 1.0 / (1.0 + x / math.gamma(1.0 + alpha))

    def test_info_reports_method(self):
        value, method = mittag_leffler_neg_info(0.5, 1.0)
        assert isinstance(method, str) and method
        assert value == pytest.approx(0.42758357615580700441, rel=1e-12)

    def test_large_argument_asymptotic_regime(self):
        # E_alpha(-x) ~ 1/(x Gamma(1-alpha)) for large x
        for alpha in (0.25, 0.5, 0.75):
            x = 1e6
            lead = 1.0 / (x * math.gamma(1.0 - alpha))
            assert mittag_leffler_neg(alpha, x) == pytest.approx(lead, rel=1e-4)

    @pytest.mark.parametrize("alpha", [0.05, 0.3, 0.7, 0.99])
    def test_leading_asymptotics_near_the_top_of_the_double_range(self, alpha):
        # the O(x^-2) correction is far below round-off at x = 1e300
        x = 1e300
        lead = 1.0 / x / math.gamma(1.0 - alpha)
        assert mittag_leffler_neg(alpha, x) == pytest.approx(lead, rel=1e-12, abs=0.0)

    @given(
        alpha=st.floats(min_value=0.05, max_value=1.0),
        x=st.floats(min_value=0.0, max_value=1e4),
    )
    @settings(max_examples=60, deadline=None)
    def test_range_property(self, alpha, x):
        # the value may underflow to 0.0 for alpha=1 and very large x
        v = mittag_leffler_neg(alpha, x)
        assert 0.0 <= v <= 1.0

    @given(alpha=st.floats(min_value=0.1, max_value=0.99))
    @settings(max_examples=25, deadline=None)
    def test_monotone_decreasing_in_x(self, alpha):
        xs = np.logspace(-2, 3, 30)
        vals = [mittag_leffler_neg(alpha, float(x)) for x in xs]
        assert all(b < a for a, b in zip(vals[:-1], vals[1:]))

    def test_complete_monotonicity_finite_differences(self):
        # (-1)^k Delta^k E_alpha(-x) >= 0 up to rounding, orders 1-4
        h = 0.05
        xs = np.arange(0.1, 20.0, 0.25)
        for alpha in (0.3, 0.5, 0.8):
            # one array call; batch and one-row values are bit-identical
            vals = _ml_neg(alpha, np.add.outer(xs, h * np.arange(5)).ravel()).reshape(-1, 5)
            diff = vals
            for order in range(1, 5):
                diff = np.diff(diff, axis=1)
                signed = (-1.0) ** order * diff
                assert signed.min() >= -1e-9, f"order {order} at alpha={alpha}"


def _hankel_complex(alpha, x):
    """(E_alpha(-x), the sum of its terms' magnitudes) by the 32-node rule as
    a complex sum over every node: the near form up to x = 1, the
    1/Gamma(1-alpha) form past it."""
    if x == 0.0:
        return 1.0, 1.0
    n = 32
    theta = (2.0 * np.arange(n) - (n - 1)) * (math.pi / n)
    g = n * (0.1309 - 0.1194 * theta ** 2 + 0.25j * theta)
    dg = n * (0.25j - 0.2388 * theta)
    w = np.exp(g) * g ** (alpha - 1.0) * dg / (1j * n)
    ga = g ** alpha
    r = 1.0 / (ga + x)
    if x <= 1.0:
        return (r @ w).real, np.abs(r * w).sum()
    rg = reciprocal_gamma(1.0 - alpha)
    return (rg - (r @ (w * ga)).real) / x, (rg + np.abs(r * w * ga).sum()) / x


def _hankel_broadcast(alpha, x):
    """`_ml_hankel` as (x.size, 16) broadcast temporaries summed along their
    rows by numpy: the layout the node-major kernel replaced, kept as the
    reference for its bits."""
    nodes, rg = _hankel_rule(alpha)
    gr, gi2, *weights = np.array(nodes).T
    out = np.empty(x.shape)
    far = x > 1.0
    for sel, (wr, c), xs in ((~far, weights[:2], x[~far]),
                             (far, weights[2:], np.minimum(x[far], _HANKEL_FAR_X))):
        a = gr + xs[:, None]
        out[sel] = ((a * wr + c) / (a * a + gi2)).sum(axis=1)
    out[far] = (rg - out[far]) / x[far]
    out[x == 0.0] = 1.0
    return out


class TestContour:
    @given(
        alpha=st.floats(min_value=0.05, max_value=_HANKEL_ALPHA_CAP),
        xs=st.lists(st.one_of(st.just(0.0), st.floats(min_value=1e-12, max_value=1.0),
                              st.floats(min_value=1.0, max_value=1e150, exclude_min=True),
                              st.floats(min_value=1e150, max_value=np.finfo(float).max)),
                    min_size=1, max_size=40),
    )
    @settings(max_examples=300, deadline=None)
    def test_node_major_sum_is_the_broadcast_row_sum_bit_for_bit(self, alpha, xs):
        # each node's term on 1-D vectors, added in numpy's pairwise order for
        # a 16-term row, on unsorted values that mix both branches, x = 0 and
        # the far cap
        x = np.array(xs)
        assert _ml_hankel(alpha, x).tobytes() == _hankel_broadcast(alpha, x).tobytes()

    @given(
        alpha=st.floats(min_value=0.05, max_value=_HANKEL_ALPHA_CAP),
        xs=st.lists(st.one_of(st.just(0.0), st.floats(min_value=1e-12, max_value=1e6)),
                    min_size=1, max_size=8),
    )
    @example(alpha=0.9845937482318322, xs=[8.64829416794424, 1.0, 0.0])
    @settings(max_examples=200, deadline=None)
    def test_conjugate_pairs_match_the_complex_sum(self, alpha, xs):
        # the 16 pairs in real arithmetic against the 32 complex terms, to the
        # rounding of the sums: their terms cancel near alpha = 1, where the
        # relative gap reaches 2.6e-13 (the example; within 1.8 eps of the
        # terms' magnitudes over 8 million random draws)
        got = _ml_hankel(alpha, np.array(xs))
        ref, mag = np.array([_hankel_complex(alpha, x) for x in xs]).T
        assert np.all(np.abs(got - ref) <= 8.0 * np.finfo(float).eps * mag)

    @pytest.mark.parametrize("alpha", [0.05, 0.5, 0.985])
    def test_far_tail_neither_overflows_nor_loses_the_leading_term(self, alpha):
        # past x = 1e150 the rule is 1/(x Gamma(1-alpha)) to round-off; up to
        # the largest double (a subnormal value there) neither a^2 nor
        # Re w a overflows
        x = np.array([1e150, 1e200, 1e300, np.finfo(float).max])
        with np.errstate(over="raise", invalid="raise"):
            got = _ml_hankel(alpha, x)
        assert np.allclose(got[:3] * x[:3], reciprocal_gamma(1.0 - alpha), rtol=1e-15, atol=0.0)
        assert 0.0 < got[3] < np.finfo(float).tiny

    @pytest.mark.parametrize("alpha", [0.5, 0.75, 0.9])
    @pytest.mark.parametrize("x", [0.1, 1.0, 10.0])
    def test_agrees_with_series(self, alpha, x):
        assert mittag_leffler_contour(alpha, x) == pytest.approx(
            mittag_leffler_neg(alpha, x), abs=1e-10)

    def test_reference_value(self):
        assert mittag_leffler_contour(0.5, 1.0) == pytest.approx(
            0.42758357615580700441, abs=1e-10)

    def test_rejects_x_zero_and_alpha_one(self):
        with pytest.raises(ValueError, match="requires x > 0"):
            mittag_leffler_contour(0.5, 0.0)
        with pytest.raises(ValueError, match="requires x > 0, got nan"):
            mittag_leffler_contour(0.5, math.nan)
        with pytest.raises(ValueError, match="requires 0 < alpha < 1"):
            mittag_leffler_contour(1.0, 1.0)


class TestWright:
    @pytest.mark.parametrize("alpha,s,expected", WRIGHT_REFERENCE)
    def test_reference_values(self, alpha, s, expected):
        assert wright_m(alpha, s) == pytest.approx(expected, rel=1e-11)

    def test_value_at_zero_is_reciprocal_gamma(self):
        for alpha in (0.2, 0.5, 0.9):
            assert wright_m(alpha, 0.0) == pytest.approx(
                1.0 / math.gamma(1.0 - alpha), rel=1e-14)

    def test_half_alpha_gaussian_identity(self):
        for s in np.linspace(0.0, 8.0, 81):
            exact = math.exp(-s * s / 4.0) / math.sqrt(math.pi)
            assert wright_m(0.5, float(s)) == pytest.approx(exact, abs=1e-10)

    def test_rejects_negative_s(self):
        with pytest.raises(ValueError):
            wright_m(0.5, -0.1)
        # the envelope once returned its s = 0 value for both; s = inf keeps
        # the limit -inf
        for s in (math.nan, -1.0):
            with pytest.raises(ValueError, match=f"s must be nonnegative, got {s}"):
                wright_log_envelope(0.5, s)
            with pytest.raises(ValueError, match="s must be nonnegative"):
                wright_log_envelope(0.5, np.array([0.5, s]))
        assert wright_log_envelope(0.5, math.inf) == -math.inf

    def test_rejects_alpha_one(self):
        with pytest.raises(ValueError):
            wright_m(1.0, 1.0)

    def test_info_metadata(self):
        res = wright_m_info(0.5, 2.0)
        assert res.method == "contour-saddle"
        assert res.value == pytest.approx(0.20755374871029735167, rel=1e-11)

    @given(
        alpha=st.floats(min_value=0.05, max_value=0.95),
        s=st.floats(min_value=0.0, max_value=30.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_nonnegative(self, alpha, s):
        assert wright_m(alpha, s) >= 0.0

    def test_deep_tail_near_alpha_one(self):
        # flank values far into the stretched-exponential tail stay finite
        v = wright_m(0.95, 5.0)
        assert 0.0 <= v < 1e-8


class TestWrightBatch:
    """The batched density that fills every mass table, pinned to the closed
    form M_{1/2}(s) = exp(-s^2/4)/sqrt(pi) and to the one-element path."""

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_half_alpha_closed_form_on_table_nodes(self, k):
        # the subordination identity's [0, cut] panels (k = 1), and k times
        # as many geometric panels on [1e-6, cut] for denser nodes
        cut = subordination._certified_cut(0.5, 0.0)
        edges = np.geomspace(1e-6, cut, 48 * k + 1).tolist()
        if k == 1:
            assert edges == subordination._panel_edges(0.5, 1e-6, cut)
        nodes, _ = subordination._gauss_panels([0.0] + edges)
        exact = np.exp(-nodes ** 2 / 4.0) / math.sqrt(math.pi)
        err = np.abs(_wright_m_array(0.5, nodes) - exact)
        assert err.max() <= 1e-15
        resolved = exact >= 1e-200
        assert (err[resolved] / exact[resolved]).max() <= 1e-13

    def test_declined_contour_node_is_refused(self, monkeypatch):
        # no rule stands in for a node the contour declines: the batch and
        # its one-node call raise
        monkeypatch.setattr(special_functions, "_wright_contour",
                            lambda alpha, s: np.full(s.shape, np.nan))
        with pytest.raises(UnreliableEvaluationError, match="refused at alpha=0.5"):
            _wright_m_array(0.5, np.array([0.0, 0.5, 2.0]))
        with pytest.raises(UnreliableEvaluationError):
            wright_m(0.5, 5.0)
        assert wright_m_info(0.5, 0.5) == (_wright_m_array(0.5, np.array([0.5]))[0], "series")

    def test_uncertified_series_node_is_refused(self, monkeypatch):
        monkeypatch.setattr(special_functions, "_wright_series",
                            lambda alpha, s: (np.zeros(s.shape), np.zeros(s.shape, dtype=bool)))
        with pytest.raises(UnreliableEvaluationError):
            _wright_m_array(0.5, np.array([0.5, 2.0]))
        assert wright_m(0.5, 2.0) == wright_m_info(0.5, 2.0).value > 0.0

    def test_every_node_is_finite_and_nonnegative(self):
        # the premise of the refusals: on s = 0, 500 nodes of (0, 1) down to
        # 1e-300 and 500 of [1, 1e6] from 1 and 1 + 1e-4 on, no rule refuses
        # at 40 alphas in [1e-4, 0.995]
        s = np.r_[0.0, np.geomspace(1e-300, 1.0, 500, endpoint=False),
                  1.0, 1.0 + 1e-4, np.geomspace(1.001, 1e6, 498)]
        for alpha in np.r_[np.geomspace(1e-4, 0.5, 20), np.linspace(0.5, 0.995, 21)[1:]]:
            value = _wright_m_array(float(alpha), s)
            assert np.all(np.isfinite(value) & (value >= 0.0)), alpha

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.75, 0.95])
    def test_one_element_call_is_the_table_value(self, alpha):
        nodes, _ = wright_mass_nodes(alpha)
        table = _wright_m_array(alpha, nodes)
        assert np.array_equal([wright_m(alpha, float(s)) for s in nodes], table)

    def test_rejects_alpha_above_cap(self):
        with pytest.raises(ValueError):
            _wright_m_array(0.999, np.array([0.5, 2.0]))


class TestWrightSeriesMoment:
    """int_0^1 s^gamma M_alpha(s) ds as the series integrated term by term,
    held to closed forms of the density that share no step with it."""

    GAMMAS = [-0.99, -0.5, 0.0, 0.5, 1.0, 3.0, 10.0]

    @pytest.mark.parametrize("gamma", GAMMAS)
    def test_half_alpha_incomplete_gamma(self, gamma):
        ref = mp_reference.half_alpha_lower_moment(gamma)
        assert _wright_series_moment(0.5, gamma) == pytest.approx(ref, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("gamma,lo", [
        (gamma, lo) for gamma in (-1.0, -0.99, -0.5, 0.0, 0.5, 2.0, 8.0)
        for lo in (0.0, 5e-324, 1e-300, 1e-8, 0.1, 0.5, 0.9, 0.99, 0.999999)
        if lo > 0.0 or gamma > -1.0])  # int_0^1 s^-1 M_alpha diverges
    def test_half_alpha_from_a_lower_limit(self, gamma, lo):
        # int_lo^1 against two upper incomplete gammas: every term's
        # 1 - lo^p, and c_0 ln(1/lo) at gamma = -1 (9.6e-16 measured)
        ref = mp_reference.half_alpha_lower_moment(gamma, lo)
        assert _wright_series_moment(0.5, gamma, lo) == pytest.approx(ref, rel=2e-15, abs=0.0)

    @pytest.mark.parametrize("gamma", GAMMAS)
    def test_third_alpha_airy(self, gamma):
        ref = mp_reference.third_alpha_lower_moment(gamma)
        assert _wright_series_moment(1.0 / 3.0, gamma) == pytest.approx(ref, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("alpha,terms", [(0.5, 64), (0.85, 64), (0.9, 128), (0.95, 256),
                                             (0.99, 1024), (0.995, 2048)])
    def test_table_doubles_until_the_envelope_falls(self, alpha, terms, monkeypatch,
                                                    fresh_wright_tables):
        # the one table built is the first doubled size whose envelope is
        # below 1e-17 at its last term, found from that term's closed form;
        # the envelope falls from its first term on, so it bounds every term
        # dropped
        sizes = []
        coeffs = special_functions._wright_series_coeffs
        monkeypatch.setattr(special_functions, "_wright_series_coeffs",
                            lambda a, n: sizes.append(n) or coeffs(a, n))
        _wright_series_moment(alpha, 0.0)
        assert sizes == [terms]
        for n in [64 * 2 ** j for j in range(int(math.log2(terms // 64)) + 1)]:
            log_e = coeffs(alpha, n)[2]
            assert np.all(np.diff(log_e) < 0.0)
            assert (log_e[-1] < math.log(1e-17)) == (n == terms)


class TestWrightSeries:
    """M_alpha below s = 1 by Horner's rule on the series' one table, and the
    two halves of its certificate: Horner's rounding bound and the bound on
    the terms the table drops."""

    @pytest.mark.parametrize("alpha", [0.5, 0.9, 0.95, 0.995])
    def test_nodes_read_the_moment_table(self, alpha, monkeypatch, fresh_wright_tables):
        # one truncation: the node values read the moment sum's coefficient
        # table, built once per alpha
        coeffs = special_functions._wright_series_coeffs
        sizes = []
        monkeypatch.setattr(special_functions, "_wright_series_coeffs",
                            lambda a, n: sizes.append(n) or coeffs(a, n))
        _wright_series_moment(alpha, 0.0)
        _wright_series(alpha, np.array([1e-3, 0.5, 0.99]))
        assert len(sizes) == 1

    @pytest.mark.parametrize("alpha", [0.05, 0.3, 0.6, 0.9, 0.995])
    def test_matches_arbitrary_precision_series(self, alpha):
        s = np.array([1e-6, 0.05, 0.3, 0.6, 0.9, 0.999])
        value, certified = _wright_series(alpha, s)
        assert certified.all()
        log_c, sign, _ = _wright_series_coeffs(alpha, 4096)
        for si, v in zip(s, value):
            log_terms = np.where(sign != 0.0, log_c + np.arange(log_c.size) * math.log(si), -np.inf)
            # 40 digits beyond the cancellation of the largest series term
            dps = 40 + int(max(log_terms.max() - math.log(v), 0.0) / math.log(10.0))
            ref = mp_reference.wright_series(alpha, float(si), dps)
            tol_abs = 1e-14 * max(math.exp(float(wright_log_envelope(alpha, si))), 1e-4)
            allowed = 1e-14 * ref if ref >= 1e-3 else max(tol_abs, _WRIGHT_SERIES_TOL * ref)
            assert abs(v - ref) <= allowed, (si, v, ref)

    def test_cancelling_sum_is_refused_by_the_rounding_bound(self, monkeypatch,
                                                             fresh_wright_tables):
        # 1 - 2 s is 0 at s = 1/2 with sum |c_k| s^k = 2: the rounding bound
        # gamma_128 * 2 = 2.8e-14 exceeds the absolute allowance 5.3e-15
        # there; at s = 1/8 the sum 3/4 is certified. The envelope is far
        # below 1e-17, so the dropped terms play no part
        monkeypatch.setattr(special_functions, "_wright_series_coeffs",
                            lambda alpha, n: (np.r_[0.0, math.log(2.0), np.full(n - 2, -np.inf)],
                                              np.r_[1.0, -1.0, np.zeros(n - 2)],
                                              np.full(n, -50.0)))
        value, certified = _wright_series(0.5, np.array([0.125, 0.5]))
        assert value.tolist() == [0.75, 0.0] and certified.tolist() == [True, False]
        with pytest.raises(UnreliableEvaluationError, match="uncertified series sum"):
            _wright_m_array(0.5, np.array([0.5]))

    def test_table_cut_early_is_refused_by_the_dropped_terms_bound(self, monkeypatch):
        # the first 64 terms at alpha 0.995, whose last envelope term is
        # 8.4e-2 (2,048 are needed): near s = 1 the terms dropped are large,
        # and the node is refused; at s = 0.05 they are below 1e-80 of the
        # value, which is certified and matches the full table
        log_c, sign, log_e = special_functions._wright_series_coeffs(0.995, 64)
        assert log_e[-1] > math.log(1e-3)
        s = np.array([0.05, 0.999])
        full, _ = _wright_series(0.995, s)
        monkeypatch.setattr(special_functions, "_wright_series_table",
                            lambda alpha: (sign * np.exp(log_c), float(log_e[-1])))
        value, certified = _wright_series(0.995, s)
        assert certified.tolist() == [True, False]
        assert value[0] == pytest.approx(full[0], rel=1e-15)
        assert abs(value[1] - full[1]) > 1e-6 * full[1]  # the refusal is warranted


class TestWrightContour:
    """The saddle contour that evaluates every s >= 1, on its per-alpha
    geometry tables."""

    @pytest.mark.parametrize("alpha", [0.05, 0.3, 0.5, 0.7, 0.9, 0.95, 0.99, 0.995])
    def test_matches_arbitrary_precision_series(self, alpha):
        # 1.0026 lies in the band 1 < s < 1/alpha where alpha 0.995 needs
        # more than 256 trapezoid points
        s = np.array([1.0, 1.0026, 1.1, 1.5, 2.5, 5.0, 10.0, 20.0])
        value = _wright_contour(alpha, s)
        log_c, sign, _ = _wright_series_coeffs(alpha, 4096)
        checked = 0
        for si, v in zip(s, value):
            log_env = float(wright_log_envelope(alpha, si))
            log_terms = np.where(sign != 0.0, log_c + np.arange(log_c.size) * math.log(si), -np.inf)
            # for run time, no reference sums past a largest term beyond term
            # 500 (the deep tails at alpha >= 0.7, 1-10 s each)
            if log_env < math.log(1e-250) - 10.0 or log_terms.argmax() > 500:
                continue
            # 60 digits beyond the cancellation of the largest series term
            dps = 60 + int((log_terms.max() - log_env) / math.log(10.0))
            ref = mp_reference.wright_series(alpha, float(si), dps)
            if ref > 1e-250:
                assert abs(v - ref) <= _WRIGHT_SERIES_TOL * ref, (si, v, ref)
                checked += 1
        assert checked >= 2

    def test_rows_below_underflow_are_zero_and_the_rest_unchanged(self):
        # alpha 0.95, s in [1, 30]: 1,530 of the 1,568 rows have f0 < -700
        # and are 0 without being computed; the 38 others equal, bit for
        # bit, values frozen from a pass that computed every row
        s = np.linspace(1.0, 30.0, 1568)
        value = _wright_contour(0.95, s)
        assert np.all(value[38:] == 0.0) and np.all(value[:38] > 0.0)
        frozen = {0: 1.5361137992205613, 6: 2.7852266290008445, 12: 2.485675815950164,
                  18: 0.039985823113459204, 24: 5.359925290392602e-12,
                  30: 4.387207674630134e-55, 36: 1.17349812595553e-221}
        assert {i: float(value[i]) for i in frozen} == frozen
        assert np.array_equal(value, [_wright_contour(0.95, s[i:i + 1])[0] for i in range(s.size)])

    def test_geometry_is_built_once_per_alpha_and_read_only(self):
        _wright_contour_geometry.cache_clear()
        first = _wright_contour(0.6, np.array([1.5, 3.0]))
        assert np.array_equal(_wright_contour(0.6, np.array([1.5, 3.0])), first)
        _wright_contour(0.6, np.linspace(1.0, 9.0, 200))  # several blocks
        info = _wright_contour_geometry.cache_info()
        assert (info.misses, info.hits) == (1, 2)
        for table in _wright_contour_geometry(0.6):
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[(0,) * table.ndim] = 1.0


class TestUniformBound:
    def test_supremum_attained_at_origin(self):
        # decay-compare reports the uniform-bound constant of
        # (1+x) E_alpha(-x) <= C as 1.0 from Simon's inequality; a scan of
        # x = 0 and 2,000 log points on [1e-6, 1e6] must find that maximum,
        # attained at x = 0 alone
        xs = np.concatenate(([0.0], np.logspace(-6.0, 6.0, 2000)))
        for alpha in (0.05, 0.25, 0.5, 0.75, 0.95, 1.0):
            profile = (1.0 + xs) * _ml_neg(alpha, xs)  # bit-identical to one-row calls
            assert profile[0] == 1.0, alpha
            assert np.all(profile[1:] < 1.0), alpha
