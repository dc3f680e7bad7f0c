"""Tests for supremum closed forms, log-log fits, and the endpoint-loss
comparison between the two propagator representations."""

import math

import numpy as np
import pytest
from mpmath import mp

from fracheat import decay_analysis, subordination
from fracheat.errors import InsufficientDataError
from fracheat.special_functions import mittag_leffler_neg
from fracheat.decay_analysis import (
    _log_grid_sup,
    compare_representations,
    fit_decay_exponent,
    ml_supremum_profile,
    sup_bound_kernel_closed_form,
    sup_heat_closed_form,
    sup_heat_numeric,
    sup_ml_numeric,
)
from fracheat.subordination import subordination_constant


class TestClosedForms:
    @pytest.mark.parametrize("beta", [0.2, 0.5, 1.0, 1.5, 2.0])
    @pytest.mark.parametrize("t", [0.1, 1.0, 5.0, 20.0, 100.0])
    def test_heat_supremum_grid_vs_closed_form(self, beta, t):
        assert sup_heat_numeric(beta, t) == pytest.approx(
            sup_heat_closed_form(beta, t), rel=1e-8)

    def test_heat_closed_form_value(self):
        # (beta/t)^beta e^{-beta} at beta=1, t=2
        assert sup_heat_closed_form(1.0, 2.0) == pytest.approx(0.5 * math.exp(-1.0))

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
    def test_bound_kernel_endpoint_is_t_power(self, alpha):
        for t in (0.5, 2.0, 16.0):
            assert sup_bound_kernel_closed_form(alpha, 1.0, t) == pytest.approx(
                t ** (-alpha), rel=1e-14)

    def test_bound_kernel_interior_stationary_point(self):
        # sup s^beta/(1+t^alpha s) = (1-beta)(beta/(1-beta))^beta t^{-alpha beta}
        alpha, beta, t = 0.5, 0.5, 4.0
        expected = 0.5 * 1.0 * t ** (-0.25)
        assert sup_bound_kernel_closed_form(alpha, beta, t) == pytest.approx(expected)
        # and the grid search over the actual kernel agrees
        numeric = sup_ml_numeric(alpha, beta, t, exact_kernel=False)
        assert numeric == pytest.approx(expected, rel=1e-7)

    def test_validation(self):
        with pytest.raises(ValueError):
            sup_heat_closed_form(0.0, 1.0)
        with pytest.raises(ValueError):
            sup_bound_kernel_closed_form(0.5, 1.5, 1.0)
        with pytest.raises(ValueError, match="t positive and finite"):
            sup_heat_numeric(0.5, 0.0)
        for t in (math.nan, math.inf):
            with pytest.raises(ValueError):
                sup_heat_closed_form(0.5, t)
            with pytest.raises(ValueError):
                sup_bound_kernel_closed_form(0.5, 0.5, t)
            with pytest.raises(ValueError):
                sup_ml_numeric(0.5, 0.5, t)
        # an infinite beta: NaN from the closed form, the heat search and the
        # alpha = 1 search, once
        for sup in (sup_heat_closed_form, sup_heat_numeric,
                    lambda beta, t: sup_ml_numeric(1.0, beta, t),
                    lambda beta, t: sup_ml_numeric(0.5, beta, t)):
            with pytest.raises(ValueError, match="beta must be positive and finite"):
                sup(math.inf, 1.0)

    @pytest.mark.parametrize("beta", [39.0, 60.0])
    def test_large_beta_suprema_are_the_closed_form(self, beta):
        # near s = 1e8, s^beta overflows and exp(-s) underflows: those grid
        # points were NaN, and so was the supremum of the heat kernel and of
        # E_1(-u) = exp(-u)
        exact = sup_heat_closed_form(beta, 1.0)
        assert exact == pytest.approx(float(mp.mpf(beta) ** beta * mp.exp(-beta)), rel=1e-14)
        for sup in (sup_heat_numeric(beta, 1.0), sup_ml_numeric(1.0, beta, 1.0),
                    ml_supremum_profile(1.0, beta)):
            assert sup == pytest.approx(exact, rel=1e-13)

    def test_power_past_the_double_range_is_taken_in_logs(self):
        # 150^150 overflows, yet the supremum 150^150 e^-150 ~ 1.9e261 is a
        # double: the closed form raised OverflowError and the searches gave NaN
        exact = float(mp.mpf(150) ** 150 * mp.exp(-150))
        assert sup_heat_closed_form(150.0, 1.0) == pytest.approx(exact, rel=1e-12)
        for sup in (sup_heat_numeric(150.0, 1.0), sup_ml_numeric(1.0, 150.0, 1.0)):
            assert sup == pytest.approx(sup_heat_closed_form(150.0, 1.0), rel=1e-12)

    def test_suprema_past_the_double_range(self):
        # at t = 1e-320, beta / t overflows to inf without raising (the heat
        # form gave inf for a finite value) and t^-alpha raised OverflowError;
        # a finite supremum is taken in logs, one past the double range is
        # inf, as the grid searches give
        t = 1e-320
        heat = float(mp.sqrt(mp.mpf(0.5) / mp.mpf(t)) * mp.exp(-0.5))
        assert sup_heat_closed_form(0.5, t) == pytest.approx(heat, rel=1e-13)
        assert sup_ml_numeric(1.0, 0.5, t) == pytest.approx(heat, rel=1e-13)
        b = mp.mpf(0.96)
        bound = float((1 - b) * (b / (1 - b)) ** b * mp.mpf(7e-322) ** -b)
        assert sup_bound_kernel_closed_form(1.0, 0.96, 7e-322) == pytest.approx(bound, rel=1e-13)
        # beta / t below the double range: (beta/t)^beta gave 0 for about 1
        assert sup_heat_closed_form(1e-30, 1e300) == pytest.approx(1.0, rel=1e-13)
        for sup in (sup_heat_closed_form(400.0, 1.0), sup_heat_numeric(400.0, 1.0),
                    sup_bound_kernel_closed_form(1.0, 1.0, t), sup_ml_numeric(1.0, 1.0, t)):
            assert sup == math.inf


class TestSupremumProfiles:
    def test_time_scaling_factorization(self):
        # sup_s s^beta E_alpha(-t^alpha s) = t^{-alpha beta} * U(beta)
        alpha, beta = 0.5, 0.7
        u = ml_supremum_profile(alpha, beta)
        for t in (3.0, 30.0, 300.0):
            assert sup_ml_numeric(alpha, beta, t) == pytest.approx(
                t ** (-alpha * beta) * u, rel=1e-12)

    def test_divergence_above_beta_one(self):
        # u^beta E_alpha(-u) ~ u^{beta-1} -> inf for beta > 1, for both
        # kernels; at beta = 1.01 the growth stays below the interior peak
        # as far as the grid reaches
        for alpha, beta in ((0.5, 1.01), (0.9, 1.01), (0.5, 1.3)):
            assert math.isinf(ml_supremum_profile(alpha, beta))
            assert math.isinf(ml_supremum_profile(alpha, beta, exact_kernel=False))
        # E_1(-u) = exp(-u): sup u^1.5 e^{-u} = 1.5^1.5 e^{-1.5} stays finite
        assert ml_supremum_profile(1.0, 1.5) == pytest.approx(
            1.5 ** 1.5 * math.exp(-1.5), rel=1e-12)

    def test_grid_search_divergence_rule(self):
        # still rising at the grid edge: refused; a flat approach to a
        # finite limit (as u E_alpha(-u) at the endpoint) is not divergence
        with pytest.raises(ValueError):
            _log_grid_sup(lambda s: s ** 0.01)
        (sup,) = _log_grid_sup(lambda s: s / (1.0 + s))
        assert sup == pytest.approx(1.0, rel=1e-7)

    @pytest.mark.parametrize("sup", [
        # s* = beta / t lies below 1e-8 or past 1e8, where the search
        # returned 4.5e-9 and inf against the closed form's 1.4e-5 and 1.4e4
        lambda: sup_heat_numeric(0.5, 1e9),
        lambda: sup_heat_numeric(0.5, 1e-9),
        # u^beta E_alpha(-u) peaks near u = beta Gamma(1+alpha) = 1e-10
        lambda: ml_supremum_profile(0.5, 1e-10),
    ], ids=["heat-below", "heat-past", "profile-below"])
    def test_maximizer_outside_the_grid_is_refused(self, sup):
        with pytest.raises(ValueError, match="outside the search grid"):
            sup()

    @pytest.mark.parametrize("alpha,beta", [(0.3, 0.5), (0.5, 1.0), (0.5, 1.3), (1.0, 1.5)])
    @pytest.mark.parametrize("exact_kernel", [True, False])
    def test_profile_is_sup_ml_numeric_at_t_one(self, alpha, beta, exact_kernel):
        assert ml_supremum_profile(alpha, beta, exact_kernel) == sup_ml_numeric(
            alpha, beta, 1.0, exact_kernel)

    @pytest.mark.parametrize("alpha,beta", [(0.3, 0.5), (0.5, 0.9), (0.9, 1.0), (1.0, 1.5)])
    def test_profile_is_the_grid_search_of_the_public_kernel(self, alpha, beta):
        # the objective evaluates E_alpha in one array call, alpha validated
        # once: bit for bit the search over mittag_leffler_neg
        (ref,) = _log_grid_sup(
            lambda u: u ** beta * np.array([mittag_leffler_neg(alpha, v) for v in u]))
        assert ml_supremum_profile(alpha, beta) == ref

    @pytest.mark.parametrize("alpha", [0.05, 0.5, 0.9, 0.99, 1.0])
    def test_betas_refined_together_are_each_their_own_search(self, alpha):
        # one E_alpha call per level for every beta: each supremum is bit
        # for bit the search of its beta alone
        betas = [0.3, 0.75, 0.9, 0.99, 1.0]
        assert decay_analysis._ml_profile_sup(alpha, betas) == [
            decay_analysis._ml_profile_sup(alpha, (b,))[0] for b in betas]

    def test_a_row_outside_the_grid_refuses_the_whole_search(self):
        # beta = 1e-10 peaks near u = 1e-10, below the grid, beside a
        # finite row
        with pytest.raises(ValueError, match="outside the search grid"):
            decay_analysis._ml_profile_sup(0.5, [0.5, 1e-10])

    def test_finite_at_beta_one(self):
        # u E_alpha(-u) -> 1/Gamma(1-alpha): finite endpoint constant
        v = ml_supremum_profile(0.5, 1.0)
        assert v == pytest.approx(1.0 / math.gamma(0.5), rel=1e-3)

    @pytest.mark.parametrize("alpha", [0.1, 0.3, 0.45])
    def test_flat_endpoint_approach_from_below_is_a_number(self, alpha):
        # below alpha = 1/2, u E_alpha(-u) rises to 1/Gamma(1-alpha) up to
        # the grid's edge: a flat approach, not a refusal
        assert ml_supremum_profile(alpha, 1.0) == pytest.approx(
            1.0 / math.gamma(1.0 - alpha), rel=1e-3)


class TestFit:
    def test_recovers_exact_power_law(self):
        ts = np.logspace(0, 3, 12)
        ys = 2.5 * ts ** -0.7
        fit = fit_decay_exponent(ts, ys)
        assert fit.slope == pytest.approx(-0.7, abs=1e-12)
        assert fit.max_abs_residual < 1e-12

    def test_heat_supremum_slope(self):
        ts = np.logspace(1, 4, 15)
        ys = [sup_heat_closed_form(0.5, t) for t in ts]
        assert fit_decay_exponent(ts, ys).slope == pytest.approx(-0.5, rel=1e-10)

    def test_requires_enough_points_and_span(self):
        with pytest.raises(InsufficientDataError):
            fit_decay_exponent([1, 10, 100], [1, 0.1, 0.01])
        with pytest.raises(InsufficientDataError):
            fit_decay_exponent([1, 2, 3, 4, 5], [5, 4, 3, 2, 1])

    def test_rejects_nonpositive_values(self):
        ts = np.logspace(0, 3, 6)
        with pytest.raises(ValueError):
            fit_decay_exponent(ts, [1, 1, 1, 0, 1, 1])
        with pytest.raises(ValueError):
            fit_decay_exponent([-1, 1, 10, 100, 1000, 10000], np.ones(6))
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="y values must be positive and finite"):
                fit_decay_exponent(ts, [1, 1, 1, bad, 1, 1])
            with pytest.raises(ValueError, match="t values must be positive and finite"):
                fit_decay_exponent([bad, 1, 10, 100, 1000, 10000], np.ones(6))


class TestCompareRepresentations:
    def test_endpoint_loss_structure(self):
        report = compare_representations(0.5, 1.0, [0.2, 0.1, 0.05])
        by_rep = {}
        for r in report.records:
            by_rep.setdefault(r.representation, []).append(r)
        subs = sorted(by_rep["subordination"], key=lambda r: -r.eps)
        directs = sorted(by_rep["direct_ml"], key=lambda r: -r.eps)
        # subordination constants blow up toward the endpoint...
        sub_interior = [r.constant for r in subs if r.eps > 0]
        assert sub_interior == sorted(sub_interior)
        assert sub_interior[-1] / sub_interior[0] >= 3.0
        # ...and diverge at it, while the direct route stays finite
        assert math.isinf(subs[-1].constant) and subs[-1].eps == 0.0
        assert math.isfinite(directs[-1].constant) and directs[-1].eps == 0.0
        assert report.direct_uniform_bound == pytest.approx(1.0, rel=1e-9)
        assert "endpoint" in report.verdict

    def test_subordination_constants_are_gamma_ratios(self):
        report = compare_representations(0.5, 1.0, [0.2])
        for r in report.records:
            if r.representation == "subordination" and r.eps > 0:
                beta = 1.0 - r.eps
                exact = math.gamma(1.0 - beta) / math.gamma(1.0 - 0.5 * beta)
                assert r.constant == pytest.approx(exact, rel=1e-8)

    def test_finite_constants_sample_no_density_below_one(self, monkeypatch):
        # the [0, 1] part of every finite constant is a series sum, with no
        # density sample below s = 1, and each constant is its one-beta call
        # bit for bit
        passes, sample = [], subordination._wright_m_array
        monkeypatch.setattr(subordination, "_wright_m_array",
                            lambda a, s: passes.append(s.min() < 1.0) or sample(a, s))
        report = compare_representations(0.6, 1.0, [0.2, 0.1, 0.05])
        assert passes.count(True) == 0
        monkeypatch.undo()
        assert [(r.eps, r.constant) for r in report.records
                if r.representation == "subordination" and r.eps > 0] == [
            (e, subordination_constant(0.6, 1.0 - e)) for e in (0.2, 0.1, 0.05)]

    def test_each_call_evaluates_the_grid_once(self, monkeypatch):
        # no memo: every call evaluates E_alpha on the 400-point grid once,
        # then once per refinement level, 33 points for each of its 4 betas;
        # an analytic inf and the bound kernel need none
        sizes, ml_neg = [], decay_analysis._ml_neg
        monkeypatch.setattr(decay_analysis, "_ml_neg",
                            lambda a, u: sizes.append(u.size) or ml_neg(a, u))
        for _ in range(2):
            compare_representations(0.5, 1.0, [0.2, 0.1, 0.05])
            assert sizes == [400] + [33 * 4] * decay_analysis._REFINE_LEVELS
            sizes.clear()
        assert math.isinf(ml_supremum_profile(0.5, 1.3))
        assert sup_ml_numeric(0.5, 0.5, 2.0, exact_kernel=False) > 0.0
        assert sizes == []

    @pytest.mark.parametrize("lambda_exp", [0.0, -1.0])
    def test_rejects_a_nonpositive_lambda(self, lambda_exp):
        with pytest.raises(ValueError, match="lambda_exp must be positive"):
            compare_representations(0.5, lambda_exp, [0.1])

    @pytest.mark.parametrize("alpha", [0.999, 1.0])
    def test_endpoint_alone_needs_no_moment(self, alpha):
        # eps = 0 alone leaves no finite constant, so the Wright cap 0.995
        # does not apply: the direct supremum and the divergent endpoint
        report = compare_representations(alpha, 2.0, [0.0])
        assert [(r.representation, r.eps, r.constant, r.method) for r in report.records] == [
            ("direct_ml", 0.0, ml_supremum_profile(alpha, 1.0, exact_kernel=True),
             "grid-supremum"),
            ("subordination", 0.0, math.inf, "divergent-at-endpoint")]

    def test_rejects_exponent_beyond_endpoint(self):
        # delta = 1/lambda - eps: past the endpoint 1/3 (eps < 0), or not
        # positive (eps >= 1/lambda)
        for eps in (-0.1, 0.4):
            with pytest.raises(ValueError):
                compare_representations(0.5, 3.0, [eps])
