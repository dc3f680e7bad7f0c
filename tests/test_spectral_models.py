"""Tests for the spectral surrogates and their trace/condition checks."""

import math
import warnings

import numpy as np
import pytest

from fracheat.errors import InsufficientDataError
from fracheat.spectral_models import (
    DEFAULT_CATALOG,
    DiscreteSpectrum,
    PowerLawSpectrum,
    SpectralModel,
    TraceCatalogEntry,
    condition_supremum,
    torus_laplacian_1d,
    torus_laplacian_2d,
    trace_counting,
    verify_trace_growth,
)
from fracheat.decay_analysis import _log_grid_sup, sup_heat_closed_form
from fracheat.special_functions import mittag_leffler_neg


class TestSpectrumTypes:
    def test_discrete_validation(self):
        with pytest.raises(ValueError):
            DiscreteSpectrum((), ())
        with pytest.raises(ValueError):
            DiscreteSpectrum((1.0, 0.5), (1, 1))  # not ascending
        with pytest.raises(ValueError):
            DiscreteSpectrum((-1.0,), (1,))  # nonpositive
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                DiscreteSpectrum((bad,), (1,))
        with pytest.raises(ValueError):
            DiscreteSpectrum((1.0,), (0,))  # bad multiplicity
        with pytest.raises(ValueError):
            DiscreteSpectrum((1.0, 2.0), (1,))  # length mismatch

    def test_power_law_validation(self):
        with pytest.raises(ValueError):
            PowerLawSpectrum(c=0.0, lambda_exp=1.0)
        with pytest.raises(ValueError):
            PowerLawSpectrum(c=1.0, lambda_exp=-1.0)
        for c, lam in ((math.nan, 1.0), (1.0, math.inf), (math.inf, 1.0), (1.0, math.nan)):
            with pytest.raises(ValueError, match="positive and finite"):
                PowerLawSpectrum(c, lam)
        for lam in (math.nan, math.inf, 0.0):
            with pytest.raises(ValueError, match="lambda_exp must be positive and finite"):
                TraceCatalogEntry("bad", lam, "")


class TestTraceCounting:
    def test_power_law_exact(self):
        m = SpectralModel(PowerLawSpectrum(c=2.0, lambda_exp=1.5))
        assert trace_counting(m, 4.0) == pytest.approx(2.0 * 4.0 ** 1.5)

    def test_discrete_counts_below_threshold(self):
        m = SpectralModel(DiscreteSpectrum((1.0, 4.0, 9.0), (2, 2, 2)))
        assert trace_counting(m, 0.5) == 0.0
        assert trace_counting(m, 4.0) == 2.0  # strict inequality
        assert trace_counting(m, 100.0) == 6.0

    def test_rejects_nonpositive_s(self):
        with pytest.raises(ValueError):
            trace_counting(torus_laplacian_1d(10), 0.0)

    def test_torus_2d_lattice_counts(self):
        # r_2(n), the lattice points on the circle j^2 + k^2 = n, all inside
        # the truncation |j|, |k| <= 60 for n <= 60^2
        v = torus_laplacian_2d().variant
        mult = dict(zip(v.eigenvalues, v.multiplicities))
        assert [mult[n] for n in (1.0, 2.0, 5.0, 25.0)] == [4, 4, 8, 12]
        assert 3.0 not in mult and 0.0 not in mult
        assert sum(v.multiplicities) == 121 ** 2 - 1  # the zero mode dropped
        assert all(type(e) is float for e in v.eigenvalues)
        assert all(type(m) is int for m in v.multiplicities)


class TestTraceGrowth:
    def test_rejects_a_decreasing_range(self):
        with pytest.raises(ValueError, match="increasing pair"):
            verify_trace_growth(torus_laplacian_1d(2000), 0.5, (1e6, 1.0))

    def test_torus_1d_weyl_slope(self):
        report = verify_trace_growth(torus_laplacian_1d(2000), 0.5, (1.0, 1e6))
        assert report.within_10_percent

    def test_torus_2d_weyl_slope(self):
        report = verify_trace_growth(torus_laplacian_2d(120), 1.0, (2.0, 8000.0))
        assert report.within_10_percent

    def test_power_law_exact_slope(self):
        for entry in DEFAULT_CATALOG:
            report = verify_trace_growth(entry.model(), entry.lambda_exp, (1.0, 1e6))
            assert report.fitted_slope == pytest.approx(entry.lambda_exp, rel=1e-12)

    @pytest.mark.parametrize("claim", [math.nan, math.inf, 0.0, -0.5])
    def test_rejects_a_claim_that_is_not_positive_and_finite(self, claim):
        with pytest.raises(ValueError, match="lambda_claim must be positive and finite"):
            verify_trace_growth(torus_laplacian_1d(100), claim, (1.0, 1e4))

    def test_requires_three_decades(self):
        with pytest.raises(ValueError):
            verify_trace_growth(torus_laplacian_1d(100), 0.5, (1.0, 100.0))

    def test_sparse_spectrum_raises(self):
        m = SpectralModel(DiscreteSpectrum((1e7,), (1,)))
        with pytest.raises(InsufficientDataError):
            verify_trace_growth(m, 0.5, (1.0, 1e4))


class TestConditionSupremum:
    def test_heat_kernel_power_law_matches_closed_form(self):
        # tau(s) = s, delta = 1/2: sup s^{1/2} e^{-ts} has a closed form
        m = SpectralModel(PowerLawSpectrum(c=1.0, lambda_exp=1.0))
        for t in (0.5, 2.0, 10.0):
            got = condition_supremum(m, 4.0 / 3.0, 4.0, 0.5, t, "heat")
            assert got == pytest.approx(sup_heat_closed_form(0.5, t), rel=1e-8)

    def test_direct_route_finite_at_endpoint_exponent(self):
        # tau(s)^delta E_alpha(-t^alpha s) with lambda*delta = 1 stays
        # bounded: the multiplier decays exactly as 1/s
        m = SpectralModel(PowerLawSpectrum(c=1.0, lambda_exp=2.0))
        got = condition_supremum(m, 4.0 / 3.0, 4.0, 0.5, 1.0, "direct_ml")
        assert math.isfinite(got)

    def test_divergence_reported_as_inf_with_warning(self):
        # lambda*delta > 1: the objective grows without bound; at lambda =
        # 2.02 the growth stays below the interior peak as far as the grid
        # reaches
        for lambda_exp, alpha in ((4.0, 0.5), (2.02, 0.5), (2.02, 0.9)):
            m = SpectralModel(PowerLawSpectrum(c=1.0, lambda_exp=lambda_exp))
            with pytest.warns(RuntimeWarning):
                got = condition_supremum(m, 4.0 / 3.0, 4.0, alpha, 1.0, "direct_ml")
            assert math.isinf(got)

    @pytest.mark.parametrize("variant,t,representation", [
        (PowerLawSpectrum(1.0, 1.0), 1e10, "heat"),  # returned 3.7e-48, not 4.3e-6
        (PowerLawSpectrum(1.0, 1.0), 1e-20, "direct_ml"),  # returned inf, not 44,035
        (DiscreteSpectrum((2e8,), (1,)), 1.0, "direct_ml"),  # returned 0.0, not 2.8e-9
    ])
    def test_maximizer_outside_the_grid_is_refused(self, variant, t, representation):
        # refused without the divergence warning, which belongs to the
        # analytic inf alone
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="outside the search grid"):
                condition_supremum(SpectralModel(variant), 4.0 / 3.0, 4.0, 0.5, t,
                                   representation)

    @pytest.mark.parametrize("alpha,t", [(0.8685426336473641, 3.5001481528910747),
                                         (0.8731991436016834, 3.2788466449891005),
                                         (0.3327273601723859, 2.789810723756012)])
    def test_torus_grid_supremum_stays_below_the_exact_one(self, alpha, t):
        # tau is a step function and E_alpha(-x) decreases, so the supremum
        # is the limit from the right at an eigenvalue; a grid point just
        # right of one must not read above it, which needs E_alpha(-x)
        # monotone down to round-off
        m = torus_laplacian_2d()
        delta = 1.0 / (4.0 / 3.0) - 1.0 / 4.0
        below = np.cumsum(m.variant.multiplicities)
        exact = max(float(c) ** delta * mittag_leffler_neg(alpha, t ** alpha * e)
                    for c, e in zip(below, m.variant.eigenvalues))
        got = condition_supremum(m, 4.0 / 3.0, 4.0, alpha, t)
        assert 0.0 <= (exact - got) / exact <= 0.05

    @pytest.mark.parametrize("alpha,t", [(0.3, 0.5), (0.75, 2.0), (1.0, 1.0)])
    def test_direct_route_is_the_grid_search_of_the_public_kernel(self, alpha, t):
        # the objective evaluates E_alpha in one array call, alpha validated
        # once: bit for bit the search over mittag_leffler_neg
        m = torus_laplacian_2d()
        delta = 1.0 / (4.0 / 3.0) - 1.0 / 4.0

        def objective(s):
            tau = trace_counting(m, s)
            ml = np.array([mittag_leffler_neg(alpha, t ** alpha * v) for v in s])
            return np.where(tau > 0.0, tau ** delta * ml, 0.0)

        (ref,) = _log_grid_sup(objective)
        assert condition_supremum(m, 4.0 / 3.0, 4.0, alpha, t) == ref

    def test_validation(self):
        m = SpectralModel(PowerLawSpectrum(1.0, 1.0))
        with pytest.raises(ValueError):
            condition_supremum(m, 4.0 / 3.0, 4.0, 0.5, 1.0, "bogus")
        with pytest.raises(ValueError):
            condition_supremum(m, 4.0 / 3.0, 4.0, 0.99, 1e308)  # t^alpha s overflows
        with pytest.raises(ValueError):
            condition_supremum(m, 3.0, 4.0, 0.5, 1.0)  # p > 2
        with pytest.raises(ValueError):
            condition_supremum(m, 4.0 / 3.0, 4.0, 0.5, -1.0)


class TestCatalog:
    def test_expected_entries(self):
        labels = {e.name for e in DEFAULT_CATALOG}
        assert "euclidean-laplacian-1d" in labels
        assert "heisenberg-sublaplacian-n1" in labels
        assert all(e.lambda_exp > 0 for e in DEFAULT_CATALOG)

    def test_euclidean_exponents_are_half_dimension(self):
        by_name = {e.name: e for e in DEFAULT_CATALOG}
        for n in (1, 2, 3):
            assert by_name[f"euclidean-laplacian-{n}d"].lambda_exp == n / 2
