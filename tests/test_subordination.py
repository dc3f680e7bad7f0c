"""Tests for the Wright-density quadrature layer.

Closed-form targets (Gamma-function ratios) are computed with the
standard library; the quadrature must reproduce them independently.
"""

import math
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import mp_reference
from conftest import clear_wright_caches
from fracheat import cli, pde_solver, special_functions, subordination
from fracheat.errors import QuadratureError, UnreliableEvaluationError
from fracheat.pde_solver import (
    PeriodicGrid,
    SolverConfig,
    decay_measurement,
    gaussian_bump,
    spectral_solve,
)
from fracheat.special_functions import (
    _wright_m_array,
    _wright_series_moment,
    mittag_leffler_neg,
    wright_log_envelope,
)
from fracheat.subordination import (
    _gauss_panels,
    _panel_edges,
    endpoint_divergence_profile,
    subordinate_scalar,
    subordination_constant,
    wright_mass_nodes,
    wright_moment,
    wright_moments,
)

# frozen from 50-digit arbitrary-precision evaluation
E_QUARTER_AT_1 = 0.46385276080171328694
E_HALF_AT_1 = 0.42758357615580700441


@contextmanager
def lowered_ceiling(upper_cut):
    """The truncation ceiling of every integral over M_alpha lowered from 40
    to upper_cut inside the block, with the Wright tables cached at the
    other ceiling dropped on the way in and out."""
    saved = subordination._UPPER_CUT
    clear_wright_caches()
    subordination._UPPER_CUT = upper_cut
    try:
        yield
    finally:
        subordination._UPPER_CUT = saved
        clear_wright_caches()


# the refusal of an integral whose dropped tail is not certified
TAIL_REFUSED = "tail bound .* exceeds the target 1e-10"


class TestTailCertificate:
    def test_low_ceiling_is_refused_at_every_entry_point(self):
        # at alpha 0.5 a ceiling of 2 drops several percent of the density's
        # mass: every integral over it is refused, none returned short
        grid = PeriodicGrid(dim=1, box_length=200.0, points_per_dim=1024)
        cfg = SolverConfig(0.5, "subordination")
        calls = [
            lambda: subordinate_scalar(0.5, 0.1),
            lambda: wright_moment(0.5, 1.0),
            lambda: endpoint_divergence_profile(0.5, [1e-2, 1e-3]),
            lambda: wright_mass_nodes(0.5),
            lambda: spectral_solve(gaussian_bump(grid), cfg, 1.0),
        ]
        with lowered_ceiling(2.0):
            for call in calls:
                with pytest.raises(QuadratureError, match=TAIL_REFUSED):
                    call()

    @given(upper_cut=st.floats(min_value=1.0, max_value=40.0, exclude_min=True),
           alpha=st.floats(min_value=0.1, max_value=0.95),
           x=st.floats(min_value=0.0, max_value=50.0))
    @settings(max_examples=15, deadline=None)
    def test_any_ceiling_is_verified_or_refused(self, upper_cut, alpha, x):
        with lowered_ceiling(upper_cut):
            try:
                sub = subordinate_scalar(alpha, x)
            except QuadratureError:
                return
        direct = mittag_leffler_neg(alpha, x)
        assert abs(sub - direct) <= 1e-8

    def test_nan_bound_is_refused(self, monkeypatch, fresh_wright_tables):
        monkeypatch.setattr(subordination, "_tail_bound", lambda alpha, cut, weight_exp: math.nan)
        with pytest.raises(QuadratureError, match="tail bound nan"):
            wright_mass_nodes(0.5)

    def test_heat_weight_certifies_no_low_ceiling_at_large_x(self):
        # M_alpha still rises past s = 1.01 at alpha 0.9, so the sampled bound
        # is inf; the scalar sums the solver's mass table, whose tail the heat
        # weight exp(-1.01 * 100) does not excuse: it is refused
        assert subordination._tail_bound(0.9, 1.01, 0.0) == math.inf
        with lowered_ceiling(1.01), pytest.raises(QuadratureError, match=TAIL_REFUSED):
            subordinate_scalar(0.9, 100.0)

    def test_mass_table_is_refused_at_a_low_ceiling(self):
        # the density still rises past s = 1.01 at alpha 0.9: the bound is inf
        with lowered_ceiling(1.01), pytest.raises(QuadratureError, match=TAIL_REFUSED):
            wright_mass_nodes(0.9)

    @given(alpha=st.floats(min_value=0.05, max_value=0.95),
           cut=st.floats(min_value=1.0, max_value=40.0, exclude_min=True),
           weight_exp=st.sampled_from([-1.0, 0.0, 3.0]))
    @example(alpha=0.75, cut=3.0, weight_exp=0.0)
    @example(alpha=0.85, cut=2.0, weight_exp=0.0)
    @settings(max_examples=25, deadline=None)
    def test_certificate_bounds_the_tail(self, alpha, cut, weight_exp):
        # Gauss-Legendre on 160 geometric panels over [cut, 50 cut + 200]:
        # past it s^3 M_alpha(s) < 1e-100 for every alpha drawn. The
        # leading-order envelope the certificate once summed fell 14% below
        # this at (0.75, 3) and 20% below at (0.85, 2); inf means refused
        nodes, weights = _gauss_panels(list(np.geomspace(cut, 50.0 * cut + 200.0, 161)))
        tail = float(np.dot(weights, _wright_m_array(alpha, nodes) * nodes ** weight_exp))
        assert subordination._tail_bound(alpha, cut, weight_exp) >= tail


class TestCertificateOnce:
    # each Wright table is certified where it is built, once per (alpha,
    # weight): an operation that reads a table many times bounds its tail
    # once (certifying at every read took 12, 11 and 30)
    @pytest.fixture
    def bounds(self, monkeypatch, fresh_wright_tables):
        calls, bound = [], subordination._tail_bound

        def spy(alpha, cut, weight_exp):
            calls.append((alpha, cut, weight_exp))
            return bound(alpha, cut, weight_exp)

        monkeypatch.setattr(subordination, "_tail_bound", spy)
        return calls

    def test_one_verify_moments_alpha(self, bounds, tmp_path):
        assert cli.main(["verify-moments", "--alpha", "0.4",
                         "--out", str(tmp_path / "mom.json")]) == 0
        assert bounds == [(0.4, subordination._certified_cut(0.4, 3.0), 3.0)]

    def test_one_subordination_sweep(self, bounds, monkeypatch):
        monkeypatch.setattr(pde_solver, "_WRAPAROUND_TOL", 1.0)  # no time is dropped
        w0 = gaussian_bump(PeriodicGrid(dim=1, box_length=200.0, points_per_dim=256))
        m = decay_measurement(w0, SolverConfig(0.6, "subordination"), 4.0 / 3.0, 4.0,
                              tuple(np.geomspace(0.1, 10.0, 10)))
        assert len(m.rows) == 10
        assert bounds == [(0.6, subordination._certified_cut(0.6, 0.0), 0.0)]

    def test_one_scalar_alpha(self, bounds):
        for x in np.logspace(-3, 3, 30):
            subordinate_scalar(0.7, float(x))
        assert bounds == [(0.7, subordination._certified_cut(0.7, 0.0), 0.0)]


class TestNegativeSample:
    @pytest.mark.parametrize("bad", [-1e-3, math.nan])
    def test_moment_and_profile_refuse_it(self, monkeypatch, bad, fresh_wright_tables):
        # every table checks its masses: a negative or NaN density sample is
        # refused in the moments' [1, cut] table, which the profile reads too
        # (the cut is certified before the corruption)
        subordination._certified_cut(0.6, 3.0)
        sample = subordination._wright_m_array

        def corrupted(alpha, s):
            m = sample(alpha, s)
            return np.where(np.arange(m.size) == 3, bad, m)

        monkeypatch.setattr(subordination, "_wright_m_array", corrupted)
        with pytest.raises(QuadratureError, match="negative or NaN mass"):
            wright_moment(0.6, 1.0)
        with pytest.raises(QuadratureError, match="negative or NaN mass"):
            endpoint_divergence_profile(0.6, [1e-2, 1e-3])


class TestAlphaGate:
    # the six entry points that sample or integrate M_alpha refuse an alpha
    # past the Wright cap 0.995 before any cut, tail bound, series sum or
    # density sample is built
    BUILDERS = [(subordination, "_certified_cut"), (subordination, "_tail_bound"),
                (subordination, "_wright_series_moment"), (subordination, "_panel_masses"),
                (subordination, "_wright_m_array"), (special_functions, "wright_log_envelope"),
                (special_functions, "_wright_contour"), (special_functions, "_wright_series")]

    @pytest.mark.parametrize("alpha", [0.999, 1.0])
    @pytest.mark.parametrize("call", [
        lambda a: special_functions._wright_m_array(a, np.array([0.5, 2.0])),
        lambda a: wright_mass_nodes(a),
        lambda a: subordinate_scalar(a, 1.0),
        lambda a: wright_moment(a, 1.0),
        lambda a: wright_moments(a, [0.0, 1.0]),
        lambda a: endpoint_divergence_profile(a, [1e-2, 1e-3]),
        lambda a: SolverConfig(a, "subordination"),
    ], ids=["wright_m_array", "wright_mass_nodes", "subordinate_scalar", "wright_moment",
            "wright_moments", "endpoint_divergence_profile", "SolverConfig"])
    def test_refused_before_any_table_is_built(self, alpha, call, monkeypatch):
        def builder(*args, **kwargs):
            raise AssertionError("built a table for a refused alpha")

        for module, name in self.BUILDERS:
            monkeypatch.setattr(module, name, builder)
        with pytest.raises(ValueError, match="requires 0 < alpha <= 0.995"):
            call(alpha)

    def test_cap_itself_is_admitted(self):
        assert SolverConfig(0.995, "subordination").alpha.value == 0.995
        assert float(wright_mass_nodes(0.995)[1].sum()) == pytest.approx(1.0, abs=1e-9)


class TestAlphaRange:
    @pytest.mark.parametrize("alpha", [0.05, 0.5, 0.995])
    def test_tables_moments_and_profile_at_both_ends(self, alpha):
        # the mass table, moments and endpoint profile at the ends of the
        # Wright range and its middle
        assert float(wright_mass_nodes(alpha)[1].sum()) == pytest.approx(1.0, abs=1e-9)
        gammas = [-0.5, 0.0, 1.0, 2.0]
        exact = [math.gamma(g + 1.0) / math.gamma(g * alpha + 1.0) for g in gammas]
        assert wright_moments(alpha, gammas) == pytest.approx(exact, rel=1e-6)
        profile = endpoint_divergence_profile(alpha, [1e-2, 1e-3, 1e-4])
        assert np.all(np.isfinite(profile.integral)) and math.isfinite(profile.slope)


class TestIdentityCheck:
    # no table is checked against its own doubling (over 351 certified
    # cases a [1, cut] table and one of twice its panels agreed to 1.8e-15 while
    # both were up to 1.2e-13 off the identity): every command that prints
    # a moment checks it against Gamma(gamma+1)/Gamma(gamma alpha+1), and a
    # [1, cut] table whose masses are off by 1e-8, a fault the doubling
    # check once caught, exits 3
    @pytest.mark.parametrize("argv", [["verify-moments", "--alpha", "0.5"],
                                      ["decay-compare", "--alpha", "0.5", "--lambda", "2"]])
    def test_perturbed_upper_table_is_refused(self, argv, monkeypatch, capsys):
        table = subordination._density_table

        def perturbed(alpha, lo, cut):
            nodes, mass = table(alpha, lo, cut)
            return nodes, mass * (1.0 + 1e-8) if lo == 1.0 else mass

        monkeypatch.setattr(subordination, "_density_table", perturbed)
        assert cli.main(argv) == 3
        assert "moment identity error" in capsys.readouterr().err


class TestMassNodes:
    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75, 0.9])
    def test_total_mass_is_one(self, alpha):
        nodes, mass = wright_mass_nodes(alpha)
        assert nodes.shape == mass.shape
        assert np.all(np.diff(nodes) > 0.0)
        assert float(mass.sum()) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("alpha", [0.5, 0.6, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95])
    @pytest.mark.parametrize("toward", [0.0, 1.0])
    def test_total_mass_one_ulp_off_round_alpha(self, alpha, toward):
        # 1 - alpha (k+1) lands next to a pole of Gamma, where one series
        # coefficient is nearly zero but the ones after it are not
        _, mass = wright_mass_nodes(math.nextafter(alpha, toward))
        assert abs(float(mass.sum()) - 1.0) <= 1e-12

    def test_rejects_alpha_one(self):
        with pytest.raises(ValueError):
            wright_mass_nodes(1.0)

    @pytest.mark.parametrize("alpha", [0.3, 0.6, 0.9, 0.95])
    def test_solver_table_is_frozen(self, alpha):
        # the 2D subordination GEMM grows with the node count, so the
        # solver's table is pinned bit for bit to this construction: the cut
        # adapted to weight 0 below the ceiling 40 at 1e-10, one panel
        # [0, 1e-6] ahead of the adapted ones, 48 panels (geometric ones) of
        # 16 nodes
        s = np.cumprod(np.r_[1.01, np.full(int(math.log(40.0) / math.log(1.05)) + 2, 1.05)])
        s = s[s < 40.0]
        ls = np.log(s)
        hit = np.flatnonzero(wright_log_envelope(alpha, s) + 0.0 * ls + ls
                             < math.log(1e-10 * 1e-3) - 7.0)
        cut = float(s[hit[0]]) if hit.size else 40.0
        edges = [0.0] + _panel_edges(alpha, 1e-6, cut)
        if alpha <= 0.85:
            assert len(edges) == 48 + 2
        nodes, weights = _gauss_panels(edges)
        mass = weights * _wright_m_array(alpha, nodes)
        got_nodes, got_mass = wright_mass_nodes(alpha)
        assert np.array_equal(got_nodes, nodes)
        assert np.array_equal(got_mass, mass)

    @pytest.mark.parametrize("alpha", [0.05, 0.5, 0.85, 0.9, 0.99, 0.995])
    def test_every_node_is_sampled(self, alpha):
        # no table zeroes a node: every mass, in the solver's table and the
        # moments' [1, cut] table (the profile's too), is its Gauss weight
        # times M_alpha at its node, and every node below the cut carries a
        # positive mass
        tables = []
        for lo, weight_exp in ((0.0, 0.0), (1.0, 3.0)):
            cut = subordination._certified_cut(alpha, weight_exp)
            edges = ([0.0] if lo == 0.0 else []) + _panel_edges(alpha, lo or 1e-6, cut)
            tables.append((edges, subordination._density_table(alpha, lo, cut)))
        for edges, (got_nodes, got_mass) in tables:
            nodes, weights = _gauss_panels(edges)
            assert np.array_equal(got_nodes, nodes)
            assert np.array_equal(got_mass, weights * _wright_m_array(alpha, nodes))
            assert np.all(got_mass[:-16] > 0.0)

    @pytest.mark.parametrize("alpha,count", [(0.9, 1216), (0.95, 1264), (0.99, 1584),
                                             (0.99405, 1856), (0.995, 1968)])
    def test_phi_panels_end_where_the_density_collapses(self, alpha, count):
        # past s = 1 the phi walk stops at the first edge whose envelope is
        # below 1e-14 and puts one panel from there to the cut (the walk to
        # the cut took 1,504, 1,472, 3,008, 1,654,432 and 4,032 nodes: at
        # 0.99405 the cut lies far past the collapse, where phi is steep);
        # every edge before it is the walk's
        nodes, mass = wright_mass_nodes(alpha)
        assert nodes.size == count
        edges = _panel_edges(alpha, 1e-6, subordination._certified_cut(alpha, 0.0))
        floor = math.log(1e-10 * 1e-4)
        past = [e for e in edges[:-1] if e > 1.0 and wright_log_envelope(alpha, e) < floor]
        assert past == [edges[-2]]
        assert float(mass.sum()) == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("alpha", [0.86, 0.9, 0.99])
    def test_phi_branch_prefix_is_sized_to_its_interval(self, alpha):
        # the geometric panels on [lo, 0.5] number what [lo, 1] takes at
        # alpha <= 0.85: 48 from 1e-6, 3 from 0.49 (a fixed 48 once put
        # them all on [0.49, 0.5])
        for lo, panels in ((1e-6, 48), (0.49, 3)):
            edges = _panel_edges(alpha, lo, 1.0)
            prefix = [e for e in edges if e <= 0.5]
            assert len(prefix) == panels + 1
            assert prefix == np.geomspace(lo, 0.5, panels + 1).tolist()

    def test_legendre_rule_is_read_only_leggauss(self):
        # the panel rule is numpy's 16-point Gauss-Legendre rule bit for bit,
        # held as constants no caller can write
        from numpy.polynomial.legendre import leggauss
        xg, wg = leggauss(16)
        for got, ref in ((subordination._LEGENDRE_NODES, xg),
                         (subordination._LEGENDRE_WEIGHTS, wg)):
            assert np.array_equal(got, ref)
            assert not got.flags.writeable
        assert subordination._LEGENDRE_NODES.size == subordination._NODES_PER_PANEL


class TestSubordinateScalar:
    def test_reproduces_mittag_leffler(self):
        assert subordinate_scalar(0.25, 1.0) == pytest.approx(
            E_QUARTER_AT_1, abs=1e-10)
        assert subordinate_scalar(0.5, 1.0) == pytest.approx(
            E_HALF_AT_1, abs=1e-10)

    def test_identity_across_arguments(self):
        for alpha in (0.25, 0.5, 0.75):
            for x in np.logspace(-3, 2, 12):
                sub = subordinate_scalar(alpha, float(x))
                direct = mittag_leffler_neg(alpha, float(x))
                assert sub == pytest.approx(direct, abs=1e-10)

    @given(alpha=st.floats(min_value=0.1, max_value=0.95),
           x=st.floats(min_value=0.0, max_value=50.0))
    @settings(max_examples=12, deadline=None)
    def test_identity_property(self, alpha, x):
        direct = mittag_leffler_neg(alpha, x)
        assert abs(subordinate_scalar(alpha, x) - direct) <= 1e-8

    @pytest.mark.parametrize("alpha", [0.25, 0.6000000000000001, 0.95, 0.995])
    def test_is_the_solver_kernel_at_one_x(self, alpha):
        # the scalar identity checks test the multiplier the solver applies
        cfg = SolverConfig(alpha, "subordination")
        for x in (0.0, 1e-3, 1.0, 100.0, 1e7, math.inf):
            assert subordinate_scalar(alpha, x) == pde_solver._kernel(cfg, np.array([x]))[0]

    def test_sums_the_solver_table_alone(self, monkeypatch):
        # no refined [0, cut] table and no doubling check: the one table read
        # is the solver's, on [0, cut] at the cut of weight 0
        read, table = [], subordination._density_table

        def spy(alpha, lo, cut):
            read.append((lo, cut))
            return table(alpha, lo, cut)

        monkeypatch.setattr(subordination, "_density_table", spy)
        monkeypatch.setattr(subordination, "_upper_moment", lambda *args: pytest.fail("doubled"))
        subordinate_scalar(0.5, 1.0)
        assert read == [(0.0, subordination._certified_cut(0.5, 0.0))]

    def test_x_zero_gives_total_mass(self):
        assert subordinate_scalar(0.5, 0.0) == pytest.approx(1.0, abs=1e-10)

    def test_rejects_negative_x(self):
        with pytest.raises(ValueError):
            subordinate_scalar(0.5, -1.0)
        # NaN is refused as a value error, not as a quadrature that did not
        # stabilize; +inf is the limit E_alpha(-inf) = 0
        with pytest.raises(ValueError, match="got nan"):
            subordinate_scalar(0.5, math.nan)
        assert subordinate_scalar(0.5, math.inf) == 0.0

    def test_neglect_policy_rejects_heavy_tail(self):
        # a cut far below the density support leaves a tail that must be
        # refused, not dropped silently
        with lowered_ceiling(1.5), pytest.raises(QuadratureError, match=TAIL_REFUSED):
            subordinate_scalar(0.9, 1.0)


class TestMoments:
    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
    @pytest.mark.parametrize("gamma", [-0.5, 0.0, 0.5, 1.0, 2.0, 3.0])
    def test_moment_identity(self, alpha, gamma):
        numeric = wright_moment(alpha, gamma)
        exact = math.gamma(gamma + 1.0) / math.gamma(gamma * alpha + 1.0)
        assert numeric == pytest.approx(exact, rel=1e-8)

    def test_frozen_value(self):
        # Gamma(0.5)/Gamma(0.75)
        assert wright_moment(0.5, -0.5) == pytest.approx(
            1.4464090846320771425, rel=1e-9)

    @pytest.mark.parametrize("alpha", [0.5, 0.9])
    def test_gamma_beyond_the_shared_table(self, alpha):
        # gamma = 10 needs a longer cut than the table every gamma <= 3 shares
        exact = math.gamma(11.0) / math.gamma(10.0 * alpha + 1.0)
        assert wright_moment(alpha, 10.0) == pytest.approx(exact, rel=1e-8)

    @pytest.mark.parametrize("alpha,gamma", [(0.25, 6.0), (0.25, 10.0), (0.5, 10.0)])
    def test_large_weights_are_exact(self, alpha, gamma):
        # every node of the [1, cut] table is sampled: zeroing those with an
        # envelope below 1e-14 left 1.5e-9, a refusal and 2.2e-9 here
        exact = math.gamma(gamma + 1.0) / math.gamma(gamma * alpha + 1.0)
        assert wright_moment(alpha, gamma) == pytest.approx(exact, rel=1e-12, abs=0.0)

    def test_gamma_beyond_reach_is_refused(self):
        # at alpha 0.25 the s^14 weight pushes the cut to the ceiling s = 40,
        # past which the certified tail still holds 1.0e-6: refused, not returned
        with pytest.raises(QuadratureError,
                           match="tail bound 1.002e-06 beyond s=40.00 exceeds the target 1e-10"):
            wright_moment(0.25, 14.0)

    @staticmethod
    def tables_built(monkeypatch) -> list[tuple[float, float]]:
        """(lower, upper) edge of every panel table sampled from here on."""
        calls, panel_masses = [], subordination._panel_masses

        def counting(alpha, edges):
            calls.append((float(min(edges)), float(max(edges))))
            return panel_masses(alpha, edges)

        monkeypatch.setattr(subordination, "_panel_masses", counting)
        return calls

    def test_verify_moments_samples_the_density_above_one_once(
            self, tmp_path, monkeypatch, fresh_wright_tables):
        # one [1, cut] table serves the six weights, all <= 3
        calls = self.tables_built(monkeypatch)
        assert cli.main(["verify-moments", "--alpha", "0.4",
                         "--out", str(tmp_path / "mom.json")]) == 0
        assert calls == [(1.0, subordination._certified_cut(0.4, 3.0))]

    def test_weights_that_share_a_cut_share_its_table(self, monkeypatch, fresh_wright_tables):
        # the [1, cut] tables are keyed on the certified cut, not on the
        # weight: 8 weights past 3 with 4 distinct cuts build 4 tables, each
        # read bit for bit as if built for its weight alone
        gammas = [3.5, 4.0, 4.5, 5.0, 5.5, 6.0, 7.0, 8.0]
        cuts = [subordination._certified_cut(0.5, g) for g in gammas]
        calls = self.tables_built(monkeypatch)
        got = wright_moments(0.5, gammas)
        assert sorted(calls) == [(1.0, cut) for cut in sorted(set(cuts))]
        assert len(calls) == 4
        assert got == [self.one_weight(0.5, g) for g in gammas]

    def test_rejects_divergent_gamma(self, monkeypatch):
        with pytest.raises(ValueError):
            wright_moment(0.5, -1.0)
        with pytest.raises(ValueError):
            wright_moment(0.5, -1.5)

        # every weight of an array is checked before any sum, table or sample,
        # a non-finite one too: NaN passes a comparison with -1
        def builder(*args, **kwargs):
            raise AssertionError("built a table for a divergent weight")

        for name in ("_wright_series_moment", "_wright_m_array", "_upper_moment"):
            monkeypatch.setattr(subordination, name, builder)
        with pytest.raises(ValueError, match="gamma must exceed -1, got -1.0: int s"):
            wright_moments(0.5, [0.5, 2.0, -1.0])
        for gamma in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=f"gamma must be finite, got {gamma}"):
                wright_moments(0.5, [0.5, gamma])

    @staticmethod
    def one_weight(alpha, gamma):
        """The moment at one weight: its [0, 1] series sum and a [1, cut]
        table built for it alone, at the cut of the weight max(gamma, 3)."""
        cut = subordination._certified_cut(alpha, max(gamma, 3.0))
        nodes, mass = subordination._panel_masses(alpha, _panel_edges(alpha, 1.0, cut))
        return _wright_series_moment(alpha, gamma) + float(np.dot(mass, nodes ** gamma))

    @given(alpha=st.floats(min_value=0.05, max_value=0.95),
           gammas=st.lists(st.sampled_from([-0.9, -0.5, -0.25, 0.0, 0.5, 1.0, 2.0, 3.0, 4.5]),
                           min_size=1, max_size=9))
    @example(alpha=0.6, gammas=[3.0, 2.0, 1.0, 0.5, 0.0, -0.5])
    @settings(max_examples=15, deadline=None)
    def test_array_moments_are_the_one_weight_moments(self, alpha, gammas):
        # any subset of weights, in any order, repeats included: bit for bit
        got = wright_moments(alpha, gammas)
        assert got == [self.one_weight(alpha, g) for g in gammas]
        assert got == [wright_moment(alpha, g) for g in gammas]

    @pytest.mark.parametrize("alpha", [0.1, 0.5, 0.8])
    @pytest.mark.parametrize("lo,cut", [(1.0, None), (1.0, 1.5), (1.0, 14.0), (1.0, 40.0),
                                        (1e-4, 1.0), (1e-2, 1.0)])
    def test_upper_table_is_sized_to_its_interval(self, alpha, lo, cut):
        # [lo, cut] takes ceil(8 log10(cut / lo)) geometric panels (no wider
        # in log s than the solver's on [1e-6, 1]), at most 48, and round-off
        # adds none: [1e-4, 1] takes 32 and [1e-2, 1] 16, as 48 ln(1e4) /
        # ln(1e6) is 32.00000000000001 (the moments' table at its certified
        # cut, other intervals as panel edges alone)
        table = cut is None
        cut = subordination._certified_cut(alpha, 3.0) if table else cut
        panels = math.ceil(8.0 * math.log10(cut / lo))
        assert panels == {1e-4: 32, 1e-2: 16}.get(lo, panels)
        assert panels <= 48
        if table:
            assert np.array_equal(subordination._density_table(alpha, lo, cut)[0],
                                  _gauss_panels(_panel_edges(alpha, lo, cut))[0])
        nodes = _gauss_panels(_panel_edges(alpha, lo, cut))[0]
        assert nodes.size == panels * 16
        assert np.array_equal(nodes, _gauss_panels(np.geomspace(lo, cut, panels + 1).tolist())[0])

    @pytest.mark.parametrize("alpha", [0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.85])
    def test_moments_match_full_upper_tables(self, alpha):
        # the reference puts 96 geometric panels on [1, cut], twice what
        # [1e-6, cut] takes, whatever its length; the moments on the sized
        # tables stay within 5e-12 of it, and within 1e-12 of the identity
        # Gamma(gamma+1)/Gamma(gamma alpha+1)
        gammas = [-0.9, -0.5, 0.0, 0.5, 1.0, 2.0, 3.0]
        cut = subordination._certified_cut(alpha, 3.0)
        nodes, weights = _gauss_panels(np.geomspace(1.0, cut, 97).tolist())
        mass = weights * _wright_m_array(alpha, nodes)
        for gamma, got in zip(gammas, wright_moments(alpha, gammas)):
            reference = _wright_series_moment(alpha, gamma) + float(np.dot(mass, nodes ** gamma))
            exact = math.gamma(gamma + 1.0) / math.gamma(gamma * alpha + 1.0)
            assert got == pytest.approx(reference, rel=5e-12, abs=0.0)
            assert got == pytest.approx(exact, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("alpha", [0.9, 0.95, 0.99, 0.995])
    def test_moments_near_the_cap_are_exact(self, alpha):
        # where the [0, 1] series takes 128-2,048 terms and the [1, cut]
        # tables follow the phi walk, each moment is within 1e-14 of
        # Gamma(gamma+1)/Gamma(gamma alpha+1) (2.9e-15 at most)
        gammas = [-0.99, -0.5, 0.0, 0.5, 1.0, 2.0, 3.0]
        exact = [math.gamma(g + 1.0) / math.gamma(g * alpha + 1.0) for g in gammas]
        assert wright_moments(alpha, gammas) == pytest.approx(exact, rel=1e-14, abs=0.0)

    def test_no_weights_give_no_moments(self):
        assert wright_moments(0.5, []) == []

    def test_no_moment_samples_below_one_or_solves_an_eigenproblem(self, tmp_path, monkeypatch,
                                                                   fresh_wright_tables):
        # the [0, 1] part is a sum over series coefficients: wright_moments and
        # a cold verify-moments sample M_alpha only on their [1, cut] tables
        # and tail grids, and solve no eigenproblem
        lows = []

        def recording(a, s):
            lows.append(float(s.min()))
            return _wright_m_array(a, s)

        def eigh(*args, **kwargs):
            raise AssertionError("solved an eigenproblem")

        monkeypatch.setattr(subordination, "_wright_m_array", recording)
        monkeypatch.setattr(np.linalg, "eigh", eigh)
        wright_moments(0.45, [-0.99, 0.0, 1.5, 10.0])
        assert cli.main(["verify-moments", "--alpha", "0.3,0.8,0.995",
                         "--out", str(tmp_path / "mom.json")]) == 0
        assert lows and min(lows) >= 1.0

    def test_cancelled_series_sum_is_refused(self, tmp_path, monkeypatch, capsys,
                                             fresh_wright_tables):
        # coefficients 1 and -3 give the terms 1/0.5 and -3/1.5 at gamma
        # -0.5: the sum cancels to 0, below its rounding bound, and is refused
        # in the moment and in verify-moments (exit 3), whose first weight it is
        def cancelling(alpha, n):
            return (np.r_[0.0, math.log(3.0), np.full(n - 2, -np.inf)],
                    np.r_[1.0, -1.0, np.zeros(n - 2)], np.r_[0.0, -1.0, np.full(n - 2, -50.0)])

        monkeypatch.setattr(special_functions, "_wright_series_coeffs", cancelling)
        with pytest.raises(UnreliableEvaluationError, match="gamma=-0.5 misses its certificate"):
            wright_moment(0.5, -0.5)
        assert cli.main(["verify-moments", "--alpha", "0.5",
                         "--out", str(tmp_path / "mom.json")]) == 3
        assert "error code=3 type=UnreliableEvaluationError" in capsys.readouterr().err

    def test_series_beyond_the_term_budget_is_refused(self, monkeypatch, fresh_wright_tables):
        # alpha 0.995 needs 2,048 terms: under a budget of 1,024 its table
        # is refused, not cut short
        monkeypatch.setattr(special_functions, "_SERIES_MAX_TERMS", 1024)
        with pytest.raises(UnreliableEvaluationError, match="series over 1024 terms, alpha=0.995"):
            wright_moment(0.995, 0.0)


class TestSubordinationConstant:
    def test_gamma_ratio(self):
        # Gamma(1-beta)/Gamma(1-alpha*beta) at alpha=0.5, beta=0.8
        assert subordination_constant(0.5, 0.8) == pytest.approx(
            3.0827743803116220049, rel=1e-8)

    def test_increases_toward_endpoint(self):
        values = [subordination_constant(0.5, b) for b in (0.8, 0.9, 0.95)]
        assert values[0] < values[1] < values[2]

    @pytest.mark.parametrize("beta", [0.0, 1.0, 1.2, -0.5])
    def test_rejects_beta_outside_open_interval(self, beta):
        with pytest.raises(ValueError):
            subordination_constant(0.5, beta)


class TestEndpointDivergence:
    def test_slope_matches_density_at_zero(self):
        eps = list(np.logspace(-2, -5, 8))
        prof = endpoint_divergence_profile(0.5, eps)
        assert prof.expected_slope == pytest.approx(
            1.0 / math.gamma(0.5), rel=1e-14)
        assert prof.slope == pytest.approx(prof.expected_slope, rel=0.05)

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
    def test_tail_is_negligible(self, alpha, monkeypatch, fresh_wright_tables):
        # the profile's dropped tail is certified once, at the weight s^3 of
        # the [1, inf) table it shares with the moments, which bounds s^-1
        # past the cut
        certified, bound = [], subordination._tail_bound

        def spy(a, cut, weight_exp):
            certified.append((cut, weight_exp))
            return bound(a, cut, weight_exp)

        monkeypatch.setattr(subordination, "_tail_bound", spy)
        endpoint_divergence_profile(alpha, list(np.logspace(-2, -5, 8)))
        cut = subordination._certified_cut(alpha, 3.0)
        assert certified == [(cut, 3.0)]
        assert subordination._tail_bound(alpha, cut, -1.0) <= 1e-10

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.9])
    def test_values_are_the_moments_parts_at_gamma_minus_one(self, alpha):
        # each value is the series on [eps, 1] plus the moments' [1, cut]
        # table at gamma = -1, bit for bit
        for eps in (list(np.logspace(-2, -5, 8)), [0.7, 0.51, 0.5, 0.49], [1e-300, 5e-324]):
            prof = endpoint_divergence_profile(alpha, eps)
            assert prof.integral == tuple(
                _wright_series_moment(alpha, -1.0, e) + subordination._upper_moment(alpha, -1.0)
                for e in eps)

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.9, 0.995])
    def test_samples_no_table_after_a_moment(self, alpha, monkeypatch, fresh_wright_tables):
        # after a moment, a profile samples no panel table and builds no
        # density table: its int_1^inf is the moments' cached [1, cut] table
        wright_moments(alpha, [0.5])
        built = subordination._density_table.cache_info()
        calls, panel_masses = [], subordination._panel_masses

        def counting(a, edges):
            calls.append((float(min(edges)), float(max(edges))))
            return panel_masses(a, edges)

        monkeypatch.setattr(subordination, "_panel_masses", counting)
        endpoint_divergence_profile(alpha, list(np.logspace(-2, -5, 8)))
        assert calls == []
        info = subordination._density_table.cache_info()
        assert (info.currsize, info.misses) == (built.currsize, built.misses)

    @pytest.mark.parametrize("alpha", [0.01, 0.05, 0.1, 0.25, 0.3, 0.5, 0.7, 0.85, 0.86,
                                       0.9, 0.95, 0.99, 0.995])
    def test_closed_form(self, alpha):
        # every value against (ln(1/eps) - gamma_E - alpha psi(1-alpha)) /
        # Gamma(1-alpha) - sum_k c_k eps^k / k at 40 digits, within 1e-14 at
        # every eps from 0.99 down to the least subnormal (4.3e-15 measured).
        # Panels on [eps, 1] once reached 5.0e-14 at 1e-300 and overflowed
        # their count below 1e-308
        eps = ([0.99, 0.9, 0.7, 0.51, 0.5, 0.1] + [10.0 ** -k for k in range(2, 9)]
               + [1e-30, 1e-60, 1e-300, 1e-310, 5e-324])
        prof = endpoint_divergence_profile(alpha, eps)
        for e, value in zip(eps, prof.integral):
            assert value == pytest.approx(mp_reference.endpoint_profile(alpha, e),
                                          rel=1e-14, abs=0.0), e
        assert math.isfinite(prof.slope) and math.isfinite(prof.intercept)

    def test_integral_grows_as_eps_shrinks(self):
        prof = endpoint_divergence_profile(0.25, [1e-2, 1e-3, 1e-4])
        assert prof.integral[0] < prof.integral[1] < prof.integral[2]

    def test_validation(self):
        with pytest.raises(ValueError):
            endpoint_divergence_profile(0.5, [1e-2])  # too few
        with pytest.raises(ValueError):
            endpoint_divergence_profile(0.5, [1e-4, 1e-2])  # not decreasing
        with pytest.raises(ValueError):
            endpoint_divergence_profile(0.5, [2.0, 0.5])  # out of range
