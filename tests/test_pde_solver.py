"""Tests for the periodic spectral solver and its diagnostics."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fracheat import pde_solver, subordination
from fracheat.errors import InsufficientDataError, QuadratureError
from fracheat.pde_solver import (
    Field,
    PeriodicGrid,
    SolverConfig,
    caputo_l1_apply,
    caputo_residual_l1,
    decay_measurement,
    gaussian_bump,
    propagator_multiplier,
    read_field,
    spectral_solve,
    write_field,
)
from fracheat.special_functions import (
    _HANKEL_ALPHA_CAP, _RULE_BLOCK, _ml_hankel, _ml_neg, mittag_leffler_neg,
)
from fracheat.subordination import wright_mass_nodes


@pytest.fixture(scope="module")
def grid_1d():
    return PeriodicGrid(dim=1, box_length=200.0, points_per_dim=1024)


@pytest.fixture(scope="module")
def bump_1d(grid_1d):
    return gaussian_bump(grid_1d)


class TestGrid:
    def test_spacing_and_volume(self):
        g = PeriodicGrid(dim=2, box_length=10.0, points_per_dim=64)
        assert g.dx == pytest.approx(10.0 / 64)
        assert g.cell_volume == pytest.approx((10.0 / 64) ** 2)
        assert g.frequencies_squared().shape == (64, 64)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_broadcast_grids_match_meshgrid_formulas(self, dim):
        # the meshgrid formulas gaussian_bump and frequencies_squared used;
        # the 2D bump is the product of two flushed axis profiles, bit for
        # bit, within round-off of the meshgrid exponential
        g = PeriodicGrid(dim=dim, box_length=20.0, points_per_dim=128)
        x = g.dx * np.arange(128) - 10.0
        xi = 2.0 * math.pi * np.fft.fftfreq(128, d=g.dx)
        bump = gaussian_bump(g, sigma=0.7).samples
        if dim == 1:
            r2, k2 = x ** 2, xi ** 2
            assert np.array_equal(bump, np.exp(-r2 / (2.0 * 0.7 ** 2)))
        else:
            xx, yy = np.meshgrid(x, x, indexing="ij")
            r2 = sum(c ** 2 for c in (xx, yy))
            kx, ky = np.meshgrid(xi, xi, indexing="ij")
            k2 = kx ** 2 + ky ** 2
            e = -x ** 2 / (2.0 * 0.7 ** 2)
            profile = np.where(e < -345.0, 0.0, np.exp(np.maximum(e, -345.0)))
            assert np.array_equal(bump, np.outer(profile, profile))
            ref = np.exp(-r2 / (2.0 * 0.7 ** 2))
            assert np.max(np.abs(bump - ref)) <= 4e-16 * np.max(ref)
        assert np.array_equal(g.frequencies_squared(), k2)

    def test_bump_profile_is_flushed_below_the_heat_factor_floor(self):
        # exp(-x^2 / (2 sigma^2)) below exp(-345) ~ 1e-150 is exact 0, so no
        # product of two profile values is subnormal
        g = PeriodicGrid(dim=2, box_length=64.0, points_per_dim=256)
        x = g._axis()
        e = -x ** 2 / (2.0 * 0.5 ** 2)
        bump = gaussian_bump(g).samples
        row = bump[128]  # x = 0, where the profile is 1
        assert np.all(row[e < -345.0] == 0.0) and np.all(row[e >= -345.0] > 0.0)
        assert (e < -345.0).any() and bump[bump > 0.0].min() >= np.finfo(float).tiny

    @pytest.mark.parametrize("dim", [1, 2])
    def test_half_spectrum_is_a_slice_of_the_full_one(self, dim):
        # the modes every solve takes against the first N//2 + 1 columns of
        # the float FFT-layout spectrum, in 2D as the step's two row slices
        # of the U x U table (rows 0..N/2, then rows N/2-1..1): exact for
        # the axis values; the integer keys differ by the float spectrum's
        # own rounding of xi, xi^2 and the sum (3 ulps at most)
        g = PeriodicGrid(dim=dim, box_length=20.0, points_per_dim=64)
        w0 = gaussian_bump(g)
        half = g.frequencies_squared()[..., :33]
        for rep in ("direct_ml", "subordination"):
            step = pde_solver._Step(w0, SolverConfig(0.6, rep))
            values, index = step.values, step.index
            assert step.spectrum.shape == half.shape
            if dim == 1:
                assert index is None and np.array_equal(values, half)
                continue
            if rep == "subordination":
                assert index is None
                table, rtol = values[:, None] + values[None, :], 0.0
            else:
                assert index.shape == (33, 33)
                table, rtol = values[index], 7e-16
            for got, ref in ((table, half[:33]), (table[31:0:-1], half[33:])):
                assert np.allclose(got, ref, rtol=rtol, atol=0.0)

    @pytest.mark.parametrize("n, box", [(64, 20.0), (256, 64.0), (512, 128.0), (4096, 200.0)])
    def test_axis_values_are_the_distinct_values_of_the_spectrum(self, n, box):
        # the solver's axis values, and the table row min(j, N - j) that
        # FFT row j reads, are what np.unique finds in the half spectrum,
        # whose last axis they are
        g = PeriodicGrid(dim=2, box_length=box, points_per_dim=n)
        axis, index = g._axis_values(), np.minimum(np.arange(n), n - np.arange(n))
        half = g.frequencies_squared()[:, :n // 2 + 1]
        uniq, inv = np.unique(np.concatenate([half[:, 0], half[0, :]]), return_inverse=True)
        assert np.array_equal(axis, uniq) and np.array_equal(index, inv[:n])
        assert np.array_equal(half[0], axis)

    @pytest.mark.parametrize("n, box, distinct", [
        (64, 20.0, None), (256, 64.0, None), (512, 128.0, None), (4096, 200.0, 1_197_363)])
    def test_integer_index_keys_the_exact_spectrum(self, n, box, distinct):
        # the direct route's 2D modes: one value per distinct integer
        # n = i^2 + j^2 over the axis pairs 0 <= i, j <= N/2, ascending,
        # each read back as (2 pi / L)^2 n
        g = PeriodicGrid(dim=2, box_length=box, points_per_dim=n)
        values, index = g._distinct_modes()
        k = np.arange(n // 2 + 1, dtype=np.int64)
        ints = k[:, None] ** 2 + k[None, :] ** 2
        scale = (2.0 * math.pi / box) ** 2
        assert np.array_equal(values[index], scale * ints)
        uniq = np.unique(ints.astype(float))  # exact below 2^53, and sorted faster
        assert np.array_equal(values, scale * uniq)
        assert uniq.size == (distinct or uniq.size)

    @pytest.mark.parametrize("kwargs", [
        {"dim": 3},
        {"box_length": -1.0},
        {"points_per_dim": 100},  # not power of 2
        {"points_per_dim": 32},   # too small
        {"points_per_dim": 96},
        {"box_length": 0.0},
        {"box_length": math.nan},
        {"box_length": math.inf},
    ])
    def test_validation(self, kwargs):
        # one parameter off a valid grid; the message names it
        (name,) = kwargs
        with pytest.raises(ValueError, match=name):
            PeriodicGrid(**{"dim": 1, "box_length": 10.0, "points_per_dim": 64, **kwargs})

    @pytest.mark.parametrize("sigma", [0.0, math.nan, math.inf, 1e-162, 1e-300])
    def test_bump_width_must_be_positive_and_finite(self, sigma):
        # below about 1.6e-162, 2 sigma^2 underflows to 0: the sample at
        # x = 0 was 0/0
        with pytest.raises(ValueError, match="sigma must be positive and finite"):
            gaussian_bump(PeriodicGrid(dim=1, box_length=10.0, points_per_dim=64), sigma)

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("sigma", [1.35e154, 1e200, 1.7e308])
    def test_bump_wider_than_the_double_range_is_ones(self, dim, sigma):
        # sigma^2 overflows: Python's power raised OverflowError; in double
        # precision exp(-x^2 / (2 sigma^2)) is exactly 1 at every node
        bump = gaussian_bump(PeriodicGrid(dim=dim, box_length=10.0, points_per_dim=64), sigma)
        assert np.all(bump.samples == 1.0)


class TestField:
    def test_shape_and_finiteness_checks(self, grid_1d):
        with pytest.raises(ValueError):
            Field(grid_1d, np.zeros(17))
        bad = np.zeros(grid_1d.points_per_dim)
        bad[0] = np.nan
        with pytest.raises(ValueError):
            Field(grid_1d, bad)

    def test_samples_read_only(self, bump_1d):
        with pytest.raises(ValueError):
            bump_1d.samples[0] = 1.0

    def test_gaussian_l2_norm_matches_analytic(self, grid_1d):
        # ||exp(-x^2/(2 sigma^2))||_2 = (pi sigma^2)^{1/4}
        sigma = 0.5
        f = gaussian_bump(grid_1d, sigma=sigma)
        assert f.norm_lp(2.0) == pytest.approx(
            (math.pi * sigma ** 2) ** 0.25, rel=1e-10)

    def test_norm_validation(self, bump_1d):
        with pytest.raises(ValueError):
            bump_1d.norm_lp(0.5)
        with pytest.raises(ValueError):
            bump_1d.norm_lp(math.inf)

    @pytest.mark.parametrize("dim, n, box", [(1, 1024, 200.0), (2, 128, 32.0)])
    def test_norm_powers_match_libm_pow(self, dim, n, box):
        # p = 4/3 by pow on the nonzero samples and p = 2 by one squaring
        # are np.power bit for bit; p = 4 by two squarings is within 1e-15
        a = np.abs(spectral_solve(gaussian_bump(PeriodicGrid(dim, box, n)),
                                  SolverConfig(alpha=0.6), 1.0).samples)
        a[a.size // 3::7] = 0.0  # exact zeros, as the flushed bump has
        dv = 0.125
        for p, rel in ((4.0 / 3.0, 0.0), (2.0, 0.0), (4.0, 1e-15)):
            ref = float(np.power(a, p).sum() * dv) ** (1.0 / p)
            got = pde_solver._norm_of_abs(a.copy(), p, dv)
            assert abs(got - ref) <= rel * ref

    def test_boundary_mass_fraction_small_for_centered_bump(self, bump_1d):
        assert bump_1d.boundary_mass_fraction() < 1e-12

    def test_constructor_copies_the_callers_array(self, grid_1d):
        arr = np.ones(grid_1d.points_per_dim)
        f = Field(grid_1d, arr)
        assert not np.shares_memory(f.samples, arr)
        arr[0] = 2.0
        assert f.samples[0] == 1.0 and arr.flags.writeable

    @pytest.mark.parametrize("rep", ["direct_ml", "subordination"])
    def test_solver_fields_are_owned_and_read_only(self, monkeypatch, rep):
        # a solve is a one-step sweep whose Field adopts the step's field
        # buffer; a sweep's fields stay in its step, and nothing
        # decay_measurement returns reaches the step's buffers
        call, steps = pde_solver._Step.__call__, []

        def spy(step, t):
            steps.append(step)
            return call(step, t)

        monkeypatch.setattr(pde_solver._Step, "__call__", spy)
        for dim, n, box in ((1, 1024, 200.0), (2, 64, 16.0)):
            w0 = gaussian_bump(PeriodicGrid(dim=dim, box_length=box, points_per_dim=n))
            cfg = SolverConfig(alpha=0.6, representation=rep)
            steps.clear()
            solved = [spectral_solve(w0, cfg, t) for t in (1.0, 3.0)]
            m = decay_measurement(w0, cfg, 4.0 / 3.0, 4.0, (0.1, 0.3, 1.0, 3.0, 7.0),
                                  wraparound_tol=1.0)
            assert len(steps) == 7 and len({id(s) for s in steps}) == 3
            assert all(w.samples is s.field for w, s in zip(solved, steps))
            sweep = [*steps[2].work, *(v for v in vars(steps[2]).values()
                                       if isinstance(v, np.ndarray))]
            for w in solved:
                assert not w.samples.flags.writeable
                assert not np.shares_memory(w.samples, w0.samples)
                assert all(not np.shares_memory(w.samples, v.samples)
                           for v in solved if v is not w)
                assert all(not np.shares_memory(w.samples, b) for b in sweep)
                with pytest.raises(ValueError):
                    w.samples[0] = 1.0
            assert all(type(v) is float for row in m.rows for v in row)
            assert all(type(v) in (float, bool, type(None)) for v in vars(m).values()
                       if v is not m.rows)

    @pytest.mark.parametrize("rep", ["direct_ml", "subordination"])
    @pytest.mark.parametrize("dim, n, box", [(1, 1024, 200.0), (2, 64, 16.0)])
    def test_one_step_solve_is_a_sweep_step(self, rep, dim, n, box):
        # a solve writes its product over its own spectrum, a sweep step into
        # its arena: the same field bit for bit, w0 untouched, and a sweep's
        # spectrum the same after each step
        w0 = gaussian_bump(PeriodicGrid(dim=dim, box_length=box, points_per_dim=n))
        before = w0.samples.copy()
        cfg = SolverConfig(alpha=0.6, representation=rep)
        step = pde_solver._Step(w0, cfg)
        spectrum = step.spectrum.copy()
        for t in (0.0, 1.0, 3.0):
            assert np.array_equal(spectral_solve(w0, cfg, t).samples, step(t))
            assert np.array_equal(step.spectrum, spectrum)
        assert np.array_equal(w0.samples, before)

    @pytest.mark.parametrize("rep", ["direct_ml", "subordination"])
    @pytest.mark.parametrize("sweep", [True, False])
    def test_2d_field_is_written_over_its_product(self, rep, sweep):
        # a 2D field is the first N^2 floats of the product's own buffer (the
        # spectrum in a one-step solve); a 1D field keeps its own buffer
        cfg = SolverConfig(alpha=0.6, representation=rep)
        for dim, n, box in ((1, 1024, 200.0), (2, 64, 16.0)):
            step = pde_solver._Step(gaussian_bump(PeriodicGrid(dim, box, n)), cfg, sweep=sweep)
            assert step.field.shape == (n,) * dim and step.field.flags.c_contiguous
            assert np.shares_memory(step.field, step.prod) == (dim == 2)
            assert np.shares_memory(step.prod, step.spectrum) == (not sweep)
            if dim == 2:
                assert step.field.ctypes.data == step.prod.ctypes.data

    @pytest.mark.parametrize("block_rows", [1, 3, 64, None])
    @pytest.mark.parametrize("sweep", [True, False])
    def test_field_in_row_blocks_is_the_whole_inverse(self, monkeypatch, block_rows, sweep):
        # each block of rows overwrites only product rows already read: any
        # block size gives numpy's whole-array inverse bit for bit
        n = 256
        w0 = gaussian_bump(PeriodicGrid(2, 64.0, n))
        if block_rows is not None:
            monkeypatch.setattr(pde_solver, "_FIELD_BLOCK_BYTES", block_rows * (n // 2 + 1) * 16)
        cfg = SolverConfig(alpha=0.6, representation="subordination")
        rows = np.minimum(np.arange(n), n - np.arange(n))
        step = pde_solver._Step(w0, cfg, sweep=sweep)
        tab = np.take(step.multiplier(2.0 ** 0.6), rows, axis=0)
        ref = np.fft.irfftn(np.fft.rfftn(w0.samples) * tab, w0.samples.shape, axes=(0, 1))
        assert np.array_equal(step(2.0), ref)

    @pytest.mark.parametrize("rep", ["direct_ml", "subordination"])
    def test_non_finite_solve_raises(self, rep):
        # finite samples whose spectrum overflows: a solve checks its field,
        # a sweep the sum of each step's |w|
        grid = PeriodicGrid(dim=2, box_length=16.0, points_per_dim=64)
        w0 = Field(grid, np.full((64, 64), 1e308))
        cfg = SolverConfig(alpha=0.6, representation=rep)
        for run in (lambda: spectral_solve(w0, cfg, 1.0),
                    lambda: decay_measurement(w0, cfg, 4.0 / 3.0, 4.0,
                                              (0.1, 0.3, 1.0, 3.0, 7.0), wraparound_tol=1.0)):
            with np.errstate(over="ignore", invalid="ignore"), pytest.raises(FloatingPointError):
                run()


def _peak_bytes_per_point(run, w0):
    """The tracemalloc peak of run(w0) per grid point, w0 itself excluded."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run(w0)
        return (tracemalloc.get_traced_memory()[1] - base) / w0.samples.size
    finally:
        tracemalloc.stop()


class TestFootprint:
    # 2D N = 512: the spectrum (8 B a point, the field written over it or
    # over the sweep's product), the multiplier table and, on the
    # subordination route, its heat factors; 1 B a point above the peaks
    # measured when the field moved onto the product (21.3, 25.5, 29.4 and
    # 27.4 B before)
    @pytest.mark.parametrize("rep, solve_peak, sweep_peak", [
        ("direct_ml", 14.3, 22.4), ("subordination", 19.0, 20.9)])
    def test_2d_peak_per_point(self, rep, solve_peak, sweep_peak):
        w0 = gaussian_bump(PeriodicGrid(2, 128.0, 512))
        cfg = SolverConfig(alpha=0.6, representation=rep)
        times = (1.0, 2.0, 4.0, 8.0, 16.0)
        for run, peak in ((lambda w: spectral_solve(w, cfg, 1.0), solve_peak),
                          (lambda w: decay_measurement(w, cfg, 4.0 / 3.0, 4.0, times), sweep_peak)):
            run(w0)  # the mass table and every other cache, outside the trace
            assert _peak_bytes_per_point(run, w0) <= peak

    def test_one_step_solve_drops_its_heat_factors_before_the_inverse_fft(self, monkeypatch):
        # 2D N = 512, subordination: when the inverse real FFT starts, a
        # one-step solve holds its spectrum (8 B a point) and its table (2
        # B), not the heat factors and flush mask (6.9 B) that built the
        # table; the field is the same, bit for bit
        w0 = gaussian_bump(PeriodicGrid(2, 128.0, 512))
        cfg = SolverConfig(alpha=0.6, representation="subordination")
        ref = pde_solver._Step(w0, cfg)(1.0).copy()  # a sweep's step keeps its arena
        held, irfft = [], np.fft.irfft

        def spy(*args, **kwargs):
            held.append(tracemalloc.get_traced_memory()[0])
            return irfft(*args, **kwargs)

        monkeypatch.setattr(np.fft, "irfft", spy)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = spectral_solve(w0, cfg, 1.0)
        finally:
            tracemalloc.stop()
        assert (held[0] - base) / w0.samples.size <= 10.5
        assert np.array_equal(out.samples, ref)


class TestSolve:
    def test_time_zero_is_identity(self, bump_1d):
        out = spectral_solve(bump_1d, SolverConfig(alpha=0.5), 0.0)
        assert np.max(np.abs(out.samples - bump_1d.samples)) <= 1e-12

    def test_mean_is_conserved(self, bump_1d):
        # the zero mode has multiplier E_alpha(0) = 1
        out = spectral_solve(bump_1d, SolverConfig(alpha=0.5), 5.0)
        assert out.mean() == pytest.approx(bump_1d.mean(), rel=1e-12)

    def test_representations_agree(self, bump_1d):
        for alpha in (0.25, 0.75):
            d = spectral_solve(bump_1d, SolverConfig(alpha=alpha), 1.0)
            s = spectral_solve(
                bump_1d, SolverConfig(alpha=alpha, representation="subordination"), 1.0)
            rel = np.max(np.abs(d.samples - s.samples)) / d.max_norm()
            assert rel <= 1e-9

    def test_alpha_one_matches_heat_kernel(self, grid_1d):
        # exact periodic-free-space agreement while the bump is far from
        # the boundary: Gaussian variance grows by 2t
        sigma, t = 0.5, 2.0
        f = gaussian_bump(grid_1d, sigma=sigma)
        out = spectral_solve(f, SolverConfig(alpha=1.0), t)
        x = grid_1d._axis()
        s2 = sigma ** 2 + 2.0 * t
        exact = sigma / math.sqrt(s2) * np.exp(-x ** 2 / (2.0 * s2))
        assert np.max(np.abs(out.samples - exact)) < 1e-12

    @pytest.mark.parametrize("dim, n, box", [(1, 1024, 200.0), (2, 128, 32.0), (2, 256, 64.0)])
    def test_forward_transform_is_rfftn(self, dim, n, box):
        # a real FFT over the last axis, then an in-place FFT over axis 0
        w0 = gaussian_bump(PeriodicGrid(dim, box, n))
        for cfg in (SolverConfig(alpha=0.6), SolverConfig(alpha=0.6, representation="subordination")):
            for sweep in (True, False):
                step = pde_solver._Step(w0, cfg, sweep=sweep)
                assert np.array_equal(step.spectrum, np.fft.rfftn(w0.samples))

    @pytest.mark.parametrize("dim, n, box", [(1, 1024, 200.0), (2, 128, 32.0)])
    @pytest.mark.parametrize("rep", ["direct_ml", "subordination"])
    @pytest.mark.parametrize("sweep", [True, False])
    def test_table_read_is_numpys_n_dimensional_transform(self, dim, n, box, rep, sweep):
        # FFT row j of every leading axis reads table row min(j, N - j):
        # irfftn(rfftn(w0) * the gathered table), bit for bit
        w0 = gaussian_bump(PeriodicGrid(dim, box, n))
        cfg = SolverConfig(alpha=0.6, representation=rep)
        rows = np.minimum(np.arange(n), n - np.arange(n))
        for t in (0.5, 3.0):
            step = pde_solver._Step(w0, cfg, sweep=sweep)
            tab = step.multiplier(t ** 0.6)
            for axis in range(dim - 1):
                tab = np.take(tab, rows, axis=axis)
            ref = np.fft.irfftn(np.fft.rfftn(w0.samples) * tab, w0.samples.shape,
                                axes=tuple(range(dim)))
            assert np.array_equal(step(t), ref)

    def test_subordination_requires_fractional_alpha(self):
        with pytest.raises(ValueError):
            SolverConfig(alpha=1.0, representation="subordination")

    def test_rejects_an_unknown_representation(self):
        with pytest.raises(ValueError, match="unknown representation 'bogus'"):
            SolverConfig(0.5, "bogus")

    def test_rejects_negative_time(self, bump_1d):
        for t in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                spectral_solve(bump_1d, SolverConfig(alpha=0.5), t)

    def test_representations_agree_2d(self):
        # resolved grid (dx 0.25 < sigma 0.5); the subordination route
        # takes the tensor-product GEMM, the direct route the node rule
        f = gaussian_bump(PeriodicGrid(dim=2, box_length=32.0, points_per_dim=128))
        for alpha in (0.3, 0.6, 0.95):
            for t in (0.1, 1.0, 5.0):
                d = spectral_solve(f, SolverConfig(alpha=alpha), t)
                s = spectral_solve(
                    f, SolverConfig(alpha=alpha, representation="subordination"), t)
                rel = np.max(np.abs(d.samples - s.samples)) / d.max_norm()
                assert rel <= 1e-7

    @pytest.mark.parametrize("dim, n, box", [(1, 1024, 200.0), (2, 128, 32.0)])
    @pytest.mark.parametrize("rep", ["direct_ml", "subordination"])
    def test_real_fft_matches_full_complex_transform(self, monkeypatch, dim, n, box, rep):
        # every field spectral_solve and decay_measurement produce on the
        # half spectrum against the full complex FFT of the same multiplier
        grid = PeriodicGrid(dim=dim, box_length=box, points_per_dim=n)
        w0 = gaussian_bump(grid)
        spectrum, xi2 = np.fft.fftn(w0.samples), grid.frequencies_squared()
        seen = _spy_steps(monkeypatch)
        ts = (0.1, 1.0, 7.0)
        for alpha in (0.3, 0.6, 0.95):
            cfg = SolverConfig(alpha=alpha, representation=rep)
            seen.clear()
            for t in ts:
                spectral_solve(w0, cfg, t)
            decay_measurement(w0, cfg, 4.0 / 3.0, 4.0, (0.1, 0.3, 1.0, 3.0, 7.0),
                              wraparound_tol=1.0)
            assert [t for t, _ in seen] == [*ts, 0.1, 0.3, 1.0, 3.0, 7.0]
            for t, w in seen:
                ref = np.fft.ifftn(spectrum * propagator_multiplier(cfg, t, xi2)).real
                assert np.max(np.abs(w - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_2d_direct_above_the_hankel_cap_agrees_with_subordination(self):
        # the real-axis rule on all 5,924 distinct modes of the 256 grid,
        # against the mass table at criterion-07's tolerance
        f = gaussian_bump(PeriodicGrid(dim=2, box_length=64.0, points_per_dim=256))
        for t in (0.1, 1.0, 5.0):
            d = spectral_solve(f, SolverConfig(alpha=0.99), t)
            s = spectral_solve(f, SolverConfig(alpha=0.99, representation="subordination"), t)
            assert np.max(np.abs(d.samples - s.samples)) / d.max_norm() <= 1e-7

    def test_2d_solve_runs(self):
        g = PeriodicGrid(dim=2, box_length=50.0, points_per_dim=128)
        f = gaussian_bump(g)
        out = spectral_solve(f, SolverConfig(alpha=0.5), 1.0)
        assert out.max_norm() < f.max_norm()
        assert out.mean() == pytest.approx(f.mean(), rel=1e-12)


# one configuration on each route of multiplier_method
_ROUTES = [(0.5, "direct_ml"), (0.99, "direct_ml"), (1.0, "direct_ml"), (0.5, "subordination")]

# t or x: zero, or anywhere from 1e-12 to 1e300 on a log scale
_ZERO_OR_WIDE = st.one_of(st.just(0.0), st.floats(min_value=-12.0, max_value=300.0)
                          .map(lambda e: 10.0 ** e))


def _spy_steps(monkeypatch):
    """A list that gets (t, copy of the field) for every solver step."""
    call, seen = pde_solver._Step.__call__, []

    def spy(step, t):
        out = call(step, t)
        seen.append((t, out.copy()))  # the step's buffer: overwritten next
        return out

    monkeypatch.setattr(pde_solver._Step, "__call__", spy)
    return seen


def _blocked_subordination(alpha, t, x):
    """The per-mode subordination matvec, block for block."""
    nodes, mass = wright_mass_nodes(alpha)
    u = t ** alpha * x
    return np.concatenate([np.exp(np.outer(-u[i:i + 512], nodes)) @ mass
                           for i in range(0, u.size, 512)])


class TestMultiplier:
    def test_rejects_invalid_time(self):
        x = np.array([0.0, 1.0, 2.0])
        for rep in ("direct_ml", "subordination"):
            for t in (-1.0, math.nan, math.inf):
                with pytest.raises(ValueError):
                    propagator_multiplier(SolverConfig(alpha=0.5, representation=rep), t, x)

    @pytest.mark.parametrize("alpha, rep", _ROUTES)
    def test_rejects_invalid_modes(self, monkeypatch, alpha, rep):
        # a negative, NaN or infinite |xi|^2 is refused before any kernel
        # runs, at t = 0 too
        cfg = SolverConfig(alpha=alpha, representation=rep)
        monkeypatch.setattr(pde_solver, "_kernel", lambda *a: pytest.fail("a kernel ran"))
        for bad in (-1.0, -50.0, -1e-300, math.nan, math.inf):
            for t in (0.0, 1.0):
                with pytest.raises(ValueError, match="xi2 must be finite and nonnegative"):
                    propagator_multiplier(cfg, t, np.array([[0.0, 2.0], [bad, 1.0]]))

    @pytest.mark.parametrize("alpha, rep", _ROUTES)
    def test_kernel_is_zero_at_infinity(self, alpha, rep):
        # E_alpha(-x) -> 0 as x -> inf, the value t^alpha |xi|^2 takes once
        # it overflows; the finite values beside it are untouched
        cfg = SolverConfig(alpha=alpha, representation=rep)
        got = pde_solver._kernel(cfg, np.array([math.inf, 0.0, 2.0, math.inf]))
        assert np.array_equal(got, [0.0, *pde_solver._kernel(cfg, np.array([0.0, 2.0])), 0.0])

    @given(
        alpha=st.floats(min_value=0.02, max_value=_HANKEL_ALPHA_CAP),
        log_x=st.lists(st.floats(min_value=-12.0, max_value=6.0),
                       min_size=1, max_size=8),
    )
    @settings(max_examples=40, deadline=None)
    def test_node_rule_matches_scalar_route(self, alpha, log_x):
        x = np.concatenate(([0.0], 10.0 ** np.array(log_x)))
        got = propagator_multiplier(SolverConfig(alpha=alpha), 1.0, x)
        ref = np.array([mittag_leffler_neg(alpha, float(v)) for v in x])
        # the rule's 1e-12 plus the reference's allowance of 1e-12
        assert np.all(np.abs(got - ref) <= 2e-12 * ref)

    def test_subordination_one_ulp_off_round_alpha(self):
        # 0.1 * 6 = 0.6000000000000001: the Wright series must not stop at
        # the nearly vanishing coefficient next to the pole at alpha = 0.6
        alpha = 0.1 * 6
        x = np.concatenate(([0.0], np.logspace(-3.0, 2.0, 11)))
        got = propagator_multiplier(SolverConfig(alpha=alpha, representation="subordination"),
                                    1.0, x)
        ref = [mittag_leffler_neg(alpha, float(v)) for v in x]
        assert np.max(np.abs(got - ref)) <= 1e-10

    def test_zero_mode_is_exactly_one(self):
        g = PeriodicGrid(dim=2, box_length=20.0, points_per_dim=64)
        for alpha in (0.3, 0.9):
            mult = propagator_multiplier(SolverConfig(alpha=alpha), 2.0,
                                         g.frequencies_squared())
            assert mult[0, 0] == 1.0

    @pytest.mark.parametrize("alpha", [0.99], ids=["policy1"])  # above the node rule's cap
    def test_strict_policy_keeps_scalar_route(self, alpha):
        x = np.array([0.0, 0.5, 3.0, 40.0])
        got = propagator_multiplier(SolverConfig(alpha=alpha), 1.0, x)
        ref = [mittag_leffler_neg(alpha, float(v)) for v in x]
        assert np.array_equal(got, ref)

    @pytest.mark.parametrize("alpha, rep, method", [
        (0.5, "direct_ml", "direct_ml/hankel-32"),
        (_HANKEL_ALPHA_CAP, "direct_ml", "direct_ml/hankel-32"),
        (0.99, "direct_ml", "direct_ml/real-axis"),
        (1.0, "direct_ml", "direct_ml/exp"),
        (0.5, "subordination", "subordination/wright-mass-table"),
    ])
    def test_kernel_runs_the_method_it_names(self, alpha, rep, method):
        cfg = SolverConfig(alpha=alpha, representation=rep)
        assert pde_solver.multiplier_method(cfg) == method
        x = np.concatenate(([0.0], np.logspace(-3.0, 3.0, 700)))
        reference = {
            "direct_ml/hankel-32": lambda: _ml_hankel(alpha, x),
            "direct_ml/real-axis": lambda: [mittag_leffler_neg(alpha, float(v)) for v in x],
            "direct_ml/exp": lambda: np.exp(-x),
            "subordination/wright-mass-table": lambda: _blocked_subordination(alpha, 1.0, x),
        }[method]()
        assert np.array_equal(pde_solver._kernel(cfg, x), reference)

    @pytest.mark.parametrize("alpha", [0.99, 1.0])
    def test_real_axis_kernel_runs_in_blocks_of_the_rule(self, alpha, monkeypatch):
        # the real-axis and exp routes hold one block's per-value arrays at
        # a time, and the rule is batch-independent: one call, bit for bit
        x = np.random.default_rng(5).permutation(
            np.concatenate(([0.0], np.geomspace(1e-6, 1e4, _RULE_BLOCK + 99))))
        reference, sizes = _ml_neg(alpha, x), []
        monkeypatch.setattr(pde_solver, "_ml_neg",
                            lambda a, u: sizes.append(u.size) or _ml_neg(a, u))
        assert np.array_equal(pde_solver._kernel(SolverConfig(alpha=alpha), x), reference)
        assert sizes == [_RULE_BLOCK, 100]

    def test_kernel_dispatches_on_the_method(self, monkeypatch):
        # the method tag chooses the branch, so the two cannot disagree
        cfg, x = SolverConfig(alpha=0.5), np.array([0.0, 0.5, 3.0, 40.0])
        monkeypatch.setattr(pde_solver, "multiplier_method", lambda c: "direct_ml/real-axis")
        ref = [mittag_leffler_neg(0.5, float(v)) for v in x]
        assert np.array_equal(pde_solver._kernel(cfg, x), ref)
        assert not np.array_equal(_ml_hankel(0.5, x), ref)

    def test_alpha_above_rule_cap_keeps_scalar_route(self):
        x = np.array([0.0, 0.5, 3.0, 16.4, 40.0])
        got = propagator_multiplier(SolverConfig(alpha=0.995), 1.0, x)
        ref = [mittag_leffler_neg(0.995, float(v)) for v in x]
        assert np.array_equal(got, ref)

    def test_blocked_subordination_matches_dense(self, grid_1d):
        # 513 distinct |xi|^2 on the 1024 grid: more than one row block
        alpha, t = 0.6, 1.5
        xi2 = grid_1d.frequencies_squared()
        cfg = SolverConfig(alpha=alpha, representation="subordination")
        got = propagator_multiplier(cfg, t, xi2)
        nodes, mass = wright_mass_nodes(alpha)
        dense = np.exp(-np.outer(xi2, t ** alpha * nodes)) @ mass
        assert np.max(np.abs(got - dense)) <= 1e-15
        uniq, inverse = np.unique(xi2, return_inverse=True)
        assert np.array_equal(got, _blocked_subordination(alpha, t, uniq)[inverse])

    @pytest.mark.parametrize("alpha, rep", [(0.5, "direct_ml"), (0.99, "direct_ml"),
                                            (1.0, "direct_ml"), (0.5, "subordination")])
    @pytest.mark.parametrize("shape", [(0,), (0, 3)])
    def test_empty_modes_give_an_empty_multiplier(self, alpha, rep, shape):
        # all four routes of multiplier_method
        cfg = SolverConfig(alpha=alpha, representation=rep)
        for t in (0.0, 1.0):
            got = propagator_multiplier(cfg, t, np.empty(shape))
            assert got.shape == shape

    @given(
        alpha=st.sampled_from([0.3, 0.6, 0.95]),
        ta=st.floats(min_value=1e-3, max_value=1e3),
        x=st.lists(_ZERO_OR_WIDE, min_size=1, max_size=12),
        order=st.sampled_from(["ascending", "shuffled"]),
        seed=st.integers(0, 2 ** 16),
        work=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_heat_factors_are_the_reference_bit_for_bit(self, alpha, ta, x, order, seed, work):
        # one rank-1 product and a clamp on the lanes the largest x flushes,
        # against a broadcast product, a clamp and mask over every lane, exp
        nodes, _ = wright_mass_nodes(alpha)
        # rows whose first, second or middle heat factor straddles the flush
        s = nodes[[0, 1, nodes.size // 2]]
        edge = np.outer([1.0 - 1e-15, 1.0, 1.0 + 1e-15, 0.5, 2.0], pde_solver._FLUSH / s).ravel()
        x = np.unique(np.concatenate([ta * np.array(x, dtype=float), edge]))
        x = x[np.isfinite(x)]
        if order == "shuffled":
            np.random.default_rng(seed).shuffle(x)
        e = np.multiply.outer(-x, nodes)
        far = e < -pde_solver._FLUSH
        ref = np.exp(np.maximum(e, -pde_solver._FLUSH))
        ref[far] = 0.0
        buffers = (np.full(ref.size + 5, np.nan), np.ones(ref.size + 5, dtype=bool))
        got = pde_solver._heat_factors(x, nodes, buffers if work else None)
        assert np.array_equal(got, ref)

    def test_2d_subordination_is_one_gemm(self, monkeypatch):
        # geometric panels (alpha <= 0.85, 784 nodes) and phi-spaced
        # panels (alpha > 0.85); every field spectral_solve and
        # decay_measurement produce against the full complex FFT of the
        # per-mode matvec, which the solver itself must not run
        def per_mode(kernel, x):
            raise AssertionError("2D subordination solve took the per-mode matvec")

        monkeypatch.setattr(pde_solver, "_blocked", per_mode)
        seen = _spy_steps(monkeypatch)
        for n, box in ((64, 20.0), (128, 32.0)):
            w0 = gaussian_bump(PeriodicGrid(dim=2, box_length=box, points_per_dim=n))
            spectrum = np.fft.fftn(w0.samples)
            uniq, inverse = np.unique(w0.grid.frequencies_squared(), return_inverse=True)
            for alpha in (0.3, 0.6, 0.95):
                cfg = SolverConfig(alpha=alpha, representation="subordination")
                seen.clear()
                for t in (0.1, 1.0, 7.0, 50.0):
                    spectral_solve(w0, cfg, t)
                decay_measurement(w0, cfg, 4.0 / 3.0, 4.0, (0.1, 0.3, 1.0, 3.0, 7.0),
                                  wraparound_tol=1.0)
                assert len(seen) == 9
                for t, w in seen:
                    mult = _blocked_subordination(alpha, t, uniq)[inverse].reshape(n, n)
                    ref = np.fft.ifftn(spectrum * mult).real
                    assert np.max(np.abs(w - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_solver_never_runs_np_unique(self, monkeypatch):
        # every route of spectral_solve and decay_measurement, 1D and 2D:
        # node rule, alpha = 1, scalar loop, per-mode matvec and GEMM
        def unique(*args, **kwargs):
            raise AssertionError("the solver ran np.unique")

        monkeypatch.setattr(np, "unique", unique)
        for dim, n, box in ((1, 1024, 200.0), (2, 64, 16.0)):
            w0 = gaussian_bump(PeriodicGrid(dim=dim, box_length=box, points_per_dim=n))
            for cfg in (SolverConfig(0.6), SolverConfig(1.0), SolverConfig(0.995),
                        SolverConfig(0.6, "subordination")):
                spectral_solve(w0, cfg, 1.0)
                decay_measurement(w0, cfg, 4.0 / 3.0, 4.0, (0.1, 0.3, 1.0, 3.0, 7.0),
                                  wraparound_tol=1.0)

    @given(
        alpha=st.floats(min_value=0.05, max_value=0.95),
        t=_ZERO_OR_WIDE,
        x=st.lists(_ZERO_OR_WIDE, min_size=1, max_size=8),
    )
    @settings(max_examples=60, deadline=None)
    def test_flushed_heat_factors_stay_within_bound(self, alpha, t, x):
        # flushed matvec (1D) and SYRK table (2D) against the unflushed
        # exp(outer) @ mass and G G^T, G = exp(outer) diag(sqrt(mass)):
        # never above it, never below by more than exp(-345) times the
        # table's total mass
        cfg = SolverConfig(alpha=alpha, representation="subordination")
        nodes, mass = wright_mass_nodes(alpha)
        bound = math.exp(-345.0) * float(mass.sum())
        ta = t ** alpha
        if ta > 0.0:
            # values whose first, second or middle heat factor sits at the flush
            s = nodes[[0, 1, nodes.size // 2]]
            x = [*x, *np.outer([300.0, 345.0, 400.0], 1.0 / (ta * s)).ravel()]
        x = np.unique(x)
        with np.errstate(over="ignore", under="ignore"):  # t^alpha x may overflow
            heat = np.exp(np.outer(-ta * x, nodes))
            g = heat * np.sqrt(mass)
            pairs = ((pde_solver._kernel(cfg, ta * x), heat @ mass),
                     (pde_solver._gram(ta * x, nodes, np.sqrt(mass)), g @ g.T))
        for got, ref in pairs:
            assert np.all(ref - got >= 0.0)
            assert np.all(ref - got <= bound)

    @pytest.mark.parametrize("dim, n, box", [(2, 512, 128.0), (2, 256, 64.0), (1, 4096, 200.0)])
    def test_flush_leaves_benchmark_grids_bit_identical(self, dim, n, box):
        # the solver's modes: the axis values; in 2D, the U x U SYRK table
        axis = PeriodicGrid(dim=dim, box_length=box, points_per_dim=n)._axis_values()
        for alpha in (0.3, 0.6, 0.84, 0.95):
            cfg = SolverConfig(alpha=alpha, representation="subordination")
            nodes, mass = wright_mass_nodes(alpha)
            for t in np.geomspace(1.0, 50.0, 10):
                if dim == 1:
                    got = pde_solver._kernel(cfg, t ** alpha * axis)
                    ref = _blocked_subordination(alpha, t, axis)
                else:
                    got = pde_solver._gram(t ** alpha * axis, nodes, np.sqrt(mass))
                    g = np.exp(np.outer(-t ** alpha * axis, nodes)) * np.sqrt(mass)
                    ref = g @ g.T
                assert np.array_equal(got, ref)

    @pytest.mark.parametrize("alpha", [0.3, 0.6, 0.95])
    def test_trimmed_1d_matvec_is_the_untrimmed_one(self, alpha):
        # each 128-row block stops at the last node its smallest x keeps;
        # the full flushed matvec, block for block, bit for bit
        axis = PeriodicGrid(dim=1, box_length=200.0, points_per_dim=4096)._axis_values()
        cfg = SolverConfig(alpha=alpha, representation="subordination")
        nodes, mass = wright_mass_nodes(alpha)
        for ta in (1.0, 4.0, 20.0):
            x = ta * axis
            ref = np.concatenate([pde_solver._heat_factors(x[i:i + 128], nodes) @ mass
                                  for i in range(0, x.size, 128)])
            assert np.array_equal(pde_solver._kernel(cfg, x), ref)

    def test_2d_table_is_exactly_symmetric(self, monkeypatch):
        # the tables a 2D subordination sweep reads, geometric and
        # phi-spaced panels
        gram, tables = pde_solver._gram, []

        def spy(*args):
            tables.append(gram(*args).copy())
            return tables[-1]

        monkeypatch.setattr(pde_solver, "_gram", spy)
        w0 = gaussian_bump(PeriodicGrid(dim=2, box_length=32.0, points_per_dim=128))
        for alpha in (0.3, 0.95):
            decay_measurement(w0, SolverConfig(alpha=alpha, representation="subordination"),
                              4.0 / 3.0, 4.0, (0.1, 0.3, 1.0, 3.0, 7.0), wraparound_tol=1.0)
        assert len(tables) == 10
        assert all(np.array_equal(tab, tab.T) for tab in tables)

    def test_2d_direct_table_is_the_kernel_on_axis_pairs(self):
        # the direct route's U x U table, for the node rule, the scalar
        # route and alpha = 1: the multiplier at (2 pi / L)^2 (i^2 + j^2),
        # exactly symmetric, as subordination's SYRK table is
        grid = PeriodicGrid(dim=2, box_length=20.0, points_per_dim=64)
        i = np.arange(33)
        xi2 = (2.0 * math.pi / 20.0) ** 2 * (i[:, None] ** 2 + i[None, :] ** 2)
        for alpha in (0.3, 0.95, 0.995, 1.0):
            cfg = SolverConfig(alpha=alpha)
            step = pde_solver._Step(gaussian_bump(grid), cfg)
            for t in (0.1, 1.0, 7.0):
                tab = step.multiplier(t ** alpha)
                assert np.array_equal(tab, propagator_multiplier(cfg, t, xi2))
                assert np.array_equal(tab, tab.T)

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("bad", [-1e-3, math.nan])
    def test_negative_mass_raises(self, monkeypatch, dim, bad, fresh_wright_tables):
        # sqrt(mass) would turn a negative mass into NaN: the mass table
        # refuses a negative or NaN density sample, so the solver, the sweep
        # and the per-mode multiplier do (the cut is certified before the
        # corruption, the table is built after it)
        subordination._certified_cut(0.6, 0.0)
        sample = subordination._wright_m_array

        def corrupted(alpha, s):
            m = sample(alpha, s)
            return np.where(np.arange(m.size) == 3, bad, m)

        monkeypatch.setattr(subordination, "_wright_m_array", corrupted)
        w0 = gaussian_bump(PeriodicGrid(dim=dim, box_length=16.0, points_per_dim=64))
        cfg = SolverConfig(alpha=0.6, representation="subordination")
        with pytest.raises(QuadratureError, match="negative or NaN"):
            spectral_solve(w0, cfg, 1.0)
        with pytest.raises(QuadratureError, match="negative or NaN"):
            decay_measurement(w0, cfg, 4.0 / 3.0, 4.0, (0.1, 0.3, 1.0, 3.0, 7.0))
        with pytest.raises(QuadratureError, match="negative or NaN"):
            propagator_multiplier(cfg, 1.0, w0.grid.frequencies_squared())

    def test_2d_non_tensor_sum_takes_per_mode_route(self):
        # a 2D array is keyed on its float values, as its flat copy is:
        # full FFT layout and half spectrum of a real FFT
        grid = PeriodicGrid(dim=2, box_length=20.0, points_per_dim=64)
        for last in (64, 33):
            xi2 = grid.frequencies_squared()[:, :last].copy()
            xi2[5, 7] += 0.25
            cfg = SolverConfig(alpha=0.6, representation="subordination")
            got = propagator_multiplier(cfg, 2.0, xi2)
            flat = propagator_multiplier(cfg, 2.0, xi2.ravel())
            assert np.array_equal(got, flat.reshape(xi2.shape))


class TestFieldIO:
    def test_round_trip_is_exact(self, bump_1d, tmp_path):
        path = tmp_path / "field.bin"
        write_field(bump_1d, path, time=2.5)
        restored, t = read_field(path)
        assert t == 2.5
        assert restored.grid == bump_1d.grid
        assert np.array_equal(restored.samples, bump_1d.samples)

    def test_2d_round_trip(self, tmp_path):
        g = PeriodicGrid(dim=2, box_length=20.0, points_per_dim=64)
        f = gaussian_bump(g, sigma=1.0)
        path = tmp_path / "f2d.bin"
        write_field(f, path)
        restored, t = read_field(path)
        assert t == 0.0
        assert np.array_equal(restored.samples, f.samples)


class TestCaputo:
    def test_l1_weights_reproduce_linear_solution(self):
        # D^alpha of t is t^{1-alpha}/Gamma(2-alpha); the L1 scheme is
        # exact on piecewise-linear functions
        alpha = 0.5
        t = np.linspace(0.0, 2.0, 33)
        deriv = caputo_l1_apply(alpha, t, t[1] - t[0])
        exact = t[1:] ** (1.0 - alpha) / math.gamma(2.0 - alpha)
        assert np.max(np.abs(deriv - exact)) < 1e-12

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.9])
    def test_l1_sum_is_the_convolution_of_weights_and_differences(self, alpha):
        # D_j = c sum_{k < j} b_k (u_{j-k} - u_{j-k-1}), term by term
        t = np.linspace(0.0, 2.0, 129)
        u = np.array([mittag_leffler_neg(alpha, ti ** alpha) for ti in t])
        k = np.arange(t.size - 1.0)
        b = (k + 1.0) ** (1.0 - alpha) - k ** (1.0 - alpha)
        c = (t[1] - t[0]) ** (-alpha) / math.gamma(2.0 - alpha)
        du = np.diff(u)
        direct = [c * float(np.dot(b[:j], du[j - 1::-1])) for j in range(1, t.size)]
        assert np.allclose(caputo_l1_apply(alpha, u, t[1] - t[0]), direct, rtol=1e-14, atol=0.0)

    def test_residual_refines_at_first_order(self):
        r_coarse = caputo_residual_l1(0.5, 1.0, np.linspace(0.0, 2.0, 129))
        r_fine = caputo_residual_l1(0.5, 1.0, np.linspace(0.0, 2.0, 257))
        assert math.log2(r_coarse / r_fine) >= 1.0

    def test_alpha_one_backward_difference(self):
        r = caputo_residual_l1(1.0, 1.0, np.linspace(0.0, 2.0, 257))
        assert r < 0.01  # O(dt) defect of the backward difference on e^{-t}

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            caputo_residual_l1(0.5, 1.0, np.linspace(0.1, 2.0, 64))  # no 0
        with pytest.raises(ValueError):
            caputo_residual_l1(0.5, 1.0, np.linspace(0.0, 0.5, 64))  # too short
        with pytest.raises(ValueError):
            caputo_residual_l1(0.5, -1.0, np.linspace(0.0, 2.0, 64))
        for mu in (math.nan, math.inf):
            with pytest.raises(ValueError, match="mu must be finite"):
                caputo_residual_l1(0.5, mu, np.linspace(0.0, 2.0, 64))
        with pytest.raises(ValueError, match="uniform"):
            caputo_residual_l1(0.5, 1.0, np.linspace(0.0, 2.0, 64) ** 2)


class TestDecayMeasurement:
    def test_compensated_ratio_monotone(self):
        g = PeriodicGrid(dim=1, box_length=200.0, points_per_dim=2048)
        f = gaussian_bump(g)
        m = decay_measurement(f, SolverConfig(alpha=0.5), 4.0 / 3.0, 4.0,
                              list(np.geomspace(5.0, 100.0, 8)))
        assert m.compensated_monotone
        assert m.lambda_exp == 0.5
        assert m.delta == pytest.approx(0.5)
        assert m.truncated_at is None

    def test_wraparound_truncates_with_warning(self):
        g = PeriodicGrid(dim=1, box_length=40.0, points_per_dim=256)
        f = gaussian_bump(g)
        with pytest.warns(RuntimeWarning, match="wraparound"):
            m = decay_measurement(f, SolverConfig(alpha=1.0), 4.0 / 3.0, 4.0,
                                  list(np.geomspace(0.5, 200.0, 12)))
        assert m.truncated_at is not None

    def test_too_few_usable_times_raises(self):
        g = PeriodicGrid(dim=1, box_length=40.0, points_per_dim=256)
        f = gaussian_bump(g)
        with pytest.warns(RuntimeWarning):
            with pytest.raises(InsufficientDataError):
                decay_measurement(f, SolverConfig(alpha=1.0), 4.0 / 3.0, 4.0,
                                  [1.0, 50.0, 100.0, 200.0, 400.0, 800.0])

    @pytest.mark.parametrize("dim, n, box, tol", [
        (1, 1024, 200.0, 1.0), (2, 64, 16.0, 1.0), (2, 128, 32.0, 1e-6)])
    @pytest.mark.parametrize("rep", ["direct_ml", "subordination"])
    def test_rows_are_those_of_per_time_solves(self, dim, n, box, tol, rep):
        # each row bit for bit from the field spectral_solve returns at its
        # time, through Field.norm_lp and Field.boundary_mass_fraction; on
        # the 2D box of side 32 the wraparound guard trips at t = 4.6
        w0 = gaussian_bump(PeriodicGrid(dim=dim, box_length=box, points_per_dim=n))
        cfg = SolverConfig(alpha=0.6, representation=rep)
        p, q, ts = 4.0 / 3.0, 4.0, [float(t) for t in np.geomspace(0.01, 100.0, 13)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            m = decay_measurement(w0, cfg, p, q, ts, wraparound_tol=tol)
        expo = 0.6 * (dim / 2.0) * (1.0 / p - 1.0 / q)
        for row, t in zip(m.rows, ts):
            w = spectral_solve(w0, cfg, t)
            ratio = w.norm_lp(q) / m.norm_p0
            assert row == (t, ratio, t ** expo * ratio, w.boundary_mass_fraction())
        if tol < 1.0:
            assert len(m.rows) == 8 and m.truncated_at == ts[8]
            assert spectral_solve(w0, cfg, ts[8]).boundary_mass_fraction() > tol
        else:
            assert len(m.rows) == 13 and m.truncated_at is None

    def test_validation(self):
        g = PeriodicGrid(dim=1, box_length=40.0, points_per_dim=256)
        f = gaussian_bump(g)
        with pytest.raises(ValueError):
            decay_measurement(f, SolverConfig(alpha=0.5), 3.0, 4.0, [1, 2, 3, 4, 5])
        with pytest.raises(ValueError):
            decay_measurement(f, SolverConfig(alpha=0.5), 4.0 / 3.0, 4.0,
                              [2.0, 1.0, 3.0, 4.0, 5.0])
        with pytest.raises(ValueError):
            decay_measurement(f, SolverConfig(alpha=0.5), 4.0 / 3.0, 4.0,
                              [1.0, 2.0, 3.0, 4.0, math.nan])
        # a NaN tolerance would never truncate: the guard would be off
        for tol in (math.nan, -1e-6, 1.5):
            with pytest.raises(ValueError, match="wraparound_tol"):
                decay_measurement(f, SolverConfig(alpha=0.5), 4.0 / 3.0, 4.0,
                                  [1.0, 2.0, 3.0, 4.0, 5.0], wraparound_tol=tol)
