"""Acceptance suite: one test per verification criterion, each recording
a single PASS/FAIL line (echoed in the terminal summary).

Criterion 5 is split into its two clauses: the endpoint-loss clause
(subordination constant blows up, direct constant stays finite) and the
direct-route stability clause (compensated supremum changes by at most
5% over the probe exponents). The stability clause is implemented
exactly as stated and currently fails: the direct compensated supremum
sup_u u^beta E_{1/2}(-u) moves from 0.4459 to 0.5114 (a 14.7% change)
over beta in {0.8, 0.9, 0.95}, which is genuine behavior of the
function, not a numerical artifact.
"""

import math
import time

import numpy as np
import pytest

from conftest import record_criterion
from fracheat import decay_analysis, pde_solver, spectral_models, subordination
from fracheat.special_functions import (
    mittag_leffler_contour,
    mittag_leffler_neg,
    wright_m,
)


def test_criterion_01_subordination_identity():
    start = time.monotonic()
    worst = 0.0
    for alpha in (0.25, 0.5, 0.75):
        for x in np.logspace(-3, 2, 30):
            err = abs(subordination.subordinate_scalar(alpha, float(x))
                      - mittag_leffler_neg(alpha, float(x)))
            worst = max(worst, err)
    elapsed = time.monotonic() - start
    ok = worst <= 1e-8 and elapsed < 10.0
    record_criterion(
        "criterion-01 subordination-identity",
        ok, f"worst |quadrature - direct| = {worst:.3e} (tol 1e-08), {elapsed:.1f}s")
    assert ok


def test_criterion_02_moment_identity():
    start = time.monotonic()
    worst = 0.0
    for alpha in (0.25, 0.5, 0.75):
        for g in (-0.5, 0.0, 0.5, 1.0, 2.0, 3.0):
            numeric = subordination.wright_moment(alpha, g)
            exact = math.gamma(g + 1.0) / math.gamma(g * alpha + 1.0)
            worst = max(worst, abs(numeric - exact) / abs(exact))
    elapsed = time.monotonic() - start
    ok = worst <= 1e-6 and elapsed < 5.0
    record_criterion(
        "criterion-02 moment-identity",
        ok, f"worst relative error = {worst:.3e} (tol 1e-06), {elapsed:.1f}s")
    assert ok


def test_criterion_03_endpoint_divergence_slope():
    start = time.monotonic()
    worst_rel = 0.0
    for alpha in (0.25, 0.5):
        prof = subordination.endpoint_divergence_profile(
            alpha, list(np.logspace(-2, -5, 8)))
        rel = abs(prof.slope - prof.expected_slope) / prof.expected_slope
        worst_rel = max(worst_rel, rel)
    elapsed = time.monotonic() - start
    ok = worst_rel <= 0.05 and elapsed < 10.0
    record_criterion(
        "criterion-03 endpoint-divergence-slope",
        ok, f"worst slope deviation = {100 * worst_rel:.2f}% (tol 5%), {elapsed:.1f}s")
    assert ok


def test_criterion_04_supremum_closed_forms():
    worst_heat = 0.0
    for beta in (0.2, 0.5, 1.0, 1.5, 2.0):
        for t in (0.1, 1.0, 5.0, 20.0, 100.0):
            cf = decay_analysis.sup_heat_closed_form(beta, t)
            num = decay_analysis.sup_heat_numeric(beta, t)
            worst_heat = max(worst_heat, abs(num - cf) / cf)
    worst_bound = 0.0
    for alpha in (0.25, 0.5, 0.75):
        for t in (0.5, 2.0, 16.0):
            num = decay_analysis.sup_ml_numeric(alpha, 1.0, t, exact_kernel=False)
            worst_bound = max(worst_bound, abs(num - t ** (-alpha)) * t ** alpha)
    ts = np.logspace(1, 4, 12)
    beta, alpha = 0.5, 0.5
    heat_slope = decay_analysis.fit_decay_exponent(
        ts, [decay_analysis.sup_heat_numeric(beta, t) for t in ts]).slope
    bound_slope = decay_analysis.fit_decay_exponent(
        ts, [decay_analysis.sup_ml_numeric(alpha, beta, t, exact_kernel=False)
             for t in ts]).slope
    slope_ok = (abs(heat_slope + beta) / beta <= 0.02
                and abs(bound_slope + alpha * beta) / (alpha * beta) <= 0.02)
    ok = worst_heat <= 1e-6 and worst_bound <= 1e-6 and slope_ok
    record_criterion(
        "criterion-04 supremum-closed-forms", ok,
        f"heat sup rel = {worst_heat:.2e}, bound endpoint rel = {worst_bound:.2e}, "
        f"slopes {heat_slope:.4f}/{bound_slope:.4f} vs {-beta}/{-alpha * beta}")
    assert ok


def test_criterion_05_endpoint_loss():
    start = time.monotonic()
    report = decay_analysis.compare_representations(0.5, 1.0, [0.2, 0.1, 0.05])
    sub = {r.eps: r.constant for r in report.records
           if r.representation == "subordination"}
    direct = {r.eps: r.constant for r in report.records
              if r.representation == "direct_ml"}
    growth = sub[0.05] / sub[0.2]
    elapsed = time.monotonic() - start
    ok = (growth >= 3.0
          and math.isinf(sub[0.0])
          and math.isfinite(direct[0.0])
          and elapsed < 30.0)
    record_criterion(
        "criterion-05 endpoint-loss", ok,
        f"subordination constant grows {growth:.2f}x over delta 0.8->0.95, "
        f"endpoint: direct = {direct[0.0]:.5f}, subordination = inf, {elapsed:.1f}s")
    assert ok


def test_criterion_05_direct_stability_clause():
    constants = [decay_analysis.ml_supremum_profile(0.5, b)
                 for b in (0.8, 0.9, 0.95)]
    change = max(constants) / min(constants) - 1.0
    ok = change <= 0.05
    record_criterion(
        "criterion-05 direct-stability-clause", ok,
        f"direct compensated supremum changes {100 * change:.1f}% over "
        f"delta 0.8->0.95 (required <= 5%); values "
        + "/".join(f"{c:.5f}" for c in constants))
    assert ok


def test_criterion_06_special_function_suite():
    # complete monotonicity: alternating finite differences, orders 1-4
    h = 0.05
    xs = np.arange(0.1, 20.0, 0.25)
    cm_min = math.inf
    for alpha in (0.3, 0.5, 0.8):
        vals = np.array([
            [mittag_leffler_neg(alpha, float(x + j * h)) for j in range(5)]
            for x in xs
        ])
        diff = vals
        for order in range(1, 5):
            diff = np.diff(diff, axis=1)
            cm_min = min(cm_min, float(((-1.0) ** order * diff).min()))
    worst_contour = max(
        abs(mittag_leffler_contour(a, x) - mittag_leffler_neg(a, x))
        for a in (0.5, 0.75, 0.9) for x in (0.1, 1.0, 10.0))
    worst_exp = max(
        abs(mittag_leffler_neg(1.0, float(x)) - math.exp(-x))
        for x in np.linspace(0.0, 30.0, 61))
    worst_wright = max(
        abs(wright_m(0.5, float(s)) - math.exp(-s * s / 4.0) / math.sqrt(math.pi))
        for s in np.linspace(0.0, 8.0, 81))
    ok = (cm_min >= -1e-9 and worst_contour <= 1e-10
          and worst_exp <= 1e-12 and worst_wright <= 1e-10)
    record_criterion(
        "criterion-06 special-function-suite", ok,
        f"monotonicity min = {cm_min:.2e}, contour = {worst_contour:.2e}, "
        f"alpha=1 = {worst_exp:.2e}, wright identity = {worst_wright:.2e}")
    assert ok


def test_criterion_07_pde_representation_agreement():
    start = time.monotonic()
    grid = pde_solver.PeriodicGrid(dim=1, box_length=200.0, points_per_dim=4096)
    w0 = pde_solver.gaussian_bump(grid)
    worst = 0.0
    for alpha in (0.25, 0.5, 0.75):
        for t in (0.1, 1.0, 10.0):
            d = pde_solver.spectral_solve(
                w0, pde_solver.SolverConfig(alpha=alpha), t)
            s = pde_solver.spectral_solve(
                w0, pde_solver.SolverConfig(alpha=alpha,
                                            representation="subordination"), t)
            worst = max(worst, float(np.max(np.abs(d.samples - s.samples))
                                     / d.max_norm()))
    rt = pde_solver.spectral_solve(w0, pde_solver.SolverConfig(alpha=0.5), 0.0)
    round_trip = float(np.max(np.abs(rt.samples - w0.samples)))
    elapsed = time.monotonic() - start
    ok = worst <= 1e-7 and round_trip <= 1e-12 and elapsed < 60.0
    record_criterion(
        "criterion-07 pde-representation-agreement", ok,
        f"worst relative max-norm gap = {worst:.2e} (tol 1e-07), "
        f"t=0 round-trip = {round_trip:.2e}, {elapsed:.1f}s")
    assert ok


def test_criterion_08_decay_bound_check():
    grid = pde_solver.PeriodicGrid(dim=1, box_length=200.0, points_per_dim=4096)
    w0 = pde_solver.gaussian_bump(grid)
    ts = list(np.geomspace(10.0, 160.0, 8))
    monotone = True
    for alpha in (0.5, 1.0):
        m = pde_solver.decay_measurement(
            w0, pde_solver.SolverConfig(alpha=alpha), 4.0 / 3.0, 4.0, ts)
        monotone = monotone and m.compensated_monotone
    # classical baseline: L^2 norm of the alpha=1 (heat) evolution of an
    # effectively-L^1 bump decays like t^{-1/4}
    base = pde_solver.decay_measurement(
        w0, pde_solver.SolverConfig(alpha=1.0), 2.0, 2.0, ts)
    slope_dev = abs(base.fitted_exponent + 0.25) / 0.25
    ok = monotone and slope_dev <= 0.10
    record_criterion(
        "criterion-08 decay-bound-check", ok,
        f"compensated ratio non-increasing = {monotone}, alpha=1 L2 slope = "
        f"{base.fitted_exponent:.4f} vs -0.25 ({100 * slope_dev:.1f}% off)")
    assert ok


def test_criterion_09_caputo_residual_order():
    worst_order = math.inf
    for alpha in (0.3, 0.5, 0.7):
        for mu in (0.5, 1.0, 4.0):
            coarse = pde_solver.caputo_residual_l1(
                alpha, mu, np.linspace(0.0, 2.0, 129))
            fine = pde_solver.caputo_residual_l1(
                alpha, mu, np.linspace(0.0, 2.0, 257))
            worst_order = min(worst_order, math.log2(coarse / fine))
    ok = worst_order >= 1.0
    record_criterion(
        "criterion-09 caputo-residual-order", ok,
        f"minimum observed refinement order = {worst_order:.2f} (required >= 1)")
    assert ok


def test_criterion_10_trace_catalog():
    r1 = spectral_models.verify_trace_growth(
        spectral_models.torus_laplacian_1d(2000), 0.5, (1.0, 1e6))
    r2 = spectral_models.verify_trace_growth(
        spectral_models.torus_laplacian_2d(120), 1.0, (2.0, 8000.0))
    power_ok = True
    for entry in spectral_models.DEFAULT_CATALOG:
        rp = spectral_models.verify_trace_growth(
            entry.model(), entry.lambda_exp, (1.0, 1e6))
        power_ok = power_ok and abs(
            rp.fitted_slope - entry.lambda_exp) <= 1e-9 * entry.lambda_exp
    ok = r1.within_10_percent and r2.within_10_percent and power_ok
    record_criterion(
        "criterion-10 trace-catalog", ok,
        f"torus slopes {r1.fitted_slope:.3f}/{r2.fitted_slope:.3f} vs 0.5/1.0, "
        f"power-law exponents exact = {power_ok}")
    assert ok
