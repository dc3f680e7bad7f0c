"""Seeded operation lists for the benchmark workloads, the operations
themselves, and each operation's correctness check.

An operation ("op") is one call into fracheat's public API or CLI. Its
parameters are drawn here from the workload seed; fracheat receives only
those values. Parameters are drawn by stratified sampling: n draws over a
range take one value from each of n equal slices, in shuffled order. The
op list then covers each range evenly for every seed, so the work per run
depends little on the seed while every value in the range stays possible.

Every check runs after the op's timing and spans have closed, and compares
the op's output with a reference computed another way.
"""

from __future__ import annotations

import json
import math
import random
import warnings
from pathlib import Path

import numpy as np

from fracheat import cli, decay_analysis, pde_solver, spectral_models, subordination
from fracheat import special_functions

P_EXP, Q_EXP = 4.0 / 3.0, 4.0
DELTA = 1.0 / P_EXP - 1.0 / Q_EXP

# Mean op cost at the seed code on a 2-vCPU Intel Xeon KVM guest, used only
# to turn --seconds into an op count. The count depends on --seconds alone,
# never on a clock, so every commit runs the same ops for a given seed.
NOMINAL_OP_S = {"pde-direct": 1.45, "pde-subordination": 2.4, "endpoint-analysis": 1.15}
MIN_OPS = {"pde-direct": 4, "pde-subordination": 3, "endpoint-analysis": 16}

WORKLOADS = tuple(NOMINAL_OP_S)


def _stratified(rng: random.Random, n: int, lo: float, hi: float,
                log: bool = False, slices=None) -> list[float]:
    """n draws from [lo, hi], the i-th from slice slices[i] of n equal
    slices (shuffled slices by default)."""
    if slices is None:
        slices = list(range(n))
        rng.shuffle(slices)
    u = [(s + rng.random()) / n for s in slices]
    if log:
        return [math.exp(math.log(lo) + x * (math.log(hi) - math.log(lo))) for x in u]
    return [lo + x * (hi - lo) for x in u]


def _paired(rng: random.Random, n: int, alpha_range, t_range) -> list[tuple[float, float]]:
    """n (alpha, t) pairs: alpha slice i goes with log-t slice i.

    Direct-solve cost grows steeply toward high alpha and short times: at
    2D N=256 a solve takes 1.3 s at (alpha, t) = (0.3, 0.25) and 1.9 s at
    (0.9, 4), but 14 s at (0.9, 0.25). Pairing low alpha with short times
    and high alpha with long times keeps every op within about 1-3 s, so
    no single draw dominates a run or moves its median op, and the seed
    only moves each pair within its cell.
    """
    slices = list(range(n))
    return list(zip(_stratified(rng, n, *alpha_range, slices=slices),
                    _stratified(rng, n, *t_range, log=True, slices=slices)))


def _split(n: int, share: float) -> tuple[int, int]:
    major = min(n - 1, int(share * n + 0.5))
    return major, n - major


def build_ops(workload: str, seed: int, seconds: float) -> list[dict]:
    """The op list of one run: a pure function of its three arguments."""
    n = max(MIN_OPS[workload], round(seconds / NOMINAL_OP_S[workload]))
    rng = random.Random(f"{workload}:{seed}")
    ops = {"pde-direct": _direct_ops, "pde-subordination": _subordination_ops,
           "endpoint-analysis": _endpoint_ops}[workload](rng, n)
    rng.shuffle(ops)
    return ops


def _direct_ops(rng: random.Random, n: int) -> list[dict]:
    # 2D N=256, L=64: dx = 0.25 = sigma/2 resolves the bump; 7,158 distinct
    # |xi|^2 per solve, of which the few that escalate to the mpmath series
    # take most of the time. 1D N=4096, L=200: 2,049 distinct |xi|^2, large
    # x, mostly the asymptotic route.
    ops = []
    for (dim, size, box), count in zip(((2, 256, 64.0), (1, 4096, 200.0)), _split(n, 0.75)):
        for a, t in _paired(rng, count, (0.3, 0.9), (0.25, 4.0)):
            ops.append({"kind": "solve-direct", "dim": dim, "N": size, "L": box,
                        "sigma": 0.5, "alpha": a, "t": t})
    return ops


def _subordination_ops(rng: random.Random, n: int) -> list[dict]:
    # 2D N=512, L=128: dx = sigma/2, and at t <= 50 the boundary mass stays
    # below 1e-8 for every alpha in range, so no time trips the wraparound
    # guard. Above alpha = 0.85 the mass table switches from geometric
    # panels (784 nodes) to phi-spaced ones, whose node count jumps between
    # 1280 and 1824 with alpha; the dense multiplier, and so the op's peak
    # memory, scales with it. 2D sweeps therefore draw alpha from the
    # geometric range, and one 2D sweep per run sits at the top of the range,
    # alpha = 0.95, so both layouts run on every seed and the largest
    # process does not depend on the seed. 1D sweeps draw from the whole
    # range.
    n2, n1 = _split(n, 0.75)
    alphas = [(2, a) for a in _stratified(rng, n2 - 1, 0.3, 0.85)]
    alphas.append((2, 0.95))
    alphas += [(1, a) for a in _stratified(rng, n1, 0.3, 0.95)]
    ops = []
    for dim, a in alphas:
        size, box = (512, 128.0) if dim == 2 else (4096, 200.0)
        ops.append({"kind": "sweep-subordination", "dim": dim, "N": size, "L": box,
                    "sigma": 0.5, "alpha": a, "t_lo": 1.0, "t_hi": 50.0, "times": 10,
                    "check_seed": rng.randrange(2 ** 31)})
    return ops


# op kind -> share of the op list. The three headline kinds cost 0.6-3 s
# per op, the four supporting kinds 0.01-0.3 s. With three quarters of the
# ops in the headline kinds, the median op lies inside their range instead
# of on the gap between the two groups, where it would jump with the seed.
ENDPOINT_KINDS = {"cli-decay-compare": 4, "cli-verify-moments": 4, "endpoint-profile": 4,
                  "cli-verify-subordination": 1, "condition-torus": 1,
                  "condition-power-law": 1, "caputo-residual": 1}


def _endpoint_ops(rng: random.Random, n: int) -> list[dict]:
    total = sum(ENDPOINT_KINDS.values())
    counts = {k: n * w // total for k, w in ENDPOINT_KINDS.items()}
    for k in sorted(ENDPOINT_KINDS, key=lambda k: -(n * ENDPOINT_KINDS[k] % total)):
        if sum(counts.values()) == n:
            break
        counts[k] += 1
    below_endpoint = [e.name for e in spectral_models.DEFAULT_CATALOG
                      if e.lambda_exp * DELTA < 1.0]
    ops = []
    for kind, count in counts.items():
        for a, t in _paired(rng, count, (0.25, 0.9), (0.25, 4.0)):
            op = {"kind": kind, "alpha": a}
            if kind.startswith("condition"):
                op["t"] = t
            if kind == "condition-power-law":
                op["model"] = rng.choice(below_endpoint)
                op["c"] = math.exp(rng.uniform(math.log(0.5), math.log(2.0)))
            if kind == "caputo-residual":
                op["mu"] = math.exp(rng.uniform(math.log(0.5), math.log(4.0)))
            ops.append(op)
    return ops


# ---------------------------------------------------------------------------
# running an op
# ---------------------------------------------------------------------------

def _grid(op: dict):
    return pde_solver.PeriodicGrid(dim=op["dim"], box_length=op["L"],
                                   points_per_dim=op["N"])


def _cli(argv: list[str], workdir: Path) -> dict:
    out = workdir / "report.json"
    return {"exit": cli.main([*argv, "--out", str(out)]), "out": out}


def run_op(op: dict, workdir: Path):
    """Perform one op and return what its check needs."""
    kind, a = op["kind"], op["alpha"]
    if kind == "solve-direct":
        w0 = pde_solver.gaussian_bump(_grid(op), sigma=op["sigma"])
        cfg = pde_solver.SolverConfig(alpha=a, representation="direct_ml")
        return w0, pde_solver.spectral_solve(w0, cfg, op["t"])
    if kind == "sweep-subordination":
        w0 = pde_solver.gaussian_bump(_grid(op), sigma=op["sigma"])
        cfg = pde_solver.SolverConfig(alpha=a, representation="subordination")
        ts = list(np.geomspace(op["t_lo"], op["t_hi"], op["times"]))
        with warnings.catch_warnings():
            # a wraparound warning is reported through truncated_at
            warnings.simplefilter("ignore", RuntimeWarning)
            return cfg, pde_solver.decay_measurement(w0, cfg, P_EXP, Q_EXP, ts)
    if kind == "cli-decay-compare":
        return _cli(["decay-compare", "--alpha", repr(a), "--lambda", repr(1.0 / DELTA)],
                    workdir)
    if kind == "cli-verify-moments":
        return _cli(["verify-moments", "--alpha", repr(a)], workdir)
    if kind == "cli-verify-subordination":
        return _cli(["verify-subordination", "--alpha", repr(a)], workdir)
    if kind == "endpoint-profile":
        return subordination.endpoint_divergence_profile(a, list(np.logspace(-2, -5, 8)))
    if kind == "condition-torus":
        model = spectral_models.torus_laplacian_2d()
        return model, spectral_models.condition_supremum(model, P_EXP, Q_EXP, a, op["t"])
    if kind == "condition-power-law":
        entry = next(e for e in spectral_models.DEFAULT_CATALOG if e.name == op["model"])
        model = entry.model(op["c"])
        return (spectral_models.condition_supremum(model, P_EXP, Q_EXP, a, op["t"], "heat"),
                spectral_models.condition_supremum(model, P_EXP, Q_EXP, a, op["t"]))
    if kind == "caputo-residual":
        return pde_solver.caputo_residual_l1(a, op["mu"], np.linspace(0.0, 2.0, 129))
    raise ValueError(f"unknown op kind {kind!r}")


# ---------------------------------------------------------------------------
# checking an op against an independent reference
# ---------------------------------------------------------------------------

def check_op(op: dict, result) -> tuple[bool, str]:
    kind, a = op["kind"], op["alpha"]
    if kind == "solve-direct":
        # criterion-07's tolerance: the subordination route on the same grid
        w0, w = result
        cfg = pde_solver.SolverConfig(alpha=a, representation="subordination")
        ref = pde_solver.spectral_solve(w0, cfg, op["t"]).samples
        gap = float(np.max(np.abs(w.samples - ref)) / np.max(np.abs(ref)))
        return gap <= 1e-7, f"relative max-norm gap to subordination {gap:.2e} (tol 1e-7)"
    if kind == "sweep-subordination":
        cfg, m = result
        if not m.compensated_monotone or m.truncated_at is not None:
            return False, (f"compensated_monotone={m.compensated_monotone}, "
                           f"truncated_at={m.truncated_at}")
        # the sweep's own multiplier (same cached mass table) against the
        # direct Mittag-Leffler value at seed-drawn modes and times
        rng = random.Random(op["check_seed"])
        xi2 = _grid(op).frequencies_squared().ravel()
        modes = np.array([xi2[rng.randrange(xi2.size)] for _ in range(16)])
        t = float(rng.choice(list(np.geomspace(op["t_lo"], op["t_hi"], op["times"]))))
        got = pde_solver.propagator_multiplier(cfg, t, modes)
        ref = np.array([special_functions.mittag_leffler_neg(a, t ** a * x) for x in modes])
        gap = float(np.max(np.abs(got - ref)))
        return gap <= 1e-8, f"monotone, multiplier gap to E_alpha {gap:.2e} (tol 1e-8)"
    if kind.startswith("cli-"):
        if result["exit"] != 0:
            return False, f"exit code {result['exit']}"
        if kind != "cli-decay-compare":
            return True, "exit 0 (built-in tolerance)"
        worst = 0.0
        for rec in json.loads(result["out"].read_text())["records"]:
            if rec.get("method") == "quadrature":
                beta = rec["lambda"] * rec["delta"]
                exact = math.gamma(1.0 - beta) / math.gamma(1.0 - a * beta)
                worst = max(worst, abs(rec["constant"] - exact) / exact)
        return worst <= 1e-6, f"exit 0, subordination constant rel error {worst:.2e} (tol 1e-6)"
    if kind == "endpoint-profile":
        expected = 1.0 / math.gamma(1.0 - a)
        rel = abs(result.slope - expected) / expected
        return rel <= 0.05, f"slope vs 1/Gamma(1-alpha) {100 * rel:.2f}% (tol 5%)"
    if kind == "condition-torus":
        # tau is a step function and the kernel decreases, so the supremum
        # is the limit from the right at an eigenvalue
        model, got = result
        ev = np.asarray(model.variant.eigenvalues)
        below = np.cumsum(model.variant.multiplicities)
        ta = op["t"] ** a
        exact = max(float(c) ** DELTA * special_functions.mittag_leffler_neg(a, ta * e)
                    for c, e in zip(below, ev))
        rel = (exact - got) / exact
        return 0.0 <= rel <= 0.05, f"grid supremum below the exact one by {100 * rel:.3f}% (tol 5%)"
    if kind == "condition-power-law":
        heat, direct = result
        entry = next(e for e in spectral_models.DEFAULT_CATALOG if e.name == op["model"])
        beta = entry.lambda_exp * DELTA
        scale = op["c"] ** DELTA
        heat_ref = scale * decay_analysis.sup_heat_closed_form(beta, op["t"])
        direct_ref = scale * op["t"] ** (-a * beta) * decay_analysis.ml_supremum_profile(a, beta)
        rel_heat = abs(heat - heat_ref) / heat_ref
        rel_direct = abs(direct - direct_ref) / direct_ref
        return (rel_heat <= 1e-8 and rel_direct <= 1e-6,
                f"heat vs closed form {rel_heat:.2e} (tol 1e-8), "
                f"direct vs ml_supremum_profile {rel_direct:.2e} (tol 1e-6)")
    if kind == "caputo-residual":
        # the L1 scheme refines at order >= 1 under step halving
        fine = pde_solver.caputo_residual_l1(a, op["mu"], np.linspace(0.0, 2.0, 257))
        order = math.log2(result / fine)
        return order >= 1.0, f"residual {result:.2e}, observed order {order:.2f} (min 1)"
    raise ValueError(f"unknown op kind {kind!r}")
