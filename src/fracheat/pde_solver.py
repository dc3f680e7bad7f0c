"""Spectral solver for the time-fractional heat equation on a periodic box.

The box is a desk-scale surrogate for free space: data is kept localized
(Gaussian bumps) and a wraparound guard truncates any time window where
solution mass reaches the boundary. The propagator acts mode-by-mode:
each Fourier mode xi is multiplied by E_alpha(-t^alpha |xi|^2), either
evaluated directly or through the Wright-subordination quadrature over
classical heat multipliers exp(-s t^alpha |xi|^2). The field is real, so
its spectrum is Hermitian: a step (`_Step`, the same lines in every dim)
is rfftn's sequence, the multiplier on the half spectrum and irfftn's.
On the box |xi|^2 = (2 pi / L)^2 n, n = sum of i^2 over the axes, and is
the sum of the axis values c_u = xi_u^2, 0 <= u <= N//2, so either route's
multiplier is a table on the U^dim axis tuples. Subordination factorizes
the heat multiplier, exp(-tau |xi|^2) = prod of exp(-tau c_u) over the
axes (`_wright_table`, in 2D by node blocks); heat factors below
exp(-345) ~ 1e-150 are exact zeros, so no exp underflows and no table
product is subnormal. The direct kernel 1/(g^alpha + x) does not factorize:
it runs on the distinct n, found by an occupancy table (no float sort), and
is gathered into the table. A sweep's one `_Step` owns every buffer its
steps write, so no step allocates a full-size array; a one-step solve writes
its product over its own spectrum. A 2D field is written over the product's
own buffer, whose rows are 2 floats longer than the field's, so the inverse
real FFT, in row blocks in order, overwrites only product rows it has read.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np
import numpy.fft  # noqa: F401  (numpy loads it lazily: on the first FFT of a cold run)

from .errors import InsufficientDataError
from .special_functions import (Alpha, _HANKEL_ALPHA_CAP, _RULE_BLOCK, _fit_line, _ml_hankel,
                                _ml_neg, _wright_alpha)
from .subordination import _FLUSH, _heat_factors, _heat_sum, wright_mass_nodes

__all__ = [
    "PeriodicGrid",
    "Field",
    "gaussian_bump",
    "write_field",
    "read_field",
    "SolverConfig",
    "multiplier_method",
    "propagator_multiplier",
    "spectral_solve",
    "caputo_residual_l1",
    "caputo_l1_apply",
    "DecayMeasurement",
    "decay_measurement",
]


@dataclass(frozen=True)
class PeriodicGrid:
    """Uniform periodic grid on [-L/2, L/2)^dim with N points per axis."""

    dim: int
    box_length: float
    points_per_dim: int

    def __post_init__(self) -> None:
        if self.dim not in (1, 2):
            raise ValueError("dim must be 1 or 2")
        if not 0.0 < self.box_length < math.inf:
            raise ValueError(f"box_length must be positive and finite, got {self.box_length}")
        n = self.points_per_dim
        if n < 64 or n & (n - 1) != 0:
            raise ValueError("points_per_dim must be a power of two >= 64")

    @property
    def dx(self) -> float:
        return self.box_length / self.points_per_dim

    @property
    def cell_volume(self) -> float:
        return self.dx ** self.dim

    def _axis(self) -> np.ndarray:
        """The N sample positions along one axis."""
        return self.dx * np.arange(self.points_per_dim) - self.box_length / 2.0

    def frequencies_squared(self) -> np.ndarray:
        """|xi|^2 for each mode, xi_k = 2 pi k / L, in FFT layout: an outer sum over the axes."""
        j = np.arange(self.points_per_dim)
        k2 = self._axis_values()[np.minimum(j, self.points_per_dim - j)]
        return functools.reduce(np.add.outer, [k2] * self.dim)

    def _axis_values(self) -> np.ndarray:
        """The U = N//2 + 1 distinct values xi_u^2 along an axis, ascending
        (xi_u = 2 pi u / L, by np.fft.fftfreq's arithmetic: bit for bit)."""
        n = self.points_per_dim
        return (2.0 * math.pi * (np.arange(n // 2 + 1) * (1.0 / (n * self.dx)))) ** 2

    def _distinct_modes(self) -> tuple[np.ndarray, np.ndarray | None]:
        """The distinct |xi|^2 = (2 pi / L)^2 n of the box, ascending, and
        the U^dim index of each axis tuple into them, keyed on the integer
        n = sum of i^2 <= dim (N//2)^2 by an occupancy table; in 1D the axis
        values and no index (n = i^2 is distinct already)."""
        if self.dim == 1:
            return self._axis_values(), None
        half = self.points_per_dim // 2
        key = np.min_scalar_type(self.dim * half * half)  # holds every n
        k2 = np.arange(half + 1, dtype=key) ** 2
        keys = functools.reduce(np.add.outer, [k2] * self.dim)
        present = np.zeros(self.dim * half * half + 1, dtype=bool)
        present[keys] = True
        n = np.flatnonzero(present)
        # each present n's rank among them; the other entries are never read
        lookup = np.empty(present.size, dtype=key)
        lookup[n] = np.arange(n.size, dtype=key)
        return (2.0 * math.pi / self.box_length) ** 2 * n, lookup[keys]


@dataclass(frozen=True)
class Field:
    grid: PeriodicGrid
    samples: np.ndarray

    def __post_init__(self) -> None:
        s = np.asarray(self.samples, dtype=float)
        expected = (self.grid.points_per_dim,) * self.grid.dim
        if s.shape != expected:
            raise ValueError(f"samples shape {s.shape} != grid shape {expected}")
        if not np.all(np.isfinite(s)):
            raise ValueError("samples must be finite")
        s = s.copy()
        s.setflags(write=False)
        object.__setattr__(self, "samples", s)

    @classmethod
    def _adopt(cls, grid: PeriodicGrid, samples: np.ndarray) -> Field:
        """A Field owning `samples`, a fresh finite C-contiguous float array
        of the grid's shape that no one else holds (a solver's 2D field is a
        view of the first N^2 floats of its spectrum's buffer, which then
        lives as long as the Field): made read-only in place, with neither
        the checks nor the copy of the constructor."""
        samples.setflags(write=False)
        field = object.__new__(cls)
        object.__setattr__(field, "grid", grid)
        object.__setattr__(field, "samples", samples)
        return field

    def norm_lp(self, p: float) -> float:
        """Riemann-sum L^p norm (cell volume weighted); p < inf."""
        if not 1.0 <= p < math.inf:
            raise ValueError("p must lie in [1, inf)")
        return _norm_of_abs(np.abs(self.samples), p, self.grid.cell_volume)

    def mean(self) -> float:
        return float(self.samples.mean())

    def max_norm(self) -> float:
        return float(np.abs(self.samples).max())

    def boundary_mass_fraction(self) -> float:
        """Share of total |samples| mass living in the outer 5% edge band."""
        return _edge_share(np.abs(self.samples))


def _norm_of_abs(a: np.ndarray, p: float, cell_volume: float) -> float:
    """`Field.norm_lp` from the samples' absolute values `a`, which it
    raises to the power p in place: p = 2 and 4 by one or two squarings,
    any other p by libm's pow on the nonzero samples alone."""
    if p in (2.0, 4.0):
        a *= a
        if p == 4.0:
            a *= a
    else:
        np.power(a, p, out=a, where=a > 0.0)
    return float(a.sum() * cell_volume) ** (1.0 / p)


def _edge_share(a: np.ndarray) -> float:
    """`Field.boundary_mass_fraction` from the samples' absolute values `a`;
    NaN if their sum is not finite."""
    n = a.shape[0]
    k = max(int(0.05 * n), 1)
    total = a.sum()
    if total == 0.0:
        return 0.0
    interior = a[(slice(k, n - k),) * a.ndim].sum()
    return float((total - interior) / total)


def gaussian_bump(grid: PeriodicGrid, sigma: float = 0.5) -> Field:
    """Centered Gaussian exp(-|x|^2 / (2 sigma^2)), well-localized data: the outer
    product of its axis profile exp(-x^2 / (2 sigma^2)), flushed to exact 0 below
    exp(-_FLUSH) ~ 1e-150 as the heat factors are: no exp underflows, no product is subnormal."""
    try:
        two_var = 2.0 * sigma ** 2
    except OverflowError:  # past the double range: x^2 / inf is 0, a field of ones
        two_var = math.inf
    if not (0.0 < sigma < math.inf and two_var > 0.0):  # else 0/0 at x = 0
        raise ValueError(f"sigma must be positive and finite, with 2 sigma^2 > 0, got {sigma}")
    e = -grid._axis() ** 2 / two_var
    profile = np.exp(np.maximum(e, -_FLUSH))
    profile[e < -_FLUSH] = 0.0
    return Field._adopt(grid, functools.reduce(np.multiply.outer, [profile] * grid.dim))


def write_field(field: Field, path: str | Path, time: float = 0.0) -> None:
    """Binary row-major float64 samples plus a JSON sidecar
    {dim, L, N, time} at <path>.json."""
    path = Path(path)
    np.ascontiguousarray(field.samples, dtype=np.float64).tofile(path)
    sidecar = {"dim": field.grid.dim, "L": field.grid.box_length,
               "N": field.grid.points_per_dim, "time": float(time)}
    path.with_suffix(path.suffix + ".json").write_text(
        json.dumps(sidecar, sort_keys=True) + "\n")


def read_field(path: str | Path) -> tuple[Field, float]:
    path = Path(path)
    sidecar = json.loads(path.with_suffix(path.suffix + ".json").read_text())
    grid = PeriodicGrid(dim=int(sidecar["dim"]), box_length=float(sidecar["L"]),
                        points_per_dim=int(sidecar["N"]))
    samples = np.fromfile(path, dtype=np.float64).reshape(
        (grid.points_per_dim,) * grid.dim)
    return Field(grid, samples), float(sidecar["time"])


@dataclass(frozen=True)
class SolverConfig:
    alpha: Alpha
    representation: str = "direct_ml"  # direct_ml | subordination

    def __post_init__(self) -> None:
        if not isinstance(self.alpha, Alpha):
            object.__setattr__(self, "alpha", Alpha(float(self.alpha)))
        if self.representation not in ("direct_ml", "subordination"):
            raise ValueError(f"unknown representation {self.representation!r}")
        if self.representation == "subordination":
            _wright_alpha(self.alpha)


# modes per block of the Hankel kernel: its seven work vectors take 448 KiB,
# and each block pays about 150 ufunc calls, so 2,048-mode blocks took about
# 1.5 times as long on the 5,924 modes of a 2D N = 256 grid; one whole-array
# block lifts a 2D solve's peak past TestFootprint's limit at N = 512
_HANKEL_BLOCK = 1 << 13
# modes per block of the 1D subordination matvec: its (modes x nodes) heat
# factors take at most 0.8 MB at a 784-node mass table (1.3 MB at 1,264
# nodes, the most at alpha <= 0.95; 2.0 MB at 1,968, alpha 0.995), about a
# core's 2 MiB of L2 cache, where 512 rows took 1.3-1.4 times as long, and
# the flush mask past them in one buffer an eighth more (0.9 and 1.5 MB); the
# 2D table's factors are built once per step, in node blocks (`_gram`)
_HEAT_BLOCK_ROWS = 128
# product bytes per row block of the 2D inverse real FFT written over its
# own product: numpy copies each block's input, which overlaps the block's
# output, so the copy is at most 256 KiB, 1 B a grid point at N = 512 (4 B
# in blocks of 1 MiB), and it stays in a core's 2 MiB L2 cache with the
# block's output
_FIELD_BLOCK_BYTES = 2 ** 18


def _blocked(kernel, x: np.ndarray, rows: int) -> np.ndarray:
    """kernel(x) by blocks of `rows` values, each copied into one result
    array as it is made, so the blocks are never all held at once."""
    out = np.empty(x.size)
    for i in range(0, x.size, rows):
        out[i:i + rows] = kernel(x[i:i + rows])
    return out


def _gram(x: np.ndarray, nodes: np.ndarray, root: np.ndarray, work: np.ndarray | None = None,
          out: np.ndarray | None = None) -> np.ndarray:
    """The table G G^T of G = F diag(root), F the flushed heat factors of x,
    root = sqrt(mass): one A @ A.T (BLAS SYRK: half a GEMM's flops, exactly
    symmetric) per block of nodes whose factors and flush mask fill the arena
    `work` (all nodes if none), past a U x U partial table from block two on."""
    u, lo = x.size, 0
    spare = work = np.empty(-(-9 * u * nodes.size // 8)) if work is None else work
    while lo < nodes.size:
        hi = lo + 8 * spare.size // (9 * u)
        g = _heat_factors(x, nodes[lo:hi], spare)
        g *= root[lo:hi]
        out = (np.matmul(g, g.T, out=out) if lo == 0 else
               np.add(out, np.matmul(g, g.T, out=work[:u * u].reshape(u, u)), out=out))
        lo, spare = hi, work[u * u:]
    return out


def _time_scale(cfg: SolverConfig, t: float) -> float:
    """t^alpha for a finite time t >= 0 (ValueError otherwise)."""
    t = float(t)
    if not 0.0 <= t < math.inf:
        raise ValueError(f"t must be finite and nonnegative, got {t}")
    return t ** cfg.alpha.value


def multiplier_method(cfg: SolverConfig) -> str:
    """The algorithm of cfg's multiplier, the route `_kernel` takes: the
    Wright mass table, exp(-x) at alpha = 1, the Hankel node rule up to its
    cap, or the real-axis rule of `mittag_leffler_neg` for cap < alpha < 1."""
    a = cfg.alpha.value
    if cfg.representation == "subordination":
        return "subordination/wright-mass-table"
    return ("direct_ml/exp" if a == 1.0 else
            "direct_ml/hankel-32" if a <= _HANKEL_ALPHA_CAP else "direct_ml/real-axis")


def _kernel(cfg: SolverConfig, x: np.ndarray, work: tuple | None = None) -> np.ndarray:
    """E_alpha(-x) at each x >= 0 of a 1D array of distinct values, by the
    route `multiplier_method` names; subordination heat factors go to
    `work` (see `_heat_factors`)."""
    a, method = cfg.alpha.value, multiplier_method(cfg)
    if method == "subordination/wright-mass-table":
        nodes, mass = wright_mass_nodes(a)
        return _blocked(lambda u: _heat_sum(nodes, mass, u, work), x, _HEAT_BLOCK_ROWS)
    if method == "direct_ml/hankel-32":
        return _blocked(lambda u: _ml_hankel(a, u), x, _HANKEL_BLOCK)
    # exp(-x) at alpha = 1, else the real-axis rule, which holds about 80 B
    # of temporaries per value: blocks keep a 1D solve's peak under
    # cli._SOLVE_BYTES_PER_POINT
    return _blocked(lambda u: _ml_neg(a, u), x, _RULE_BLOCK)


def propagator_multiplier(cfg: SolverConfig, t: float, xi2: np.ndarray) -> np.ndarray:
    """Per-mode multiplier E_alpha(-t^alpha |xi|^2) in the layout of xi2, an
    array of any shape of finite |xi|^2 >= 0, for a finite time t >= 0
    (ValueError otherwise, before any kernel runs).

    A float array carries no integer keys, so the kernel runs on its
    `np.unique` values and is broadcast back (the solver keys its modes on
    the exact integer spectrum instead: `_Step`), by the route
    `multiplier_method` names (heat factors flushed as `_FLUSH` says).
    """
    ta = _time_scale(cfg, t)
    if not np.all((xi2 >= 0.0) & (xi2 < math.inf)):  # NaN fails both
        raise ValueError("xi2 must be finite and nonnegative")
    if ta == 0.0:
        return np.ones_like(xi2)
    uniq, inverse = np.unique(xi2.ravel(), return_inverse=True)
    return _kernel(cfg, ta * uniq)[inverse].reshape(xi2.shape)


def _wright_table(cfg: SolverConfig, dim: int, rows: int) -> tuple:
    """The subordination table sum_i mass_i f_i (x) ... (x) f_i, one flushed
    factor f_i = exp(-s_i x) per axis of a `dim`-axis grid, as a function of
    (x, work), and the floats of `work` its heat factors and masks take: in 1D
    `_kernel`'s blocked matvec on the `rows` axis values, a row block at a time,
    else `_gram` of all U rows in node blocks within 2 N U = 4 (U - 1) U floats."""
    nodes, mass = wright_mass_nodes(cfg.alpha.value)
    heat = -(-9 * nodes.size * (rows if dim == 2 else min(rows, _HEAT_BLOCK_ROWS)) // 8)
    if dim == 1:
        return functools.partial(_kernel, cfg), heat
    root, table = np.sqrt(mass), np.empty((rows, rows))
    return (lambda x, work: _gram(x, nodes, root, work, table)), min(heat, 4 * (rows - 1) * rows)


class _Step:
    """One solve's or sweep's step, built once: its modes keyed on integers,
    the real FFT of w0 (a real FFT over the last axis, then an in-place FFT
    over each leading axis, last to first) and every buffer a step writes.
    A call writes the field at t into `field` and returns it.

    Along every leading axis, FFT rows 0..N/2 read table rows 0..N/2 and
    rows N/2+1..N-1 read rows N/2-1..1 (row min(j, N - j)), each a view.
    The direct table is `_kernel` on the distinct |xi|^2 gathered through
    their index, a temporary dropped before the inverse FFT. A float arena
    holds the subordination heat factors and flush mask while the table is
    built. A sweep keeps its spectrum, so the arena then holds the complex
    product `prod` (whose 2 N U floats bound the 2D node blocks); a one-step
    solve (`sweep=False`) writes the product over its own spectrum, and its
    arena, what its blocks need, is dropped once the table is built (a later
    call allocates its own). The inverse FFT runs over each leading axis,
    first to last, into `prod`, then an inverse real FFT into `field`.

    A 2D `field` is the first N^2 floats of `prod`'s buffer, an (N, N)
    C-contiguous view, and the inverse real FFT runs into it in blocks of
    rows, first to last. Field row j ends at float (j+1)N and product row
    j+1 starts at float (j+1)(N+2), so a block overwrites only product rows
    read by it or an earlier block; numpy copies the block's own input
    where it overlaps the block's output. A 1D field has its own buffer.
    """

    def __init__(self, w0: Field, cfg: SolverConfig, sweep: bool = True) -> None:
        self.grid, self.cfg = w0.grid, cfg
        # the modes first: the occupancy table's temporaries are gone before
        # the spectrum is made
        if cfg.representation == "subordination":
            self.values, self.index = self.grid._axis_values(), None
            self.tabulate, heat = _wright_table(cfg, self.grid.dim, self.values.size)
        else:
            self.values, self.index = self.grid._distinct_modes()
            self.tabulate, heat = functools.partial(_kernel, cfg), 0
        self.spectrum = np.fft.rfft(w0.samples)
        for axis in reversed(range(self.spectrum.ndim - 1)):
            np.fft.fft(self.spectrum, axis=axis, out=self.spectrum)
        self.work = np.empty(max(heat, 2 * self.spectrum.size if sweep else 0))
        self.prod = (self.work[:2 * self.spectrum.size].view(complex).reshape(
            self.spectrum.shape) if sweep else self.spectrum)
        # a 1D inverse real FFT is one row, which numpy would copy whole
        # before writing over it: a 1D field keeps its own buffer
        self.field = (np.empty(w0.samples.shape) if self.grid.dim == 1 else
                      self.prod.view(float).ravel()[:w0.samples.size].reshape(w0.samples.shape))

    def multiplier(self, ta: float) -> np.ndarray:
        """The table E_alpha(-ta c) at ta = t^alpha > 0 on the step's axis tuples."""
        with np.errstate(over="ignore"):  # past the double range: inf, where every route is 0
            x = ta * self.values
        vals = self.tabulate(x, self.work)
        return vals if self.index is None else vals[self.index]

    def __call__(self, t: float) -> np.ndarray:
        ta = _time_scale(self.cfg, t)
        src, prod = self.spectrum, self.prod
        if ta > 0.0:
            tab = self.multiplier(ta)
            if prod is src:  # a one-step solve's heat factors are spent
                self.work = None
            u, lead = tab.shape[0], src.ndim - 1
            halves, mirrored = (slice(u), slice(u, None)), (slice(u), slice(u - 2, 0, -1))
            for rows, tab_rows in zip(itertools.product(halves, repeat=lead),
                                      itertools.product(mirrored, repeat=lead)):
                np.multiply(src[rows], tab[tab_rows], out=prod[rows])
            src = prod
            del tab  # a direct table is a temporary: freed before the inverse FFT
        for axis in range(src.ndim - 1):
            src = np.fft.ifft(src, axis=axis, out=prod)
        field = self.field
        if field.ndim == 1:
            return np.fft.irfft(src, field.size, out=field)
        rows = max(_FIELD_BLOCK_BYTES // src[0].nbytes, 1)
        for i in range(0, field.shape[0], rows):  # in order: see the class docstring
            np.fft.irfft(src[i:i + rows], field.shape[1], out=field[i:i + rows])
        return field


def spectral_solve(w0: Field, cfg: SolverConfig, t: float) -> Field:
    """Evolve w0 to time t: real FFT, per-mode propagator multiplier on
    the half spectrum, inverse real FFT; a one-step `_Step` whose field
    buffer the returned Field adopts."""
    grid, step = w0.grid, _Step(w0, cfg, sweep=False)
    del w0  # the step holds its spectrum: the solve needs w0 no longer
    out = step(t)
    del step  # and its spectrum and buffers go before the check's temporary
    if not np.all(np.isfinite(out)):
        raise FloatingPointError("non-finite values in the spectral solve")
    return Field._adopt(grid, out)


def caputo_l1_apply(alpha: float, u: np.ndarray, dt: float) -> np.ndarray:
    """L1 finite-difference Caputo derivative of samples u on a uniform
    grid, returned at t_1..t_n.

    Piecewise-linear reconstruction gives weights
    b_k = (k+1)^{1-alpha} - k^{1-alpha}:
    D_j = dt^{-alpha}/Gamma(2-alpha) * sum_k b_k (u_{j-k} - u_{j-k-1}).
    """
    n = u.size - 1
    k = np.arange(n, dtype=float)
    b = (k + 1.0) ** (1.0 - alpha) - k ** (1.0 - alpha)
    c = dt ** (-alpha) / math.gamma(2.0 - alpha)
    return c * np.convolve(np.diff(u), b)[:n]


def caputo_residual_l1(alpha: Alpha | float, mu: float, t_grid: np.ndarray) -> float:
    """Max residual |D^alpha u + mu u| of u(t) = E_alpha(-mu t^alpha) under
    the L1 scheme, over grid times t_j >= 1/8.

    The window excludes the region near t = 0 where the t^alpha kink of
    the exact solution caps the pointwise accuracy of the scheme; within
    the window the residual refines at order >= 1 under step halving.
    For alpha = 1 the check degenerates to the backward-difference defect
    of exp(-mu t).
    """
    a = Alpha.coerce(alpha)
    mu = float(mu)
    if not 0.0 <= mu < math.inf:
        raise ValueError(f"mu must be finite and nonnegative, got {mu}")
    t = np.asarray(t_grid, dtype=float)
    if t.size < 8 or t[0] != 0.0:
        raise ValueError("t_grid must start at 0 with at least 8 points")
    dt = t[1] - t[0]
    if not np.allclose(np.diff(t), dt):
        raise ValueError("t_grid must be uniform")
    if t[-1] < 1.0:
        raise ValueError("grid must extend to T >= 1")
    u = _ml_neg(a, mu * t ** a)
    if a == 1.0:
        deriv = np.diff(u) / dt
    else:
        deriv = caputo_l1_apply(a, u, dt)
    resid = np.abs(deriv + mu * u[1:])
    window = t[1:] >= 0.125
    return float(resid[window].max())


@dataclass(frozen=True)
class DecayMeasurement:
    """Norm table and diagnostics of an L^p -> L^q decay run."""

    rows: tuple[tuple[float, float, float, float], ...]  # (t, ratio, compensated, edge)
    norm_p0: float
    fitted_exponent: float  # closed-form least-squares slope of log ratio on log t
    compensated_monotone: bool
    lambda_exp: float
    delta: float
    truncated_at: float | None


# share of a sweep's |w| mass in the outer 5% edge band past which a time
# is dropped (`decay_measurement`)
_WRAPAROUND_TOL = 1e-6


def decay_measurement(
    w0: Field,
    cfg: SolverConfig,
    p: float,
    q: float,
    t_list: Sequence[float],
) -> DecayMeasurement:
    """Measure ||w(t)||_q / ||w0||_p over t_list with the boundedness check
    that the compensated ratio t^(alpha lambda delta) * ratio is
    non-increasing, lambda = dim/2 and delta = 1/p - 1/q.

    Times at which solution mass reaches the box boundary (beyond
    _WRAPAROUND_TOL of the total) are dropped with a warning: past that
    point the periodic box stops imitating free space.
    """
    p, q = float(p), float(q)
    if not (1.0 < p <= 2.0 <= q < math.inf):
        raise ValueError("require 1 < p <= 2 <= q < inf")
    ts = [float(t) for t in t_list]
    if any(not 0.0 < t < math.inf for t in ts) or any(b <= a for a, b in zip(ts[:-1], ts[1:])):
        raise ValueError("t_list must be ascending finite positive times")
    a = cfg.alpha.value
    lam = w0.grid.dim / 2.0
    delta = 1.0 / p - 1.0 / q
    norm_p0 = w0.norm_lp(p)
    step = _Step(w0, cfg)
    rows = []
    truncated_at = None
    for t in ts:
        w = step(t)
        np.abs(w, out=w)  # the one |w| of the step: guard, finiteness and norm
        edge = _edge_share(w)
        if math.isnan(edge):
            raise FloatingPointError("non-finite values in the spectral solve")
        if edge > _WRAPAROUND_TOL:
            truncated_at = t
            warnings.warn(
                f"wraparound at t={t:g}: boundary mass fraction {edge:.2e} "
                f"exceeds {_WRAPAROUND_TOL:g}; truncating the time window",
                RuntimeWarning,
            )
            break
        ratio = _norm_of_abs(w, q, w0.grid.cell_volume) / norm_p0
        rows.append((t, ratio, t ** (a * lam * delta) * ratio, edge))
    if len(rows) < 5:
        raise InsufficientDataError(
            f"only {len(rows)} usable times before wraparound; shrink t_list or enlarge the box"
        )
    arr = np.asarray(rows)
    slope, _ = _fit_line(np.log(arr[:, 0]), np.log(arr[:, 1]))
    monotone = bool(np.all(np.diff(arr[:, 2]) <= 1e-12))
    return DecayMeasurement(
        rows=tuple(map(tuple, rows)),
        norm_p0=norm_p0,
        fitted_exponent=slope,
        compensated_monotone=monotone,
        lambda_exp=lam,
        delta=delta,
        truncated_at=truncated_at,
    )
