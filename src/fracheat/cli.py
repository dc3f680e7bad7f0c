"""Command-line front end.

Every command dispatches to the library modules and emits a deterministic
machine-readable report (JSON or CSV) with method tags on each numeric.
Exit codes: 0 success, 2 validation error, 3 numerical-quality failure,
1 internal error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import tempfile
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import decay_analysis, pde_solver, subordination
from .errors import (
    EvaluationError,
    FracHeatError,
    InsufficientDataError,
    QuadratureError,
)
from .special_functions import (
    Alpha,
    _ml_hankel,
    _ml_neg,
    _wright_m_array,
    mittag_leffler_neg_info,
    wright_m_info,
)

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_VALIDATION = 2
EXIT_QUALITY = 3


class QualityFailure(FracHeatError):
    """A verification table exceeded its tolerance (exit code 3)."""


# ---------------------------------------------------------------------------
# config file: flat key=value lines, keyed by argparse destination; the
# values become the subcommand's defaults, so each flag's type converts its
# value and a flag given on the command line wins
# ---------------------------------------------------------------------------

def _load_config(path: str, known_keys: set[str]) -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in known_keys:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        out[key] = value.strip()
    return out


# ---------------------------------------------------------------------------
# deterministic report emission
# ---------------------------------------------------------------------------

_SORT_KEYS = ("command", "alpha", "lambda", "p", "q", "gamma", "beta", "delta",
              "eps", "t", "x", "s", "check")


def _record_sort_key(rec: dict) -> tuple:
    key = []
    for k in _SORT_KEYS:
        v = rec.get(k)
        key.append((v is None, str(type(v).__name__), v if v is not None else 0))
    key.append(json.dumps(rec, sort_keys=True, default=str))
    return tuple(key)


def _atomic_write(path: str, data: str) -> None:
    target = Path(path)
    fd, tmp = tempfile.mkstemp(dir=str(target.parent) or ".", prefix=".fracheat-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(data)
        os.replace(tmp, str(target))
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _format_value(v):
    if isinstance(v, float):
        if math.isnan(v):
            raise ValueError("refusing to report a NaN value")
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        return float(v)
    return v


def emit_report(records: list[dict], fmt: str, out: str | None) -> None:
    """Sorted, schema-versioned report; identical inputs yield
    byte-identical output."""
    if not records:
        raise ValueError("empty result set")
    records = sorted(({k: _format_value(v) for k, v in r.items()} for r in records),
                     key=_record_sort_key)
    if fmt == "json":
        doc = {"schema_version": SCHEMA_VERSION, "records": records}
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    elif fmt == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, sorted({k for r in records for k in r}), lineterminator="\n")
        writer.writeheader()
        writer.writerows(records)
        text = buf.getvalue()
    else:
        raise ValueError(f"unknown format {fmt!r}")
    if out:
        _atomic_write(out, text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _parse_alphas(text: str) -> list[float]:
    return [float(a) for a in text.split(",") if a.strip()]


def cmd_eval_ml(args) -> list[dict]:
    value, method = mittag_leffler_neg_info(args.alpha, args.x)
    return [{"command": "eval-ml", "alpha": args.alpha, "x": args.x,
             "value": value, "method": method}]


def cmd_eval_wright(args) -> list[dict]:
    value, method = wright_m_info(args.alpha, args.s)
    return [{"command": "eval-wright", "alpha": args.alpha, "s": args.s,
             "value": value, "method": method}]


def cmd_verify_subordination(args) -> list[dict]:
    records = []
    worst_overall = 0.0
    for a in _parse_alphas(args.alpha):
        xs = np.logspace(-3, 2, 30)
        sub = np.array([subordination.subordinate_scalar(a, x) for x in xs.tolist()])
        worst = float(np.max(np.abs(sub - _ml_neg(Alpha.coerce(a), xs))))
        records.append({"command": "verify-subordination", "alpha": a,
                        "worst_abs_error": worst, "n_points": 30,
                        "tolerance": 1e-8, "method": "quadrature-vs-reference"})
        worst_overall = max(worst_overall, worst)
    if worst_overall > 1e-8:
        raise QualityFailure(f"subordination identity error {worst_overall:.3e} > 1e-8")
    return records


# relative tolerance of a printed moment against Gamma(gamma+1)/Gamma(gamma
# alpha+1): the worst gap is 1.35e-13 (40 alpha in [0.02, 0.995], gamma up to
# 8), the [1, cut] tables' fault at alpha 0.9995, past the cap, 3.2e-10
_MOMENT_TOL = 1e-11


def _moment_check(numeric: float, gamma: float, alpha: float) -> tuple[float, float]:
    """(exact, relative error) of the moment int s^gamma M_alpha ds against
    Gamma(gamma+1)/Gamma(gamma*alpha+1)."""
    exact = math.gamma(gamma + 1.0) / math.gamma(gamma * alpha + 1.0)
    return exact, abs(numeric - exact) / abs(exact)


def _refuse_moments(worst: float) -> None:
    if worst > _MOMENT_TOL:
        raise QualityFailure(f"moment identity error {worst:.3e} > {_MOMENT_TOL:g}")


def cmd_verify_moments(args) -> list[dict]:
    records = []
    gammas = (-0.5, 0.0, 0.5, 1.0, 2.0, 3.0)
    for a in _parse_alphas(args.alpha):
        for g, numeric in zip(gammas, subordination.wright_moments(a, gammas)):
            exact, rel = _moment_check(numeric, g, a)
            records.append({"command": "verify-moments", "alpha": a, "gamma": g,
                            "numeric": numeric, "exact": exact,
                            "relative_error": rel, "method": "quadrature"})
    _refuse_moments(max((r["relative_error"] for r in records), default=0.0))
    return records


def cmd_verify_special(args) -> list[dict]:
    records = []

    def check(name: str, worst: float, tol: float) -> None:
        ok = worst <= tol
        records.append({"command": "verify-special", "check": name,
                        "worst_error": worst, "tolerance": tol,
                        "passed": ok, "method": "cross-check"})
        if not ok:
            raise QualityFailure(f"{name}: {worst:.3e} > {tol:g}")

    xs = np.linspace(0.0, 30.0, 61)
    check("alpha-1-exponential-reduction",
          max(abs(v - math.exp(-x)) for v, x in zip(_ml_neg(1.0, xs).tolist(), xs.tolist())), 1e-12)
    xs = np.array([0.1, 1.0, 10.0])
    check("contour-vs-reference-agreement", max(float(np.max(np.abs(
        _ml_hankel(a, xs) - _ml_neg(a, xs)))) for a in (0.5, 0.75, 0.9)), 1e-10)
    s = np.linspace(0.0, 8.0, 81)
    exact = np.array([math.exp(-v * v / 4.0) for v in s.tolist()]) / math.sqrt(math.pi)
    check("wright-half-gaussian-identity", float(np.max(np.abs(_wright_m_array(0.5, s) - exact))),
          1e-10)
    return records


def cmd_decay_sup(args) -> list[dict]:
    beta = args.lmbda * decay_analysis._exponent_gap(args.p, args.q)
    if not 0.0 < beta <= 1.0:
        raise ValueError(f"lambda*(1/p-1/q) = {beta} must lie in (0, 1]")
    base = {"command": "decay-sup", "alpha": args.alpha, "lambda": args.lmbda,
            "p": args.p, "q": args.q, "beta": beta, "t": args.t}
    return [
        {**base, "kernel": "heat", "method": "closed-form",
         "value": decay_analysis.sup_heat_closed_form(beta, args.t)},
        {**base, "kernel": "mittag-leffler", "method": "grid-supremum",
         "value": decay_analysis.sup_ml_numeric(args.alpha, beta, args.t)},
        {**base, "kernel": "algebraic-bound", "method": "closed-form",
         "value": decay_analysis.sup_bound_kernel_closed_form(args.alpha, beta, args.t)},
    ]


def cmd_decay_compare(args) -> list[dict]:
    eps = [float(e) for e in args.eps.split(",") if e.strip()]
    report = decay_analysis.compare_representations(args.alpha, args.lmbda, eps)
    records = []
    worst = 0.0
    for rec in report.records:
        fields = asdict(rec)
        fields["lambda"] = fields.pop("lambda_exp")
        if rec.method == "quadrature":  # the subordination constant, a moment at -beta
            fields["exact"], fields["relative_error"] = _moment_check(
                rec.constant, -(rec.lambda_exp * rec.delta), rec.alpha)
            worst = max(worst, fields["relative_error"])
        records.append({"command": "decay-compare", **fields})
    _refuse_moments(worst)
    records.append({"command": "decay-compare", "alpha": Alpha.coerce(args.alpha),
                    "lambda": args.lmbda, "verdict": report.verdict,
                    "direct_uniform_bound": report.direct_uniform_bound,
                    "method": "simon-2014-bound"})
    return records


# peak bytes per grid point that `solve` adds to a fresh process after
# import, by dimension: its spectrum (the product is written over it), the
# field (in 2D over the product's own buffer, in 1D its own), one multiplier
# table of (N/2+1)^dim entries and the subordination heat factors.
# ru_maxrss less the RSS after import, 1D N = 2^24, L = 2e5 / 2D N = 4096:
# Hankel (0.5, node-major in 8,192-mode blocks) 36.1 / 17.6 B, real-axis
# (0.99) 36.7 / 17.9, exp (1.0) 36.2 / 17.6, subordination 0.5 36.2 / 16.6
# and 0.995 36.2 / 16.6
_SOLVE_BYTES_PER_POINT = {1: 37, 2: 18}


def _read(path: str) -> str:
    """The text of a file, "" where it cannot be read."""
    try:
        with open(path) as f:
            return f.read()
    except OSError:
        return ""


def _available_memory() -> int | None:
    """Bytes new allocations can take: the least of MemAvailable (else the
    free physical pages) and the headroom of the process's own memory
    cgroup, memory.max - memory.current (v2) or memory.limit_in_bytes -
    memory.usage_in_bytes (v1) under the path /proc/self/cgroup gives, where
    a limit is set and can be read; None where none of these can be read."""
    limits = [int(line.split()[1]) * 1024 for line in _read("/proc/meminfo").splitlines()
              if line.startswith("MemAvailable:")]
    if not limits:
        try:
            limits.append(os.sysconf("SC_AVPHYS_PAGES") * os.sysconf("SC_PAGE_SIZE"))
        except (ValueError, OSError):
            pass
    for line in _read("/proc/self/cgroup").splitlines():
        controllers, _, path = line.partition(":")[2].partition(":")
        if controllers and "memory" not in controllers.split(","):
            continue
        base = f"/sys/fs/cgroup{'/memory' if controllers else ''}{path.rstrip('/')}/memory."
        limit, usage = ("limit_in_bytes", "usage_in_bytes") if controllers else ("max", "current")
        try:
            limits.append(max(int(_read(base + limit)) - int(_read(base + usage)), 0))
        except ValueError:  # no limit ("max"), or a file that cannot be read ("")
            pass
    return min(limits, default=None)


def cmd_solve(args) -> list[dict]:
    grid = pde_solver.PeriodicGrid(dim=args.dim, box_length=args.box_length,
                                   points_per_dim=args.n_points)
    rep = "direct_ml" if args.rep == "direct" else args.rep
    cfg = pde_solver.SolverConfig(alpha=Alpha(args.alpha), representation=rep)
    pde_solver._time_scale(cfg, args.t)
    need = grid.points_per_dim ** grid.dim * _SOLVE_BYTES_PER_POINT[grid.dim]
    available = _available_memory()
    if available is not None and need > available:
        raise ValueError(f"solve on {grid.points_per_dim}^{grid.dim} points needs about "
                         f"{need / 2 ** 20:.1f} MiB; {available / 2 ** 20:.1f} MiB available")
    # no name holds the bump: the solve drops it once its spectrum is taken
    w = pde_solver.spectral_solve(pde_solver.gaussian_bump(grid, sigma=args.sigma), cfg, args.t)
    if args.field_out:
        pde_solver.write_field(w, args.field_out, time=args.t)
    rec = {"command": "solve", "alpha": args.alpha, "t": args.t,
           "representation": cfg.representation, "dim": args.dim,
           "L": args.box_length, "N": args.n_points,
           "norm_l2": w.norm_lp(2.0), "max_norm": w.max_norm(),
           "mean": w.mean(), "method": pde_solver.multiplier_method(cfg)}
    return [rec]


def cmd_report(args) -> list[dict]:
    records: list[dict] = []
    for path in args.inputs:
        doc = json.loads(Path(path).read_text())
        recs = doc.get("records") if isinstance(doc, dict) else None
        if not isinstance(recs, list) or not all(isinstance(r, dict) and all(
                isinstance(v, (str, int, float, type(None))) for v in r.values()) for r in recs):
            raise ValueError(f"{path}: a report is a JSON object whose 'records' is a list "
                             "of objects with scalar values")
        if doc.get("schema_version") != SCHEMA_VERSION:
            raise ValueError(f"{path}: unsupported schema version {doc.get('schema_version')}")
        records.extend(recs)
    return records


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _arg(*flags: str, **kwargs) -> tuple:
    return flags, kwargs


_ALPHA = _arg("--alpha", type=float, required=True)
_LAMBDA = _arg("--lambda", dest="lmbda", type=float, required=True)

# every command once: name -> (help, function, arguments); the common flags
# follow each command's own
_COMMANDS = {
    "eval-ml": ("evaluate E_alpha(-x)", cmd_eval_ml,
                (_ALPHA, _arg("--x", type=float, required=True))),
    "eval-wright": ("evaluate M_alpha(s)", cmd_eval_wright,
                    (_ALPHA, _arg("--s", type=float, required=True))),
    "verify-subordination": (
        "check int M_alpha(s) e^{-sx} ds == E_alpha(-x)", cmd_verify_subordination,
        (_arg("--alpha", default="0.25,0.5,0.75", help="comma-separated alpha values"),)),
    "verify-moments": (
        "check int s^gamma M_alpha ds == Gamma(gamma+1)/Gamma(gamma*alpha+1)",
        cmd_verify_moments, (_arg("--alpha", default="0.25,0.5,0.75"),)),
    "verify-special": (
        "cross-checks: alpha=1 reduction, contour agreement, Wright identity",
        cmd_verify_special, ()),
    "decay-sup": ("supremum values for the three decay kernels", cmd_decay_sup,
                  (_ALPHA, _LAMBDA, _arg("--p", type=float, default=4.0 / 3.0),
                   _arg("--q", type=float, default=4.0), _arg("--t", type=float, default=1.0))),
    "decay-compare": (
        "endpoint-loss comparison of the two representations", cmd_decay_compare,
        (_ALPHA, _LAMBDA, _arg("--eps", default="0.2,0.1,0.05",
                               help="comma-separated distances to the endpoint"))),
    "solve": ("evolve a Gaussian bump on a periodic box", cmd_solve,
              (_ALPHA, _arg("--t", type=float, required=True),
               _arg("--rep", default="direct", choices=("direct", "subordination")),
               _arg("--dim", type=int, default=1),
               _arg("--L", dest="box_length", type=float, default=200.0),
               _arg("--N", dest="n_points", type=int, default=4096),
               _arg("--sigma", type=float, default=0.5),
               _arg("--field-out", default=None,
                    help="write the evolved field (binary + JSON sidecar)"))),
    "report": ("merge JSON reports into one sorted document", cmd_report,
               (_arg("inputs", nargs="+", help="input JSON report files"),)),
}
_COMMON = (_arg("--config", help="flat key=value config file; flags override"),
           _arg("--out", default=None, help="report output path (default stdout)"),
           _arg("--format", default="json", choices=("json", "csv")))


def build_parser(command: str | None = None
                 ) -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The parser and its subparsers by name: only `command`'s where it
    names one (building all nine takes most of a cold command's parse),
    every one otherwise. Help and usage texts are the same either way."""
    parser = argparse.ArgumentParser(
        prog="fracheat",
        description="Numerical laboratory for the time-fractional heat propagator: "
                    "direct Mittag-Leffler evaluation vs Wright subordination.",
    )
    # a usage line lists every command, also where one subparser is built
    names = [command] if command in _COMMANDS else list(_COMMANDS)
    sub = parser.add_subparsers(dest="command", required=True, metavar=(
        "{" + ",".join(_COMMANDS) + "}" if len(names) < len(_COMMANDS) else None))
    for name in names:
        help_text, func, arguments = _COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        for flags, kwargs in (*arguments, *_COMMON):
            p.add_argument(*flags, **kwargs)
        p.set_defaults(func=func)
    return parser, sub.choices


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # the parser's one option is --help: a command is the first word or none
    parser, subparsers = build_parser(argv[0] if argv else None)
    try:
        # the config is read before the command line is parsed, so a flag
        # whose key it holds is no longer required there
        head = argparse.ArgumentParser(prog="fracheat", add_help=False)
        head.add_argument("command", nargs="?")
        head.add_argument("--config", nargs="?")  # a missing path: the parse below says so
        head = head.parse_known_args(argv)[0]
        if head.config and head.command in subparsers:
            subparser = subparsers[head.command]
            actions = {a.dest: a for a in subparser._actions
                       if a.dest not in ("help", "config", "inputs")}
            config = _load_config(head.config, set(actions))
            for key, value in config.items():
                # argparse checks choices on the command line, not on defaults
                choices = actions[key].choices
                if choices is not None and value not in choices:
                    subparser.error(f"config {key}: invalid choice: {value!r} "
                                    f"(choose from {', '.join(map(repr, choices))})")
                actions[key].required = False
            subparser.set_defaults(**config)
        args = parser.parse_args(argv)
        # every value is a double: an outside request for more is refused,
        # not ignored
        precision = os.environ.get("FRAC_HEAT_PRECISION", "standard")
        if precision != "standard":
            raise ValueError(f"FRAC_HEAT_PRECISION must be 'standard' or unset, got "
                             f"{precision!r}: extended precision is retired")
        records = args.func(args)
        emit_report(records, args.format, args.out)
        return EXIT_OK
    except SystemExit as exc:
        # argparse uses code 2 for usage errors, which matches the
        # validation exit code; propagate anything else unchanged
        return int(exc.code or 0)
    except (QualityFailure, EvaluationError, QuadratureError) as exc:
        print(f"error code={EXIT_QUALITY} type={type(exc).__name__} message={str(exc)!r}",
              file=sys.stderr)
        return EXIT_QUALITY
    except (ValueError, InsufficientDataError, OverflowError, OSError) as exc:
        print(f"error code={EXIT_VALIDATION} type={type(exc).__name__} message={str(exc)!r}",
              file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:  # pragma: no cover - defensive
        print(f"error code={EXIT_INTERNAL} type={type(exc).__name__} message={str(exc)!r}",
              file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
