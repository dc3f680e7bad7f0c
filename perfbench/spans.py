"""Spans around fracheat's public functions, recorded from outside the package.

The tracer replaces every public function of each layer module, in every
fracheat namespace that binds it, with a wrapper that records one span
``(name, layer, start, end, parent, tag)``. ``parent`` is the index of the
enclosing span in the same list (-1 at the top). ``tag`` carries the facts
the layer metrics need and that only the call knows: the evaluation route
reported by ``mittag_leffler_neg_info`` / ``wright_m_info``, the number of
distinct modes a propagator multiplier evaluated, and the size of a CLI
report. The package itself is not modified; ``uninstall`` restores every
binding.
"""

from __future__ import annotations

import functools
import inspect
import os
import re
import statistics
from time import perf_counter

import numpy as np

LAYERS = ("special_functions", "subordination", "pde_solver",
          "decay_analysis", "spectral_models", "cli")

# Elementary scalar helpers do about a microsecond of work per call and are
# called once per quadrature node or envelope step; a span around each would
# cost more than the work. Their time stays in the caller's self time.
UNWRAPPED = frozenset({"gamma_fn", "reciprocal_gamma", "wright_log_envelope"})

SUP_FUNCTIONS = frozenset({"sup_heat_closed_form", "sup_bound_kernel_closed_form",
                           "sup_heat_numeric", "sup_ml_numeric", "ml_supremum_profile"})

ML_ROUTES = ("series", "asymptotic", "series_extended", "exact")
WRIGHT_ROUTES = ("contour_saddle", "series", "series_extended", "envelope_underflow")

_DPS = re.compile(r"series-extended\[(\d+)dps\]")


def _public_functions(module):
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    for name in names:
        obj = getattr(module, name, None)
        if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                and name not in UNWRAPPED):
            yield name, obj


class Tracer:
    """Records spans for one operation in one process."""

    def __init__(self, package, layer_modules):
        self.spans: list = []
        self._stack: list[int] = []
        self._namespaces = [package, *layer_modules.values()]
        self._layer_modules = layer_modules
        self._patches: list = []
        self._modes_by_grid: dict = {}

    def install(self) -> None:
        for layer, module in self._layer_modules.items():
            for name, fn in _public_functions(module):
                wrapper = self._wrap(fn, layer, name)
                for ns in self._namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is fn:
                            self._patches.append((ns, attr, fn))
                            setattr(ns, attr, wrapper)

    def uninstall(self) -> None:
        for ns, attr, fn in reversed(self._patches):
            setattr(ns, attr, fn)
        self._patches.clear()

    def _wrap(self, fn, layer: str, name: str):
        spans, stack = self.spans, self._stack
        tag_of = {
            "mittag_leffler_neg_info": lambda a, k, r: r[1],
            "wright_m_info": lambda a, k, r: r.method,
            "propagator_multiplier": self._multiplier_tag,
            "emit_report": _report_bytes_tag,
        }.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[idx] = (name, layer, start, perf_counter(), parent, None)
                stack.pop()
                raise
            end = perf_counter()
            stack.pop()
            spans[idx] = (name, layer, start, end, parent,
                          tag_of(args, kwargs, result) if tag_of else None)
            return result

        return wrapper

    def _multiplier_tag(self, args, kwargs, result):
        cfg = kwargs.get("cfg", args[0] if args else None)
        xi2 = kwargs.get("xi2", args[2] if len(args) > 2 else None)
        # one grid per key: shape fixes N and dim, the first nonzero
        # frequency fixes L, so np.unique runs once per grid per operation
        flat = np.asarray(xi2).ravel()
        key = (np.shape(xi2), float(flat[1]) if flat.size > 1 else 0.0)
        modes = self._modes_by_grid.get(key)
        if modes is None:
            modes = self._modes_by_grid[key] = int(np.unique(flat).size)
        return [cfg.representation, modes, cfg.alpha.value, cfg.quad]

    def finish(self) -> list:
        """Spans with every tag reduced to plain data.

        A subordination multiplier's tag gets the number of quadrature
        nodes it multiplied by; this reads the same cached mass table the
        operation built, after tracing has stopped.
        """
        out = []
        for name, layer, start, end, parent, tag in self.spans:
            if name == "propagator_multiplier" and tag is not None:
                rep, modes, alpha, quad = tag
                nodes = 0
                if rep == "subordination":
                    nodes = len(self._layer_modules["subordination"]
                                .wright_mass_nodes(alpha, quad)[0])
                tag = (rep, modes, nodes)
            out.append((name, layer, start, end, parent, tag))
        return out


def _report_bytes_tag(args, kwargs, result):
    out = kwargs.get("out", args[2] if len(args) > 2 else None)
    return os.path.getsize(out) if out else 0


def _owner_layer(spans, i):
    """Layer of the nearest enclosing span outside special_functions."""
    p = spans[i][4]
    while p >= 0 and spans[p][1] == "special_functions":
        p = spans[p][4]
    return spans[p][1] if p >= 0 else None


def _route_key(method: str | None) -> str:
    if method is None:  # the call raised
        return "other"
    if method.startswith("series-extended"):
        return "series_extended"
    return method.replace("-", "_")


def layer_metrics(per_op_spans: list[list]) -> dict[str, tuple[float, str]]:
    """Per-layer counts and times summed over the operations of a run."""
    c: dict[str, float] = {}

    def add(key, v=1.0):
        c[key] = c.get(key, 0.0) + v

    dps: list[int] = []
    for spans in per_op_spans:
        child_time = [0.0] * len(spans)
        for name, layer, start, end, parent, tag in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, layer, start, end, parent, tag) in enumerate(spans):
            dur = end - start
            add(f"{layer}.self_s", dur - child_time[i])
            parent_layer = spans[parent][1] if parent >= 0 else None
            if layer == "subordination" and parent_layer != "subordination":
                add("subordination.quadrature_calls")
            if name == "mittag_leffler_neg_info":
                add("ml.calls")
                add("ml.s", dur)
                route = _route_key(tag)
                add(f"ml.route.{route if route in ML_ROUTES else 'other'}")
                if route == "series_extended":
                    add("ml.escalated_s", dur)
                    dps.append(int(_DPS.match(tag).group(1)))
                owner = _owner_layer(spans, i)
                if owner in ("decay_analysis", "spectral_models"):
                    add(f"{owner}.ml_evals")
            elif name == "wright_m_info":
                add("wright.calls")
                add("wright.s", dur)
                route = _route_key(tag)
                add(f"wright.route.{route if route in WRIGHT_ROUTES else 'other'}")
                if _owner_layer(spans, i) == "subordination":
                    add("subordination.density_evals")
            elif name == "spectral_solve":
                add("pde.solves")
                add("pde.solve_self_s", dur - child_time[i])
            elif name == "propagator_multiplier":
                add("pde.multiplier_s", dur)
                if tag is not None:
                    rep, modes, nodes = tag
                    add("pde.modes_unique", modes)
                    add("pde.matvec_bytes", modes * nodes * 8)
            elif name in SUP_FUNCTIONS:
                add("decay.sup_calls")
            elif name == "trace_counting":
                add("spectral.trace_counting_calls")
            elif name == "main" and layer == "cli":
                add("cli.commands")
            elif name == "emit_report":
                add("cli.report_bytes", tag or 0)

    g = c.get
    ml_calls = g("ml.calls", 0.0)
    quad_calls = g("subordination.quadrature_calls", 0.0)
    mult_s = g("pde.multiplier_s", 0.0)
    sf = "special_functions"
    return {
        f"{sf}.ml.calls": (ml_calls, "count"),
        f"{sf}.ml.s": (g("ml.s", 0.0), "s"),
        **{f"{sf}.ml.route.{r}": (g(f"ml.route.{r}", 0.0), "count")
           for r in (*ML_ROUTES, "other")},
        f"{sf}.ml.escalation_frac": (
            g("ml.route.series_extended", 0.0) / ml_calls if ml_calls else 0.0, "ratio"),
        f"{sf}.ml.escalation_dps_mean": (statistics.fmean(dps) if dps else 0.0, "digits"),
        f"{sf}.ml.escalated_s": (g("ml.escalated_s", 0.0), "s"),
        f"{sf}.wright.calls": (g("wright.calls", 0.0), "count"),
        f"{sf}.wright.s": (g("wright.s", 0.0), "s"),
        **{f"{sf}.wright.route.{r}": (g(f"wright.route.{r}", 0.0), "count")
           for r in (*WRIGHT_ROUTES, "other")},
        f"{sf}.self_s": (g(f"{sf}.self_s", 0.0), "s"),
        "subordination.self_s": (g("subordination.self_s", 0.0), "s"),
        "subordination.quadrature_calls": (quad_calls, "count"),
        "subordination.density_evals": (g("subordination.density_evals", 0.0), "count"),
        "subordination.density_evals_per_call": (
            g("subordination.density_evals", 0.0) / quad_calls if quad_calls else 0.0,
            "count"),
        "pde_solver.solves": (g("pde.solves", 0.0), "count"),
        "pde_solver.multiplier_s": (mult_s, "s"),
        "pde_solver.solve_self_s": (g("pde.solve_self_s", 0.0), "s"),
        "pde_solver.self_s": (g("pde_solver.self_s", 0.0), "s"),
        "pde_solver.modes_unique": (g("pde.modes_unique", 0.0), "count"),
        "pde_solver.modes_per_s": (
            g("pde.modes_unique", 0.0) / mult_s if mult_s else 0.0, "1/s"),
        "pde_solver.matvec_bytes_computed": (g("pde.matvec_bytes", 0.0), "B"),
        "decay_analysis.self_s": (g("decay_analysis.self_s", 0.0), "s"),
        "decay_analysis.sup_calls": (g("decay.sup_calls", 0.0), "count"),
        "decay_analysis.ml_evals": (g("decay_analysis.ml_evals", 0.0), "count"),
        "spectral_models.self_s": (g("spectral_models.self_s", 0.0), "s"),
        "spectral_models.trace_counting.calls": (
            g("spectral.trace_counting_calls", 0.0), "count"),
        "spectral_models.ml_evals": (g("spectral_models.ml_evals", 0.0), "count"),
        "cli.commands": (g("cli.commands", 0.0), "count"),
        "cli.self_s": (g("cli.self_s", 0.0), "s"),
        "cli.report_bytes": (g("cli.report_bytes", 0.0), "B"),
    }


# Metrics that are counts of work: a deterministic function of the inputs,
# so two traced runs of one seed must report them identically.
def deterministic(metrics: dict) -> dict:
    return {k: v for k, (v, unit) in metrics.items()
            if unit in ("count", "B", "ratio", "digits")}
