"""The runtime import contract: the package needs numpy only (mpmath and
scipy are test references), every module it uses is loaded when it is
imported, not on the first call (the cost of a cold command stays in its
start-up), no code path calls into numpy.linalg (every fitted line is closed
form, so LAPACK's code and workspace are never loaded), and every name a
module exports exists."""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import fracheat

SRC = str(Path(fracheat.__file__).resolve().parent.parent)


def _run(code: str):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])


@pytest.mark.parametrize("package", ["scipy", "mpmath"])
def test_cli_import_loads_no_scipy(package):
    loaded = _run("import json, sys, fracheat.cli\n"
                  f"print(json.dumps([m for m in sys.modules if m.split('.')[0] == {package!r}]))")
    assert loaded == []


def test_every_command_runs_without_mpmath(tmp_path):
    # with mpmath blocked, so that importing it raises, each of the nine
    # commands runs at a small size and exits 0; report merges eval-ml's
    out = str(tmp_path / "{}.json")
    runs = [["eval-ml", "--alpha", "0.5", "--x", "1.0"],
            ["eval-wright", "--alpha", "0.5", "--s", "2.0"],
            ["verify-subordination", "--alpha", "0.5"],
            ["verify-moments", "--alpha", "0.5"],
            ["verify-special"],
            ["decay-sup", "--alpha", "0.5", "--lambda", "1.0"],
            ["decay-compare", "--alpha", "0.5", "--lambda", "1.0"],
            ["solve", "--alpha", "0.5", "--t", "1.0", "--N", "256"],
            ["report", out.format("eval-ml")]]
    codes = _run("import json, sys\n"
                 "sys.modules['mpmath'] = None\n"
                 "from fracheat.cli import main\n"
                 f"print(json.dumps([main([*argv, '--out', {out!r}.format(argv[0])])\n"
                 f"                  for argv in {runs!r}]))")
    assert codes == [0] * 9


def test_first_calls_import_no_library_module():
    loaded = _run(
        "import json, sys\n"
        "import fracheat.cli\n"
        "from fracheat.pde_solver import PeriodicGrid, SolverConfig, gaussian_bump, "
        "spectral_solve\n"
        "from fracheat.subordination import wright_moment\n"
        "before = set(sys.modules)\n"
        "grid = PeriodicGrid(dim=1, box_length=50.0, points_per_dim=256)\n"
        "spectral_solve(gaussian_bump(grid), SolverConfig(alpha=0.6), 1.0)\n"
        "wright_moment(0.6, 0.5)\n"
        "print(json.dumps(sorted(m for m in set(sys.modules) - before\n"
        "                        if m.split('.')[0] in ('numpy', 'scipy', 'mpmath'))))")
    assert loaded == []


def test_wright_tables_load_no_numpy_polynomial():
    # the Gauss-Legendre panel rule is a table of constants: neither the
    # import nor a first mass table build loads numpy.polynomial
    loaded = _run("import json, sys\n"
                  "import fracheat.cli\n"
                  "from fracheat.subordination import wright_mass_nodes\n"
                  "wright_mass_nodes(0.6)\n"
                  "print(json.dumps([m for m in sys.modules if m.startswith('numpy.polynomial')]))")
    assert loaded == []


@pytest.mark.parametrize("module", ["fracheat"] + [
    f"fracheat.{m.name}" for m in pkgutil.iter_modules(fracheat.__path__)])
def test_every_exported_name_resolves(module):
    # a name left in __all__ after its definition is deleted breaks
    # `from <module> import *`
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []


def test_cold_verify_moments_does_only_its_own_work(tmp_path):
    # in a fresh process, one verify-moments alpha builds its own subparser
    # alone and samples M_alpha on one panel table, [1, cut]
    out = str(tmp_path / "mom.json")
    built = _run(
        "import argparse, json\n"
        "from fracheat import cli, subordination\n"
        "subparsers, tables = [], []\n"
        "add_parser, panel_masses = argparse._SubParsersAction.add_parser, "
        "subordination._panel_masses\n"
        "def spy_parser(self, name, **kwargs):\n"
        "    subparsers.append(name)\n"
        "    return add_parser(self, name, **kwargs)\n"
        "def spy_table(alpha, edges):\n"
        "    tables.append([float(min(edges)), float(max(edges)), len(edges) - 1])\n"
        "    return panel_masses(alpha, edges)\n"
        "argparse._SubParsersAction.add_parser = spy_parser\n"
        "subordination._panel_masses = spy_table\n"
        f"code = cli.main(['verify-moments', '--alpha', '0.5', '--out', {out!r}])\n"
        "print(json.dumps([code, subparsers, tables]))")
    code, subparsers, tables = built
    assert code == 0 and subparsers == ["verify-moments"]
    # 10 geometric panels on [1, 14.08] (the cut of the weight s^3)
    assert tables == [[1.0, pytest.approx(14.078083071940602, rel=1e-15), 10]]


def test_cold_endpoint_profile_samples_one_table():
    # in a fresh process, a profile samples M_alpha on one panel table, the
    # moments' [1, cut] table: below s = 1 it sums the series
    tables = _run(
        "import json\n"
        "import numpy as np\n"
        "from fracheat import subordination\n"
        "tables, panel_masses = [], subordination._panel_masses\n"
        "def spy_table(alpha, edges):\n"
        "    tables.append([float(min(edges)), float(max(edges)), len(edges) - 1])\n"
        "    return panel_masses(alpha, edges)\n"
        "subordination._panel_masses = spy_table\n"
        "subordination.endpoint_divergence_profile(0.25, list(np.logspace(-2, -5, 8)))\n"
        "print(json.dumps(tables))")
    # 13 geometric panels on [1, 33.88] (the cut of the weight s^3)
    assert tables == [[1.0, pytest.approx(33.88058549443314, rel=1e-15), 13]]


def test_fits_call_no_linalg():
    # in a fresh process, no fit reaches numpy.linalg (np.polyfit would, through
    # lstsq): a profiler hook records every Python function of numpy.linalg
    # that runs, whatever name it was bound to
    called = _run(
        "import json, sys\n"
        "import numpy as np\n"
        "from fracheat import decay_analysis, pde_solver, spectral_models, subordination\n"
        "def spy(fn):\n"
        "    seen = set()\n"
        "    def hook(frame, event, arg):\n"
        "        if event == 'call' and 'linalg' in frame.f_code.co_filename:\n"
        "            seen.add(frame.f_code.co_name)\n"
        "    sys.setprofile(hook)\n"
        "    try:\n"
        "        fn()\n"
        "    finally:\n"
        "        sys.setprofile(None)\n"
        "    return sorted(seen)\n"
        "def sweep(dim, n, box, alpha):\n"
        "    grid = pde_solver.PeriodicGrid(dim=dim, box_length=box, points_per_dim=n)\n"
        "    cfg = pde_solver.SolverConfig(alpha=alpha, representation='subordination')\n"
        "    pde_solver.decay_measurement(pde_solver.gaussian_bump(grid), cfg, 4 / 3, 4.0,\n"
        "                                 (0.1, 0.3, 1.0, 3.0, 7.0), wraparound_tol=1.0)\n"
        "print(json.dumps([\n"
        "    spy(lambda: subordination.endpoint_divergence_profile(\n"
        "        0.25, list(np.logspace(-2, -5, 8)))),\n"
        "    spy(lambda: sweep(1, 1024, 200.0, 0.6)),\n"
        "    spy(lambda: sweep(2, 64, 16.0, 0.7)),\n"
        "    spy(lambda: decay_analysis.fit_decay_exponent(np.logspace(0, 3, 9),\n"
        "                                                  np.logspace(0, -1.5, 9))),\n"
        "    spy(lambda: spectral_models.verify_trace_growth(\n"
        "        spectral_models.torus_laplacian_1d(2000), 0.5, (1.0, 1e6)))]))")
    assert called == [[]] * 5
