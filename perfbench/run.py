"""Cold-operation benchmark for fracheat.

Run from the root of a fracheat source checkout:

    python3 perfbench/run.py --workload pde-direct --seed 1 --seconds 30 --trace 0

The op list of a workload is drawn from --seed (see workloads.py) and sized
from --seconds. Ops run one after another (a closed loop with one client),
each in a child process forked from this one after it imported fracheat
and computed nothing, so no memoized value carries over from one op to the
next. With --trace 0 the run reports the end-to-end metrics; with --trace 1
it runs every op twice, untraced and traced, and reports the per-layer
metrics. The last line of standard output is one JSON object; the full
record (provenance, every op, every metric) goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import ctypes
import gzip
import hashlib
import json
import os
import pickle
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

SETUP_REPEATS = 5
OP_TIMEOUT_S = 150


def measure_setup() -> list[float]:
    """Wall time of a fresh interpreter that imports fracheat.cli."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import fracheat.cli"], env=env,
                       cwd=ROOT, check=True)
        times.append(time.perf_counter() - start)
    return times


# ---------------------------------------------------------------------------
# one cold op in a forked child
# ---------------------------------------------------------------------------

def _child(op: dict, traced: bool, workdir: Path, fracheat_modules) -> dict:
    import spans
    import workloads

    package, layers = fracheat_modules
    tracer = spans.Tracer(package, layers) if traced else None
    if tracer:
        tracer.install()
    start = time.perf_counter()
    try:
        result = workloads.run_op(op, workdir)
    finally:
        op_s = time.perf_counter() - start
        if tracer:
            tracer.uninstall()
    # the op's own peak; the check below may allocate more
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ok, detail = workloads.check_op(op, result)
    return {"op_s": op_s, "peak_rss_mb": peak_mb, "ok": bool(ok), "detail": detail,
            "spans": tracer.finish() if tracer else None}


def run_cold(op: dict, traced: bool, workdir: Path, fracheat_modules) -> dict:
    """Fork, run one op in the child, and collect its record."""
    workdir.mkdir(parents=True, exist_ok=True)
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # child: never returns into the parent's code
        try:
            os.close(read_fd)
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, 1)  # the CLI's console lines stay off our stdout
            signal.alarm(OP_TIMEOUT_S)
            try:
                payload = _child(op, traced, workdir, fracheat_modules)
            except Exception as exc:  # reported as a failed op
                payload = {"error": f"{type(exc).__name__}: {exc}"}
            with os.fdopen(write_fd, "wb") as fh:
                pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL)
        finally:
            os._exit(0)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as fh:
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    shutil.rmtree(workdir, ignore_errors=True)
    # only bytes written by our own child are unpickled
    record = pickle.loads(data) if data else {"error": f"child died, wait status {status}"}
    if os.waitstatus_to_exitcode(status) != 0 and "error" not in record:
        record["error"] = f"child exit status {status}"
    record.setdefault("ok", False)
    return record


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------

def _cpu() -> dict:
    info = {"model": platform.processor() or "unknown", "caches": {}}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_dir.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        name = f"L{level}" + ({"Data": "d", "Instruction": "i"}.get(kind, ""))
        info["caches"][name] = size
    return info


def _blas_threads() -> int | str:
    """Thread count of the OpenBLAS that numpy loaded, if it can be asked."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return "unknown"
    libs = {line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()}
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return "unknown"


def provenance(args) -> dict:
    import mpmath
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted((SRC / "fracheat").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = "unavailable: not a git checkout"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                                    capture_output=True, text=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_commit": commit, "source_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": _cpu(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(),
        "concurrency": "closed loop, one client: one op process at a time",
    }


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def _counts_repeat(path: Path, source: str, counts: dict) -> str:
    """Compare the deterministic counts with an earlier traced run of the same
    seed and source, if there was one; record them otherwise."""
    if path.exists():
        earlier = json.loads(path.read_text())
        if earlier.get("source_sha256") == source:
            diff = sorted(k for k in set(counts) | set(earlier["counts"])
                          if counts.get(k) != earlier["counts"].get(k))
            return "identical" if not diff else "DIFFER: " + ", ".join(diff)
    path.write_text(json.dumps({"source_sha256": source, "counts": counts},
                               indent=1, sort_keys=True) + "\n")
    return "recorded (first traced run of this seed and source)"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "fracheat" / "__init__.py").is_file():
        print(f"error: no fracheat source under {SRC}; run from the root of a "
              "fracheat checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import fracheat
    import fracheat.cli
    import fracheat.spectral_models
    if Path(fracheat.__file__).resolve().parent != (SRC / "fracheat").resolve():
        print(f"error: imported fracheat from {fracheat.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import spans
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")

    setup = measure_setup()
    layers = {name: sys.modules[f"fracheat.{name}"] for name in spans.LAYERS}
    modules = (fracheat, layers)
    prov = provenance(args)
    ops = workloads.build_ops(args.workload, args.seed, args.seconds)
    OUT.mkdir(parents=True, exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"

    untraced, traced = [], []
    start = time.perf_counter()
    for op in ops:
        untraced.append(run_cold(op, False, workdir, modules))
        if args.trace:
            traced.append(run_cold(op, True, workdir, modules))
    wall_s = time.perf_counter() - start

    records = untraced + traced
    failed = 0
    for i, r in enumerate(records):
        if not r["ok"]:
            failed += 1
            print(f"FAILED op {ops[i % len(ops)]}: {r.get('error') or r.get('detail')}",
                  file=sys.stderr)

    times = [r["op_s"] for r in untraced if "op_s" in r]
    end_to_end = {
        "setup_s": (statistics.median(setup), "s"),
        "workload_s": (sum(times), "s"),
        "op_p50_s": (statistics.median(times) if times else 0.0, "s"),
        "peak_rss_mb": (max((r.get("peak_rss_mb", 0.0) for r in untraced), default=0.0), "MB"),
    }
    summary = {**end_to_end,
               "fail_frac": (failed / len(records), "ratio"),
               "ops": (len(ops), "count")}
    correct = failed == 0
    repeat = None
    if args.trace:
        per_op_spans = [r.get("spans") or [] for r in traced]
        metrics = spans.layer_metrics(per_op_spans)
        repeat = _counts_repeat(
            OUT / f"counts-{args.workload}-seed{args.seed}-sec{args.seconds:g}.json",
            prov["source_sha256"], spans.deterministic(metrics))
        correct = correct and not repeat.startswith("DIFFER")
        traced_s = sum(r.get("op_s", 0.0) for r in traced)
        metrics["trace.overhead_frac"] = (traced_s / end_to_end["workload_s"][0] - 1.0, "ratio")
        with gzip.open(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz", "wt") as fh:
            for op_id, op_spans in enumerate(per_op_spans):
                for name, layer, t0, t1, parent, tag in op_spans:
                    fh.write(json.dumps({"op_id": op_id, "name": name, "layer": layer,
                                         "start": t0, "end": t1, "parent": parent,
                                         "tag": tag}) + "\n")
        summary["trace.overhead_frac"] = metrics["trace.overhead_frac"]
    else:
        metrics = end_to_end

    full = {
        "provenance": prov, "wall_s": wall_s, "setup_samples_s": setup,
        "count_repeat_check": repeat,
        "summary": {k: {"value": v, "unit": u} for k, (v, u) in summary.items()},
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "ops": [{"op": op, "untraced": {k: v for k, v in u.items() if k != "spans"},
                 **({"traced": {k: v for k, v in t.items() if k != "spans"}}
                    if args.trace else {})}
                for op, u, t in zip(ops, untraced, traced or untraced)],
    }
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(full, indent=1, default=str) + "\n")

    print("provenance " + json.dumps(prov, sort_keys=True, default=str))
    for key, (value, unit) in {**summary, **metrics}.items():
        print(f"{key:48s} {value:>16.6g} {unit}")
    if repeat:
        print(f"count repeat check: {repeat}")
    print(json.dumps({
        "correct": correct, "attempted": len(records), "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
