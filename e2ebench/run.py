"""End-to-end benchmark of the tdks command line.

Usage, from the repository root:
    python3 e2ebench/run.py --workload fwd3d --seed 0 --seconds 30 --trace 0

One client in a closed loop: runs go back to back, each one
``tdks.cli.main([...])`` call in a fresh child process (so peak RSS belongs
to one run), each with its own output directory under ``.bench_out/``.
Runs continue while a run as slow as the slowest so far would still end
within ``--seconds``, and until at least a minimum number have completed.
Every run's artifacts are checked (checks.py); a run fails if it raises,
exits nonzero or its artifacts fail a check.

``--trace 0`` reports the end-to-end metrics (medians over runs); ``--trace 1``
alternates untraced and traced runs and reports the per-layer metrics
(medians over the traced runs) with the tracing overhead.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
The lines before it give each metric's median with its sample count, and
the machine record; the full record is written to ``.bench_out/results/``.
"""

import argparse
import ctypes
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".bench_out"

sys.path.insert(0, str(HERE))
import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYER_TARGETS, MEMORY_TARGETS, SETUP_TARGETS  # noqa: E402

MIN_RUNS = 3  # untraced runs per invocation at least
MIN_TRACED_PAIRS = 2  # with --trace 1: untraced and traced runs, at least
BUDGET_S = 170.0  # no run starts, and every run is stopped, after this

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ok_frac": "ratio"}


def _layer_fields(target):
    if target.startswith("verify."):
        return ("total_s",)
    if target in MEMORY_TARGETS:
        return ("calls", "total_s", "peak_mb")
    if target in SETUP_TARGETS:
        return ("calls", "total_s")
    if target == "propagate.step":
        return ("calls", "self_s", "total_s", "p50_ms", "p90_ms")
    return ("calls", "self_s", "total_s")


_FIELD_UNITS = {"calls": "count", "self_s": "s", "total_s": "s", "p50_ms": "ms",
                "p90_ms": "ms", "peak_mb": "MB"}


def _traced_metrics():
    """(metric name, target, field) for every metric read off a traced target."""
    for target in LAYER_TARGETS:
        for field in _layer_fields(target):
            yield f"{target.lstrip('_')}.{field}", target, field  # names start with a letter


def layer_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {name: _FIELD_UNITS[field] for name, _, field in _traced_metrics()}
    units.update({
        "propagate.fixed_point_evals_per_step": "evals/step",
        "control.line_search_solves": "count",
        "cli.artifact_bytes": "bytes",
        "trace.untraced_wall_s": "s",
        "trace.traced_wall_s": "s",
        "trace.overhead_s": "s",
    })
    return units


# -- machine record ------------------------------------------------------------


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None if not found."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps.splitlines() if "blas" in line.lower()}
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_record():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    numba = importlib.util.find_spec("numba") is not None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "numba_importable": numba,
        "kernel_path": "numba" if numba else "numpy (numba absent; only the numpy path is measured)",
    }


# -- runs ----------------------------------------------------------------------


def _one_run(workload, index, config_path, work, traced, timeout, compare_reference,
             size, after_run):
    sub = workloads.subcommand(workload)
    shape = workloads.shape(workload, size)
    run_dir = work / f"run{index:03d}"
    out = run_dir / "out"
    run_dir.mkdir()
    result_path = run_dir / "result.json"
    cmd = [sys.executable, str(HERE / "child.py"), "--src", str(SRC),
           "--result", str(result_path), "--run-id", f"{work.name}/{index}"]
    if traced:
        cmd += ["--trace", "--spans", str(run_dir / "spans.json")]
    cmd += ["--", sub, "--config", str(config_path), "--out", str(out), "--quiet"]
    record = {"index": index, "traced": traced}
    with open(run_dir / "child.log", "w") as log:
        try:
            subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT, cwd=ROOT,
                           timeout=timeout, check=False)
        except subprocess.TimeoutExpired:
            record["problems"] = [f"timed out after {timeout:.0f} s"]
            return record
    if not result_path.is_file():
        tail = (run_dir / "child.log").read_text()[-500:]
        record["problems"] = [f"child wrote no result: {tail}"]
        return record
    result = json.loads(result_path.read_text())
    record.update(result)
    if result["error"] is not None:
        record["problems"] = [result["error"]]
        return record
    if after_run is not None:
        after_run(out)
    record["artifact_bytes"] = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
    record["problems"] = checks.check_run(
        workload, sub, out, result["rc"], shape.get("steps"), shape.get("iterations"),
        compare_reference,
    )
    return record


def measure(workload, seed, seconds, trace, size="full", after_run=None):
    """Run the closed loop and return (runs, name of this invocation).

    ``after_run(out_dir)`` is called on each run's artifacts before they are
    checked; the self-test uses it to corrupt an artifact.  The spans of the
    last traced run are kept as ``.bench_out/results/<name>.spans.json``.
    """
    name = f"{workload}-{size}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    work = OUT_ROOT / name
    results = OUT_ROOT / "results"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    results.mkdir(exist_ok=True)
    config_path = work / "config.json"
    config_path.write_text(json.dumps(workloads.build_config(workload, seed, size)))
    compare_reference = seed == workloads.DEFAULT_SEED and size == "full"

    runs = []
    durations = []  # of each run including process start and checks
    start = time.monotonic()
    while True:
        elapsed = time.monotonic() - start
        untraced = sum(not r["traced"] for r in runs)
        traced_n = len(runs) - untraced
        if trace:
            enough = min(untraced, traced_n) >= MIN_TRACED_PAIRS
        else:
            enough = untraced >= MIN_RUNS
        # stop unless a run as slow as the slowest so far would still end inside the window
        if enough and elapsed + max(durations) > seconds or elapsed >= BUDGET_S:
            break
        traced = trace and len(runs) % 2 == 1  # with tracing, alternate plain and traced
        runs.append(_one_run(workload, len(runs), config_path, work, traced,
                             BUDGET_S + 5.0 - elapsed, compare_reference, size, after_run))
        durations.append(time.monotonic() - start - elapsed)
        spans = work / f"run{len(runs) - 1:03d}" / "spans.json"
        if spans.is_file():
            spans.replace(results / f"{name}.spans.json")
        shutil.rmtree(spans.parent, ignore_errors=True)
    shutil.rmtree(work, ignore_errors=True)
    return runs, name


def _median(values):
    return statistics.median(values) if values else 0.0


def summarise(runs, trace):
    """(metrics, sample counts) from the runs of one invocation."""
    ok = [r for r in runs if not r["problems"]]
    if not ok:  # every run failed: report what the runs that finished measured
        ok = [r for r in runs if "wall_s" in r]
    plain = [r for r in ok if not r["traced"]]
    counts = {}
    if not trace:
        metrics = {name: _median([r[name] for r in plain])
                   for name in ("wall_s", "setup_s", "peak_rss_mb")}
        counts = {name: len(plain) for name in metrics}
        metrics["ok_frac"] = sum(not r["problems"] for r in runs) / len(runs)
        counts["ok_frac"] = len(runs)
        return {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in metrics.items()}, counts

    traced = [r for r in ok if r["traced"]]
    units = layer_units()
    metrics = {
        name: _median([r["layers"].get(target, {}).get(field, 0.0) for r in traced])
        for name, target, field in _traced_metrics()
    }
    for name in ("propagate.fixed_point_evals_per_step", "control.line_search_solves"):
        metrics[name] = _median([r["derived"][name] for r in traced])
    metrics["cli.artifact_bytes"] = _median([r["artifact_bytes"] for r in traced])
    metrics["trace.untraced_wall_s"] = _median([r["wall_s"] for r in plain])
    metrics["trace.traced_wall_s"] = _median([r["wall_s"] for r in traced])
    metrics["trace.overhead_s"] = metrics["trace.traced_wall_s"] - metrics["trace.untraced_wall_s"]
    counts = {name: len(traced) for name in metrics}
    counts["trace.untraced_wall_s"] = len(plain)
    return {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}, counts


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "tdks" / "cli.py").is_file():
        print(f"error: no tdks sources under {SRC}", file=sys.stderr)
        return 2

    runs, name = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    metrics, counts = summarise(runs, bool(args.trace))
    failed = [r for r in runs if r["problems"]]
    machine = machine_record()
    absent = sorted({name for r in runs for name in r.get("absent", [])})

    record_path = OUT_ROOT / "results" / f"{name}.json"
    record_path.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "machine": machine,
        "metrics": metrics, "samples": counts, "absent": absent,
        "runs": [{k: v for k, v in r.items() if k not in ("layers", "derived")} for r in runs],
    }, indent=1, sort_keys=True) + "\n")

    print(f"machine: {json.dumps(machine, sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed}: "
          f"{len(runs)} runs, {len(failed)} failed; record in {record_path.relative_to(ROOT)}")
    for r in failed:
        print(f"  run {r['index']} failed: {'; '.join(r['problems'])}")
    if absent:
        print(f"absent (reported as 0): {', '.join(absent)}")
    for name, m in metrics.items():
        print(f"  {name}: median {m['value']:.6g} {m['unit']} (n={counts[name]})")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(runs),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0 if len(failed) < len(runs) else 1


if __name__ == "__main__":
    sys.exit(main())
