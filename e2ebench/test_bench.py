"""Self-test of the benchmark harness: every workload at tiny size.

Run from the repository root (takes about a minute):
    python3 -m pytest -q e2ebench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def measured():
    """(runs, metrics) per (workload, traced) at tiny size with the default seed."""
    out = {}
    for workload in workloads.WORKLOADS:
        for trace in (False, True):
            runs, _ = run.measure(workload, workloads.DEFAULT_SEED, 0.0, trace, size="tiny")
            out[workload, trace] = (runs, run.summarise(runs, trace)[0])
    return out


def test_benchmark_json_names_what_the_harness_reports():
    e2e = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert e2e == run.E2E_UNITS
    assert layers == run.layer_units()
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


def test_every_workload_passes_and_reports_every_e2e_metric(measured):
    for workload in workloads.WORKLOADS:
        runs, metrics = measured[workload, False]
        assert all(not r["problems"] for r in runs), [r["problems"] for r in runs]
        assert set(metrics) == set(run.E2E_UNITS)
        for name in ("wall_s", "setup_s", "peak_rss_mb"):
            assert metrics[name]["value"] > 0, (workload, name)
        assert metrics["ok_frac"]["value"] == 1.0


def test_every_layer_metric_is_recorded_on_some_workload(measured):
    traced = {w: measured[w, True] for w in workloads.WORKLOADS}
    for runs, metrics in traced.values():
        assert all(not r["problems"] for r in runs)
        assert set(metrics) == set(run.layer_units())
        assert not any(r.get("absent") for r in runs)
    for name in run.layer_units():
        if name == "trace.overhead_s":  # a difference of two timings, either sign
            continue
        assert any(m[name]["value"] > 0 for _, m in traced.values()), name


def test_derived_layer_counts(measured):
    _, adj = measured["adj1d", True]
    _, opt = measured["opt2d", True]
    assert adj["propagate.fixed_point_evals_per_step"]["value"] >= 2
    # the initial solve plus at least one line-search trial per iteration
    iterations = workloads.shape("opt2d", "tiny")["iterations"]
    assert opt["control.line_search_solves"]["value"] >= iterations


def _corrupt_summary(out):
    path = out / "summary.json"
    summary = json.loads(path.read_text())
    summary["l2_envelope_measured"] = 2.0 * summary["l2_envelope_bound"]
    path.write_text(json.dumps(summary))


def _corrupt_trajectory(out):
    path = out / "trajectory.csv"
    lines = path.read_text().splitlines()
    cells = lines[-1].split(",")
    cells[1] = "nan"
    lines[-1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def _corrupt_history(out):
    path = out / "optimize_history.csv"
    lines = path.read_text().splitlines()
    cells = lines[-1].split(",")
    cells[1] = repr(1e6)
    lines[-1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def _corrupt_reports(out):
    path = out / "reports.json"
    reports = json.loads(path.read_text())
    next(r for r in reports if r["asserted"])["passed"] = False
    path.write_text(json.dumps(reports))


@pytest.mark.parametrize(
    "workload, corrupt",
    [
        ("fwd3d", _corrupt_summary),
        ("adj1d", _corrupt_trajectory),
        ("opt2d", _corrupt_history),
        ("verify", _corrupt_reports),
    ],
)
def test_corrupted_artifact_counts_as_failed(workload, corrupt):
    runs, _ = run.measure(workload, workloads.DEFAULT_SEED, 0.0, False, size="tiny",
                          after_run=corrupt)
    metrics, _ = run.summarise(runs, False)
    assert runs and all(r["problems"] for r in runs)
    assert metrics["ok_frac"]["value"] == 0.0


def test_reference_comparison_is_relative():
    reference = {"state": [1.0, -2.0, 1e-17]}
    close = {"state": np.array([1.0 + 1e-12, -2.0, 5e-17])}
    far = {"state": np.array([1.0, -2.0 + 1e-6, 1e-17])}
    assert checks._compare("simulate", close, reference) == []
    assert checks._compare("simulate", far, reference)


def _perturbed_reports(name, index, delta):
    reference = json.loads(checks.reference_path("verify").read_text())
    measured = {k: np.array(v) for k, v in reference.items()}
    measured[name][index] += delta
    return measured, reference


@pytest.mark.parametrize("name, delta", [
    # measured values that are round-off, or differences of nearly equal
    # quantities, by nature; uniqueness-halving moved by 3.5e-12 between two
    # OpenBLAS kernels
    ("form-imag-vanishes-alpha1", 1e-15),
    ("potential-continuity", 1e-15),
    ("uniqueness-halving", 1e-11),
])
def test_verify_reference_passes_round_off(name, delta):
    measured, reference = _perturbed_reports(name, 0, delta)
    assert checks._compare("verify", measured, reference) == []


@pytest.mark.parametrize("name, index, rel", [
    ("galerkin-convergence", 0, 1e-4),  # a measured value
    ("form-value-bound-alpha0", 1, 1e-8),  # a bound
    ("form-value-bound-alpha0", 0, 1e-4),  # a measured value far below its bound
])
def test_verify_reference_rejects_real_changes(name, index, rel):
    reference = json.loads(checks.reference_path("verify").read_text())
    measured, reference = _perturbed_reports(name, index, rel * abs(reference[name][index]))
    assert checks._compare("verify", measured, reference)


def test_missing_targets_are_recorded_as_absent():
    sys.path.insert(0, str(ROOT / "src"))
    from tracer import Tracer

    import tdks  # noqa: F401

    tracer = Tracer(["domain.no_such_function", "no_such_module.f",
                     "system.SystemContext.no_such_method", "domain.synthesize"]).install()
    try:
        assert tracer.absent == ["domain.no_such_function", "no_such_module.f",
                                 "system.SystemContext.no_such_method"]
    finally:
        tracer.uninstall()
    assert tracer.summary()["layers"]["domain.synthesize"]["calls"] == 0


def test_refuses_to_run_without_the_sources():
    bare = run.OUT_ROOT / "bare-checkout"  # holds only BENCHMARK.json and the benchmark
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "fwd3d", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
