"""Output checks for one run's artifacts.

Two layers of checking:

* invariants that hold for any seed (finite values, the L2 envelope, norm
  drift, a non-increasing objective, every asserted verify check passing);
* for the default seed at full size, agreement with the reference values in
  ``reference/<workload>.json`` to a relative tolerance with a small absolute
  floor, so a round-off-level change of summation order still passes while a
  wrong result does not.

Several measured values of ``verify`` are differences or ratios of nearly
equal quantities, so round-off moves them far more than 1e-10 of themselves:
``form-imag-vanishes-alpha1`` is round-off itself (about 4e-15),
``potential-continuity`` is a difference of two near-equal fields, and
``uniqueness-halving`` (a ratio of gaps between nearby trajectories) moves by
1.1e-8 of itself when OpenBLAS switches from its SkylakeX to its Sandybridge
kernels.  A report's measured value is therefore compared to 1e-6 of itself,
its bound to 1e-10 of itself, both with the absolute floor.
"""

import csv
import json
import math
from pathlib import Path

import numpy as np

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
REL_TOL = 1e-10  # relative to the largest magnitude of each reference quantity
MEASURED_REL_TOL = 1e-6  # verify's measured values, relative to themselves
ABS_TOL = 1e-12  # absolute floor, far above round-off of O(1) values
DRIFT_TOL = 1e-3  # max |l2^2 - l2(0)^2| / l2(0)^2 of a forward solve

EXPECTED_FILES = {
    "simulate": ("config.echo.json", "trajectory.csv", "diagnostics.csv", "density_0.csv",
                 "summary.json"),
    "adjoint": ("config.echo.json", "trajectory.csv", "diagnostics.csv", "density_0.csv",
                "summary.json", "forward_trajectory.csv", "forward_diagnostics.csv"),
    "optimize": ("config.echo.json", "optimize_history.csv", "control_optimized.json"),
    "verify": ("config.echo.json", "reports.json"),
}


def _table(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return np.array([[float(v) for v in row] for row in rows[1:]], dtype=np.float64)


def _envelope_problems(summary):
    measured = summary.get("l2_envelope_measured")
    bound = summary.get("l2_envelope_bound")
    if measured is None or bound is None or not (math.isfinite(measured) and math.isfinite(bound)):
        return ["summary.json: envelope values missing or not finite"]
    if measured > bound:
        return [f"summary.json: l2 envelope violated ({measured} > {bound})"]
    return []


def _check_solve(out, steps, forward):
    problems = []
    names = ["trajectory.csv", "diagnostics.csv"]
    if not forward:
        names += ["forward_trajectory.csv", "forward_diagnostics.csv"]
    for name in names:
        table = _table(out / name)
        if table.shape[0] != steps + 1:
            problems.append(f"{name}: {table.shape[0]} rows, expected {steps + 1}")
        if not np.all(np.isfinite(table)):
            problems.append(f"{name}: non-finite values")
    summary = json.loads((out / "summary.json").read_text())
    problems += _envelope_problems(summary)
    if forward:
        l2 = _table(out / "diagnostics.csv")[:, 1]
        drift = float(np.max(np.abs(l2**2 - l2[0] ** 2)) / l2[0] ** 2)
        if not drift <= DRIFT_TOL:
            problems.append(f"diagnostics.csv: L2 drift {drift:.3e} exceeds {DRIFT_TOL:g}")
    return problems


def _check_optimize(out, steps, iterations):
    problems = []
    history = _table(out / "optimize_history.csv")
    objective = history[:, 1]
    if not 2 <= len(objective) <= iterations:
        problems.append(f"optimize_history.csv: {len(objective)} iterations")
    elif not np.all(np.isfinite(history)):
        problems.append("optimize_history.csv: non-finite values")
    elif np.any(np.diff(objective) > 0) or not objective[-1] < objective[0]:
        problems.append("optimize_history.csv: objective is not decreasing")
    samples = json.loads((out / "control_optimized.json").read_text())["samples"]
    if len(samples) != steps + 1 or not all(math.isfinite(v) for v in samples):
        problems.append("control_optimized.json: wrong count or non-finite samples")
    return problems


def _check_verify(out, expected_names):
    reports = json.loads((out / "reports.json").read_text())
    problems = []
    if sorted(r["name"] for r in reports) != sorted(expected_names):
        problems.append("reports.json: report names differ from the reference set")
    failing = [r["name"] for r in reports if r["asserted"] and not r["passed"]]
    if failing:
        problems.append(f"reports.json: asserted checks failed: {failing}")
    return problems


def extract(subcommand, out):
    """The quantities compared against the reference, as name -> array."""
    if subcommand == "simulate":
        return {
            "final_state": _table(out / "trajectory.csv")[-1, 1:],
            "diagnostics": _table(out / "diagnostics.csv")[:, 1:],
        }
    if subcommand == "adjoint":
        traj = _table(out / "trajectory.csv")
        return {
            "adjoint_state_t0": traj[0, 1:],
            "adjoint_state_T": traj[-1, 1:],
            "forward_final_state": _table(out / "forward_trajectory.csv")[-1, 1:],
            "diagnostics": _table(out / "diagnostics.csv")[::50, 1:],
            "forward_diagnostics": _table(out / "forward_diagnostics.csv")[::50, 1:],
        }
    if subcommand == "optimize":
        samples = json.loads((out / "control_optimized.json").read_text())["samples"]
        return {
            "history": _table(out / "optimize_history.csv")[:, 1:],
            "control": np.asarray(samples[::5]),
        }
    reports = json.loads((out / "reports.json").read_text())
    return {r["name"]: np.array([r["measured"], r["bound"]]) for r in reports}


def reference_path(workload):
    return REFERENCE_DIR / f"{workload}.json"


def write_reference(workload, subcommand, out):
    quantities = extract(subcommand, out)
    payload = {name: value.tolist() for name, value in quantities.items()}
    REFERENCE_DIR.mkdir(exist_ok=True)
    reference_path(workload).write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


def _tolerance(subcommand, ref):
    """Allowed absolute error of one reference quantity, per element or as one number."""
    if subcommand == "verify":  # ref is [measured, bound] of one report
        return np.abs(ref) * [MEASURED_REL_TOL, REL_TOL] + ABS_TOL
    return REL_TOL * float(np.max(np.abs(ref), initial=0.0)) + ABS_TOL


def _compare(subcommand, measured, reference):
    problems = []
    if sorted(measured) != sorted(reference):
        return ["reference: quantity names differ"]
    for name, ref in reference.items():
        ref = np.asarray(ref, dtype=np.float64)
        got = measured[name]
        if got.shape != ref.shape:
            problems.append(f"reference: {name} has shape {got.shape}, expected {ref.shape}")
            continue
        err = np.abs(got - ref)
        tol = _tolerance(subcommand, ref)
        if not np.all(err <= tol):
            worst = int(np.argmax(err - tol))
            problems.append(f"reference: {name} differs by {err.flat[worst]:.3e} "
                            f"(tolerance {np.broadcast_to(tol, err.shape).flat[worst]:.3e})")
    return problems


def check_run(workload, subcommand, out, rc, steps, iterations, compare_reference):
    """Problems found in one run's artifacts; an empty list means the run passed."""
    if rc != 0:
        return [f"exit code {rc}"]
    missing = [n for n in EXPECTED_FILES[subcommand] if not (out / n).is_file()]
    if missing:
        return [f"missing artifacts: {missing}"]
    reference = None
    if compare_reference or subcommand == "verify":
        reference = json.loads(reference_path(workload).read_text())
    try:
        if subcommand in ("simulate", "adjoint"):
            problems = _check_solve(out, steps, forward=subcommand == "simulate")
        elif subcommand == "optimize":
            problems = _check_optimize(out, steps, iterations)
        else:
            problems = _check_verify(out, list(reference))
        if compare_reference and not problems:
            problems = _compare(subcommand, extract(subcommand, out), reference)
    except (ValueError, KeyError, IndexError, TypeError, json.JSONDecodeError) as exc:
        problems = [f"unreadable artifact: {type(exc).__name__}: {exc}"]
    return problems
