"""The benchmark still finds every layer it times, every config it runs parses and comes back
from its echo unchanged, and every workload run passes the benchmark's own checks; the alpha=0
steps keep their sweep count and take their fields once per block of step midpoints, verify
evaluates its snapshots and random samples once per block, and the runtime loads numpy alone,
with numpy.random only in verify."""

import importlib.util
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import numpy as np

from tdks import system, verify
from tdks.cli import emit_config, main, parse_config

E2EBENCH = Path(__file__).resolve().parents[1] / "e2ebench"
SRC = Path(__file__).resolve().parents[1] / "src"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"e2ebench_{name}", E2EBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_resolves():
    tracer = _load("tracer")
    installed = tracer.Tracer(tracer.LAYER_TARGETS).install()
    try:
        assert installed.absent == []
    finally:
        installed.uninstall()


@pytest.mark.parametrize("seed", [0, 1701])
@pytest.mark.parametrize("size", ["full", "tiny"])
def test_every_workload_config_parses(size, seed):
    workloads = _load("workloads")
    for name in workloads.WORKLOADS:
        config = parse_config(json.dumps(workloads.build_config(name, seed, size)))
        assert parse_config(emit_config(config)) == config


@pytest.mark.parametrize("name", _load("workloads").WORKLOADS)
def test_every_workload_passes_its_checks(tmp_path, name):
    # full size at the default seed, compared with the reference values to their tolerances
    workloads, checks = _load("workloads"), _load("checks")
    config = tmp_path / "config.json"
    config.write_text(json.dumps(workloads.build_config(name, workloads.DEFAULT_SEED)))
    subcommand, shape, out = workloads.subcommand(name), workloads.shape(name), tmp_path / "out"
    rc = main([subcommand, "--config", str(config), "--out", str(out), "--quiet"])
    problems = checks.check_run(
        name, subcommand, out, rc, shape.get("steps"), shape.get("iterations"),
        compare_reference=True,
    )
    assert problems == []


def test_fixed_point_sweeps_per_adjoint_step(tmp_path, monkeypatch):
    # every fixed-point evaluation projects once, so domain.project spans under an
    # adjoint step count the sweeps; the step fields come from frozen_fields once per
    # snapshot_blocks block of midpoints, between the steps, not once per sweep
    tracer, workloads = _load("tracer"), _load("workloads")
    calls, frozen_fields = [], system.frozen_fields

    def counted(ctx, lam):
        calls.append((time.perf_counter(), ctx.basis))
        return frozen_fields(ctx, lam)

    monkeypatch.setattr(system, "frozen_fields", counted)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(workloads.build_config("adj1d", workloads.DEFAULT_SEED, "tiny")))
    installed = tracer.Tracer(tracer.LAYER_TARGETS).install()
    try:
        assert main(["adjoint", "--config", str(config), "--out", str(tmp_path / "out"),
                     "--quiet"]) == 0
    finally:
        installed.uninstall()
    spans = installed.spans  # (name index, start, end, parent index), in call order
    names = [installed.names[s[0]] for s in spans]
    (solve,) = [i for i, name in enumerate(names) if name == "propagate.solve_adjoint"]
    steps = [i for i, name in enumerate(names) if name == "propagate.step" and spans[i][3] == solve]
    sweeps = [i for i, name in enumerate(names) if name == "domain.project" and spans[i][3] in steps]
    assert len(steps) == workloads.shape("adj1d", "tiny")["steps"]
    assert len(sweeps) / len(steps) == 11.0
    # from the start of the adjoint solve to the end of its last step
    during = [b for t, b in calls if spans[solve][1] < t < spans[steps[-1]][2]]
    assert 0 < len(during) <= len(system.snapshot_blocks(during[0], len(steps)))


def test_verify_evaluates_samples_in_blocks(tmp_path, monkeypatch):
    # the energy estimates (bilinear_B and the dual-norm monitor's rhs) and the form
    # bounds (bilinear_B, adjoint_D) take their stored snapshots and drawn pairs as
    # stacks, one call per snapshot_blocks block; so do the pair probes
    # (hartree_pair_difference, nonlinear_G).  The frozen fields are evaluated once
    # per distinct time of each reader.
    calls, frozen_items, frozen_fields = {}, [], system.frozen_fields

    def counter(name, operator):
        def counted(ctx_or_basis, *args):
            basis = getattr(ctx_or_basis, "basis", ctx_or_basis)
            # the forms' stage_fields stack is a tuple, whose np.ndim raises
            sizes = [len(a) for a in args if not isinstance(a, tuple) and np.ndim(a) == 3]
            calls.setdefault(name, []).append((basis, sizes))
            return operator(ctx_or_basis, *args)

        return counted

    def counted_fields(ctx, lam):
        frozen_items.append(len(lam))
        return frozen_fields(ctx, lam)

    for name in ("rhs", "bilinear_B", "adjoint_D", "hartree_pair_difference", "nonlinear_G"):
        monkeypatch.setattr(verify, name, counter(name, getattr(verify, name)))
    monkeypatch.setattr(system, "frozen_fields", counted_fields)
    assert main(["verify", "--out", str(tmp_path / "out"), "--quiet"]) == 0

    basis = calls["rhs"][0][0]
    steps = parse_config("{}")["domain"]["steps"]

    def blocks(count):
        return len(system.snapshot_blocks(basis, count))

    # every call takes stacks, whose items add up to the snapshots or samples
    assert all(sizes and len(set(sizes)) == 1 for c in calls.values() for _, sizes in c)
    # the forward and the adjoint solve, steps + 1 snapshots each
    assert len(calls["rhs"]) == 2 * blocks(steps + 1)
    assert sum(sizes[0] for _, sizes in calls["rhs"]) == 2 * (steps + 1)
    # B(psi, psi) of both solves' snapshots; then 100 pairs in each context, two forms
    # each, and the coupling form for alpha=0
    assert len(calls["bilinear_B"]) == 2 * blocks(steps + 1) + 2 * 2 * blocks(100)
    assert len(calls["adjoint_D"]) == blocks(100)
    # the adjoint solve's step midpoints, its stored forward states in its constants
    # and in its energy estimates, and the one time of its form bounds
    assert sum(frozen_items) == steps + 2 * (steps + 1) + 1 == 1203
    # the Hartree pair probe: 2 x 50 pairs, then 40 in each energy check and in gronwall
    assert len(calls["hartree_pair_difference"]) == blocks(100) + 3 * blocks(40)
    # the coefficient probe: 2 x 100 pairs, then 100 on the wider ball, two G calls each
    assert len(calls["nonlinear_G"]) == 2 * (blocks(200) + blocks(100))


def test_verify_solves_the_gronwall_perturbations_as_one_stack(tmp_path):
    # the base solve, which also serves the middle Galerkin rung ([8] of [[4], [8], [12]],
    # from the same lowest_modes start), the two other rungs and one stacked solve of
    # gronwall's four perturbed starts make 4 forward solves; with the adjoint, 5 solves of
    # 400 steps each.  The two integrable Coulomb powers share one walk of the ball's cells,
    # and the divergence probe walks its five resolutions: 6 walks
    tracer = _load("tracer")
    installed = tracer.Tracer(tracer.LAYER_TARGETS + ("verify._ball_quadrature",)).install()
    try:
        assert main(["verify", "--out", str(tmp_path / "out"), "--quiet", "--seed", "0"]) == 0
    finally:
        installed.uninstall()
    spans = installed.spans  # (name index, start, end, parent index), in call order
    names = [installed.names[s[0]] for s in spans]
    steps = parse_config("{}")["domain"]["steps"]
    solves = [i for i, name in enumerate(names) if name == "propagate.solve_forward"]
    (gronwall,) = [i for i, name in enumerate(names) if name == "verify.check_uniqueness_gronwall"]
    assert len(solves) == 4
    assert names.count("propagate.step") == 5 * steps == 2000
    assert len([i for i in solves if spans[i][3] == gronwall]) == 1
    assert names.count("verify._ball_quadrature") == 6


_IMPORT_SURFACE = """
import json, sys
from tdks import cli

def loaded():
    return {m for m in sys.modules if m.split(".")[0] in ("numpy", "scipy")}

surface = {"at_import": sorted(loaded())}
configs = json.loads(sys.argv[1])
for subcommand, out, config in [*configs, ("converge", "converge", {}), ("verify", "verify", {})]:
    before = loaded()
    status = cli.run(cli.parse_config(json.dumps(config)), subcommand, out, quiet=True)
    surface[subcommand] = {"status": status, "later": sorted(loaded() - before)}
print(json.dumps(surface))
"""


def test_the_runtime_loads_numpy_alone(tmp_path):
    # in a fresh process, since this one has scipy and numpy.random loaded for the test
    # oracles: importing the CLI loads numpy.fft (which numpy 2 loads on first use) and no
    # scipy or numpy.random, so simulate, adjoint, optimize and converge load no numpy
    # module while they run, and verify, the one run that draws, loads numpy.random alone;
    # run, not main, since argparse loads modules of its own on first use
    workloads = _load("workloads")
    configs = [
        (workloads.subcommand(name), name,
         workloads.build_config(name, workloads.DEFAULT_SEED, "tiny"))
        for name in ("fwd3d", "adj1d", "opt2d")
    ]
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_SURFACE, json.dumps(configs)],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, check=True,
    )
    surface = json.loads(proc.stdout)
    at_import = surface.pop("at_import")
    assert "numpy.fft" in at_import
    assert [m for m in at_import if m.startswith(("scipy", "numpy.random"))] == []
    verify_run = surface.pop("verify")
    assert verify_run["status"] == 0
    assert [m for m in verify_run["later"] if not m.startswith("numpy.random.")] == [
        "numpy.random"
    ]
    assert surface == {
        name: {"status": 0, "later": []}
        for name in ("simulate", "adjoint", "optimize", "converge")
    }
