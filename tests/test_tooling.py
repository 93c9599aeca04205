"""The benchmark still finds every layer it times, every config it runs parses and comes back
from its echo unchanged, and every workload run passes the benchmark's own checks; the alpha=0
steps keep their sweep count and take their fields once per block of step midpoints, and verify
evaluates its snapshots and random samples once per block."""

import importlib.util
import json
import time
from pathlib import Path

import pytest

import numpy as np

from tdks import system, verify
from tdks.cli import emit_config, main, parse_config

E2EBENCH = Path(__file__).resolve().parents[1] / "e2ebench"


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
    # the dual-norm monitor (rhs) and the form bounds (bilinear_B, adjoint_D) take
    # their stored snapshots and drawn pairs as stacks, one call per snapshot_blocks
    # block; so do the pair probes (hartree_pair_difference, nonlinear_G)
    calls = {}

    def counter(name, operator):
        def counted(ctx_or_basis, *args):
            basis = getattr(ctx_or_basis, "basis", ctx_or_basis)
            sizes = [len(a) for a in args if np.ndim(a) == 3]
            calls.setdefault(name, []).append((basis, sizes))
            return operator(ctx_or_basis, *args)

        return counted

    for name in ("rhs", "bilinear_B", "adjoint_D", "hartree_pair_difference", "nonlinear_G"):
        monkeypatch.setattr(verify, name, counter(name, getattr(verify, name)))
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
    # 100 pairs in each context, two forms each, and the coupling form for alpha=0
    assert len(calls["bilinear_B"]) == 2 * 2 * blocks(100)
    assert len(calls["adjoint_D"]) == blocks(100)
    # the Hartree pair probe: 2 x 50 pairs, then 40 in each energy check and in gronwall
    assert len(calls["hartree_pair_difference"]) == blocks(100) + 3 * blocks(40)
    # the coefficient probe: 2 x 100 pairs, then 100 on the wider ball, two G calls each
    assert len(calls["nonlinear_G"]) == 2 * (blocks(200) + blocks(100))


def test_verify_solves_the_gronwall_perturbations_as_one_stack(tmp_path):
    # the base solve, the three Galerkin rungs and one stacked solve of gronwall's
    # four perturbed starts make 5 forward solves; with the adjoint, 6 solves of
    # 400 steps each
    tracer = _load("tracer")
    installed = tracer.Tracer(tracer.LAYER_TARGETS).install()
    try:
        assert main(["verify", "--out", str(tmp_path / "out"), "--quiet", "--seed", "0"]) == 0
    finally:
        installed.uninstall()
    spans = installed.spans  # (name index, start, end, parent index), in call order
    names = [installed.names[s[0]] for s in spans]
    steps = parse_config("{}")["domain"]["steps"]
    solves = [i for i, name in enumerate(names) if name == "propagate.solve_forward"]
    (gronwall,) = [i for i, name in enumerate(names) if name == "verify.check_uniqueness_gronwall"]
    assert len(solves) == 5
    assert names.count("propagate.step") == 6 * steps == 2400
    assert len([i for i in solves if spans[i][3] == gronwall]) == 1
