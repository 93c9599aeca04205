"""The benchmark still finds every layer it times, every config it runs parses, and every
workload run passes the benchmark's own checks."""

import importlib.util
import json
from pathlib import Path

import pytest

from tdks.cli import main, parse_config

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
        parse_config(json.dumps(workloads.build_config(name, seed, size)))


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
