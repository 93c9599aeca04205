"""The benchmark still finds every layer it times and every config it runs parses."""

import importlib.util
import json
from pathlib import Path

import pytest

from tdks.cli import parse_config

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
