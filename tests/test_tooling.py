"""The benchmark tracer still finds every layer it times."""

import importlib.util
from pathlib import Path

TRACER_PATH = Path(__file__).resolve().parents[1] / "e2ebench" / "tracer.py"


def test_every_traced_layer_resolves():
    spec = importlib.util.spec_from_file_location("e2ebench_tracer", TRACER_PATH)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    installed = tracer.Tracer(tracer.LAYER_TARGETS).install()
    try:
        assert installed.absent == []
    finally:
        installed.uninstall()
