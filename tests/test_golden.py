"""Every artifact of one small run of each benchmark workload keeps its exact bytes.

fwd3d, adj1d and opt2d run at the benchmark's tiny size and verify at its
default config, all at seed 0, through ``tdks.cli.main``.  The sha256 of every
file a run writes is compared with the digests in ``golden.json``, so a 1-ulp
drift anywhere in the numbers fails the test, which names every file whose
digest moved.  The digests hold for the numpy, BLAS and BLAS thread count
recorded next to them; on another stack the test fails and says which differs.

A change that moves an artifact on purpose retakes the digests, from the
repository root, with

    PYTHONPATH=src python tests/test_golden.py

and lists every moved artifact, and why it moved, in CHANGES.md.
"""

import hashlib
import importlib.util
import json
import sys
import tempfile
from pathlib import Path

from tdks.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).with_name("golden.json")
RUNS = {"fwd3d": "tiny", "adj1d": "tiny", "opt2d": "tiny", "verify": "full"}
SEED = 0


def _load(name):
    path = ROOT / "e2ebench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"e2ebench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def environment():
    """The numpy, BLAS and BLAS thread count the artifacts' bytes depend on."""
    record = _load("run").machine_record()
    return {key: record[key] for key in ("numpy", "blas", "blas_threads")}


def digests(work):
    """sha256 of every artifact of the runs, keyed "<workload>/<file>"."""
    workloads = _load("workloads")
    out = {}
    for name, size in RUNS.items():
        config = work / f"{name}.json"
        config.write_text(json.dumps(workloads.build_config(name, SEED, size)))
        run_dir = work / name
        rc = main([workloads.subcommand(name), "--config", str(config), "--out", str(run_dir),
                   "--quiet"])
        assert rc == 0, f"{name} exited with {rc}"
        for path in sorted(run_dir.iterdir()):
            out[f"{name}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def test_every_artifact_keeps_its_bytes(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    found = digests(tmp_path)
    problems = []
    here = environment()
    if here != golden["environment"]:
        problems.append(
            f"the digests were taken on {golden['environment']}, but this machine has {here}; "
            "they hold only on the stack they were taken on"
        )
    want = golden["digests"]
    moved = sorted(n for n in want.keys() | found.keys() if want.get(n) != found.get(n))
    if moved:
        problems.append(f"{len(moved)} artifact(s) moved: {', '.join(moved)}")
    assert not problems, "; ".join(problems)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        golden = {"environment": environment(), "digests": digests(Path(work))}
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(golden['digests'])} digests to {GOLDEN}", file=sys.stderr)
