"""One benchmark run in a fresh process: a single ``tdks.cli.main`` call.

Usage (started by run.py, one process per run):
    python child.py --src SRC --result RESULT.json -- <tdks CLI arguments>

Imports happen before the clock starts.  The set-up calls are always timed
(for ``setup_s``); with ``--trace`` every layer target is traced and the
spans are written next to the result.  The result JSON holds the exit code,
any exception, the wall time of the call, set-up time, peak RSS and, when
traced, the per-layer summary.
"""

import argparse
import json
import resource
import sys
import time
from pathlib import Path


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", type=Path, default=None)
    parser.add_argument("--run-id", default="0")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    src = args.src.resolve()
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import tdks  # noqa: F401  (imports every submodule before tracing)
    from tdks import cli
    from tracer import LAYER_TARGETS, MEMORY_TARGETS, SETUP_TARGETS, Tracer

    if not Path(tdks.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"tdks imported from {tdks.__file__}, not from {src}")

    if args.trace:
        tracer = Tracer(LAYER_TARGETS, MEMORY_TARGETS).install()
    else:
        tracer = Tracer(SETUP_TARGETS).install()

    error = None
    start = time.perf_counter()
    try:
        rc = cli.main(cli_args)
    except Exception as exc:  # the run failed; record it and report
        rc, error = None, f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - start
    tracer.uninstall()

    result = {
        "rc": rc,
        "error": error,
        "wall_s": wall,
        "setup_s": tracer.setup_seconds(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "absent": tracer.absent,
    }
    if args.trace:
        result.update(tracer.summary())
        if args.spans is not None:
            tracer.write_spans(args.spans, args.run_id)
    args.result.write_text(json.dumps(result))


if __name__ == "__main__":
    main()
