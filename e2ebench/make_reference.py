"""Regenerate reference/<workload>.json from the default seed at full size.

Usage, from the repository root:
    python3 e2ebench/make_reference.py [workload ...]

The first run of each workload writes the reference; the following runs of
the same invocation (fresh processes) are checked against it, so a workload
whose output is not reproducible fails here.
"""

import sys

import checks
import run
import workloads


def main(argv):
    names = argv or list(workloads.WORKLOADS)
    status = 0
    for workload in names:
        written = []

        def write_once(out, workload=workload):
            if not written:
                checks.write_reference(workload, workloads.subcommand(workload), out)
                written.append(out)

        runs, _ = run.measure(workload, workloads.DEFAULT_SEED, 0.0, False, after_run=write_once)
        failed = [r for r in runs if r["problems"]]
        print(f"{workload}: reference written, {len(runs) - len(failed)}/{len(runs)} runs agree")
        for r in failed:
            print(f"  run {r['index']}: {'; '.join(r['problems'])}")
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
