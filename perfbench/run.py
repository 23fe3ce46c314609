"""Run one benchmark workload and print its metrics.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload {study,store,fleet,all} \\
        [--seed N] [--seconds S] [--trace 0|1] [--trace-seed 2018]

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace
0`` the metrics are the end-to-end metrics of ``BENCHMARK.json``; with
``--trace 1`` the run adds a traced pass and reports the per-layer
metrics, the per-layer self-time table and the tracing overhead.  The
exit code is 1 when a correctness check fails.

``--workload all`` runs the three workloads one after another, each in
its own child process, and prints every metric of each.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAMES = ("study", "store", "fleet")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0,
                        help="run seed: seeds the models the workload fits")
    parser.add_argument("--seconds", type=float, default=5.0,
                        help="measuring budget; batch workloads repeat passes "
                        "until it is spent (at least one pass)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-seed", type=int, default=2018,
                        help="seed of the simulated trace every workload runs on")
    return parser.parse_args(argv)


def run_all(args) -> int:
    status = 0
    for name in NAMES:
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--trace-seed", str(args.trace_seed),
        ]
        print(f"== {name}", flush=True)
        child = subprocess.run(command, cwd=ROOT)
        status = status or child.returncode
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    # Workloads run single-threaded: pin the BLAS pools before numpy loads.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads
    from speedprobe import SpeedProbe

    run = workloads.WORKLOADS[args.workload]
    if args.trace:
        # No probe here: its handler would land inside the spans.
        result = run(args.trace_seed, args.seed, args.seconds, True)
        units = workloads.LAYER_METRICS
        values = {name: result.layers.get(name, 0.0) for name in units}
    else:
        with SpeedProbe() as probe:
            result = run(args.trace_seed, args.seed, args.seconds, False)
        result.at_reference_speed(probe)
        units, values = workloads.E2E_UNITS, result.e2e
    for line in result.lines:
        print(line)
    for name, ok, detail in result.checks:
        print(f"check {'ok  ' if ok else 'FAIL'} {name}{(': ' + detail) if detail else ''}")
    for name, unit in units.items():
        count = "" if args.trace else f" (n={result.counts[name]})"
        print(f"metric {name} = {values[name]:.6g} {unit}{count}")
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0 if result.correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
