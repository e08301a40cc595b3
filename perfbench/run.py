"""Run one benchmark workload against freshly launched TagDM fleets.

Usage, from the repository root::

    python3 perfbench/run.py --workload mine --seed 1 --seconds 20 --trace 0

``--trace 0`` launches the fleet three times (``setup_s`` is the median
launch-to-first-response time), drives the workload on the last launch
for ``--seconds``, checks every output, and reports the end-to-end
metrics (plus, not in the JSON, the wall-clock latency figures).  ``--trace 1`` runs the workload twice, untraced and then with
span wrappers installed in the router and worker processes, and
reports the per-layer metrics (including the tracing overhead).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A run with
fewer than 200 samples of a timed operation, or whose open-loop
generator fell behind, is invalid: it prints why and exits with code 3
instead of reporting numbers.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

CHECKOUT = Path(__file__).resolve().parent.parent
SETUP_LAUNCHES = 3
EXIT_INVALID = 3


# The functions below import lazily: main() puts the sources on the path.
def setup_only(workload, seed: int, root: Path) -> float:
    """One launch up to its first response; returns ``setup_s``."""
    from perfbench.launcher import FleetProcess
    from perfbench.workloads import setup_probe
    from repro.api.client import HttpClient

    inputs = workload.make_inputs(seed)
    with FleetProcess(CHECKOUT, workload.name, root) as fleet:
        client = HttpClient(fleet.url, pool_size=2)
        try:
            return fleet.setup_seconds(setup_probe(client, inputs))
        finally:
            client.close()


def run_pass(workload, seed: int, seconds: float, root: Path, trace_dir=None):
    """Launch, drive and check one pass of the workload."""
    from perfbench.launcher import FleetProcess
    from perfbench.workloads import Outcome, setup_probe
    from repro.api.client import HttpClient

    inputs = workload.make_inputs(seed)
    outcome = Outcome(workload.name)
    with FleetProcess(CHECKOUT, workload.name, root, trace_dir) as fleet:
        client = HttpClient(fleet.url, pool_size=2)
        try:
            outcome.setup_s = fleet.setup_seconds(setup_probe(client, inputs))
            workload.drive(fleet, client, inputs, seconds, outcome)
        finally:
            client.close()
    return outcome


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one TagDM benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
    if not (CHECKOUT / "src" / "repro").is_dir():
        print(f"no TagDM sources under {CHECKOUT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(CHECKOUT / "src"), str(CHECKOUT)]

    from perfbench import report, tracing
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work_dir = CHECKOUT / ".perfbench_runs" / str(os.getpid())
    try:
        if args.trace:
            untraced = run_pass(workload, args.seed, args.seconds, work_dir / "untraced")
            trace_dir = work_dir / "spans"
            trace_dir.mkdir(parents=True)
            traced = run_pass(workload, args.seed, args.seconds, work_dir / "traced", trace_dir)
            passes = [untraced, traced]
            if not untraced.invalid and not traced.invalid:
                metrics = report.per_layer(workload, untraced, traced, tracing.load_dumps(trace_dir))
        else:
            setups = [
                setup_only(workload, args.seed, work_dir / f"setup-{index}")
                for index in range(SETUP_LAUNCHES - 1)
            ]
            outcome = run_pass(workload, args.seed, args.seconds, work_dir / "run")
            passes = [outcome]
            if not outcome.invalid:
                metrics = report.end_to_end(outcome, setups + [outcome.setup_s])
                figures = report.wall_clock_metrics(outcome)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass

    invalid = [reason for outcome in passes for reason in outcome.invalid]
    if invalid:
        for reason in invalid:
            print(f"INVALID: {reason}")
        return EXIT_INVALID
    failures = [failure for outcome in passes for failure in outcome.failures]
    attempted = max(1, sum(outcome.attempted for outcome in passes))
    print(f"workload {workload.name} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    for line in report.format_lines(metrics):
        print(line)
    if not args.trace:
        print("wall-clock figures (reported per layer by --trace 1, not gated):")
        for line in report.format_lines(figures):
            print(line)
    for failure in failures[:20]:
        print(f"FAILED: {failure}")
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": min(len(failures), attempted),
                "metrics": {
                    name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
