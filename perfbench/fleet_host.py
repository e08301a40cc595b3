"""Fleet process of one benchmark pass: the router and one worker.

Usage (by :class:`perfbench.launcher.FleetProcess`)::

    python3 perfbench/fleet_host.py --workload mine --root <dir>

Generates the workload's corpus, ingests it into a one-worker
``TagDMFleet`` under ``<dir>``, starts the fleet and prints one JSON
line (``url``, ``worker_pid``, ``generate_s``).  It then serves until a
line arrives on standard input (or standard input closes), closes the
fleet -- which waits for the worker to exit -- and exits.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import sys
import time
from pathlib import Path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--root", required=True, type=Path)
    args = parser.parse_args(argv)

    from perfbench.workloads import CORPUS, WORKLOADS
    from repro.serving.fleet import TagDMFleet

    shape = WORKLOADS[args.workload].shape
    started = time.monotonic()
    dataset = shape.dataset()
    generate_s = time.monotonic() - started
    fleet = TagDMFleet(args.root, n_workers=1, **shape.fleet_options())
    try:
        fleet.add_corpus(CORPUS, dataset)
        fleet.start()
        (worker,) = multiprocessing.active_children()
        print(
            json.dumps({"url": fleet.url, "worker_pid": worker.pid, "generate_s": generate_s}),
            flush=True,
        )
        sys.stdin.readline()
    finally:
        fleet.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
