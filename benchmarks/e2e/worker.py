"""One repeat of one workload in a fresh interpreter (launched by run.py).

Protocol on standard output: ``READY`` once imports are done and the
inputs are built (the parent times interpreter start to this line as
``setup_s``), then, unless ``--setup-only``, one JSON line with the
repeat's raw measurements, exact counts and check failures.  ``run.py``
turns the times into reference seconds (``speed.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

import workloads


def _cpu_and_rss():
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime
    return cpu, max(me.ru_maxrss, kids.ru_maxrss) / 1024.0  # KiB -> MiB


def measure(workload, inputs: dict, seed: int):
    """Run, measure and check one repeat: ``(measurements, raw, cells)``.

    This process becomes a subreaper first, so that CPU time and peak RSS
    cover every descendant, orphaned snapshot holders included.  Times
    are raw seconds; ``start``/``end`` and the start of each timed run
    of a cell are ``time.time()`` stamps, for the speed probes.
    """
    try:
        workloads.become_subreaper()
        cpu0, _ = _cpu_and_rss()
        start = time.time()
        t0 = time.perf_counter()
        raw = workload.run(inputs)
        wall = time.perf_counter() - t0
        end = time.time()
        workloads.reap_children()
        cpu1, rss = _cpu_and_rss()
        workload.retime(inputs, raw)
        cells = workload.cells(inputs, raw)
        failures = workload.check(inputs, raw, cells, workloads.load_golden(),
                                  seed)
    finally:
        workload.cleanup(inputs)
    return {
        "wall_s": wall,
        "cpu_s": cpu1 - cpu0,
        "peak_rss_mb": rss,
        "start": start,
        "end": end,
        "cells": [c["runs"] for c in cells],
        "jobs": inputs.get("jobs", 1),
        "counts": workloads.exact_counts(cells),
        "attempted": len(cells),
        "failures": failures,
    }, raw, cells


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--serial", action="store_true",
                        help="the traced run's configuration (jobs=1)")
    parser.add_argument("--cpu", type=int, default=None,
                        help="run pinned to this vCPU")
    args = parser.parse_args(argv)

    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})
    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.setup(args.seed, serial=args.serial)
    print("READY", flush=True)
    if args.setup_only:
        workload.cleanup(inputs)
        return 0
    result, _, _ = measure(workload, inputs, args.seed)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
