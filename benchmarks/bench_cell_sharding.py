"""Cell-sharding benchmark: serial vs intra-cell sharded exploration.

For each (subject, technique) the script runs the exploration twice —
serial and sharded over ``--shards`` worker processes — asserts the
**stats-identity contract** (DESIGN.md §13), and records wall-clock for
both.  Results land in ``BENCH_parallel.json``.

The identity gate per technique family:

- **DFS / IPB / IDB**: the sharded run must produce ``as_dict()`` stats
  byte-identical to the *classic serial* explorer — sharding is pure work
  distribution over an exact disjoint partition of the search tree.
- **Rand / PCT**: ``shards >= 2`` switches to the index-seeded random
  stream (a different experiment than the classic shared-RNG stream, by
  design — see ``StudyConfig.cell_shards``), so the baseline is the
  *inline* execution of the very same plan: same per-index seeds, same
  shard ranges, run sequentially in-process with no pool.  Pooled and
  inline must merge byte-identically.

Subjects are the five exhaustive ``fixed.*`` twins (bug-free, so the
systematic techniques drain their whole space — the heavy-cell shape that
motivates intra-cell sharding).

Speedup is recorded, not gated: it is a property of the host (see
``summary.cores``).  On a multi-core box expect the sharded wall-clock to
win on the heavy subjects; on a 1-core container the pool only adds
overhead and the serial/sharded ratio documents that honestly.

Run:  PYTHONPATH=src python benchmarks/bench_cell_sharding.py
      [--shards N] [--limit N] [--rand-limit N] [--out BENCH_parallel.json]
      [--subjects a,b,...] [--techniques DFS,IPB,IDB,Rand,PCT]

Exit status is non-zero when any stats-identity check fails — that (not
timing) is what the CI perf-smoke job enforces.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from repro.core import (
    DFSExplorer,
    PCTExplorer,
    RandomExplorer,
    make_idb,
    make_ipb,
)
from repro.sctbench.fixed import (
    make_account_fixed,
    make_counter_fixed,
    make_ctrace_fixed,
    make_reorder_fixed,
    make_stack_fixed,
)

#: The five exhaustive fixed twins (all complete their schedule space).
SUBJECTS = {
    "fixed.account": make_account_fixed,
    "fixed.counter": make_counter_fixed,
    "fixed.stack": make_stack_fixed,
    "fixed.ctrace": make_ctrace_fixed,
    "fixed.reorder": make_reorder_fixed,
}

SYSTEMATIC = ("DFS", "IPB", "IDB")
RANDOMIZED = ("Rand", "PCT")
TECHNIQUES = SYSTEMATIC + RANDOMIZED

RAND_SEED = 42


def _make(technique: str, **kwargs):
    if technique == "DFS":
        return DFSExplorer(**kwargs)
    if technique == "IPB":
        return make_ipb(**kwargs)
    if technique == "IDB":
        return make_idb(**kwargs)
    if technique == "Rand":
        return RandomExplorer(seed=RAND_SEED, **kwargs)
    if technique == "PCT":
        return PCTExplorer(seed=RAND_SEED, **kwargs)
    raise KeyError(technique)


def run_cell(name: str, factory, technique: str, limit: int, shards: int) -> dict:
    if technique in SYSTEMATIC:
        # Baseline: the classic serial explorer (identical output).
        t0 = time.perf_counter()
        baseline = _make(technique).explore(factory(), limit)
        t1 = time.perf_counter()
        sharded = _make(
            technique, shards=shards, program_source=factory
        ).explore(factory(), limit)
        t2 = time.perf_counter()
        baseline_kind = "serial"
    else:
        # Baseline: the same index-seeded plan executed inline (no pool).
        t0 = time.perf_counter()
        baseline = _make(technique, shards=shards).explore(factory(), limit)
        t1 = time.perf_counter()
        sharded = _make(
            technique, shards=shards, program_source=factory
        ).explore(factory(), limit)
        t2 = time.perf_counter()
        baseline_kind = "inline"
    serial_s, sharded_s = t1 - t0, t2 - t1
    return {
        "subject": name,
        "technique": technique,
        "limit": limit,
        "shards": shards,
        "baseline_kind": baseline_kind,
        "stats_identical": baseline.as_dict() == sharded.as_dict(),
        "schedules": sharded.schedules,
        "completed": sharded.completed,
        "serial_seconds": round(serial_s, 4),
        "sharded_seconds": round(sharded_s, 4),
        "speedup": round(serial_s / max(sharded_s, 1e-9), 3),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--shards", type=int, default=4)
    parser.add_argument(
        "--limit", type=int, default=20_000,
        help="schedule limit for the systematic techniques",
    )
    parser.add_argument(
        "--rand-limit", type=int, default=4_000,
        help="execution count for Rand/PCT (they never complete)",
    )
    parser.add_argument("--out", default="BENCH_parallel.json")
    parser.add_argument(
        "--subjects", default=",".join(SUBJECTS),
        help="comma-separated subset of: " + ", ".join(SUBJECTS),
    )
    parser.add_argument("--techniques", default=",".join(TECHNIQUES))
    args = parser.parse_args(argv)

    cells = []
    failures = []
    for name in args.subjects.split(","):
        factory = SUBJECTS[name.strip()]
        for technique in args.techniques.split(","):
            technique = technique.strip()
            limit = args.limit if technique in SYSTEMATIC else args.rand_limit
            cell = run_cell(name.strip(), factory, technique, limit, args.shards)
            cells.append(cell)
            tag = f"{cell['subject']} {cell['technique']}"
            print(
                f"{tag:24s} schedules={cell['schedules']:>6} "
                f"{cell['baseline_kind']} {cell['serial_seconds']:>8.3f}s -> "
                f"sharded {cell['sharded_seconds']:>8.3f}s "
                f"(x{cell['speedup']:.2f}) "
                f"{'OK' if cell['stats_identical'] else 'DIVERGED'}"
            )
            if not cell["stats_identical"]:
                failures.append(f"{tag}: as_dict() diverged serial vs sharded")

    speedups = [c["speedup"] for c in cells]
    payload = {
        "bench": "cell_sharding",
        "shards": args.shards,
        "cores": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "cells": cells,
        "summary": {
            "subjects": len({c["subject"] for c in cells}),
            "all_stats_identical": all(c["stats_identical"] for c in cells),
            "min_speedup": min(speedups, default=None),
            "max_speedup": max(speedups, default=None),
        },
    }
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")
    print(f"\nwrote {args.out} (cores={payload['cores']})")
    if failures:
        for msg in failures:
            print(f"FAIL: {msg}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
