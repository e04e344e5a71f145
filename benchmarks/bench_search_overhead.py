"""Search-overhead benchmark: replay elimination across four layers.

Four sections, all landing in ``BENCH_search.json``:

**frontier** — restart-per-bound vs frontier resumption.  For each
subject the script runs iterative bounding twice — the classic restart
search (the oracle in ``tests/oracles.py``) and the production
frontier-resuming search — asserts their ``as_dict()`` stats are
byte-identical, and records executions, visible steps, replayed steps,
saved executions and wall-clock for both.  Subjects are chosen so both regimes show up:

- the *exhaustive* group (fixed twins of sctbench programs — bug-free, so
  iterative bounding drains the whole space through final bounds 3-8):
  here restart re-execution dominates and frontier resumption must cut
  ``executions`` by >= 2x (enforced unless ``--no-check``);
- the *limit-hit* control (``chess.WSQ``): the schedule limit lands inside
  bound 2, the final bound dominates, and the saving is structurally small
  — recorded to keep the report honest, not subject to the 2x floor.

**snapshots** — end-to-end wall clock of fork-based COW prefix snapshots
(``snapshots=True``, :mod:`repro.engine.snapshot`) on the deep-prelude
account twin, whose schedule tree hangs below a ~768-step single-threaded
warm-up with real per-step computation.  Exhaustive DFS re-walks that
prefix once per schedule; snapshots resume forked live images instead and
must cut wall-clock by >= 2x with byte-identical stats (enforced unless
``--no-check``).

**frontier_snapshots** — the same deep-prelude subject under iterative
bounding (IPB and IDB).  This used to be the honest ~1.0x control row:
the frontier backend re-rooted every bound-``c+1`` subtree from step 0,
so snapshots only removed intra-subtree replay.  Cross-bound parked
holders close that gap — bound-pruned frontier entries keep a live COW
image and later bounds resume from it with zero prefix replay — so both
techniques are now gated: wall-clock ratio >= 2x, byte-identical stats,
and ``replayed_steps`` driven to (near) zero with the eliminated share
accounted as ``snapshot_restored_steps`` (enforced unless
``--no-check``).

**vclock** — the batched (SWAR-packed big-int)
:class:`~repro.racedetect.vectorclock.VectorClock` vs the sparse
``DictVectorClock`` reference (``tests/oracles.py``) on a FastTrack-shaped
operation mix
(tick, release copy, lock/acquire joins, epoch check) at 8 and 32
threads.  Identical final clock states required; floors: within noise of
the dict at 8 threads (>= 0.7x), clearly ahead at 32 (>= 1.2x) — the
batching win grows with thread count.

Run:  PYTHONPATH=src python benchmarks/bench_search_overhead.py
      [--limit N] [--out BENCH_search.json] [--subjects a,b,...]
      [--techniques IPB,IDB]
      [--sections frontier,snapshots,frontier_snapshots,vclock]
      [--no-check]

Exit status is non-zero when any equivalence check fails or a gated
section misses its floor.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.core import DFSExplorer, make_idb, make_ipb
from repro.engine import snapshot as snapshot_mod
from repro.racedetect.vectorclock import VectorClock
from repro.sctbench import get as get_benchmark
from repro.sctbench.fixed import (
    make_account_fixed,
    make_counter_fixed,
    make_ctrace_fixed,
    make_prelude_fixed,
    make_reorder_fixed,
    make_stack_fixed,
)

# The restart search and the dict clock are test oracles, not src/ code.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from tests.oracles import (  # noqa: E402
    DictVectorClock,
    make_restart_idb,
    make_restart_ipb,
)

#: name -> (factory, exhaustive?).  Exhaustive subjects complete their
#: whole schedule space below the limit, at a final bound >= 2.
SUBJECTS = {
    "fixed.account": (make_account_fixed, True),
    "fixed.counter": (make_counter_fixed, True),
    "fixed.stack": (make_stack_fixed, True),
    "fixed.ctrace": (make_ctrace_fixed, True),
    "fixed.reorder": (make_reorder_fixed, True),
    "chess.WSQ": (lambda: get_benchmark("chess.WSQ").make(), False),
}

#: technique -> (production maker, restart oracle maker).
MAKERS = {
    "IPB": (make_ipb, make_restart_ipb),
    "IDB": (make_idb, make_restart_idb),
}


def run_cell(name: str, factory, technique: str, limit: int) -> dict:
    make, make_restart = MAKERS[technique]
    t0 = time.perf_counter()
    naive = make_restart(counters=True).explore(factory(), limit)
    t1 = time.perf_counter()
    frontier = make(counters=True).explore(factory(), limit)
    t2 = time.perf_counter()
    ratio = naive.executions / max(1, frontier.executions)
    return {
        "subject": name,
        "technique": technique,
        "limit": limit,
        "stats_identical": naive.as_dict() == frontier.as_dict(),
        "final_bound": frontier.bound,
        "completed": frontier.completed,
        "schedules": frontier.schedules,
        "naive": {
            "executions": naive.executions,
            "counters": naive.counters.to_payload(),
            "seconds": round(t1 - t0, 4),
        },
        "frontier": {
            "executions": frontier.executions,
            "counters": frontier.counters.to_payload(),
            "seconds": round(t2 - t1, 4),
        },
        "execution_ratio": round(ratio, 3),
    }


#: Snapshot end-to-end subjects: (technique, gated?).  DFS is the headline
#: single-tree case — snapshots eliminate *all* prefix replay.
SNAPSHOT_TECHNIQUES = (("DFS", True),)

#: Iterative-bounding subjects for the cross-bound holder path; both are
#: gated now that frontier entries resume from parked live images.
FRONTIER_SNAPSHOT_TECHNIQUES = (("IPB", True), ("IDB", True))


def run_snapshot_cell(technique: str, gated: bool, limit: int) -> dict:
    """Serial vs ``snapshots=True`` wall clock on the deep-prelude twin."""
    factory = make_prelude_fixed
    makers = {
        "DFS": lambda **kw: DFSExplorer(max_steps=4000, counters=True, **kw),
        "IPB": lambda **kw: make_ipb(max_steps=4000, counters=True, **kw),
        "IDB": lambda **kw: make_idb(max_steps=4000, counters=True, **kw),
    }
    make = makers[technique]
    t0 = time.perf_counter()
    serial = make().explore(factory(), limit)
    t1 = time.perf_counter()
    snapped = make(snapshots=True).explore(factory(), limit)
    t2 = time.perf_counter()
    serial_s, snap_s = t1 - t0, t2 - t1
    return {
        "subject": "fixed.prelude",
        "technique": technique,
        "limit": limit,
        "gated": gated,
        "stats_identical": serial.as_dict() == snapped.as_dict(),
        "schedules": snapped.schedules,
        "completed": snapped.completed,
        "serial": {
            "seconds": round(serial_s, 4),
            "counters": serial.counters.to_payload(),
        },
        "snapshots": {
            "seconds": round(snap_s, 4),
            "counters": snapped.counters.to_payload(),
        },
        "wall_clock_ratio": round(serial_s / max(1e-9, snap_s), 3),
    }


def _vclock_workload(clock_cls, threads: int, iters: int = 40_000) -> tuple:
    """A FastTrack-shaped hot loop: per iteration one thread ticks,
    releases a lock (clock copy + join into the lock clock), the next
    thread acquires (join), and runs the epoch fast-path check — the
    detector's per-step op mix, minus the executor around it."""
    tclocks = [clock_cls({t: 1}) for t in range(threads)]
    lock = clock_cls()
    t0 = time.perf_counter()
    for i in range(iters):
        t = i % threads
        vc = tclocks[t]
        vc.tick(t)
        lock.join(vc)
        released = vc.copy()
        nxt = tclocks[(t + 1) % threads]
        nxt.join(released)
        nxt.covers_epoch(vc.epoch(t))
    seconds = time.perf_counter() - t0
    state = [dict(c.items()) for c in tclocks] + [dict(lock.items())]
    return seconds, state


def run_vclock_cell() -> dict:
    """Packed big-int clock vs the dict reference on the FastTrack mix."""
    cell: dict = {"workload": "fasttrack-mix", "threads": {}}
    identical = True
    for threads in (8, 32):
        dict_s, dict_state = _vclock_workload(DictVectorClock, threads)
        packed_s, packed_state = _vclock_workload(VectorClock, threads)
        identical = identical and dict_state == packed_state
        cell["threads"][str(threads)] = {
            "dict_seconds": round(dict_s, 4),
            "packed_seconds": round(packed_s, 4),
            "speedup": round(dict_s / max(1e-9, packed_s), 3),
        }
    cell["states_identical"] = identical
    return cell


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--limit", type=int, default=20_000)
    parser.add_argument("--out", default="BENCH_search.json")
    parser.add_argument(
        "--subjects", default=",".join(SUBJECTS),
        help="comma-separated subset of: " + ", ".join(SUBJECTS),
    )
    parser.add_argument("--techniques", default="IPB,IDB")
    parser.add_argument(
        "--sections", default="frontier,snapshots,frontier_snapshots,vclock",
        help="comma-separated subset of: frontier, snapshots, "
             "frontier_snapshots, vclock",
    )
    parser.add_argument(
        "--no-check", action="store_true",
        help="record results without enforcing the floors",
    )
    args = parser.parse_args(argv)
    sections = {s.strip() for s in args.sections.split(",") if s.strip()}

    cells = []
    failures = []
    subjects = args.subjects.split(",") if "frontier" in sections else []
    for name in subjects:
        factory, exhaustive = SUBJECTS[name.strip()]
        for technique in args.techniques.split(","):
            cell = run_cell(name.strip(), factory, technique.strip(), args.limit)
            cell["exhaustive"] = exhaustive
            cells.append(cell)
            ratio = cell["execution_ratio"]
            tag = f"{cell['subject']} {cell['technique']}"
            print(
                f"{tag:24s} bound={cell['final_bound']} "
                f"schedules={cell['schedules']:>6} "
                f"executions {cell['naive']['executions']:>6} -> "
                f"{cell['frontier']['executions']:>6} "
                f"(x{ratio:.2f}, saved "
                f"{cell['frontier']['counters']['saved_executions']})"
            )
            if not cell["stats_identical"]:
                failures.append(f"{tag}: as_dict() diverged between backends")
            if cell["frontier"]["executions"] > cell["naive"]["executions"]:
                failures.append(f"{tag}: frontier executed MORE than restart")
            if exhaustive and not args.no_check and ratio < 2.0:
                failures.append(f"{tag}: execution ratio {ratio:.2f} < 2.0")

    snapshot_cells = []
    if "snapshots" in sections:
        if snapshot_mod.fork_available():
            for technique, gated in SNAPSHOT_TECHNIQUES:
                cell = run_snapshot_cell(technique, gated, args.limit)
                snapshot_cells.append(cell)
                tag = f"{cell['subject']} {technique} snapshots"
                print(
                    f"{tag:32s} schedules={cell['schedules']:>5} "
                    f"wall {cell['serial']['seconds']:>7.3f}s -> "
                    f"{cell['snapshots']['seconds']:>7.3f}s "
                    f"(x{cell['wall_clock_ratio']:.2f})"
                )
                if not cell["stats_identical"]:
                    failures.append(f"{tag}: as_dict() diverged")
                if gated and not args.no_check and cell["wall_clock_ratio"] < 2.0:
                    failures.append(
                        f"{tag}: wall-clock ratio "
                        f"{cell['wall_clock_ratio']:.2f} < 2.0"
                    )
        else:
            print("snapshots: os.fork unavailable, section skipped")

    frontier_snapshot_cells = []
    if "frontier_snapshots" in sections:
        if snapshot_mod.fork_available():
            for technique, gated in FRONTIER_SNAPSHOT_TECHNIQUES:
                cell = run_snapshot_cell(technique, gated, args.limit)
                frontier_snapshot_cells.append(cell)
                tag = f"{cell['subject']} {technique} frontier-snapshots"
                snap_counters = cell["snapshots"]["counters"]
                print(
                    f"{tag:32s} schedules={cell['schedules']:>5} "
                    f"wall {cell['serial']['seconds']:>7.3f}s -> "
                    f"{cell['snapshots']['seconds']:>7.3f}s "
                    f"(x{cell['wall_clock_ratio']:.2f}, replayed "
                    f"{cell['serial']['counters']['replayed_steps']} -> "
                    f"{snap_counters['replayed_steps']})"
                )
                if not cell["stats_identical"]:
                    failures.append(f"{tag}: as_dict() diverged")
                if gated and not args.no_check:
                    if cell["wall_clock_ratio"] < 2.0:
                        failures.append(
                            f"{tag}: wall-clock ratio "
                            f"{cell['wall_clock_ratio']:.2f} < 2.0"
                        )
                    serial_replayed = cell["serial"]["counters"][
                        "replayed_steps"
                    ]
                    if (
                        snap_counters["snapshot_restored_steps"] == 0
                        or snap_counters["replayed_steps"]
                        > 0.05 * max(1, serial_replayed)
                    ):
                        failures.append(
                            f"{tag}: prefix replay not eliminated "
                            f"({snap_counters['replayed_steps']} replayed, "
                            f"{snap_counters['snapshot_restored_steps']} "
                            "restored)"
                        )
        else:
            print("frontier_snapshots: os.fork unavailable, section skipped")

    vclock = None
    if "vclock" in sections:
        vclock = run_vclock_cell()
        for threads, row in vclock["threads"].items():
            print(
                f"{'vclock fasttrack-mix T=' + threads:32s} "
                f"wall {row['dict_seconds']:>7.3f}s -> "
                f"{row['packed_seconds']:>7.3f}s (x{row['speedup']:.2f})"
            )
        if not vclock["states_identical"]:
            failures.append("vclock: clock states diverged between backends")
        if not args.no_check:
            floors = {"8": 0.7, "32": 1.2}
            for threads, floor in floors.items():
                speedup = vclock["threads"][threads]["speedup"]
                if speedup < floor:
                    failures.append(
                        f"vclock T={threads}: x{speedup:.2f} < {floor}"
                    )

    exhaustive_ratios = [c["execution_ratio"] for c in cells if c["exhaustive"]]
    gated_snapshot_ratios = [
        c["wall_clock_ratio"] for c in snapshot_cells if c["gated"]
    ]
    gated_frontier_ratios = [
        c["wall_clock_ratio"] for c in frontier_snapshot_cells if c["gated"]
    ]
    payload = {
        "bench": "search_overhead",
        "limit": args.limit,
        "cells": cells,
        "snapshot_cells": snapshot_cells,
        "frontier_snapshot_cells": frontier_snapshot_cells,
        "vector_clock": vclock,
        "summary": {
            "subjects": len({c["subject"] for c in cells}),
            "all_stats_identical": all(c["stats_identical"] for c in cells)
            and all(c["stats_identical"] for c in snapshot_cells)
            and all(c["stats_identical"] for c in frontier_snapshot_cells),
            "min_exhaustive_ratio": min(exhaustive_ratios, default=None),
            "max_exhaustive_ratio": max(exhaustive_ratios, default=None),
            "min_gated_snapshot_ratio": min(gated_snapshot_ratios, default=None),
            "min_gated_frontier_snapshot_ratio": min(
                gated_frontier_ratios, default=None
            ),
            "vclock_speedups": None if vclock is None else {
                t: row["speedup"] for t, row in vclock["threads"].items()
            },
        },
    }
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")
    print(f"\nwrote {args.out}")
    if failures:
        for msg in failures:
            print(f"FAIL: {msg}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
