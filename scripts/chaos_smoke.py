#!/usr/bin/env python
"""Chaos smoke: the adversarial corpus against every technique.

Runs each program in :data:`repro.sctbench.ADVERSARIAL` — the corpus that
attacks the harness itself (garbage yields, foreign unlocks, impossible
joins, leaked resources, true livelocks) — under all seven of the study's
techniques (IPB, IDB, DFS, Rand, MapleAlg, DPOR and iterative BPOR) with
the paranoid engine self-checks armed
(``REPRO_ENGINE_CHECK=1``), and asserts the hardening contract
(DESIGN.md section 12):

- no exploration ever escapes an exception: program-API misuse is
  contained as ``Outcome.ABORT`` and the explorer keeps going;
- every program produces exactly the hardening signal its ``EXPECTED``
  entry promises (a tallied misuse kind, audited leaks, or a
  lasso-confirmed livelock);
- no adversarial program is ever misreported as a *concurrency* bug.

This is the CI ``chaos-smoke`` job; run it locally with::

    REPRO_ENGINE_CHECK=1 PYTHONPATH=src python scripts/chaos_smoke.py

With ``--snapshots`` IPB/IDB/DFS additionally run under fork-based COW
prefix snapshots (:mod:`repro.engine.snapshot`) with the fork threshold
forced low, so every adversarial cell exercises holder forking, the
woken-child containment paths, and (with ``REPRO_ENGINE_CHECK=1``) the
post-restore shared-state audit; DPOR and BPOR run as in the plain leg
(they take no snapshots).  The iterative-bounding cells (IPB/IDB) then
run on
:class:`~repro.engine.snapshot.SnapshotFrontierSearch`, so bound-pruned
edges park cross-bound holders and the next bound resumes from their
live images; the smoke fails if no cross-bound resume fires across the
whole corpus — the fork-safety leg must actually cover that path, not
just plain prefix replay.

Exit status 0 means the engine shrugged off the whole corpus; any
violation prints the (program, technique) cell and exits 1.
"""

from __future__ import annotations

import os
import sys
import time
import traceback

from repro.core import (
    DFSExplorer,
    MapleAlgExplorer,
    RandomExplorer,
    make_idb,
    make_ipb,
)
from repro.core.dpor import DPORExplorer, IterativeBPORExplorer
from repro.engine import engine_check_enabled
from repro.sctbench import ADVERSARIAL
from repro.sctbench.adversarial import EXPECTED

MAX_STEPS = 400
LIMIT = 30

SNAPSHOTS = "--snapshots" in sys.argv[1:]
CROSS_RESUMES = {"count": 0}
if SNAPSHOTS:
    # Force forking on the short adversarial programs so every cell
    # actually exercises the snapshot holder/containment machinery.
    import repro.engine.snapshot as _snapshot_mod

    _snapshot_mod.DEFAULT_MIN_FORK_STEPS = 1

    # Tally cross-bound resumes across the whole corpus: the IPB/IDB
    # cells run on SnapshotFrontierSearch, and the fork-safety contract
    # only means something if bound c+1 really does adopt parked holder
    # images instead of replaying from step 0.
    _orig_resume = _snapshot_mod.CrossBoundRegistry.resume

    def _counted_resume(self, handle, bound):
        batch = _orig_resume(self, handle, bound)
        if batch is not None:
            CROSS_RESUMES["count"] += 1
        return batch

    _snapshot_mod.CrossBoundRegistry.resume = _counted_resume

_SNAP = {"snapshots": True} if SNAPSHOTS else {}

EXPLORERS = {
    "IPB": lambda: make_ipb(max_steps=MAX_STEPS, **_SNAP),
    "IDB": lambda: make_idb(max_steps=MAX_STEPS, **_SNAP),
    "DFS": lambda: DFSExplorer(max_steps=MAX_STEPS, **_SNAP),
    "Rand": lambda: RandomExplorer(seed=3, max_steps=MAX_STEPS),
    "MapleAlg": lambda: MapleAlgExplorer(seed=3, max_steps=MAX_STEPS),
    "DPOR": lambda: DPORExplorer(max_steps=MAX_STEPS),
    "BPOR": lambda: IterativeBPORExplorer(max_steps=MAX_STEPS),
}


def signal_of(stats) -> set:
    """The hardening signals one exploration actually produced."""
    signals = set()
    for kind, count in sorted(stats.abort_kinds.items()):
        if count:
            signals.add(f"abort:{kind}")
    if stats.leaks:
        signals.add("leaks")
    if stats.livelock_hits:
        signals.add("livelock")
    return signals


def main() -> int:
    if not engine_check_enabled():
        print("note: REPRO_ENGINE_CHECK is not set; self-checks are off")
    failures = []
    t0 = time.monotonic()
    for info in ADVERSARIAL:
        expected = EXPECTED[info.name]
        for tech, factory in EXPLORERS.items():
            cell = f"{info.name}/{tech}"
            try:
                stats = factory().explore(info.factory(), LIMIT)
            except Exception:
                failures.append(f"{cell}: exploration raised\n{traceback.format_exc()}")
                print(f"  [FAIL] {cell}: escaped exception")
                continue
            produced = signal_of(stats)
            problems = []
            if expected not in produced:
                problems.append(f"expected {expected!r}, produced {sorted(produced)}")
            if stats.found_bug:
                problems.append(
                    f"misreported as concurrency bug: {stats.first_bug}"
                )
            if problems:
                failures.append(f"{cell}: " + "; ".join(problems))
                print(f"  [FAIL] {cell}: " + "; ".join(problems))
            else:
                print(f"  [ok]   {cell}: {expected}")
    elapsed = time.monotonic() - t0
    cells = len(ADVERSARIAL) * len(EXPLORERS)
    if SNAPSHOTS and hasattr(os, "fork"):
        if CROSS_RESUMES["count"] == 0:
            failures.append(
                "cross-bound: no iterative cell resumed from a parked "
                "holder image; the --snapshots leg is not covering the "
                "cross-bound path"
            )
        else:
            print(
                f"  [ok]   cross-bound: {CROSS_RESUMES['count']} "
                "resumes from parked holder images"
            )
    if failures:
        print(f"\nchaos smoke FAILED: {len(failures)}/{cells} cells ({elapsed:.1f}s)")
        for f in failures:
            print(f"  - {f}")
        return 1
    print(f"\nchaos smoke passed: {cells} cells clean ({elapsed:.1f}s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
