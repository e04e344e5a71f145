#!/usr/bin/env python
"""End-to-end fault drills: prove the study runner degrades and recovers.

Three drills against the SQLite study store:

``faults`` (the default)
    A tiny pooled study with an injected worker crash and a hung cell:
    must complete with those cells classified ``quarantined`` and
    ``timeout`` while every other cell succeeds, keep the checkpoint
    intact, and heal both cells on a ``--retry-errors`` resume.

``resource``
    The supervision stack end to end: injected ``oom`` ballast against an
    RSS ceiling (healed by the in-run retry, with graceful degradation
    logged), a deliberately leaked ``orphan`` process (contained and
    classified ``resource``), a forced ``disk-full`` reading — then a
    ``/proc`` scan asserting **zero** surviving processes.

``store``
    The crash-consistency drill for the SQLite store.  A control study
    establishes the expected output; then, for *every* cell in the grid,
    a child process is SIGKILLed mid-commit at exactly that cell
    (``store-kill``), resumed, and the merged result must be
    byte-identical to the control modulo wall-clock fields.  Also: a
    second concurrent writer is refused via the lease, a dead writer's
    lease is taken over with the unclean shutdown attributed, and the
    WAL is truncated at **every byte** of the last commit's tail —
    recovery must always land on a committed prefix.

Faults are injected through the ``REPRO_STUDY_FAULTS`` environment
variable, which is deliberately *not* part of the study fingerprint: the
faulted pass and the healing pass share one checkpoint.

These are the CI ``fault-smoke``, ``resource-drill`` and ``store-drill``
jobs; run them locally with::

    PYTHONPATH=src python scripts/fault_drill.py             # faults
    PYTHONPATH=src python scripts/fault_drill.py resource    # supervision
    PYTHONPATH=src python scripts/fault_drill.py store       # kill-anywhere

Exit status 0 means every degradation path behaved; any assertion prints
what went wrong and exits 1.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

from repro.study import ParallelStudyRunner, StoreLockedError, quick_config, taxonomy
from repro.study.faults import ENV_FAULTS
from repro.study.store import StudyStore, load_run, store_path_for
from repro.study import supervisor as sup

BENCHMARKS = ["CS.lazy01_bad", "CS.din_phil2_sat"]
CRASH_CELL = ("CS.din_phil2_sat", "IDB")
HANG_CELL = ("CS.lazy01_bad", "IPB")
TECHNIQUES = ["IPB", "IDB", "DFS"]


def drill_config():
    config = quick_config(limit=60)
    config.benchmarks = list(BENCHMARKS)
    # Seed-independent techniques only: retries can never change results.
    config.techniques = list(TECHNIQUES)
    config.retry_backoff = 0.0
    config.cell_hard_timeout = 4.0
    return config


def check(ok: bool, what: str) -> None:
    print(f"  [{'ok' if ok else 'FAIL'}] {what}")
    if not ok:
        sys.exit(1)


def checkpoint_integrity(ckpt: str, run_id: str) -> None:
    """'The checkpoint survived the faults' check."""
    s = StudyStore(store_path_for(ckpt), run_id)
    try:
        info = s.load_cells()
    finally:
        s.conn.close()
    check(info.corrupt_lines == [], "store has no corrupt rows")
    check(info.header is not None, "store run row intact")


def supervision_count(ckpt: str, run_id: str) -> int:
    """How many supervision records the checkpoint carries."""
    s = StudyStore(store_path_for(ckpt), run_id)
    try:
        return len(s.events("supervision"))
    finally:
        s.conn.close()


def main() -> int:
    ckpt = tempfile.mkdtemp(prefix="fault-drill-")
    progress = lambda m: print(f"    {m}", flush=True)  # noqa: E731
    try:
        print("pass 1: study under injected crash + hang (jobs=2)")
        os.environ[ENV_FAULTS] = json.dumps(
            [
                {"cell": "/".join(CRASH_CELL), "kind": "crash",
                 "attempts": [0, 1, 2, 3]},
                # The hang re-arms on every attempt: a crash elsewhere may
                # take the hung worker down as collateral and re-queue the
                # cell, and it must hang again for the watchdog to catch.
                {"cell": "/".join(HANG_CELL), "kind": "hang",
                 "seconds": 300, "attempts": [0, 1, 2, 3]},
            ]
        )
        t0 = time.monotonic()
        study = ParallelStudyRunner(
            drill_config(), jobs=2, run_id="drill",
            checkpoint_dir=ckpt, progress=progress,
        ).run()
        elapsed = time.monotonic() - t0
        check(elapsed < 200, f"completed despite a 300s hang ({elapsed:.1f}s)")

        crash_bench = study.by_name(CRASH_CELL[0])
        hang_bench = study.by_name(HANG_CELL[0])
        check(
            crash_bench.statuses.get(CRASH_CELL[1]) == taxonomy.QUARANTINED,
            f"{'/'.join(CRASH_CELL)} quarantined after repeated crashes",
        )
        check(
            hang_bench.statuses.get(HANG_CELL[1]) == taxonomy.TIMEOUT,
            f"{'/'.join(HANG_CELL)} killed by the watchdog (timeout)",
        )
        healthy = [
            (r.info.name, tech)
            for r in study
            for tech in TECHNIQUES
            if (r.info.name, tech) not in (CRASH_CELL, HANG_CELL)
        ]
        bad = [
            cell for cell in healthy
            if study.by_name(cell[0]).statuses.get(cell[1]) is not None
        ]
        check(not bad, f"all {len(healthy)} other cells succeeded {bad or ''}")

        checkpoint_integrity(ckpt, "drill")

        print("pass 2: --retry-errors with faults disarmed heals the cells")
        del os.environ[ENV_FAULTS]
        healer = ParallelStudyRunner(
            drill_config(), jobs=2, run_id="drill",
            checkpoint_dir=ckpt, retry_errors=True, progress=progress,
        )
        result = healer.run()
        check(
            set(healer.executed_cells) == {CRASH_CELL, HANG_CELL},
            f"retry pass re-ran exactly the degraded cells "
            f"({sorted(healer.executed_cells)})",
        )
        still_bad = [(r.info.name, t) for r in result for t in r.statuses]
        check(not still_bad, f"all cells healthy after retry {still_bad or ''}")
        print("fault drill passed")
        return 0
    finally:
        os.environ.pop(ENV_FAULTS, None)
        shutil.rmtree(ckpt, ignore_errors=True)


RESOURCE_BENCH = "CS.reorder_3_bad"
RESOURCE_CELL = (RESOURCE_BENCH, "Rand")


def resource_config(**ceilings):
    config = quick_config(limit=60)
    config.benchmarks = [RESOURCE_BENCH]
    config.techniques = ["Rand"]
    config.retry_backoff = 0.0
    for knob, value in ceilings.items():
        setattr(config, knob, value)
    return config


def no_survivors(what: str) -> None:
    """Assert every process this drill spawned is gone (grace: 5s for
    pool teardown joins to land)."""
    deadline = time.monotonic() + 5.0
    leftover = sup.descendant_pids(os.getpid())
    while leftover and time.monotonic() < deadline:
        time.sleep(0.1)
        leftover = sup.descendant_pids(os.getpid())
    check(not leftover, f"zero surviving processes after {what} {leftover or ''}")


def resource_main() -> int:
    """The supervision drill: oom / orphan / disk-full containment."""
    if not sup.proc_available():
        print("resource drill skipped: /proc not available")
        return 0
    progress = lambda m: print(f"    {m}", flush=True)  # noqa: E731
    ckpt = tempfile.mkdtemp(prefix="resource-drill-")
    try:
        print("pass 1: oom ballast vs a 200 MiB RSS ceiling (jobs=2)")
        os.environ[ENV_FAULTS] = json.dumps([
            {"cell": "/".join(RESOURCE_CELL), "kind": "oom",
             "attempts": [0], "bytes": 400 * 1024 * 1024},
        ])
        cfg = resource_config(cell_max_rss=200 * 1024 * 1024, snapshots=True)
        runner = ParallelStudyRunner(
            cfg, jobs=2, run_id="oom", checkpoint_dir=ckpt, progress=progress,
        )
        study = runner.run()
        check(
            study.by_name(RESOURCE_BENCH).statuses == {},
            "breached cell healed by the in-run retry",
        )
        supv = study.supervision or {}
        actions = [ev["action"] for ev in supv.get("degradation", ())]
        check(
            "disable-snapshots" in actions,
            f"graceful degradation fired (events: {actions})",
        )
        check(
            runner._effective.snapshots is False and cfg.snapshots is True,
            "degradation touched the effective config, not the original",
        )
        check(
            supervision_count(ckpt, "oom") > 0,
            "supervision summary checkpointed",
        )
        no_survivors("the oom pass")

        print("pass 2: leaked orphan process is contained and classified")
        os.environ[ENV_FAULTS] = json.dumps([
            {"cell": "/".join(RESOURCE_CELL), "kind": "orphan",
             "attempts": [0, 1, 2, 3], "seconds": 300},
        ])
        study = ParallelStudyRunner(
            resource_config(cell_max_rss=1 << 40),  # arm supervision only
            jobs=2, run_id="orphan", checkpoint_dir=ckpt, progress=progress,
        ).run()
        bench = study.by_name(RESOURCE_BENCH)
        check(
            bench.statuses.get("Rand") == taxonomy.RESOURCE,
            "orphan cell classified 'resource' (retryable)",
        )
        reaped = bench.resources.get("Rand", {}).get("reaped_pids", [])
        check(bool(reaped), f"orphan pid(s) attributed in the record {reaped}")
        still = [p for p in reaped if sup._read_stat_fields(p) is not None]
        check(not still, f"every reaped orphan is actually dead {still or ''}")
        no_survivors("the orphan pass")

        print("pass 3: forced disk-full reading trips the free-space floor")
        os.environ[ENV_FAULTS] = json.dumps([
            {"cell": "/".join(RESOURCE_CELL), "kind": "disk-full",
             "attempts": [0, 1, 2, 3]},
        ])
        study = ParallelStudyRunner(
            resource_config(min_free_disk=1024),
            jobs=2, run_id="disk", checkpoint_dir=ckpt, progress=progress,
        ).run()
        check(
            study.by_name(RESOURCE_BENCH).statuses.get("Rand")
            == taxonomy.RESOURCE,
            "disk-full cell classified 'resource'",
        )
        no_survivors("the disk pass")

        print("pass 4: fault-free supervised run is event-free")
        del os.environ[ENV_FAULTS]
        study = ParallelStudyRunner(
            resource_config(cell_max_rss=1 << 40),
            jobs=2, run_id="clean", checkpoint_dir=ckpt, progress=progress,
        ).run()
        check(study.supervision is None, "no supervision events without faults")
        check(
            supervision_count(ckpt, "clean") == 0,
            "checkpoint carries no supervision record",
        )
        no_survivors("the clean pass")
        print("resource drill passed")
        return 0
    finally:
        os.environ.pop(ENV_FAULTS, None)
        shutil.rmtree(ckpt, ignore_errors=True)


# -- the store drill: kill-anywhere crash consistency ------------------------

KILL_BENCHMARKS = ["CS.lazy01_bad", "CS.reorder_3_bad"]
KILL_TECHNIQUES = ["IPB", "DFS"]

#: Child study run by the kill drill; argv[1] is the checkpoint dir.
CHILD_PROG = f"""\
import sys
from repro.study import ParallelStudyRunner, quick_config
cfg = quick_config(limit=40)
cfg.benchmarks = {KILL_BENCHMARKS!r}
cfg.techniques = {KILL_TECHNIQUES!r}
cfg.retry_backoff = 0.0
ParallelStudyRunner(cfg, jobs=1, run_id='kill',
                    checkpoint_dir=sys.argv[1]).run()
print('DONE')
"""


def kill_config():
    cfg = quick_config(limit=40)
    cfg.benchmarks = list(KILL_BENCHMARKS)
    cfg.techniques = list(KILL_TECHNIQUES)
    cfg.retry_backoff = 0.0
    return cfg


def normalized(study) -> str:
    """A study's raw JSON with every wall-clock field scrubbed."""
    def scrub(obj):
        if isinstance(obj, dict):
            return {
                k: scrub(v) for k, v in obj.items()
                if k not in ("seconds", "ts")
            }
        if isinstance(obj, list):
            return [scrub(v) for v in obj]
        return obj

    return json.dumps(scrub(json.loads(study.to_json())), sort_keys=True)


def child_run(ckpt: str, faults=None) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env.pop(ENV_FAULTS, None)
    if faults is not None:
        env[ENV_FAULTS] = json.dumps(faults)
    return subprocess.run(
        [sys.executable, "-c", CHILD_PROG, ckpt],
        env=env, capture_output=True, text=True, timeout=600,
    )


def store_main() -> int:
    """Kill-anywhere + lease + torn-WAL-tail drill for the SQLite store."""
    progress = lambda m: print(f"    {m}", flush=True)  # noqa: E731
    root = tempfile.mkdtemp(prefix="store-drill-")
    try:
        print("control: fault-free store-backed study")
        ctrl = os.path.join(root, "control")
        study = ParallelStudyRunner(
            kill_config(), jobs=1, run_id="kill",
            checkpoint_dir=ctrl, progress=progress,
        ).run()
        control = normalized(study)
        check(
            normalized(load_run(ctrl, "kill")) == control,
            "store read path reproduces the control output",
        )

        grid = [(b, t) for b in KILL_BENCHMARKS for t in KILL_TECHNIQUES]
        print(f"kill-anywhere: SIGKILL mid-commit at each of {len(grid)} cells")
        for bench, tech in grid:
            ckpt = os.path.join(root, f"kill-{bench}-{tech}")
            proc = child_run(
                ckpt, faults=[{"cell": f"{bench}/{tech}", "kind": "store-kill"}]
            )
            check(
                proc.returncode == -9,
                f"{bench}/{tech}: writer SIGKILLed mid-commit",
            )
            resumed = child_run(ckpt)
            check(
                resumed.returncode == 0 and "DONE" in resumed.stdout,
                f"{bench}/{tech}: resume completed "
                f"(rc={resumed.returncode})",
            )
            check(
                "unclean shutdown" not in (proc.stderr or ""),
                f"{bench}/{tech}: first run saw a clean store",
            )
            check(
                normalized(load_run(ckpt, "kill")) == control,
                f"{bench}/{tech}: merged result identical to control",
            )
            s = StudyStore(store_path_for(ckpt), "kill")
            try:
                takeovers = s.events("takeover")
            finally:
                s.conn.close()
            check(
                len(takeovers) == 1,
                f"{bench}/{tech}: unclean shutdown attributed once",
            )

        print("lease: a second concurrent writer is refused")
        holder = StudyStore(store_path_for(ctrl), "kill")
        holder.acquire_lease()
        try:
            try:
                ParallelStudyRunner(
                    kill_config(), jobs=1, run_id="kill", checkpoint_dir=ctrl,
                ).run()
                check(False, "second writer refused")
            except StoreLockedError:
                check(True, "second writer refused (StoreLockedError)")
        finally:
            holder.close()

        print("lease: a dead writer's lease is taken over")
        import socket

        s = StudyStore(store_path_for(ctrl), "kill")
        now = time.time()
        with s.conn:
            s.conn.execute(
                "INSERT OR REPLACE INTO leases VALUES (?, ?, ?, ?, ?, ?)",
                ("kill", "x:999999:00", socket.gethostname(), 999999, now, now),
            )
            s.conn.execute(
                "UPDATE runs SET closed_ts = NULL WHERE run_id = 'kill'"
            )
        s.conn.close()
        messages = []
        survivor = ParallelStudyRunner(
            kill_config(), jobs=1, run_id="kill", checkpoint_dir=ctrl,
            progress=messages.append,
        )
        survivor.run()
        check(
            any("unclean shutdown" in m for m in messages),
            "takeover attributed the dead writer",
        )
        check(
            survivor.executed_cells == [],
            "takeover re-ran nothing (all cells were committed)",
        )

        print("torn tail: truncating the WAL at every byte of the last commit")
        torn_dir = os.path.join(root, "torn")
        os.makedirs(torn_dir)
        path = store_path_for(torn_dir)
        from repro.study.parallel import error_record

        writer = StudyStore(path, "torn")
        writer.acquire_lease()
        writer.ensure_run(kill_config())
        for tech in ("A", "B"):
            writer.append_cell(error_record("CS.lazy01_bad", tech, "x"))
        wal = path + "-wal"
        size_before = os.path.getsize(wal)
        writer.append_cell(error_record("CS.lazy01_bad", "C", "x"))
        size_after = os.path.getsize(wal)
        # Leave the writer open (unclean): the WAL holds the only copy.
        seen = set()
        scratch = os.path.join(root, "scratch")
        for cut in range(size_before, size_after + 1):
            shutil.rmtree(scratch, ignore_errors=True)
            os.makedirs(scratch)
            shutil.copy(path, os.path.join(scratch, "study.sqlite"))
            shutil.copy(wal, os.path.join(scratch, "study.sqlite-wal"))
            with open(os.path.join(scratch, "study.sqlite-wal"), "r+b") as fh:
                fh.truncate(cut)
            recovered = StudyStore(
                os.path.join(scratch, "study.sqlite"), "torn"
            )
            try:
                keys = frozenset(
                    k[1] for k in recovered.load_cells().completed
                )
            finally:
                recovered.conn.close()
            if keys not in ({"A", "B"}, {"A", "B", "C"}):
                check(False, f"cut at byte {cut} recovered {sorted(keys)}")
            seen.add(len(keys))
        writer.conn.close()
        check(
            seen == {2, 3},
            f"all {size_after - size_before + 1} truncation points recovered "
            "to a committed prefix (both recovery points exercised)",
        )
        print("store drill passed")
        return 0
    finally:
        shutil.rmtree(root, ignore_errors=True)


DRILLS = {"faults": main, "resource": resource_main, "store": store_main}


if __name__ == "__main__":
    which = sys.argv[1] if len(sys.argv) > 1 else "faults"
    if which not in DRILLS or len(sys.argv) > 2:
        print(f"usage: fault_drill.py [{'|'.join(DRILLS)}]")
        sys.exit(2)
    sys.exit(DRILLS[which]())
