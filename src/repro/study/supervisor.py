"""Process-tree supervision, resource ceilings, and graceful degradation.

PRs 5 and 7 turned a study cell into a *process tree*: the pool worker
that runs the cell may fork shard workers (:mod:`repro.core.sharding`),
which fork parked COW snapshot holders (:mod:`repro.engine.snapshot`),
which chain-fork more holders.  The PR 3 reliability layer supervised
exactly one process per cell; this module supervises the whole tree.

Three cooperating layers:

**Enrollment** (:func:`enroll_cell_worker`): every pool worker moves
itself into its own process group (``os.setpgid(0, 0)``) before running
cells.  Forked descendants inherit the group, so the group id *is* the
tree id: one ``os.killpg`` reaps a hung worker together with every shard
worker and parked holder beneath it, never orphaning a COW child.  The
parent records each worker's group in a :class:`StudySupervisor` and
sweeps the groups again at pool teardown, counting any survivor it had
to reap.

**Ceilings** (:class:`CellSupervisor`): inside the worker, a sampling
thread walks ``/proc`` every :data:`SUPERVISOR_POLL_SECONDS` and sums
RSS and open-fd counts over the worker's descendant tree, plus free
disk space under the checkpoint/results directory.  A breach trips the
cell's cooperative :class:`~repro.core.budget.Budget` (the exploration
stops at its next poll with partial, well-formed stats), kills the
descendant tree, and surfaces as a retryable taxonomy status —
``oom`` for the RSS ceiling, ``resource`` for fd/disk breaches and for
descendants found still alive when the cell ends.  Attribution lands in
the cell record (``resource`` key: peak tree RSS/fds, the breach
detail), so an OOM-killed holder is distinguishable from an engine bug.

**Degradation** (:class:`DegradationController`): under sustained
memory pressure the study *slows down instead of dying* — after the
first ``oom`` cell the runner disables fork snapshots for subsequent
cells, after the next it halves intra-cell shards (floor 2: dropping to
1 shard would switch Rand/PCT off the index-seeded stream and change
results).  Both are pure go-slower knobs mirroring PR 7's go-faster
ones: excluded from the checkpoint fingerprint, logged as events, and
stamped into the run summary — never into the science.

Everything degrades gracefully off Linux: without ``/proc`` the
samplers return ``None`` and ceilings simply never trip; without
``os.killpg`` tree kills fall back to single-process termination.  A
study with no ceilings configured takes none of these paths and its
output stays byte-identical to the pre-supervision stack.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from . import taxonomy

#: How often the in-worker sampling thread walks the process tree.  The
#: environment override exists for the fault drills: an injected breach
#: should be noticed faster than a human-scale poll.
SUPERVISOR_POLL_SECONDS = float(
    os.environ.get("REPRO_SUPERVISOR_POLL", "0.2")
)

#: ``oom`` breaches observed before each degradation rung engages:
#: the first breach disables snapshots, the second halves shards.
DEGRADE_AFTER_BREACHES = 1

#: Shard floor for degradation: halving below 2 would flip Rand/PCT off
#: the index-seeded stream (a result-affecting regime change — see
#: ``StudyConfig.fingerprint``), so the controller never crosses it.
MIN_DEGRADED_SHARDS = 2

#: Test hook: when not ``None``, reported as the free-disk reading for
#: every disk-guard sample (the deterministic ``disk-full`` fault).
_disk_override: Optional[int] = None


def set_disk_override(free_bytes: Optional[int]) -> None:
    """Force the disk guard's free-space reading (fault injection only)."""
    global _disk_override
    _disk_override = free_bytes


def proc_available() -> bool:
    """Whether ``/proc``-based tree sampling works on this host."""
    return os.path.isdir("/proc/self")


# -- /proc readers -----------------------------------------------------------


def read_rss(pid: int) -> Optional[int]:
    """Resident set size of one process in bytes (``None`` if gone)."""
    try:
        with open(f"/proc/{pid}/status", "rb") as fh:
            for line in fh:
                if line.startswith(b"VmRSS:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        return None
    return None


def read_fd_count(pid: int) -> Optional[int]:
    """Open file descriptors of one process (``None`` if gone)."""
    try:
        return len(os.listdir(f"/proc/{pid}/fd"))
    except OSError:
        return None


def _read_stat_fields(pid: int) -> Optional[Tuple[int, int]]:
    """(ppid, pgid) from ``/proc/<pid>/stat``; ``None`` if gone.

    The comm field (2) may contain spaces and parentheses, so the parse
    anchors on the *last* ``)`` — everything after it is space-split.
    """
    try:
        with open(f"/proc/{pid}/stat", "rb") as fh:
            data = fh.read()
    except OSError:
        return None
    try:
        rest = data[data.rindex(b")") + 2:].split()
        return int(rest[1]), int(rest[2])  # fields 4 (ppid) and 5 (pgrp)
    except (ValueError, IndexError):
        return None


def _all_pids() -> List[int]:
    try:
        return [int(name) for name in os.listdir("/proc") if name.isdigit()]
    except OSError:
        return []


def children_map() -> Dict[int, List[int]]:
    """ppid -> [child pids] over every live process, one /proc scan."""
    out: Dict[int, List[int]] = {}
    for pid in _all_pids():
        fields = _read_stat_fields(pid)
        if fields is not None:
            out.setdefault(fields[0], []).append(pid)
    return out


def descendant_pids(root: int) -> List[int]:
    """Every live descendant of ``root`` (excluding ``root`` itself).

    Built from one full ``/proc`` scan, so a racing fork/exit can be
    missed for one sample — the next poll sees it.  Reparented orphans
    (descendants whose ancestor already died) are *not* found here;
    they are swept by process group instead (:func:`pids_in_groups`).
    """
    kids = children_map()
    out: List[int] = []
    frontier = [root]
    while frontier:
        pid = frontier.pop()
        for child in kids.get(pid, ()):
            out.append(child)
            frontier.append(child)
    return out


def pids_in_groups(pgids: Iterable[int]) -> List[int]:
    """Live pids whose process group is one of ``pgids`` (one scan).

    Catches what a parent-link walk cannot: descendants that were
    reparented to init when their forker died.  Enrolled cell workers
    are group leaders, so group membership survives any ancestor death.
    Zombies are skipped: they hold no resources, cannot be signalled
    away, and only their (possibly init) parent can reap them — listing
    them would make a clean group kill look like it left survivors.
    """
    wanted = set(pgids)
    out = []
    for pid in _all_pids():
        try:
            with open(f"/proc/{pid}/stat", "rb") as fh:
                data = fh.read()
        except OSError:
            continue
        try:
            rest = data[data.rindex(b")") + 2:].split()
            state, pgid = rest[0], int(rest[2])
        except (ValueError, IndexError):
            continue
        if pgid in wanted and state != b"Z":
            out.append(pid)
    return out


def tree_sample(root: int) -> Optional[Tuple[int, int, int]]:
    """(tree RSS bytes, tree fd count, process count) over ``root`` and
    its descendants; ``None`` when /proc is unavailable or ``root`` is
    gone.  Processes that exit mid-sample contribute nothing.

    When ``root`` leads its own process group (an enrolled cell worker),
    group members are included too: a parked snapshot holder whose
    forker already exited is reparented to init and invisible to the
    parent-link walk, but it stays in the group — the same membership
    :func:`kill_tree` and :meth:`StudySupervisor.sweep` rely on, so
    ``peak_procs`` counts exactly what a group kill would take."""
    rss = read_rss(root)
    if rss is None:
        return None
    fds = read_fd_count(root) or 0
    procs = 1
    pids = set(descendant_pids(root))
    fields = _read_stat_fields(root)
    if fields is not None and fields[1] == root:
        own = os.getpgid(0) if hasattr(os, "getpgid") else -1
        if root != own:
            pids.update(p for p in pids_in_groups([root]) if p != root)
    for pid in sorted(pids):
        sub = read_rss(pid)
        if sub is None:
            continue
        rss += sub
        fds += read_fd_count(pid) or 0
        procs += 1
    return rss, fds, procs


def free_disk_bytes(path: str) -> Optional[int]:
    """Free bytes on the filesystem holding ``path`` (honours the
    fault-injection override)."""
    if _disk_override is not None:
        return _disk_override
    probe = path
    while probe and not os.path.isdir(probe):
        parent = os.path.dirname(probe)
        if parent == probe:
            break
        probe = parent
    try:
        stat = os.statvfs(probe or ".")
    except (OSError, AttributeError):
        return None
    return stat.f_bavail * stat.f_frsize


# -- enrollment and tree kills ----------------------------------------------


def enroll_cell_worker() -> bool:
    """Move this process into its own process group (idempotent).

    Called from every pool-worker initializer: the worker becomes a
    group leader, every process it forks inherits the group, and one
    ``os.killpg(worker_pid)`` takes down the whole tree.  Returns
    whether enrollment succeeded (it cannot on non-POSIX hosts, or for
    a session leader — both fall back to single-process supervision).
    """
    if not hasattr(os, "setpgid"):
        return False
    try:
        os.setpgid(0, 0)
    except OSError:
        return False
    return True


def kill_tree(root: int, sig: int = signal.SIGKILL) -> List[int]:
    """Signal ``root``'s whole process tree; returns the pids signalled.

    Prefers one ``killpg`` on the root's own group (reaches reparented
    orphans).  When the root is not a group leader — enrollment failed —
    falls back to signalling the /proc-walked descendants individually,
    deepest last, then the root.  Never signals this process's own
    group.
    """
    signalled: List[int] = []
    pgid = None
    if hasattr(os, "getpgid"):
        try:
            pgid = os.getpgid(root)
        except OSError:
            pgid = None
    if (
        pgid is not None
        and pgid == root
        and hasattr(os, "killpg")
        and pgid != os.getpgid(0)
    ):
        members = pids_in_groups([pgid]) or [root]
        try:
            os.killpg(pgid, sig)
            return members
        except OSError:
            pass
    for pid in descendant_pids(root) + [root]:
        try:
            os.kill(pid, sig)
            signalled.append(pid)
        except OSError:
            pass
    return signalled


def reap_children(pids: Iterable[int], timeout: float = 2.0) -> None:
    """Collect exit statuses for killed *direct children* (best effort;
    non-children raise ECHILD and are skipped — init reaps them)."""
    deadline = time.monotonic() + timeout
    for pid in pids:
        while True:
            try:
                done, _ = os.waitpid(pid, os.WNOHANG)
            except (ChildProcessError, OSError):
                break
            if done:
                break
            if time.monotonic() >= deadline:
                break
            time.sleep(0.01)


# -- in-worker ceilings ------------------------------------------------------


class ResourceBreach(RuntimeError):
    """A resource ceiling was crossed (or orphans found) in one cell.

    ``status`` is the taxonomy status the cell record should carry
    (``oom`` for the RSS ceiling, ``resource`` otherwise); ``detail``
    is the human attribution line for the record's ``error`` field.
    """

    def __init__(self, status: str, detail: str) -> None:
        super().__init__(detail)
        self.status = status
        self.detail = detail


class CellSupervisor:
    """Per-cell resource watchdog, run *inside* the worker process.

    A daemon thread samples the worker's own process tree every
    :data:`SUPERVISOR_POLL_SECONDS`.  On the first ceiling breach it

    1. trips the cell's :class:`~repro.core.budget.Budget` (cooperative
       stop: the exploration ends at its next poll with partial stats),
    2. kills every descendant process (a parked holder must not sit on
       its COW pages while the cell unwinds), and
    3. records the breach for :meth:`finish` to surface.

    :meth:`finish` additionally reaps any descendants still alive after
    the exploration returned — a leaked holder or shard worker is
    contained on the spot and reported as a ``resource`` breach instead
    of surviving the cell.
    """

    def __init__(
        self,
        budget,
        *,
        max_rss: Optional[int] = None,
        max_fds: Optional[int] = None,
        min_free_disk: Optional[int] = None,
        watch_dir: Optional[str] = None,
        poll_seconds: float = SUPERVISOR_POLL_SECONDS,
        pid: Optional[int] = None,
    ) -> None:
        self.budget = budget
        self.max_rss = max_rss
        self.max_fds = max_fds
        self.min_free_disk = min_free_disk
        self.watch_dir = watch_dir or "."
        self.poll_seconds = poll_seconds
        self.pid = os.getpid() if pid is None else pid
        self.peak_rss = 0
        self.peak_fds = 0
        self.peak_procs = 0
        self.breach: Optional[ResourceBreach] = None
        self.killed_pids: List[int] = []
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    @classmethod
    def from_config(cls, config, budget) -> Optional["CellSupervisor"]:
        """A supervisor for one cell, or ``None`` when no ceiling is
        configured (the fault-free fast path: zero new work, zero new
        record keys)."""
        if (
            config.cell_max_rss is None
            and config.cell_max_fds is None
            and config.min_free_disk is None
        ):
            return None
        return cls(
            budget,
            max_rss=config.cell_max_rss,
            max_fds=config.cell_max_fds,
            min_free_disk=config.min_free_disk,
            watch_dir=getattr(config, "supervise_dir", None) or ".",
        )

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "CellSupervisor":
        if proc_available() or self.min_free_disk is not None:
            self._thread = threading.Thread(
                target=self._run, name="cell-supervisor", daemon=True
            )
            self._thread.start()
        return self

    def finish(self) -> Optional[ResourceBreach]:
        """Stop sampling, reap leftover descendants, return the breach
        (if any).  Idempotent; safe after an exploration exception."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        if self.breach is None:
            # Final deterministic sample: a cell faster than one poll
            # interval must still hit its ceilings (injected ballast is
            # held for the whole cell, so it is visible here).
            self._sample()
        if self.breach is None and proc_available():
            leftover = descendant_pids(self.pid)
            if leftover:
                self._contain(
                    taxonomy.RESOURCE,
                    f"{len(leftover)} orphaned descendant process(es) "
                    f"survived the cell and were reaped "
                    f"(pids {sorted(leftover)})",
                )
        return self.breach

    def snapshot(self) -> dict:
        """The cell record's ``resource`` attribution payload."""
        out = {
            "peak_rss": self.peak_rss,
            "peak_fds": self.peak_fds,
            "peak_procs": self.peak_procs,
        }
        if self.killed_pids:
            out["reaped_pids"] = sorted(self.killed_pids)
        return out

    # -- sampling loop ------------------------------------------------------

    def _run(self) -> None:
        # Sample immediately: a cell can breach before the first poll
        # interval elapses (an allocation made on entry), and a cell
        # faster than the interval should still record its peaks.
        if self._sample():
            return
        while not self._stop.wait(self.poll_seconds):
            if self._sample():
                return

    def _sample(self) -> bool:
        """One poll; returns True (stop sampling) on a breach."""
        sample = tree_sample(self.pid) if proc_available() else None
        if sample is not None:
            rss, fds, procs = sample
            self.peak_rss = max(self.peak_rss, rss)
            self.peak_fds = max(self.peak_fds, fds)
            self.peak_procs = max(self.peak_procs, procs)
            if self.max_rss is not None and rss > self.max_rss:
                self._contain(
                    taxonomy.OOM,
                    f"cell process tree RSS {rss} bytes exceeded the "
                    f"ceiling ({self.max_rss}); {procs} process(es) "
                    "sampled",
                )
                return True
            if self.max_fds is not None and fds > self.max_fds:
                self._contain(
                    taxonomy.RESOURCE,
                    f"cell process tree held {fds} file descriptors, "
                    f"ceiling {self.max_fds}",
                )
                return True
        if self.min_free_disk is not None:
            free = free_disk_bytes(self.watch_dir)
            if free is not None and free < self.min_free_disk:
                self._contain(
                    taxonomy.RESOURCE,
                    f"free disk under {self.watch_dir!r} is {free} "
                    f"bytes, below the {self.min_free_disk}-byte floor",
                )
                return True
        return False

    def _contain(self, status: str, detail: str) -> None:
        """Record a breach, trip the budget, kill the descendant tree."""
        if self.breach is None:
            self.breach = ResourceBreach(status, detail)
        if self.budget is not None:
            self.budget.trip(detail)
        killed = []
        for pid in descendant_pids(self.pid):
            try:
                os.kill(pid, signal.SIGKILL)
                killed.append(pid)
            except OSError:
                pass
        reap_children(killed)
        self.killed_pids.extend(killed)


# -- parent-side tree supervision --------------------------------------------


class StudySupervisor:
    """Parent-side ledger of worker process groups.

    The runner registers every pool worker pid it observes; watchdog
    kills and drain teardowns go through :meth:`kill_worker_tree`
    (group kill, so shard workers and holders die with their worker),
    and :meth:`sweep` runs at pool teardown to find and reap anything
    still alive in a registered group — the orphan backstop.
    """

    def __init__(self) -> None:
        self.worker_pgids: Set[int] = set()
        self.reaped_orphans = 0
        self.tree_kills = 0

    def register_worker(self, pid: int) -> None:
        self.worker_pgids.add(pid)

    def kill_worker_tree(self, pid: int, sig: int = signal.SIGKILL) -> int:
        """Kill one worker with its whole tree; returns pids signalled."""
        self.worker_pgids.add(pid)
        signalled = kill_tree(pid, sig)
        self.tree_kills += 1
        return len(signalled)

    def sweep(self) -> int:
        """Kill every survivor in any registered worker group (the
        workers themselves should already be gone).  Returns the number
        of orphans reaped; accumulates into :attr:`reaped_orphans`."""
        if not self.worker_pgids or not proc_available():
            return 0
        own = os.getpgid(0) if hasattr(os, "getpgid") else -1
        survivors = [
            pid
            for pid in pids_in_groups(self.worker_pgids - {own})
            if pid != os.getpid()
        ]
        for pid in survivors:
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
        reap_children(survivors)
        self.reaped_orphans += len(survivors)
        return len(survivors)


# -- graceful degradation ----------------------------------------------------


class DegradationController:
    """Turn sustained memory pressure into go-slower knob changes.

    Observes every finished cell record; after
    :data:`DEGRADE_AFTER_BREACHES` ``oom`` breaches it disables fork
    snapshots for subsequent cells, after as many more it halves
    intra-cell shards (never below :data:`MIN_DEGRADED_SHARDS` — the
    Rand/PCT stream regime must not change).  Both knobs are excluded
    from the checkpoint fingerprint, so degrading mid-run can never
    invalidate the stored run; the events list is stamped into the run
    summary for the operator.
    """

    def __init__(
        self,
        enabled: bool = True,
        log: Optional[Callable[[str], None]] = None,
    ) -> None:
        self.enabled = enabled
        self.log = log
        self.oom_breaches = 0
        #: Applied knob changes, oldest first:
        #: ``{"action", "reason", "after_breaches"}`` dicts.
        self.events: List[dict] = []

    def observe(self, record: dict, config) -> bool:
        """Feed one finished cell record; mutates ``config`` (the
        runner's *effective* config, never the fingerprinted original)
        and returns whether a knob changed."""
        if taxonomy.status_of(record) != taxonomy.OOM:
            return False
        self.oom_breaches += 1
        if not self.enabled or self.oom_breaches < DEGRADE_AFTER_BREACHES:
            return False
        cell = f"{record.get('bench')}/{record.get('technique')}"
        if config.snapshots:
            return self._apply(
                config,
                "disable-snapshots",
                f"{cell} breached the RSS ceiling; fork snapshots "
                "disabled for subsequent cells",
            )
        if config.cell_shards > MIN_DEGRADED_SHARDS:
            halved = max(MIN_DEGRADED_SHARDS, config.cell_shards // 2)
            return self._apply(
                config,
                f"halve-shards:{config.cell_shards}->{halved}",
                f"{cell} breached the RSS ceiling; intra-cell shards "
                f"reduced {config.cell_shards} -> {halved}",
                shards=halved,
            )
        return False

    def _apply(
        self, config, action: str, reason: str, shards: Optional[int] = None
    ) -> bool:
        if shards is None:
            config.snapshots = False
        else:
            config.cell_shards = shards
        self.events.append(
            {
                "action": action,
                "reason": reason,
                "after_breaches": self.oom_breaches,
            }
        )
        if self.log:
            self.log(f"  [degrade] {reason}")
        return True

