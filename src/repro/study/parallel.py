"""Parallel study execution with durable checkpoint/resume and fault
tolerance.

The study is a grid of independent (benchmark, technique) *cells* (see
:func:`repro.study.runner.run_cell`).  :class:`ParallelStudyRunner` fans
the grid out over a ``ProcessPoolExecutor`` and commits every completed
cell to a checkpoint backend (:mod:`repro.study.store`):

* the default backend is the crash-consistent SQLite store
  (``results/checkpoints/study.sqlite``, WAL mode, one durable commit
  per cell, single-writer lease with heartbeat);
* ``config.store = False`` (CLI ``--no-store``) selects the v2 JSONL
  journal (``<run-id>.jsonl``): a fingerprint-bound header line plus one
  fsynced CRC-tagged JSON line per cell.  A journal-only run is migrated
  into the store transparently on its next store-backed resume.

Either way a resume under a different configuration fingerprint is
rejected instead of silently mixing results, and any corrupted record —
torn tail, bit rot, injected garbage — is detected by its digest and
skipped on read (that cell simply re-runs).

Failure taxonomy (:mod:`repro.study.taxonomy`): a cell ends ``ok``,
``bug``, ``timeout`` (cooperative :class:`repro.core.budget.Budget`
deadline, partial stats kept — or a watchdog hard-kill of a stuck
worker), ``diverged`` (:class:`repro.engine.strategies.ReplayDivergence`
classified, not crashed), ``error`` (exception; retried with exponential
backoff and a deterministic seed bump first), or ``quarantined`` (the
cell crashed its worker process twice — the study completes without it).
Resuming with ``retry_errors=True`` (CLI ``--retry-errors``) re-runs
every non-success cell instead of requiring manual journal surgery.

SIGINT/SIGTERM trigger a graceful drain: stop submitting, give in-flight
cells a short grace window, flush their records, and raise
:class:`StudyInterrupted` (the CLI prints the resume command and exits
0).  A second signal hard-exits.

Deterministic fault injection (:mod:`repro.study.faults`) can crash a
worker, hang a cell, force a divergence, or corrupt a journal line on an
exact (cell, attempt) — the tests use it to prove every degradation path
above end to end.

With ``jobs=1`` the cells run serially in-process — same code path, no
pool — and produce results identical to :func:`repro.study.run_study`
(cell order cannot matter: every cell is seeded independently).
"""

from __future__ import annotations

import copy
import multiprocessing.connection
import os
import signal
import sys
import threading
import time
import traceback
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Dict, List, Optional, Set, Tuple

from ..engine.strategies import ReplayDivergence
from ..sctbench import get as get_benchmark
from . import faults as faults_mod
from . import supervisor as supervisor_mod
from . import taxonomy
from .config import StudyConfig
from .faults import FaultPlan
from .supervisor import DegradationController, StudySupervisor
from .runner import (
    BenchmarkResult,
    ProgressFn,
    StudyResult,
    assemble_study,
    run_cell,
    study_benchmarks,
)
# The journal codec and both checkpoint backends live in the store
# module; the names below are re-exported here for compatibility (tests
# and scripts historically import them from ``repro.study.parallel``).
from .store import (  # noqa: F401  (re-exports)
    CHECKPOINT_VERSION,
    JournalInfo,
    StoreLockedError,
    decode_journal_line,
    encode_journal_line,
    open_backend,
    read_journal,
)

#: Default journal location, relative to the working directory.
DEFAULT_CHECKPOINT_DIR = os.path.join("results", "checkpoints")

#: Total tries per cell for soft failures (``error``/``diverged``): one
#: run plus one retry, then the failure is recorded.
MAX_ATTEMPTS = 2

#: Pool breaks a cell may be in flight for before it is ``quarantined``.
QUARANTINE_CRASHES = 2

#: Main-loop poll interval: how often the pool loop checks signals,
#: watchdog deadlines, and due retries (seconds).
POLL_SECONDS = 0.25

#: Grace given to in-flight cells when draining after SIGINT/SIGTERM.
DRAIN_GRACE_SECONDS = 5.0

CellKey = Tuple[str, str]  # (benchmark name, technique)


class StudyInterrupted(RuntimeError):
    """Raised after a graceful SIGINT/SIGTERM drain.

    The journal has been flushed; ``resume_command`` (when checkpointing
    was on) re-runs the study and recovers every completed cell.
    """

    def __init__(
        self,
        message: str,
        run_id: Optional[str] = None,
        resume_command: Optional[str] = None,
        completed_cells: int = 0,
    ) -> None:
        super().__init__(message)
        self.run_id = run_id
        self.resume_command = resume_command
        self.completed_cells = completed_cells


def _worker_init() -> None:
    """Pool-worker initializer: reset signals, enroll the process tree.

    Workers are forked after the parent installs its graceful-drain
    handlers, and would otherwise inherit them — a worker that *ignores*
    SIGTERM is unkillable by the watchdog and un-drainable on exit.
    SIGTERM goes back to the default (die, so ``terminate()`` works);
    SIGINT is ignored (the parent alone runs the drain and then
    terminates the workers).

    Enrollment (:func:`repro.study.supervisor.enroll_cell_worker`) puts
    the worker in its own process group.  Everything the worker's cells
    fork — shard workers, parked snapshot holders, chain-forked holders
    — inherits the group, so the watchdog and the drain can kill the
    *whole tree* with one ``killpg`` instead of orphaning COW children.
    (It also means a terminal ^C no longer reaches the workers at all,
    which is exactly the drain contract above.)
    """
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    supervisor_mod.enroll_cell_worker()


def _cell_worker(
    bench_name: str, technique: str, config: StudyConfig, attempt: int = 0
) -> dict:
    """Pool entry point (module-level, hence picklable).

    ``attempt`` is the 0-based submission ordinal of this cell: retries
    and crash re-queues run under :meth:`StudyConfig.for_attempt`'s
    deterministic seed bump, and fault-injection specs are matched
    against it.  Never raises: a failing cell becomes a classified record
    (``diverged`` for replay divergence, ``error`` otherwise), so one bad
    cell cannot poison the executor or lose the traceback.
    """
    try:
        plan = FaultPlan.from_config(config)
        if plan:
            spec = plan.match(bench_name, technique, attempt)
            if spec is not None:
                faults_mod.fire(spec)
        return run_cell(bench_name, technique, config.for_attempt(attempt))
    except ReplayDivergence:
        return error_record(
            bench_name,
            technique,
            traceback.format_exc(),
            status=taxonomy.DIVERGED,
        )
    except BaseException:
        return error_record(bench_name, technique, traceback.format_exc())
    finally:
        # Injected resource faults (oom ballast, forced disk readings)
        # must not outlive their cell: the pool reuses workers.
        faults_mod.clear_injected_state()


def error_record(
    bench_name: str,
    technique: str,
    error: str,
    status: str = taxonomy.ERROR,
) -> dict:
    """A cell record for a failed (benchmark, technique) execution."""
    try:
        info = get_benchmark(bench_name)
        bench_id, suite = info.bench_id, info.suite
    except KeyError:
        bench_id, suite = -1, "?"
    return {
        "kind": "cell",
        "bench": bench_name,
        "bench_id": bench_id,
        "suite": suite,
        "technique": technique,
        "status": status,
        "races": 0,
        "racy_sites": 0,
        "seconds": 0.0,
        "ts": round(time.time(), 3),
        "stats": None,
        "error": error,
    }


def exit_codes(
    procs: List[multiprocessing.process.BaseProcess], timeout: float = 2.0
) -> List[int]:
    """Exit codes of the processes in ``procs`` that have exited.

    Waits up to ``timeout`` seconds for the first exit, on every
    sentinel at once, then reads the code of each process whose sentinel
    is ready: a live process never delays reading a dead one's code.
    Another thread (a broken pool's manager) may be reaping a dead
    process concurrently, in which case its code appears a moment later,
    so it is polled until the deadline."""
    if not procs:
        return []
    deadline = time.monotonic() + timeout
    exited = multiprocessing.connection.wait([p.sentinel for p in procs], timeout)
    codes = []
    for proc in procs:
        if proc.sentinel not in exited:
            continue
        code = proc.exitcode
        while code is None and time.monotonic() < deadline:
            time.sleep(0.001)
            code = proc.exitcode
        if code is not None:
            codes.append(code)
    return codes


def load_checkpoint(path: str, config: StudyConfig) -> Dict[CellKey, dict]:
    """Completed cells recorded in journal ``path`` (empty if absent).

    Compatibility shim over :func:`repro.study.store.read_journal` —
    raises ``ValueError`` on a fingerprint mismatch; corrupted lines
    *anywhere* in the file are skipped (those cells re-run).
    """
    return read_journal(path, config).completed


class ParallelStudyRunner:
    """Fan the study's (benchmark, technique) cells over worker processes.

    Parameters
    ----------
    config:
        Study parameters; ``config.jobs`` is the default worker count,
        ``config.cell_deadline``/``cell_hard_timeout`` arm the
        cooperative deadline and the watchdog, ``config.retry_backoff``
        paces retries.
    jobs:
        Worker processes (overrides ``config.jobs``).  ``1`` runs cells
        serially in-process.
    run_id:
        Names the checkpoint journal; re-use an id to resume.  Defaults
        to a timestamped id (fresh run, no resume).
    checkpoint_dir:
        Journal directory; ``None`` disables checkpointing entirely.
    retry_errors:
        On resume, re-run journaled cells whose status is retryable
        (``timeout``/``diverged``/``error``/``quarantined``) instead of
        skipping them.  The journal is append-only: the re-run's record
        supersedes the old line (last record per cell wins on read).
    """

    def __init__(
        self,
        config: Optional[StudyConfig] = None,
        jobs: Optional[int] = None,
        run_id: Optional[str] = None,
        checkpoint_dir: Optional[str] = DEFAULT_CHECKPOINT_DIR,
        progress: Optional[ProgressFn] = None,
        retry_errors: bool = False,
    ) -> None:
        self.config = config or StudyConfig()
        self.jobs = max(1, jobs if jobs is not None else self.config.jobs)
        self.run_id = run_id or time.strftime("study-%Y%m%d-%H%M%S")
        self.checkpoint_dir = checkpoint_dir
        self.progress = progress
        self.retry_errors = retry_errors
        #: Cells executed (not resumed) by the last :meth:`run` call.
        self.executed_cells: List[CellKey] = []
        self._fault_plan = FaultPlan.from_config(self.config)
        self._interrupts = 0
        self._pool: Optional[ProcessPoolExecutor] = None
        #: The configuration cells actually run under.  Starts as a copy
        #: of :attr:`config`; the degradation controller may turn off
        #: snapshots or halve shards here mid-run.  Only knobs excluded
        #: from the fingerprint are ever touched, so the journal (which
        #: records ``config.fingerprint()``) stays valid throughout.
        self._effective = copy.copy(self.config)
        if self._effective.supervise_dir is None and checkpoint_dir:
            self._effective.supervise_dir = checkpoint_dir
        #: Parent-side process-group ledger: watchdog/drain tree kills
        #: plus the orphan sweep at pool teardown.
        self._supervisor = StudySupervisor()
        self._degrade = DegradationController(
            enabled=self.config.auto_degrade, log=progress
        )

    @property
    def checkpoint_path(self) -> Optional[str]:
        if self.checkpoint_dir is None:
            return None
        return os.path.join(self.checkpoint_dir, f"{self.run_id}.jsonl")

    def cells(self) -> List[CellKey]:
        """The full work grid, in deterministic (bench, technique) order."""
        return [
            (info.name, tech)
            for info in study_benchmarks(self.config)
            for tech in self.config.techniques
        ]

    # -- checkpoint backend ------------------------------------------------

    def _open_backend(self):
        """The run's checkpoint backend (store or journal), opened with
        its lease held — or ``None`` when checkpointing is disabled."""
        return open_backend(
            self.config,
            self.run_id,
            self.checkpoint_dir,
            fault_plan=self._fault_plan,
            log=self.progress,
        )

    def _record(
        self,
        completed: Dict[CellKey, dict],
        backend,
        record: dict,
    ) -> None:
        completed[(record["bench"], record["technique"])] = record
        # Degradation watches the record stream: an ``oom`` cell may turn
        # off snapshots / halve shards for every cell submitted after it.
        self._degrade.observe(record, self._effective)
        if backend is not None:
            backend.append(record)
        if self.progress:
            status = taxonomy.status_of(record)
            if taxonomy.is_success(status):
                st = record["stats"]
                bug = st["first_bug"]
                found = f"bug@{bug['index']}" if bug else "no bug"
                counters = st.get("counters")
                saved = (
                    f", saved {counters['saved_executions']} execs"
                    if counters and counters.get("saved_executions")
                    else ""
                )
                self.progress(
                    f"  {record['bench']}: {record['technique']}: {found} "
                    f"({st['schedules']} schedules{saved})"
                )
            else:
                self.progress(
                    f"  {record['bench']}: {record['technique']}: "
                    f"{status.upper()}"
                )

    # -- signal handling ---------------------------------------------------

    def _interrupted(self) -> bool:
        return self._interrupts > 0

    def _install_signals(self):
        """Install graceful-drain handlers; returns an uninstall callback.

        First SIGINT/SIGTERM sets the drain flag (the run loop notices at
        its next poll); the second hard-exits.  No-op outside the main
        thread (``signal.signal`` would raise there).
        """
        if threading.current_thread() is not threading.main_thread():
            return lambda: None
        previous = {}

        def handler(signum, frame):
            self._interrupts += 1
            if self._interrupts >= 2:
                os._exit(130)
            sys.stderr.write(
                "\ninterrupt received — draining in-flight cells "
                "(interrupt again to hard-exit)...\n"
            )
            sys.stderr.flush()

        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                previous[sig] = signal.signal(sig, handler)
            except (ValueError, OSError):  # pragma: no cover - exotic hosts
                pass

        def uninstall():
            for sig, old in previous.items():
                signal.signal(sig, old)

        return uninstall

    def _resume_command(self) -> Optional[str]:
        if self.checkpoint_path is None:
            return None
        cmd = f"python -m repro.study --run-id {self.run_id}"
        if self.jobs > 1:
            cmd += f" --jobs {self.jobs}"
        if self.config.cell_shards > 1:
            # Result-affecting for Rand/PCT (index-seeded stream): the
            # resume must re-state it or the fingerprint check fails.
            cmd += f" --shards {self.config.cell_shards}"
        if self.checkpoint_dir != DEFAULT_CHECKPOINT_DIR:
            cmd += f" --checkpoint-dir {self.checkpoint_dir}"
        return cmd + "  # plus your original study flags"

    def _raise_interrupted(self, completed: Dict[CellKey, dict]) -> None:
        resume = self._resume_command()
        message = (
            f"study interrupted: {len(completed)} cell(s) journaled"
        )
        if resume:
            message += f"; resume with: {resume}"
        else:
            message += "; checkpointing was disabled, results not saved"
        raise StudyInterrupted(
            message,
            run_id=self.run_id,
            resume_command=resume,
            completed_cells=len(completed),
        )

    # -- execution ---------------------------------------------------------

    def run(self) -> StudyResult:
        config = self.config
        grid = self.cells()
        # Opening the backend first (before reading completed cells)
        # acquires the store's writer lease, so two resumes of the same
        # run cannot both observe "cell X pending" and race to run it.
        backend = self._open_backend()
        try:
            completed = backend.load() if backend is not None else {}
        except BaseException:
            if backend is not None:
                backend.close()  # release the lease; nothing ran
            raise
        retried: List[CellKey] = []
        if self.retry_errors:
            retried = [
                key
                for key in grid
                if key in completed
                and taxonomy.is_retryable(taxonomy.status_of(completed[key]))
            ]
            for key in retried:
                del completed[key]
        pending = [key for key in grid if key not in completed]
        self.executed_cells = list(pending)
        if self.progress and len(pending) < len(grid):
            by_status: Dict[str, int] = {}
            for rec in completed.values():
                st = taxonomy.status_of(rec)
                by_status[st] = by_status.get(st, 0) + 1
            summary = ", ".join(
                f"{n} {st}" for st, n in sorted(by_status.items())
            )
            msg = (
                f"resuming {self.run_id}: {len(grid) - len(pending)} of "
                f"{len(grid)} cells already complete ({summary})"
            )
            if retried:
                msg += f"; retrying {len(retried)} non-success cell(s)"
            else:
                n_retryable = sum(
                    1
                    for rec in completed.values()
                    if taxonomy.is_retryable(taxonomy.status_of(rec))
                )
                if n_retryable:
                    msg += (
                        f"; {n_retryable} non-success cell(s) kept "
                        "(--retry-errors re-runs them)"
                    )
            self.progress(msg)

        uninstall = self._install_signals()
        try:
            if self.jobs == 1:
                self._run_serial(pending, completed, backend)
            else:
                self._run_pool(pending, completed, backend)
        finally:
            uninstall()
            supervision = self._supervision_summary()
            if backend is not None:
                if supervision is not None:
                    backend.append_supervision(supervision)
                # Closing commits the run (store: closed_ts + lease
                # release, WAL folded back into the main file).
                backend.close()

        if self._interrupted():
            self._raise_interrupted(completed)

        return assemble_study(config, completed, supervision)

    def _supervision_summary(self) -> Optional[dict]:
        """What supervision had to do this run, or ``None`` when nothing
        — the fault-free journal then carries no supervision record and
        stays byte-identical to the pre-supervision format."""
        events = self._degrade.events
        sup = self._supervisor
        if not events and not sup.reaped_orphans and not sup.tree_kills:
            return None
        return {
            "degradation": [dict(ev) for ev in events],
            "reaped_orphans": sup.reaped_orphans,
            "tree_kills": sup.tree_kills,
        }

    def _backoff(self, attempt: int) -> float:
        """Seconds to wait before submission ``attempt`` (0-based): the
        first run is immediate, retry ``k`` waits ``backoff * 2**(k-1)``.
        """
        if attempt <= 0:
            return 0.0
        return self.config.retry_backoff * (2 ** (attempt - 1))

    def _run_serial(
        self,
        pending: List[CellKey],
        completed: Dict[CellKey, dict],
        backend,
    ) -> None:
        for bench, tech in pending:
            if self._interrupted():
                return
            if backend is not None:
                backend.heartbeat()
            attempt = 0
            record = _cell_worker(bench, tech, self._effective, attempt)
            while (
                taxonomy.status_of(record) in taxonomy.INRUN_RETRY_STATUSES
                and attempt + 1 < MAX_ATTEMPTS
                and not self._interrupted()
            ):
                attempt += 1
                # A resource breach degrades *before* its own retry: the
                # controller only acts on journaled records, so feed it
                # the discarded attempt (without journaling it).
                self._degrade.observe(record, self._effective)
                delay = self._backoff(attempt)
                if delay > 0:
                    time.sleep(delay)
                record = _cell_worker(bench, tech, self._effective, attempt)
            self._record(completed, backend, record)

    def _run_pool(
        self,
        pending: List[CellKey],
        completed: Dict[CellKey, dict],
        backend,
    ) -> None:
        config = self._effective
        hard_limit = config.hard_timeout_for()
        self._pool = ProcessPoolExecutor(
            max_workers=self.jobs, initializer=_worker_init
        )
        in_flight: Dict[object, CellKey] = {}
        running_since: Dict[object, float] = {}
        #: Submissions per cell (0-based attempt ordinal for the worker).
        attempts: Dict[CellKey, int] = {key: 0 for key in pending}
        #: Pool breaks each cell was in flight for (quarantine counter).
        crashes: Dict[CellKey, int] = {}
        #: How many of those breaks were external SIGKILLs (OOM evidence).
        sigkills: Dict[CellKey, int] = {}
        #: Cells the watchdog killed, pending their ``timeout`` record.
        overdue: Set[CellKey] = set()
        #: Cells waiting for a normal submission slot.  At most ``jobs``
        #: cells are outstanding at once, so one pool break loses at most
        #: one worker-load of cells, not the whole remaining study.
        ready: List[CellKey] = list(pending)
        #: Crash suspects, probed ONE at a time with nothing else in
        #: flight: a pool break can only be attributed to the single cell
        #: that was running, so an innocent neighbour of a crashy cell is
        #: never quarantined by association.
        suspects: List[CellKey] = []
        #: Delayed (backoff) resubmissions: (due monotonic time, key).
        backlog: List[Tuple[float, CellKey]] = []
        watchdog_fired = False

        def submit(key: CellKey) -> None:
            fut = self._pool.submit(
                _cell_worker, key[0], key[1], config, attempts[key]
            )
            attempts[key] += 1
            in_flight[fut] = key
            # Workers are lazily forked on first submit; (re-)register
            # them so tree kills and the final orphan sweep see every
            # process group this pool ever created.
            for proc in getattr(self._pool, "_processes", {}).values():
                if proc is not None and proc.pid is not None:
                    self._supervisor.register_worker(proc.pid)

        def requeue(key: CellKey) -> None:
            delay = self._backoff(attempts[key])
            if delay > 0:
                backlog.append((time.monotonic() + delay, key))
            else:
                ready.append(key)

        def handle_record(key: CellKey, record: dict) -> None:
            status = taxonomy.status_of(record)
            if (
                status in taxonomy.INRUN_RETRY_STATUSES
                and attempts[key] < MAX_ATTEMPTS
            ):
                # Resource breaches degrade before their own retry; the
                # discarded attempt is observed (not journaled) so the
                # requeued attempt runs under the go-slower knobs.
                self._degrade.observe(record, self._effective)
                requeue(key)
            else:
                self._record(completed, backend, record)

        def worker_exit_codes() -> List[int]:
            """Exit codes of the dead pool workers (best effort)."""
            procs = [
                proc
                for proc in getattr(self._pool, "_processes", {}).values()
                if proc is not None
            ]
            for proc in procs:
                self._supervisor.register_worker(proc.pid)
            return exit_codes(procs)

        def rebuild_pool(lost: List[CellKey]) -> None:
            """A worker died hard: these in-flight cells are lost.  Kill
            the pool, classify each lost cell, and re-queue survivors."""
            nonlocal watchdog_fired
            was_watchdog = watchdog_fired
            watchdog_fired = False
            # Attribution evidence first: a worker that exited on
            # -SIGKILL without our watchdog having fired was killed from
            # outside — on a loaded host that is the kernel OOM killer.
            codes = worker_exit_codes()
            sigkilled = (
                not was_watchdog
                and any(code == -signal.SIGKILL for code in codes)
            )
            self._pool.shutdown(wait=False)
            self._supervisor.sweep()  # no shard worker/holder outlives its worker
            self._pool = ProcessPoolExecutor(
                max_workers=self.jobs, initializer=_worker_init
            )
            sole_suspect = len(lost) == 1
            for k in lost:
                if k in overdue:
                    overdue.discard(k)
                    self._record(
                        completed,
                        backend,
                        error_record(
                            k[0],
                            k[1],
                            f"cell exceeded the hard watchdog limit "
                            f"({hard_limit:g}s); worker process tree killed",
                            status=taxonomy.TIMEOUT,
                        ),
                    )
                elif was_watchdog:
                    # Collateral of a watchdog kill, not a crash suspect.
                    ready.append(k)
                else:
                    # Attribute the crash only when this cell was provably
                    # alone; otherwise it is merely a suspect to probe.
                    if sole_suspect:
                        crashes[k] = crashes.get(k, 0) + 1
                        if sigkilled:
                            sigkills[k] = sigkills.get(k, 0) + 1
                    if crashes.get(k, 0) >= QUARANTINE_CRASHES:
                        if sigkills.get(k, 0) == crashes.get(k, 0):
                            # Every crash of this cell was an external
                            # SIGKILL: that is resource exhaustion, not
                            # an engine bug — classify it as such.
                            self._record(
                                completed,
                                backend,
                                error_record(
                                    k[0],
                                    k[1],
                                    f"worker killed by SIGKILL "
                                    f"{crashes[k]} times with this cell "
                                    "in flight (kernel OOM killer is the "
                                    "usual sender); cell benched",
                                    status=taxonomy.OOM,
                                ),
                            )
                        else:
                            self._record(
                                completed,
                                backend,
                                error_record(
                                    k[0],
                                    k[1],
                                    f"worker process crashed with this cell "
                                    f"in flight {crashes[k]} times; cell "
                                    "quarantined",
                                    status=taxonomy.QUARANTINED,
                                ),
                            )
                    else:
                        if not sole_suspect:
                            crashes[k] = crashes.get(k, 0) + 1
                        suspects.append(k)

        try:
            while in_flight or backlog or ready or suspects:
                if self._interrupted():
                    backlog.clear()
                    ready.clear()
                    suspects.clear()
                    self._drain(in_flight, completed, backend)
                    return
                now = time.monotonic()
                if backlog:
                    due = [k for (t, k) in backlog if t <= now]
                    backlog = [(t, k) for (t, k) in backlog if t > now]
                    ready.extend(due)
                if suspects:
                    # Isolation mode: one suspect at a time, nothing else.
                    if not in_flight:
                        submit(suspects.pop(0))
                else:
                    while ready and len(in_flight) < self.jobs:
                        submit(ready.pop(0))
                if not in_flight:
                    time.sleep(POLL_SECONDS)
                    continue
                done, _ = wait(
                    set(in_flight),
                    timeout=POLL_SECONDS,
                    return_when=FIRST_COMPLETED,
                )
                lost: List[CellKey] = []
                for fut in done:
                    key = in_flight.pop(fut)
                    running_since.pop(fut, None)
                    try:
                        record = fut.result()
                    except BrokenProcessPool:
                        lost.append(key)
                        continue
                    except BaseException as exc:
                        record = error_record(
                            key[0], key[1], f"{type(exc).__name__}: {exc}"
                        )
                    handle_record(key, record)
                if lost:
                    # The pool is broken: every other in-flight future is
                    # doomed too — salvage the ones that raced to a result
                    # before the break, count the rest as lost with them.
                    for fut in list(in_flight):
                        key = in_flight.pop(fut)
                        running_since.pop(fut, None)
                        record = None
                        if fut.done():
                            try:
                                record = fut.result()
                            except BaseException:
                                record = None
                        if record is not None:
                            handle_record(key, record)
                        else:
                            lost.append(key)
                    rebuild_pool(lost)
                    continue
                if hard_limit is None:
                    continue
                # Watchdog: kill workers whose cell has been *running*
                # (not just queued) past the hard limit.  The kill breaks
                # the pool; the next loop iteration lands in
                # ``rebuild_pool``, which records the overdue cells as
                # ``timeout`` and re-queues the collateral.
                now = time.monotonic()
                newly_overdue = False
                for fut, key in in_flight.items():
                    if not fut.running():
                        continue
                    t0 = running_since.setdefault(fut, now)
                    if now - t0 > hard_limit and key not in overdue:
                        overdue.add(key)
                        newly_overdue = True
                        if self.progress:
                            self.progress(
                                f"  {key[0]}: {key[1]}: watchdog — cell "
                                f"still running after {hard_limit:g}s, "
                                "killing worker"
                            )
                if newly_overdue:
                    watchdog_fired = True
                    self._kill_workers()
        finally:
            pool = self._pool
            self._pool = None
            if pool is not None:
                pool.shutdown(wait=True)
            # Last line of containment: anything still alive in a worker
            # process group — shard workers, parked snapshot holders —
            # is an orphan; kill and count it.
            self._supervisor.sweep()

    def _kill_workers(self) -> None:
        """Hard-kill every pool worker *tree* (pool then reports broken).

        Workers live in their own process groups (``_worker_init``), so
        the kill reaches shard workers and parked snapshot holders too —
        a watchdog firing on a cell stuck inside ``fork_map`` must not
        leave the shard pool running headless.
        """
        procs = list(getattr(self._pool, "_processes", {}).values())
        for proc in procs:
            if proc is not None and proc.is_alive():
                if not self._supervisor.kill_worker_tree(proc.pid):
                    proc.terminate()

    def _drain(
        self,
        in_flight: Dict[object, CellKey],
        completed: Dict[CellKey, dict],
        backend,
    ) -> None:
        """Graceful-stop path: cancel what never started, give running
        cells a short grace window, journal whatever finishes, then tear
        the pool down without waiting on stuck workers."""
        for fut in list(in_flight):
            if fut.cancel():
                in_flight.pop(fut)
        if in_flight:
            done, _ = wait(set(in_flight), timeout=DRAIN_GRACE_SECONDS)
            for fut in done:
                key = in_flight.pop(fut)
                try:
                    record = fut.result()
                except BaseException:
                    continue
                self._record(completed, backend, record)
        pool = self._pool
        self._pool = None
        if pool is None:
            return
        procs = list(getattr(pool, "_processes", {}).values())
        pool.shutdown(wait=False, cancel_futures=True)
        for proc in procs:
            if proc is not None and proc.is_alive():
                if not self._supervisor.kill_worker_tree(
                    proc.pid, sig=signal.SIGTERM
                ):
                    proc.terminate()
        for proc in procs:
            if proc is not None:
                proc.join(timeout=2.0)
        self._supervisor.sweep()


def run_study_parallel(
    config: Optional[StudyConfig] = None,
    jobs: Optional[int] = None,
    run_id: Optional[str] = None,
    checkpoint_dir: Optional[str] = DEFAULT_CHECKPOINT_DIR,
    progress: Optional[ProgressFn] = None,
    retry_errors: bool = False,
) -> StudyResult:
    """Convenience wrapper: build a :class:`ParallelStudyRunner` and run it."""
    return ParallelStudyRunner(
        config, jobs=jobs, run_id=run_id,
        checkpoint_dir=checkpoint_dir, progress=progress,
        retry_errors=retry_errors,
    ).run()
