"""Kernel state for one controlled execution.

The :class:`Kernel` plays the role of the OS scheduler + pthread library
that Maple (via PIN) interposes on: it owns every thread's generator,
services operation requests, tracks blocking, and exposes the *enabled set*
that scheduler strategies choose from.

Semantics notes (mapping to the paper's model, section 2):

- A thread is *poised* at its next visible op; the scheduling point is just
  before that op.  ``enabled()`` returns poised threads whose op's
  precondition holds (mutex free, join target finished, ...).
- Executing a step = executing the poised visible op, then running the
  thread's generator through any *invisible* operations (data accesses at
  non-racy sites) until it is poised at the next visible op.  This matches
  the paper's definition of a step as "a visible operation followed by a
  finite sequence of invisible operations".
- ``cond_wait`` and ``barrier_wait`` park the thread (status ``WAITING``)
  *after* executing; waking re-poises it at an engine-generated
  continuation op (mutex reacquire / no-op), which is itself a visible
  step — the same behaviour a pthread SCT tool observes.
"""

from __future__ import annotations

import enum
from bisect import insort
from typing import Any, Callable, Generator, List, Optional, Tuple

from ..runtime.context import ThreadContext, ThreadHandle
from ..runtime.errors import (
    ConcurrencyBug,
    CrashBug,
    EngineInvariantError,
    MisuseError,
    MisuseKind,
    RuntimeUsageError,
)
from ..runtime.objects import (
    Atomic,
    Barrier,
    CondVar,
    Mutex,
    NamingScope,
    RWLock,
    Semaphore,
    SharedArray,
)
from ..runtime.ops import DATA_KINDS, Op, OpKind, noop_op, reacquire_op

VisibleFilter = Callable[[Op], bool]


def sync_only_filter(op: Op) -> bool:
    """Module-level "only synchronisation ops are visible" predicate.

    Used when a benchmark has no racy sites: no data access is a scheduling
    point.  Being a plain module-level function (not a closure) keeps it
    picklable, so work cells carrying it can cross process boundaries.
    """
    return False


#: Op kinds whose enabledness depends on shared state (everything else is
#: always enabled — checked first on the hot path).
_CONDITIONAL_KINDS = frozenset(
    {
        OpKind.LOCK,
        OpKind.REACQUIRE,
        OpKind.JOIN,
        OpKind.SEM_WAIT,
        OpKind.AWAIT,
        OpKind.RW_RDLOCK,
        OpKind.RW_WRLOCK,
    }
)

#: Bool tables indexed by the ``OpKind`` IntEnum value.  ``enabled()`` tests
#: every runnable thread's pending op at every scheduling point and
#: ``_advance`` classifies every yielded op, so these membership tests are
#: the engine's hottest branches; a tuple index beats a frozenset probe.
_CONDITIONAL_FLAGS = tuple(
    OpKind(i) in _CONDITIONAL_KINDS for i in range(max(OpKind) + 1)
)
_DATA_FLAGS = tuple(OpKind(i) in DATA_KINDS for i in range(max(OpKind) + 1))


class ThreadStatus(enum.IntEnum):
    RUNNABLE = 0   # poised at a pending visible op
    WAITING = 1    # parked (cond wait / barrier) until woken
    FINISHED = 2


class ThreadState:
    """Book-keeping for one thread within one execution."""

    __slots__ = ("tid", "handle", "gen", "ctx", "status", "pending", "wait_obj", "wait_data")

    def __init__(self, tid: int, gen: Generator[Op, Any, Any]) -> None:
        self.tid = tid
        self.handle = ThreadHandle(tid)
        self.gen = gen
        self.ctx = ThreadContext(tid)
        self.status = ThreadStatus.RUNNABLE
        #: The visible op this thread is poised at (valid when RUNNABLE;
        #: set by the kernel's spawn-time advance).
        self.pending: Optional[Op] = None
        #: The object this thread is parked on (valid when WAITING).
        self.wait_obj: Any = None
        #: Extra wake data (the mutex to reacquire after cond_wait).
        self.wait_data: Any = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ThreadState(tid={self.tid}, {self.status.name})"


class Kernel:
    """All mutable state of one controlled execution."""

    __slots__ = (
        "threads",
        "shared",
        "bug",
        "visible_filter",
        "observers",
        "last_tid",
        "steps",
        "spurious_wakeups",
        "naming",
        "store_version",
        "_finished_count",
        "_runnable",
    )

    def __init__(
        self,
        shared: Any,
        visible_filter: Optional[VisibleFilter],
        observers: Tuple[Any, ...],
        spurious_wakeups: int = 0,
        naming: Optional[NamingScope] = None,
    ) -> None:
        self.threads: List[ThreadState] = []
        self.shared = shared
        self.bug: Optional[ConcurrencyBug] = None
        #: ``None`` means "everything visible" (race-detection phase).
        self.visible_filter = visible_filter
        self.observers = observers
        #: This execution's auto-naming counter.  Owned per kernel so
        #: concurrent executions in one process cannot interleave resets.
        self.naming = naming if naming is not None else NamingScope()
        #: Remaining spurious-wakeup budget.  When positive, a thread
        #: parked in ``cond_wait`` may be scheduled at any point — it wakes
        #: without a signal (POSIX allows this; CHESS's
        #: ``/spuriouswakeups`` tests the same thing).  Exposes
        #: missing-``while``-recheck bugs.  The budget is per execution:
        #: an unbounded allowance would make a correct wait/recheck loop's
        #: schedule tree infinite (wake, recheck, re-wait, wake, ...).
        #: ``True`` means a budget of one.
        self.spurious_wakeups = int(spurious_wakeups)
        #: id of the thread that executed the previous step (``last(α)``);
        #: starts at 0, the main thread, matching the deterministic
        #: round-robin scheduler's starting point.
        self.last_tid = 0
        self.steps = 0
        #: Monotonic count of shared-state mutations (stores, RMWs, lock
        #: transitions, wakes, thread lifecycle).  Two scheduling points
        #: with equal versions bracket a mutation-free interval — the
        #: progress signal the livelock lasso detector keys on
        #: (:mod:`repro.engine.hardening`).
        self.store_version = 0
        self._finished_count = 0
        #: Sorted tids with status ``RUNNABLE``, maintained incrementally on
        #: spawn / park / wake / finish so ``enabled()`` never rescans parked
        #: or finished threads.  The per-op precondition (mutex free, join
        #: target finished, ...) is still checked fresh on every call — only
        #: the block/unblock *status* transitions are dirty-tracked.
        self._runnable: List[int] = []

    # -- thread lifecycle ---------------------------------------------------

    def spawn(self, body: Callable[..., Any], args: Tuple[Any, ...]) -> ThreadHandle:
        """Create a thread and poise it at its first visible operation.

        The child's invisible prefix (if any) executes here, i.e. within
        the spawner's step — matching the paper's model where a thread's
        first *step* is its first visible operation.
        """
        tid = len(self.threads)
        ts = ThreadState(tid, None)  # type: ignore[arg-type]
        gen = body(ts.ctx, *args)
        if not hasattr(gen, "send"):
            raise MisuseError(
                MisuseKind.NON_GENERATOR_BODY,
                f"thread body {getattr(body, '__name__', body)!r} must be a "
                "generator function (did you forget to yield?)",
            )
        ts.gen = gen
        self.store_version += 1
        self.threads.append(ts)
        self._runnable.append(tid)  # tids are monotonic: stays sorted
        self._advance(ts, None)
        return ts.handle

    @property
    def num_created(self) -> int:
        return len(self.threads)

    @property
    def all_finished(self) -> bool:
        return self._finished_count == len(self.threads)

    # -- enabledness ---------------------------------------------------------

    def _op_enabled(
        self,
        op: Op,
        # Positional defaults bind the hot globals as locals; never pass.
        _FLAGS=_CONDITIONAL_FLAGS,
        _LOCK=OpKind.LOCK,
        _REACQUIRE=OpKind.REACQUIRE,
        _JOIN=OpKind.JOIN,
        _SEM_WAIT=OpKind.SEM_WAIT,
        _AWAIT=OpKind.AWAIT,
        _RW_RDLOCK=OpKind.RW_RDLOCK,
        _RW_WRLOCK=OpKind.RW_WRLOCK,
    ) -> bool:
        k = op.kind
        if not _FLAGS[k]:  # fast path: most ops never block
            return True
        if k is _LOCK or k is _REACQUIRE:
            return op.target.owner is None
        if k is _JOIN:
            return op.target.finished
        if k is _SEM_WAIT:
            return op.target.count > 0
        if k is _AWAIT:
            return bool(op.arg(op.target.value))
        if k is _RW_RDLOCK:
            return op.target.writer is None
        if k is _RW_WRLOCK:
            return op.target.writer is None and not op.target.readers
        return True

    def enabled(self) -> Tuple[int, ...]:
        """Sorted tuple of tids whose pending op can execute now."""
        if self.spurious_wakeups > 0:
            # Parked condvar waiters join the enabled set, interleaved by
            # tid with the runnable threads: full scan (rare mode).
            out = []
            for ts in self.threads:
                if (
                    ts.status is ThreadStatus.RUNNABLE
                    and ts.pending is not None
                    and self._op_enabled(ts.pending)
                ):
                    out.append(ts.tid)
                elif ts.status is ThreadStatus.WAITING and isinstance(
                    ts.wait_obj, CondVar
                ):
                    # Scheduling a condvar waiter wakes it spuriously.
                    out.append(ts.tid)
            return tuple(out)
        out = []
        threads = self.threads
        flags = _CONDITIONAL_FLAGS
        op_enabled = self._op_enabled
        for tid in self._runnable:
            op = threads[tid].pending
            # Inlined always-enabled fast path; only conditional kinds pay
            # the ``_op_enabled`` call (semantics identical).
            if op is not None and (not flags[op.kind] or op_enabled(op)):
                out.append(tid)
        return tuple(out)

    def tid_enabled(
        self, tid: int, _RUNNABLE=ThreadStatus.RUNNABLE, _FLAGS=_CONDITIONAL_FLAGS
    ) -> bool:
        """Whether one specific thread could execute now — the replay fast
        path's cheap membership test (``tid in self.enabled()`` without
        materialising the whole set).  The trailing defaults are
        local-bound globals; never pass them."""
        ts = self.threads[tid]
        if ts.status is _RUNNABLE:
            op = ts.pending
            return op is not None and (
                not _FLAGS[op.kind] or self._op_enabled(op)
            )
        return (
            self.spurious_wakeups > 0
            and ts.status is ThreadStatus.WAITING
            and isinstance(ts.wait_obj, CondVar)
        )

    def live_unfinished(self) -> List[ThreadState]:
        return [t for t in self.threads if t.status is not ThreadStatus.FINISHED]

    def blocked_description(self) -> str:
        parts = []
        for t in self.live_unfinished():
            if t.status is ThreadStatus.WAITING:
                parts.append(f"T{t.tid} parked on {t.wait_obj!r}")
            elif t.pending is not None:
                parts.append(
                    f"T{t.tid} blocked at {t.pending.kind.name} "
                    f"on {t.pending.target!r} ({t.pending.site})"
                )
        return "; ".join(parts)

    # -- stepping -------------------------------------------------------------

    def step(self, tid: int, _RUNNABLE=ThreadStatus.RUNNABLE) -> None:
        """Execute one step of thread ``tid`` (must be enabled).

        Executes the pending visible op, then advances the generator through
        invisible ops to the next visible boundary.  Sets ``self.bug`` if
        the step surfaces a bug.  (``_RUNNABLE`` is a local-bound global;
        never pass it.)
        """
        ts = self.threads[tid]
        if (
            self.spurious_wakeups > 0
            and ts.status is ThreadStatus.WAITING
            and isinstance(ts.wait_obj, CondVar)
        ):
            # Spurious wakeup: unpark without a signal.  This step either
            # reacquires the mutex (if free) or leaves the thread poised
            # at the reacquire, exactly like a signalled wake-up.
            self.spurious_wakeups -= 1
            self.store_version += 1
            cond: CondVar = ts.wait_obj
            cond.waiters.remove(tid)
            ts.status = ThreadStatus.RUNNABLE
            insort(self._runnable, tid)
            ts.pending = reacquire_op(ts.wait_data, site=f"<spurious:{cond.name}>")
            ts.wait_obj = None
            if ts.pending.target.owner is not None:
                # Mutex busy: the wake itself is the step (observers see a
                # no-op, not an acquire); the thread now blocks at the
                # reacquire like any other lock waiter.
                if self.observers:
                    self._notify_step(
                        tid, noop_op(site=f"<spurious:{cond.name}>"), None,
                        visible=True,
                    )
                self.last_tid = tid
                self.steps += 1
                return
        op = ts.pending
        assert op is not None and ts.status is _RUNNABLE
        ts.pending = None
        try:
            result, parked = self._execute(ts, op)
        except ConcurrencyBug as bug:
            self.bug = bug
            self.last_tid = tid
            self.steps += 1
            return
        if self.observers:
            self._notify_step(tid, op, result, visible=True)
        self.last_tid = tid
        self.steps += 1
        if not parked:
            self._advance(ts, result)

    def _advance(
        self,
        ts: ThreadState,
        send_value: Any,
        # Positional defaults bind the hot globals as locals; never pass.
        _OP=Op,
        _FLAGS=_DATA_FLAGS,
        _JOIN=OpKind.JOIN,
        _LOCK=OpKind.LOCK,
    ) -> None:
        """Drive ``ts``'s generator to its next visible op (or to the end).

        Hot loop: runs once per step plus once per invisible data access,
        so the visibility test (:meth:`_is_visible`) is inlined via
        ``_DATA_FLAGS`` and :meth:`_validate_poised` — which only acts on
        JOIN and LOCK — is gated here on those two kinds.
        """
        gen_send = ts.gen.send
        vf = self.visible_filter
        observers = self.observers
        while True:
            try:
                op = gen_send(send_value)
            except StopIteration as stop:
                self._finish_thread(ts, stop.value)
                return
            except ConcurrencyBug as bug:
                self.bug = bug
                return
            except RuntimeUsageError:
                # Program-API misuse: propagates to the executor, which
                # contains it as a non-bug ABORT outcome (never re-raised
                # out of the exploration loop).
                raise
            except Exception as exc:  # a crash in the program under test
                self.bug = CrashBug(
                    f"T{ts.tid} crashed: {type(exc).__name__}: {exc}", original=exc
                )
                return
            if type(op) is not _OP:
                raise MisuseError(
                    MisuseKind.NON_OP_YIELD,
                    f"T{ts.tid} yielded {op!r}; thread bodies must yield Op "
                    "records built via the ThreadContext API",
                )
            k = op.kind
            if not _FLAGS[k] or vf is None or vf(op):
                if k is _JOIN or k is _LOCK:
                    self._validate_poised(ts, op)
                ts.pending = op
                return
            # Invisible data access: service it within the current step.
            try:
                send_value = self._data_access(ts.tid, op)
            except ConcurrencyBug as bug:
                self.bug = bug
                return
            if observers:
                self._notify_step(ts.tid, op, send_value, visible=False)

    def _validate_poised(self, ts: ThreadState, op: Op) -> None:
        """Reject ops that can provably never execute (eager misuse checks).

        Runs once per visible-op poise; only JOIN and LOCK carry checks, so
        the hot path pays two identity comparisons.  A JOIN on the thread's
        own handle or on a handle from another execution, and a LOCK on a
        non-reentrant mutex the thread already owns, would otherwise park
        the thread forever and masquerade as a deadlock.
        """
        k = op.kind
        if k is OpKind.JOIN:
            handle = op.target
            if not isinstance(handle, ThreadHandle):
                raise MisuseError(
                    MisuseKind.STALE_HANDLE,
                    f"T{ts.tid} joins {handle!r}, which is not a thread "
                    f"handle, at {op.site}",
                    site=op.site,
                )
            if handle.tid == ts.tid:
                raise MisuseError(
                    MisuseKind.JOIN_SELF,
                    f"T{ts.tid} joins its own handle at {op.site}",
                    site=op.site,
                )
            if (
                handle.tid >= len(self.threads)
                or self.threads[handle.tid].handle is not handle
            ):
                raise MisuseError(
                    MisuseKind.STALE_HANDLE,
                    f"T{ts.tid} joins a handle from another execution "
                    f"(stale T{handle.tid}) at {op.site}",
                    site=op.site,
                )
        elif k is OpKind.LOCK and op.target.owner == ts.tid:
            raise MisuseError(
                MisuseKind.DOUBLE_ACQUIRE,
                f"T{ts.tid} re-locks non-reentrant mutex {op.target.name} "
                f"it already owns at {op.site}",
                site=op.site,
            )

    def _finish_thread(self, ts: ThreadState, value: Any) -> None:
        ts.status = ThreadStatus.FINISHED
        ts.handle.finished = True
        ts.handle.result = value
        self.store_version += 1
        self._finished_count += 1
        self._runnable.remove(ts.tid)

    def _is_visible(self, op: Op) -> bool:
        if op.kind not in DATA_KINDS:
            return True
        if self.visible_filter is None:
            return True
        return self.visible_filter(op)

    # -- op execution ----------------------------------------------------------

    def _execute(
        self,
        ts: ThreadState,
        op: Op,
        # Enum members bound as positional defaults (tuple-backed, so
        # they are filled with a cheap copy per call): the dispatch chain
        # below runs once per visible step and walks several ``k is X``
        # tests; locals are much cheaper than global + enum-attribute
        # loads.  Never pass these.
        _LOAD=OpKind.LOAD,
        _STORE=OpKind.STORE,
        _THREAD_START=OpKind.THREAD_START,
        _NOOP=OpKind.NOOP,
        _YIELD=OpKind.YIELD,
        _LOCK=OpKind.LOCK,
        _REACQUIRE=OpKind.REACQUIRE,
        _UNLOCK=OpKind.UNLOCK,
        _TRYLOCK=OpKind.TRYLOCK,
        _RMW=OpKind.RMW,
        _CAS=OpKind.CAS,
        _AWAIT=OpKind.AWAIT,
        _SPAWN=OpKind.SPAWN,
        _SPAWN_MANY=OpKind.SPAWN_MANY,
        _JOIN=OpKind.JOIN,
        _COND_WAIT=OpKind.COND_WAIT,
        _COND_SIGNAL=OpKind.COND_SIGNAL,
        _COND_BROADCAST=OpKind.COND_BROADCAST,
        _BARRIER_WAIT=OpKind.BARRIER_WAIT,
        _SEM_WAIT=OpKind.SEM_WAIT,
        _SEM_POST=OpKind.SEM_POST,
        _RW_RDLOCK=OpKind.RW_RDLOCK,
        _RW_WRLOCK=OpKind.RW_WRLOCK,
        _RW_UNLOCK=OpKind.RW_UNLOCK,
    ) -> Tuple[Any, bool]:
        """Execute a visible op.  Returns ``(result, parked)``."""
        k = op.kind
        tid = ts.tid
        if k is _LOAD or k is _STORE:
            return self._data_access(tid, op), False
        if k is _THREAD_START or k is _NOOP or k is _YIELD:
            return None, False
        if k is _LOCK or k is _REACQUIRE:
            m: Mutex = op.target
            assert m.owner is None
            m.owner = tid
            self.store_version += 1
            return None, False
        if k is _UNLOCK:
            m = op.target
            if m.owner != tid:
                raise MisuseError(
                    MisuseKind.UNLOCK_NOT_OWNER,
                    f"T{tid} unlocked {m.name} it does not own "
                    f"(owner={m.owner}) at {op.site}",
                    site=op.site,
                )
            m.owner = None
            self.store_version += 1
            return None, False
        if k is _TRYLOCK:
            m = op.target
            if m.owner is None:
                m.owner = tid
                self.store_version += 1
                return True, False
            return False, False
        if k is _SPAWN:
            return self.spawn(op.arg, (self.shared,) + tuple(op.arg2)), False
        if k is _SPAWN_MANY:
            handles = []
            for body, extra in op.arg:
                handles.append(self.spawn(body, (self.shared,) + tuple(extra)))
                if self.bug is not None:
                    break
            return tuple(handles), False
        if k is _JOIN:
            handle: ThreadHandle = op.target
            assert handle.finished
            handle.joined = True
            return handle.result, False
        if k is _COND_WAIT:
            cond: CondVar = op.target
            m = op.arg
            if m.owner != tid:
                raise MisuseError(
                    MisuseKind.WAIT_WITHOUT_LOCK,
                    f"T{tid} cond_wait on {cond.name} without holding "
                    f"{m.name} at {op.site}",
                    site=op.site,
                )
            m.owner = None
            cond.waiters.append(tid)
            ts.status = ThreadStatus.WAITING
            ts.wait_obj = cond
            ts.wait_data = m
            self._runnable.remove(tid)
            self.store_version += 1
            return None, True
        if k is _COND_SIGNAL:
            self._wake_waiters(ts.tid, op.target, limit=1)
            return None, False
        if k is _COND_BROADCAST:
            self._wake_waiters(ts.tid, op.target, limit=None)
            return None, False
        if k is _BARRIER_WAIT:
            barrier: Barrier = op.target
            barrier.waiting.append(tid)
            if len(barrier.waiting) >= barrier.parties:
                for wtid in barrier.waiting:
                    if wtid == tid:
                        continue
                    w = self.threads[wtid]
                    w.status = ThreadStatus.RUNNABLE
                    w.pending = noop_op(site=f"<barrier:{barrier.name}>")
                    w.wait_obj = None
                    insort(self._runnable, wtid)
                    self._notify_wake(tid, wtid, barrier)
                barrier.waiting = []
                self.store_version += 1
                return True, False  # serial thread (last arriver)
            ts.status = ThreadStatus.WAITING
            ts.wait_obj = barrier
            self._runnable.remove(tid)
            self.store_version += 1
            return False, True
        if k is _SEM_WAIT:
            sem: Semaphore = op.target
            assert sem.count > 0
            sem.count -= 1
            self.store_version += 1
            return None, False
        if k is _SEM_POST:
            op.target.count += 1
            self.store_version += 1
            return None, False
        if k is _RW_RDLOCK:
            rw: RWLock = op.target
            assert rw.writer is None
            rw.readers.append(tid)
            self.store_version += 1
            return None, False
        if k is _RW_WRLOCK:
            rw = op.target
            assert rw.writer is None and not rw.readers
            rw.writer = tid
            self.store_version += 1
            return None, False
        if k is _RW_UNLOCK:
            rw = op.target
            if rw.writer == tid:
                rw.writer = None
            elif tid in rw.readers:
                rw.readers.remove(tid)
            else:
                raise MisuseError(
                    MisuseKind.RW_UNLOCK_NOT_HELD,
                    f"T{tid} rw_unlock on {rw.name} it does not hold at {op.site}",
                    site=op.site,
                )
            self.store_version += 1
            return None, False
        if k is _RMW:
            target = op.target
            if isinstance(target, SharedArray):
                # Array variant: arg is the cell index, arg2 the function.
                old = target.read(op.arg)
                if op.arg2 is not None:
                    target.write(op.arg, op.arg2(old))
                    self.store_version += 1
                return old, False
            cell: Atomic = target
            old = cell.value
            if op.arg is not None:
                cell.value = op.arg(old)
                self.store_version += 1
            return old, False
        if k is _CAS:
            target = op.target
            if isinstance(target, SharedArray):
                # Array variant: arg is the cell index, arg2 (expected, new).
                expected, new = op.arg2
                old = target.read(op.arg)
                if old == expected:
                    target.write(op.arg, new)
                    self.store_version += 1
                    return (True, old), False
                return (False, old), False
            cell = target
            old = cell.value
            if old == op.arg:
                cell.value = op.arg2
                self.store_version += 1
                return (True, old), False
            return (False, old), False
        if k is _AWAIT:
            value = op.target.value
            assert op.arg(value)
            return value, False
        raise EngineInvariantError(f"unhandled op kind {k!r}")  # pragma: no cover

    def _data_access(
        self, tid: int, op: Op, _LOAD=OpKind.LOAD, _ARRAY=SharedArray
    ) -> Any:
        """Service a plain LOAD/STORE (visible or invisible).

        The trailing defaults bind the global lookups as locals; this
        runs once per data access, visible or not.  Never pass them.
        """
        target = op.target
        if op.kind is _LOAD:
            if isinstance(target, _ARRAY):
                return target.read(op.arg)
            return target.value
        # STORE
        if isinstance(target, _ARRAY):
            target.write(op.arg, op.arg2)
        else:
            target.value = op.arg
        self.store_version += 1
        return None

    def _wake_waiters(self, waker: int, cond: CondVar, limit: Optional[int]) -> None:
        n = len(cond.waiters) if limit is None else min(limit, len(cond.waiters))
        if n > 0:
            self.store_version += 1
        for _ in range(n):
            wtid = cond.waiters.pop(0)
            w = self.threads[wtid]
            w.status = ThreadStatus.RUNNABLE
            w.pending = reacquire_op(w.wait_data, site=f"<reacquire:{cond.name}>")
            w.wait_obj = None
            insort(self._runnable, wtid)
            self._notify_wake(waker, wtid, cond)

    # -- paranoid self-checks ----------------------------------------------------

    def check_invariants(self) -> None:
        """Validate the kernel's internal bookkeeping (self-check mode).

        Cross-checks the incrementally-maintained ``_runnable`` list and
        ``_finished_count`` against a fresh scan of the thread table.  Any
        mismatch is a harness bug, never a program bug — raised as
        :class:`~repro.runtime.errors.EngineInvariantError`, which is
        deliberately *not* contained by the executor.
        """
        expected = [
            ts.tid for ts in self.threads if ts.status is ThreadStatus.RUNNABLE
        ]
        if self._runnable != expected:
            raise EngineInvariantError(
                f"_runnable {self._runnable} != RUNNABLE scan {expected}"
            )
        for tid in self._runnable:
            if self.threads[tid].pending is None:
                raise EngineInvariantError(
                    f"RUNNABLE T{tid} has no pending op"
                )
        finished = sum(
            1 for ts in self.threads if ts.status is ThreadStatus.FINISHED
        )
        if self._finished_count != finished:
            raise EngineInvariantError(
                f"_finished_count {self._finished_count} != FINISHED scan {finished}"
            )
        for ts in self.threads:
            if ts.status is ThreadStatus.WAITING and ts.wait_obj is None:
                raise EngineInvariantError(f"WAITING T{ts.tid} has no wait_obj")

    # -- observer plumbing -------------------------------------------------------

    def _notify_step(self, tid: int, op: Op, result: Any, visible: bool) -> None:
        for obs in self.observers:
            obs.on_step(tid, op, result, visible)

    def _notify_wake(self, waker: int, woken: int, obj: Any) -> None:
        for obs in self.observers:
            obs.on_wake(waker, woken, obj)
