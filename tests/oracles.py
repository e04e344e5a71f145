"""Reference implementations the production code is pinned against.

Each of these was once a selectable production backend.  They survive
only as equivalence oracles for the tests and as the baseline side of
``benchmarks/bench_search_overhead.py``:

- :class:`RestartSearch` — restart-per-bound iterative bounding: a fresh
  :class:`~repro.core.dfs.BoundedDFS` per bound, re-executing every
  schedule of cost < ``c`` on the way to cost ``c`` (CHESS does the same;
  the paper treats this as implementation cost, not a metric).  It drives
  the production accounting loop through :class:`RestartBoundingExplorer`,
  whose ``record.cost < bound`` guard skips the re-executions;
- :func:`order_path` — an edge's DFS sort key, recomputed by replaying
  its schedule: the search keeps every frontier in DFS order by
  construction, and this is the independent witness of that order;
- :class:`RestartIBPOR` — iterative BPOR that restarts a fresh
  ``DPORExplorer`` per bound, with ``bound_pruned`` as the stop signal;
- :class:`DictVectorClock` — the sparse dict-backed vector clock, the
  behavioural model of the packed
  :class:`~repro.racedetect.vectorclock.VectorClock`;
- :func:`state_fingerprint` with :func:`_stable_value`,
  :func:`_stable_seq` and :func:`_frame_digest` — the ``isinstance``-chain
  state digest, the behavioural model of the type-dispatched one in
  :mod:`repro.engine.hardening`;
- :func:`serial_study` — the study as a plain per-benchmark loop (one
  race-detection phase, then every technique in turn), the reference
  for :class:`~repro.study.parallel.ParallelStudyRunner`'s results.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.core.bounds import DELAY, PREEMPTION, BoundCost
from repro.core.budget import Budget
from repro.core.dfs import BoundedDFS, OrderCache, RunRecord
from repro.core.dpor import IterativeBPORExplorer
from repro.core.explorer import ExplorationStats
from repro.core.iterative import IterativeBoundingExplorer
from repro.engine.executor import DEFAULT_MAX_STEPS, execute
from repro.engine.hardening import _STABLE_SCALARS, _UNSTABLE, _object_state
from repro.engine.state import VisibleFilter
from repro.engine.strategies import SchedulerStrategy, round_robin_choice
from repro.racedetect import detect_races
from repro.racedetect.vectorclock import Epoch
from repro.runtime.context import ThreadContext, ThreadHandle
from repro.runtime.objects import SharedObject
from repro.runtime.program import Program
from repro.study import taxonomy
from repro.study.config import StudyConfig
from repro.study.runner import (
    BenchmarkResult,
    StudyResult,
    _abort_flagged,
    _cell_budget,
    _filter_for,
    _run_technique,
    study_benchmarks,
)


class RestartSearch:
    """Per-bound search that restarts a fresh :class:`BoundedDFS` at every
    bound — the reference (naive) backend for iterative bounding."""

    def __init__(
        self,
        program: Program,
        cost_model: BoundCost,
        *,
        visible_filter: Optional[VisibleFilter] = None,
        max_steps: int = DEFAULT_MAX_STEPS,
        spurious_wakeups: int = 0,
        fast_replay: bool = True,
        budget: Optional[Budget] = None,
    ) -> None:
        self.program = program
        self.cost_model = cost_model
        self.visible_filter = visible_filter
        self.max_steps = max_steps
        self.spurious_wakeups = spurious_wakeups
        self.fast_replay = fast_replay
        self.budget = budget
        self._order_cache: OrderCache = {}
        self._pruned = False

    def runs_at_bound(self, bound: int) -> Iterator[RunRecord]:
        self._pruned = False
        dfs = BoundedDFS(
            self.program,
            self.cost_model,
            bound,
            visible_filter=self.visible_filter,
            max_steps=self.max_steps,
            spurious_wakeups=self.spurious_wakeups,
            order_cache=self._order_cache,
            fast_replay=self.fast_replay,
            budget=self.budget,
        )
        for record in dfs.runs():
            if record.pruned_any:
                self._pruned = True
            yield record

    def pruned_at_bound(self) -> bool:
        """Whether the last fully-drained bound pruned anything (i.e. the
        schedule space extends beyond it)."""
        return self._pruned

    def close(self) -> None:
        """Uniform backend cleanup hook (nothing to release here)."""


class RestartBoundingExplorer(IterativeBoundingExplorer):
    """IPB/IDB over :class:`RestartSearch` instead of the frontier."""

    def _search(self, program: Program, limit: int) -> RestartSearch:
        return RestartSearch(
            program,
            self.cost_model,
            visible_filter=self.visible_filter,
            max_steps=self.max_steps,
            spurious_wakeups=self.spurious_wakeups,
            budget=self.budget,
        )

    def explore(self, program: Program, limit: int) -> ExplorationStats:
        stats = super().explore(program, limit)
        if stats.counters is not None:
            # The accounting loop credits every earlier-bound run as
            # saved; a restart search re-executes them all.
            stats.counters.saved_executions = 0
        return stats


def make_restart_ipb(**kwargs) -> RestartBoundingExplorer:
    return RestartBoundingExplorer(PREEMPTION, "IPB", **kwargs)


def make_restart_idb(**kwargs) -> RestartBoundingExplorer:
    return RestartBoundingExplorer(DELAY, "IDB", **kwargs)


class _OrderProbe(SchedulerStrategy):
    """Replays ``schedule`` with every enabled set in view and records the
    chosen thread's position in the DFS candidate ordering at each step:
    the round-robin default first, then the others round-robin from the
    last thread — the bounded DFS's order, pruned candidates included."""

    def __init__(self, schedule: List[int]) -> None:
        self.schedule = schedule
        self.positions: List[int] = []

    def choose(self, step_index, enabled, last_tid, kernel):
        n = kernel.num_created
        default = round_robin_choice(enabled, last_tid, n)
        if step_index >= len(self.schedule):
            return default  # past the edge: finish the run, record nothing
        ordered = [default] + [
            tid
            for tid in ((last_tid + off) % n for off in range(n))
            if tid in enabled and tid != default
        ]
        tid = self.schedule[step_index]
        self.positions.append(ordered.index(tid))
        return tid


def order_path(
    program: Program,
    schedule: List[int],
    *,
    visible_filter: Optional[VisibleFilter] = None,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> Tuple[int, ...]:
    """The candidate positions along ``schedule``, from the root through
    its last step.  The candidate ordering does not depend on the bound,
    so lexicographic order on these tuples is the DFS visiting order of
    the whole schedule tree at every bound; a frontier, split remainder or
    holder share is in DFS order iff its edges' keys ascend."""
    probe = _OrderProbe(list(schedule))
    execute(
        program,
        probe,
        max_steps=max_steps,
        visible_filter=visible_filter,
        record_enabled=False,
    )
    if len(probe.positions) != len(schedule):
        raise AssertionError("schedule ended before its last step replayed")
    return tuple(probe.positions)


class RestartIBPOR(IterativeBPORExplorer):
    """Iterative BPOR that restarts a fresh ``DPORExplorer`` per bound."""

    def explore(self, program: Program, limit: int) -> ExplorationStats:
        stats = ExplorationStats(self.technique, program.name, limit)
        return self._explore_restart(program, limit, stats)

    def _explore_restart(
        self, program: Program, limit: int, stats: ExplorationStats
    ) -> ExplorationStats:
        for bound in range(self.max_bound + 1):
            stats.bound = bound
            stats.new_schedules_at_bound = 0
            inner = self._inner(bound)
            sub = inner.explore(program, max(1, limit - stats.schedules))
            if self._fold(stats, sub, bound):
                return stats
            if sub.completed and not inner.bound_pruned:
                stats.completed = True
                return stats
        return stats


class DictVectorClock:
    """The original sparse dict-backed clock.

    The behavioural reference for :class:`VectorClock` (see the property
    tests) and the baseline side of the vector-clock microbenchmark.
    Keep the two APIs identical.
    """

    __slots__ = ("_d",)

    def __init__(self, clocks: Optional[Dict[int, int]] = None) -> None:
        self._d: Dict[int, int] = dict(clocks) if clocks else {}

    @property
    def clocks(self) -> Dict[int, int]:
        return {tid: clk for tid, clk in self._d.items() if clk}

    def copy(self) -> "DictVectorClock":
        return DictVectorClock(self._d)

    def get(self, tid: int) -> int:
        return self._d.get(tid, 0)

    def set(self, tid: int, value: int) -> None:
        self._d[tid] = value

    def tick(self, tid: int) -> None:
        self._d[tid] = self._d.get(tid, 0) + 1

    def join(self, other: "DictVectorClock") -> None:
        for tid, clk in other._d.items():
            if clk > self._d.get(tid, 0):
                self._d[tid] = clk

    def epoch(self, tid: int) -> Epoch:
        return (tid, self._d.get(tid, 0))

    def covers_epoch(self, epoch: Epoch) -> bool:
        tid, clk = epoch
        return clk <= self._d.get(tid, 0)

    def leq(self, other: "DictVectorClock") -> bool:
        return all(clk <= other._d.get(tid, 0) for tid, clk in self._d.items())

    def items(self) -> Iterator[Tuple[int, int]]:
        return ((tid, clk) for tid, clk in sorted(self._d.items()) if clk)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DictVectorClock):
            return NotImplemented
        keys = set(self._d) | set(other._d)
        return all(self.get(k) == other.get(k) for k in keys)

    def __hash__(self) -> int:  # pragma: no cover - clocks are mutable
        raise TypeError("DictVectorClock is mutable and unhashable")

    def __repr__(self) -> str:
        inner = ", ".join(f"T{t}:{c}" for t, c in self.items())
        return f"DictVC({inner})"


def _stable_value(value: Any, depth: int = 0) -> Any:
    """A hashable, identity-free stand-in for one generator local.

    Anything we cannot represent faithfully returns ``_UNSTABLE``: the
    detector then treats the whole step as unique (sound — it can only
    *miss* livelocks, never invent one).
    """
    if isinstance(value, _STABLE_SCALARS):
        return value
    if depth >= 5:
        return _UNSTABLE
    if isinstance(value, ThreadHandle):
        return ("th", value.tid, value.finished)
    if isinstance(value, ThreadContext):
        return ("ctx", value.tid)
    if isinstance(value, SharedObject):
        # Shared-object *contents* are covered by store_version (every
        # mutation bumps it); the local just names the object.
        return ("obj", value.name)
    if isinstance(value, tuple):
        return _stable_seq("t", value, depth)
    if isinstance(value, list):
        return _stable_seq("l", value, depth)
    if isinstance(value, dict):
        if len(value) > 64:
            return _UNSTABLE
        out: List[Any] = ["d"]
        try:
            items = sorted(value.items())
        except TypeError:
            return _UNSTABLE
        for k, v in items:
            sv = _stable_value(v, depth + 1)
            if sv is _UNSTABLE:
                return _UNSTABLE
            out.append((k, sv))
        return tuple(out)
    gen_frame = getattr(value, "gi_frame", None)
    if gen_frame is not None:
        # A nested generator (``yield from`` delegation): fingerprint its
        # frame position and locals recursively.
        return _frame_digest(gen_frame, depth + 1)
    attrs = getattr(value, "__dict__", None)
    if attrs is not None:
        # Shared-state namespaces (SimpleNamespace, ad-hoc classes): recurse
        # so *untracked* plain-Python mutations (a growing list, a counter
        # attribute) still change the fingerprint — a loop whose exit
        # condition reads such state can never be mistaken for a lasso.
        inner = _stable_value(dict(attrs), depth + 1)
        if inner is _UNSTABLE:
            return _UNSTABLE
        return ("ns", type(value).__name__, inner)
    return _UNSTABLE


def _stable_seq(tag: str, seq, depth: int):
    if len(seq) > 64:
        return _UNSTABLE
    out = [tag]
    for item in seq:
        sv = _stable_value(item, depth + 1)
        if sv is _UNSTABLE:
            return _UNSTABLE
        out.append(sv)
    return tuple(out)


def _frame_digest(frame, depth: int = 0) -> Any:
    if frame is None:
        return ("done",)
    items: List[Any] = [frame.f_lasti]
    for name, value in sorted(frame.f_locals.items()):
        sv = _stable_value(value, depth)
        if sv is _UNSTABLE:
            return _UNSTABLE
        items.append((name, sv))
    return tuple(items)


def state_fingerprint(kernel, enabled: Tuple[int, ...]) -> Optional[Any]:
    """A hashable identity for the *full* execution state, or ``None``.

    Unlike :meth:`LassoDetector._fingerprint` (which brackets a single run
    and can lean on the monotonic ``store_version``), this digest must be
    comparable across *different* executions of the same program, so it
    hashes the actual contents of every named shared object, every live
    thread's status/poised-op/frame, and the results of finished threads
    (a joiner may still read them).  Plain-Python shared state (lists,
    namespaces) is covered by the frame digests — the shared namespace is
    a local of every thread body.  ``None`` means "cannot be stably
    fingerprinted"; callers must treat such states as unique.
    """
    from repro.engine.state import ThreadStatus

    shared: List[Any] = []
    for obj in kernel.naming.objects:
        sv = _stable_value(_object_state(obj), 1)
        if sv is _UNSTABLE:
            return None
        shared.append((obj.name, sv))
    parts: List[Any] = [tuple(shared), enabled]
    for ts in kernel.threads:
        if ts.status is ThreadStatus.FINISHED:
            handle = getattr(ts, "handle", None)
            result = getattr(handle, "result", None) if handle is not None else None
            sv = _stable_value(result, 1)
            if sv is _UNSTABLE:
                return None
            parts.append(("fin", ts.tid, sv))
            continue
        op = ts.pending
        if op is not None:
            op_key = (op.kind, op.site, getattr(op.target, "name", None))
        elif ts.wait_obj is not None:
            op_key = (
                "wait",
                getattr(ts.wait_obj, "name", None),
                getattr(ts.wait_data, "name", None),
            )
        else:
            return None
        digest = _frame_digest(ts.gen.gi_frame)
        if digest is _UNSTABLE:
            return None
        parts.append((ts.tid, int(ts.status), op_key, digest))
    return tuple(parts)


def serial_study(config: StudyConfig) -> StudyResult:
    """Run the study as a plain loop: per benchmark, race detection on one
    program object, then each technique on it in turn.  Exceptions
    propagate; nothing is retried, supervised or stored."""
    results = []
    for info in study_benchmarks(config):
        t0 = time.monotonic()
        program = info.make()
        report = detect_races(
            program,
            runs=config.detection_runs,
            seed=config.detection_seed,
            max_steps=config.max_steps,
        )
        visible_filter = _filter_for(report)
        stats: Dict[str, ExplorationStats] = {}
        statuses: Dict[str, str] = {}
        for name in config.techniques:
            st = _run_technique(
                program, info, name, config, visible_filter,
                _cell_budget(config),
            )
            stats[name] = st
            if st.deadline_hit:
                statuses[name] = taxonomy.TIMEOUT
            elif not st.found_bug and _abort_flagged(st):
                statuses[name] = taxonomy.ABORTED
        results.append(
            BenchmarkResult(
                info, report, stats, time.monotonic() - t0, statuses=statuses
            )
        )
    return StudyResult(config, results)
