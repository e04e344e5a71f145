"""Intra-cell parallel schedule exploration: shard one search across
worker processes with a deterministic merge.

``--jobs`` (the parallel study runner) stops helping once fewer cells
remain than cores: a single (benchmark, technique) pair exploring up to
10,000 terminal schedules runs strictly serially.  This module
parallelizes *inside* a cell while keeping the paper's accounting
byte-identical to the serial run:

**Systematic techniques (DFS / IPB / IDB).**  Frontier resumption
(:class:`repro.core.iterative.FrontierSearch`) already represents
unexplored work as :class:`~repro.core.dfs.PrunedEdge` subtrees kept in
DFS order.  A *shard descriptor* is exactly one such edge, serialized
(:meth:`PrunedEdge.to_payload`).  The parent executes run #1 of a bound
in-process, detaches the rest of the tree with
:meth:`BoundedDFS.split_remaining` — an ordered remainder: an exact
disjoint partition of the remaining subtree, with the bound's pending
pruned edges in place — and sends it to a process pool in *slices*:
consecutive edges, one task each.  A worker walks its slice with
:func:`~repro.core.dfs.in_order`, exploring beneath each edge the bound
affords and letting every other edge join its frontier where it stands.
Workers send back trimmed run summaries plus the frontier edges they
kept, in DFS order; the parent emits summaries in remainder order, which
*is* the serial DFS visiting order, so the merged stream feeds the
unmodified explorer accounting loops and every
``ExplorationStats.as_dict()`` field matches the serial run by
construction.  (Only the opt-in ``EngineCounters.replayed_steps``
telemetry differs: a worker's first run replays its full root prefix
where the serial search would have taken a minimal backtrack.)

**Work redistribution.**  A slice holds at most half the run budget
(``split_runs``) of edges, and at most an equal share per worker of what
remains of the walk, so every worker has work when a walk starts.  The
worker walks it under that one budget; when it runs out with work left,
the worker calls ``split_remaining`` on its current search and returns
that remainder plus the index of the slice's first unstarted edge (the
parent still holds those edges).  The parent re-slices both and walks
them *in place* of the slice — cooperative splitting of the largest
live subtrees, so one huge subtree cannot serialize the tail of the
computation.  A slice costs one pickle round trip, where one task per
edge cost one per edge (mostly a single sub-millisecond execution).

**The frontier cap across processes.**  Each task carries the parent
frontier's :meth:`~repro.core.dfs.Frontier.counts` at dispatch, and the
worker's frontier starts from them, so it drops, never materializing or
shipping them, edges the parent's cap would drop.  It drops no edge the
parent keeps: the counts cover only edges before the slice and only grow
(DESIGN.md §13).  Its drops come back with the result and join the
parent's ``Frontier.dropped``.

**Randomized techniques (Rand / PCT).**  Sharding by schedule-index
ranges requires a random stream that is a function of the *execution
index*, not of the shard: execution ``j`` draws from
``random.Random(derive_shard_seed(seed, j))`` (SHA-256, same recipe as
the study's per-cell seeds).  Each shard runs the explorer's own loop
on a copy of it with ``shards=1`` and the shard's slice of
``execution_seeds``; PCT calibrates once, in the parent.  The merged
stream is therefore identical for every shard count and for the
in-process (inline) execution of the same plan — but it is *not* the
classic single-RNG stream, so sharding is part of the experiment's
fingerprint (``StudyConfig.cell_shards``).  ``shards=1`` keeps the
classic explorers untouched.

**Cancellation.**  The merged stream is a generator; closing it early
(schedule limit, first-bug-wins, an expired
:class:`~repro.core.budget.Budget`) cancels every undispatched shard.
Budgets ship to workers by value: wall-clock deadlines transfer exactly
(``time.monotonic`` is system-wide on Linux), work ceilings apply per
worker.
"""

from __future__ import annotations

import copy
import hashlib
import pickle
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from typing import Callable, Iterator, List, Optional, Tuple

from ..engine.executor import DEFAULT_MAX_STEPS
from ..engine.trace import Outcome
from ..runtime.errors import MisuseReport
from ..runtime.program import Program
from .bounds import DELAY, NO_BOUND, PREEMPTION, BoundCost
from .dfs import (
    BoundedDFS,
    Frontier,
    OrderCache,
    PrunedEdge,
    RunRecord,
    affords,
    in_order,
)

#: Default per-task run budget before a worker splits its remainder.
DEFAULT_SPLIT_RUNS = 64

#: ``prctl(2)`` option: deliver a signal to this process when its parent
#: dies.  Linux-only; the initializer degrades to a no-op elsewhere.
_PR_SET_PDEATHSIG = 1


def _shard_worker_init() -> None:
    """Shard-pool worker initializer: die with the parent, reset signals.

    A shard worker whose cell worker is SIGKILLed (watchdog, kernel OOM
    killer) is reparented to init and would keep exploring headless.
    ``PR_SET_PDEATHSIG`` makes the kernel SIGKILL the worker the moment
    its parent dies — containment that needs no supervisor to be
    watching.  Signal dispositions are reset so a study-parent's drain
    handlers (inherited through two fork levels) cannot make the worker
    ignore termination.
    """
    import signal as _signal

    try:
        _signal.signal(_signal.SIGTERM, _signal.SIG_DFL)
        _signal.signal(_signal.SIGINT, _signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover - exotic hosts
        pass
    try:
        import ctypes

        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(_PR_SET_PDEATHSIG, _signal.SIGKILL, 0, 0, 0)
    except (OSError, AttributeError):  # pragma: no cover - non-Linux
        pass


#: Shippable cost models, by :attr:`BoundCost.name`.  Sharded search
#: sends the *name* across the process boundary and resolves it here, so
#: custom cost models must be registered (or run unsharded).
_COST_MODELS = {
    "none": NO_BOUND,
    "preemption": PREEMPTION,
    "delay": DELAY,
}


def derive_shard_seed(base_seed: Optional[int], index: int) -> int:
    """Independent seed for one shard / execution index.

    Same construction as :func:`repro.study.config.derive_seed`: SHA-256
    of the pair, stable across processes and Python runs, so sharded
    random streams are reproducible regardless of which worker executes
    which index.
    """
    digest = hashlib.sha256(f"{base_seed}:shard:{index}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def resolve_program(source) -> Program:
    """Build the program a shard worker explores.

    ``("bench", name)`` looks the benchmark up in the SCTBench registry;
    any other value must be a zero-argument picklable factory (e.g. a
    module-level ``make_*`` function).
    """
    if isinstance(source, tuple) and len(source) == 2 and source[0] == "bench":
        from ..sctbench import get as get_benchmark

        return get_benchmark(source[1]).make()
    if callable(source):
        return source()
    raise TypeError(f"unsupported program source: {source!r}")


#: Per-worker-process program cache: a Program is reusable across any
#: number of controlled executions, so each worker builds it once.
_PROGRAM_CACHE: dict = {}


def _cached_program(source) -> Program:
    # Keyed by the pickled source: every pool task unpickles a fresh
    # source object, so identity would miss on every task (and an id
    # reused after garbage collection could name another source).
    key = pickle.dumps(source, protocol=pickle.HIGHEST_PROTOCOL)
    program = _PROGRAM_CACHE.get(key)
    if program is None:
        program = resolve_program(source)
        _PROGRAM_CACHE[key] = program
    return program


class BugStub:
    """Picklable stand-in for a worker-side bug object.

    Quacks exactly like the original where the explorers look:
    ``str(result.bug)`` and ``getattr(bug, "traceback", None)``
    (:meth:`repro.core.explorer.BugReport.from_result`).
    """

    __slots__ = ("message", "traceback")

    def __init__(self, message: str, traceback: Optional[str]) -> None:
        self.message = message
        self.traceback = traceback

    def __str__(self) -> str:
        return self.message


class RunSummary:
    """The slice of an :class:`~repro.engine.trace.ExecutionResult` the
    explorer accounting loops actually read, in picklable form.

    Shipping full results would drag per-step ``enabled_sets`` and shared
    state across the process boundary; this carries exactly the fields
    :meth:`ExplorationStats.account`, :meth:`BugReport.from_result` and
    :class:`EngineCounters` consume —
    plus the full ``schedule``, which equivalence tests and bug reports
    need.
    """

    __slots__ = (
        "outcome",
        "bug",
        "schedule",
        "steps",
        "choice_points",
        "max_enabled",
        "threads_created",
        "recorded_from",
        "misuse",
        "leaks",
        "lasso_len",
        "restored_steps",
    )

    def __init__(
        self,
        outcome: Outcome,
        bug,
        schedule: List[int],
        steps: int,
        choice_points: int,
        max_enabled: int,
        threads_created: int,
        recorded_from: int,
        misuse: Optional[MisuseReport],
        leaks: Tuple[str, ...],
        lasso_len: int,
        restored_steps: int = 0,
    ) -> None:
        self.outcome = outcome
        self.bug = bug
        self.schedule = schedule
        self.steps = steps
        self.choice_points = choice_points
        self.max_enabled = max_enabled
        self.threads_created = threads_created
        self.recorded_from = recorded_from
        self.misuse = misuse
        self.leaks = leaks
        self.lasso_len = lasso_len
        #: Prefix steps inherited from a live fork snapshot instead of
        #: being replayed (engine/snapshot.py holders; 0 everywhere else).
        self.restored_steps = restored_steps

    @property
    def is_buggy(self) -> bool:
        return self.outcome.is_bug

    @classmethod
    def from_result(cls, result, schedule_base: int = 0) -> "RunSummary":
        """``schedule_base`` > 0 ships only ``schedule[schedule_base:]``
        — the snapshot runner's delta encoding (engine/snapshot.py): the
        prefix is reconstructed at the collecting root from the previous
        run in the stream, so a forked child never touches (and so never
        copy-on-write-faults or re-pickles) the deep shared prefix."""
        bug = result.bug
        if bug is not None:
            bug = BugStub(str(bug), getattr(bug, "traceback", None))
        return cls(
            result.outcome,
            bug,
            result.schedule[schedule_base:] if schedule_base
            else list(result.schedule),
            result.steps,
            result.choice_points,
            result.max_enabled,
            result.threads_created,
            result.recorded_from,
            result.misuse,
            tuple(result.leaks) if result.leaks else (),
            result.lasso_len or 0,
        )


# -- worker entry points (module-level, hence picklable) --------------------


class SubtreeSpec:
    """Everything that builds a :class:`BoundedDFS` beneath any root except
    the bound: the one construction site the frontier searches, shard
    workers and snapshot holders share (searches built here always take
    the replay fast path).

    Picklable for the pool boundary: the program travels as its
    ``program_source`` (a worker resolves it once, :func:`_subtree_worker`)
    and the cost model by name; the order cache stays home.
    ``snapshots`` makes :func:`_subtree_worker` wrap each subtree in a COW
    snapshot runner (``engine/snapshot.py``) — shard workers are natural
    fork sites, so sharding and snapshotting compose.
    """

    __slots__ = (
        "program",
        "cost_model",
        "visible_filter",
        "max_steps",
        "spurious_wakeups",
        "budget",
        "program_source",
        "snapshots",
        "order_cache",
    )

    def __init__(
        self,
        program: Optional[Program],
        cost_model: BoundCost,
        *,
        visible_filter=None,
        max_steps: int = DEFAULT_MAX_STEPS,
        spurious_wakeups: int = 0,
        budget=None,
        program_source=None,
        snapshots: bool = False,
    ) -> None:
        self.program = program
        self.cost_model = cost_model
        self.visible_filter = visible_filter
        self.max_steps = max_steps
        self.spurious_wakeups = spurious_wakeups
        self.budget = budget
        self.program_source = program_source
        self.snapshots = snapshots
        #: Candidate orderings, shared by every search built here (they
        #: are pure functions of the scheduling state).
        self.order_cache: OrderCache = {}

    def search(
        self,
        bound: Optional[int],
        root: Optional[PrunedEdge] = None,
        frontier: Optional[List[PrunedEdge]] = None,
    ) -> BoundedDFS:
        return BoundedDFS(
            self.program,
            self.cost_model,
            bound,
            visible_filter=self.visible_filter,
            max_steps=self.max_steps,
            spurious_wakeups=self.spurious_wakeups,
            root=root,
            frontier=frontier,
            order_cache=self.order_cache,
            fast_replay=True,
            budget=self.budget,
        )

    def replaying(self) -> "SubtreeSpec":
        """This spec without snapshots (same program and order cache)."""
        if not self.snapshots:
            return self
        spec = SubtreeSpec(
            self.program,
            self.cost_model,
            visible_filter=self.visible_filter,
            max_steps=self.max_steps,
            spurious_wakeups=self.spurious_wakeups,
            budget=self.budget,
        )
        spec.order_cache = self.order_cache
        return spec

    def __getstate__(self):
        return (
            self.program_source,
            self.cost_model.name,
            self.visible_filter,
            self.max_steps,
            self.spurious_wakeups,
            self.budget,
            self.snapshots,
        )

    def __setstate__(self, state) -> None:
        (
            self.program_source,
            cost_name,
            self.visible_filter,
            self.max_steps,
            self.spurious_wakeups,
            self.budget,
            self.snapshots,
        ) = state
        self.program = None
        self.cost_model = _COST_MODELS[cost_name]
        self.order_cache = {}


def _subtree_worker(
    spec: SubtreeSpec,
    bound: Optional[int],
    payloads: List[dict],
    split_runs: Optional[int],
    counts: Optional[tuple],
):
    """Walk one shard task — an ordered slice of a remainder, as edge
    payloads — under one budget of ``split_runs`` runs; the pool entry
    point (and the snapshot runner's dead-holder fallback).

    The walk is :func:`~repro.core.dfs.in_order`: the subtree beneath
    each edge the bound affords is explored in turn, and every other
    edge joins the frontier where it stands.  ``counts`` is ``None``
    when no frontier is wanted, else the parent frontier's
    :meth:`Frontier.counts` at dispatch: the worker's frontier is seeded
    with them, so it drops only edges the parent's would drop and never
    ships them.

    Returns ``(runs, frontier, leftovers, unstarted, exhausted,
    dropped)``: ``runs`` is a list of ``(RunSummary, cost, pruned_any)``
    in DFS order; ``frontier`` the payloads of the edges the frontier
    kept, in DFS order, pickled as one block (``b""`` when none), so a
    result waiting for its turn at the parent holds bytes, not a dict
    and a schedule list per edge; when the budget ran out with work left,
    ``leftovers`` (payloads) is the current subtree's ordered remainder
    and ``unstarted`` the index of the slice's first unstarted edge —
    together the rest of the slice, all after ``frontier``;
    ``exhausted`` whether the whole slice was enumerated; ``dropped``
    how many edges the frontier dropped.  A spec unpickled in a pool
    worker resolves its program here.
    """
    snapshot_mod = None
    if spec.snapshots:
        from ..engine import snapshot as snapshot_mod
    if spec.program is None:
        spec.program = _cached_program(spec.program_source)
    frontier = None if counts is None else Frontier.seeded(counts)
    remainder = [PrunedEdge.from_payload(p) for p in payloads]
    runs: List[Tuple[RunSummary, int, bool]] = []
    leftovers: List[dict] = []
    exhausted = True
    for root in in_order(remainder, bound, [] if frontier is None else frontier):
        if spec.snapshots and snapshot_mod.fork_available():
            # No look-ahead tokens: holders run only in their turn, so a
            # worker keeps one process busy and never oversubscribes the
            # pool.
            search = snapshot_mod.SnapshotRunner(
                spec, bound, root=root, frontier=frontier
            )
        else:
            search = spec.search(bound, root, frontier)
        stream = search.runs()
        try:
            for record in stream:
                result = record.result
                summary = (
                    result
                    if isinstance(result, RunSummary)
                    else RunSummary.from_result(result)
                )
                runs.append((summary, record.cost, record.pruned_any))
                if summary.outcome is Outcome.TIMEOUT:
                    # Budget expired mid-subtree: the parent stops the
                    # whole exploration at this record, so the rest of
                    # the slice is moot.
                    exhausted = False
                    break
                if (
                    split_runs is not None
                    and len(runs) >= split_runs
                    and not search.exhausted
                    # A snapshot runner mid holder batch holds records
                    # that have no edge descriptor (their child already
                    # exited); overrun the soft split budget to the batch
                    # boundary rather than lose them.
                    and not getattr(search, "mid_batch", False)
                ):
                    leftovers = [
                        e.to_payload() for e in search.split_remaining()
                    ]
                    break
        finally:
            stream.close()
        if (
            not exhausted
            or leftovers
            or (split_runs is not None and len(runs) >= split_runs)
        ):
            break
    return (
        runs,
        pickle.dumps(
            [e.to_payload() for e in frontier],
            protocol=pickle.HIGHEST_PROTOCOL,
        ) if frontier else b"",
        leftovers,
        len(payloads) - len(remainder),
        exhausted and not leftovers and not remainder,
        0 if frontier is None else frontier.dropped,
    )


def _index_shard_worker(explorer, program: Optional[Program] = None):
    """Run one Rand/PCT shard: ``explorer`` is a copy of the configured
    explorer with ``shards=1`` and its slice of ``execution_seeds``."""
    if program is None:
        program = _cached_program(explorer.program_source)
    return explorer.explore(program, len(explorer.execution_seeds))


# -- the parent-side merge --------------------------------------------------


class _ShardItem:
    """One worklist entry: an ordered slice of the remainder and, once
    dispatched, its result.  A slice the bound affords nothing of is
    never sent: its edges join the frontier when it reaches the head."""

    __slots__ = ("edges", "sends", "future", "result")

    def __init__(self, edges: List[PrunedEdge], bound: Optional[int]) -> None:
        self.edges = edges
        self.sends = any(affords(bound, e) for e in edges)
        self.future = None
        self.result = None


def _inline_future(fn: Callable, *args) -> Future:
    """Run ``fn`` now, wrap the outcome in a completed Future — the
    degenerate executor used when no process pool is available.  The
    merge path is byte-identical either way: emission order never
    depends on completion timing."""
    fut: Future = Future()
    try:
        fut.set_result(fn(*args))
    except BaseException as exc:  # pragma: no cover - worker bug surface
        fut.set_exception(exc)
    return fut


def shard_pool(workers: int) -> ProcessPoolExecutor:
    """The one shard-worker pool: ``workers`` processes that die with
    their parent (:func:`_shard_worker_init`)."""
    return ProcessPoolExecutor(
        max_workers=workers, initializer=_shard_worker_init
    )


class ShardedSearchBase:
    """Shared pool/merge machinery of the sharded searches."""

    def __init__(
        self,
        program: Program,
        cost_model: BoundCost,
        *,
        shards: int,
        program_source=None,
        visible_filter=None,
        max_steps: int = DEFAULT_MAX_STEPS,
        spurious_wakeups: int = 0,
        budget=None,
        snapshots: bool = False,
    ) -> None:
        if shards < 1:
            raise ValueError("shards must be >= 1")
        if cost_model.name not in _COST_MODELS:
            raise ValueError(
                f"cost model {cost_model.name!r} is not shippable to shard "
                "workers (register it in repro.core.sharding._COST_MODELS "
                "or run unsharded)"
            )
        self.shards = shards
        #: Per-task run budget before a worker splits its remainder (read
        #: at construction, so tests can tune it through the constant).
        self.split_runs = DEFAULT_SPLIT_RUNS
        self.spec = SubtreeSpec(
            program,
            cost_model,
            visible_filter=visible_filter,
            max_steps=max_steps,
            spurious_wakeups=spurious_wakeups,
            budget=budget,
            program_source=program_source,
            snapshots=snapshots,
        )
        self._pool: Optional[ProcessPoolExecutor] = None

    @property
    def inline(self) -> bool:
        """Whether shard tasks run in-process (no picklable program
        source, or a single shard): same code path, same merged stream,
        no pool."""
        return self.spec.program_source is None or self.shards == 1

    def close(self) -> None:
        """Release the worker pool (idempotent)."""
        pool = self._pool
        self._pool = None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)

    def _submit(
        self, bound: Optional[int], payload: List[dict], want_frontier: bool
    ):
        """Dispatch one slice (edge payloads); a wanted frontier is seeded
        with ``self._frontier``'s counts as they stand now."""
        counts = self._frontier.counts() if want_frontier else None
        args = (self.spec, bound, payload, self.split_runs, counts)
        if self.inline:
            return _inline_future(_subtree_worker, *args)
        if self._pool is None:
            self._pool = shard_pool(self.shards)
        return self._pool.submit(_subtree_worker, *args)

    def _absorb(self, head: _ShardItem, bound: Optional[int]):
        """Take the head's result: its frontier joins ``self._frontier``
        and the rest of its slice becomes new items, in order.  Returns
        ``(runs, exhausted, items)``."""
        runs, frontier, leftovers, unstarted, exhausted, dropped = head.result
        head.result = None
        if frontier:
            self._frontier.extend(
                PrunedEdge.from_payload(p) for p in pickle.loads(frontier)
            )
        if dropped:
            self._frontier.dropped += dropped
        rest = [PrunedEdge.from_payload(p) for p in leftovers]
        rest.extend(head.edges[unstarted:])
        rest.reverse()
        items = []
        while rest:
            items.append(_ShardItem(self._slice(rest), bound))
        return runs, exhausted, items

    def _slice(self, stack: List[PrunedEdge]) -> List[PrunedEdge]:
        """Pop the next task's edges off ``stack`` (an ordered remainder,
        reversed): at most half the run budget of them (rounded up), and
        at most an equal share per worker of what remains, so every worker
        has work when a walk starts."""
        half = -(-self.split_runs // 2)
        size = max(1, min(half, -(-len(stack) // self.shards)))
        edges = stack[-size:]
        del stack[-size:]
        edges.reverse()
        return edges

    def _split_and_drive(
        self,
        bound: Optional[int],
        frontier: Optional[List[PrunedEdge]],
        on_last: Optional[Callable[[], None]] = None,
    ) -> Iterator[RunRecord]:
        """Execute run #1 in-process (the shared round-robin schedule),
        detach the rest of the tree with
        :meth:`BoundedDFS.split_remaining` and drive the pieces."""
        dfs = self.spec.search(bound, frontier=frontier)
        gen = dfs.runs()
        try:
            first = next(gen)
            roots = dfs.split_remaining()
        finally:
            gen.close()
        if not roots and on_last is not None:
            on_last()
        yield first
        if roots:
            yield from self._drive(bound, roots, frontier is not None, on_last)

    def _drive(
        self,
        bound: Optional[int],
        roots: List[PrunedEdge],
        want_frontier: bool,
        on_last: Optional[Callable[[], None]] = None,
    ) -> Iterator[RunRecord]:
        """Walk an ordered remainder in slices: send consecutive edges as
        one task (:func:`_subtree_worker`) and emit the runs in exact DFS
        order; a slice's edges the bound does not afford join the
        frontier where they stand.

        ``roots`` (``split_remaining``'s output or the old frontier) is
        consumed as the walk goes; edges become payloads here, at the pool
        boundary.  The head item's runs are emitted the moment its result
        arrives, after its frontier payloads join ``self._frontier``; the
        rest of a slice whose budget ran out — the worker's leftovers,
        then the slice's unstarted edges, which the parent still holds —
        is walked *in place of* the head: it follows everything the head
        emitted, so order is preserved.  Out-of-order completions are
        buffered.  ``on_last`` fires just before the final record of the
        final item is yielded (the sharded analogue of the serial
        search's eager backtracking: ``exhausted`` is accurate at every
        yield).
        """
        roots.reverse()  # pop() walks it front to back
        window: deque = deque()  # reached items, head first
        waiting: deque = deque()  # reached items to send, not yet sent
        in_flight: dict = {}
        try:
            while window or roots:
                # Keep the earliest unsent slices in flight.
                while len(in_flight) < self.shards:
                    if waiting:
                        item = waiting.popleft()
                    elif roots:
                        item = _ShardItem(self._slice(roots), bound)
                        window.append(item)
                        if not item.sends:
                            continue
                    else:
                        break
                    item.future = self._submit(
                        bound, [e.to_payload() for e in item.edges],
                        want_frontier,
                    )
                    in_flight[item.future] = item
                head = window[0]
                if not head.sends:
                    window.popleft()
                    self._frontier.extend(head.edges)
                    continue
                if head.result is None:
                    done, _ = wait(
                        set(in_flight), return_when=FIRST_COMPLETED
                    )
                    for fut in done:
                        item = in_flight.pop(fut)
                        item.result = fut.result()
                        item.future = None
                    continue
                window.popleft()
                runs, exhausted, rest = self._absorb(head, bound)
                window.extendleft(reversed(rest))
                waiting.extendleft(reversed([i for i in rest if i.sends]))
                last_item = not window and not roots
                for i, (summary, cost, pruned_any) in enumerate(runs):
                    if (
                        last_item
                        and exhausted
                        and i == len(runs) - 1
                        and on_last is not None
                    ):
                        on_last()
                    yield RunRecord(summary, cost, pruned_any)
        finally:
            for fut in list(in_flight):
                fut.cancel()


class ShardedDFS(ShardedSearchBase):
    """Sharded unbounded depth-first search (drop-in for the
    :class:`BoundedDFS` run stream inside :class:`DFSExplorer`).

    Run #1 *is* the serial first run, executed in-process; the remainder
    of the tree is then distributed.  ``exhausted`` matches the serial
    contract: accurate at every yield.
    """

    def __init__(self, program: Program, **kwargs) -> None:
        super().__init__(program, NO_BOUND, **kwargs)
        self._exhausted = False

    @property
    def exhausted(self) -> bool:
        return self._exhausted

    def _mark_exhausted(self) -> None:
        self._exhausted = True

    def runs(self) -> Iterator[RunRecord]:
        yield from self._split_and_drive(None, None, self._mark_exhausted)


class ShardedFrontierSearch(ShardedSearchBase):
    """Sharded frontier-resuming backend for iterative bounding.

    Same search-backend protocol as
    :class:`repro.core.iterative.FrontierSearch` (``runs_at_bound`` /
    ``pruned_at_bound`` / ``close``), same enumerated set, order and
    frontier: at bound 0 the parent executes run #1 in-process with the
    frontier as its sink and distributes the rest of the tree; at later
    bounds the old frontier is walked the same way, in slices whose
    edges the bound does not afford stay where they stand.  Workers ship
    the edges they keep back as payloads, in DFS order; disjoint
    subtrees never duplicate an edge, so the union is exactly the serial
    frontier, in the serial order.  ``limit`` caps it exactly as the
    serial frontier is capped, on both sides of the pool boundary.
    """

    def __init__(
        self,
        program: Program,
        cost_model: BoundCost,
        *,
        limit: Optional[int] = None,
        **kwargs,
    ) -> None:
        super().__init__(program, cost_model, **kwargs)
        self._limit = limit
        self._frontier = Frontier(limit)
        self._started = False

    def runs_at_bound(self, bound: int) -> Iterator[RunRecord]:
        if not self._started:
            self._started = True
            yield from self._split_and_drive(bound, self._frontier)
            return
        old, self._frontier = self._frontier, Frontier(self._limit)
        yield from self._drive(bound, old, want_frontier=True)

    def pruned_at_bound(self) -> bool:
        return bool(self._frontier)


# -- randomized-technique sharding ------------------------------------------


def split_indices(limit: int, shards: int) -> List[Tuple[int, int]]:
    """Contiguous ``[start, stop)`` execution-index ranges, one per shard
    (earlier shards take the remainder, no shard empty unless the limit
    runs out)."""
    base, rem = divmod(limit, shards)
    ranges: List[Tuple[int, int]] = []
    start = 0
    for i in range(shards):
        size = base + (1 if i < rem else 0)
        ranges.append((start, start + size))
        start += size
    return [r for r in ranges if r[0] < r[1]]


def explore_index_shards(explorer, program: Program, limit: int, **fixed):
    """Sharded Rand/PCT: contiguous ranges of per-index seeds
    (:func:`split_indices`), folded in shard order.

    Each shard runs the explorer's own loop on a copy of ``explorer``
    with ``shards=1``, its slice of ``execution_seeds`` and the ``fixed``
    attributes (PCT's parent-calibrated ``k_override``).  Folding mirrors
    a serial pass over the concatenated ranges
    (:meth:`ExplorationStats.absorb_shard`); the shards after a deadline,
    or after the first bug under ``stop_at_first_bug``, are discarded —
    the serial run would never have reached their indices.
    """
    from .explorer import ExplorationStats

    stats = ExplorationStats(explorer.technique, program.name, limit)
    tasks = []
    for start, stop in split_indices(limit, explorer.shards):
        shard = copy.copy(explorer)
        vars(shard).update(
            fixed,
            shards=1,
            execution_seeds=[
                derive_shard_seed(explorer.seed, j) for j in range(start, stop)
            ],
        )
        tasks.append((shard,))
    pool = None if explorer.program_source is None else shard_pool(explorer.shards)
    results = _in_turn(pool, 2 * explorer.shards, _index_shard_worker, tasks, program)
    try:
        for sub in results:
            stats.absorb_shard(sub)
            if sub.deadline_hit or (
                explorer.stop_at_first_bug and stats.first_bug is not None
            ):
                break
        return stats
    finally:
        results.close()
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)


def _in_turn(pool, width: int, fn: Callable, tasks: List[tuple], program):
    """Yield ``fn(*task)`` for each task, in order.  Through ``pool``, at
    most ``width`` tasks are in flight, and closing the generator cancels
    the ones not yet running (close it before the pool shuts down).  With
    no pool each task runs here, when its turn comes, on ``program``."""
    if pool is None:
        for task in tasks:
            yield fn(*task, program)
        return
    window: deque = deque()
    try:
        for task in tasks:
            window.append(pool.submit(fn, *task))
            if len(window) >= width:
                yield window.popleft().result()
        while window:
            yield window.popleft().result()
    finally:
        for fut in window:
            fut.cancel()
