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
pruned edges in place — and distributes the descriptors the bound
affords to a process pool; every other edge joins the frontier where it
stands.  Workers stream back trimmed run summaries plus the frontier
edges their bound pruned, in DFS order; the parent emits summaries in
remainder order, which *is* the serial DFS visiting order, so the merged
stream feeds the unmodified explorer accounting loops and every
``ExplorationStats.as_dict()`` field matches the serial run by
construction.  (Only the opt-in ``EngineCounters.replayed_steps``
telemetry differs: a worker's first run replays its full root prefix
where the serial search would have taken a minimal backtrack.)

**Work redistribution.**  Each shard task carries a run budget
(``split_runs``); a worker that exhausts the budget with work left calls
``split_remaining`` on its own search and returns the leftover
descriptors, which the parent splices back into the worklist *in place*
— cooperative splitting of the largest live subtrees, so one huge
subtree cannot serialize the tail of the computation.

**Randomized techniques (Rand / PCT).**  Sharding by schedule-index
ranges requires a random stream that is a function of the *execution
index*, not of the shard: execution ``j`` draws from
``random.Random(derive_shard_seed(seed, j))`` (SHA-256, same recipe as
the study's per-cell seeds).  The merged stream is therefore identical
for every shard count and for the in-process (inline) execution of the
same plan — but it is *not* the classic single-RNG stream, so sharding
is part of the experiment's fingerprint (``StudyConfig.cell_shards``).
``shards=1`` keeps the classic explorers untouched.

**Cancellation.**  The merged stream is a generator; closing it early
(schedule limit, first-bug-wins, an expired
:class:`~repro.core.budget.Budget`) cancels every undispatched shard.
Budgets ship to workers by value: wall-clock deadlines transfer exactly
(``time.monotonic`` is system-wide on Linux), work ceilings apply per
worker.
"""

from __future__ import annotations

import hashlib
import pickle
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from typing import Callable, Iterator, List, Optional, Tuple

from ..engine.executor import DEFAULT_MAX_STEPS, execute
from ..engine.strategies import SchedulerStrategy, round_robin_choice
from ..engine.trace import Outcome
from ..runtime.errors import MisuseReport
from ..runtime.program import Program
from .bounds import DELAY, NO_BOUND, PREEMPTION, BoundCost
from .dfs import BoundedDFS, Frontier, OrderCache, PrunedEdge, RunRecord, affords

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
    :meth:`ExplorationStats.observe_run` / ``observe_leaks``,
    :meth:`BugReport.from_result` and :class:`EngineCounters` consume —
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
    root_payload: dict,
    split_runs: Optional[int],
    want_frontier: bool,
    cross=None,
):
    """Explore one shard descriptor's subtree; the pool entry point (and
    the snapshot runner's dead-holder fallback).

    Returns ``(runs, frontier, leftovers, exhausted)`` where ``runs`` is
    a list of ``(RunSummary, cost, pruned_any)`` in DFS order,
    ``frontier`` the payloads of the edges the bound pruned at points the
    search finished, in DFS order, ``leftovers`` the ordered remainder
    given back after the ``split_runs`` budget ran out (untried work and
    the pending pruned edges in place, all after ``frontier``), and
    ``exhausted`` whether the subtree was fully enumerated.  A spec
    unpickled in a pool worker resolves its program here.

    ``cross`` (inline mode only — fds don't cross the pool boundary) is
    the search's :class:`repro.engine.snapshot.CrossBoundRegistry`: if
    the descriptor carries a live holder handle the whole subtree is
    adopted from the parked process image — zero prefix replay — and new
    deep pruned points park fresh holders for the next bound.  Pool
    workers get ``cross=None`` and replay classically; the merged stream
    is byte-identical either way.
    """
    snapshot_mod = None
    if spec.snapshots or cross is not None:
        from ..engine import snapshot as snapshot_mod
    if cross is not None:
        handle = root_payload.get("holder")
        if handle is not None:
            sub = cross.resume((handle[0], handle[1]), bound)
            if sub is not None:
                runs = [
                    (rec.result, rec.cost, rec.pruned_any)
                    for rec in snapshot_mod.decode_batch(
                        sub, root_payload["schedule"]
                    )
                ]
                # A holder batch is all-or-nothing (its records have no
                # edge descriptors left to split), same as the snapshot
                # runner's mid-batch overrun of the split budget.
                return runs, sub["frontier"], [], sub["exhausted"]
    if spec.program is None:
        spec.program = _cached_program(spec.program_source)
    frontier: Optional[List[PrunedEdge]] = [] if want_frontier else None
    root = PrunedEdge.from_payload(root_payload)
    if spec.snapshots and snapshot_mod.fork_available():
        # No look-ahead tokens: holders run only in their turn, so a
        # worker keeps one process busy and never oversubscribes the pool.
        search = snapshot_mod.SnapshotRunner(
            spec, bound, root=root, frontier=frontier, cross=cross
        )
    else:
        search = spec.search(bound, root, frontier)
    runs: List[Tuple[RunSummary, int, bool]] = []
    leftovers: List[dict] = []
    exhausted = True
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
                # Budget expired mid-subtree: the parent stops the whole
                # exploration at this record, so the remainder is moot.
                exhausted = False
                break
            if (
                split_runs is not None
                and len(runs) >= split_runs
                and not search.exhausted
                # A snapshot runner mid holder batch holds records that
                # have no edge descriptor (their child already exited);
                # overrun the soft split budget to the batch boundary
                # rather than lose them.
                and not getattr(search, "mid_batch", False)
            ):
                leftovers = [e.to_payload() for e in search.split_remaining()]
                break
    finally:
        stream.close()
    frontier_payloads = (
        [e.to_payload() for e in frontier] if frontier else []
    )
    return runs, frontier_payloads, leftovers, exhausted and search.exhausted


def _random_shard_worker(
    source,
    seeds: List[int],
    visible_filter,
    max_steps: int,
    stop_at_first_bug: bool,
    spurious_wakeups: int,
    budget,
    program: Optional[Program] = None,
) -> dict:
    """Run one Rand shard: one execution per (index-derived) seed."""
    from .random_walk import RandomExplorer

    if program is None:
        program = _cached_program(source)
    explorer = RandomExplorer(
        visible_filter=visible_filter,
        max_steps=max_steps,
        stop_at_first_bug=stop_at_first_bug,
        spurious_wakeups=spurious_wakeups,
        budget=budget,
    )
    explorer.execution_seeds = seeds
    return explorer.explore(program, len(seeds)).to_payload()


def _pct_shard_worker(
    source,
    seeds: List[int],
    depth: int,
    k_estimate: int,
    visible_filter,
    max_steps: int,
    stop_at_first_bug: bool,
    budget,
    program: Optional[Program] = None,
) -> dict:
    """Run one PCT shard: one execution per seed, shared ``k`` estimate."""
    from .pct import PCTExplorer

    if program is None:
        program = _cached_program(source)
    explorer = PCTExplorer(
        depth=depth,
        visible_filter=visible_filter,
        max_steps=max_steps,
        stop_at_first_bug=stop_at_first_bug,
        budget=budget,
    )
    explorer.execution_seeds = seeds
    explorer.k_override = k_estimate
    return explorer.explore(program, len(seeds)).to_payload()


# -- the parent-side merge --------------------------------------------------


class _ShardItem:
    """One worklist entry: an edge and, once dispatched, its result."""

    __slots__ = ("edge", "future", "result")

    def __init__(self, edge: PrunedEdge) -> None:
        self.edge = edge
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
        split_runs: Optional[int] = None,
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
        #: Per-task run budget before a worker splits its remainder.
        self.split_runs = DEFAULT_SPLIT_RUNS if split_runs is None else split_runs
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
        #: Cross-bound snapshot registry (inline frontier search only);
        #: created by :class:`ShardedFrontierSearch` when snapshots are on.
        self._cross = None

    @property
    def inline(self) -> bool:
        """Whether shard tasks run in-process (no picklable program
        source, or a single shard): same code path, same merged stream,
        no pool."""
        return self.spec.program_source is None or self.shards == 1

    def close(self) -> None:
        """Release the worker pool and any parked cross-bound holders
        (idempotent)."""
        pool = self._pool
        self._pool = None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)
        cross = self._cross
        if cross is not None:
            cross.close()

    def _submit(self, bound: Optional[int], payload: dict, want_frontier: bool):
        args = (self.spec, bound, payload, self.split_runs, want_frontier)
        if self.inline:
            return _inline_future(_subtree_worker, *args, self._cross)
        if self._pool is None:
            self._pool = shard_pool(self.shards)
        return self._pool.submit(_subtree_worker, *args)

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
        """Walk an ordered remainder: dispatch each edge the bound affords
        and emit its runs in exact DFS order; every other edge joins
        ``self._frontier`` where it stands.

        ``roots`` (``split_remaining``'s output or the old frontier) is
        consumed as the walk goes; edges become payloads here, at the pool
        boundary.  The head item's runs are emitted the moment its result
        arrives, after its frontier payloads join ``self._frontier``;
        leftovers from a split are walked *in place of* the head — they
        are interior to its subtree, so order is preserved.  Out-of-order
        completions are buffered.  ``on_last`` fires just before the final
        record of the final item is yielded (the sharded analogue of the
        serial search's eager backtracking: ``exhausted`` is accurate at
        every yield).
        """
        roots.reverse()  # pop() walks it front to back
        window: deque = deque()  # reached items, head first
        waiting: deque = deque()  # reached affordable items not yet sent
        in_flight: dict = {}
        try:
            while window or roots:
                # Keep the earliest undispatched affordable edges in flight.
                while len(in_flight) < self.shards:
                    if waiting:
                        item = waiting.popleft()
                    elif roots:
                        item = _ShardItem(roots.pop())
                        window.append(item)
                        if not affords(bound, item.edge):
                            continue
                    else:
                        break
                    item.future = self._submit(
                        bound, item.edge.to_payload(), want_frontier
                    )
                    in_flight[item.future] = item
                head = window[0]
                if not affords(bound, head.edge):
                    window.popleft()
                    self._frontier.append(head.edge)
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
                runs, frontier, leftovers, exhausted = head.result
                head.result = None  # free early; emitted below
                if frontier:
                    self._frontier.extend(
                        PrunedEdge.from_payload(p) for p in frontier
                    )
                if leftovers:
                    items = [
                        _ShardItem(PrunedEdge.from_payload(p))
                        for p in leftovers
                    ]
                    window.extendleft(reversed(items))
                    waiting.extendleft(
                        reversed([i for i in items if affords(bound, i.edge)])
                    )
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
    bounds the walk over the old frontier dispatches the edges the bound
    affords as shard descriptors and keeps the others where they stand.
    Workers ship the edges their bound pruned back as payloads, in DFS
    order; disjoint subtrees never duplicate an edge, so the union is
    exactly the serial frontier, in the serial order.  ``limit`` caps it
    exactly as the serial frontier is capped.
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
        if self.spec.snapshots and self.inline:
            from ..engine import snapshot as snapshot_mod

            if snapshot_mod.fork_available():
                # Inline shard tasks run in this process, so frontier
                # entries can resume from cross-bound parked holders
                # (engine/snapshot.py).  Pool workers can't adopt fds;
                # they keep the classic replay path.
                self._cross = snapshot_mod.CrossBoundRegistry()

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


def _merge_shard_payloads(stats, payloads: List[dict], stop_at_first_bug: bool):
    """Fold per-shard stats payloads into ``stats`` in shard order.

    Mirrors a serial pass over the concatenated index ranges: sums and
    maxes accumulate shard by shard; the first bug keeps the earliest
    *global* schedule index; under ``stop_at_first_bug`` the shards after
    the first buggy one are discarded (the serial run would never have
    reached their indices)."""
    from .explorer import ExplorationStats

    for payload in payloads:
        shard = ExplorationStats.from_payload(payload)
        stats.absorb_shard(shard)
        if stop_at_first_bug and stats.first_bug is not None:
            break
        if shard.deadline_hit:
            break
    return stats


def run_sharded_random(explorer, program: Program, limit: int):
    """Sharded Rand: per-index seeds, contiguous ranges, ordered merge."""
    from .explorer import ExplorationStats

    return _run_index_shards(
        explorer,
        program,
        limit,
        _random_shard_worker,
        (
            explorer.visible_filter,
            explorer.max_steps,
            explorer.stop_at_first_bug,
            explorer.spurious_wakeups,
            explorer.budget,
        ),
        ExplorationStats(explorer.technique, program.name, limit),
    )


def run_sharded_pct(explorer, program: Program, limit: int):
    """Sharded PCT: parent-side calibration (deterministic round-robin,
    identical ``k`` everywhere), then per-index seeded executions."""
    from ..engine.strategies import RoundRobinStrategy
    from .explorer import ExplorationStats

    stats = ExplorationStats(explorer.technique, program.name, limit)
    calibration = execute(
        program,
        RoundRobinStrategy(),
        max_steps=explorer.max_steps,
        visible_filter=explorer.visible_filter,
        record_enabled=False,
        budget=explorer.budget,
    )
    if explorer._budget_spent(stats, calibration):
        return stats
    return _run_index_shards(
        explorer,
        program,
        limit,
        _pct_shard_worker,
        (
            explorer.depth,
            max(1, calibration.steps),
            explorer.visible_filter,
            explorer.max_steps,
            explorer.stop_at_first_bug,
            explorer.budget,
        ),
        stats,
    )


def _run_index_shards(explorer, program, limit, worker, args, stats):
    """Common Rand/PCT fan-out: split the per-index seeds into shard
    ranges, run ``worker(source, seeds, *args)`` for every shard (pool or
    inline), merge payloads in shard order."""
    shards = explorer.shards
    ranges = split_indices(limit, shards)
    if not ranges:
        return stats
    seeds = [derive_shard_seed(explorer.seed, j) for j in range(limit)]
    source = explorer.program_source
    if source is None or shards == 1:
        payloads = [
            worker(source, seeds[start:stop], *args, program=program)
            for start, stop in ranges
        ]
        return _merge_shard_payloads(
            stats, payloads, explorer.stop_at_first_bug
        )
    pool = shard_pool(shards)
    try:
        futures = [
            pool.submit(worker, source, seeds[start:stop], *args)
            for start, stop in ranges
        ]
        payloads = []
        for i, fut in enumerate(futures):
            payloads.append(fut.result())
            if explorer.stop_at_first_bug and payloads[-1].get("first_bug"):
                # First-bug-wins: everything after this shard is moot.
                for later in futures[i + 1 :]:
                    later.cancel()
                break
        return _merge_shard_payloads(
            stats, payloads, explorer.stop_at_first_bug
        )
    finally:
        pool.shutdown(wait=False, cancel_futures=True)


# -- DPOR / BPOR sharding -----------------------------------------------------
#
# A serial DPOR run sequence decomposes exactly by the root scheduling
# point's candidate: first every run with ``stack[0].chosen == c1`` (the
# round-robin default), then every run of the next retired candidate, and
# so on.  One branch's exploration depends on the root state only through
# (candidate, sleep set) — the sleep set being the candidates retired
# before it — so a fresh worker seeded with a *frozen* root payload
# replays the branch's entire run sequence deterministically, including
# any backtrack candidates the branch registers *at* the root (reported
# back, because they decide which branches exist).  The parent absorbs
# the workers' run streams branch by branch, in serial order, through
# ``DPORExplorer._absorb`` — the same accounting the serial loop uses,
# with the parent's global schedule/abandoned counters — so it truncates
# exactly where the serial search would and every ``as_dict()`` field
# matches by construction.
#
# Branch order beyond the head is speculative (a branch can register new
# root candidates that outrank the predicted successor); dispatches are
# keyed by (candidate, sleep-set content), the full behavioural key, so a
# mispredicted dispatch is simply left pending and a correctly-keyed one
# is issued — worst case wasted work, never a wrong merge.


class DporShardSpec:
    """Everything a DPOR branch/entry worker needs besides its payload."""

    __slots__ = (
        "program_source",
        "visible_filter",
        "max_steps",
        "stop_at_first_bug",
        "preemption_bound",
        "state_cache",
        "budget",
        "limit",
    )

    def __init__(
        self,
        program_source,
        visible_filter,
        max_steps: int,
        stop_at_first_bug: bool,
        preemption_bound: Optional[int],
        state_cache: bool,
        budget,
        limit: int,
    ) -> None:
        self.program_source = program_source
        self.visible_filter = visible_filter
        self.max_steps = max_steps
        self.stop_at_first_bug = stop_at_first_bug
        self.preemption_bound = preemption_bound
        self.state_cache = state_cache
        self.budget = budget
        self.limit = limit


def _dpor_branch_worker(
    spec: DporShardSpec, root_payload: dict, program: Optional[Program] = None
):
    """Explore one root branch; returns (run summaries, root backtrack,
    bound_pruned).  The run list is a superset of what the serial search
    would execute in this branch (the worker runs with the whole-search
    limit); the parent truncates during absorption."""
    from .dpor import DPORExplorer

    if program is None:
        program = _cached_program(spec.program_source)
    explorer = DPORExplorer(
        visible_filter=spec.visible_filter,
        max_steps=spec.max_steps,
        stop_at_first_bug=spec.stop_at_first_bug,
        preemption_bound=spec.preemption_bound,
        state_cache=spec.state_cache,
        root_payload=root_payload,
    )
    explorer.budget = spec.budget
    log: list = []
    explorer._run_log = log
    explorer.explore(program, spec.limit)
    summaries = [None if r is None else RunSummary.from_result(r) for r in log]
    root_bt = (
        sorted(explorer.seed_points[0].backtrack) if explorer.seed_points else []
    )
    return summaries, root_bt, explorer.bound_pruned


def _ibpor_entry_worker(
    spec: DporShardSpec, entry_payload: dict, program: Optional[Program] = None
):
    """Resume one IBPOR frontier entry at ``spec.preemption_bound``;
    returns (run summaries, frontier entries for the next bound)."""
    from .dpor import DPORExplorer

    if program is None:
        program = _cached_program(spec.program_source)
    sink: list = []
    explorer = DPORExplorer(
        visible_filter=spec.visible_filter,
        max_steps=spec.max_steps,
        stop_at_first_bug=True,
        preemption_bound=spec.preemption_bound,
        state_cache=False,
        frontier_sink=sink,
        root_payload=entry_payload,
    )
    explorer.budget = spec.budget
    log: list = []
    explorer._run_log = log
    explorer.explore(program, spec.limit)
    summaries = [None if r is None else RunSummary.from_result(r) for r in log]
    return summaries, sink


class _RootProbe(SchedulerStrategy):
    """Round-robin probe that records the first scheduling point's inputs
    (the root structure every branch payload is built from)."""

    def __init__(self) -> None:
        self.enabled: Optional[Tuple[int, ...]] = None
        self.last_tid = 0
        self.num_created = 0

    def choose(self, step_index, enabled, last_tid, kernel):
        if step_index == 0:
            self.enabled = enabled
            self.last_tid = last_tid
            self.num_created = kernel.num_created
        return round_robin_choice(enabled, last_tid, kernel.num_created)


def _probe_root(explorer, program):
    """One throwaway execution (not counted in stats) to discover the
    root point's enabled set and preemption increments."""
    probe = _RootProbe()
    execute(
        program,
        probe,
        max_steps=explorer.max_steps,
        visible_filter=explorer.visible_filter,
        record_enabled=False,
        budget=explorer.budget,
    )
    return probe


def explore_sharded_dpor(explorer, program: Program, limit: int):
    """Sharded DPOR/BPOR: per-branch worker farm with serial-order merge.

    ``explorer`` is the dispatching :class:`~repro.core.dpor.DPORExplorer`
    (``shards > 1``); its ``_absorb`` + counters do the accounting, so the
    merged stats match a serial ``shards=1`` run byte-for-byte.
    """
    from .explorer import ExplorationStats

    stats = ExplorationStats(explorer.technique, program.name, limit)
    explorer.bound_pruned = False
    explorer._abandoned = 0
    probe = _probe_root(explorer, program)
    if probe.enabled is None:
        # No scheduling point at all: one run decides everything.
        from .dpor import DPORExplorer

        inner = DPORExplorer(
            visible_filter=explorer.visible_filter,
            max_steps=explorer.max_steps,
            stop_at_first_bug=explorer.stop_at_first_bug,
            preemption_bound=explorer.preemption_bound,
            state_cache=explorer._use_state_cache,
        )
        inner.budget = explorer.budget
        return inner.explore(program, limit)
    enabled = probe.enabled
    bound = explorer.preemption_bound
    increments = {
        t: (1 if t != probe.last_tid and probe.last_tid in enabled else 0)
        for t in enabled
    }
    if bound is None:
        selectable = list(enabled)
    else:
        selectable = [t for t in enabled if increments[t] <= bound]
        if len(selectable) < len(enabled):
            explorer.bound_pruned = True
    first = round_robin_choice(tuple(selectable), probe.last_tid, probe.num_created)
    spec = DporShardSpec(
        explorer.program_source,
        explorer.visible_filter,
        explorer.max_steps,
        explorer.stop_at_first_bug,
        bound,
        explorer._use_state_cache,
        explorer.budget,
        limit,
    )

    def payload(candidate: int, retired: set) -> dict:
        return {
            "points": [
                {
                    "enabled": list(enabled),
                    "backtrack": [candidate],
                    "done": sorted(retired),
                    "sleep": sorted(retired),
                    "chosen": candidate,
                    "increments": dict(increments),
                    "cost_before": 0,
                    "frozen": True,
                }
            ]
        }

    backtrack = {first}
    done: set = set()
    pending: dict = {}
    pool = (
        shard_pool(explorer.shards)
        if explorer.program_source is not None
        else None
    )
    try:
        head = first
        while True:
            # Dispatch the head plus predicted successors (min-order over
            # currently-known candidates), each under its predicted sleep
            # context.  Inline (no picklable source): same code path, no
            # speculation — a mispredicted inline branch is pure waste.
            rest = backtrack - done - {head}
            if bound is not None:
                rest = {t for t in rest if increments[t] <= bound}
            predicted = [head] + sorted(rest)
            width = explorer.shards if pool is not None else 1
            ctx = set(done)
            for cand in predicted[:width]:
                key = (cand, frozenset(ctx))
                if key not in pending:
                    if pool is not None:
                        pending[key] = pool.submit(
                            _dpor_branch_worker, spec, payload(cand, ctx)
                        )
                    else:
                        pending[key] = _inline_future(
                            _dpor_branch_worker, spec, payload(cand, ctx), program
                        )
                ctx = ctx | {cand}
            summaries, root_bt, w_pruned = pending.pop(
                (head, frozenset(done))
            ).result()
            if w_pruned:
                explorer.bound_pruned = True
            for item in summaries:
                if explorer._absorb(stats, item, program.name, limit):
                    return stats
            backtrack.update(root_bt)
            done.add(head)
            base = backtrack - done
            if bound is not None:
                affordable = {t for t in base if increments[t] <= bound}
                if affordable != base:
                    explorer.bound_pruned = True
                base = affordable
            if not base:
                stats.completed = True
                return stats
            head = min(base)
    finally:
        for fut in pending.values():
            fut.cancel()
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)


def explore_sharded_ibpor(explorer, program: Program, limit: int):
    """Sharded frontier-resuming IBPOR: bound 0 runs in-process (the
    non-preemptive space is tiny); every later bound farms its frontier
    entries to workers and absorbs their run streams in entry order with
    the exact per-entry limits the serial loop would use."""
    from .dpor import merge_sub_stats
    from .explorer import ExplorationStats

    stats = ExplorationStats(explorer.technique, program.name, limit)
    frontier: List[dict] = []
    pool: Optional[ProcessPoolExecutor] = None
    try:
        for bound in range(explorer.max_bound + 1):
            stats.bound = bound
            stats.new_schedules_at_bound = 0
            sink: List[dict] = []
            if bound == 0:
                inner = explorer._inner(0, frontier_sink=sink)
                sub = inner.explore(program, max(1, limit - stats.schedules))
                merge_sub_stats(stats, sub)
                if explorer._promote_bug(stats, sub, 0):
                    return stats
                if stats.deadline_hit or stats.schedules >= limit:
                    return stats
            else:
                if explorer.program_source is not None and pool is None:
                    pool = shard_pool(explorer.shards)
                spec = DporShardSpec(
                    explorer.program_source,
                    explorer.visible_filter,
                    explorer.max_steps,
                    True,
                    bound,
                    False,
                    explorer.budget,
                    limit,
                )
                if pool is not None:
                    results = (
                        fut.result()
                        for fut in [
                            pool.submit(_ibpor_entry_worker, spec, entry)
                            for entry in frontier
                        ]
                    )
                else:
                    # Inline: one entry at a time, so an early stop skips
                    # the remaining entries exactly like the serial loop.
                    results = (
                        _ibpor_entry_worker(spec, entry, program)
                        for entry in frontier
                    )
                for summaries, entry_sink in results:
                    inner_limit = max(1, limit - stats.schedules)
                    shadow = explorer._inner(bound)
                    sub = ExplorationStats(
                        shadow.technique, program.name, inner_limit
                    )
                    for item in summaries:
                        if shadow._absorb(sub, item, program.name, inner_limit):
                            break
                    merge_sub_stats(stats, sub)
                    if explorer._promote_bug(stats, sub, bound):
                        return stats
                    if stats.deadline_hit or stats.schedules >= limit:
                        return stats
                    sink.extend(entry_sink)
            frontier = sink
            if not frontier:
                stats.completed = True
                return stats
        return stats
    finally:
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)
