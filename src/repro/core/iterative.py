"""Iterative schedule bounding (IPB / IDB) and the unbounded-DFS explorer.

Iterative bounding (section 2 of the paper): explore all schedules with
zero preemptions/delays, then all with one, etc., until the space or the
schedule limit is exhausted.  This induces the partial order
``PC(α) < PC(α') ⇒ α before α'`` (and analogously for DC).

Accounting matches Table 3:

- ``schedules`` counts *distinct* terminal schedules — only schedules with
  cost exactly ``c`` are new at bound ``c``;
- when a bug is found at bound ``c``, the remaining schedules within bound
  ``c`` are still explored (the paper does this to report worst-case
  schedule counts robust to search-order luck — Figure 4), then the search
  stops;
- ``bound`` reports the smallest bound exposing the bug, or the bound
  reached (not fully explored) when the limit was hit.

The per-bound search is :class:`FrontierSearch` — frontier resumption:
bound ``c``'s search records every candidate the bound pruned
(:class:`PrunedEdge`), and bound ``c + 1`` replays the minimal prefix to
each edge the new bound affords and searches only beneath it.  Every
terminal schedule is executed exactly once across all bounds.  The
enumerated set *and order* are identical to the classic restart-per-bound
search (a fresh :class:`~repro.core.dfs.BoundedDFS` per bound,
re-executing every schedule of cost < ``c``, as CHESS does; the paper
treats that re-execution as implementation cost, not a metric): the
frontier is kept in DFS order by
construction, so all Table 3 accounting is byte-identical and only
``executions`` and wall-clock shrink.  The restart search survives as the
equivalence oracle in ``tests/oracles.py``.
"""

from __future__ import annotations

from typing import Iterator, Optional

from ..engine.executor import DEFAULT_MAX_STEPS
from ..engine.state import VisibleFilter
from ..runtime.program import Program
from .bounds import DELAY, NO_BOUND, PREEMPTION, BoundCost
from .budget import Budget
from .dfs import Frontier, PrunedEdge, RunRecord, in_order
from .explorer import EngineCounters, ExplorationStats, Explorer, Run
from .sharding import ShardedDFS, ShardedFrontierSearch, SubtreeSpec


class FrontierSearch:
    """Frontier-resuming backend: never re-executes an enumerated subtree.

    The first bound runs a full bounded DFS that records every pruned
    candidate as a :class:`PrunedEdge`.  Each later bound walks the
    frontier in order, searches the subtree beneath every edge whose cost
    the new bound affords — replaying the minimal prefix via the
    executor's replay fast path — and keeps every other edge where it
    stands.

    The frontier is in DFS order by construction: a choice point's pruned
    edges join it when the search pops the point, after all of the
    point's explored subtrees, and a resumed edge's new edges land where
    it stood.  Every schedule reached through a resumed edge has cost
    exactly the current bound (the prefix spends the whole budget;
    within-bound continuations are free), which is precisely the "new at
    bound ``c``" set a restart-per-bound search discovers among its
    re-executions — in the same order, because the walk visits disjoint
    subtrees in DFS order.  ``pruned_at_bound`` is the frontier's
    non-emptiness: exactly the restart search's "anything pruned this
    bound" signal, since a carried-over locked edge is re-pruned by every
    restart pass.

    ``limit`` is the explorer's schedule limit: the frontier keeps only
    the edges that a run under it can still resume
    (:class:`~repro.core.dfs.Frontier`), so its memory is O(limit), not
    O(executions).
    """

    def __init__(
        self,
        program: Program,
        cost_model: BoundCost,
        *,
        visible_filter: Optional[VisibleFilter] = None,
        max_steps: int = DEFAULT_MAX_STEPS,
        spurious_wakeups: int = 0,
        budget: Optional[Budget] = None,
        limit: Optional[int] = None,
    ) -> None:
        self.spec = SubtreeSpec(
            program,
            cost_model,
            visible_filter=visible_filter,
            max_steps=max_steps,
            spurious_wakeups=spurious_wakeups,
            budget=budget,
        )
        self._limit = limit
        self._frontier = Frontier(limit)
        self._started = False

    def _subtree(self, bound: int, root: Optional[PrunedEdge]):
        return self.spec.search(bound, root, self._frontier)

    def runs_at_bound(self, bound: int) -> Iterator[RunRecord]:
        if not self._started:
            self._started = True
            yield from self._subtree(bound, None).runs()
            return
        old, self._frontier = self._frontier, Frontier(self._limit)
        for edge in in_order(old, bound, self._frontier):
            yield from self._subtree(bound, edge).runs()

    def pruned_at_bound(self) -> bool:
        return bool(self._frontier)

    def close(self) -> None:
        """Uniform backend cleanup hook (the snapshot subclass kills its
        cross-bound holders here)."""


def _backend(
    explorer,
    program: Program,
    cost_model: Optional[BoundCost],
    limit: Optional[int] = None,
):
    """The search an explorer drains — sharded (``shards > 1``), fork
    snapshots (``snapshots`` where ``os.fork`` exists) or in-process; all
    enumerate the same records in the same order.  ``cost_model=None``
    asks for the unbounded DFS run stream, a cost model for the per-bound
    frontier search, which keeps only the frontier ``limit`` schedules can
    reach."""
    unbounded = cost_model is None
    opts = dict(
        visible_filter=explorer.visible_filter,
        max_steps=explorer.max_steps,
        spurious_wakeups=explorer.spurious_wakeups,
        budget=explorer.budget,
    )
    if explorer.shards > 1:
        opts.update(
            shards=explorer.shards,
            program_source=explorer.program_source,
            snapshots=explorer.snapshots,
        )
        if unbounded:
            return ShardedDFS(program, **opts)
        return ShardedFrontierSearch(program, cost_model, limit=limit, **opts)
    if explorer.snapshots:
        from ..engine import snapshot as snapshot_mod

        if snapshot_mod.fork_available():
            if unbounded:
                return snapshot_mod.snapshot_dfs(program, **opts)
            return snapshot_mod.SnapshotFrontierSearch(
                program, cost_model, limit=limit, **opts
            )
    if unbounded:
        return SubtreeSpec(program, NO_BOUND, **opts).search(None)
    return FrontierSearch(program, cost_model, limit=limit, **opts)


class DFSExplorer(Explorer):
    """Straightforward depth-first search with no schedule bound."""

    technique = "DFS"

    def __init__(
        self,
        *,
        visible_filter: Optional[VisibleFilter] = None,
        max_steps: int = DEFAULT_MAX_STEPS,
        stop_at_first_bug: bool = False,
        spurious_wakeups: int = 0,
        counters: bool = False,
        budget: Optional[Budget] = None,
        shards: int = 1,
        program_source=None,
        snapshots: bool = False,
    ) -> None:
        self.visible_filter = visible_filter
        self.max_steps = max_steps
        self.stop_at_first_bug = stop_at_first_bug
        self.spurious_wakeups = spurious_wakeups
        self.counters = counters
        self.budget = budget
        #: Worker processes to shard the search tree over (``1`` = the
        #: classic in-process search); see :mod:`repro.core.sharding`.
        #: The enumerated set *and order* are identical either way.
        self.shards = max(1, shards)
        #: Picklable program source for pool workers; ``None`` runs the
        #: shard tasks in-process (same merged stream, no pool).
        self.program_source = program_source
        #: Opt-in fork-based COW prefix snapshots (engine/snapshot.py):
        #: identical records in identical order, with deep shared prefixes
        #: inherited from live process images instead of replayed.  Falls
        #: back to the plain replay fast path where ``os.fork`` is
        #: unavailable.  Composes with ``shards`` (workers fork holders).
        self.snapshots = snapshots

    def explore(self, program: Program, limit: int) -> ExplorationStats:
        dfs = _backend(self, program, None)
        try:
            return self._drain(dfs, program, limit)
        finally:
            close = getattr(dfs, "close", None)
            if close is not None:
                close()

    def _drain(self, dfs, program: Program, limit: int) -> ExplorationStats:
        stats = ExplorationStats(self.technique, program.name, limit)
        if self.counters:
            stats.counters = EngineCounters()
        for record in dfs.runs():
            run = stats.account(record.result)
            if run is Run.TIMEOUT:
                return stats
            if run is Run.ABANDONED:
                # Abandoned runs (step limit, livelock, contained misuse)
                # don't count as schedules, so an adversarial program whose
                # every execution is abandoned would never approach the
                # schedule limit: cap them at the same limit so exploration
                # always terminates.
                if stats.abandoned >= limit:
                    return stats
                continue
            if run is Run.BUGGY and self.stop_at_first_bug:
                return stats
            if stats.schedules >= limit:
                # Hitting the limit on the very last schedule still means
                # the space was exhausted (Table 2: "total terminal
                # schedules < limit" distinguishes ≤ from <; backtracking
                # is eager, so exhaustion is already known here).
                stats.completed = dfs.exhausted
                return stats
        stats.completed = True
        return stats


class IterativeBoundingExplorer(Explorer):
    """IPB or IDB, depending on the cost model."""

    def __init__(
        self,
        cost_model: BoundCost,
        technique: str,
        *,
        visible_filter: Optional[VisibleFilter] = None,
        max_steps: int = DEFAULT_MAX_STEPS,
        max_bound: int = 64,
        spurious_wakeups: int = 0,
        counters: bool = False,
        budget: Optional[Budget] = None,
        shards: int = 1,
        program_source=None,
        snapshots: bool = False,
    ) -> None:
        self.cost_model = cost_model
        self.technique = technique
        self.budget = budget
        self.visible_filter = visible_filter
        self.max_steps = max_steps
        self.spurious_wakeups = spurious_wakeups
        #: Worker processes to shard each bound's search tree over
        #: (``1`` = serial).  Sharding is frontier-based; results are
        #: byte-identical to the serial search (see DESIGN.md §13).
        self.shards = max(1, shards)
        #: Picklable program source for pool workers; ``None`` = inline.
        self.program_source = program_source
        #: Opt-in COW prefix snapshots (see :class:`DFSExplorer`):
        #: identical accounting, the same set and order of records.
        self.snapshots = snapshots
        #: Safety net: stop raising the bound past this (a benchmark whose
        #: space is exhausted stops earlier via the pruning signal).
        self.max_bound = max_bound
        self.counters = counters

    def explore(self, program: Program, limit: int) -> ExplorationStats:
        stats = ExplorationStats(self.technique, program.name, limit)
        if self.counters:
            stats.counters = EngineCounters()
        search = self._search(program, limit)
        try:
            return self._drain(search, stats, limit)
        finally:
            search.close()

    def _search(self, program: Program, limit: int):
        """The per-bound search backend for an exploration of at most
        ``limit`` schedules (the restart oracle in ``tests/oracles.py``
        substitutes its own)."""
        return _backend(self, program, self.cost_model, limit)

    def _drain(self, search, stats: ExplorationStats, limit: int) -> ExplorationStats:
        runs_before_bound = 0
        for bound in range(self.max_bound + 1):
            stats.bound = bound
            stats.new_schedules_at_bound = 0
            if stats.counters is not None and bound > 0:
                # A restart pass at this bound would begin by re-executing
                # every run of the earlier bounds.
                stats.counters.saved_executions += runs_before_bound
            for record in search.runs_at_bound(bound):
                # A run of cost < bound was explored at an earlier bound:
                # the frontier search never yields one, the restart oracle
                # in tests/oracles.py re-executes them.
                run = stats.account(record.result, bound, record.cost < bound)
                if run is Run.TIMEOUT:
                    return stats
                if run is Run.ABANDONED:
                    # Same abandoned-run cap as DFS (see DFSExplorer): a
                    # program abandoning every execution must still stop.
                    if stats.abandoned >= limit:
                        return stats
                elif stats.schedules >= limit:
                    return stats
            runs_before_bound = stats.executions
            if stats.first_bug is not None:
                # Bound c fully explored (modulo the limit) and buggy: stop.
                return stats
            if not search.pruned_at_bound():
                # Nothing was cut off by the bound, so the whole schedule
                # space has been enumerated — "total terminal schedules
                # < limit" in Table 2's terms.
                stats.completed = True
                return stats
        return stats


def make_ipb(**kwargs) -> IterativeBoundingExplorer:
    """Iterative preemption bounding."""
    return IterativeBoundingExplorer(PREEMPTION, "IPB", **kwargs)


def make_idb(**kwargs) -> IterativeBoundingExplorer:
    """Iterative delay bounding."""
    return IterativeBoundingExplorer(DELAY, "IDB", **kwargs)
