"""Stateless bounded depth-first search over schedules.

This is the CHESS-style search Maple's *systematic* mode reimplements
(section 3 of the paper): repeatedly execute the program from the start,
maintain a stack of scheduling choice points, and on each new execution
replay the prefix up to the deepest choice point with an untried
alternative, then extend with the default policy.

Properties the tests rely on:

- the first execution follows the non-preemptive round-robin schedule —
  "the initial terminal schedule explored by iterative preemption bounding,
  iterative delay bounding and unbounded depth-first search is the same for
  all techniques" (section 3);
- every terminal schedule within the bound is enumerated exactly once;
- a candidate is pruned iff its cumulative bound cost would exceed the
  bound, so the enumerated set is exactly ``{α terminal : cost(α) ≤ c}``.

Two perf features extend the classic search without changing the
enumerated set (DESIGN.md, "Frontier resumption"):

- **rooted subtrees + a pruned-edge frontier**: ``BoundedDFS`` can search
  only beneath a fixed schedule prefix (``root``) and report every pruned
  candidate as a :class:`PrunedEdge` (``frontier``).  Iterative bounding
  carries these edges from bound ``c`` to ``c + 1`` and resumes beneath
  them instead of rebuilding the whole tree from scratch — see
  :class:`repro.core.iterative.FrontierSearch`.
- **replay fast path** (``fast_replay=True``): the replayed prefix of each
  execution skips enabled-set recording entirely (the executor's
  ``record_from_step`` cut-over); each choice point stores the cumulative
  width statistics of its path so full-run ``choice_points``/
  ``max_enabled`` are reconstructed exactly.  With the fast path on,
  ``result.enabled_sets`` covers only the post-replay suffix —
  :meth:`repro.core.schedule.Schedule.from_result` refuses such results,
  so keep the default (off) when post-hoc bound math is needed.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from ..engine.executor import DEFAULT_MAX_STEPS, execute
from ..engine.state import Kernel, VisibleFilter
from ..engine.strategies import SchedulerStrategy, round_robin_choice
from ..engine.trace import ExecutionResult
from ..runtime.program import Program
from .bounds import BoundCost, NoBoundCost

#: Interning table for candidate orderings: (enabled, last_tid, num_created,
#: step_index == 0) → (ordered candidates, their bound-cost increments).
OrderCache = Dict[Tuple[Tuple[int, ...], int, int, bool], Tuple[Tuple[int, ...], Tuple[int, ...]]]


class _PathNode:
    """One immutable link in a persistent path through the schedule tree.

    Chains share structure (each node points at its parent), so recording
    a path costs O(1) — crucial for pruned-edge recording, which happens
    for *every* candidate the bound cuts off.  Paths are materialized into
    tuples only for the few edges the next bound actually resumes.
    """

    __slots__ = ("parent", "order_pos", "tid")

    def __init__(self, parent, order_pos: int, tid: int) -> None:
        self.parent = parent
        self.order_pos = order_pos
        self.tid = tid


class _ChoicePoint:
    """One scheduling point on the current DFS path."""

    __slots__ = (
        "candidates",
        "increments",
        "idx",
        "cost_before",
        "order_positions",
        "cp_after",
        "maxen_after",
        "parent_link",
        "link",
    )

    def __init__(
        self,
        candidates: List[int],
        increments: List[int],
        idx: int,
        cost_before: int,
        order_positions: List[int],
        cp_after: int,
        maxen_after: int,
        parent_link,
    ) -> None:
        self.candidates = candidates
        self.increments = increments
        self.idx = idx
        self.cost_before = cost_before
        #: Position of each candidate in the *full* deterministic ordering
        #: (pruned candidates included).  Bound-independent, so the
        #: sequence of positions along a path is a stable DFS sort key.
        self.order_positions = order_positions
        #: Cumulative width statistics of the path through this step
        #: (choice points with >1 enabled thread / max enabled-set width),
        #: used to re-seed run stats when the replay prefix is skipped.
        self.cp_after = cp_after
        self.maxen_after = maxen_after
        #: Persistent path up to (excluding) this step; ``link`` extends it
        #: with the *current* choice and is rebuilt on every backtrack.
        self.parent_link = parent_link
        self.link = _PathNode(parent_link, order_positions[idx], candidates[idx])

    @property
    def chosen(self) -> int:
        return self.candidates[self.idx]

    @property
    def order_pos(self) -> int:
        return self.order_positions[self.idx]

    @property
    def cost_after(self) -> int:
        return self.cost_before + self.increments[self.idx]

    def has_untried(self) -> bool:
        return self.idx + 1 < len(self.candidates)


class PrunedEdge:
    """A candidate the bound cut off, with everything needed to resume
    the search beneath it at a later (higher) bound.

    The edge doubles as the terminal :class:`_PathNode` of its path
    (``parent``/``order_pos``/``tid`` slots), so recording one is O(1);
    ``order_path`` and ``schedule`` materialize the chain on first use.

    ``order_path`` is the sequence of full-ordering positions from the
    root through the pruned candidate; lexicographic order on it equals
    the DFS visiting order of the whole tree at *any* bound, which is what
    lets :class:`repro.core.iterative.FrontierSearch` enumerate resumed
    schedules in exactly the order a from-scratch search would.
    """

    __slots__ = (
        "parent",
        "order_pos",
        "tid",
        "cost_after",
        "cp",
        "maxen",
        "holder",
        "_order_path",
        "_schedule",
    )

    def __init__(
        self,
        parent,
        order_pos: int,
        tid: int,
        cost_after: int,
        cp: int,
        maxen: int,
    ) -> None:
        self.parent = parent
        self.order_pos = order_pos
        self.tid = tid
        #: Cumulative bound cost including the pruned step — the smallest
        #: bound at which this edge becomes explorable.
        self.cost_after = cost_after
        #: Width statistics of the prefix (see ``_ChoicePoint.cp_after``).
        self.cp = cp
        self.maxen = maxen
        #: Optional cross-bound snapshot handle ``(holder_id, index)``
        #: (engine/snapshot.py): a parked COW process owns the live image
        #: at this edge's pruning point, so a later bound can resume the
        #: subtree without replaying the prefix.  Pure acceleration: the
        #: edge stays fully replayable without it.
        self.holder = None
        self._order_path: Optional[Tuple[int, ...]] = None
        self._schedule: Optional[List[int]] = None

    def _materialize(self) -> None:
        path: List[int] = []
        sched: List[int] = []
        node = self
        while node is not None:
            path.append(node.order_pos)
            sched.append(node.tid)
            node = node.parent
        path.reverse()
        sched.reverse()
        self._order_path = tuple(path)
        self._schedule = sched

    @property
    def order_path(self) -> Tuple[int, ...]:
        if self._order_path is None:
            self._materialize()
        return self._order_path

    @property
    def schedule(self) -> List[int]:
        """Replayable prefix: the path to the pruning point plus the pruned
        candidate itself as the final step."""
        if self._schedule is None:
            self._materialize()
        return self._schedule

    def to_payload(self) -> dict:
        """JSON-/pickle-safe shard descriptor (see :mod:`repro.core.sharding`).

        Materializes the persistent path: the payload is self-contained, so
        it can cross a process boundary without dragging the parent chain
        (and the whole search tree) along.
        """
        payload = {
            "schedule": list(self.schedule),
            "order_path": list(self.order_path),
            "cost_after": self.cost_after,
            "cp": self.cp,
            "maxen": self.maxen,
        }
        if self.holder is not None:
            payload["holder"] = list(self.holder)
        return payload

    @classmethod
    def from_payload(cls, payload: dict) -> "PrunedEdge":
        """Rebuild an edge — including a faithful :class:`_PathNode` chain
        for the prefix, so edges recorded *beneath* the rebuilt root (worker
        frontier edges, chunk-split leftovers) materialize their full
        absolute ``schedule``/``order_path`` exactly as the originals would.
        """
        sched = payload["schedule"]
        path = payload["order_path"]
        parent = None
        for i in range(len(sched) - 1):
            parent = _PathNode(parent, path[i], sched[i])
        edge = cls(
            parent,
            path[-1],
            sched[-1],
            payload["cost_after"],
            payload["cp"],
            payload["maxen"],
        )
        handle = payload.get("holder")
        if handle is not None:
            edge.holder = (handle[0], handle[1])
        return edge

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PrunedEdge(len={len(self.schedule)}, cost={self.cost_after})"
        )


class RunRecord:
    """One DFS execution plus its bound accounting."""

    __slots__ = ("result", "cost", "pruned_any")

    def __init__(self, result: ExecutionResult, cost: int, pruned_any: bool) -> None:
        self.result = result
        #: Final cumulative bound cost of this schedule (equals PC or DC of
        #: the schedule under the respective cost model).
        self.cost = cost
        #: Whether any enabled successor was pruned by the bound anywhere
        #: on this execution's path (bound-coverage signal).
        self.pruned_any = bool(pruned_any)


class _DFSStrategy(SchedulerStrategy):
    """Replays the root prefix and then the stack prefix, then extends
    with the default policy, pushing new choice points as it goes."""

    __slots__ = ("dfs", "replay_len")

    def __init__(self, dfs: "BoundedDFS", replay_len: int) -> None:
        self.dfs = dfs
        self.replay_len = replay_len

    def prefix_choice(self, step_index: int) -> Optional[int]:
        dfs = self.dfs
        root_len = dfs._root_len
        if step_index < root_len:
            return dfs._root_schedule[step_index]
        k = step_index - root_len
        if k < self.replay_len:
            return dfs._stack[k].chosen
        return None

    def choose(
        self, step_index: int, enabled: Tuple[int, ...], last_tid: int, kernel: Kernel
    ) -> int:
        dfs = self.dfs
        root_len = dfs._root_len
        if step_index < root_len:
            # Root-prefix replay on the slow path (fast_replay off, or the
            # hint was rejected — impossible for a deterministic program).
            return dfs._root_schedule[step_index]
        stack = dfs._stack
        k = step_index - root_len
        if k < self.replay_len:
            return stack[k].chosen
        # New frontier: enumerate candidates (default policy first), prune
        # by bound, push a fresh choice point.
        if k > 0:
            prev = stack[k - 1]
            cost_before = prev.cost_after
            cp_before = prev.cp_after
            maxen_before = prev.maxen_after
            parent_link = prev.link
        else:
            cost_before = dfs._root_cost
            cp_before = dfs._root_cp
            maxen_before = dfs._root_maxen
            parent_link = dfs._root_node
        n = kernel.num_created
        cost = dfs.cost_model
        cache = dfs._order_cache if cost.cacheable else None
        key = (enabled, last_tid, n, step_index == 0)
        cached = None if cache is None else cache.get(key)
        if cached is None:
            default = round_robin_choice(enabled, last_tid, n)
            ordered = [default]
            # Remaining candidates in round-robin order from last_tid, a
            # fixed deterministic order independent of the bound (it only
            # affects which schedule is found first, not the enumerated
            # set) — which is what makes ordering positions a stable DFS
            # sort key across bounds.
            enabled_set = set(enabled)
            for off in range(n):
                tid = (last_tid + off) % n
                if tid in enabled_set and tid != default:
                    ordered.append(tid)
            increments = tuple(
                cost.increment(step_index, last_tid, tid, enabled, n)
                for tid in ordered
            )
            cached = (tuple(ordered), increments)
            if cache is not None:
                cache[key] = cached
        ordered, all_increments = cached
        width = len(enabled)
        cp_here = cp_before + 1 if width > 1 else cp_before
        maxen_here = maxen_before if maxen_before >= width else width
        bound = dfs.bound
        candidates: List[int] = []
        increments: List[int] = []
        positions: List[int] = []
        pruned_here: Optional[List[PrunedEdge]] = None
        prune_hook = dfs._prune_hook
        for pos, tid in enumerate(ordered):
            inc = all_increments[pos]
            if bound is not None and cost_before + inc > bound:
                dfs._pruned_this_run = True
                frontier = dfs._frontier
                if frontier is not None:
                    edge = PrunedEdge(
                        parent_link,
                        pos,
                        tid,
                        cost_before + inc,
                        cp_here,
                        maxen_here,
                    )
                    frontier.append(edge)
                    if prune_hook is not None:
                        if pruned_here is None:
                            pruned_here = [edge]
                        else:
                            pruned_here.append(edge)
                continue
            candidates.append(tid)
            increments.append(inc)
            positions.append(pos)
        if pruned_here is not None:
            resumed = prune_hook(pruned_here, step_index, kernel)
            if resumed is not None:
                # Freshly woken cross-bound holder (engine/snapshot.py):
                # the hook re-rooted this search at one of the edges just
                # recorded, so execute its pruned candidate as the new
                # root's final step and stop replaying — the rest of the
                # run explores the resumed subtree.
                self.replay_len = 0
                return resumed
        if not candidates:
            # The default round-robin continuation always has cost 0, so
            # this cannot happen; guard for future cost models.
            raise AssertionError("bound pruned every enabled successor")
        stack.append(
            _ChoicePoint(
                candidates,
                increments,
                0,
                cost_before,
                positions,
                cp_here,
                maxen_here,
                parent_link,
            )
        )
        hook = dfs._fork_hook
        if hook is not None and len(candidates) > 1:
            # Snapshot capture (engine/snapshot.py): if the point is deep
            # enough, the current process forks one parked holder owning
            # every untried sibling and truncates the point to its default
            # candidate; a freshly-woken holder instead retargets it at
            # *its* first sibling.  Either way the point's selection after
            # the hook is what this run executes.
            hook(stack[-1], step_index, kernel)
            cp = stack[-1]
            return cp.candidates[cp.idx]
        return candidates[0]


class BoundedDFS:
    """Enumerate all terminal schedules of ``program`` with cost ≤ ``bound``.

    ``bound=None`` (with :class:`~repro.core.bounds.NoBoundCost`) is the
    paper's unbounded DFS.  Iterate :meth:`runs`; the caller decides when
    to stop (schedule limits live in the explorer wrappers).

    Keyword extensions (all optional; defaults reproduce the classic
    search exactly):

    root:
        A :class:`PrunedEdge` to search beneath: every execution replays
        ``root.schedule`` first and only the subtree below it is
        enumerated.  Used by iterative bounding's frontier resumption.
    frontier:
        A list that collects a :class:`PrunedEdge` for every candidate the
        bound cuts off (append-only sink, shared across subtrees).
    order_cache:
        Interning table for candidate orderings + cost increments, shared
        across runs and bounds (they are pure functions of the scheduling
        state for all shipped cost models).
    fast_replay:
        Skip enabled-set recording and scanning during replayed prefixes
        (the executor's ``record_from_step`` cut-over).  Results then
        carry suffix-only ``enabled_sets`` — full-run ``choice_points`` /
        ``max_enabled`` are still exact, reconstructed from per-choice-
        point cumulative stats.
    """

    def __init__(
        self,
        program: Program,
        cost_model: Optional[BoundCost] = None,
        bound: Optional[int] = None,
        *,
        visible_filter: Optional[VisibleFilter] = None,
        max_steps: int = DEFAULT_MAX_STEPS,
        spurious_wakeups: int = 0,
        root: Optional[PrunedEdge] = None,
        frontier: Optional[List[PrunedEdge]] = None,
        order_cache: Optional[OrderCache] = None,
        fast_replay: bool = False,
        budget=None,
    ) -> None:
        self.program = program
        self.cost_model = cost_model or NoBoundCost()
        self.bound = bound
        self.visible_filter = visible_filter
        self.max_steps = max_steps
        self.spurious_wakeups = spurious_wakeups
        self.fast_replay = fast_replay
        #: Optional cooperative :class:`repro.core.budget.Budget`, polled by
        #: the executor between visible steps; an expired budget surfaces as
        #: a run with ``Outcome.TIMEOUT`` (callers stop the search there).
        self.budget = budget
        self._stack: List[_ChoicePoint] = []
        self._pruned_this_run = False
        self._exhausted = False
        self._frontier = frontier
        #: Optional snapshot-capture hook ``(choice_point, step_index,
        #: kernel) -> None``, armed by engine/snapshot.py while its runner
        #: drives this search (in the parent and in every forked holder);
        #: called right after a *new* multi-candidate choice point is
        #: pushed, on any run.
        self._fork_hook = None
        #: Optional cross-bound snapshot hook ``(pruned_edges, step_index,
        #: kernel) -> Optional[int]``, armed by engine/snapshot.py when a
        #: frontier sink is active: called with every edge the bound just
        #: cut off at one choice point, *before* the point is pushed.  In
        #: the calling process it parks a forked holder owning the edges
        #: and returns ``None``; in a freshly woken holder child it
        #: re-roots this search at the resumed edge and returns that
        #: edge's tid (the step the strategy must now execute).
        self._prune_hook = None
        #: Width-stat re-seed base of the in-flight run (set per run).
        self._reseed = (0, 0)
        self._order_cache: OrderCache = order_cache if order_cache is not None else {}
        if root is not None:
            self._root_schedule = list(root.schedule)
            self._root_node = root
            self._root_cost = root.cost_after
            self._root_cp = root.cp
            self._root_maxen = root.maxen
        else:
            self._root_schedule = []
            self._root_node = None
            self._root_cost = 0
            self._root_cp = 0
            self._root_maxen = 0
        self._root_len = len(self._root_schedule)

    @property
    def exhausted(self) -> bool:
        """Whether the (sub)tree has been fully enumerated.  Valid at every
        :meth:`runs` yield: backtracking happens eagerly, so after the
        final run this is already ``True``."""
        return self._exhausted

    def runs(self) -> Iterator[RunRecord]:
        """Yield one :class:`RunRecord` per execution until the bounded
        schedule space is exhausted."""
        replay_len = 0
        while not self._exhausted:
            self._pruned_this_run = False
            strategy = _DFSStrategy(self, replay_len)
            cut = self._root_len + replay_len if self.fast_replay else 0
            # The re-seed base (cumulative width stats of the replayed
            # prefix) is fixed before the run starts, so compute it now:
            # a cross-bound holder forked mid-execute clears the stack
            # when it wakes, but its correct base is exactly the one its
            # parent computed here (the paths share the replayed prefix).
            if replay_len > 0:
                pre = self._stack[replay_len - 1]
                self._reseed = (pre.cp_after, pre.maxen_after)
            else:
                self._reseed = (self._root_cp, self._root_maxen)
            result = execute(
                self.program,
                strategy,
                max_steps=self.max_steps,
                visible_filter=self.visible_filter,
                record_enabled=True,
                record_from_step=cut,
                spurious_wakeups=self.spurious_wakeups,
                budget=self.budget,
            )
            if cut:
                # Re-seed the width stats the skipped prefix would have
                # contributed; every path's cumulative stats live on its
                # deepest replayed choice point (or the root edge).
                cp0, maxen0 = self._reseed
                result.choice_points += cp0
                if maxen0 > result.max_enabled:
                    result.max_enabled = maxen0
            final_cost = (
                self._stack[-1].cost_after if self._stack else self._root_cost
            )
            record = RunRecord(result, final_cost, self._pruned_this_run)
            # Backtrack *before* yielding so ``exhausted`` is accurate the
            # moment the caller sees the final run (a schedule limit can
            # land exactly on space exhaustion — Table 2 accounting).
            next_replay = self._backtrack()
            if next_replay is None:
                self._exhausted = True
            else:
                replay_len = next_replay
            yield record

    def split_remaining(self) -> List[PrunedEdge]:
        """Detach every unexplored continuation as resumable edges.

        Valid between :meth:`runs` yields (backtracking is eager, so the
        stack already describes the *next* run): the remaining work is
        exactly

        - the current (not yet executed) candidate and everything after it
          at the deepest choice point, and
        - every candidate *after* the current one at each shallower choice
          point (the current ones are interior to the detached subtrees
          below).

        Each becomes a :class:`PrunedEdge` rooted at that choice point's
        persistent path — the same descriptor shape frontier resumption
        uses, so a worker resumes it verbatim.  The returned list is in
        ascending ``order_path`` (DFS) order: deeper edges extend the
        prefix through the *current* choice at every shallower point, and
        the current choice precedes every untried sibling, so emitting
        deepest-first reproduces the serial visiting order exactly.  The
        search itself becomes ``exhausted``: ownership of the remainder
        transfers to the caller.
        """
        if self._exhausted or not self._stack:
            return []
        edges: List[PrunedEdge] = []
        stack = self._stack
        for depth in range(len(stack) - 1, -1, -1):
            cp = stack[depth]
            first = cp.idx if depth == len(stack) - 1 else cp.idx + 1
            for j in range(first, len(cp.candidates)):
                edges.append(
                    PrunedEdge(
                        cp.parent_link,
                        cp.order_positions[j],
                        cp.candidates[j],
                        cp.cost_before + cp.increments[j],
                        cp.cp_after,
                        cp.maxen_after,
                    )
                )
        self._stack = []
        self._exhausted = True
        return edges

    def _backtrack(self) -> Optional[int]:
        """Advance the deepest choice point with an untried candidate.

        Returns the new replay length, or ``None`` when exploration is
        complete.
        """
        stack = self._stack
        while stack:
            top = stack[-1]
            if top.has_untried():
                top.idx += 1
                top.link = _PathNode(top.parent_link, top.order_pos, top.chosen)
                return len(stack)
            stack.pop()
        return None
