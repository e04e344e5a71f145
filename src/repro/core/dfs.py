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
    schedules only for the edges that are resumed or shipped.
    """

    __slots__ = ("parent", "tid")

    #: Only edges carry a materialized path (see PrunedEdge.schedule).
    _schedule = None

    def __init__(self, parent, tid: int) -> None:
        self.parent = parent
        self.tid = tid


class _ChoicePoint:
    """One scheduling point on the current DFS path."""

    __slots__ = (
        "candidates",
        "increments",
        "idx",
        "cost_before",
        "pruned",
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
        pruned,
        cp_after: int,
        maxen_after: int,
        parent_link,
    ) -> None:
        self.candidates = candidates
        self.increments = increments
        self.idx = idx
        self.cost_before = cost_before
        #: What this point hands on after its explored subtrees, in DFS
        #: order: the edges the bound pruned here (a suffix of the
        #: candidate ordering, see :class:`~repro.core.bounds.BoundCost`),
        #: or the forked holder that took them over
        #: (:meth:`BoundedDFS.detach_untried`).  They join the frontier
        #: sink when the point is popped.
        self.pruned = pruned
        #: Cumulative width statistics of the path through this step
        #: (choice points with >1 enabled thread / max enabled-set width),
        #: used to re-seed run stats when the replay prefix is skipped.
        self.cp_after = cp_after
        self.maxen_after = maxen_after
        #: Persistent path up to (excluding) this step; ``link`` extends it
        #: with the *current* choice and is rebuilt on every backtrack.
        self.parent_link = parent_link
        self.link = _PathNode(parent_link, candidates[idx])

    @property
    def chosen(self) -> int:
        return self.candidates[self.idx]

    @property
    def cost_after(self) -> int:
        return self.cost_before + self.increments[self.idx]

    def has_untried(self) -> bool:
        return self.idx + 1 < len(self.candidates)

    def remainder(self, first: int) -> list:
        """The candidates from index ``first`` on as resumable edges — O(1)
        each: they share the immutable prefix chain — followed by the
        pending pruned edges, in DFS order."""
        edges = [
            PrunedEdge(
                self.parent_link,
                self.candidates[j],
                self.cost_before + self.increments[j],
                self.cp_after,
                self.maxen_after,
            )
            for j in range(first, len(self.candidates))
        ]
        edges.extend(self.pruned)
        return edges

    def truncate(self) -> None:
        """Drop every candidate after the current one, and the pruned
        edges that follow them."""
        del self.candidates[self.idx + 1:]
        del self.increments[self.idx + 1:]
        self.pruned = ()


class PrunedEdge:
    """A candidate the bound cut off, with everything needed to resume
    the search beneath it at a later (higher) bound.

    The edge doubles as the terminal :class:`_PathNode` of its path
    (``parent``/``tid`` slots), so recording one is O(1); ``schedule``
    materializes the chain on first use — only for the edges a later
    bound resumes or a process boundary ships.

    Edges carry no sort key: every list of them (a frontier, a split
    remainder, a holder's share) is in DFS visiting order by
    construction, which is what lets
    :class:`repro.core.iterative.FrontierSearch` enumerate resumed
    schedules in exactly the order a from-scratch search would.
    """

    __slots__ = (
        "parent",
        "tid",
        "cost_after",
        "cp",
        "maxen",
        "holder",
        "_schedule",
    )

    def __init__(
        self,
        parent,
        tid: int,
        cost_after: int,
        cp: int,
        maxen: int,
    ) -> None:
        self.parent = parent
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
        self._schedule: Optional[List[int]] = None

    @property
    def schedule(self) -> List[int]:
        """Replayable prefix: the path to the pruning point plus the pruned
        candidate itself as the final step.  Never mutated, so rebuilt
        edges and payloads share it."""
        if self._schedule is None:
            sched: List[int] = []
            node = self
            while node is not None:
                if node._schedule is not None:
                    # A materialized ancestor (e.g. a resumed root): its
                    # schedule is the rest of the prefix.
                    sched.extend(reversed(node._schedule))
                    break
                sched.append(node.tid)
                node = node.parent
            sched.reverse()
            self._schedule = sched
            # The schedule now stands for the whole chain: let the
            # nodes only this edge kept alive go.
            self.parent = None
        return self._schedule

    def to_payload(self) -> dict:
        """JSON-/pickle-safe shard descriptor (see :mod:`repro.core.sharding`).

        Self-contained, so it can cross a process boundary without
        dragging the parent chain (and the whole search tree) along.
        """
        payload = {
            "schedule": self.schedule,
            "cost_after": self.cost_after,
            "cp": self.cp,
            "maxen": self.maxen,
        }
        if self.holder is not None:
            payload["holder"] = list(self.holder)
        return payload

    @classmethod
    def from_payload(cls, payload: dict) -> "PrunedEdge":
        """Rebuild an edge around its payload's schedule (shared, not
        copied), so edges recorded *beneath* the rebuilt root (worker
        frontier edges, split leftovers) materialize their full absolute
        ``schedule`` exactly as the originals would, without a node per
        prefix step."""
        sched = payload["schedule"]
        edge = cls(
            None,
            sched[-1],
            payload["cost_after"],
            payload["cp"],
            payload["maxen"],
        )
        edge._schedule = sched
        handle = payload.get("holder")
        if handle is not None:
            edge.holder = (handle[0], handle[1])
        return edge

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PrunedEdge(tid={self.tid}, cost={self.cost_after})"


def affords(bound: Optional[int], edge: PrunedEdge) -> bool:
    """Whether ``bound`` lets the search resume beneath ``edge``."""
    return bound is None or edge.cost_after <= bound


class Frontier(list):
    """A frontier search's pruned-edge list, in DFS order by construction.

    Drops an edge once ``2 × limit`` kept edges cost no more than it
    does (keeps everything when ``limit`` is ``None``), which is exact:
    an explorer stops after ``limit`` schedules or ``limit`` abandoned
    runs, so after at most ``2 × limit − 1`` runs; every resumed edge
    yields at least one run; and an edge of cost ``c`` is resumed only
    after every kept edge of a lower cost (at earlier bounds) and every
    kept edge of cost ``c`` before it in the list.  So a dropped edge
    could never be resumed.  The first edge is always kept, so the list
    is non-empty exactly when the uncapped one would be.  ``dropped``
    counts the edges left out.
    """

    __slots__ = ("cap", "dropped", "_kept", "_full")

    def __init__(self, limit: Optional[int] = None) -> None:
        super().__init__()
        self.cap = None if limit is None else 2 * max(1, limit)
        self.dropped = 0
        #: Kept edges per ``cost_after``.
        self._kept: Dict[int, int] = {}
        #: A cost whose edges are all dropped: ``cap`` kept edges cost no
        #: more than it (costs only ever fill up, so every higher cost is
        #: full too).
        self._full: Optional[int] = None

    def append(self, edge: PrunedEdge) -> None:
        self.extend((edge,))

    def extend(self, edges) -> None:
        cap = self.cap
        if cap is None:
            super().extend(edges)
            return
        kept = self._kept
        for edge in edges:
            cost = edge.cost_after
            full = self._full
            if full is None or cost < full:
                if len(self) < cap or sum(
                    n for c, n in kept.items() if c <= cost
                ) < cap:
                    kept[cost] = kept.get(cost, 0) + 1
                    super().append(edge)
                    continue
                self._full = cost
            self.dropped += 1


def in_order(
    remainder: List[PrunedEdge], bound: Optional[int], frontier: list
) -> Iterator[PrunedEdge]:
    """Walk an ordered remainder front to back: yield each edge ``bound``
    affords (a subtree to run — the caller runs it before asking for the
    next one) and append every other edge to ``frontier`` at its
    position.  Consumes ``remainder`` as it goes, so walked edges are
    released: it reverses the list and pops from its end, so between
    yields ``remainder[-1]`` is the next edge (the snapshot look-ahead
    peeks there)."""
    remainder.reverse()
    while remainder:
        edge = remainder.pop()
        if affords(bound, edge):
            yield edge
        else:
            frontier.append(edge)


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
            # set), so the DFS visiting order is the same at every bound.
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
        pruned_here: Optional[List[PrunedEdge]] = None
        cut = False
        for pos, tid in enumerate(ordered):
            inc = all_increments[pos]
            if bound is not None and cost_before + inc > bound:
                cut = True
                if dfs.frontier is not None:
                    edge = PrunedEdge(
                        parent_link,
                        tid,
                        cost_before + inc,
                        cp_here,
                        maxen_here,
                    )
                    if pruned_here is None:
                        pruned_here = [edge]
                    else:
                        pruned_here.append(edge)
                continue
            if cut:
                # The pruned edges wait on the pushed point and join the
                # frontier when it is popped, after all its explored
                # subtrees — DFS order only if they are a suffix.
                raise AssertionError(
                    f"cost model {cost.name!r} pruned a candidate ahead of "
                    "an affordable one (see BoundCost)"
                )
            candidates.append(tid)
            increments.append(inc)
        if cut:
            dfs._pruned_this_run = True
        prune_hook = dfs.prune_hook
        if pruned_here is not None and prune_hook is not None:
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
                pruned_here or (),
                cp_here,
                maxen_here,
                parent_link,
            )
        )
        hook = dfs.fork_hook
        if hook is not None and len(candidates) > 1:
            # Snapshot capture (engine/snapshot.py): if the point is deep
            # enough, the current process forks one parked holder owning
            # every untried sibling (and the point's pruned edges) and
            # truncates the point to its default candidate; a freshly-
            # woken holder instead retargets it at *its* first sibling.
            # Either way the point's selection after the hook is what this
            # run executes.
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
        bound cuts off (append-only sink, shared across subtrees).  A
        point's pruned edges join it when the point is popped, after all
        of its explored subtrees, so the sink is in DFS order.
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
        #: The pruned-edge sink (see ``frontier`` above), or ``None``.
        self.frontier = frontier
        #: Optional snapshot-capture hook ``(choice_point, step_index,
        #: kernel) -> None``, armed by engine/snapshot.py while its runner
        #: drives this search (in the parent and in every forked holder);
        #: called right after a *new* multi-candidate choice point is
        #: pushed, on any run.
        self.fork_hook = None
        #: Optional cross-bound snapshot hook ``(pruned_edges, step_index,
        #: kernel) -> Optional[int]``, armed by engine/snapshot.py when a
        #: frontier sink is active: called with every edge the bound just
        #: cut off at one choice point, *before* the point is pushed.  In
        #: the calling process it parks a forked holder owning the edges
        #: and returns ``None``; in a freshly woken holder child it
        #: re-roots this search at the resumed edge and returns that
        #: edge's tid (the step the strategy must now execute).
        self.prune_hook = None
        #: Width-stat re-seed base of the in-flight run (set per run).
        self._reseed = (0, 0)
        self._order_cache: OrderCache = order_cache if order_cache is not None else {}
        self._set_root(root)

    def _set_root(self, root: Optional[PrunedEdge]) -> None:
        if root is not None:
            self._root_schedule = root.schedule
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

    def split_remaining(self) -> list:
        """Detach every unexplored continuation as resumable edges.

        Valid between :meth:`runs` yields (backtracking is eager, so the
        stack already describes the *next* run): the remaining work is,
        deepest point first,

        - the current (not yet executed) candidate and everything after it
          at the deepest choice point, and
        - every candidate *after* the current one at each shallower choice
          point (the current ones are interior to the detached subtrees
          below),

        each point's share followed by its pending pruned edges.  Each
        candidate becomes a :class:`PrunedEdge` rooted at that choice
        point's persistent path — the same descriptor shape frontier
        resumption uses, so a worker resumes it verbatim.  The list is in
        DFS order: deeper edges extend the prefix through the *current*
        choice at every shallower point, and a point's pruned candidates
        follow its affordable ones.  So it is an *ordered remainder*: a
        consumer runs each edge the bound affords in turn and lets every
        other edge join its frontier where it stands.  The search itself
        becomes ``exhausted``: ownership of the remainder transfers to the
        caller.
        """
        if self._exhausted or not self._stack:
            return []
        edges: list = []
        stack = self._stack
        for depth in range(len(stack) - 1, -1, -1):
            cp = stack[depth]
            edges.extend(
                cp.remainder(cp.idx if depth == len(stack) - 1 else cp.idx + 1)
            )
        self._stack = []
        self._exhausted = True
        return edges

    # -- snapshot holders (engine/snapshot.py) ------------------------------

    @property
    def depth(self) -> int:
        """Choice points on the current path (the next run's stack)."""
        return len(self._stack)

    def detach_untried(self, cp: _ChoicePoint, owner) -> List[PrunedEdge]:
        """Hand ``cp``'s remainder — its untried candidates, then its
        pending pruned edges — to a forked holder as edges; this search
        keeps only the current candidate, and ``owner`` (the holder's
        handle) stands where the remainder was: it reaches the frontier
        sink when ``cp`` is popped, and :meth:`split_remaining` at
        ``cp``'s depth."""
        edges = cp.remainder(cp.idx + 1)
        cp.truncate()
        cp.pruned = [owner]
        return edges

    def resume_sibling(self, cp: _ChoicePoint) -> None:
        """In a woken holder, which owns ``cp``'s remainder (the newest
        point): drop the forking process's candidate, select the first
        sibling, and leave every shallower point's untried candidates and
        pruned edges to the forking process.

        The inherited per-run pruning flag belongs to the forking
        process's run (pruning before the fork point); a serial sibling
        run starts clear and never re-observes prefix pruning during
        replay, so only pruning below the fork counts here."""
        self._pruned_this_run = False
        del cp.candidates[0]
        del cp.increments[0]
        cp.idx = 0
        cp.link = _PathNode(cp.parent_link, cp.candidates[0])
        for point in self._stack[:-1]:
            point.truncate()

    def reroot(self, edge: PrunedEdge, bound: int) -> None:
        """In a woken cross-bound holder: make ``edge`` this search's root
        at ``bound``.  The run in flight has executed ``edge.schedule``
        minus its final entry, and that entry runs next as the new root's
        last step.  Its width-stat re-seed base was fixed before the run
        started (:attr:`_reseed`) and covers the shared prefix exactly,
        so only tree state changes: the inherited stack, with the forking
        process's pending edges, is dropped."""
        self.bound = bound
        self._set_root(edge)
        self._stack = []
        self._exhausted = False
        self._pruned_this_run = False

    def _backtrack(self) -> Optional[int]:
        """Advance the deepest choice point with an untried candidate.

        Every point popped on the way hands its pruned edges to the
        frontier sink.  Returns the new replay length, or ``None`` when
        exploration is complete.
        """
        stack = self._stack
        sink = self.frontier
        while stack:
            top = stack[-1]
            if top.has_untried():
                top.idx += 1
                top.link = _PathNode(top.parent_link, top.chosen)
                return len(stack)
            stack.pop()
            if top.pruned and sink is not None:
                sink.extend(top.pruned)
        return None
