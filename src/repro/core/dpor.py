"""Dynamic partial-order reduction with sleep sets (Flanagan & Godefroid).

The paper's future work (section 8) names "various partial-order reduction
techniques that reduce the number of schedules explored during systematic
testing"; its related-work section traces them to persistent sets, sleep
sets, and DPOR (POPL'05).  This module implements the classic algorithm on
top of our stateless, replay-based engine:

- **Dependency**: two operations are *dependent* iff they touch the same
  shared object (same array cell) and do not obviously commute — at least
  one writes, or both are lock-like operations on the same object.
  Independent operations may be swapped without changing the outcome.
  Keys are built from stable per-kernel :class:`NamingScope` names, not
  ``id(target)`` — ids can be reused after GC within one process and are
  meaningless across the process boundary a sharded worker sits behind.
- **Backtrack sets** (DPOR): when executing an operation, find the most
  recent earlier operation it is dependent on and not already causally
  ordered after (via vector clocks — the packed
  :class:`~repro.racedetect.vectorclock.VectorClock` the race detector
  uses); schedule the current thread for exploration at that earlier
  point.
- **Incremental analysis**: consecutive executions share the path prefix
  below the point the backtrack step changed, and replay it
  deterministically, so those steps keep their clocks and the backtrack
  entries they registered; each execution analyses only its new suffix.
  The kept prefix needs no scheduling decision either: the executor
  replays it through its ``record_from_step`` fast path (no ``choose``,
  no enabled-set scan), and the explorer re-seeds the width stats of the
  replayed steps the run actually took.
- **Key index**: per dependency key, the ascending list of analysed steps
  touching it.  A step can only be dependent on a predecessor that shares
  a key, so the race walk visits the union of its keys' lists, most
  recent first — the same predecessors, in the same order, as a walk
  over the whole path — and a step with no keys walks nothing.
- **Sleep sets**: a sibling choice already explored at a point is put to
  sleep; a sleeping thread is skipped until an executed operation is
  dependent with the sleeper's pending operation.
- **State cache**: every new choice point fingerprints the full execution
  state (:func:`~repro.engine.hardening.state_fingerprint`).  When a
  fully-explored subtree's root state recurs and the cached subtree's
  aggregate footprint is independent of every step in the current prefix,
  the revisit is pruned: the behaviours below an identical state are
  identical, and independence means the pruned subtree could not have
  registered any backtrack point in the new prefix.  Subtrees that *do*
  conflict with the prefix are re-explored in full — that keeps the
  classic unsoundness of naive stateful DPOR out.  The cache is scoped to
  one top-level branch (cleared whenever the root point retires a choice)
  so that serial and sharded exploration make identical decisions.  The
  prefix check reads the key index too: only steps touching a key of the
  cached footprint can conflict with it.

Guarantee (tested with hypothesis against full DFS): DPOR explores a
subset of the terminal schedules, at least one per Mazurkiewicz trace —
so it finds a deadlock/assertion violation iff full DFS finds one, while
typically exploring far fewer schedules.

Scope note: the classic algorithm assumes dependencies are the only
inter-thread interaction.  Our ``AWAIT`` (value-gated busy-wait) op reads
a shared cell, and we treat it as a read for dependency purposes; this is
conservative and preserved by the property tests, which generate programs
over the full op vocabulary.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import (
    AbstractSet,
    Any,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Set,
    Tuple,
)

from ..engine.executor import DEFAULT_MAX_STEPS, execute
from ..engine.hardening import state_fingerprint
from ..engine.state import Kernel, VisibleFilter
from ..engine.strategies import SchedulerStrategy, round_robin_choice
from ..racedetect.vectorclock import VectorClock
from ..runtime.objects import SharedArray
from ..runtime.ops import Op, OpKind
from ..runtime.program import Program
from .explorer import BugReport, ExplorationStats, Explorer

# ---------------------------------------------------------------------------
# Dependency relation
# ---------------------------------------------------------------------------

_READS = frozenset({OpKind.LOAD, OpKind.AWAIT})
_WRITES = frozenset({OpKind.STORE, OpKind.RMW, OpKind.CAS})
#: Kinds whose ops carry an array-cell index in ``arg`` when the target is
#: a SharedArray — plain accesses and the atomic RMW/CAS variants alike.
#: (RMW/CAS used to fall through to the whole-object key, so an atomic
#: CAS on ``a[0]`` did not intersect a racing STORE's ``(a, 0)`` key and
#: DPOR could prune the interleaving exposing the race.)
_PER_CELL = frozenset({OpKind.LOAD, OpKind.STORE, OpKind.RMW, OpKind.CAS})
_DATA = _READS | _WRITES
_LOCKLIKE = frozenset(
    {
        OpKind.LOCK,
        OpKind.REACQUIRE,
        OpKind.UNLOCK,
        OpKind.TRYLOCK,
        OpKind.COND_WAIT,
        OpKind.COND_SIGNAL,
        OpKind.COND_BROADCAST,
        OpKind.BARRIER_WAIT,
        OpKind.SEM_WAIT,
        OpKind.SEM_POST,
        OpKind.RW_RDLOCK,
        OpKind.RW_WRLOCK,
        OpKind.RW_UNLOCK,
    }
)
_LOCAL = frozenset(
    {OpKind.YIELD, OpKind.NOOP, OpKind.THREAD_START, OpKind.SPAWN, OpKind.SPAWN_MANY,
     OpKind.JOIN}
)

#: Dependency keys are ``(object name, cell index | None)``.
DepKey = Tuple[str, Any]


def _target_key(op: Op) -> Optional[DepKey]:
    """Identity of the shared object an op touches (None = thread-local)."""
    if op.kind in _LOCAL:
        return None
    target = op.target
    if op.kind is OpKind.COND_WAIT:
        # Interacts with both the condvar and the mutex; key on the condvar
        # (the mutex interaction is covered by the implicit release, which
        # we conservatively include by treating cond ops as lock-like on
        # the mutex too via `extra_key`).
        return (target.name, None)
    if isinstance(target, SharedArray) and op.kind in _PER_CELL:
        return (target.name, op.arg)
    return (target.name, None)


def _extra_key(op: Op) -> Optional[DepKey]:
    if op.kind is OpKind.COND_WAIT:
        return (op.arg.name, None)  # the mutex released/reacquired
    return None


_NO_KEYS: FrozenSet[DepKey] = frozenset()


def _op_keys(op: Op) -> Tuple[FrozenSet[DepKey], FrozenSet[DepKey]]:
    """``(reads, writes)``: the dependency keys of one visible op.

    Reads commute with reads; a write or a lock-like op conflicts with
    everything on its keys (COND_WAIT's include its mutex).  Thread-local
    ops have no keys."""
    kind = op.kind
    if kind in _LOCAL:
        return _NO_KEYS, _NO_KEYS
    key = _target_key(op)
    if kind in _READS:
        return frozenset((key,)), _NO_KEYS
    extra = _extra_key(op)
    return _NO_KEYS, frozenset((key,) if extra is None else (key, extra))


def _conflict(
    a_reads: AbstractSet[DepKey],
    a_writes: AbstractSet[DepKey],
    b_reads: AbstractSet[DepKey],
    b_writes: AbstractSet[DepKey],
) -> bool:
    """Does a write on either side touch a key the other side uses?"""
    return not (
        a_writes.isdisjoint(b_reads)
        and a_writes.isdisjoint(b_writes)
        and b_writes.isdisjoint(a_reads)
    )


def dependent(a: Op, b: Op) -> bool:
    """Whether two operations may not commute."""
    return _conflict(*_op_keys(a), *_op_keys(b))


def _mutex_roles(op: Op) -> Dict[DepKey, str]:
    """Mutex-protocol roles an op plays, per dependency key.

    ``"hold"``: valid only while the op's thread holds the mutex
    exclusively (UNLOCK; COND_WAIT's implicit release).  ``"free"``: the
    op is enabled only while the mutex is completely free (LOCK,
    REACQUIRE, RW_WRLOCK).  ``"rw_hold"``: requires holding, but the hold
    may be shared (RW_UNLOCK by a reader), so two of them can coexist.
    TRYLOCK plays no role: it is enabled regardless of ownership.
    """
    kind = op.kind
    if kind is OpKind.UNLOCK:
        return {(op.target.name, None): "hold"}
    if kind is OpKind.COND_WAIT:
        return {(op.arg.name, None): "hold"}
    if kind is OpKind.LOCK or kind is OpKind.REACQUIRE:
        return {(op.target.name, None): "free"}
    if kind is OpKind.RW_UNLOCK:
        return {(op.target.name, None): "rw_hold"}
    if kind is OpKind.RW_WRLOCK:
        return {(op.target.name, None): "free"}
    return {}


#: Role pairs that cannot coexist on one mutex: a (valid) release requires
#: the hold, an acquire requires the mutex free, and an exclusive hold
#: excludes every other holder.  ``rw_hold``/``rw_hold`` is absent: two
#: readers of one rwlock may both be poised to unlock it.
_EXCLUSIVE_ROLES = frozenset(
    {
        ("hold", "hold"),
        ("hold", "free"),
        ("free", "hold"),
        ("hold", "rw_hold"),
        ("rw_hold", "hold"),
        ("rw_hold", "free"),
        ("free", "rw_hold"),
    }
)


def never_co_enabled(a: Op, b: Op) -> bool:
    """Whether two ops can never be simultaneously poised to execute.

    Classic DPOR's race candidates must be *dependent and may be
    co-enabled*: a mutex release and an acquire of the same mutex are
    dependent, but their order is dictated by the lock protocol (the
    acquire is enabled only while the mutex is free, the release only
    while its thread holds it), not by a scheduling choice — the
    reversible race, if any, sits at an earlier acquire/acquire point.
    (This engine *schedules* an unowned UNLOCK and contains it as a
    misuse abort, so such an execution produces no terminal schedule —
    treating the pair as never co-enabled stays sound for coverage.)
    """
    roles_a = _mutex_roles(a)
    if not roles_a:
        return False
    roles_b = _mutex_roles(b)
    for key, role_a in roles_a.items():
        role_b = roles_b.get(key)
        if role_b is not None and (role_a, role_b) in _EXCLUSIVE_ROLES:
            return True
    return False


# ---------------------------------------------------------------------------
# The explorer
# ---------------------------------------------------------------------------


class _Point:
    """One scheduling point on the current DFS path.

    A *step* is the visible operation chosen here plus the invisible data
    accesses that execute with it (under racy-site filtering, most memory
    traffic is invisible and piggybacks on the preceding visible op) — so
    the dependency analysis works on the step's full footprint, not just
    the visible op.
    """

    __slots__ = (
        "chosen",
        "enabled",
        "backtrack",
        "done",
        "sleep",
        "op",
        "op_reads",
        "op_writes",
        "reads",
        "writes",
        "keys",
        "suffix_clean",
        "clock",
        "tid",
        "increments",
        "cost_before",
        "fingerprint",
        "frozen",
        "initial_sleep_empty",
        "agg_reads",
        "agg_writes",
    )

    def __init__(self, enabled: Tuple[int, ...], sleep: Set[int]) -> None:
        self.enabled = enabled
        self.backtrack: Set[int] = set()
        self.done: Set[int] = set()
        #: Threads asleep at this point (sleep-set reduction).
        self.sleep: Set[int] = set(sleep)
        self.chosen: Optional[int] = None
        self.reset_run_state()
        #: Preemption cost of scheduling each enabled thread here (0/1) and
        #: the cumulative path cost before this point — fixed once the
        #: point is created (they depend only on the prefix), used by the
        #: bounded variant (Coons et al.'s BPOR combination).
        self.increments: Dict[int, int] = {}
        self.cost_before = 0
        #: Full-state fingerprint at this point (None = unstable/uncached).
        self.fingerprint: Optional[Any] = None
        #: A frozen point never yields further candidates — a sharded
        #: worker's seeded root, whose siblings belong to other workers.
        self.frozen = False
        #: Whether this point was created with an empty inherited sleep
        #: set; only then is the subtree's coverage self-contained and its
        #: state-cache entry sound.
        self.initial_sleep_empty = True
        #: Aggregate footprint of the whole explored subtree rooted here
        #: (the value a state-cache entry publishes).
        self.agg_reads: Set[DepKey] = set()
        self.agg_writes: Set[DepKey] = set()

    def reset_run_state(self) -> None:
        """Forget the step executed here (``tid is None`` marks it)."""
        self.tid: Optional[int] = None
        self.op: Optional[Op] = None          # visible op executed here
        #: The visible op's own dependency keys (:func:`_op_keys`).
        self.op_reads = _NO_KEYS
        self.op_writes = _NO_KEYS
        #: The step's data footprint: the visible op's data key plus every
        #: invisible access that executed with it.
        self.reads: Set[DepKey] = set()
        self.writes: Set[DepKey] = set()
        #: Every key the step touches, set by its analysis: a step whose
        #: keys miss another's cannot conflict with it.
        self.keys: AbstractSet[DepKey] = _NO_KEYS
        #: True when the step carried no invisible data accesses, i.e. the
        #: visible op alone determines its dependencies.
        self.suffix_clean = True
        #: Vector clock of the step, set by its analysis (a step with no
        #: op never gets one).
        self.clock: Optional[VectorClock] = None

    def candidates(self, bound: Optional[int] = None) -> Set[int]:
        """Unexplored backtrack candidates.

        Unbounded: sleep-set filtering applies (a sleeping sibling's
        subtree was fully explored, so re-running it is redundant).
        Bounded: the bound may have truncated the sibling's subtree, so
        the sleep-set argument no longer holds — sleeping candidates are
        only skipped when an awake one exists, and every candidate must be
        affordable within the bound."""
        if self.frozen:
            return set()
        base = self.backtrack - self.done
        if bound is not None:
            base = {
                t for t in base if self.cost_before + self.increments.get(t, 1) <= bound
            }
            awake = base - self.sleep
            return awake if awake else base
        return base - self.sleep

    # -- serialization (sharding + frontier resumption) --------------------

    def to_payload(self, *, closed: bool = False, on_path: bool = True) -> Dict[str, Any]:
        """A picklable snapshot of the scheduling decision state.

        ``closed`` serializes ``done := backtrack`` — an ancestor on the
        path to a deeper frontier entry, whose *current* candidates were
        explored (or recorded in their own entries) already; only
        backtrack points registered later, during resumption, reopen it.
        Footprints/clocks are not serialized: replaying the recorded
        ``chosen`` path rebuilds them deterministically.
        """
        backtrack = sorted(self.backtrack)
        return {
            "enabled": list(self.enabled),
            "backtrack": backtrack,
            "done": list(backtrack) if closed else sorted(self.done),
            "sleep": sorted(self.sleep),
            "chosen": self.chosen if on_path else None,
            "increments": dict(self.increments),
            "cost_before": self.cost_before,
            "frozen": self.frozen,
        }

    @classmethod
    def from_payload(cls, d: Dict[str, Any]) -> "_Point":
        p = cls(tuple(d["enabled"]), set(d["sleep"]))
        p.backtrack = set(d["backtrack"])
        p.done = set(d["done"])
        p.chosen = d["chosen"]
        p.increments = dict(d["increments"])
        p.cost_before = d["cost_before"]
        p.frozen = bool(d.get("frozen"))
        # Reconstructed points never seed the state cache: their coverage
        # context (sleep provenance) is not visible here.
        p.initial_sleep_empty = False
        return p


def _steps_dependent(a: "_Point", b: "_Point") -> bool:
    """Do two completed steps conflict (visible ops or data footprints)?"""
    return _conflict(
        a.op_reads, a.op_writes, b.op_reads, b.op_writes
    ) or _conflict(a.reads, a.writes, b.reads, b.writes)


def _reversible_race(prev: "_Point", point: "_Point") -> bool:
    """Whether the (prev, point) conflict is a race a scheduling choice
    at ``prev`` could reverse.

    Data-footprint conflicts always are.  A conflict carried solely by
    the visible ops is not when the pair can never be co-enabled
    (:func:`never_co_enabled` — e.g. a mutex release vs an acquire of
    the same mutex): no choice at ``prev`` swaps them, so the backtrack
    walk must continue to the earlier step that actually races.
    Registering here instead used to *stop* the walk and lose whole
    trace classes (an acquire/acquire race hidden behind the release).
    """
    if _conflict(prev.reads, prev.writes, point.reads, point.writes):
        return True
    if not _conflict(prev.op_reads, prev.op_writes, point.op_reads, point.op_writes):
        return False
    return not never_co_enabled(prev.op, point.op)


class _PrunedBranch(Exception):
    """Raised mid-execution when the rest of the branch is provably
    covered; the run is abandoned and counted as a non-schedule."""


class _RedundantBranch(_PrunedBranch):
    """Every enabled thread is asleep: the rest of this branch is covered
    by an already-explored sibling."""


class _CachedState(_PrunedBranch):
    """The state at a fresh choice point was fully explored before and its
    subtree is independent of the current prefix."""


class _DPORStrategy(SchedulerStrategy):
    """Replays stack decisions, extends with a default policy, collects
    per-step footprints (as an ExecutionObserver), and runs the DPOR
    analysis for each step once its footprint is complete.

    The first ``replayed`` steps replay a prefix an earlier execution
    already recorded and analysed; the executor's fast path takes them
    from :meth:`prefix_choice` without calling :meth:`choose`."""

    def __init__(self, dpor: "DPORExplorer", replayed: int) -> None:
        self.dpor = dpor
        self.replayed = replayed
        self._current: Optional[_Point] = None

    def prefix_choice(self, step_index: int) -> Optional[int]:
        if step_index < self.replayed:
            return self.dpor._stack[step_index].chosen
        return None

    # -- ExecutionObserver side --------------------------------------------

    def on_start(self, shared: Any) -> None:
        pass

    def on_wake(self, waker: int, woken: int, obj: Any) -> None:
        pass

    def on_finish(self, result: Any) -> None:
        pass

    def on_step(self, tid: int, op: Op, result: Any, visible: bool) -> None:
        point = self._current
        if point is None:
            return
        if visible:
            return  # the visible op was captured in choose()
        # Invisible data access: extend the current step's footprint.
        key = _target_key(op)
        if key is None:
            return
        point.suffix_clean = False
        if op.kind in _WRITES:
            point.writes.add(key)
        else:
            point.reads.add(key)

    # -- SchedulerStrategy side ---------------------------------------------

    def choose(
        self, step_index: int, enabled: Tuple[int, ...], last_tid: int, kernel: Kernel
    ) -> int:
        dpor = self.dpor
        stack = dpor._stack
        # The previous step's footprint is now complete: analyse it.
        if step_index > 0:
            dpor._analyse(step_index - 1)
        if step_index < len(stack):
            point = stack[step_index]
            tid = point.chosen
            assert tid is not None and tid in enabled
            if point.tid is not None:
                # Replaying a step an earlier execution recorded and
                # analysed: replay is deterministic, so keep all of it.
                # (Kept steps normally take the executor's fast path.)
                self._current = None
                return tid
        else:
            # New frontier point: inherit the sleep set from the parent.  A
            # sleeper stays asleep only when the parent step provably
            # commutes with its pending op; a step that carried invisible
            # data accesses might conflict with the sleeper's (unknown)
            # future footprint, so it wakes everyone — conservative but
            # sound.
            sleep: Set[int] = set()
            if stack:
                parent = stack[-1]
                if parent.suffix_clean and parent.op is not None:
                    for s in parent.sleep:
                        pending = (
                            kernel.threads[s].pending
                            if s < len(kernel.threads)
                            else None
                        )
                        if pending is not None and not dependent(parent.op, pending):
                            sleep.add(s)
            point = _Point(enabled, sleep)
            point.initial_sleep_empty = not sleep
            point.increments = {
                t: (1 if t != last_tid and last_tid in enabled else 0)
                for t in enabled
            }
            if stack:
                parent = stack[-1]
                point.cost_before = parent.cost_before + parent.increments.get(
                    parent.chosen, 0
                )
            if dpor._state_cache is not None and stack:
                point.fingerprint = state_fingerprint(kernel, enabled)
                if point.fingerprint is not None:
                    cached = dpor._state_cache.get(point.fingerprint)
                    if cached is not None and not dpor._prefix_conflicts(cached):
                        # Identical state, fully explored before, and its
                        # subtree touches nothing the current prefix
                        # touches: the revisit is covered.  Publish the
                        # cached footprint to the parent so enclosing
                        # cache entries stay an over-approximation.
                        parent = stack[-1]
                        parent.agg_reads |= cached[0]
                        parent.agg_writes |= cached[1]
                        dpor.state_cache_hits += 1
                        raise _CachedState()
            bound = dpor.preemption_bound
            if bound is None:
                selectable = [t for t in enabled if t not in sleep]
                if not selectable:
                    raise _RedundantBranch()
            else:
                affordable = [
                    t
                    for t in enabled
                    if point.cost_before + point.increments[t] <= bound
                ]
                if len(affordable) < len(enabled):
                    dpor.bound_pruned = True
                selectable = [t for t in affordable if t not in sleep] or affordable
                if not selectable:
                    raise _RedundantBranch()
            tid = round_robin_choice(tuple(selectable), last_tid, kernel.num_created)
            point.backtrack.add(tid)
            stack.append(point)
        point.chosen = tid
        # Record the visible op and seed the footprint with it.  All data
        # kinds participate — including atomic RMW/CAS (and AWAIT reads),
        # whose visible footprints used to be dropped here, hiding their
        # conflicts with invisible accesses in other steps.
        op = kernel.threads[tid].pending
        point.op = op
        point.tid = tid
        if op is not None:
            point.op_reads, point.op_writes = _op_keys(op)
            if op.kind in _DATA:
                key = _target_key(op)
                (point.writes if op.kind in _WRITES else point.reads).add(key)
        self._current = point
        return tid


class DPORExplorer(Explorer):
    """Depth-first search with dynamic partial-order reduction + sleep sets.

    Honors the common explorer contracts: ``budget`` deadlines surface as
    partial stats with ``deadline_hit``; contained aborts/livelocks are
    counted (never raised); runs that produce no terminal schedule are
    capped at ``limit`` so adversarial programs cannot pin the search.
    """

    technique = "DPOR"

    def __init__(
        self,
        *,
        visible_filter: Optional[VisibleFilter] = None,
        max_steps: int = DEFAULT_MAX_STEPS,
        stop_at_first_bug: bool = False,
        preemption_bound: Optional[int] = None,
        state_cache: bool = True,
        frontier_sink: Optional[List[Dict[str, Any]]] = None,
        root_payload: Optional[Dict[str, Any]] = None,
        shards: int = 1,
        program_source: Any = None,
        budget: Any = None,
    ) -> None:
        self.visible_filter = visible_filter
        if budget is not None:
            self.budget = budget
        self.max_steps = max_steps
        self.stop_at_first_bug = stop_at_first_bug
        #: When set, explore only schedules with at most this many
        #: preemptions, with Coons-style conservative backtrack points
        #: preserving bounded coverage (BPOR).
        self.preemption_bound = preemption_bound
        if preemption_bound is not None:
            self.technique = f"BPOR({preemption_bound})"
        #: Set during explore() when the bound cut off any candidate —
        #: i.e. raising the bound could reach more schedules.
        self.bound_pruned = False
        #: When bounded and set, every retiring point with backtrack
        #: candidates the bound cannot afford appends a resumable payload
        #: here (the BPOR frontier — explored at bound+1 instead of
        #: restarting from scratch).
        self.frontier_sink = frontier_sink
        #: Optional serialized stack prefix to resume/shard from.
        self.root_payload = root_payload
        self.shards = shards
        self.program_source = program_source
        #: State-cache prunes taken (diagnostic; not part of stats).
        self.state_cache_hits = 0
        self._use_state_cache = state_cache and preemption_bound is None
        self._state_cache: Optional[Dict[Any, Tuple[Set[DepKey], Set[DepKey]]]] = None
        self._stack: List[_Point] = []
        #: Each thread's clock after its latest analysed step.
        self._thread_clock: Dict[int, VectorClock] = {}
        #: Per dependency key, the ascending steps whose ``keys`` hold it:
        #: exactly the predecessors the race walk can find dependent.
        self._key_index: Dict[DepKey, List[int]] = {}
        #: ``(choice_points, max_enabled)`` over the first ``n`` steps the
        #: next run replays, at index ``n`` (the width stats the fast path
        #: skips).
        self._kept_widths: List[Tuple[int, int]] = [(0, 0)]
        self._abandoned = 0
        self._run_log: Optional[List[Any]] = None
        #: The reconstructed points when seeded (kept after they pop, so a
        #: sharded worker can report backtrack points registered at its
        #: frozen root).
        self.seed_points: List[_Point] = []

    def _analyse(self, j: int) -> None:
        """Clock + backtrack analysis for the completed step ``j``.

        Runs once per recorded step: a step replayed unchanged keeps its
        result (see :meth:`_begin_run`).  Walks
        every dependent, non-happens-before predecessor from the most
        recent backwards (:meth:`_sharing_steps`); at the first
        *reversible* race point
        (:func:`_reversible_race`) where the stepping thread was enabled,
        scheduling it there reverses the race — record it and stop.
        Dependent pairs that can never be co-enabled (a mutex release vs
        an acquire of the same mutex) join the clock but register
        nothing: the order-determining race sits at an earlier
        acquire/acquire point, and stopping at the release used to lose
        the trace class whose critical sections run in the other order.
        At points where the stepping thread was blocked the
        add-all-enabled fallback is a no-op, so keep walking — together
        these rules are what make lock-order deadlocks (and both orders
        of two critical sections) reachable."""
        stack = self._stack
        point = stack[j]
        if point.clock is not None:
            return  # already analysed
        q = point.tid
        if q is None or point.op is None:
            return
        base = self._thread_clock.get(q)
        if base is None:
            base = VectorClock()
        clock = base.copy()
        keys = point.op_reads | point.op_writes | point.reads | point.writes
        point.keys = keys
        registered = False
        for i in self._sharing_steps(j, keys):
            prev = stack[i]
            if prev.tid == q or not _steps_dependent(prev, point):
                continue
            clock.join(prev.clock)
            if (
                not registered
                and not prev.clock.leq(base)
                and _reversible_race(prev, point)
            ):
                if q in prev.enabled:
                    prev.backtrack.add(q)
                    if q in prev.sleep and q not in prev.done:
                        # q inherited prev's sleep set, so the candidate is
                        # sleep-filtered there and the reversal would be
                        # lost.  Flanagan-Godefroid's rule allows *any*
                        # member of E — the enabled threads with an event
                        # in (i, j] in the racing step's causal past — and
                        # the sleep invariant only covers members that are
                        # themselves asleep; register the awake witnesses
                        # (e.g. the writer whose step wakes q up).
                        for k in range(i + 1, j):
                            other = stack[k]
                            if (
                                other.tid in prev.enabled
                                and other.tid != q
                                and other.tid not in prev.sleep
                                and (other.clock is None or other.clock.leq(clock))
                            ):
                                prev.backtrack.add(other.tid)
                    registered = True
                else:
                    prev.backtrack.update(prev.enabled)
                if self.preemption_bound is not None:
                    # Conservative backtrack point (BPOR): scheduling q at
                    # i may blow the budget there; also schedule it at the
                    # most recent earlier point where running q is *free*
                    # (a non-preemptive switch), so the reversal stays
                    # reachable within the bound.
                    for k in range(i, -1, -1):
                        earlier = stack[k]
                        if (
                            q in earlier.enabled
                            and earlier.increments.get(q, 1) == 0
                        ):
                            earlier.backtrack.add(q)
                            break
        clock.tick(q)
        point.clock = clock
        self._thread_clock[q] = clock
        index = self._key_index
        for key in keys:
            steps = index.get(key)
            if steps is None:
                index[key] = [j]
            else:
                steps.append(j)

    def _sharing_steps(self, j: int, keys: AbstractSet[DepKey]) -> Iterable[int]:
        """The steps before ``j`` whose keys meet ``keys``, most recent
        first: the union of the keys' :attr:`_key_index` lists, which
        hold only steps analysed before ``j``.  Any other step shares no
        key with ``keys``, so it cannot be dependent."""
        index = self._key_index
        sharing = [index[key] for key in keys if key in index]
        if len(sharing) > 1:
            return sorted(set().union(*sharing), reverse=True)
        return reversed(sharing[0]) if sharing else ()

    # -- state cache ---------------------------------------------------------

    def _prefix_conflicts(self, cached: Tuple[Set[DepKey], Set[DepKey]]) -> bool:
        """Does the cached subtree's aggregate footprint conflict with any
        step of the current path?  (Conflict = the pruned subtree might
        have registered a backtrack point in this prefix: do not prune.)

        A step conflicts with a cached write on any key it touches, and
        with a cached read only by writing that key — a visible op's own
        keys count even when it is not a data access: writes and
        lock-like ops conflict with everything on the same key.  Every
        step of the path is analysed by now, so the key index lists
        exactly the steps touching each key."""
        creads, cwrites = cached
        index = self._key_index
        for key in cwrites:
            if index.get(key):
                return True
        stack = self._stack
        for key in creads:
            for i in index.get(key, ()):
                prev = stack[i]
                if key in prev.writes or key in prev.op_writes:
                    return True
        return False

    def _fold_step(self, point: _Point) -> None:
        """Fold the just-retired choice's step footprint into the point's
        subtree aggregate (deterministic per (point, chosen): replays of
        the same choice always carry the same footprint)."""
        if self._state_cache is None:
            return
        point.agg_reads |= point.op_reads
        point.agg_reads |= point.reads
        point.agg_writes |= point.op_writes
        point.agg_writes |= point.writes

    # -- exploration ----------------------------------------------------------

    def explore(self, program: Program, limit: int) -> ExplorationStats:
        if self.shards > 1 and self.root_payload is None:
            from .sharding import explore_sharded_dpor

            return explore_sharded_dpor(self, program, limit)
        stats = ExplorationStats(self.technique, program.name, limit)
        self._stack = []
        self.bound_pruned = False
        self.state_cache_hits = 0
        self._abandoned = 0
        self._state_cache = {} if self._use_state_cache else None
        self._key_index = {}
        self.seed_points = []
        if self.root_payload is not None:
            self._stack = [
                _Point.from_payload(d) for d in self.root_payload["points"]
            ]
            self.seed_points = list(self._stack)
            if self._stack[-1].chosen is None and not self._backtrack():
                stats.completed = True
                return stats
        while True:
            replayed = self._begin_run()
            strategy = _DPORStrategy(self, replayed)
            try:
                result = execute(
                    program,
                    strategy,
                    max_steps=self.max_steps,
                    visible_filter=self.visible_filter,
                    observers=(strategy,),
                    record_enabled=True,
                    record_from_step=replayed,
                    budget=self.budget,
                )
            except _PrunedBranch:
                result = None  # branch covered by an explored sibling
            else:
                if self._stack and result.schedule:
                    self._analyse(len(result.schedule) - 1)
                # Re-seed the width stats of the replayed steps the run
                # actually took: a budget can stop it inside the prefix,
                # or before its first step.
                choice_points, max_enabled = self._kept_widths[
                    min(replayed, result.steps)
                ]
                result.choice_points += choice_points
                if max_enabled > result.max_enabled:
                    result.max_enabled = max_enabled
            if self._run_log is not None:
                self._run_log.append(result)
            if self._absorb(stats, result, program.name, limit):
                return stats
            if not self._backtrack():
                stats.completed = True
                return stats

    def _begin_run(self) -> int:
        """Set up the analysis state for the next execution; returns how
        many of its first steps replay without :meth:`choose`.

        Only :meth:`_backtrack` changes the path between executions, and
        only at its top point, whose step it forgets; every point below
        keeps its step, clock and registered backtrack entries, because
        the next execution replays those steps identically and
        :meth:`_analyse` of step ``j`` reads only points ``0..j``.  Each
        thread's clock is therefore its clock at its latest kept step,
        and the key index keeps exactly the kept steps.  A kept step
        without an op has no clock and is skipped, not taken as the end
        of the kept prefix.

        A kept step needs neither :meth:`choose` nor :meth:`_analyse`, so
        the next execution takes it through the executor's
        ``record_from_step`` fast path, which skips the width stats too:
        ``_kept_widths`` records them cumulatively for the caller to
        re-seed.  (The executor still feeds replayed steps inside the
        lasso window to the detector.)"""
        thread_clock: Dict[int, VectorClock] = {}
        widths = [(0, 0)]
        choice_points = max_enabled = 0
        kept = 0
        for point in self._stack:
            if point.tid is None:
                break
            if point.clock is not None:
                thread_clock[point.tid] = point.clock
            kept += 1
            width = len(point.enabled)
            if width > 1:
                choice_points += 1
            if width > max_enabled:
                max_enabled = width
            widths.append((choice_points, max_enabled))
        self._thread_clock = thread_clock
        self._kept_widths = widths
        for steps in self._key_index.values():
            if steps and steps[-1] >= kept:
                del steps[bisect_left(steps, kept):]
        return len(widths) - 1

    def _absorb(
        self, stats: ExplorationStats, result: Any, program_name: str, limit: int
    ) -> bool:
        """Account one run (or pruned branch) into ``stats``; True = stop.

        Shared between the in-process loop and the sharded coordinator,
        which replays workers' run summaries through the identical logic
        so merged stats are byte-for-byte what a serial run produces.
        """
        stats.executions += 1
        if result is None:
            # Pruned branch (sleep set / state cache): cheap and always
            # retires a candidate, so it needs no abandoned-run cap.
            return False
        stats.observe_run(result)
        if self._budget_spent(stats, result):
            return True
        if result.outcome.is_terminal_schedule:
            stats.schedules += 1
            stats.observe_leaks(result)
            if result.is_buggy:
                stats.buggy_schedules += 1
                if stats.first_bug is None:
                    stats.first_bug = BugReport.from_result(
                        program_name, result, None, stats.schedules
                    )
                    if self.stop_at_first_bug:
                        return True
            if stats.schedules >= limit:
                return True
        else:
            # Contained abort / livelock / step limit: no schedule was
            # counted, so ``schedules >= limit`` can never trigger — cap
            # abandoned runs so adversarial programs cannot pin the search.
            self._abandoned += 1
            if self._abandoned >= limit:
                return True
        return False

    def _backtrack(self) -> bool:
        """Advance to the deepest point with an unexplored backtrack
        candidate; returns False when the search is complete."""
        stack = self._stack
        bound = self.preemption_bound
        while stack:
            point = stack[-1]
            if point.chosen is not None:
                self._fold_step(point)
                point.done.add(point.chosen)
                point.sleep.add(point.chosen)
                point.chosen = None
                if len(stack) == 1 and self._state_cache is not None:
                    # Top-level branch retired: scope the cache to one
                    # branch so sharded workers (which each own a single
                    # top-level branch) prune exactly like the serial
                    # search does.
                    self._state_cache.clear()
            if bound is not None:
                base = point.backtrack - point.done
                affordable = {
                    t
                    for t in base
                    if point.cost_before + point.increments.get(t, 1) <= bound
                }
                if affordable != base:
                    self.bound_pruned = True
            candidates = point.candidates(bound)
            if candidates:
                point.chosen = min(candidates)
                point.reset_run_state()
                return True
            self._retire_point(point, len(stack) - 1)
            stack.pop()
        return False

    def _retire_point(self, point: _Point, depth: int) -> None:
        """A point is fully explored (for this bound): fold its aggregate
        into the parent, emit a frontier entry for bound-pruned
        candidates, and register its state-cache entry when sound."""
        stack = self._stack
        if depth > 0 and self._state_cache is not None:
            parent = stack[depth - 1]
            parent.agg_reads |= point.agg_reads
            parent.agg_writes |= point.agg_writes
        bound = self.preemption_bound
        if (
            bound is not None
            and self.frontier_sink is not None
            and not point.frozen
        ):
            pruned = [
                t
                for t in point.backtrack - point.done
                if point.cost_before + point.increments.get(t, 1) > bound
            ]
            if pruned:
                self.frontier_sink.append(self._entry_payload(depth))
        if (
            self._state_cache is not None
            and depth > 0
            and not point.frozen
            and point.fingerprint is not None
            and point.initial_sleep_empty
            and not (point.backtrack - point.done)
        ):
            entry = self._state_cache.get(point.fingerprint)
            if entry is None:
                self._state_cache[point.fingerprint] = (
                    set(point.agg_reads),
                    set(point.agg_writes),
                )
            else:
                entry[0].update(point.agg_reads)
                entry[1].update(point.agg_writes)

    def _entry_payload(self, depth: int) -> Dict[str, Any]:
        """Serialize the path to ``stack[depth]`` as a resumable payload.

        Ancestors are closed (their current candidates are accounted for
        elsewhere — explored, or recorded in their own entries); the tip
        keeps its live backtrack/done/sleep sets so resumption explores
        exactly the deferred candidates."""
        stack = self._stack
        points = [stack[i].to_payload(closed=True) for i in range(depth)]
        points.append(stack[depth].to_payload(on_path=False))
        return {"points": points}


def merge_sub_stats(stats: ExplorationStats, sub: ExplorationStats) -> None:
    """Fold one per-bound/per-entry DPOR sub-exploration into iterative
    stats (shared by serial and sharded IBPOR drivers)."""
    stats.executions += sub.executions
    stats.schedules += sub.schedules
    stats.new_schedules_at_bound += sub.schedules
    stats.buggy_schedules += sub.buggy_schedules
    stats.step_limit_hits += sub.step_limit_hits
    stats.livelock_hits += sub.livelock_hits
    stats.max_lasso = max(stats.max_lasso, sub.max_lasso)
    stats.aborts += sub.aborts
    for kind, count in sub.abort_kinds.items():
        stats.abort_kinds[kind] = stats.abort_kinds.get(kind, 0) + count
    if stats.first_abort is None:
        stats.first_abort = sub.first_abort
    for label, count in sub.leaks.items():
        stats.leaks[label] = stats.leaks.get(label, 0) + count
    stats.max_enabled = max(stats.max_enabled, sub.max_enabled)
    stats.max_choice_points = max(stats.max_choice_points, sub.max_choice_points)
    stats.threads_created = max(stats.threads_created, sub.threads_created)
    if sub.deadline_hit:
        stats.deadline_hit = True


class IterativeBPORExplorer(Explorer):
    """Iterative bounded partial-order reduction (IBPOR).

    The POR analogue of the study's IPB: explore all partial-order
    representatives reachable within preemption bound 0, then 1, etc.
    Unlike :class:`~repro.core.iterative.IterativeBoundingExplorer`, the
    per-bound searches cannot share distinct-schedule accounting (each
    bound induces different Mazurkiewicz representatives), so
    ``schedules`` counts every execution across iterations.

    Each bound-pruned backtrack candidate is recorded as a resumable
    stack payload — the BPOR analogue of the IPB/IDB frontier machinery —
    and bound ``c+1`` explores only those deferred subtrees instead of
    restarting from scratch.  The search is complete when a bound
    finishes with an empty frontier: every race-reversal obligation the
    analysis ever registered was either explored or carried forward in an
    entry, so nothing reachable remains.  The classic restart loop (a
    fresh ``DPORExplorer`` per bound, ``bound_pruned`` as the stop
    signal) survives as the test oracle in ``tests/oracles.py``.
    """

    technique = "IBPOR"

    def __init__(
        self,
        *,
        visible_filter: Optional[VisibleFilter] = None,
        max_steps: int = DEFAULT_MAX_STEPS,
        max_bound: int = 64,
        shards: int = 1,
        program_source: Any = None,
        budget: Any = None,
    ) -> None:
        self.visible_filter = visible_filter
        if budget is not None:
            self.budget = budget
        self.max_steps = max_steps
        self.max_bound = max_bound
        self.shards = shards
        self.program_source = program_source

    def _inner(
        self,
        bound: int,
        frontier_sink: Optional[List[Dict[str, Any]]] = None,
        root_payload: Optional[Dict[str, Any]] = None,
    ) -> DPORExplorer:
        inner = DPORExplorer(
            visible_filter=self.visible_filter,
            max_steps=self.max_steps,
            preemption_bound=bound,
            stop_at_first_bug=True,
            frontier_sink=frontier_sink,
            root_payload=root_payload,
        )
        inner.budget = self.budget
        return inner

    def _promote_bug(
        self, stats: ExplorationStats, sub: ExplorationStats, bound: int
    ) -> bool:
        if sub.first_bug is not None and stats.first_bug is None:
            stats.first_bug = BugReport(
                sub.first_bug.program_name,
                sub.first_bug.outcome,
                sub.first_bug.message,
                sub.first_bug.schedule,
                bound,
                stats.schedules,
                traceback=sub.first_bug.traceback,
            )
            return True
        return False

    def explore(self, program: Program, limit: int) -> ExplorationStats:
        if self.shards > 1:
            from .sharding import explore_sharded_ibpor

            return explore_sharded_ibpor(self, program, limit)
        stats = ExplorationStats(self.technique, program.name, limit)
        frontier: List[Dict[str, Any]] = [None]  # bound 0: one full search
        for bound in range(self.max_bound + 1):
            stats.bound = bound
            stats.new_schedules_at_bound = 0
            sink: List[Dict[str, Any]] = []
            for root in frontier:
                inner = self._inner(bound, frontier_sink=sink, root_payload=root)
                sub = inner.explore(program, max(1, limit - stats.schedules))
                merge_sub_stats(stats, sub)
                if self._promote_bug(stats, sub, bound):
                    return stats
                if stats.deadline_hit or stats.schedules >= limit:
                    return stats
            frontier = sink
            if not frontier:
                stats.completed = True
                return stats
        return stats
