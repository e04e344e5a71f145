"""A simplified reimplementation of the default Maple algorithm.

Maple (Yu et al., OOPSLA'12) is *not* systematic: it first performs
profiling runs that record patterns of inter-thread dependencies through
shared-memory accesses ("interleaving idioms"), predicts untested
alternative interleavings, and then performs active runs that bias the
scheduler to force each untested idiom, until none remain or they are all
deemed infeasible (section 3 of the paper).

Our approximation keeps that structure with the simplest useful idiom —
Maple's idiom1, an ordered pair of conflicting accesses from two threads:

1. **Profiling**: run the program a few times (one round-robin run plus
   random-schedule runs), recording, per shared location, adjacent access
   pairs from different threads where at least one access writes.  Each
   observed ordered site pair ``(a → b)`` is a *tested* idiom; its flip
   ``(b → a)`` becomes a *candidate*.
2. **Active**: for each untested candidate ``(a → b)``, run the program
   with a strategy that stalls any thread poised at site ``b`` until some
   thread has executed site ``a`` (giving up after a stall budget so runs
   terminate).  Newly observed pairs count as tested.  A candidate still
   untested after ``attempts_per_idiom`` active runs is deemed infeasible.

The algorithm stops when no candidates remain — by its own heuristics, not
a schedule limit, exactly like MapleAlg in the paper (which got a 24-hour
budget instead; we cap total runs defensively).
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Optional, Set, Tuple

from ..engine.executor import DEFAULT_MAX_STEPS, execute
from ..engine.state import Kernel
from ..engine.strategies import (
    RandomStrategy,
    RoundRobinStrategy,
    SchedulerStrategy,
    round_robin_choice,
)
from ..engine.trace import ExecutionObserver
from ..runtime.ops import Op, OpKind
from ..runtime.program import Program
from .explorer import ExplorationStats, Explorer

#: Ordered pair of sites: (first-executed, second-executed).
Idiom = Tuple[str, str]

_ACCESS_KINDS = frozenset({OpKind.LOAD, OpKind.STORE, OpKind.RMW, OpKind.CAS})
_WRITE_KINDS = frozenset({OpKind.STORE, OpKind.RMW, OpKind.CAS})


def _location_key(op: Op) -> Tuple[str, Any]:
    # For SharedVar loads/stores arg is the stored value (or None); array
    # accesses — plain or atomic — carry an integer cell index in arg.
    from ..runtime.objects import SharedArray

    if isinstance(op.target, SharedArray):
        return (op.target.name, op.arg)
    return (op.target.name, None)


class _PairRecorder(ExecutionObserver):
    """Records adjacent conflicting inter-thread access pairs per location."""

    def __init__(self) -> None:
        self.pairs: Set[Idiom] = set()
        self._last_access: Dict[Tuple[str, Any], Tuple[int, str, bool]] = {}

    def on_start(self, shared: Any) -> None:
        self._last_access = {}

    def on_step(self, tid: int, op: Op, result: Any, visible: bool) -> None:
        if op.kind not in _ACCESS_KINDS:
            return
        key = _location_key(op)
        is_write = op.kind in _WRITE_KINDS
        prev = self._last_access.get(key)
        if prev is not None:
            ptid, psite, pwrite = prev
            if ptid != tid and (pwrite or is_write):
                self.pairs.add((psite, op.site))
        self._last_access[key] = (tid, op.site, is_write)


class _ActiveStrategy(SchedulerStrategy, ExecutionObserver):
    """Round-robin scheduling that stalls threads poised at the idiom's
    second site until the first site has executed."""

    def __init__(self, idiom: Idiom, stall_budget: int = 64) -> None:
        self.site_a, self.site_b = idiom
        self.stall_budget = stall_budget
        self._a_seen = False
        self._stalls = 0

    def on_execution_start(self) -> None:
        self._a_seen = False
        self._stalls = 0

    # ExecutionObserver side ------------------------------------------------
    def on_step(self, tid: int, op: Op, result: Any, visible: bool) -> None:
        if not self._a_seen and op.site == self.site_a:
            self._a_seen = True

    # SchedulerStrategy side -------------------------------------------------
    def choose(
        self, step_index: int, enabled: Tuple[int, ...], last_tid: int, kernel: Kernel
    ) -> int:
        default = round_robin_choice(enabled, last_tid, kernel.num_created)
        if self._a_seen or self._stalls >= self.stall_budget or len(enabled) == 1:
            return default
        pending = kernel.threads[default].pending
        if pending is not None and pending.site == self.site_b:
            # Stall the default thread: pick the next enabled thread that is
            # not itself poised at site b (if any).
            for tid in enabled:
                if tid == default:
                    continue
                p = kernel.threads[tid].pending
                if p is None or p.site != self.site_b:
                    self._stalls += 1
                    return tid
        return default


class MapleAlgExplorer(Explorer):
    """Profiling + idiom-forcing active testing (simplified MapleAlg)."""

    technique = "MapleAlg"

    def __init__(
        self,
        profile_runs: int = 4,
        attempts_per_idiom: int = 2,
        seed: Optional[int] = None,
        *,
        max_steps: int = DEFAULT_MAX_STEPS,
        stop_at_first_bug: bool = True,
        budget=None,
    ) -> None:
        self.profile_runs = profile_runs
        self.attempts_per_idiom = attempts_per_idiom
        self.seed = seed
        self.max_steps = max_steps
        self.stop_at_first_bug = stop_at_first_bug
        self.budget = budget

    def explore(self, program: Program, limit: int) -> ExplorationStats:
        """``limit`` caps total runs defensively (MapleAlg's own heuristics
        normally terminate it much earlier)."""
        stats = ExplorationStats(self.technique, program.name, limit)
        rng = random.Random(self.seed)
        tested: Set[Idiom] = set()

        def run_one(strategy, extra_observers=()) -> None:
            recorder = _PairRecorder()
            result = execute(
                program,
                strategy,
                max_steps=self.max_steps,
                visible_filter=None,  # MapleAlg observes every access
                observers=(recorder, *extra_observers),
                record_enabled=False,
                budget=self.budget,
            )
            tested.update(recorder.pairs)
            # A TIMEOUT marks ``deadline_hit``; the next phase check stops.
            stats.account(result)

        # Phase 1: profiling -------------------------------------------------
        run_one(RoundRobinStrategy())
        for _ in range(self.profile_runs - 1):
            if stats.deadline_hit or stats.schedules >= limit:
                return stats
            run_one(RandomStrategy(rng))
            if self.stop_at_first_bug and stats.first_bug is not None:
                return stats

        # Phase 2: active idiom forcing --------------------------------------
        attempts: Dict[Idiom, int] = {}
        while stats.schedules < limit:
            if stats.deadline_hit:
                return stats
            if self.stop_at_first_bug and stats.first_bug is not None:
                return stats
            untested: List[Idiom] = sorted(
                idiom
                for idiom in {(b, a) for (a, b) in tested}
                if idiom not in tested
                and attempts.get(idiom, 0) < self.attempts_per_idiom
            )
            if not untested:
                stats.completed = True
                return stats
            idiom = untested[0]
            attempts[idiom] = attempts.get(idiom, 0) + 1
            strategy = _ActiveStrategy(idiom)
            run_one(strategy, extra_observers=(strategy,))
        return stats
