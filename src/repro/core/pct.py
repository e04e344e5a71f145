"""PCT — probabilistic concurrency testing (Burckhardt et al., ASPLOS'10).

The paper discusses PCT in related work (section 7) as the principled
randomized alternative to the naive random scheduler: threads get random
priorities, the scheduler always runs the highest-priority enabled thread,
and ``d-1`` priority *change points* are inserted at depths chosen
uniformly over the execution length.  Bugs of depth ``d`` are then found
with probability at least ``1/(n·k^(d-1))``.

We include PCT as an extension (it is not one of the paper's five
techniques) and use it in the ablation benches comparing principled vs.
naive randomization.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Set, Tuple

from ..engine.executor import DEFAULT_MAX_STEPS, execute
from ..engine.state import Kernel, VisibleFilter
from ..engine.strategies import RoundRobinStrategy, SchedulerStrategy
from ..engine.trace import Outcome
from ..runtime.program import Program
from .explorer import ExplorationStats, Explorer, Run


class PCTStrategy(SchedulerStrategy):
    """One PCT execution: random priorities + ``d-1`` change points."""

    def __init__(self, rng: random.Random, k_estimate: int, depth: int) -> None:
        self.rng = rng
        self.k_estimate = max(1, k_estimate)
        self.depth = max(1, depth)
        self.priorities: Dict[int, float] = {}
        self.change_points: Set[int] = set()
        self._change_rank = 0

    def on_execution_start(self) -> None:
        self.priorities = {}
        self._change_rank = 0
        n_points = self.depth - 1
        population = range(1, self.k_estimate + 1)
        k = min(n_points, self.k_estimate)
        self.change_points = set(self.rng.sample(population, k)) if k > 0 else set()

    def _priority(self, tid: int) -> float:
        # Initial priorities land in (1, 2); change points demote a thread
        # to i/(d+1) < 1, strictly below every initial priority and ordered
        # by change-point rank, per the PCT construction.
        p = self.priorities.get(tid)
        if p is None:
            p = 1.0 + self.rng.random()
            self.priorities[tid] = p
        return p

    def choose(
        self, step_index: int, enabled: Tuple[int, ...], last_tid: int, kernel: Kernel
    ) -> int:
        best = max(enabled, key=self._priority)
        if step_index in self.change_points:
            self._change_rank += 1
            self.priorities[best] = self._change_rank / (self.depth + 1.0)
        return best


class PCTExplorer(Explorer):
    """Repeated PCT executions; ``depth`` is the target bug depth ``d``."""

    technique = "PCT"

    def __init__(
        self,
        depth: int = 3,
        seed: Optional[int] = None,
        *,
        visible_filter: Optional[VisibleFilter] = None,
        max_steps: int = DEFAULT_MAX_STEPS,
        stop_at_first_bug: bool = False,
        budget=None,
        shards: int = 1,
        program_source=None,
    ) -> None:
        self.depth = depth
        self.seed = seed
        self.visible_filter = visible_filter
        self.max_steps = max_steps
        self.stop_at_first_bug = stop_at_first_bug
        self.budget = budget
        #: Worker processes to shard the execution-index range over
        #: (``1`` = classic serial stream); see :mod:`repro.core.sharding`.
        self.shards = max(1, shards)
        #: Picklable program source for pool workers; ``None`` = inline.
        self.program_source = program_source
        #: Per-execution seeds (sharded mode), as in
        #: :class:`repro.core.random_walk.RandomExplorer`.
        self.execution_seeds: Optional[List[int]] = None
        #: Skip calibration and use this ``k``: a sharded explorer
        #: calibrates once (deterministic round-robin, so every shard
        #: would compute the identical value) and passes it down to each
        #: shard's copy.
        self.k_override: Optional[int] = None

    def explore(self, program: Program, limit: int) -> ExplorationStats:
        stats = ExplorationStats(self.technique, program.name, limit)
        k_estimate = self.k_override
        if k_estimate is None:
            # Calibrate k (execution length in visible steps) from the
            # deterministic round-robin schedule.
            calibration = execute(
                program,
                RoundRobinStrategy(),
                max_steps=self.max_steps,
                visible_filter=self.visible_filter,
                record_enabled=False,
                budget=self.budget,
            )
            if calibration.outcome is Outcome.TIMEOUT:
                stats.deadline_hit = True
                return stats
            k_estimate = calibration.steps
        k_estimate = max(1, k_estimate)
        if self.shards > 1 and self.execution_seeds is None:
            from .sharding import explore_index_shards

            return explore_index_shards(
                self, program, limit, k_override=k_estimate
            )
        seeds = self.execution_seeds
        strategy = (
            PCTStrategy(random.Random(self.seed), k_estimate, self.depth)
            if seeds is None
            else None
        )
        for j in range(limit):
            if seeds is not None:
                strategy = PCTStrategy(
                    random.Random(seeds[j]), k_estimate, self.depth
                )
            result = execute(
                program,
                strategy,
                max_steps=self.max_steps,
                visible_filter=self.visible_filter,
                record_enabled=False,
                budget=self.budget,
            )
            # No abandoned-run cap: the loop is bounded by executions.
            run = stats.account(result)
            if run is Run.TIMEOUT or (run is Run.BUGGY and self.stop_at_first_bug):
                return stats
        return stats
