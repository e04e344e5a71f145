"""The naive random scheduler (Rand).

At every scheduling point one enabled thread is chosen uniformly at random.
No information is saved between runs, so the same schedule may be explored
repeatedly and the search never "completes" (section 3 of the paper) —
``ExplorationStats.completed`` stays ``False`` by construction.

Two random-stream regimes:

- **classic** (default, ``shards=1``): one shared ``random.Random(seed)``
  across all executions — the historical stream every committed artifact
  was produced under;
- **index-seeded** (``shards >= 2``, or an explicit ``execution_seeds``
  list): execution ``j`` draws from its own
  ``random.Random(derive_shard_seed(seed, j))``, which makes the stream a
  pure function of the execution index — the property that lets
  :mod:`repro.core.sharding` split the index range across worker
  processes with a merged result identical for *every* shard count.
"""

from __future__ import annotations

import random
from typing import List, Optional

from ..engine.executor import DEFAULT_MAX_STEPS, execute
from ..engine.state import VisibleFilter
from ..engine.strategies import RandomStrategy
from ..runtime.program import Program
from .explorer import ExplorationStats, Explorer, Run


class RandomExplorer(Explorer):
    technique = "Rand"

    def __init__(
        self,
        seed: Optional[int] = None,
        *,
        visible_filter: Optional[VisibleFilter] = None,
        max_steps: int = DEFAULT_MAX_STEPS,
        stop_at_first_bug: bool = False,
        spurious_wakeups: int = 0,
        budget=None,
        shards: int = 1,
        program_source=None,
    ) -> None:
        self.seed = seed
        self.visible_filter = visible_filter
        self.max_steps = max_steps
        self.stop_at_first_bug = stop_at_first_bug
        self.spurious_wakeups = spurious_wakeups
        self.budget = budget
        #: Worker processes to shard the execution-index range over
        #: (``1`` = classic serial stream, untouched).
        self.shards = max(1, shards)
        #: Picklable program source for pool workers (``("bench", name)``
        #: or a module-level factory); ``None`` runs shards in-process.
        self.program_source = program_source
        #: Explicit per-execution seeds (sharded mode): execution ``j``
        #: uses ``random.Random(execution_seeds[j])``.  Set on each
        #: shard's copy of the explorer; settable directly for the serial
        #: reference stream.
        self.execution_seeds: Optional[List[int]] = None

    def explore(self, program: Program, limit: int) -> ExplorationStats:
        """Run ``limit`` random-schedule executions (the paper runs 10,000)."""
        if self.shards > 1 and self.execution_seeds is None:
            from .sharding import explore_index_shards

            return explore_index_shards(self, program, limit)
        stats = ExplorationStats(self.technique, program.name, limit)
        seeds = self.execution_seeds
        strategy = (
            RandomStrategy(random.Random(self.seed)) if seeds is None else None
        )
        for j in range(limit):
            if seeds is not None:
                strategy = RandomStrategy(random.Random(seeds[j]))
            result = execute(
                program,
                strategy,
                max_steps=self.max_steps,
                visible_filter=self.visible_filter,
                record_enabled=False,
                spurious_wakeups=self.spurious_wakeups,
                budget=self.budget,
            )
            # No abandoned-run cap: the loop is bounded by executions.
            run = stats.account(result)
            if run is Run.TIMEOUT or (run is Run.BUGGY and self.stop_at_first_bug):
                return stats
        return stats
