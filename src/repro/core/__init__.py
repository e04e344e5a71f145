"""The paper's subject matter: schedule bounding and SCT exploration.

Exports the five techniques of the study — DFS, IPB, IDB, Rand, MapleAlg —
plus the PCT extension, and the schedule/bound mathematics of section 2.
"""

from .bounds import (
    DELAY,
    NO_BOUND,
    PREEMPTION,
    BoundCost,
    DelayBoundCost,
    NoBoundCost,
    PreemptionBoundCost,
)
from .budget import Budget, BudgetExceeded
from .dfs import BoundedDFS, PrunedEdge, RunRecord
from .dpor import DPORExplorer, IterativeBPORExplorer, dependent
from .explorer import BugReport, EngineCounters, ExplorationStats, Explorer
from .iterative import (
    DFSExplorer,
    FrontierSearch,
    IterativeBoundingExplorer,
    make_idb,
    make_ipb,
)
from .maple_alg import MapleAlgExplorer
from .pct import PCTExplorer, PCTStrategy
from .random_walk import RandomExplorer
from .sharding import (
    DEFAULT_SPLIT_RUNS,
    ShardedDFS,
    ShardedFrontierSearch,
    derive_shard_seed,
    split_indices,
)
from .traceview import preemptions_of, render_trace, simplify_trace
from .schedule import (
    Schedule,
    context_switch_flags,
    delay_count,
    delay_increment,
    distance,
    preemption_count,
    preemption_increment,
)

__all__ = [
    "BoundCost",
    "NoBoundCost",
    "PreemptionBoundCost",
    "DelayBoundCost",
    "NO_BOUND",
    "PREEMPTION",
    "DELAY",
    "Budget",
    "BudgetExceeded",
    "BoundedDFS",
    "PrunedEdge",
    "RunRecord",
    "DPORExplorer",
    "IterativeBPORExplorer",
    "dependent",
    "BugReport",
    "EngineCounters",
    "ExplorationStats",
    "Explorer",
    "DFSExplorer",
    "FrontierSearch",
    "IterativeBoundingExplorer",
    "make_ipb",
    "make_idb",
    "MapleAlgExplorer",
    "PCTExplorer",
    "PCTStrategy",
    "RandomExplorer",
    "DEFAULT_SPLIT_RUNS",
    "ShardedDFS",
    "ShardedFrontierSearch",
    "derive_shard_seed",
    "split_indices",
    "render_trace",
    "simplify_trace",
    "preemptions_of",
    "Schedule",
    "context_switch_flags",
    "delay_count",
    "delay_increment",
    "distance",
    "preemption_count",
    "preemption_increment",
]
