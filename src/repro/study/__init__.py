"""The experiment harness: run the study, regenerate every table & figure."""

from .config import PAPER_SCHEDULE_LIMIT, TECHNIQUES, StudyConfig, paper_config, quick_config
from .figures import (
    ScatterPoint,
    figure3_series,
    figure4_series,
    render_scatter,
    render_venn,
    scatter_csv,
    venn3,
    venn_systematic,
    venn_vs_random,
)
from .report import (
    bound_comparison,
    engine_cost_summary,
    found_pattern_comparison,
    full_report,
    headline_findings,
    resource_usage_summary,
    status_summary,
    store_overview,
)
from .supervisor import (
    CellSupervisor,
    DegradationController,
    ResourceBreach,
    StudySupervisor,
)
from .compare import RunDiff, diff_runs
from .config import derive_seed
from .faults import FaultPlan, FaultSpec
from .parallel import ParallelStudyRunner, StudyInterrupted, run_study
from .store import (
    StoreBackend,
    StoreLockedError,
    StudyStore,
    list_runs,
    load_run,
    open_backend,
    read_journal,
)
from . import taxonomy
from .runner import (
    BenchmarkResult,
    StudyResult,
    assemble_study,
    run_cell,
)
from .tables import table1, table2, table2_rows, table3

__all__ = [
    "StudyConfig",
    "quick_config",
    "paper_config",
    "PAPER_SCHEDULE_LIMIT",
    "TECHNIQUES",
    "run_study",
    "run_cell",
    "ParallelStudyRunner",
    "StudyInterrupted",
    "StudyStore",
    "StoreBackend",
    "StoreLockedError",
    "open_backend",
    "read_journal",
    "list_runs",
    "load_run",
    "assemble_study",
    "FaultPlan",
    "FaultSpec",
    "taxonomy",
    "derive_seed",
    "diff_runs",
    "RunDiff",
    "StudyResult",
    "BenchmarkResult",
    "table1",
    "table2",
    "table2_rows",
    "table3",
    "venn3",
    "venn_systematic",
    "venn_vs_random",
    "render_venn",
    "figure3_series",
    "figure4_series",
    "render_scatter",
    "scatter_csv",
    "ScatterPoint",
    "full_report",
    "engine_cost_summary",
    "resource_usage_summary",
    "status_summary",
    "store_overview",
    "CellSupervisor",
    "StudySupervisor",
    "DegradationController",
    "ResourceBreach",
    "found_pattern_comparison",
    "bound_comparison",
    "headline_findings",
]
