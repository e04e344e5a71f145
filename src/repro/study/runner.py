"""The experiment driver: phases of section 5, per benchmark.

For each benchmark: a data-race-detection phase builds the shared visible-
operation filter, then each technique runs with the same filter (IPB, IDB,
DFS, Rand) or its own instrumentation (MapleAlg observes every access, as
the real Maple does).

The unit of work is a *cell* — one (benchmark, technique) pair.  Cells are
independent and picklable, which is what lets
:class:`repro.study.parallel.ParallelStudyRunner` fan them out over a
process pool; :func:`run_benchmark` and :func:`run_study` remain the serial
reference implementation and produce identical per-technique statistics.
"""

from __future__ import annotations

import json
import time
import warnings
from typing import Callable, Dict, List, Optional, Tuple

from ..core import (
    Budget,
    DFSExplorer,
    ExplorationStats,
    MapleAlgExplorer,
    RandomExplorer,
    make_idb,
    make_ipb,
)
from ..engine import sync_only_filter
from ..racedetect import RaceDetectionReport, detect_races
from ..sctbench import BENCHMARKS, BenchmarkInfo
from ..sctbench import get as get_benchmark
from . import taxonomy
from .config import StudyConfig

ProgressFn = Callable[[str], None]


class BenchmarkResult:
    """Everything measured for one benchmark."""

    __slots__ = (
        "info",
        "races",
        "racy_sites",
        "stats",
        "seconds",
        "errors",
        "statuses",
        "resources",
    )

    def __init__(
        self,
        info: BenchmarkInfo,
        race_report: Optional[RaceDetectionReport],
        stats: Dict[str, ExplorationStats],
        seconds: float,
        errors: Optional[Dict[str, str]] = None,
        statuses: Optional[Dict[str, str]] = None,
    ) -> None:
        self.info = info
        self.races = len(race_report.races) if race_report else 0
        self.racy_sites = len(race_report.racy_sites) if race_report else 0
        self.stats = stats
        self.seconds = seconds
        #: technique -> error message, for cells that crashed (parallel
        #: runner only; the serial runner propagates exceptions).
        self.errors: Dict[str, str] = dict(errors) if errors else {}
        #: technique -> non-success cell status (see
        #: :mod:`repro.study.taxonomy`); empty when every cell succeeded,
        #: so fault-free output is unchanged.
        self.statuses: Dict[str, str] = dict(statuses) if statuses else {}
        #: technique -> resource attribution (peak tree RSS/fds, reaped
        #: pids) from the cell supervisor; populated only when resource
        #: ceilings were configured, so unsupervised output is unchanged.
        self.resources: Dict[str, dict] = {}

    @property
    def has_races(self) -> bool:
        return self.races > 0

    def found_by(self, technique: str) -> bool:
        st = self.stats.get(technique)
        return bool(st and st.found_bug)

    def as_dict(self) -> dict:
        out = {
            "id": self.info.bench_id,
            "name": self.info.name,
            "suite": self.info.suite,
            "races": self.races,
            "racy_sites": self.racy_sites,
            "seconds": round(self.seconds, 2),
            "techniques": {k: v.as_dict() for k, v in self.stats.items()},
        }
        if self.errors:
            out["errors"] = dict(self.errors)
        if self.statuses:
            out["statuses"] = dict(self.statuses)
        if self.resources:
            out["resources"] = dict(self.resources)
        return out

    @classmethod
    def from_cells(
        cls,
        info: BenchmarkInfo,
        records: List[dict],
        config: StudyConfig,
    ) -> "BenchmarkResult":
        """Assemble one benchmark's result from per-cell records.

        ``records`` are cell dicts (see :func:`run_cell`); stats appear in
        ``config.techniques`` order so the aggregate serializes exactly
        like a serially-produced result.  Success cells (``ok``/``bug`` —
        v1 journals say ``ok`` for both) contribute their full stats;
        ``timeout`` cells contribute whatever partial stats the deadline
        left behind; every other status contributes empty stats plus an
        entry in :attr:`errors`.  Non-success statuses land in
        :attr:`statuses` so partial studies stay interpretable.
        """
        by_tech = {rec["technique"]: rec for rec in records}
        stats: Dict[str, ExplorationStats] = {}
        errors: Dict[str, str] = {}
        statuses: Dict[str, str] = {}
        races = racy_sites = 0
        seconds = 0.0
        for tech in config.techniques:
            rec = by_tech.get(tech)
            if rec is None:
                continue
            seconds += rec.get("seconds") or 0.0
            status = taxonomy.status_of(rec)
            if taxonomy.is_success(status) or (
                status in taxonomy.PARTIAL_STATS_STATUSES
                and rec.get("stats")
            ):
                stats[tech] = ExplorationStats.from_payload(rec["stats"])
                races = max(races, rec.get("races", 0))
                racy_sites = max(racy_sites, rec.get("racy_sites", 0))
            else:
                stats[tech] = ExplorationStats(
                    tech, info.name, config.limit_for(info.name)
                )
                errors[tech] = rec.get("error") or "unknown error"
            if not taxonomy.is_success(status):
                statuses[tech] = status
                # Partial-stats breaches (oom/resource with stats kept)
                # still carry their attribution line.
                if rec.get("error") and tech not in errors:
                    errors[tech] = rec["error"]
        result = cls(info, None, stats, seconds, errors, statuses)
        for tech, rec in by_tech.items():
            if rec.get("resource"):
                result.resources[tech] = rec["resource"]
        result.races = races
        result.racy_sites = racy_sites
        return result


class StudyResult:
    """All benchmark results of one study run."""

    def __init__(self, config: StudyConfig, results: List[BenchmarkResult]) -> None:
        self.config = config
        self.results = results
        #: Parallel-run supervision summary (degradation events, reaped
        #: orphans, tree kills); ``None`` when nothing noteworthy
        #: happened or the run was not supervised.
        self.supervision: Optional[dict] = None

    def __iter__(self):
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)

    def by_name(self, name: str) -> BenchmarkResult:
        for r in self.results:
            if r.info.name == name:
                return r
        raise KeyError(name)

    def found_set(self, technique: str) -> frozenset:
        """Benchmark names whose bug the technique found."""
        return frozenset(
            r.info.name for r in self.results if r.found_by(technique)
        )

    def to_json(self) -> str:
        return json.dumps(
            {
                "schedule_limit": self.config.schedule_limit,
                "benchmarks": [r.as_dict() for r in self.results],
            },
            indent=1,
        )


def make_technique_explorers(
    config: StudyConfig,
    visible_filter,
    bench_name: str = "",
    techniques: Optional[List[str]] = None,
):
    """Build explorers for the *requested* techniques only.

    The study's five techniques (section 5), plus the extensions (``PCT``,
    ``DPOR``).  Factories are lazy: an excluded technique is neither
    instantiated nor imported.  ``Rand`` and ``PCT`` get independent
    per-(technique, benchmark) seeds via :meth:`StudyConfig.seed_for`, so
    their random streams are uncorrelated (seeding both straight from
    ``rand_seed`` made them draw identical variate sequences, biasing the
    Rand-vs-PCT comparison).

    ``config.cell_shards > 1`` turns on intra-cell sharding
    (:mod:`repro.core.sharding`) for the techniques that support it
    (IPB/IDB/DFS/DPOR/BPOR/Rand/PCT); the benchmark name doubles as the
    picklable program source for pool workers.  MapleAlg is inherently
    sequential (each run's schedule depends on every previous run) and
    always executes serially.

    ``config.snapshots`` additionally turns on fork-based COW prefix
    snapshots (:mod:`repro.engine.snapshot`) for the stateless bounded
    searches (IPB/IDB/DFS) — results are byte-identical, deep schedule
    prefixes are executed once instead of replayed per run.  DPOR/BPOR
    keep their own incremental replay, Rand/PCT re-execute full
    schedules by design and MapleAlg is sequential, so the knob does not
    apply to them.
    """
    shard_kwargs = {}
    if config.cell_shards > 1 and bench_name:
        shard_kwargs = {
            "shards": config.cell_shards,
            "program_source": ("bench", bench_name),
        }
    # COW prefix snapshots (engine/snapshot.py): IPB/IDB/DFS only; a pure
    # perf knob, composes with sharding (shard workers fork holders at
    # their subtree choice points).
    snap_kwargs = {"snapshots": True} if config.snapshots else {}

    def _pct():
        from ..core import PCTExplorer

        return PCTExplorer(
            depth=3,
            seed=config.seed_for("PCT", bench_name),
            visible_filter=visible_filter,
            max_steps=config.max_steps,
            **shard_kwargs,
        )

    def _dpor():
        from ..core.dpor import DPORExplorer

        return DPORExplorer(
            visible_filter=visible_filter,
            max_steps=config.max_steps,
            **shard_kwargs,
        )

    def _bpor():
        from ..core.dpor import IterativeBPORExplorer

        explorer = IterativeBPORExplorer(
            visible_filter=visible_filter,
            max_steps=config.max_steps,
            **shard_kwargs,
        )
        # Study cells report under the paper-style name "BPOR" rather
        # than the engine's internal "IBPOR" label.
        explorer.technique = "BPOR"
        return explorer

    factories = {
        "IPB": lambda: make_ipb(
            visible_filter=visible_filter,
            max_steps=config.max_steps,
            counters=config.engine_counters,
            **shard_kwargs,
            **snap_kwargs,
        ),
        "IDB": lambda: make_idb(
            visible_filter=visible_filter,
            max_steps=config.max_steps,
            counters=config.engine_counters,
            **shard_kwargs,
            **snap_kwargs,
        ),
        "DFS": lambda: DFSExplorer(
            visible_filter=visible_filter,
            max_steps=config.max_steps,
            counters=config.engine_counters,
            **shard_kwargs,
            **snap_kwargs,
        ),
        "Rand": lambda: RandomExplorer(
            seed=config.seed_for("Rand", bench_name),
            visible_filter=visible_filter,
            max_steps=config.max_steps,
            **shard_kwargs,
        ),
        "MapleAlg": lambda: MapleAlgExplorer(
            seed=config.maple_seed, max_steps=config.max_steps
        ),
        "PCT": _pct,
        "DPOR": _dpor,
        "BPOR": _bpor,
    }
    wanted = config.techniques if techniques is None else techniques
    return {name: factories[name]() for name in wanted}


#: Per-process cache of race-detection reports, keyed by every parameter
#: that affects the outcome.  Detection is deterministic, so pool workers
#: that receive several cells of the same benchmark run it once.
_DETECTION_CACHE: Dict[Tuple[str, int, int, int], RaceDetectionReport] = {}


def detect_races_cached(info: BenchmarkInfo, config: StudyConfig) -> RaceDetectionReport:
    key = (info.name, config.detection_runs, config.detection_seed, config.max_steps)
    report = _DETECTION_CACHE.get(key)
    if report is None:
        report = detect_races(
            info.make(),
            runs=config.detection_runs,
            seed=config.detection_seed,
            max_steps=config.max_steps,
        )
        _DETECTION_CACHE[key] = report
    return report


def _filter_for(report: RaceDetectionReport):
    if report.has_races:
        return report.visible_filter()
    # No racy instructions: only synchronisation ops are visible.
    return sync_only_filter


def _run_technique(
    program,
    info: BenchmarkInfo,
    technique: str,
    config: StudyConfig,
    visible_filter,
    budget: Optional[Budget] = None,
) -> ExplorationStats:
    """Run one technique on one benchmark — the shared core of the serial
    runner and the parallel work cell."""
    if config.cell_shards > 1 and technique not in SHARDABLE_TECHNIQUES:
        warnings.warn(
            f"{info.name}: technique {technique} does not support "
            f"intra-cell sharding; cell_shards={config.cell_shards} "
            "ignored (running serially)",
            RuntimeWarning,
            stacklevel=2,
        )
    explorer = make_technique_explorers(
        config, visible_filter, info.name, [technique]
    )[technique]
    if budget is not None:
        explorer.budget = budget
    limit = config.limit_for(info.name)
    tech_limit = (
        min(limit, config.maple_run_cap) if technique == "MapleAlg" else limit
    )
    if not config.engine_check:
        return explorer.explore(program, tech_limit)
    from ..engine.hardening import set_engine_check

    set_engine_check(True)
    try:
        return explorer.explore(program, tech_limit)
    finally:
        set_engine_check(None)


def _abort_flagged(stats: ExplorationStats) -> bool:
    """Whether a cell's exploration was dominated by contained misuse
    aborts (at least :data:`taxonomy.ABORT_FLAG_FRACTION` of executions) —
    flagged ``aborted`` so the report calls out harness-abusing subjects."""
    return (
        stats.executions > 0
        and stats.aborts / stats.executions >= taxonomy.ABORT_FLAG_FRACTION
    )


def _supervised(config: StudyConfig) -> bool:
    """Whether any resource ceiling is configured for this run."""
    return (
        config.cell_max_rss is not None
        or config.cell_max_fds is not None
        or config.min_free_disk is not None
    )


def _cell_budget(config: StudyConfig) -> Optional[Budget]:
    """The cooperative per-cell budget, or ``None`` when neither a
    deadline nor a resource ceiling is configured (the fault-free fast
    path: zero overhead, zero behaviour change).  With ceilings but no
    deadline the budget is unbounded — it exists purely as the
    supervisor's trip channel (:meth:`repro.core.budget.Budget.trip`)."""
    if config.cell_deadline is None and not _supervised(config):
        return None
    return Budget(deadline_seconds=config.cell_deadline).start()


#: Techniques whose cells honour ``config.cell_shards`` (see
#: :func:`make_technique_explorers`).
SHARDABLE_TECHNIQUES = frozenset(
    {"IPB", "IDB", "DFS", "DPOR", "BPOR", "Rand", "PCT"}
)

#: Techniques whose random stream is derived from a per-cell seed —
#: recorded per cell so ``--resume``/``--retry-errors`` replays the exact
#: stream the original attempt used.
SEEDED_TECHNIQUES = frozenset({"Rand", "PCT"})


def _profiled(config: StudyConfig, bench_name: str, technique: str, fn):
    """Run ``fn`` under ``cProfile`` when ``config.profile_cells`` is set,
    dumping ``<bench>.<technique>.prof`` + a pstats text summary under
    ``config.profile_dir``.  Observational only: the cell result is
    returned unchanged, and the files never join the study fingerprint."""
    if not config.profile_cells:
        return fn()
    import cProfile
    import io
    import os
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        return fn()
    finally:
        profiler.disable()
        os.makedirs(config.profile_dir, exist_ok=True)
        base = os.path.join(config.profile_dir, f"{bench_name}.{technique}")
        profiler.dump_stats(base + ".prof")
        out = io.StringIO()
        stats = pstats.Stats(profiler, stream=out)
        stats.sort_stats("cumulative").print_stats(40)
        with open(base + ".txt", "w") as fh:
            fh.write(out.getvalue())


def run_cell(bench_name: str, technique: str, config: StudyConfig) -> dict:
    """Execute one independent (benchmark, technique) work cell.

    Self-contained and picklable end to end: the benchmark is looked up by
    name, race detection runs (or is served from the per-process cache)
    inside the cell, and the result is a JSON-safe record.  Exceptions
    propagate — retry/classification policy is the caller's job
    (:class:`repro.study.parallel.ParallelStudyRunner`).

    The record's ``status`` follows :mod:`repro.study.taxonomy`: ``bug``
    when the exploration found one, ``timeout`` when the cooperative
    ``config.cell_deadline`` expired first (``stats`` then hold the
    partial measurement), ``aborted`` when contained misuse dominated the
    cell (stats kept, subject flagged), ``ok`` otherwise.  ``seconds`` is
    measured with
    :func:`time.monotonic` (immune to wall-clock steps); ``ts`` is a
    display-only :func:`time.time` timestamp.
    """
    t0 = time.monotonic()
    started_at = time.time()
    info = get_benchmark(bench_name)
    report = detect_races_cached(info, config)
    budget = _cell_budget(config)
    supervisor = None
    if _supervised(config):
        from .supervisor import CellSupervisor

        supervisor = CellSupervisor.from_config(config, budget)
        supervisor.start()
    try:
        stats = _profiled(
            config,
            info.name,
            technique,
            lambda: _run_technique(
                info.make(), info, technique, config, _filter_for(report),
                budget,
            ),
        )
    except BaseException:
        # A breach can surface as an exception instead of a cooperative
        # stop (the supervisor SIGKILLed a holder/shard worker mid-use);
        # the breach, not the secondary exception, is the attribution.
        breach = supervisor.finish() if supervisor is not None else None
        if breach is None:
            raise
        return {
            "kind": "cell",
            "bench": info.name,
            "bench_id": info.bench_id,
            "suite": info.suite,
            "technique": technique,
            "status": breach.status,
            "races": len(report.races),
            "racy_sites": len(report.racy_sites),
            "seconds": round(time.monotonic() - t0, 6),
            "ts": round(started_at, 3),
            "stats": None,
            "error": breach.detail,
            "resource": supervisor.snapshot(),
        }
    breach = supervisor.finish() if supervisor is not None else None
    if breach is not None:
        status = breach.status
    elif stats.deadline_hit:
        status = taxonomy.TIMEOUT
    elif stats.found_bug:
        status = taxonomy.BUG
    elif _abort_flagged(stats):
        status = taxonomy.ABORTED
    else:
        status = taxonomy.OK
    record = {
        "kind": "cell",
        "bench": info.name,
        "bench_id": info.bench_id,
        "suite": info.suite,
        "technique": technique,
        "status": status,
        "races": len(report.races),
        "racy_sites": len(report.racy_sites),
        "seconds": round(time.monotonic() - t0, 6),
        "ts": round(started_at, 3),
        "stats": stats.to_payload(),
        "error": breach.detail if breach is not None else None,
    }
    if supervisor is not None:
        # Attribution + telemetry, present exactly when ceilings are
        # configured — an unsupervised run's records carry no new keys.
        record["resource"] = supervisor.snapshot()
    if technique in SEEDED_TECHNIQUES:
        # The seed this attempt *actually* drew from (retries run under
        # ``StudyConfig.for_attempt``'s bump, which the base config alone
        # cannot reveal), plus the stream regime: with ``shards >= 2``
        # every execution index j draws from
        # ``derive_shard_seed(seed, j)`` instead of the classic shared
        # RNG.  Together they pin the exact random stream, so
        # ``--resume``/``--retry-errors`` replays are auditable.
        record["seed"] = config.seed_for(technique, bench_name)
        record["shards"] = (
            config.cell_shards if technique in SHARDABLE_TECHNIQUES else 1
        )
    return record


def assemble_study(
    config: StudyConfig,
    completed: Dict[Tuple[str, str], dict],
    supervision: Optional[dict] = None,
) -> StudyResult:
    """Assemble a :class:`StudyResult` from per-cell records.

    ``completed`` maps ``(benchmark name, technique)`` to the cell's
    record dict (see :func:`run_cell`) — the shape both checkpoint
    backends (:mod:`repro.study.store`) hand back on load/resume, so the
    parallel runner and the store's read path build byte-identical
    results through this one function.
    """
    results = []
    for info in study_benchmarks(config):
        records = [
            completed[(info.name, tech)]
            for tech in config.techniques
            if (info.name, tech) in completed
        ]
        results.append(BenchmarkResult.from_cells(info, records, config))
    study = StudyResult(config, results)
    study.supervision = supervision
    return study


def run_benchmark(
    info: BenchmarkInfo,
    config: StudyConfig,
    progress: Optional[ProgressFn] = None,
) -> BenchmarkResult:
    """Run the full per-benchmark pipeline: race phase, then each technique."""
    t0 = time.monotonic()
    program = info.make()

    # Phase 1: data race detection (shared by IPB/IDB/DFS/Rand).
    report = detect_races(
        program,
        runs=config.detection_runs,
        seed=config.detection_seed,
        max_steps=config.max_steps,
    )
    visible_filter = _filter_for(report)
    stats: Dict[str, ExplorationStats] = {}
    statuses: Dict[str, str] = {}
    for name in config.techniques:
        st = _profiled(
            config,
            info.name,
            name,
            lambda name=name: _run_technique(
                program, info, name, config, visible_filter,
                _cell_budget(config),
            ),
        )
        stats[name] = st
        if st.deadline_hit:
            statuses[name] = taxonomy.TIMEOUT
        elif not st.found_bug and _abort_flagged(st):
            statuses[name] = taxonomy.ABORTED
        if progress:
            found = f"bug@{st.schedules_to_first_bug}" if st.found_bug else "no bug"
            note = " [deadline]" if st.deadline_hit else ""
            progress(
                f"  {info.name}: {name}: {found} "
                f"({st.schedules} schedules){note}"
            )
    return BenchmarkResult(
        info, report, stats, time.monotonic() - t0, statuses=statuses
    )


def study_benchmarks(config: StudyConfig) -> List[BenchmarkInfo]:
    """The benchmarks one study run covers, in Table 3 order."""
    if config.benchmarks is None:
        return list(BENCHMARKS)
    return [get_benchmark(name) for name in config.benchmarks]


def run_study(
    config: Optional[StudyConfig] = None,
    progress: Optional[ProgressFn] = None,
) -> StudyResult:
    """Run the full study (all benchmarks × all techniques)."""
    config = config or StudyConfig()
    results = []
    for info in study_benchmarks(config):
        if progress:
            progress(f"[{info.bench_id:2d}] {info.name}")
        results.append(run_benchmark(info, config, progress))
    return StudyResult(config, results)
