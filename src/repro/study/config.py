"""Study configuration (section 5's experimental method, as data)."""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, replace
from typing import Dict, List, Optional

#: The paper's per-benchmark budget: "a limit of 10,000 terminal schedules".
PAPER_SCHEDULE_LIMIT = 10_000

#: Techniques in the order the paper's phases run, with the partial-order
#: reduction extensions (DPOR, and its iterative preemption-bounded
#: combination BPOR) slotted in with the systematic techniques.
TECHNIQUES = ("IPB", "IDB", "DFS", "DPOR", "BPOR", "Rand", "MapleAlg")


def derive_seed(base_seed: int, technique: str, bench_name: str) -> int:
    """A stable, independent seed for one (technique, benchmark) pair.

    Seeding every randomised technique directly from ``rand_seed`` gives
    ``Rand`` and ``PCT`` *correlated* random streams (they would draw the
    same sequence of variates), biasing any Rand-vs-PCT comparison.  We
    instead derive per-pair seeds by hashing ``(base_seed, technique,
    bench_name)`` with SHA-256 — stable across processes and Python runs
    (unlike the builtin ``hash``, which is randomised for strings), so
    serial and parallel study runs agree byte-for-byte.
    """
    digest = hashlib.sha256(
        f"{base_seed}:{technique}:{bench_name}".encode("utf-8")
    ).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass
class StudyConfig:
    """Parameters of one full study run.

    Randomised techniques (``Rand``, ``PCT``) are **not** seeded with
    ``rand_seed`` directly: each (technique, benchmark) cell gets an
    independent seed via :func:`derive_seed`, so their random streams are
    uncorrelated and reproducible regardless of execution order or
    parallelism.
    """

    #: Terminal-schedule limit per benchmark per technique.
    schedule_limit: int = PAPER_SCHEDULE_LIMIT
    #: Race-detection executions per benchmark ("ten times", section 5).
    detection_runs: int = 10
    detection_seed: int = 0
    rand_seed: int = 42
    maple_seed: int = 42
    #: Cap on MapleAlg runs (it terminates by its own heuristics; the paper
    #: used a 24-hour wall-clock cap instead).
    maple_run_cap: int = 500
    #: Per-execution visible-step budget (livelock guard).
    max_steps: int = 50_000
    #: Attach :class:`repro.core.EngineCounters` to the systematic
    #: techniques (IPB/IDB/DFS): engine-cost telemetry (executions, steps,
    #: replayed steps, executions saved by frontier resumption) surfaced
    #: in checkpoints and the study report.  Never affects results.
    engine_counters: bool = False
    #: Paranoid engine self-checks (``REPRO_ENGINE_CHECK``): validate
    #: scheduler-choice legality, kernel bookkeeping, and replay-prefix
    #: determinism every step.  Pure validation — on a healthy engine it
    #: never changes results, only wall-clock — so it is excluded from the
    #: fingerprint like the other telemetry knobs.
    engine_check: bool = False
    #: Benchmarks to run (names); ``None`` = all 52.
    benchmarks: Optional[List[str]] = None
    #: Techniques to run.
    techniques: List[str] = field(default_factory=lambda: list(TECHNIQUES))
    #: Worker processes for the parallel study runner (``--jobs``).
    #: ``1`` = run cells serially in-process (identical results, no pool).
    jobs: int = 1
    #: Worker processes *inside* one cell (``--shards``): IPB/IDB/DFS
    #: shard the DFS/frontier subtrees, Rand/PCT shard the
    #: execution-index range (see :mod:`repro.core.sharding`); DPOR, BPOR
    #: and MapleAlg always explore serially.
    #: ``1`` = classic serial exploration.  Unlike ``jobs`` this *is*
    #: result-affecting for Rand/PCT (``shards >= 2`` switches them to the
    #: index-seeded random stream), so it joins the fingerprint whenever
    #: it is not 1.
    cell_shards: int = 1
    #: Fork-based copy-on-write prefix snapshots (``--snapshots``,
    #: :mod:`repro.engine.snapshot`) for IPB/IDB/DFS (DPOR/BPOR keep
    #: their own incremental replay).  A pure go-faster knob: the merged run
    #: stream is byte-identical to serial by construction, and platforms
    #: without ``os.fork`` fall back to the replay fast path — so like
    #: the telemetry knobs it never joins the fingerprint.
    snapshots: bool = False
    #: Dump a per-cell ``cProfile`` (``--profile-cell``) as
    #: ``<bench>.<technique>.prof`` (binary) plus ``.txt`` (pstats top
    #: functions) under :attr:`profile_dir`.  Pure telemetry, never
    #: fingerprinted; under ``cell_shards > 1`` the profile covers the
    #: parent process only (workers profile nothing).
    profile_cells: bool = False
    #: Where per-cell profiles land.
    profile_dir: str = "results/profiles"
    #: Cooperative per-cell wall-clock deadline in seconds (``None`` = no
    #: deadline).  Checked between visible steps and between executions
    #: (:class:`repro.core.budget.Budget`); an expired cell ends with
    #: partial stats and status ``timeout`` instead of stalling a worker.
    #: Affects results when hit, so it *is* part of the fingerprint when
    #: set (and absent from it when ``None`` — old journals stay readable).
    cell_deadline: Optional[float] = None
    #: Hard watchdog limit: a pool worker whose cell is still running this
    #: many seconds after it started is killed and the cell recorded as
    #: ``timeout``.  ``None`` derives ``4 * cell_deadline + 30`` when a
    #: deadline is set (generous: the cooperative deadline should fire
    #: first), else no watchdog.  Never part of the fingerprint.
    cell_hard_timeout: Optional[float] = None
    #: Base seconds for exponential retry backoff (attempt ``k`` waits
    #: ``retry_backoff * 2**(k-1)``).  Never part of the fingerprint.
    retry_backoff: float = 0.5
    #: Per-cell resident-set ceiling in bytes (``--max-rss``), summed
    #: over the cell's whole process tree — worker, shard workers, and
    #: parked snapshot holders (:mod:`repro.study.supervisor`).  A
    #: breach stops the cell cooperatively (partial stats kept), kills
    #: the descendant tree, and records status ``oom``.  Affects results
    #: when hit, so it joins the fingerprint when set (and is absent
    #: when ``None``, keeping old journals resumable).
    cell_max_rss: Optional[int] = None
    #: Per-cell open-file-descriptor ceiling (``--max-fds``), summed
    #: over the tree; breach records status ``resource``.  Fingerprint
    #: rule as :attr:`cell_max_rss`.
    cell_max_fds: Optional[int] = None
    #: Free-disk floor in bytes (``--min-free-disk``) for the
    #: checkpoint/results filesystem; a cell that observes less free
    #: space stops with status ``resource`` instead of filling the disk
    #: with store/artifact writes.  Fingerprint rule as
    #: :attr:`cell_max_rss`.
    min_free_disk: Optional[int] = None
    #: Directory the disk guard watches (set by the runner/CLI to the
    #: checkpoint directory; falls back to the working directory).
    #: Observational — never part of the fingerprint.
    supervise_dir: Optional[str] = None
    #: Let the study runner degrade under sustained memory pressure:
    #: after repeated ``oom`` cells it disables fork snapshots, then
    #: halves intra-cell shards (floor 2), for subsequent cells.  Pure
    #: go-slower knobs — the affected settings are already excluded
    #: from the fingerprint, and so is this switch.
    auto_degrade: bool = True
    #: Deterministic fault-injection plan (list of spec dicts, see
    #: :mod:`repro.study.faults`).  Testing only; merged with the
    #: ``REPRO_STUDY_FAULTS`` environment variable.
    faults: Optional[List[dict]] = None
    #: Per-benchmark schedule-limit overrides.  The defaults trim the two
    #: entries whose *per-execution step counts* dominate wall-clock time
    #: while leaving their found/missed pattern unchanged (nothing finds
    #: either bug at any limit we can afford; the paper reports the same).
    limit_overrides: Dict[str, int] = field(
        default_factory=lambda: {
            "CS.twostage_100_bad": 500,
            "CS.reorder_20_bad": 2_000,
            "radbench.bug1": 2_000,
        }
    )

    def limit_for(self, benchmark_name: str) -> int:
        return min(
            self.schedule_limit,
            self.limit_overrides.get(benchmark_name, self.schedule_limit),
        )

    def seed_for(self, technique: str, bench_name: str) -> int:
        """Independent seed for one (technique, benchmark) cell; see
        :func:`derive_seed`."""
        return derive_seed(self.rand_seed, technique, bench_name)

    def for_attempt(self, attempt: int) -> "StudyConfig":
        """The configuration a retry attempt runs under.

        Attempt 0 is the configuration itself (byte-identical results).
        Retries get a deterministic seed bump — a crash or divergence that
        is a function of the exact random stream should not recur
        verbatim, while the retried cell stays reproducible (re-running
        attempt ``k`` always uses the same seeds).
        """
        if attempt <= 0:
            return self
        bump = 1_000_003 * attempt
        return replace(
            self,
            rand_seed=self.rand_seed + bump,
            maple_seed=self.maple_seed + bump,
        )

    def hard_timeout_for(self) -> Optional[float]:
        """Watchdog limit in seconds, derived from the deadline when not
        set explicitly (``None`` = watchdog disabled)."""
        if self.cell_hard_timeout is not None:
            return self.cell_hard_timeout
        if self.cell_deadline is not None:
            return 4.0 * self.cell_deadline + 30.0
        return None

    def fingerprint(self) -> str:
        """A stable digest of every result-affecting parameter.

        Checkpoint files record this so a resumed run refuses to mix cell
        results computed under a different configuration.  ``jobs`` is
        excluded: the worker count never affects cell results, and resuming
        with a different ``--jobs`` is explicitly supported.
        """
        payload = asdict(self)
        payload.pop("jobs", None)
        # Telemetry-only: counters never change schedules/bugs/bounds, so
        # a resume may toggle them freely.
        payload.pop("engine_counters", None)
        # Validation-only, same rule: self-checks either pass silently or
        # crash the run; they never alter results.
        payload.pop("engine_check", None)
        # Fault-tolerance knobs that never change fault-free results; and
        # result-affecting ones (deadline, faults) drop out when unused so
        # journals from before these fields existed remain resumable.
        payload.pop("cell_hard_timeout", None)
        payload.pop("retry_backoff", None)
        # Profiling is observational.  Sharding only affects results by
        # flipping Rand/PCT to the index-seeded stream (any shards >= 2
        # produces identical output), so the fingerprint records the
        # stream *regime*, not the shard count: resume with a different
        # ``--shards`` is supported, like ``--jobs``.
        payload.pop("profile_cells", None)
        payload.pop("profile_dir", None)
        payload.pop("cell_shards", None)
        # Snapshot exploration is result-identical by construction (and
        # falls back to serial where fork is unavailable), so resuming
        # with a different ``--snapshots`` is supported.
        payload.pop("snapshots", None)
        if self.cell_shards > 1:
            payload["index_seeded_random"] = True
        # Degradation is a pure go-slower policy switch; the disk-guard
        # directory is observational.
        payload.pop("auto_degrade", None)
        payload.pop("supervise_dir", None)
        if payload.get("cell_deadline") is None:
            payload.pop("cell_deadline", None)
        # Resource ceilings affect results only when hit (partial stats,
        # like a deadline): fingerprinted when set, absent when None so
        # journals from before these fields existed remain resumable.
        for knob in ("cell_max_rss", "cell_max_fds", "min_free_disk"):
            if payload.get(knob) is None:
                payload.pop(knob, None)
        if not payload.get("faults"):
            payload.pop("faults", None)
        blob = json.dumps(payload, sort_keys=True, default=str)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def quick_config(limit: int = 300) -> StudyConfig:
    """A reduced configuration for tests and pytest-benchmark runs."""
    return StudyConfig(
        schedule_limit=limit,
        maple_run_cap=min(200, limit),
        limit_overrides={
            "CS.twostage_100_bad": min(50, limit),
            "CS.reorder_20_bad": min(100, limit),
            "radbench.bug1": min(100, limit),
        },
    )


def paper_config() -> StudyConfig:
    """The configuration used for the committed EXPERIMENTS.md numbers."""
    return StudyConfig()
