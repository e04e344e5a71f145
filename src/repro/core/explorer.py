"""Explorer base types: bug reports and exploration statistics.

An *exploration* is a sequence of controlled executions of one program.
:class:`ExplorationStats` carries exactly the quantities Table 3 of the
paper reports per benchmark and technique: the bound at which the bug was
found, the number of terminal schedules to the first bug, the total number
of (distinct) terminal schedules explored, how many of those are "new" at
the final bound, and how many were buggy.
"""

from __future__ import annotations

from enum import Enum
from typing import Any, List, Optional

from ..engine.trace import ExecutionResult, Outcome


class Run(Enum):
    """What one execution was, as :meth:`ExplorationStats.account` finds
    it."""

    TIMEOUT = "timeout"      # the budget expired: the exploration stops
    ABANDONED = "abandoned"  # step limit, livelock or contained misuse
    SCHEDULE = "schedule"    # a terminal schedule
    BUGGY = "buggy"          # a buggy terminal schedule


class BugReport:
    """A reproducible bug: outcome + the schedule that triggers it."""

    __slots__ = (
        "program_name",
        "outcome",
        "message",
        "schedule",
        "bound",
        "index",
        "traceback",
    )

    def __init__(
        self,
        program_name: str,
        outcome: Outcome,
        message: str,
        schedule: List[int],
        bound: Optional[int],
        index: int,
        traceback: Optional[str] = None,
    ) -> None:
        self.program_name = program_name
        self.outcome = outcome
        self.message = message
        #: Replayable with :func:`repro.engine.replay` (same visible filter).
        self.schedule = schedule
        #: Preemption/delay bound at which the bug surfaced (None for
        #: unbounded/random techniques).
        self.bound = bound
        #: 1-based count of terminal schedules up to and including this one.
        self.index = index
        #: Normalized traceback of the program exception behind a CRASH
        #: (:func:`repro.runtime.errors.normalize_traceback`); ``None`` for
        #: bug types that carry no exception.
        self.traceback = traceback

    @classmethod
    def from_result(
        cls,
        program_name: str,
        result: "ExecutionResult",
        bound: Optional[int],
        index: int,
    ) -> "BugReport":
        """Build a report from a buggy :class:`ExecutionResult` — the one
        construction path every explorer shares, so the traceback (when the
        bug carries one) is never dropped."""
        return cls(
            program_name,
            result.outcome,
            str(result.bug),
            list(result.schedule),
            bound,
            index,
            traceback=getattr(result.bug, "traceback", None),
        )

    def __repr__(self) -> str:
        where = f" at bound {self.bound}" if self.bound is not None else ""
        return (
            f"BugReport({self.program_name}: {self.outcome.value}{where}, "
            f"schedule #{self.index})"
        )

    def to_payload(self) -> dict:
        """JSON-safe full serialization (study checkpoint records)."""
        return {
            "program_name": self.program_name,
            "outcome": self.outcome.value,
            "message": self.message,
            "schedule": list(self.schedule),
            "bound": self.bound,
            "index": self.index,
            "traceback": self.traceback,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "BugReport":
        return cls(
            payload["program_name"],
            Outcome(payload["outcome"]),
            payload["message"],
            list(payload["schedule"]),
            payload["bound"],
            payload["index"],
            traceback=payload.get("traceback"),
        )


class EngineCounters:
    """Opt-in engine-cost counters (implementation cost, not paper metrics).

    Collected by the systematic explorers when constructed with
    ``counters=True`` and surfaced via :meth:`ExplorationStats.to_payload`
    and the study report.  ``executions``/``steps`` measure what actually
    ran; ``replayed_steps`` is the share of steps spent re-walking known
    prefixes (the replay fast path's target); ``saved_executions`` counts
    the re-executions a restart-per-bound search would have performed that
    frontier resumption skipped (computed per entered bound, so the final
    bound is counted as if naive restart ran it to the same stopping
    point's bound start — exact for every completed bound).
    ``snapshot_restored_steps`` counts prefix steps a forked snapshot
    worker inherited from its parent's live process image instead of
    replaying (the ``engine/snapshot.py`` backend's analogue of
    ``replayed_steps``; always 0 without ``snapshots=``).
    """

    __slots__ = (
        "executions",
        "steps",
        "replayed_steps",
        "saved_executions",
        "snapshot_restored_steps",
    )

    def __init__(
        self,
        executions: int = 0,
        steps: int = 0,
        replayed_steps: int = 0,
        saved_executions: int = 0,
        snapshot_restored_steps: int = 0,
    ) -> None:
        self.executions = executions
        self.steps = steps
        self.replayed_steps = replayed_steps
        self.saved_executions = saved_executions
        self.snapshot_restored_steps = snapshot_restored_steps

    def observe(self, result: ExecutionResult) -> None:
        """Fold one execution's cost in."""
        self.executions += 1
        self.steps += result.steps
        self.replayed_steps += min(result.recorded_from, result.steps)
        restored = getattr(result, "restored_steps", 0)
        if restored:
            self.snapshot_restored_steps += restored

    def to_payload(self) -> dict:
        return {
            "executions": self.executions,
            "steps": self.steps,
            "replayed_steps": self.replayed_steps,
            "saved_executions": self.saved_executions,
            "snapshot_restored_steps": self.snapshot_restored_steps,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "EngineCounters":
        return cls(
            payload["executions"],
            payload["steps"],
            payload["replayed_steps"],
            payload["saved_executions"],
            payload.get("snapshot_restored_steps", 0),
        )

    def __repr__(self) -> str:
        return (
            f"EngineCounters(executions={self.executions}, steps={self.steps}, "
            f"replayed={self.replayed_steps}, saved={self.saved_executions}, "
            f"restored={self.snapshot_restored_steps})"
        )


class ExplorationStats:
    """Aggregate statistics of one technique applied to one program."""

    __slots__ = (
        "technique",
        "program_name",
        "schedules",
        "buggy_schedules",
        "first_bug",
        "bound",
        "new_schedules_at_bound",
        "completed",
        "executions",
        "step_limit_hits",
        "max_enabled",
        "max_choice_points",
        "threads_created",
        "limit",
        "counters",
        "deadline_hit",
        "aborts",
        "abort_kinds",
        "first_abort",
        "livelock_hits",
        "max_lasso",
        "leaks",
    )

    def __init__(self, technique: str, program_name: str, limit: int) -> None:
        self.technique = technique
        self.program_name = program_name
        #: Terminal schedules explored (distinct for systematic techniques;
        #: possibly repeating for Rand, as in the paper).
        self.schedules = 0
        self.buggy_schedules = 0
        #: First bug found, if any.
        self.first_bug: Optional[BugReport] = None
        #: For iterative bounding: the smallest bound exposing the bug, or
        #: the bound reached (not fully explored) when the limit was hit.
        self.bound: Optional[int] = None
        #: Table 3 "# new schedules": schedules with exactly ``bound``
        #: preemptions/delays.
        self.new_schedules_at_bound = 0
        #: Whether the whole schedule space was exhausted below the limit.
        self.completed = False
        #: Raw executions, counting bounded-DFS re-exploration of
        #: lower-bound prefixes (implementation cost, not a paper metric).
        self.executions = 0
        self.step_limit_hits = 0
        self.max_enabled = 0
        self.max_choice_points = 0
        self.threads_created = 0
        self.limit = limit
        #: Opt-in engine-cost counters (``None`` unless the explorer was
        #: constructed with ``counters=True``).
        self.counters: Optional[EngineCounters] = None
        #: Whether a cooperative :class:`repro.core.budget.Budget` expired
        #: before the exploration finished — everything above is then a
        #: *partial* (but internally consistent) measurement.
        self.deadline_hit = False
        #: Executions contained as ``ABORT`` (program-API misuse) — these
        #: are abandoned, not terminal, so they never count in ``schedules``.
        self.aborts = 0
        #: Misuse-kind value -> count (e.g. ``{"unlock-not-owner": 3}``).
        self.abort_kinds: dict = {}
        #: :class:`~repro.runtime.errors.MisuseReport` payload of the first
        #: contained abort (kind, message, traceback), for diagnostics.
        self.first_abort: Optional[dict] = None
        #: ``STEP_LIMIT`` hits that the lasso detector refined to
        #: ``LIVELOCK`` (also counted in ``step_limit_hits`` — LIVELOCK is
        #: a refinement, not a separate budget category).
        self.livelock_hits = 0
        #: Longest confirmed non-progress cycle, in visible steps.
        self.max_lasso = 0
        #: Leak label -> count, aggregated over ``OK`` terminal-state audits
        #: (e.g. ``{"mutex-held:m": 12}``).
        self.leaks: dict = {}

    @property
    def found_bug(self) -> bool:
        return self.first_bug is not None

    @property
    def schedules_to_first_bug(self) -> Optional[int]:
        return self.first_bug.index if self.first_bug else None

    @property
    def coverage_guarantee(self) -> Optional[int]:
        """The paper's bounded coverage guarantee (section 1).

        For iterative bounding explorers: the largest bound ``k`` such
        that *every* schedule with at most ``k`` preemptions/delays has
        been explored — so any undiscovered bug needs at least ``k + 1``.
        ``None`` when no full bound was completed (or the technique is
        not a bounding one).  When the whole space was exhausted
        (``completed``), the guarantee is unbounded and reported as the
        final bound reached.
        """
        if self.bound is None:
            return None
        if self.completed:
            return self.bound
        if self.found_bug and self.first_bug.bound == self.bound:
            # The paper finishes the exposing bound after a find, so the
            # guarantee covers it; a limit hit mid-bound covers bound-1.
            return self.bound if self.schedules < self.limit else self.bound - 1
        # Limit hit while exploring `bound`: only bound-1 fully covered.
        guarantee = self.bound - 1 if self.schedules >= self.limit else self.bound
        return guarantee if guarantee >= 0 else None

    @property
    def abandoned(self) -> int:
        """Executions abandoned short of a terminal schedule by the step
        limit, a livelock or contained misuse (a ``TIMEOUT`` ends the
        exploration instead)."""
        return self.step_limit_hits + self.aborts

    def account(
        self, result: ExecutionResult, bound: Optional[int] = None,
        repeat: bool = False,
    ) -> Run:
        """Account one execution: the one place every explorer counts
        what Table 3 reports.  Returns what the run was; when to stop is
        the caller's policy.

        Every execution counts in ``executions``, the engine counters
        (when attached) and the per-run extremes; a ``TIMEOUT`` marks
        ``deadline_hit``.  A terminal schedule counts in ``schedules``,
        in ``leaks`` (its terminal-state audit) and, when buggy, in
        ``buggy_schedules``; the first buggy one becomes ``first_bug``,
        with ``bound`` and its 1-based schedule index.  Given a
        ``bound``, a counted schedule is also new at that bound.  A
        ``repeat`` is a terminal schedule an earlier bound counted
        already (the restart-per-bound oracle re-executes them): it
        counts as an execution only, so a schedule's leaks and bug are
        never counted twice.
        """
        self.executions += 1
        if self.counters is not None:
            self.counters.observe(result)
        if result.max_enabled > self.max_enabled:
            self.max_enabled = result.max_enabled
        if result.choice_points > self.max_choice_points:
            self.max_choice_points = result.choice_points
        if result.threads_created > self.threads_created:
            self.threads_created = result.threads_created
        outcome = result.outcome
        if outcome is Outcome.TIMEOUT:
            self.deadline_hit = True
            return Run.TIMEOUT
        if outcome is Outcome.STEP_LIMIT:
            self.step_limit_hits += 1
            return Run.ABANDONED
        if outcome is Outcome.LIVELOCK:
            # A lasso-confirmed step-limit hit: keeps the historical
            # ``executions == schedules + step_limit_hits`` accounting.
            self.step_limit_hits += 1
            self.livelock_hits += 1
            if result.lasso_len and result.lasso_len > self.max_lasso:
                self.max_lasso = result.lasso_len
            return Run.ABANDONED
        if outcome is Outcome.ABORT:
            self.aborts += 1
            if result.misuse is not None:
                kind = result.misuse.kind.value
                self.abort_kinds[kind] = self.abort_kinds.get(kind, 0) + 1
                if self.first_abort is None:
                    self.first_abort = result.misuse.to_payload()
            return Run.ABANDONED
        if repeat:
            return Run.SCHEDULE
        self.schedules += 1
        if bound is not None:
            self.new_schedules_at_bound += 1
        if result.leaks:
            for label in result.leaks:
                self.leaks[label] = self.leaks.get(label, 0) + 1
        if not result.is_buggy:
            return Run.SCHEDULE
        self.buggy_schedules += 1
        if self.first_bug is None:
            self.first_bug = BugReport.from_result(
                self.program_name, result, bound, self.schedules
            )
        return Run.BUGGY

    def absorb_shard(self, shard: "ExplorationStats") -> None:
        """Fold one sub-run's stats in, as if its executions had continued
        this stream: a Rand/PCT shard's index range
        (:mod:`repro.core.sharding`), or one IBPOR bound or frontier entry
        (:mod:`repro.core.dpor`).

        Sub-runs are absorbed in stream order, so sums and maxes
        accumulate exactly as a serial pass over the concatenated runs
        would, and the first bug's 1-based schedule ``index`` is rebased
        from sub-run-local to global.
        """
        prior_schedules = self.schedules
        self.schedules += shard.schedules
        self.buggy_schedules += shard.buggy_schedules
        self.executions += shard.executions
        self.step_limit_hits += shard.step_limit_hits
        self.livelock_hits += shard.livelock_hits
        self.aborts += shard.aborts
        if shard.max_enabled > self.max_enabled:
            self.max_enabled = shard.max_enabled
        if shard.max_choice_points > self.max_choice_points:
            self.max_choice_points = shard.max_choice_points
        if shard.threads_created > self.threads_created:
            self.threads_created = shard.threads_created
        if shard.max_lasso > self.max_lasso:
            self.max_lasso = shard.max_lasso
        for kind, count in shard.abort_kinds.items():
            self.abort_kinds[kind] = self.abort_kinds.get(kind, 0) + count
        for label, count in shard.leaks.items():
            self.leaks[label] = self.leaks.get(label, 0) + count
        if self.first_abort is None:
            self.first_abort = shard.first_abort
        if shard.first_bug is not None and self.first_bug is None:
            bug = shard.first_bug
            bug.index += prior_schedules
            self.first_bug = bug
        if shard.deadline_hit:
            self.deadline_hit = True

    def as_dict(self) -> dict:
        out = {
            "technique": self.technique,
            "program": self.program_name,
            "schedules": self.schedules,
            "buggy_schedules": self.buggy_schedules,
            "schedules_to_first_bug": self.schedules_to_first_bug,
            "bound": self.bound,
            "new_schedules_at_bound": self.new_schedules_at_bound,
            "completed": self.completed,
            "found_bug": self.found_bug,
            "max_enabled": self.max_enabled,
            "max_choice_points": self.max_choice_points,
            "threads_created": self.threads_created,
        }
        # Emitted only when set: deadline-free output stays byte-identical
        # to pre-taxonomy reports.
        if self.deadline_hit:
            out["deadline_hit"] = True
        # Hardening diagnostics, same only-when-set rule: well-behaved
        # benchmarks produce exactly the pre-hardening dict.
        if self.aborts:
            out["aborts"] = self.aborts
            out["abort_kinds"] = dict(self.abort_kinds)
        if self.livelock_hits:
            out["livelocks"] = self.livelock_hits
            out["max_lasso"] = self.max_lasso
        if self.leaks:
            out["leaks"] = dict(self.leaks)
        return out

    def to_payload(self) -> dict:
        """Lossless JSON-safe serialization, unlike :meth:`as_dict` which
        is the (lossy) report-facing view.  Round-trips through
        :meth:`from_payload` so parallel study runners can ship stats
        across process boundaries and checkpoint files."""
        return {
            "technique": self.technique,
            "program_name": self.program_name,
            "limit": self.limit,
            "schedules": self.schedules,
            "buggy_schedules": self.buggy_schedules,
            "first_bug": self.first_bug.to_payload() if self.first_bug else None,
            "bound": self.bound,
            "new_schedules_at_bound": self.new_schedules_at_bound,
            "completed": self.completed,
            "executions": self.executions,
            "step_limit_hits": self.step_limit_hits,
            "max_enabled": self.max_enabled,
            "max_choice_points": self.max_choice_points,
            "threads_created": self.threads_created,
            "counters": self.counters.to_payload() if self.counters else None,
            "deadline_hit": self.deadline_hit,
            "aborts": self.aborts,
            "abort_kinds": dict(self.abort_kinds),
            "first_abort": self.first_abort,
            "livelock_hits": self.livelock_hits,
            "max_lasso": self.max_lasso,
            "leaks": dict(self.leaks),
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "ExplorationStats":
        stats = cls(payload["technique"], payload["program_name"], payload["limit"])
        stats.schedules = payload["schedules"]
        stats.buggy_schedules = payload["buggy_schedules"]
        if payload["first_bug"] is not None:
            stats.first_bug = BugReport.from_payload(payload["first_bug"])
        stats.bound = payload["bound"]
        stats.new_schedules_at_bound = payload["new_schedules_at_bound"]
        stats.completed = payload["completed"]
        stats.executions = payload["executions"]
        stats.step_limit_hits = payload["step_limit_hits"]
        stats.max_enabled = payload["max_enabled"]
        stats.max_choice_points = payload["max_choice_points"]
        stats.threads_created = payload["threads_created"]
        # Absent in pre-counter checkpoints — tolerate for resume.
        if payload.get("counters"):
            stats.counters = EngineCounters.from_payload(payload["counters"])
        # Absent in v1 (pre-deadline) checkpoints.
        stats.deadline_hit = bool(payload.get("deadline_hit", False))
        # Absent in pre-hardening checkpoints — tolerate for resume.
        stats.aborts = payload.get("aborts", 0)
        stats.abort_kinds = dict(payload.get("abort_kinds") or {})
        stats.first_abort = payload.get("first_abort")
        stats.livelock_hits = payload.get("livelock_hits", 0)
        stats.max_lasso = payload.get("max_lasso", 0)
        stats.leaks = dict(payload.get("leaks") or {})
        return stats

    def __repr__(self) -> str:
        found = (
            f"bug@{self.schedules_to_first_bug}" if self.found_bug else "no-bug"
        )
        return (
            f"ExplorationStats({self.technique} on {self.program_name}: "
            f"{self.schedules} schedules, {found})"
        )


class Explorer:
    """Base class for bug-finding techniques.

    Subclasses implement :meth:`explore`; ``technique`` is the short name
    used in tables ("IPB", "IDB", "DFS", "Rand", "MapleAlg", "PCT").

    ``budget`` (assignable on any instance) is an optional cooperative
    :class:`repro.core.budget.Budget`.  Budget-aware explorers thread it
    into every :func:`repro.engine.executor.execute` call and stop with
    partial stats (``ExplorationStats.deadline_hit``) when it expires;
    explorers that ignore it simply run to their limit.  An expired
    budget also aborts the *next* execution immediately (the executor
    polls it before setup), so stopping on the first ``TIMEOUT`` run
    never spins: completed runs keep their full accounting.
    """

    technique = "?"

    #: Optional cooperative budget (class-level default: none).
    budget = None

    def explore(self, program: Any, limit: int) -> ExplorationStats:
        raise NotImplementedError
