"""Run one controlled execution of a program under a scheduler strategy.

This module is also the engine's *fault boundary* (DESIGN.md section 12):
program-API misuse raised anywhere inside an execution — setup, spawn, or
any step — is contained here as a non-bug :attr:`Outcome.ABORT` carrying a
:class:`~repro.runtime.errors.MisuseReport`, so exploration continues on
the next schedule.  Harness-side invariant violations
(:class:`~repro.runtime.errors.EngineInvariantError`) and replay
divergences are deliberately *not* contained: those mean the testing tool
itself is wrong.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

from ..runtime.errors import (
    DeadlockBug,
    EngineInvariantError,
    MisuseReport,
    RuntimeUsageError,
)
from ..runtime.program import Program
from .hardening import (
    LassoDetector,
    audit_terminal_state,
    engine_check_enabled,
    lasso_watch_from,
)
from .state import Kernel, VisibleFilter
from .strategies import SchedulerStrategy
from .trace import ExecutionObserver, ExecutionResult, Outcome, outcome_for_bug

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (core -> engine)
    from ..core.budget import Budget

#: Default per-execution visible-step budget.  Exceeding it classifies the
#: execution as ``STEP_LIMIT`` (livelock guard; see DESIGN.md section 3) —
#: or ``LIVELOCK`` when the lasso detector confirms a non-progress cycle.
DEFAULT_MAX_STEPS = 50_000


def execute(
    program: Program,
    strategy: SchedulerStrategy,
    *,
    max_steps: int = DEFAULT_MAX_STEPS,
    visible_filter: Optional[VisibleFilter] = None,
    observers: Sequence[ExecutionObserver] = (),
    record_enabled: bool = True,
    record_from_step: int = 0,
    spurious_wakeups: int = 0,
    budget: Optional["Budget"] = None,
) -> ExecutionResult:
    """Execute ``program`` once, fully controlling the schedule.

    Parameters
    ----------
    strategy:
        Chooses one enabled thread at every scheduling point.
    visible_filter:
        Predicate deciding whether a data access op is a scheduling point.
        ``None`` = every access is visible (used by the race-detection
        phase); explorers pass the racy-site filter produced by
        :func:`repro.racedetect.phase.detect_races`.
    record_enabled:
        Record per-step enabled sets and thread counts (needed to compute
        preemption/delay counts post-hoc).  Disable for cheap runs.
    record_from_step:
        Replay fast-path cut-over: steps below this index are a known
        replay prefix, so their enabled sets are neither recorded nor
        folded into ``choice_points``/``max_enabled``, and when the
        strategy's :meth:`~SchedulerStrategy.prefix_choice` names an
        enabled thread the full enabled-set scan is skipped outright —
        except inside the lasso detector's window, whose steps are always
        observed.
        The caller owns re-seeding the width statistics for the skipped
        prefix (the DFS stack stores them per choice point).  ``0``
        (default) records everything, exactly as before.
    spurious_wakeups:
        Per-execution budget of signal-less condvar wake-ups (POSIX
        permits them; CHESS's ``/spuriouswakeups``).  While budget
        remains, waiting threads join the enabled set, so schedules
        recorded with a budget only replay with the same budget.  The
        budget keeps correct wait/recheck loops' schedule trees finite.
    budget:
        Optional cooperative :class:`repro.core.budget.Budget`.  Polled
        once before the execution starts and between visible steps; on
        expiry the execution ends with :attr:`Outcome.TIMEOUT` (an
        abandoned, non-terminal schedule, like ``STEP_LIMIT``).  The
        program's completion/deadlock classification wins over the budget
        at the final step, so a run that finishes as the deadline lands
        still reports its true outcome.

    Returns
    -------
    ExecutionResult
        Outcome, schedule, and recording data.  Never raises for bugs in
        the program under test — those become buggy outcomes — nor for
        program-API misuse, which becomes :attr:`Outcome.ABORT` with a
        :class:`~repro.runtime.errors.MisuseReport` attached.  Only
        harness-side failures (engine invariant violations, replay
        divergence, genuine setup crashes) propagate.
    """
    from ..runtime.objects import NamingScope

    if budget is not None and budget.start_execution():
        # The budget was spent before this execution began: report an
        # empty abandoned run so callers uniformly stop on TIMEOUT.
        return ExecutionResult(
            outcome=Outcome.TIMEOUT,
            bug=None,
            schedule=[],
            enabled_sets=[] if record_enabled else None,
            created_counts=[] if record_enabled else None,
            steps=0,
            choice_points=0,
            max_enabled=0,
            threads_created=0,
            shared=None,
            recorded_from=0,
        )

    check = engine_check_enabled()
    #: Fingerprinting starts this many steps before the limit; executions
    #: finishing earlier never pay for it.
    watch_from = lasso_watch_from(max_steps)
    detector: Optional[LassoDetector] = None
    misuse: Optional[MisuseReport] = None
    lasso_len: Optional[int] = None

    def abort_result(exc: RuntimeUsageError, kernel: Optional[Kernel]) -> ExecutionResult:
        # Misuse before the first step (setup / main spawn): nothing ran,
        # so there is no schedule and no observer saw the execution start.
        return ExecutionResult(
            outcome=Outcome.ABORT,
            bug=None,
            schedule=[],
            enabled_sets=[] if record_enabled else None,
            created_counts=[] if record_enabled else None,
            steps=0,
            choice_points=0,
            max_enabled=0,
            threads_created=0 if kernel is None else kernel.num_created,
            shared=None,
            recorded_from=0,
            misuse=MisuseReport.from_error(exc),
        )

    naming = NamingScope()
    with naming:
        # The scope stays active for the whole execution: threads may
        # create shared objects mid-run, and their auto-names must come
        # from this kernel's counter, not a process-global one.
        try:
            shared = program.setup()
        except RuntimeUsageError as exc:
            # e.g. ``Semaphore(-1)`` in setup.  Genuine setup crashes
            # (any other exception) still propagate: they are harness
            # configuration errors, not schedule-dependent behaviour.
            return abort_result(exc, None)
        kernel = Kernel(
            shared, visible_filter, tuple(observers), spurious_wakeups, naming
        )
        try:
            kernel.spawn(program.main, (shared,))
        except RuntimeUsageError as exc:
            return abort_result(exc, kernel)
        strategy.on_execution_start()
        for obs in observers:
            obs.on_start(shared)

        schedule: list = []
        enabled_sets: Optional[list] = [] if record_enabled else None
        created_counts: Optional[list] = [] if record_enabled else None
        choice_points = 0
        max_enabled = 0
        leaks = None

        # Hot loop: every name resolved per step below is a measured cost
        # at ~50k steps/execution x thousands of executions per cell, so
        # method lookups are hoisted out of the loop (semantics unchanged).
        kernel_step = kernel.step
        kernel_enabled = kernel.enabled
        tid_enabled = kernel.tid_enabled
        prefix_choice = strategy.prefix_choice
        choose = strategy.choose
        schedule_append = schedule.append
        budget_tick = budget.tick if budget is not None else None
        # ``Kernel.threads`` is only ever mutated in place, so its length
        # is ``num_created`` without the property call.
        kernel_threads = kernel.threads

        outcome: Outcome
        while True:
            if kernel.bug is not None:
                outcome = outcome_for_bug(kernel.bug)
                break
            if check:
                kernel.check_invariants()
            step_index = kernel.steps
            in_prefix = step_index < record_from_step
            if in_prefix:
                hint = prefix_choice(step_index)
                if hint is not None and tid_enabled(hint):
                    # Fast path: the prefix decision is predetermined and
                    # executable, so the full enabled set is never needed.
                    # ``tid_enabled`` implies at least one enabled thread,
                    # so the OK/DEADLOCK classification below cannot apply.
                    if check and hint not in kernel_enabled():
                        raise EngineInvariantError(
                            f"tid_enabled({hint}) disagrees with enabled() "
                            f"at step {step_index}"
                        )
                    if step_index >= watch_from:
                        # Replayed steps inside the lasso window still
                        # feed the detector (but no width stats): a
                        # livelock verdict must not depend on replay.
                        if detector is None:
                            detector = LassoDetector()
                        detector.observe(kernel, kernel_enabled())
                    if step_index >= max_steps:
                        outcome = Outcome.STEP_LIMIT
                        break
                    if budget_tick is not None and budget_tick():
                        outcome = Outcome.TIMEOUT
                        break
                    schedule_append(hint)
                    try:
                        kernel_step(hint)
                    except RuntimeUsageError as exc:
                        # Keep ``len(schedule) == kernel.steps``: misuse
                        # raised while *poising the next op* (inside
                        # ``_advance``) lands after the chosen step already
                        # counted, so its schedule entry stays; misuse in
                        # the visible op itself means the step never
                        # counted and the entry must go.
                        if kernel.steps == step_index:
                            schedule.pop()
                        misuse = MisuseReport.from_error(exc)
                        outcome = Outcome.ABORT
                        break
                    continue
            enabled = kernel_enabled()
            width = len(enabled)
            if width == 0:
                if kernel.all_finished:
                    outcome = Outcome.OK
                    leaks = audit_terminal_state(kernel)
                else:
                    kernel.bug = DeadlockBug(
                        "deadlock: " + kernel.blocked_description()
                    )
                    outcome = Outcome.DEADLOCK
                break
            if step_index >= watch_from:
                if detector is None:
                    detector = LassoDetector()
                detector.observe(kernel, enabled)
            if step_index >= max_steps:
                outcome = Outcome.STEP_LIMIT
                break
            if budget_tick is not None and budget_tick():
                outcome = Outcome.TIMEOUT
                break
            if not in_prefix:
                if width > max_enabled:
                    max_enabled = width
                if width > 1:
                    choice_points += 1
            tid = choose(step_index, enabled, kernel.last_tid, kernel)
            if check and tid not in enabled:
                raise EngineInvariantError(
                    f"strategy {type(strategy).__name__} chose T{tid}, "
                    f"not in enabled set {enabled} at step {step_index}"
                )
            if record_enabled and not in_prefix:
                enabled_sets.append(enabled)
                created_counts.append(len(kernel_threads))
            schedule_append(tid)
            try:
                kernel_step(tid)
            except RuntimeUsageError as exc:
                # As in the prefix path: pop only when the step never
                # counted (misuse in the visible op itself); poise-time
                # misuse from ``_advance`` lands after ``kernel.steps``
                # advanced, so the recorded entries stay aligned.
                if kernel.steps == step_index:
                    schedule.pop()
                    if record_enabled and not in_prefix:
                        enabled_sets.pop()
                        created_counts.pop()
                misuse = MisuseReport.from_error(exc)
                outcome = Outcome.ABORT
                break

    if (
        outcome is Outcome.STEP_LIMIT
        and detector is not None
        and detector.cycle_len is not None
    ):
        outcome = Outcome.LIVELOCK
        lasso_len = detector.cycle_len
    result = ExecutionResult(
        outcome=outcome,
        bug=kernel.bug,
        schedule=schedule,
        enabled_sets=enabled_sets,
        created_counts=created_counts,
        steps=kernel.steps,
        choice_points=choice_points,
        max_enabled=max_enabled,
        threads_created=kernel.num_created,
        shared=shared,
        recorded_from=min(record_from_step, kernel.steps),
        misuse=misuse,
        leaks=leaks,
        lasso_len=lasso_len,
    )
    for obs in observers:
        obs.on_finish(result)
    return result


def replay(
    program: Program,
    schedule: Sequence[int],
    *,
    visible_filter: Optional[VisibleFilter] = None,
    max_steps: int = DEFAULT_MAX_STEPS,
    spurious_wakeups: int = 0,
    record: bool = True,
) -> ExecutionResult:
    """Replay a recorded schedule (bug reproduction).

    Raises :class:`repro.engine.strategies.ReplayDivergence` if the program
    behaves differently than when the schedule was recorded — i.e. if the
    determinism assumption is violated.  Pass the same ``visible_filter``
    and ``spurious_wakeups`` the schedule was recorded with.

    ``record=False`` takes the replay fast path for the whole schedule:
    per-step enabled sets are neither computed nor recorded (divergence is
    still detected — an unexecutable step falls back to the strict check).
    The outcome/bug classification is unaffected; use it when only the
    outcome matters, e.g. when re-confirming a bug report in bulk.
    """
    from .strategies import ReplayStrategy

    return execute(
        program,
        ReplayStrategy(schedule, strict=True),
        visible_filter=visible_filter,
        max_steps=max_steps,
        record_enabled=record,
        record_from_step=0 if record else len(schedule),
        spurious_wakeups=spurious_wakeups,
    )
