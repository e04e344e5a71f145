"""``ExplorationStats.account``: the one per-execution accounting step
every explorer loop calls (Table 3's counts, the abandoned runs and the
first bug)."""

from __future__ import annotations

from repro.core.explorer import EngineCounters, ExplorationStats, Run
from repro.core.sharding import BugStub, RunSummary
from repro.engine.trace import Outcome
from repro.runtime.errors import MisuseKind, MisuseReport


def _run(outcome, *, bug=None, schedule=(0, 1), leaks=(), lasso_len=0,
         misuse=None, max_enabled=2):
    return RunSummary(outcome, bug, list(schedule), 5, 1, max_enabled, 2, 0,
                      misuse, tuple(leaks), lasso_len)


def _stats():
    stats = ExplorationStats("IPB", "prog", 100)
    stats.counters = EngineCounters()
    return stats


def test_each_case_is_told_apart_and_counted():
    stats = _stats()
    misuse = MisuseReport(MisuseKind.UNLOCK_NOT_OWNER, "unlock", "tb")
    assert stats.account(_run(Outcome.STEP_LIMIT), 0) is Run.ABANDONED
    assert stats.account(_run(Outcome.LIVELOCK, lasso_len=4), 0) is Run.ABANDONED
    assert stats.account(_run(Outcome.ABORT, misuse=misuse), 0) is Run.ABANDONED
    assert (stats.executions, stats.schedules, stats.abandoned) == (3, 0, 3)
    assert (stats.step_limit_hits, stats.livelock_hits, stats.max_lasso) == (2, 1, 4)
    assert stats.abort_kinds == {"unlock-not-owner": 1}
    assert stats.first_abort == misuse.to_payload()

    leaky = _run(Outcome.OK, leaks=("mutex-held:m",), max_enabled=3)
    assert stats.account(leaky, 0) is Run.SCHEDULE
    first = _run(Outcome.ASSERTION, bug=BugStub("first", "tb"), schedule=(1, 0))
    assert stats.account(first, 1) is Run.BUGGY
    second = _run(Outcome.DEADLOCK, bug=BugStub("second", None))
    assert stats.account(second, 2) is Run.BUGGY
    assert (stats.executions, stats.schedules, stats.buggy_schedules) == (6, 3, 2)
    assert stats.new_schedules_at_bound == 3
    assert stats.leaks == {"mutex-held:m": 1}
    assert stats.max_enabled == 3
    # Only the first bug is kept: its index among schedules and its bound.
    bug = stats.first_bug
    assert (bug.message, bug.index, bug.bound) == ("first", 2, 1)
    assert (bug.schedule, bug.traceback) == ([1, 0], "tb")

    assert stats.account(_run(Outcome.TIMEOUT), 2) is Run.TIMEOUT
    assert stats.deadline_hit
    assert (stats.executions, stats.schedules, stats.abandoned) == (7, 3, 3)
    assert stats.counters.executions == 7
    assert stats.counters.steps == 35


def test_unbounded_schedules_carry_no_bound():
    stats = ExplorationStats("DFS", "prog", 100)
    buggy = _run(Outcome.CRASH, bug=BugStub("boom", None))
    assert stats.account(buggy) is Run.BUGGY
    assert stats.first_bug.bound is None
    assert stats.new_schedules_at_bound == 0
    assert stats.counters is None


def test_restart_re_executions_are_never_schedules():
    # The restart-per-bound oracle re-executes every schedule of an
    # earlier bound: executions and engine cost, never schedules, leaks
    # or bugs a second time.
    stats = _stats()
    clean = _run(Outcome.OK, leaks=("mutex-held:m",), max_enabled=4)
    buggy = _run(Outcome.ASSERTION, bug=BugStub("again", None), leaks=("x",))
    assert stats.account(clean, 1, repeat=True) is Run.SCHEDULE
    assert stats.account(buggy, 1, repeat=True) is Run.SCHEDULE
    assert stats.account(_run(Outcome.STEP_LIMIT), 1, repeat=True) is Run.ABANDONED
    assert (stats.executions, stats.counters.executions, stats.max_enabled) == (3, 3, 4)
    assert (stats.schedules, stats.buggy_schedules, stats.new_schedules_at_bound) == (0, 0, 0)
    assert stats.first_bug is None
    assert stats.leaks == {}
    assert stats.abandoned == 1
