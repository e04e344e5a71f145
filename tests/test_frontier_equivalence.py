"""Frontier-resuming iterative bounding is observationally identical to
the classic restart-per-bound search.

The contract (DESIGN.md, "Frontier resumption"): for any program, cost
model, and limit, ``IterativeBoundingExplorer`` produces byte-identical
``as_dict()`` stats to the restart oracle (``tests/oracles.py``) —
schedules, new schedules at the final bound, first bug, bound, completion,
width statistics — and enumerates the same terminal schedules in the same
order; only raw ``executions`` (and wall-clock) differ.
"""

from __future__ import annotations

import random
from types import SimpleNamespace

import pytest

from repro.core import DELAY, PREEMPTION, DFSExplorer, make_idb, make_ipb
from repro.core.iterative import FrontierSearch
from repro.engine import Outcome, replay
from repro.runtime import Mutex, Program, SharedVar

from .oracles import RestartSearch, make_restart_idb, make_restart_ipb
from .programs import (
    barrier_rendezvous,
    crasher,
    figure1,
    lock_order_deadlock,
    lost_signal,
    producer_consumer_sem,
    safe_counter,
    unsafe_counter,
)

GRID = [
    figure1,
    lambda: figure1(clone_count=2),
    lambda: unsafe_counter(workers=2, increments=1),
    lambda: unsafe_counter(workers=2, increments=2),
    lambda: unsafe_counter(workers=3, increments=1),
    lambda: safe_counter(workers=2, increments=2),
    lock_order_deadlock,
    lost_signal,
    lambda: barrier_rendezvous(parties=2),
    lambda: producer_consumer_sem(items=2),
    crasher,
]

MAKERS = [make_ipb, make_idb]

#: Each production maker's restart oracle.
RESTART = {make_ipb: make_restart_ipb, make_idb: make_restart_idb}


def _pair(factory, make, limit=10_000, **kwargs):
    naive = RESTART[make](counters=True, **kwargs).explore(factory(), limit)
    frontier = make(counters=True, **kwargs).explore(factory(), limit)
    return naive, frontier


@pytest.mark.parametrize("make", MAKERS)
@pytest.mark.parametrize("factory", GRID)
def test_stats_identical_modulo_executions(factory, make):
    naive, frontier = _pair(factory, make)
    assert naive.as_dict() == frontier.as_dict()
    assert frontier.executions <= naive.executions


@pytest.mark.parametrize("make", MAKERS)
@pytest.mark.parametrize("factory", GRID)
def test_saved_executions_account_exactly(factory, make):
    # Without a limit truncation, every skipped re-execution is counted:
    # the frontier run plus its saved-executions counter lands exactly on
    # the restart run's execution count.
    naive, frontier = _pair(factory, make)
    if naive.schedules < naive.limit:  # not truncated
        assert (
            frontier.executions + frontier.counters.saved_executions
            == naive.executions
        )
    assert frontier.counters.replayed_steps <= frontier.counters.steps


@pytest.mark.parametrize("cost_model", [PREEMPTION, DELAY], ids=["PC", "DC"])
@pytest.mark.parametrize(
    "factory",
    [figure1, lambda: figure1(clone_count=2), lambda: unsafe_counter(2, 2)],
)
def test_terminal_schedules_identical_in_order(factory, cost_model):
    def enumerate_new(search_cls):
        search = search_cls(factory(), cost_model)
        out = []
        for bound in range(9):
            for record in search.runs_at_bound(bound):
                if (
                    record.result.outcome.is_terminal_schedule
                    and record.cost == bound
                ):
                    out.append((bound, tuple(record.result.schedule)))
            if not search.pruned_at_bound():
                return out, True
        return out, False

    naive, naive_done = enumerate_new(RestartSearch)
    frontier, frontier_done = enumerate_new(FrontierSearch)
    assert naive == frontier  # same schedules, same order, same bounds
    assert naive_done == frontier_done
    # Systematic search never repeats a terminal schedule.
    assert len(set(frontier)) == len(frontier)


@pytest.mark.parametrize("limit", [1, 2, 3, 5, 8, 13])
@pytest.mark.parametrize("make", MAKERS)
def test_limit_hit_equivalence(make, limit):
    naive, frontier = _pair(
        lambda: unsafe_counter(workers=3, increments=1), make, limit=limit
    )
    assert naive.as_dict() == frontier.as_dict()


@pytest.mark.parametrize("make", MAKERS)
@pytest.mark.parametrize("factory", GRID)
def test_bug_reports_replay_under_frontier_engine(factory, make):
    program = factory()
    stats = make().explore(program, 10_000)
    naive = RESTART[make]().explore(factory(), 10_000)
    assert stats.found_bug == naive.found_bug
    if not stats.found_bug:
        return
    result = replay(factory(), stats.first_bug.schedule)
    assert result.is_buggy
    assert result.outcome is stats.first_bug.outcome


def _random_program(seed: int) -> Program:
    """A small random concurrent program: 2-3 threads doing load/store
    increments on shared variables, some under a mutex.  Structure is a
    pure function of ``seed``; only scheduling is nondeterministic."""
    rng = random.Random(seed)
    num_threads = rng.randint(2, 3)
    num_vars = rng.randint(1, 2)
    plans = []
    for _ in range(num_threads):
        plan = []
        for _ in range(rng.randint(1, 2)):
            plan.append((rng.randrange(num_vars), rng.random() < 0.4))
        plans.append(plan)

    def setup():
        s = SimpleNamespace()
        s.vars = [SharedVar(0, f"v{i}") for i in range(num_vars)]
        s.m = Mutex("m")
        return s

    def make_body(plan):
        def body(ctx, sh):
            for var_idx, locked in plan:
                if locked:
                    yield ctx.lock(sh.m)
                v = yield ctx.load(sh.vars[var_idx])
                yield ctx.store(sh.vars[var_idx], v + 1)
                if locked:
                    yield ctx.unlock(sh.m)

        return body

    def main(ctx, sh):
        handles = []
        for plan in plans:
            handles.append((yield ctx.spawn(make_body(plan))))
        for h in handles:
            yield ctx.join(h)

    return Program(f"rand_mini_{seed}", setup, main)


@pytest.mark.parametrize("make", MAKERS)
@pytest.mark.parametrize("seed", range(8))
def test_randomized_programs_equivalent(seed, make):
    naive, frontier = _pair(lambda: _random_program(seed), make, limit=4_000)
    assert naive.as_dict() == frontier.as_dict()
    assert frontier.executions <= naive.executions
    if naive.schedules < naive.limit:
        assert (
            frontier.executions + frontier.counters.saved_executions
            == naive.executions
        )


class TestDFSExhaustionAtLimit:
    def test_completed_when_limit_equals_space(self):
        program_factory = lambda: unsafe_counter(workers=2, increments=1)
        total = DFSExplorer().explore(program_factory(), 1_000_000)
        assert total.completed
        exact = DFSExplorer().explore(program_factory(), total.schedules)
        assert exact.schedules == total.schedules
        assert exact.completed  # limit hit *and* space exhausted

    def test_not_completed_when_limit_cuts_space(self):
        program_factory = lambda: unsafe_counter(workers=2, increments=1)
        total = DFSExplorer().explore(program_factory(), 1_000_000)
        short = DFSExplorer().explore(program_factory(), total.schedules - 1)
        assert short.schedules == total.schedules - 1
        assert not short.completed


class TestSpuriousWakeupShim:
    def test_int_passes_silently(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            explorer = DFSExplorer(spurious_wakeups=2)
        assert explorer.spurious_wakeups == 2


class TestReplayFastPath:
    def test_suffix_only_results_refuse_bound_math(self):
        from repro.core import Schedule
        from repro.engine.executor import execute
        from repro.engine.strategies import ReplayStrategy

        program = figure1()
        full = execute(program, ReplayStrategy([0]), record_enabled=True)
        schedule = full.schedule
        again = execute(
            program,
            ReplayStrategy(schedule),
            record_enabled=True,
            record_from_step=len(schedule),
        )
        assert again.schedule == schedule
        assert again.outcome is full.outcome
        assert again.recorded_from > 0
        with pytest.raises(ValueError):
            Schedule.from_result(again)

    def test_replay_without_recording_matches_outcome(self):
        program = lock_order_deadlock()
        stats = make_ipb().explore(program, 10_000)
        assert stats.found_bug
        fast = replay(
            lock_order_deadlock(), stats.first_bug.schedule, record=False
        )
        slow = replay(lock_order_deadlock(), stats.first_bug.schedule)
        assert fast.outcome is slow.outcome is Outcome.DEADLOCK
        assert fast.schedule == slow.schedule
