"""Bounded DFS: completeness, uniqueness, and agreement with brute force."""

import itertools
from unittest import mock

import pytest

from repro.core import DELAY, PREEMPTION, BoundedDFS, DFSExplorer
from repro.core.bounds import NoBoundCost
from repro.core.schedule import Schedule
from repro.engine import Outcome, ReplayStrategy, RoundRobinStrategy, execute
from repro.engine.hardening import LASSO_WINDOW, LassoDetector
from repro.sctbench.fixed import make_wsq_fixed

from .programs import (
    figure1,
    lock_order_deadlock,
    lost_signal,
    safe_counter,
    unsafe_counter,
)


def brute_force_terminal_schedules(program, cap=20_000):
    """Independent enumeration of every terminal schedule by recursive
    prefix extension (no DFS machinery shared with the code under test)."""
    results = []

    def explore(prefix):
        assert len(results) <= cap, "brute force exploded"
        res = execute(
            program,
            ReplayStrategy(prefix, fallback=RoundRobinStrategy(), strict=True),
        )
        if len(res.schedule) == len(prefix):
            if res.outcome.is_terminal_schedule:
                results.append(res)
            return
        for tid in res.enabled_sets[len(prefix)]:
            explore(prefix + [tid])

    explore([])
    return results


def dfs_terminal_schedules(program, cost_model=None, bound=None):
    out = []
    for record in BoundedDFS(program, cost_model or NoBoundCost(), bound).runs():
        if record.result.outcome.is_terminal_schedule:
            out.append(record)
    return out


@pytest.mark.parametrize(
    "make_program",
    [figure1, unsafe_counter, lock_order_deadlock, lost_signal],
    ids=["figure1", "unsafe_counter", "lock_order_deadlock", "lost_signal"],
)
class TestAgainstBruteForce:
    def test_unbounded_dfs_matches_brute_force(self, make_program):
        program = make_program()
        brute = {tuple(r.schedule) for r in brute_force_terminal_schedules(program)}
        dfs = [tuple(r.result.schedule) for r in dfs_terminal_schedules(program)]
        assert len(dfs) == len(set(dfs)), "DFS enumerated a schedule twice"
        assert set(dfs) == brute

    @pytest.mark.parametrize("bound", [0, 1, 2])
    def test_bounded_dfs_is_exactly_the_cost_filtered_set(self, make_program, bound):
        program = make_program()
        brute = brute_force_terminal_schedules(program)
        expected = {
            tuple(r.schedule)
            for r in brute
            if Schedule.from_result(r).preemptions <= bound
        }
        got = {
            tuple(r.result.schedule)
            for r in dfs_terminal_schedules(program, PREEMPTION, bound)
        }
        assert got == expected

    @pytest.mark.parametrize("bound", [0, 1, 2])
    def test_delay_bounded_dfs_is_exactly_the_cost_filtered_set(
        self, make_program, bound
    ):
        program = make_program()
        brute = brute_force_terminal_schedules(program)
        expected = {
            tuple(r.schedule)
            for r in brute
            if Schedule.from_result(r).delays <= bound
        }
        got = {
            tuple(r.result.schedule)
            for r in dfs_terminal_schedules(program, DELAY, bound)
        }
        assert got == expected


class TestDFSProperties:
    def test_first_schedule_is_round_robin(self):
        # Section 3: IPB, IDB and DFS share the same initial terminal
        # schedule — the non-preemptive round-robin one.
        rr = execute(figure1(), RoundRobinStrategy())
        for cost, bound in [(None, None), (PREEMPTION, 0), (DELAY, 0), (DELAY, 3)]:
            first = next(BoundedDFS(figure1(), cost, bound).runs())
            assert first.result.schedule == rr.schedule

    def test_delay_bounded_subset_of_preemption_bounded(self):
        # Section 2: schedules with ≤ c delays ⊆ schedules with ≤ c
        # preemptions.
        for c in (0, 1, 2):
            pb = {
                tuple(r.result.schedule)
                for r in dfs_terminal_schedules(figure1(), PREEMPTION, c)
            }
            db = {
                tuple(r.result.schedule)
                for r in dfs_terminal_schedules(figure1(), DELAY, c)
            }
            assert db <= pb

    def test_monotone_in_bound(self):
        prev = set()
        for c in (0, 1, 2, 3):
            cur = {
                tuple(r.result.schedule)
                for r in dfs_terminal_schedules(figure1(), DELAY, c)
            }
            assert prev <= cur
            prev = cur

    def test_safe_program_explored_with_no_bugs(self):
        records = dfs_terminal_schedules(safe_counter(2))
        assert records
        assert all(not r.result.is_buggy for r in records)


class TestDFSExplorer:
    def test_finds_figure1_bug(self):
        stats = DFSExplorer().explore(figure1(), limit=10_000)
        assert stats.found_bug
        assert stats.first_bug.outcome is Outcome.ASSERTION
        assert stats.completed or stats.schedules == 10_000

    def test_respects_limit(self):
        stats = DFSExplorer().explore(unsafe_counter(workers=3, increments=2), limit=50)
        assert stats.schedules <= 50

    def test_stats_shape(self):
        stats = DFSExplorer().explore(figure1(), limit=10_000)
        d = stats.as_dict()
        assert d["technique"] == "DFS"
        assert d["schedules"] == stats.schedules
        assert stats.buggy_schedules >= 1
        assert stats.max_enabled == 3
        assert stats.threads_created == 4

    def test_deadlock_program(self):
        stats = DFSExplorer().explore(lock_order_deadlock(), limit=10_000)
        assert stats.found_bug
        assert stats.first_bug.outcome is Outcome.DEADLOCK


def test_lasso_detector_sees_every_window_step():
    """The replay fast path still feeds the lasso detector every replayed
    step inside its window: it observes the same steps as a search that
    chooses every step, so no livelock verdict depends on the replay."""
    observed = {}
    original = LassoDetector.observe
    for fast_replay in (True, False):
        steps = observed[fast_replay] = []

        def observe(detector, kernel, enabled, steps=steps):
            steps.append(kernel.steps)
            return original(detector, kernel, enabled)

        dfs = BoundedDFS(
            make_wsq_fixed(),  # choice points up to step 40
            max_steps=LASSO_WINDOW + 20,
            fast_replay=fast_replay,
        )
        with mock.patch.object(LassoDetector, "observe", observe):
            for _ in itertools.islice(dfs.runs(), 100):
                pass
    assert observed[True] == observed[False] != []
