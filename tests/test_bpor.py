"""Bounded partial-order reduction (DPOR + preemption bound).

Combining DPOR with schedule bounding naively is unsound — the bound can
prune the representative schedule DPOR was counting on.  The Coons et al.
fix (conservative backtrack points, OOPSLA'13 — cited by the paper as
recent/ongoing work) schedules the racing thread additionally at the most
recent point where running it is non-preemptive.  The gate here is the
hypothesis test: on random programs, **BPOR(c) finds a bug iff a buggy
schedule with at most c preemptions exists** (checked against preemption-
bounded DFS), while exploring no more schedules.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import PREEMPTION, BoundedDFS
from repro.core.dpor import DPORExplorer, IterativeBPORExplorer

from .oracles import RestartIBPOR
from .programs import (
    barrier_rendezvous,
    figure1,
    lock_order_deadlock,
    lost_signal,
    producer_consumer_sem,
    unsafe_counter,
)
from .test_dpor import build_rich_program, rich_program_st
from .test_properties import build_program, program_st


def bounded_dfs_outcome(program, bound, limit=50_000):
    found = 0
    total = 0
    for record in BoundedDFS(program, PREEMPTION, bound).runs():
        if record.result.outcome.is_terminal_schedule:
            total += 1
            if record.result.is_buggy:
                found += 1
        assert total <= limit
    return found > 0, total


class TestBPORKnownPrograms:
    def test_figure1_bug_at_bound_one_not_zero(self):
        program = figure1()
        b0 = DPORExplorer(preemption_bound=0).explore(program, 50_000)
        b1 = DPORExplorer(preemption_bound=1).explore(program, 50_000)
        assert not b0.found_bug
        assert b1.found_bug

    def test_bounded_explores_fewer_than_bounded_dfs(self):
        program = figure1()
        _, dfs_total = bounded_dfs_outcome(program, 1)
        bpor = DPORExplorer(preemption_bound=1).explore(program, 50_000)
        assert bpor.found_bug
        assert bpor.schedules <= dfs_total

    def test_deadlock_needs_one_preemption(self):
        program = lock_order_deadlock()
        assert not DPORExplorer(preemption_bound=0).explore(program, 50_000).found_bug
        assert DPORExplorer(preemption_bound=1).explore(program, 50_000).found_bug

    def test_unbounded_equals_none_bound(self):
        program = unsafe_counter()
        plain = DPORExplorer().explore(program, 50_000)
        big = DPORExplorer(preemption_bound=64).explore(program, 50_000)
        assert plain.found_bug == big.found_bug

    def test_technique_label(self):
        assert DPORExplorer(preemption_bound=2).technique == "BPOR(2)"
        assert DPORExplorer().technique == "DPOR"


class TestIterativeBPOR:
    def test_finds_figure1_at_bound_one_cheaply(self):
        from repro.core.dpor import IterativeBPORExplorer

        stats = IterativeBPORExplorer().explore(figure1(), 50_000)
        assert stats.found_bug
        assert stats.bound == 1
        # IPB needs 11 distinct schedules for the same bound (Example 2);
        # the POR variant gets there in a handful of executions.
        assert stats.schedules <= 11

    def test_safe_program_completes_without_pruning(self):
        from repro.core.dpor import IterativeBPORExplorer
        from .programs import safe_counter

        stats = IterativeBPORExplorer().explore(safe_counter(2), 50_000)
        assert not stats.found_bug
        assert stats.completed

    def test_agrees_with_ipb_on_bound(self):
        from repro.core import make_ipb
        from repro.core.dpor import IterativeBPORExplorer
        from .programs import unsafe_counter

        program = unsafe_counter()
        ipb = make_ipb().explore(program, 50_000)
        ibpor = IterativeBPORExplorer().explore(program, 50_000)
        assert ibpor.found_bug == ipb.found_bug
        assert ibpor.bound == ipb.bound

    @given(threads=program_st)
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_ibpor_matches_ipb_bound_and_verdict(self, threads):
        """On random programs the iterative POR driver agrees with IPB on
        both whether a bug exists and the smallest exposing bound."""
        from repro.core import make_ipb
        from repro.core.dpor import IterativeBPORExplorer

        program = build_program(threads)
        ipb = make_ipb().explore(program, 50_000)
        ibpor = IterativeBPORExplorer().explore(program, 50_000)
        assert ibpor.found_bug == ipb.found_bug
        if ipb.found_bug:
            assert ibpor.bound == ipb.bound


class TestBPORSoundnessProperty:
    @given(threads=program_st, bound=st.integers(0, 2))
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_bpor_matches_bounded_dfs_verdict(self, threads, bound):
        program = build_program(threads)
        dfs_found, dfs_total = bounded_dfs_outcome(program, bound)
        bpor = DPORExplorer(preemption_bound=bound).explore(program, 50_000)
        assert bpor.completed
        assert bpor.found_bug == dfs_found, (
            f"bound {bound}: BPOR {'found' if bpor.found_bug else 'missed'}, "
            f"bounded DFS {'found' if dfs_found else 'missed'}"
        )
        assert bpor.schedules <= dfs_total


# ---------------------------------------------------------------------------
# Frontier resumption vs restart-per-bound
# ---------------------------------------------------------------------------

GRID = [
    figure1,
    lambda: figure1(clone_count=2),
    lambda: unsafe_counter(workers=2, increments=2),
    lambda: unsafe_counter(workers=3, increments=1),
    lock_order_deadlock,
    lost_signal,
    lambda: barrier_rendezvous(parties=2),
    lambda: producer_consumer_sem(items=2),
]


class TestResumeVsRestart:
    @pytest.mark.parametrize("factory", GRID)
    def test_verdict_and_bound_agree_on_known_programs(self, factory):
        resume = IterativeBPORExplorer().explore(factory(), 10_000)
        restart = RestartIBPOR().explore(
            factory(), 10_000
        )
        assert resume.found_bug == restart.found_bug
        assert resume.completed == restart.completed
        if resume.found_bug:
            assert resume.bound == restart.bound

    @given(threads=rich_program_st)
    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_verdict_and_bound_agree_on_random_programs(self, threads):
        """Resuming beneath bound-pruned edges explores fewer schedules
        than restarting each bound from scratch but must agree on whether
        a bug exists and on the smallest exposing preemption bound."""
        program = build_rich_program(threads)
        resume = IterativeBPORExplorer().explore(program, 50_000)
        restart = RestartIBPOR().explore(
            program, 50_000
        )
        assert resume.found_bug == restart.found_bug
        if resume.found_bug:
            assert resume.bound == restart.bound
