"""Sharded DPOR / BPOR exploration is observationally identical to serial.

Extends the DESIGN.md §13 contract to the partial-order-reduction
searches: for any program and shard count,

- ``DPORExplorer(shards >= 2)`` farms the top-level branch candidates to
  workers and merges their run streams in the serial order, producing
  byte-identical ``as_dict()`` stats (bounded or not);
- ``IterativeBPORExplorer(shards >= 2)`` farms the frontier entries of
  each bound, reconstructing the serial absorption order per entry;
- truncation (schedule limits) cuts the merged stream exactly where the
  serial search would have stopped;
- the frontier-resumption mode agrees with the classic restart-per-bound
  loop on verdict and smallest exposing bound.

Most tests run the shard tasks inline (``program_source=None``); the pool
tests cover the pickling boundary with a real ``ProcessPoolExecutor``.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import HealthCheck, given, settings

from repro.core.dpor import DPORExplorer, IterativeBPORExplorer

from .programs import (
    barrier_rendezvous,
    figure1,
    lock_order_deadlock,
    lost_signal,
    producer_consumer_sem,
    unsafe_counter,
)
from .test_dpor import (
    ORACLE_SEARCHES,
    FromScratchDPOR,
    build_rich_program,
    exploration_record,
    oracle_program,
    oracle_subject_st,
    rich_program_st,
    with_twin_examples,
)

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

SHARD_COUNTS = (2, 3, 4)

POOL_BENCH = "CS.lazy01_bad"


def _canon(stats) -> str:
    return json.dumps(stats.as_dict(), sort_keys=True)


@pytest.mark.parametrize("shards", SHARD_COUNTS)
@pytest.mark.parametrize("factory", GRID)
def test_dpor_stats_byte_identical(factory, shards):
    serial = DPORExplorer().explore(factory(), 10_000)
    sharded = DPORExplorer(shards=shards).explore(factory(), 10_000)
    assert _canon(serial) == _canon(sharded)


@pytest.mark.parametrize("shards", SHARD_COUNTS)
@pytest.mark.parametrize("factory", GRID)
def test_bounded_bpor_stats_byte_identical(factory, shards):
    serial = DPORExplorer(preemption_bound=1).explore(factory(), 10_000)
    sharded = DPORExplorer(preemption_bound=1, shards=shards).explore(
        factory(), 10_000
    )
    assert _canon(serial) == _canon(sharded)


@pytest.mark.parametrize("shards", SHARD_COUNTS)
@pytest.mark.parametrize("factory", GRID)
def test_iterative_bpor_stats_byte_identical(factory, shards):
    serial = IterativeBPORExplorer().explore(factory(), 10_000)
    sharded = IterativeBPORExplorer(shards=shards).explore(factory(), 10_000)
    assert _canon(serial) == _canon(sharded)


@pytest.mark.parametrize("limit", [1, 2, 3, 7, 19])
@pytest.mark.parametrize("shards", [2, 3])
def test_limit_hit_equivalence(shards, limit):
    factory = lambda: unsafe_counter(workers=3, increments=1)
    for make in (
        lambda **kw: DPORExplorer(**kw),
        lambda **kw: IterativeBPORExplorer(**kw),
    ):
        serial = make().explore(factory(), limit)
        sharded = make(shards=shards).explore(factory(), limit)
        assert _canon(serial) == _canon(sharded)


@given(subject=oracle_subject_st)
@with_twin_examples
@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_sharded_incremental_matches_from_scratch(subject):
    """The incremental analysis holds in branch and entry workers too:
    with every worker's explorer swapped for the from-scratch oracle,
    the sharded search decides exactly the same things."""
    program, filt = oracle_program(subject)
    for search in ORACLE_SEARCHES:
        incremental = exploration_record(
            DPORExplorer, search, program, 100, visible_filter=filt, shards=2
        )
        from_scratch = exploration_record(
            FromScratchDPOR, search, program, 100, visible_filter=filt, shards=2
        )
        assert incremental == from_scratch


# ---------------------------------------------------------------------------
# Real process pool: the pickling boundary end to end
# ---------------------------------------------------------------------------


def test_pool_sharded_dpor_matches_serial():
    from repro.sctbench import get

    info = get(POOL_BENCH)
    serial = DPORExplorer().explore(info.make(), 1_000)
    sharded = DPORExplorer(
        shards=2, program_source=("bench", POOL_BENCH)
    ).explore(info.make(), 1_000)
    assert _canon(serial) == _canon(sharded)


def test_pool_sharded_iterative_bpor_matches_serial():
    from repro.sctbench import get

    info = get(POOL_BENCH)
    serial = IterativeBPORExplorer().explore(info.make(), 1_000)
    sharded = IterativeBPORExplorer(
        shards=2, program_source=("bench", POOL_BENCH)
    ).explore(info.make(), 1_000)
    assert _canon(serial) == _canon(sharded)


# ---------------------------------------------------------------------------
# Frontier resumption vs restart-per-bound
# ---------------------------------------------------------------------------


class TestResumeVsRestart:
    @pytest.mark.parametrize("factory", GRID)
    def test_verdict_and_bound_agree_on_known_programs(self, factory):
        resume = IterativeBPORExplorer().explore(factory(), 10_000)
        restart = IterativeBPORExplorer(resume_frontier=False).explore(
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
        restart = IterativeBPORExplorer(resume_frontier=False).explore(
            program, 50_000
        )
        assert resume.found_bug == restart.found_bug
        if resume.found_bug:
            assert resume.bound == restart.bound
