"""Intra-cell sharded exploration is observationally identical to serial.

The contract (DESIGN.md §13): for any program and shard count,

- DFS / IPB / IDB with ``shards >= 2`` produce byte-identical
  ``as_dict()`` stats and enumerate the same terminal schedules in the
  same order as the serial search (work distribution is an exact disjoint
  partition of the search tree, merged in DFS order);
- Rand / PCT with ``shards >= 2`` switch to the *index-seeded* random
  stream (execution ``j`` draws from ``derive_shard_seed(seed, j)``),
  which is a pure function of the execution index — so every shard count
  (including the inline, pool-free execution of the same plan) yields one
  identical merged result;
- cooperative splitting (work stealing), budgets, first-bug-wins
  cancellation and ``REPRO_ENGINE_CHECK=1`` all compose with sharding.

Most tests run the shard tasks inline (``program_source=None``: same
descriptors, same merge, no process pool) to stay fast; a handful use a
real ``ProcessPoolExecutor`` against registry benchmarks to cover the
pickling boundary end to end.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.core import (
    Budget,
    DFSExplorer,
    PCTExplorer,
    RandomExplorer,
    ShardedDFS,
    ShardedFrontierSearch,
    derive_shard_seed,
    make_idb,
    make_ipb,
    split_indices,
)
from repro.core import sharding
from repro.core.bounds import DELAY, NO_BOUND, PREEMPTION
from repro.core.dfs import BoundedDFS, PrunedEdge
from repro.core.iterative import FrontierSearch

from .programs import (
    barrier_rendezvous,
    figure1,
    lock_order_deadlock,
    lost_signal,
    producer_consumer_sem,
    unsafe_counter,
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

#: Registry benchmarks used for the real-pool tests (small and quick).
POOL_BENCH = "CS.lazy01_bad"


def _canon(stats) -> str:
    """Byte-level view of the stats (`as_dict()` serialized canonically)."""
    return json.dumps(stats.as_dict(), sort_keys=True)


# ---------------------------------------------------------------------------
# Systematic techniques: byte-identical stats, identical schedule streams
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("shards", SHARD_COUNTS)
@pytest.mark.parametrize("factory", GRID)
def test_dfs_stats_byte_identical(factory, shards):
    serial = DFSExplorer().explore(factory(), 10_000)
    sharded = DFSExplorer(shards=shards).explore(factory(), 10_000)
    assert _canon(serial) == _canon(sharded)


@pytest.mark.parametrize("shards", SHARD_COUNTS)
@pytest.mark.parametrize("make", [make_ipb, make_idb])
@pytest.mark.parametrize("factory", GRID)
def test_bounding_stats_byte_identical(factory, make, shards):
    serial = make().explore(factory(), 10_000)
    sharded = make(shards=shards).explore(factory(), 10_000)
    assert _canon(serial) == _canon(sharded)


@pytest.mark.parametrize("limit", [1, 2, 3, 7, 19])
@pytest.mark.parametrize("shards", [2, 3])
def test_limit_hit_equivalence(shards, limit):
    factory = lambda: unsafe_counter(workers=3, increments=1)
    for make in (
        lambda **kw: DFSExplorer(**kw),
        lambda **kw: make_ipb(**kw),
        lambda **kw: make_idb(**kw),
    ):
        serial = make().explore(factory(), limit)
        sharded = make(shards=shards).explore(factory(), limit)
        assert _canon(serial) == _canon(sharded)


def _dfs_stream(dfs):
    return [
        (tuple(r.result.schedule), r.cost, r.pruned_any) for r in dfs.runs()
    ]


@pytest.mark.parametrize("shards", SHARD_COUNTS)
@pytest.mark.parametrize(
    "factory", [figure1, lambda: unsafe_counter(workers=3, increments=1)]
)
def test_dfs_schedule_stream_identical_in_order(factory, shards):
    serial = _dfs_stream(BoundedDFS(factory()))
    sharded_dfs = ShardedDFS(factory(), shards=shards, split_runs=4)
    try:
        sharded = _dfs_stream(sharded_dfs)
    finally:
        sharded_dfs.close()
    assert serial == sharded
    assert sharded_dfs.exhausted
    # Systematic search never repeats a terminal schedule.
    assert len({s for s, _, _ in sharded}) == len(sharded)


def _bound_stream(search, max_bound=8):
    out = []
    for bound in range(max_bound + 1):
        for record in search.runs_at_bound(bound):
            out.append(
                (bound, tuple(record.result.schedule), record.cost)
            )
        if not search.pruned_at_bound():
            break
    return out


@pytest.mark.parametrize("cost_model", [PREEMPTION, DELAY], ids=["PC", "DC"])
@pytest.mark.parametrize("shards", SHARD_COUNTS)
def test_frontier_schedule_stream_identical_in_order(cost_model, shards):
    factory = lambda: figure1(clone_count=2)
    serial = _bound_stream(FrontierSearch(factory(), cost_model))
    search = ShardedFrontierSearch(
        factory(), cost_model, shards=shards, split_runs=3
    )
    try:
        sharded = _bound_stream(search)
    finally:
        search.close()
    assert serial == sharded


# ---------------------------------------------------------------------------
# Work redistribution: splitting is an exact, ordered partition
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("after_runs", [1, 2, 5, 11])
def test_split_remaining_is_exact_ordered_remainder(after_runs):
    factory = lambda: unsafe_counter(workers=3, increments=1)
    serial = _dfs_stream(BoundedDFS(factory()))
    assert len(serial) > after_runs

    dfs = BoundedDFS(factory())
    got = []
    gen = dfs.runs()
    for record in gen:
        got.append((tuple(record.result.schedule), record.cost, record.pruned_any))
        if len(got) == after_runs:
            break
    gen.close()
    edges = dfs.split_remaining()
    assert dfs.exhausted  # ownership of the remainder transferred
    assert dfs.split_remaining() == []  # idempotent once detached
    # Descriptors come out in ascending DFS (order_path) order ...
    paths = [tuple(e.order_path) for e in edges]
    assert paths == sorted(paths)
    # ... and survive serialization: exploring each rebuilt descriptor in
    # that order continues the enumeration *exactly* where it stopped.
    for edge in edges:
        payload = json.loads(json.dumps(edge.to_payload()))
        sub = BoundedDFS(
            factory(), root=PrunedEdge.from_payload(payload)
        )
        got.extend(_dfs_stream(sub))
    assert got == serial


@pytest.mark.parametrize("split_runs", [1, 2])
def test_tiny_split_budget_still_equivalent(split_runs, monkeypatch):
    # split_runs=1 forces a cooperative split after every worker run —
    # maximum-churn work stealing must not perturb the merged stream.
    monkeypatch.setattr(sharding, "DEFAULT_SPLIT_RUNS", split_runs)
    factory = lambda: figure1(clone_count=2)
    serial = DFSExplorer().explore(factory(), 10_000)
    sharded = DFSExplorer(shards=3).explore(factory(), 10_000)
    assert _canon(serial) == _canon(sharded)
    ipb_serial = make_ipb().explore(factory(), 10_000)
    ipb_sharded = make_ipb(shards=3).explore(factory(), 10_000)
    assert _canon(ipb_serial) == _canon(ipb_sharded)


def test_split_indices_partition():
    for limit in (0, 1, 5, 10, 10_000):
        for shards in (1, 2, 3, 4, 7):
            ranges = split_indices(limit, shards)
            covered = [j for start, stop in ranges for j in range(start, stop)]
            assert covered == list(range(limit))  # exact, ordered, disjoint
            assert all(start < stop for start, stop in ranges)
            sizes = [stop - start for start, stop in ranges]
            if limit >= shards:
                assert max(sizes) - min(sizes) <= 1  # balanced


# ---------------------------------------------------------------------------
# Randomized techniques: the index-seeded stream is shard-count invariant
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("factory", [figure1, lost_signal])
def test_rand_shard_count_invariance(factory):
    reference = RandomExplorer(seed=7, shards=2).explore(factory(), 120)
    for shards in (3, 4):
        got = RandomExplorer(seed=7, shards=shards).explore(factory(), 120)
        assert _canon(reference) == _canon(got)


@pytest.mark.parametrize("factory", [figure1, lost_signal])
def test_pct_shard_count_invariance(factory):
    reference = PCTExplorer(seed=7, shards=2).explore(factory(), 120)
    for shards in (3, 4):
        got = PCTExplorer(seed=7, shards=shards).explore(factory(), 120)
        assert _canon(reference) == _canon(got)


def test_rand_sharded_equals_serial_index_seeded_stream():
    # The sharded merge is byte-identical to a *serial* explorer handed
    # the same per-index seeds — sharding is pure work distribution.
    limit, seed = 150, 11
    serial = RandomExplorer(seed=seed)
    serial.execution_seeds = [
        derive_shard_seed(seed, j) for j in range(limit)
    ]
    reference = serial.explore(figure1(), limit)
    sharded = RandomExplorer(seed=seed, shards=3).explore(figure1(), limit)
    assert _canon(reference) == _canon(sharded)


def test_rand_shards_1_keeps_classic_stream():
    classic = RandomExplorer(seed=5).explore(figure1(), 100)
    still_classic = RandomExplorer(seed=5, shards=1).explore(figure1(), 100)
    assert _canon(classic) == _canon(still_classic)


def test_rand_first_bug_index_is_global():
    # unsafe_counter's bug appears at some index j in the index-seeded
    # stream; a shard count that puts j in a later shard must rebase the
    # shard-local index back to the global one.
    factory = lambda: unsafe_counter(workers=2, increments=2)
    reference = RandomExplorer(seed=3, shards=2).explore(factory(), 200)
    assert reference.found_bug
    for shards in (3, 4):
        got = RandomExplorer(seed=3, shards=shards).explore(factory(), 200)
        assert got.first_bug.index == reference.first_bug.index
        assert got.first_bug.schedule == reference.first_bug.schedule


def test_rand_stop_at_first_bug_sharded():
    factory = lambda: unsafe_counter(workers=2, increments=2)
    reference = RandomExplorer(
        seed=3, shards=2, stop_at_first_bug=True
    ).explore(factory(), 200)
    assert reference.found_bug
    for shards in (3, 4):
        got = RandomExplorer(
            seed=3, shards=shards, stop_at_first_bug=True
        ).explore(factory(), 200)
        assert _canon(reference) == _canon(got)


# ---------------------------------------------------------------------------
# Cancellation: budgets and early stops drain cleanly
# ---------------------------------------------------------------------------


def test_budget_execution_ceiling_drains_cleanly():
    factory = lambda: unsafe_counter(workers=3, increments=2)
    budget = Budget(max_executions=5).start()
    stats = DFSExplorer(shards=3, budget=budget).explore(factory(), 10_000)
    assert stats.deadline_hit
    assert 0 < stats.executions <= 6  # the expiring run is observed once


def test_budget_expired_before_start_sharded():
    budget = Budget(max_executions=0).start()
    stats = make_ipb(shards=2, budget=budget).explore(figure1(), 10_000)
    assert stats.deadline_hit
    assert stats.schedules == 0


def test_rand_budget_sharded_drains_cleanly():
    budget = Budget(max_executions=7).start()
    stats = RandomExplorer(seed=1, shards=3, budget=budget).explore(
        figure1(), 10_000
    )
    assert stats.deadline_hit
    assert stats.schedules < 10_000


def test_closing_the_run_stream_early_cancels():
    dfs = ShardedDFS(
        unsafe_counter(workers=3, increments=1), shards=3, split_runs=2
    )
    try:
        gen = dfs.runs()
        first = next(gen)
        assert first.result.schedule
        gen.close()  # must cancel undispatched shard work, not hang
        assert not dfs.exhausted
    finally:
        dfs.close()
        dfs.close()  # idempotent


# ---------------------------------------------------------------------------
# Paranoid self-checks compose with sharding
# ---------------------------------------------------------------------------


def test_engine_check_on_sharded_run(monkeypatch):
    monkeypatch.setenv("REPRO_ENGINE_CHECK", "1")
    factory = lambda: figure1(clone_count=2)
    serial = make_ipb().explore(factory(), 10_000)
    sharded = make_ipb(shards=3).explore(factory(), 10_000)
    rand = RandomExplorer(seed=2, shards=3).explore(factory(), 60)
    assert _canon(serial) == _canon(sharded)
    assert rand.schedules == 60


# ---------------------------------------------------------------------------
# The real process pool (registry benchmarks as picklable sources)
# ---------------------------------------------------------------------------


class TestProcessPool:
    def test_systematic_pool_equivalence(self):
        from repro.sctbench import get

        info = get(POOL_BENCH)
        source = ("bench", POOL_BENCH)
        for make in (
            lambda **kw: DFSExplorer(**kw),
            lambda **kw: make_ipb(**kw),
        ):
            serial = make().explore(info.make(), 300)
            pooled = make(shards=2, program_source=source).explore(
                info.make(), 300
            )
            assert _canon(serial) == _canon(pooled)

    def test_random_pool_equivalence(self):
        from repro.sctbench import get

        info = get(POOL_BENCH)
        source = ("bench", POOL_BENCH)
        inline = RandomExplorer(seed=9, shards=2).explore(info.make(), 100)
        pooled = RandomExplorer(
            seed=9, shards=2, program_source=source
        ).explore(info.make(), 100)
        assert _canon(inline) == _canon(pooled)

    def test_unshippable_cost_model_is_rejected(self):
        from repro.core.bounds import BoundCost

        class Custom(BoundCost):
            name = "custom"

            def increment(self, prev_tid, tid, enabled, kernel):  # pragma: no cover
                return 0

        with pytest.raises(ValueError, match="not shippable"):
            ShardedFrontierSearch(figure1(), Custom(), shards=2)

    def test_invalid_shard_count_rejected(self):
        with pytest.raises(ValueError):
            ShardedDFS(figure1(), shards=0)


# ---------------------------------------------------------------------------
# Study integration: seed journaling, fingerprint regime, resume command
# ---------------------------------------------------------------------------


class TestStudyIntegration:
    def _config(self, **kwargs):
        from repro.study import quick_config

        config = quick_config(limit=60)
        config.benchmarks = [POOL_BENCH]
        for key, value in kwargs.items():
            setattr(config, key, value)
        return config

    def test_cell_record_journals_seed_and_shards(self):
        from repro.study.runner import run_cell

        config = self._config(cell_shards=2)
        record = run_cell(POOL_BENCH, "Rand", config)
        assert record["seed"] == config.seed_for("Rand", POOL_BENCH)
        assert record["shards"] == 2
        systematic = run_cell(POOL_BENCH, "DFS", config)
        assert "seed" not in systematic  # only the seeded techniques

    def test_retry_attempt_journals_the_bumped_seed(self):
        # Regression: a retried cell runs under for_attempt()'s seed bump;
        # the journal record must carry the seed actually drawn from, so
        # the exact stream is replayable from the record alone.
        from repro.study.runner import run_cell

        base = self._config(cell_shards=2)
        bumped = base.for_attempt(1)
        rec0 = run_cell(POOL_BENCH, "Rand", base)
        rec1 = run_cell(POOL_BENCH, "Rand", bumped)
        assert rec0["seed"] != rec1["seed"]
        assert rec1["seed"] == bumped.seed_for("Rand", POOL_BENCH)
        # Replaying the recorded attempt reproduces its stats exactly.
        again = run_cell(POOL_BENCH, "Rand", bumped)
        assert again["stats"] == rec1["stats"]
        assert again["seed"] == rec1["seed"]

    def test_sharded_cell_matches_serial_for_systematic(self):
        from repro.study.runner import run_cell

        serial = run_cell(POOL_BENCH, "IPB", self._config())
        sharded = run_cell(POOL_BENCH, "IPB", self._config(cell_shards=2))
        assert serial["stats"] == sharded["stats"]

    def test_fingerprint_records_stream_regime_not_shard_count(self):
        base = self._config()
        s2 = self._config(cell_shards=2)
        s4 = self._config(cell_shards=4)
        # Any shards >= 2 produces identical output (one regime) ...
        assert s2.fingerprint() == s4.fingerprint()
        # ... which differs from the classic single-RNG stream.
        assert base.fingerprint() != s2.fingerprint()
        # Profiling is observational: never part of the fingerprint.
        prof = self._config(profile_cells=True, profile_dir="/tmp/x")
        assert prof.fingerprint() == base.fingerprint()

    def test_resume_command_restates_shards(self):
        from repro.study.parallel import ParallelStudyRunner

        runner = ParallelStudyRunner(
            self._config(cell_shards=3), run_id="t", checkpoint_dir=None
        )
        assert runner._resume_command() is None  # checkpointing off
        runner = ParallelStudyRunner(
            self._config(cell_shards=3), run_id="t"
        )
        assert "--shards 3" in runner._resume_command()

    def test_profile_cell_dumps_under_profile_dir(self, tmp_path):
        from repro.study.runner import run_cell

        config = self._config(
            profile_cells=True, profile_dir=str(tmp_path / "profiles")
        )
        run_cell(POOL_BENCH, "IDB", config)
        prof = tmp_path / "profiles" / f"{POOL_BENCH}.IDB.prof"
        text = tmp_path / "profiles" / f"{POOL_BENCH}.IDB.txt"
        assert prof.exists() and prof.stat().st_size > 0
        assert "cumulative" in text.read_text()
