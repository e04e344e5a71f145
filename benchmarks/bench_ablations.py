"""Ablation benches for the design choices DESIGN.md calls out.

- race-site promotion on/off: promoting racy accesses blows up the
  schedule space but is what makes data-race bugs reachable at all;
- the delay-bound adversarial family (CS.reorder_N): the smallest IDB
  bound grows linearly with the thread count while IPB stays at 1;
- PCT vs the naive random scheduler: principled randomization needs far
  fewer runs on depth-2 bugs than naive Rand on hard instances;
- engine raw throughput (steps/second) under the three scheduler types.
"""

import pytest

from repro.core import PCTExplorer, RandomExplorer, make_idb, make_ipb
from repro.core.dfs import BoundedDFS
from repro.core.bounds import NoBoundCost
from repro.engine import RandomStrategy, RoundRobinStrategy, execute, sync_only_filter
from repro.racedetect import detect_races
from repro.sctbench import get


def _filter(program):
    report = detect_races(program, runs=10, seed=0)
    return report.visible_filter() if report.has_races else sync_only_filter


class TestRacePromotionAblation:
    def test_promotion_expands_space_and_finds_bug(self, benchmark):
        program = get("CS.reorder_3_bad").make()
        filt = _filter(program)

        def run_promoted():
            out = []
            for record in BoundedDFS(program, NoBoundCost(), None, visible_filter=filt).runs():
                out.append(record)
                if len(out) >= 400:
                    break
            return out

        promoted = benchmark.pedantic(run_promoted, rounds=1, iterations=1)
        unpromoted = list(
            BoundedDFS(
                program, NoBoundCost(), None, visible_filter=sync_only_filter
            ).runs()
        )
        # Without promotion the only scheduling points are sync ops: the
        # space collapses and the racy bug is invisible.
        assert len(unpromoted) < len(promoted)
        assert not any(r.result.is_buggy for r in unpromoted)
        assert any(r.result.is_buggy for r in promoted)


class TestReorderAdversary:
    @pytest.mark.parametrize("n,expected_db", [(3, 2), (4, 3)])
    def test_delay_bound_grows_preemption_does_not(self, benchmark, n, expected_db):
        name = f"CS.reorder_{n}_bad"
        program = get(name).make()
        filt = _filter(program)

        def run():
            return make_idb(visible_filter=filt).explore(program, 2_000)

        idb = benchmark.pedantic(run, rounds=1, iterations=1)
        ipb = make_ipb(visible_filter=filt).explore(program, 2_000)
        assert idb.found_bug and idb.bound == expected_db
        assert ipb.found_bug and ipb.bound == 1


class TestPCTvsRand:
    def test_pct_beats_naive_random_on_starvation_bug(self, benchmark):
        # ferret's bug needs a thread starved for the whole execution —
        # vanishingly unlikely under uniform random choice, but PCT's
        # priority orderings produce it outright.
        program = get("parsec.ferret").make()
        filt = _filter(program)

        def run_pct():
            return PCTExplorer(depth=1, seed=7, visible_filter=filt).explore(
                program, 300
            )

        pct = benchmark.pedantic(run_pct, rounds=1, iterations=1)
        rand = RandomExplorer(seed=7, visible_filter=filt).explore(program, 300)
        assert pct.found_bug
        assert not rand.found_bug


class TestDPORAblation:
    """Partial-order reduction — the paper's named future work (section 8).

    DPOR must agree with full DFS on bug presence while exploring fewer
    schedules; the reduction factor is the headline number."""

    @pytest.mark.parametrize(
        "name", ["CS.account_bad", "CS.twostage_bad", "misc.ctrace-test"]
    )
    def test_dpor_reduction_on_sctbench(self, benchmark, name):
        from repro.core.dpor import DPORExplorer

        program = get(name).make()
        filt = _filter(program)

        def run():
            return DPORExplorer(visible_filter=filt).explore(program, 10_000)

        dpor = benchmark.pedantic(run, rounds=1, iterations=1)
        dfs = DFSExplorerWrapper(filt).explore(program, 10_000)
        assert dpor.found_bug == dfs.found_bug
        if dfs.completed and dpor.completed:
            assert dpor.schedules <= dfs.schedules

    def test_ibpor_matches_ipb_bound_with_fewer_runs(self, benchmark):
        from repro.core.dpor import IterativeBPORExplorer

        program = get("CS.account_bad").make()
        filt = _filter(program)

        def run():
            return IterativeBPORExplorer(visible_filter=filt).explore(
                program, 10_000
            )

        ibpor = benchmark.pedantic(run, rounds=1, iterations=1)
        ipb = make_ipb(visible_filter=filt).explore(program, 10_000)
        assert ibpor.found_bug and ipb.found_bug
        assert ibpor.bound == ipb.bound
        assert ibpor.schedules <= ipb.schedules


def DFSExplorerWrapper(filt):
    from repro.core import DFSExplorer

    return DFSExplorer(visible_filter=filt)


class TestSpuriousWakeupAblation:
    """CHESS-style spurious wake-ups: the budget expands the schedule
    space and exposes missing-recheck bugs, while correct wait loops stay
    clean."""

    def test_budget_expands_space_and_catches_if_bug(self, benchmark):
        import sys
        from pathlib import Path

        sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
        from tests.test_spurious_wakeups import make_handshake
        from repro.core import DFSExplorer

        buggy = make_handshake(recheck=False)
        correct = make_handshake(recheck=True)

        def run():
            return DFSExplorer(spurious_wakeups=1).explore(buggy, 10_000)

        with_budget = benchmark.pedantic(run, rounds=1, iterations=1)
        without = DFSExplorer().explore(buggy, 10_000)
        assert with_budget.found_bug and not without.found_bug
        assert with_budget.schedules + with_budget.executions > without.schedules
        clean = DFSExplorer(spurious_wakeups=1).explore(correct, 10_000)
        assert clean.completed and not clean.found_bug


class TestEngineThroughput:
    @pytest.mark.parametrize(
        "strategy_name", ["round_robin", "random"]
    )
    def test_steps_per_second(self, benchmark, strategy_name):
        program = get("CS.din_phil5_sat").make()
        strategies = {
            "round_robin": RoundRobinStrategy(),
            "random": RandomStrategy(seed=1),
        }
        strategy = strategies[strategy_name]

        def run():
            return execute(program, strategy, record_enabled=False)

        result = benchmark(run)
        assert result.outcome.is_terminal_schedule
