"""Negative controls: no technique may report a bug on a fixed twin.

SCT's no-false-positive guarantee (paper section 1) — together with these
corrected programs — pins both sides: the buggy ports are found, the
fixed twins never are.  Where the schedule space is small enough, the
check is exhaustive (DFS/DPOR complete); randomized techniques get a
budget of runs.
"""

import pytest

from repro.core import DFSExplorer, MapleAlgExplorer, RandomExplorer, make_idb
from repro.core.dpor import DPORExplorer
from repro.racedetect import detect_races
from repro.sctbench.fixed import FIXED_TWINS

TWIN_IDS = [f().name for f in FIXED_TWINS]


def filt_for(program):
    report = detect_races(program, runs=10, seed=0)
    return report.visible_filter() if report.has_races else (lambda op: False)


@pytest.mark.parametrize("factory", FIXED_TWINS, ids=TWIN_IDS)
class TestNoFalsePositives:
    def test_idb_clean(self, factory):
        program = factory()
        stats = make_idb(visible_filter=filt_for(program)).explore(program, 3_000)
        assert not stats.found_bug, stats.first_bug

    def test_random_clean(self, factory):
        program = factory()
        stats = RandomExplorer(seed=11, visible_filter=filt_for(program)).explore(
            program, 500
        )
        assert not stats.found_bug, stats.first_bug
        assert stats.buggy_schedules == 0

    def test_dpor_clean_and_often_exhaustive(self, factory):
        program = factory()
        stats = DPORExplorer(visible_filter=filt_for(program)).explore(
            program, 5_000
        )
        assert not stats.found_bug, stats.first_bug

    def test_maple_clean(self, factory):
        program = factory()
        stats = MapleAlgExplorer(seed=11).explore(program, 300)
        assert not stats.found_bug, stats.first_bug


class TestExhaustiveWhereFeasible:
    @pytest.mark.parametrize(
        "idx",
        [0, 1, 2, 3, 7, 9],
        ids=[TWIN_IDS[i] for i in [0, 1, 2, 3, 7, 9]],
    )
    def test_full_dfs_exhausts_clean(self, idx):
        program = FIXED_TWINS[idx]()
        stats = DFSExplorer(visible_filter=filt_for(program)).explore(
            program, 50_000
        )
        assert stats.completed, "space unexpectedly large"
        assert not stats.found_bug
        assert stats.buggy_schedules == 0

    def test_handshake_clean_even_with_spurious_wakeups(self):
        program = FIXED_TWINS[7]()  # fixed.handshake
        assert program.name == "fixed.handshake"
        stats = DFSExplorer(
            visible_filter=filt_for(program), spurious_wakeups=1
        ).explore(program, 50_000)
        assert stats.completed
        assert not stats.found_bug
