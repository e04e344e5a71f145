"""Self-test of the end-to-end benchmark (about 20 s)::

    PYTHONPATH=src pytest benchmarks/e2e

Every workload runs on a one-subject slice, once as one timing repeat
(``worker.measure``) and once under the tracer.
"""

from __future__ import annotations

import copy
import json
import os
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
SLICES = {
    "paper-grid": ["CS.account_bad"],
    "por-suite": ["fixed.account"],
    # The fork-snapshot subject: wrappers must survive holders forking
    # mid-execution and waking in a child, and chain-forked holders are
    # orphaned when their forker exits.
    "deep-prefix": ["fixed.prelude"],
}
SEED = workloads.GOLDEN_SEED


class FlatProbes:
    """Speed probes that always read the reference speed."""

    def reading_ms(self, start, end, cpus=None):
        return speed.REFERENCE_MS

    def scale(self, start, end, cpus=None):
        return 1.0


def _timing(measured: dict, repeats: int = 1, setups=(0.1,)) -> dict:
    metrics = run.reference_seconds(measured, FlatProbes(), [0])
    return run.aggregate(list(setups), [metrics] * repeats,
                         [measured] * repeats)


def _slice(name: str, tracer=None) -> dict:
    wl = workloads.WORKLOADS[name]
    inputs = wl.setup(SEED, SLICES[name], serial=tracer is not None)
    if tracer is None:
        measured, raw, cells = worker.measure(wl, inputs, SEED)
        return {"inputs": inputs, "raw": raw, "cells": cells,
                "failures": measured["failures"], "measured": measured}
    try:
        workloads.become_subreaper()
        with tracer:
            raw = tracer.run(wl.run, inputs, tracer.cell)
        workloads.reap_children()
        cells = wl.cells(inputs, raw)
        failures = wl.check(inputs, raw, cells, workloads.load_golden(), SEED)
    finally:
        wl.cleanup(inputs)
    return {"inputs": inputs, "raw": raw, "cells": cells,
            "failures": failures}


def _has_children() -> bool:
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return False
    return True


@pytest.fixture(scope="module", params=sorted(SLICES))
def runs(request):
    name = request.param
    plain = _slice(name)
    tracer = tracing.Tracer()
    traced = _slice(name, tracer)
    return {"name": name, "plain": plain, "traced": traced, "tracer": tracer,
            "leftover": tracing.Tracer.leftover_wrappers(),
            "children_left": _has_children()}


def test_slice_passes_its_checks(runs):
    assert runs["plain"]["failures"] == []
    assert runs["traced"]["failures"] == []
    assert runs["plain"]["cells"], "the slice ran no cell"


def test_planted_wrong_verdict_is_caught(runs):
    wl = workloads.WORKLOADS[runs["name"]]
    plain = runs["plain"]
    planted = copy.deepcopy(plain["cells"])
    planted[0]["stats"]["completed"] = not planted[0]["stats"]["completed"]
    failures = wl.check(plain["inputs"], plain["raw"], planted,
                        workloads.load_golden(), SEED)
    assert {cid for cid, _ in failures} == {planted[0]["id"]}


def test_a_cell_failing_in_every_repeat_counts_once(runs):
    cid = runs["plain"]["cells"][0]["id"]
    repeat = dict(runs["plain"]["measured"], failures=[[cid, "planted"]])
    assert _timing(repeat, repeats=3)["failed"] == 1


def test_tiny_cells_are_rerun_only_when_timed(runs):
    if runs["name"] != "por-suite":
        pytest.skip("only por-suite reruns its tiny cells")
    wl = workloads.WORKLOADS["por-suite"]
    assert {len(c["runs"]) for c in runs["plain"]["cells"]} == {wl.TINY_ROUNDS}
    assert {len(c["runs"]) for c in runs["traced"]["cells"]} == {1}
    plain = runs["plain"]
    planted = copy.deepcopy(plain["cells"])
    planted[0]["reruns_agree"] = False
    failures = wl.check(plain["inputs"], plain["raw"], planted,
                        workloads.load_golden(), SEED)
    assert failures == [(planted[0]["id"], "a timing rerun's result differs")]


def test_hd_quantile():
    values = [float(v) for v in range(1, 10)]
    assert run.hd_quantile([7.0], 0.9) == 7.0
    assert run.hd_quantile(values, 0.5) == pytest.approx(5.0)
    assert 8.0 < run.hd_quantile(values[::-1], 0.9) < 9.0
    # A thousand cells: weights that would underflow are rescaled.
    assert run.hd_quantile(values * 120, 0.5) == pytest.approx(5.0)


def test_speed_probes_read_every_vcpu_and_stop():
    with speed.Probes() as probes:
        start = time.time()
        time.sleep(0.3)
        end = time.time()
    assert set(probes.readings) == set(os.sched_getaffinity(0))
    assert probes.reading_ms(start, end) > 0
    assert probes.scale(start, end) > 0
    assert not _has_children()


def test_traced_self_times_sum_to_traced_wall(runs):
    summary = runs["tracer"].summary()
    total = sum(e["self_s"] for e in summary["entries"].values())
    assert summary["wall_s"] > 0
    assert abs(total - summary["wall_s"]) <= 0.01 * summary["wall_s"]


def test_wrappers_change_no_result_and_are_removed(runs):
    def stats(cells):
        return {c["id"]: workloads.as_dict(c["stats"]) for c in cells}

    assert stats(runs["traced"]["cells"]) == stats(runs["plain"]["cells"])
    assert runs["tracer"].missing == []
    assert runs["leftover"] == []


def test_no_process_outlives_its_cell(runs):
    # Every descendant, orphans included, was reaped by this process.
    assert not runs["children_left"]
    if runs["name"] == "deep-prefix":
        # IPB on fixed.prelude runs nearly all its work in chain-forked
        # cross-bound holders, most of them orphaned by their forker.
        # Adopted and reaped in the cell, their CPU time is counted: it
        # is several times the parent's (about a third of it without).
        cell = runs["tracer"].cells["fixed.prelude/IPB+snapshots"]
        assert cell["children_cpu_s"] > 2 * cell["self_cpu_s"]


def test_printed_metrics_are_the_benchmark_json_ones(runs):
    measured = runs["plain"]["measured"]
    timing = _timing(measured, setups=(0.1, 0.2, 0.3))
    cells = runs["traced"]["cells"]
    traced = {
        "metrics": run.layer_metrics(runs["tracer"].summary(), cells,
                                     workloads.exact_counts(cells),
                                     measured["wall_s"]),
        "attempted": len(cells), "failed": 0,
    }
    for res, section in ((timing, "end_to_end"), (traced, "per_layer")):
        line = run.result_line({runs["name"]: res})
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] and line["attempted"] >= 1
        declared = {m["name"]: m["unit"] for m in SPEC[section]}
        printed = {k: m["unit"] for k, m in line["metrics"].items()}
        assert printed == declared
