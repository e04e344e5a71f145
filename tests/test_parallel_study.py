"""Parallel study runner: determinism vs serial, checkpoint/resume, errors."""

import json
import pickle
import sqlite3

import pytest

import repro.study.parallel as parallel_mod
from repro.engine import sync_only_filter
from repro.study import (
    ParallelStudyRunner,
    derive_seed,
    quick_config,
    run_cell,
)
from repro.study.store import read_journal, store_path_for

from .oracles import serial_study as reference_study

SMALL_SET = ["CS.lazy01_bad", "CS.din_phil2_sat", "splash2.lu"]


def small_config(limit=60):
    config = quick_config(limit=limit)
    config.benchmarks = list(SMALL_SET)
    return config


def normalized_json(study):
    """``to_json`` with the wall-clock field zeroed (the only
    nondeterministic part of the payload)."""
    data = json.loads(study.to_json())
    for bench in data["benchmarks"]:
        bench["seconds"] = 0
    return json.dumps(data, indent=1)


@pytest.fixture(scope="module")
def serial_study():
    return reference_study(small_config())


class TestDeterminism:
    def test_jobs1_matches_serial(self, serial_study):
        study = ParallelStudyRunner(
            small_config(), jobs=1, checkpoint_dir=None
        ).run()
        assert normalized_json(study) == normalized_json(serial_study)

    def test_jobs4_matches_serial(self, serial_study):
        study = ParallelStudyRunner(
            small_config(), jobs=4, checkpoint_dir=None
        ).run()
        assert normalized_json(study) == normalized_json(serial_study)

    def test_benchmark_and_technique_order_preserved(self, serial_study):
        study = ParallelStudyRunner(
            small_config(), jobs=4, checkpoint_dir=None
        ).run()
        assert [r.info.name for r in study] == SMALL_SET
        for parallel_r, serial_r in zip(study, serial_study):
            assert list(parallel_r.stats) == list(serial_r.stats)


class TestSeeds:
    def test_per_technique_seeds_are_independent(self):
        a = derive_seed(42, "Rand", "CS.lazy01_bad")
        b = derive_seed(42, "PCT", "CS.lazy01_bad")
        c = derive_seed(42, "Rand", "splash2.lu")
        assert len({a, b, c}) == 3

    def test_derived_seed_is_stable(self):
        # sha256-based, not the (per-process randomised) builtin hash.
        assert derive_seed(0, "Rand", "x") == derive_seed(0, "Rand", "x")


class TestPicklability:
    def test_sync_only_filter_is_module_level(self):
        assert pickle.loads(pickle.dumps(sync_only_filter)) is sync_only_filter

    def test_config_and_cell_record_pickle(self):
        config = small_config()
        assert pickle.loads(pickle.dumps(config)) == config
        record = run_cell("CS.lazy01_bad", "IDB", config)
        assert record["status"] == "bug"  # taxonomy: success with a bug found
        json.dumps(record)  # JSON-safe for the checkpoint store


class TestCheckpointResume:
    def _counting_run_cell(self, monkeypatch):
        calls = []
        real = parallel_mod.run_cell

        def counting(bench, technique, config):
            calls.append((bench, technique))
            return real(bench, technique, config)

        monkeypatch.setattr(parallel_mod, "run_cell", counting)
        return calls

    def test_resume_skips_completed_cells(self, tmp_path, monkeypatch, serial_study):
        calls = self._counting_run_cell(monkeypatch)
        config = small_config()
        ckpt = str(tmp_path / "ckpt")
        runner = ParallelStudyRunner(
            config, jobs=1, run_id="r1", checkpoint_dir=ckpt
        )
        total = len(runner.cells())
        runner.run()
        assert len(calls) == total

        # Simulate a mid-study kill: keep the run row plus the first 7
        # committed cells, and leave a garbled record for the 8th.
        grid = runner.cells()
        conn = sqlite3.connect(store_path_for(ckpt))
        with conn:
            ids = [
                rowid
                for (rowid,) in conn.execute(
                    "SELECT id FROM cells WHERE run_id = 'r1' ORDER BY id"
                )
            ]
            conn.execute("DELETE FROM cells WHERE id > ?", (ids[6],))
            conn.execute(
                "INSERT INTO cells (run_id, bench, technique, attempt, "
                "status, record, crc) VALUES ('r1', ?, ?, 0, 'ok', "
                "'{\"kind\": \"cel', 'deadbeef')",
                grid[7],
            )
        conn.close()

        calls.clear()
        resumed_runner = ParallelStudyRunner(
            config, jobs=1, run_id="r1", checkpoint_dir=ckpt
        )
        resumed = resumed_runner.run()
        # Only the cells lost to the kill re-ran, none of the kept 7.
        assert calls == grid[7:]
        assert len(calls) == total - 7
        # The resumed study equals a from-scratch serial run.
        assert normalized_json(resumed) == normalized_json(serial_study)

    def test_fingerprint_mismatch_rejected(self, tmp_path):
        config = small_config()
        ckpt = str(tmp_path / "ckpt")
        ParallelStudyRunner(
            config, jobs=1, run_id="r1", checkpoint_dir=ckpt
        ).run()
        other = small_config(limit=61)
        with pytest.raises(ValueError, match="different"):
            ParallelStudyRunner(
                other, jobs=1, run_id="r1", checkpoint_dir=ckpt
            ).run()

    def test_truncated_tail_is_ignored(self, tmp_path):
        # A journal left by an older version, torn mid-line by a kill.
        config = small_config()
        path = tmp_path / "torn.jsonl"
        header = {"kind": "header", "fingerprint": config.fingerprint()}
        path.write_text(json.dumps(header) + '\n{"kind": "cell", "ben')
        assert read_journal(str(path), config).completed == {}


class TestErrorCells:
    def test_failing_cell_retried_once_then_error(self, monkeypatch):
        attempts = []
        real = parallel_mod.run_cell

        def flaky(bench, technique, config):
            if technique == "IDB" and bench == "CS.lazy01_bad":
                attempts.append(bench)
                raise RuntimeError("injected cell failure")
            return real(bench, technique, config)

        monkeypatch.setattr(parallel_mod, "run_cell", flaky)
        config = small_config()
        study = ParallelStudyRunner(config, jobs=1, checkpoint_dir=None).run()
        assert len(attempts) == 2  # original try + one retry
        result = study.by_name("CS.lazy01_bad")
        assert "IDB" in result.errors
        assert "injected cell failure" in result.errors["IDB"]
        assert not result.found_by("IDB")  # empty stats, not a crash
        assert result.found_by("IPB")  # other cells unaffected
        assert "errors" in result.as_dict()

    def test_transient_failure_recovers_on_retry(self, monkeypatch):
        state = {"failed": False}
        real = parallel_mod.run_cell

        def once(bench, technique, config):
            if technique == "Rand" and not state["failed"]:
                state["failed"] = True
                raise RuntimeError("transient")
            return real(bench, technique, config)

        monkeypatch.setattr(parallel_mod, "run_cell", once)
        config = small_config()
        study = ParallelStudyRunner(config, jobs=1, checkpoint_dir=None).run()
        for result in study:
            assert result.errors == {}
