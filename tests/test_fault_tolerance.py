"""Fault tolerance: taxonomy, fault injection, journal v2, watchdog, drain."""

import json
import os
import signal
import sqlite3
import subprocess
import sys
import time

import pytest

import repro.study.parallel as parallel_mod
from repro.study import (
    ParallelStudyRunner,
    full_report,
    quick_config,
    run_cell,
    run_study,
    status_summary,
    taxonomy,
)
from repro.study.faults import ENV_FAULTS, FaultPlan, FaultSpec
from repro.study.store import (
    decode_journal_line,
    encode_journal_line,
    read_journal,
    store_path_for,
)

from .oracles import serial_study
from .test_store import corrupt_line, stored

SMALL_SET = ["CS.lazy01_bad", "CS.din_phil2_sat", "splash2.lu"]


def small_config(limit=60, techniques=None):
    config = quick_config(limit=limit)
    config.benchmarks = list(SMALL_SET)
    config.retry_backoff = 0.0  # keep retry tests fast
    if techniques is not None:
        config.techniques = list(techniques)
    return config


def det_config():
    """Seed-independent techniques only: results survive attempt bumps."""
    return small_config(techniques=["IPB", "IDB", "DFS"])


def normalized_json(study):
    data = json.loads(study.to_json())
    for bench in data["benchmarks"]:
        bench["seconds"] = 0
    return json.dumps(data, indent=1)


class TestTaxonomy:
    def test_partition(self):
        assert taxonomy.SUCCESS_STATUSES | taxonomy.RETRYABLE_STATUSES == set(
            taxonomy.ALL_STATUSES
        )
        assert not taxonomy.SUCCESS_STATUSES & taxonomy.RETRYABLE_STATUSES

    def test_v1_records_without_status_are_errors(self):
        # v1 *error* records carried status "error"; a record with no
        # status at all is treated as one (it cannot be trusted).
        assert taxonomy.status_of({}) == taxonomy.ERROR
        assert taxonomy.status_of({"status": "ok"}) == taxonomy.OK

    def test_bug_is_success_not_retryable(self):
        assert taxonomy.is_success(taxonomy.BUG)
        assert not taxonomy.is_retryable(taxonomy.BUG)
        assert taxonomy.is_retryable(taxonomy.QUARANTINED)


class TestFaultSpecs:
    def test_cell_parsing(self):
        spec = FaultSpec.from_dict(
            {"cell": "CS.lazy01_bad/IDB", "kind": "diverge", "attempts": [1]}
        )
        assert spec.bench == "CS.lazy01_bad"
        assert spec.technique == "IDB"
        assert not spec.matches("CS.lazy01_bad", "IDB", 0)
        assert spec.matches("CS.lazy01_bad", "IDB", 1)
        assert not spec.matches("CS.lazy01_bad", "IPB", 1)

    def test_bad_specs_rejected(self):
        with pytest.raises(ValueError, match="cell"):
            FaultSpec.from_dict({"cell": "no-slash", "kind": "crash"})
        with pytest.raises(ValueError, match="kind"):
            FaultSpec.from_dict({"cell": "a/b", "kind": "meteor"})

    def test_plan_merges_config_and_env(self, monkeypatch):
        config = small_config()
        config.faults = [{"cell": "a/b", "kind": "crash"}]
        monkeypatch.setenv(
            ENV_FAULTS, '[{"cell": "c/d", "kind": "hang", "seconds": 1}]'
        )
        plan = FaultPlan.from_config(config)
        assert len(plan.specs) == 2
        assert plan.match("c", "d", 0).kind == "hang"

    def test_empty_plan_is_falsy(self):
        assert not FaultPlan.from_config(small_config())


class TestJournalV2:
    RECORD = {
        "kind": "cell",
        "bench": "b",
        "technique": "T",
        "status": "ok",
        "seconds": 1.25,
    }

    def test_line_round_trips(self):
        line = encode_journal_line(self.RECORD)
        assert '"crc"' in line
        assert decode_journal_line(line) == self.RECORD

    def test_tampered_line_rejected(self):
        line = encode_journal_line(self.RECORD)
        tampered = line.replace('"status":"ok"', '"status":"bug"')
        assert json.loads(tampered)  # still valid JSON...
        assert decode_journal_line(tampered) is None  # ...but the CRC fails

    def test_garbled_line_rejected(self):
        assert decode_journal_line(corrupt_line(encode_journal_line(self.RECORD))) is None
        assert decode_journal_line("[1, 2]") is None  # JSON but not a record

    def test_v1_line_without_crc_accepted(self):
        assert decode_journal_line(json.dumps(self.RECORD)) == self.RECORD

    def _write_journal(self, path, config, cells, mangle=None):
        lines = [
            encode_journal_line(
                {
                    "kind": "header",
                    "version": 2,
                    "run_id": "t",
                    "fingerprint": config.fingerprint(),
                }
            )
        ]
        for bench, tech, status in cells:
            lines.append(
                encode_journal_line(
                    {
                        "kind": "cell",
                        "bench": bench,
                        "technique": tech,
                        "status": status,
                    }
                )
            )
        if mangle is not None:
            lines[mangle] = corrupt_line(lines[mangle])
        path.write_text("\n".join(lines) + "\n")

    def test_midfile_corruption_skips_only_that_cell(self, tmp_path):
        config = small_config()
        path = tmp_path / "j.jsonl"
        self._write_journal(
            path,
            config,
            [("a", "IPB", "ok"), ("b", "IPB", "ok"), ("c", "IPB", "ok")],
            mangle=2,  # the middle cell record, not the tail
        )
        info = read_journal(str(path), config)
        assert set(info.completed) == {("a", "IPB"), ("c", "IPB")}
        assert info.corrupt_lines == [3]
        assert info.version == 2

    def test_last_record_wins(self, tmp_path):
        config = small_config()
        path = tmp_path / "j.jsonl"
        self._write_journal(
            path, config, [("a", "IPB", "error"), ("a", "IPB", "ok")]
        )
        completed = read_journal(str(path), config).completed
        assert completed[("a", "IPB")]["status"] == "ok"

    def test_corrupt_header_with_cells_is_fatal(self, tmp_path):
        config = small_config()
        path = tmp_path / "j.jsonl"
        self._write_journal(path, config, [("a", "IPB", "ok")], mangle=0)
        with pytest.raises(ValueError, match="header"):
            read_journal(str(path), config)

    def test_v1_journal_reads_transparently(self, tmp_path):
        config = small_config()
        path = tmp_path / "v1.jsonl"
        lines = [
            json.dumps({"kind": "header", "version": 1,
                        "fingerprint": config.fingerprint()}),
            json.dumps({"kind": "cell", "bench": "a", "technique": "IPB",
                        "status": "ok"}),
        ]
        path.write_text("\n".join(lines) + "\n")
        info = read_journal(str(path), config)
        assert info.version == 1
        assert set(info.completed) == {("a", "IPB")}


class TestRetrySeeds:
    def test_for_attempt_is_deterministic_and_bumps(self):
        config = small_config()
        assert config.for_attempt(0) is config
        a1 = config.for_attempt(1)
        assert a1 == config.for_attempt(1)
        assert a1.rand_seed != config.rand_seed
        assert a1.maple_seed != config.maple_seed
        assert a1.schedule_limit == config.schedule_limit
        assert config.for_attempt(2).rand_seed != a1.rand_seed

    def test_backoff_schedule(self):
        config = small_config()
        config.retry_backoff = 0.5
        runner = ParallelStudyRunner(config, jobs=1, checkpoint_dir=None)
        assert runner._backoff(0) == 0.0
        assert runner._backoff(1) == 0.5
        assert runner._backoff(2) == 1.0
        assert runner._backoff(3) == 2.0


class TestCellDeadline:
    def test_expired_deadline_yields_timeout_with_partial_stats(self):
        config = small_config(techniques=["IDB"])
        config.cell_deadline = 0.0  # expires on the first poll
        record = run_cell("CS.lazy01_bad", "IDB", config)
        assert record["status"] == taxonomy.TIMEOUT
        assert record["stats"]["deadline_hit"] is True
        assert record["stats"]["schedules"] == 0

    def test_generous_deadline_changes_nothing(self):
        config = small_config(techniques=["IDB"])
        plain = run_cell("CS.lazy01_bad", "IDB", config)
        config.cell_deadline = 3600.0
        budgeted = run_cell("CS.lazy01_bad", "IDB", config)
        assert plain["status"] == budgeted["status"] == taxonomy.BUG
        assert plain["stats"] == budgeted["stats"]

    def test_timeout_cells_surface_in_serial_study_and_report(self):
        config = small_config(techniques=["IPB"])
        config.cell_deadline = 0.0
        study = run_study(config)
        for result in study:
            assert result.statuses == {"IPB": taxonomy.TIMEOUT}
        report = full_report(study)
        assert "Incomplete cells" in report
        assert "timeout" in status_summary(study)

    def test_fault_free_report_has_no_status_section(self):
        config = small_config(techniques=["IPB"])
        study = run_study(config)
        assert "Incomplete cells" not in full_report(study)
        assert status_summary(study) == "all cells completed (ok/bug)"

    def test_hard_timeout_derivation(self):
        config = small_config()
        assert config.hard_timeout_for() is None
        config.cell_deadline = 10.0
        assert config.hard_timeout_for() == 70.0
        config.cell_hard_timeout = 5.0
        assert config.hard_timeout_for() == 5.0


class TestSerialFaults:
    def test_persistent_divergence_classified(self):
        config = small_config(techniques=["IPB", "IDB"])
        config.faults = [
            {"cell": "CS.lazy01_bad/IDB", "kind": "diverge",
             "attempts": [0, 1]},
        ]
        study = ParallelStudyRunner(config, jobs=1, checkpoint_dir=None).run()
        result = study.by_name("CS.lazy01_bad")
        assert result.statuses["IDB"] == taxonomy.DIVERGED
        assert "divergence" in result.errors["IDB"]
        assert not result.found_by("IDB")
        assert result.found_by("IPB")  # neighbours unaffected

    def test_transient_divergence_recovers_on_retry(self):
        config = small_config(techniques=["IPB", "IDB"])
        config.faults = [
            {"cell": "CS.lazy01_bad/IDB", "kind": "diverge", "attempts": [0]},
        ]
        study = ParallelStudyRunner(config, jobs=1, checkpoint_dir=None).run()
        result = study.by_name("CS.lazy01_bad")
        assert result.statuses == {}
        assert result.errors == {}
        assert result.found_by("IDB")


class TestPoolFaults:
    @pytest.fixture(scope="class")
    def det_serial(self):
        return serial_study(det_config())

    def test_worker_crash_recovers_and_matches_serial(self, det_serial):
        # The satellite BrokenProcessPool test: one injected hard crash —
        # the pool is rebuilt, in-flight cells are re-queued, and the
        # final study equals a fault-free serial run (all techniques here
        # are seed-independent, so attempt bumps cannot change results).
        config = det_config()
        config.faults = [
            {"cell": "CS.din_phil2_sat/IDB", "kind": "crash", "attempts": [0]},
        ]
        study = ParallelStudyRunner(config, jobs=2, checkpoint_dir=None).run()
        assert normalized_json(study) == normalized_json(det_serial)

    def test_repeatedly_crashing_cell_is_quarantined(self, det_serial):
        config = det_config()
        config.faults = [
            {"cell": "CS.din_phil2_sat/IDB", "kind": "crash",
             "attempts": [0, 1, 2, 3]},
        ]
        study = ParallelStudyRunner(config, jobs=2, checkpoint_dir=None).run()
        result = study.by_name("CS.din_phil2_sat")
        assert result.statuses["IDB"] == taxonomy.QUARANTINED
        assert "quarantined" in result.errors["IDB"]
        # Only the crashy cell degraded; every other cell matches serial.
        ours = json.loads(normalized_json(study))["benchmarks"]
        ref = json.loads(normalized_json(det_serial))["benchmarks"]
        for mine, theirs in zip(ours, ref):
            if mine["name"] != "CS.din_phil2_sat":
                assert mine == theirs
            else:
                mine["techniques"].pop("IDB")
                theirs["techniques"].pop("IDB")
                mine.pop("errors"), mine.pop("statuses")
                assert mine == theirs

    def test_hung_worker_killed_by_watchdog(self):
        config = det_config()
        config.cell_hard_timeout = 3.0
        config.faults = [
            {"cell": "CS.lazy01_bad/IPB", "kind": "hang", "seconds": 120},
        ]
        t0 = time.monotonic()
        study = ParallelStudyRunner(config, jobs=2, checkpoint_dir=None).run()
        assert time.monotonic() - t0 < 60  # nowhere near the 120s hang
        result = study.by_name("CS.lazy01_bad")
        assert result.statuses["IPB"] == taxonomy.TIMEOUT
        assert "watchdog" in result.errors["IPB"]
        # The study completed around the hung cell.
        assert result.found_by("IDB")
        assert study.by_name("CS.din_phil2_sat").found_by("IPB")


class TestJournalFaultsAndRetryErrors:
    def test_corrupt_journal_line_reruns_only_that_cell(
        self, tmp_path, monkeypatch
    ):
        config = det_config()
        ckpt = str(tmp_path / "ckpt")
        # Injected via the environment so the run's fingerprint is the
        # same on the resume run (env faults are not part of the config).
        monkeypatch.setenv(
            ENV_FAULTS,
            '[{"cell": "CS.din_phil2_sat/DFS", "kind": "corrupt-journal"}]',
        )
        ParallelStudyRunner(
            config, jobs=1, run_id="r1", checkpoint_dir=ckpt
        ).run()
        monkeypatch.delenv(ENV_FAULTS)

        info, _ = stored(ckpt, "r1")
        assert len(info.corrupt_lines) == 1
        assert ("CS.din_phil2_sat", "DFS") not in info.completed

        calls = []
        real = parallel_mod.run_cell

        def counting(bench, technique, cfg):
            calls.append((bench, technique))
            return real(bench, technique, cfg)

        monkeypatch.setattr(parallel_mod, "run_cell", counting)
        resumed = ParallelStudyRunner(
            config, jobs=1, run_id="r1", checkpoint_dir=ckpt
        )
        resumed.run()
        assert calls == [("CS.din_phil2_sat", "DFS")]
        # The re-run's record healed the run.
        info, _ = stored(ckpt, "r1")
        assert ("CS.din_phil2_sat", "DFS") in info.completed

    def test_retry_errors_reruns_only_non_success_cells(
        self, tmp_path, monkeypatch
    ):
        config = det_config()
        ckpt = str(tmp_path / "ckpt")
        monkeypatch.setenv(
            ENV_FAULTS,
            '[{"cell": "CS.lazy01_bad/IPB", "kind": "diverge",'
            ' "attempts": [0, 1]}]',
        )
        first = ParallelStudyRunner(
            config, jobs=1, run_id="r2", checkpoint_dir=ckpt
        ).run()
        assert first.by_name("CS.lazy01_bad").statuses["IPB"] == (
            taxonomy.DIVERGED
        )
        monkeypatch.delenv(ENV_FAULTS)

        calls = []
        real = parallel_mod.run_cell

        def counting(bench, technique, cfg):
            calls.append((bench, technique))
            return real(bench, technique, cfg)

        monkeypatch.setattr(parallel_mod, "run_cell", counting)

        # A plain resume keeps the diverged record and re-runs nothing.
        kept = ParallelStudyRunner(
            config, jobs=1, run_id="r2", checkpoint_dir=ckpt
        ).run()
        assert calls == []
        assert kept.by_name("CS.lazy01_bad").statuses["IPB"] == (
            taxonomy.DIVERGED
        )

        # --retry-errors re-runs exactly the failed cell, which now heals.
        healed = ParallelStudyRunner(
            config, jobs=1, run_id="r2", checkpoint_dir=ckpt,
            retry_errors=True,
        ).run()
        assert calls == [("CS.lazy01_bad", "IPB")]
        assert healed.by_name("CS.lazy01_bad").statuses == {}
        assert healed.by_name("CS.lazy01_bad").found_by("IPB")


class TestGracefulInterrupt:
    def test_sigint_drains_flushes_and_resumes(self, tmp_path):
        ckpt = tmp_path / "ckpt"
        db = store_path_for(str(ckpt))

        def stored_cells():
            try:
                conn = sqlite3.connect(f"file:{db}?mode=ro", uri=True)
                try:
                    return conn.execute(
                        "SELECT COUNT(*) FROM cells WHERE run_id = 'sig'"
                    ).fetchone()[0]
                finally:
                    conn.close()
            except sqlite3.Error:  # not created yet
                return 0

        env = dict(os.environ)
        env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.study", "--quick",
                "--benchmarks", *SMALL_SET,
                "--jobs", "4", "--run-id", "sig",
                "--checkpoint-dir", str(ckpt),
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            # Wait for the store to hold at least one cell record, so
            # the signal lands mid-study with the runner active.
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                if stored_cells() >= 1:
                    break
                if proc.poll() is not None:
                    pytest.fail(
                        f"study exited early: {proc.communicate()[1]}"
                    )
                time.sleep(0.1)
            else:
                pytest.fail("no cell record was ever stored")
            proc.send_signal(signal.SIGINT)
            out, err = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0, err
        assert "draining" in err
        assert "resume with" in err
        assert "--run-id sig" in err

        # Every stored record is intact, and the run is resumable.
        config = quick_config()
        config.benchmarks = list(SMALL_SET)
        config.jobs = 2
        info, _ = stored(ckpt, "sig")
        assert info.corrupt_lines == []
        assert info.header is not None
        resumed = ParallelStudyRunner(
            config, jobs=1, run_id="sig", checkpoint_dir=str(ckpt)
        )
        assert len(resumed.run().results) == len(SMALL_SET)
