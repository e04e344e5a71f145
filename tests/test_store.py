"""The SQLite study store: crash consistency, leases, migration, errors.

Everything here runs the store backend of :mod:`repro.study.store` and
proves its durability contract — commit-per-cell recovery after
``kill -9`` at any byte boundary, single-writer leases with stale
takeover, transparent journal-v2 migration with identical resume
decisions, an explicit error when the store cannot be opened, and
read-back of runs stored by older versions.
"""

from __future__ import annotations

import json
import os
import shutil
import sqlite3
import subprocess
import sys
import time

import pytest

from repro.study import (
    ParallelStudyRunner,
    StoreLockedError,
    assemble_study,
    paper_config,
    quick_config,
    status_summary,
    taxonomy,
)
from repro.study.parallel import error_record
from repro.study.runner import run_cell
from repro.study.store import (
    StoreBackend,
    StudyStore,
    encode_journal_line,
    list_runs,
    load_run,
    read_journal,
    store_path_for,
)

BENCH = "CS.lazy01_bad"
BENCH2 = "CS.reorder_3_bad"
REPO_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
)


def small_config(limit=40, techniques=("IPB", "DFS")):
    cfg = quick_config(limit=limit)
    cfg.benchmarks = [BENCH, BENCH2]
    cfg.techniques = list(techniques)
    cfg.retry_backoff = 0.0
    return cfg


def run_store_study(tmp_path, run_id="r1", config=None, **kw):
    cfg = config or small_config()
    runner = ParallelStudyRunner(
        cfg, jobs=kw.pop("jobs", 1), run_id=run_id,
        checkpoint_dir=str(tmp_path), **kw,
    )
    return runner, runner.run()


def stored(checkpoint_dir, run_id):
    """One stored run's ``(load_cells(), events())``."""
    store = StudyStore(store_path_for(str(checkpoint_dir)), run_id)
    try:
        return store.load_cells(), store.events()
    finally:
        store.conn.close()


def corrupt_line(line: str) -> str:
    """Garble one journal line the way a torn/bit-rotted write would:
    keep it one line, break both the JSON and the CRC."""
    body = line.rstrip("\n")
    keep = max(len(body) - 7, 1)
    return body[:keep] + "\x00####"


def normalized(study):
    """``to_json`` with the wall-clock fields zeroed."""
    data = json.loads(study.to_json())
    for bench in data["benchmarks"]:
        bench["seconds"] = 0
    return json.dumps(data)


class TestStoreBasics:
    def test_run_resume_and_read_path(self, tmp_path):
        cfg = small_config()
        _, study = run_store_study(tmp_path, config=cfg)
        assert os.path.exists(store_path_for(str(tmp_path)))
        assert not os.path.exists(tmp_path / "r1.jsonl")

        # Resume: every cell already committed, nothing re-runs.
        runner2, study2 = run_store_study(tmp_path, config=small_config())
        assert runner2.executed_cells == []
        assert study2.to_json() == study.to_json()

        # The read-only path rebuilds the identical StudyResult.
        assert load_run(str(tmp_path), "r1").to_json() == study.to_json()

        runs = list_runs(str(tmp_path))
        assert [r["run_id"] for r in runs] == ["r1"]
        assert runs[0]["cells"] == 4
        assert runs[0]["closed_ts"] is not None
        assert runs[0]["lease"] is None  # released on clean close

    def test_output_identical_to_uncheckpointed_run(self, tmp_path):
        _, store_study = run_store_study(tmp_path, config=small_config())
        plain = ParallelStudyRunner(
            small_config(), jobs=1, checkpoint_dir=None
        ).run()
        assert normalized(store_study) == normalized(plain)

    def test_fingerprints_are_pinned(self):
        # Stored runs resume only under an equal fingerprint, so these
        # digests must not move when a non-result field comes or goes.
        assert quick_config().fingerprint() == "50f083ebe09171c2"
        assert paper_config().fingerprint() == "5a12bf8e7cc0f0b8"

    def test_fingerprint_mismatch_rejected(self, tmp_path):
        run_store_study(tmp_path, config=small_config())
        other = small_config(limit=41)
        with pytest.raises(ValueError, match="different"):
            ParallelStudyRunner(
                other, jobs=1, run_id="r1", checkpoint_dir=str(tmp_path)
            ).run()

    def test_attempt_history_is_kept(self, tmp_path):
        store = StudyStore(store_path_for(str(tmp_path)), "hist")
        try:
            store.acquire_lease()
            store.ensure_run(small_config())
            store.append_cell(error_record(BENCH, "IPB", "boom"))
            healed = error_record(BENCH, "IPB", "", status=taxonomy.OK)
            store.append_cell(healed)
            rows = [
                tuple(r)
                for r in store.conn.execute(
                    "SELECT attempt, status FROM cells ORDER BY id"
                )
            ]
            assert rows == [(0, taxonomy.ERROR), (1, taxonomy.OK)]
            # Both attempts persist; the last valid one wins on load.
            assert store.load_cells().completed[(BENCH, "IPB")] == healed
        finally:
            store.close()


class TestLease:
    def test_second_writer_refused(self, tmp_path):
        run_store_study(tmp_path, config=small_config())
        holder = StudyStore(store_path_for(str(tmp_path)), "r1")
        holder.acquire_lease()
        try:
            with pytest.raises(StoreLockedError, match="second concurrent"):
                ParallelStudyRunner(
                    small_config(), jobs=1, run_id="r1",
                    checkpoint_dir=str(tmp_path),
                ).run()
        finally:
            holder.close()

    def test_dead_pid_takeover(self, tmp_path):
        import socket

        run_store_study(tmp_path, config=small_config())
        store = StudyStore(store_path_for(str(tmp_path)), "r1")
        now = time.time()
        with store.conn:
            store.conn.execute(
                "INSERT OR REPLACE INTO leases VALUES (?, ?, ?, ?, ?, ?)",
                ("r1", "x:999999:00", socket.gethostname(), 999999, now, now),
            )
            store.conn.execute(
                "UPDATE runs SET closed_ts = NULL WHERE run_id = 'r1'"
            )
        store.conn.close()

        messages = []
        runner = ParallelStudyRunner(
            small_config(), jobs=1, run_id="r1",
            checkpoint_dir=str(tmp_path), progress=messages.append,
        )
        runner.run()
        assert any("unclean shutdown" in m for m in messages)
        store = StudyStore(store_path_for(str(tmp_path)), "r1")
        try:
            assert store.events("takeover")
        finally:
            store.conn.close()

    def test_stale_heartbeat_takeover_other_host(self, tmp_path):
        run_store_study(tmp_path, config=small_config())
        store = StudyStore(store_path_for(str(tmp_path)), "r1")
        old = time.time() - 3600.0
        with store.conn:
            store.conn.execute(
                "INSERT OR REPLACE INTO leases VALUES (?, ?, ?, ?, ?, ?)",
                ("r1", "elsewhere:123:00", "elsewhere", 123, old, old),
            )
        store.conn.close()
        runner, _ = run_store_study(tmp_path, config=small_config())
        assert runner.executed_cells == []  # took over, resumed cleanly

    def test_live_heartbeat_other_host_refused(self, tmp_path):
        run_store_study(tmp_path, config=small_config())
        store = StudyStore(store_path_for(str(tmp_path)), "r1")
        now = time.time()
        with store.conn:
            store.conn.execute(
                "INSERT OR REPLACE INTO leases VALUES (?, ?, ?, ?, ?, ?)",
                ("r1", "elsewhere:123:00", "elsewhere", 123, now, now),
            )
        store.conn.close()
        with pytest.raises(StoreLockedError):
            ParallelStudyRunner(
                small_config(), jobs=1, run_id="r1",
                checkpoint_dir=str(tmp_path),
            ).run()

    def test_heartbeat_refreshes_lease(self, tmp_path):
        store = StudyStore(store_path_for(str(tmp_path)), "hb")
        try:
            store.acquire_lease()
            first = store.conn.execute(
                "SELECT heartbeat_ts FROM leases WHERE run_id = 'hb'"
            ).fetchone()[0]
            store._last_heartbeat = 0.0  # bypass the throttle
            store.heartbeat()
            second = store.conn.execute(
                "SELECT heartbeat_ts FROM leases WHERE run_id = 'hb'"
            ).fetchone()[0]
            assert second >= first
        finally:
            store.close()


class TestCrashRecovery:
    """kill -9 mid-transaction and torn WAL tails."""

    STUDY_PROG = (
        "import sys\n"
        "from repro.study import ParallelStudyRunner, quick_config\n"
        "cfg = quick_config(limit=40)\n"
        f"cfg.benchmarks = ['{BENCH2}', '{BENCH}']\n"
        "cfg.techniques = ['IPB', 'DFS']\n"
        "cfg.retry_backoff = 0.0\n"
        "ParallelStudyRunner(cfg, jobs=1, run_id='kill', "
        "checkpoint_dir=sys.argv[1]).run()\n"
        "print('COMPLETED')\n"
    )

    def test_store_kill_recovers_to_last_committed_cell(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = REPO_SRC
        env["REPRO_STUDY_FAULTS"] = json.dumps(
            [{"cell": f"{BENCH}/IPB", "kind": "store-kill"}]
        )
        proc = subprocess.run(
            [sys.executable, "-c", self.STUDY_PROG, str(tmp_path)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == -9, proc.stderr

        store = StudyStore(store_path_for(str(tmp_path)), "kill")
        try:
            info = store.load_cells()
            # The torn transaction never became visible; everything
            # committed before it survived.
            assert (BENCH, "IPB") not in info.completed
            assert (BENCH2, "IPB") in info.completed
            assert info.corrupt_lines == []
        finally:
            store.conn.close()

        env.pop("REPRO_STUDY_FAULTS")
        proc2 = subprocess.run(
            [sys.executable, "-c", self.STUDY_PROG, str(tmp_path)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc2.returncode == 0 and "COMPLETED" in proc2.stdout
        store = StudyStore(store_path_for(str(tmp_path)), "kill")
        try:
            assert len(store.load_cells().completed) == 4
            assert store.events("takeover")  # unclean death attributed
        finally:
            store.conn.close()

    def test_torn_wal_tail_recovers_to_committed_prefix(self, tmp_path):
        """Truncate the WAL at every byte of the last committed record's
        frames: recovery must always land on a committed prefix —
        either all three cells or the first two — never raise, never
        surface a torn record."""
        workdir = tmp_path / "w"
        workdir.mkdir()
        path = store_path_for(str(workdir))
        store = StudyStore(path, "torn")
        cfg = small_config()
        store.acquire_lease()
        store.ensure_run(cfg)
        recs = [
            error_record(BENCH, t, "x", status=taxonomy.ERROR)
            for t in ("A", "B", "C")
        ]
        store.append_cell(recs[0])
        store.append_cell(recs[1])
        wal = path + "-wal"
        size_before = os.path.getsize(wal)
        store.append_cell(recs[2])
        size_after = os.path.getsize(wal)
        # Leave the store open (unclean): the WAL is the only copy of
        # the appended cells, exactly the kill -9 shape.
        assert size_after > size_before

        seen = set()
        scratch = tmp_path / "scratch"
        for cut in range(size_before, size_after + 1):
            if scratch.exists():
                shutil.rmtree(scratch)
            scratch.mkdir()
            shutil.copy(path, scratch / "study.sqlite")
            shutil.copy(wal, scratch / "study.sqlite-wal")
            with open(scratch / "study.sqlite-wal", "r+b") as fh:
                fh.truncate(cut)
            recovered = StudyStore(str(scratch / "study.sqlite"), "torn")
            try:
                completed = recovered.load_cells().completed
            finally:
                recovered.conn.close()
            keys = frozenset(k[1] for k in completed)
            assert keys in ({"A", "B"}, {"A", "B", "C"}), (cut, keys)
            seen.add(len(keys))
        assert seen == {2, 3}  # both recovery points actually exercised
        store.conn.close()


def _stats_payload():
    """A real ExplorationStats payload (tiny exploration)."""
    rec = run_cell(BENCH, "IPB", small_config(limit=5, techniques=["IPB"]))
    return rec


class TestJournalMigration:
    """Round-trip a realistic multi-attempt v2 journal into the store."""

    def build_journal(self, path, cfg):
        ok = _stats_payload()
        lines = [
            encode_journal_line(
                {
                    "kind": "header",
                    "version": 2,
                    "run_id": "mig",
                    "fingerprint": cfg.fingerprint(),
                    "ts": 1.0,
                }
            ),
            # attempt 0 failed, attempt 1 healed: last record wins
            encode_journal_line(
                error_record(BENCH, "IPB", "boom", status=taxonomy.ERROR)
            ),
            encode_journal_line(ok),
            # a quarantined cell (retryable on --retry-errors)
            encode_journal_line(
                error_record(
                    BENCH2, "IPB", "crashed twice",
                    status=taxonomy.QUARANTINED,
                )
            ),
            # a corrupt line anywhere in the file: skipped by both readers
            corrupt_line(
                encode_journal_line(
                    error_record(BENCH2, "DFS", "torn", status=taxonomy.OK)
                )
            ),
            # a supervision record (not a cell)
            encode_journal_line(
                {
                    "kind": "supervision",
                    "ts": 2.0,
                    "degradation": [{"action": "disable-snapshots"}],
                    "reaped_orphans": 1,
                    "tree_kills": 0,
                }
            ),
        ]
        path.write_text("\n".join(lines) + "\n")

    def test_migration_matches_journal_reader(self, tmp_path):
        cfg = small_config()
        journal = tmp_path / "mig.jsonl"
        self.build_journal(journal, cfg)

        info_j = read_journal(str(journal), cfg)
        assert len(info_j.corrupt_lines) == 1

        backend = StoreBackend(cfg, "mig", str(tmp_path))
        backend.open()
        try:
            completed_s = backend.load()
        finally:
            backend.close()
        assert completed_s == info_j.completed

        # Resume decisions: same pending/retryable sets either way.
        def decisions(completed):
            retryable = {
                key
                for key, rec in completed.items()
                if taxonomy.is_retryable(taxonomy.status_of(rec))
            }
            return (set(completed), retryable)

        assert decisions(completed_s) == decisions(info_j.completed)
        assert decisions(completed_s)[1] == {(BENCH2, "IPB")}

        # status_summary over the assembled studies is identical.
        study_j = assemble_study(cfg, info_j.completed)
        study_s = assemble_study(cfg, completed_s)
        assert status_summary(study_s) == status_summary(study_j)
        assert study_s.to_json() == study_j.to_json()

        # Attempt history and the supervision event were preserved.
        store = StudyStore(store_path_for(str(tmp_path)), "mig")
        try:
            n = store.conn.execute(
                "SELECT COUNT(*) FROM cells WHERE bench = ? "
                "AND technique = 'IPB'",
                (BENCH,),
            ).fetchone()[0]
            assert n == 2  # both attempts imported, last wins on read
            assert store.events("supervision")[0]["reaped_orphans"] == 1
            row = store.run_row()
            assert row["imported_from"] == str(journal)
        finally:
            store.conn.close()

    def test_migration_rejects_fingerprint_mismatch(self, tmp_path):
        cfg = small_config()
        journal = tmp_path / "mig.jsonl"
        self.build_journal(journal, cfg)
        other = small_config(limit=41)
        backend = StoreBackend(other, "mig", str(tmp_path))
        with pytest.raises(ValueError, match="different"):
            backend.open()

    def test_resume_after_migration_runs_nothing_new(self, tmp_path):
        """An interrupted journal run resumes under the store: only the
        cells missing from the journal execute."""
        cfg = small_config()
        header = {
            "kind": "header",
            "version": 2,
            "run_id": "part",
            "fingerprint": cfg.fingerprint(),
            "ts": 1.0,
        }
        (tmp_path / "part.jsonl").write_text(
            encode_journal_line(header) + "\n"
            + encode_journal_line(_stats_payload()) + "\n"
        )

        messages = []
        runner = ParallelStudyRunner(
            small_config(), jobs=1, run_id="part",
            checkpoint_dir=str(tmp_path), progress=messages.append,
        )
        runner.run()
        assert (BENCH, "IPB") not in runner.executed_cells
        assert len(runner.executed_cells) == 3
        assert any("migrated journal" in m for m in messages)


class TestDegradation:
    def test_corrupt_store_file_is_an_explicit_error(self, tmp_path, capsys):
        path = store_path_for(str(tmp_path))
        with open(path, "wb") as fh:
            fh.write(b"this is not a database\x00" * 64)
        with pytest.raises(ValueError, match="cannot open study store"):
            ParallelStudyRunner(
                small_config(), jobs=1, run_id="fb",
                checkpoint_dir=str(tmp_path),
            ).run()

        from repro.study.__main__ import main

        code = main([
            "--quick", "--quiet", "--benchmarks", BENCH, "--run-id", "fb",
            "--checkpoint-dir", str(tmp_path),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert path in err
        assert "move or delete" in err and "--checkpoint-dir" in err
        assert not [n for n in os.listdir(tmp_path) if n.endswith(".jsonl")]

    def test_corrupt_digest_row_reruns_only_that_cell(
        self, tmp_path, monkeypatch
    ):
        # Env-injected so the fault stays out of the fingerprint.
        monkeypatch.setenv(
            "REPRO_STUDY_FAULTS",
            json.dumps([{"cell": f"{BENCH}/DFS", "kind": "corrupt-journal"}]),
        )
        run_store_study(tmp_path, config=small_config())
        monkeypatch.delenv("REPRO_STUDY_FAULTS")

        clean = small_config()
        messages = []
        runner = ParallelStudyRunner(
            clean, jobs=1, run_id="r1", checkpoint_dir=str(tmp_path),
            progress=messages.append,
        )
        runner.run()
        assert runner.executed_cells == [(BENCH, "DFS")]
        assert any("corrupted cell record" in m for m in messages)

    def test_failed_append_keeps_run_alive(self, tmp_path, monkeypatch):
        cfg = small_config(techniques=["IPB"])
        runner = ParallelStudyRunner(
            cfg, jobs=1, run_id="da", checkpoint_dir=str(tmp_path),
        )
        backend = runner._open_backend()
        try:
            monkeypatch.setattr(
                backend.store,
                "append_cell",
                lambda *a, **k: (_ for _ in ()).throw(
                    sqlite3.OperationalError("database or disk is full")
                ),
            )
            backend.append(_stats_payload())
            assert backend.lost_appends == [(BENCH, "IPB")]
        finally:
            monkeypatch.undo()
            backend.close()


class TestCLI:
    def test_list_runs_and_report_run(self, tmp_path, capsys):
        run_store_study(tmp_path, config=small_config())
        from repro.study.__main__ import main

        assert main(["--list-runs", "--checkpoint-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "r1: 4 cell record(s)" in out

        assert (
            main(["--report-run", "r1", "--checkpoint-dir", str(tmp_path)])
            == 0
        )
        out = capsys.readouterr().out
        assert "Study report" in out

        assert (
            main(["--report-run", "nope", "--checkpoint-dir", str(tmp_path)])
            == 2
        )

    def test_report_run_skips_a_garbled_supervision_row(self, tmp_path, capsys):
        cfg = small_config(techniques=["IPB"])
        cfg.benchmarks = [BENCH]
        run_store_study(tmp_path, config=cfg)
        summary = {
            "degradation": [{"action": "disable-snapshots"}],
            "reaped_orphans": 1,
            "tree_kills": 0,
        }
        store = StudyStore(store_path_for(str(tmp_path)), "r1")
        try:
            store.append_event(dict(summary, kind="supervision", ts=1.0))
            with store.conn:  # a newer row whose record text is not JSON
                store.conn.execute(
                    "INSERT INTO events (run_id, kind, ts, record, crc) "
                    "VALUES ('r1', 'supervision', 2.0, '{not json', '0')"
                )
        finally:
            store.conn.close()

        assert load_run(str(tmp_path), "r1").supervision == summary
        from repro.study.__main__ import main

        assert (
            main(["--report-run", "r1", "--checkpoint-dir", str(tmp_path)])
            == 0
        )
        assert "Study report" in capsys.readouterr().out

    def test_run_stored_with_a_removed_config_field_still_reports(
        self, tmp_path, capsys
    ):
        _, study = run_store_study(tmp_path, config=small_config())
        conn = sqlite3.connect(store_path_for(str(tmp_path)))
        with conn:  # rows written before the ``store`` field was removed
            (text,) = conn.execute(
                "SELECT config_json FROM runs WHERE run_id = 'r1'"
            ).fetchone()
            legacy = dict(json.loads(text), store=True)
            conn.execute(
                "UPDATE runs SET config_json = ? WHERE run_id = 'r1'",
                (json.dumps(legacy, sort_keys=True),),
            )
        conn.close()

        assert load_run(str(tmp_path), "r1").to_json() == study.to_json()
        from repro.study.__main__ import main

        assert (
            main(["--report-run", "r1", "--checkpoint-dir", str(tmp_path)])
            == 0
        )
        assert "Study report" in capsys.readouterr().out
        # ...and it still resumes: same fingerprint, nothing re-runs.
        runner, _ = run_store_study(tmp_path, config=small_config())
        assert runner.executed_cells == []
