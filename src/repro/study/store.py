"""Crash-consistent study store: the SQLite (WAL) checkpoint backend.

One ``study.sqlite`` per checkpoint directory holds every run the
directory has seen — runs, per-cell attempt history, supervision events,
and the final stats payloads (inside each cell record) — and is the
single source of truth for checkpoint/resume, ``--retry-errors``,
reporting, and ``raw.json``-style exports.  Runs checkpointed by older
versions as a v2 JSONL journal (``<run-id>.jsonl``) are read-only now:
resuming a run that only has a journal file migrates it into the store
on open (:meth:`StudyStore.import_journal` over :func:`read_journal`).

Integrity story (carried forward from the journal):

* the ``runs`` row binds a run to its :meth:`StudyConfig.fingerprint`,
  so a resume under a different configuration is rejected, exactly like
  the journal header check;
* every cell/event row stores the record's canonical JSON next to a
  CRC32 of it — the same digest scheme as journal v2 — so a corrupted
  row (bit rot, injected garbage) is detected and skipped on read and
  that cell simply re-runs.

Crash consistency: the store runs in WAL mode with ``synchronous=FULL``
and commits once per cell record.  ``kill -9`` at any byte boundary —
including mid-transaction, which the ``store-kill`` fault injects
deterministically — recovers to the last *committed* cell: SQLite
replays the WAL up to the last commit frame and discards the torn tail.
A run row without ``closed_ts`` plus a stale lease is the attribution:
the previous writer died unclean, and the takeover is logged (progress
line + an ``events`` row).

Single-writer lease: one ``leases`` row per run, refreshed by a
heartbeat from the run loop.  A second ``--resume`` against a live run
raises :class:`StoreLockedError` instead of corrupting it; a lease whose
owner pid is provably dead (same host) or whose heartbeat is older than
the TTL is taken over safely.

A store that cannot be opened (readonly filesystem, corrupt database
file, disk full) is an explicit error naming the file and the fix — see
:func:`open_backend`.  A failed *append* (disk filled up mid-run) keeps
the run alive; the record is retained in memory only and a warning names
the cells that will re-run on resume.
"""

from __future__ import annotations

import json
import os
import socket
import sqlite3
import time
import zlib
from dataclasses import asdict, fields
from typing import Dict, List, Optional, Tuple

from . import taxonomy
from .config import StudyConfig

CellKey = Tuple[str, str]  # (benchmark name, technique)

CHECKPOINT_VERSION = 2

#: The store's own schema version (``meta`` table).
STORE_VERSION = 1

#: Filename of the store inside a checkpoint directory.
STORE_FILENAME = "study.sqlite"

#: A lease whose heartbeat is older than this many seconds may be taken
#: over even when its owner pid cannot be probed (other host, pid
#: recycled).  Same-host dead pids are taken over immediately.
LEASE_TTL_SECONDS = 60.0

#: Minimum seconds between heartbeat writes (the run loop may call
#: :meth:`StoreBackend.heartbeat` far more often; writes are throttled).
HEARTBEAT_SECONDS = 5.0


class StoreLockedError(ValueError):
    """Another live writer holds this run's lease; resume refused."""


# -- journal v2 codec -------------------------------------------------------
#
# The line format predates the store (journal v2); the store reuses the
# exact canonical-JSON + CRC32 digest for its rows, so the migration is a
# byte-exact re-verification.

def record_digest(record: dict) -> str:
    """CRC32 (hex) of a record's canonical JSON, ``crc`` field excluded."""
    body = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return format(zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF, "08x")


def encode_journal_line(record: dict) -> str:
    """One v2 journal line: the record JSON with a ``crc`` field holding
    the CRC32 (hex) of the record serialized *without* it.

    Serialization is canonical (sorted keys, compact separators) on both
    the write and the verify side, so the check is byte-exact.
    """
    rec = dict(record)
    rec["crc"] = record_digest(record)
    return json.dumps(rec, sort_keys=True, separators=(",", ":"))


def decode_journal_line(line: str) -> Optional[dict]:
    """Parse and verify one journal line; ``None`` for any corruption.

    v1 lines carry no ``crc`` and are accepted as-is (read-compat); v2
    lines must round-trip their CRC exactly.
    """
    try:
        rec = json.loads(line)
    except json.JSONDecodeError:
        return None
    if not isinstance(rec, dict):
        return None
    crc = rec.pop("crc", None)
    if crc is not None and crc != record_digest(rec):
        return None
    return rec


class JournalInfo:
    """Everything one checkpoint read learned (see :func:`read_journal`
    and :meth:`StudyStore.load_cells`)."""

    __slots__ = ("completed", "header", "corrupt_lines", "version", "records")

    def __init__(self) -> None:
        #: Last record per cell key (a retried cell's newest record wins).
        self.completed: Dict[CellKey, dict] = {}
        self.header: Optional[dict] = None
        #: Journal: 1-based line numbers that failed to parse or their
        #: CRC.  Store: ids of the rows that failed their digest.
        self.corrupt_lines: List[int] = []
        self.version: Optional[int] = None
        #: Journal only: every valid non-header record in file order —
        #: the full attempt history plus supervision records.
        self.records: List[dict] = []


def _fingerprint_mismatch(what: str, theirs, ours) -> ValueError:
    return ValueError(
        f"checkpoint {what} was produced under a different study "
        f"configuration (fingerprint {theirs} != {ours}); use a new "
        "--run-id or delete it"
    )


def read_journal(path: str, config: Optional[StudyConfig] = None) -> JournalInfo:
    """Read a v1/v2 checkpoint journal, skipping corrupted lines anywhere.

    The one journal parser: journals are no longer written, only migrated
    into the store (:meth:`StudyStore.import_journal`).  Raises
    ``ValueError`` when the journal belongs to a run with a
    different configuration fingerprint (pass ``config=None`` to skip the
    check), or when cell records exist but the header line is unreadable
    — the fingerprint can then not be verified, so resuming would risk
    mixing configurations.
    """
    info = JournalInfo()
    if not os.path.exists(path):
        return info
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            rec = decode_journal_line(line)
            if rec is None:
                info.corrupt_lines.append(lineno)
                continue
            kind = rec.get("kind")
            if kind == "header":
                info.header = rec
                info.version = rec.get("version")
                if config is not None:
                    theirs = rec.get("fingerprint")
                    ours = config.fingerprint()
                    if theirs != ours:
                        raise _fingerprint_mismatch(path, theirs, ours)
            else:
                info.records.append(rec)
                if kind == "cell":
                    info.completed[(rec["bench"], rec["technique"])] = rec
    if info.completed and info.header is None:
        raise ValueError(
            f"checkpoint {path} has cell records but no readable header "
            "line — its configuration fingerprint cannot be verified; "
            "use a new --run-id or delete the file"
        )
    return info


# -- the SQLite store -------------------------------------------------------

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS runs (
    run_id        TEXT PRIMARY KEY,
    fingerprint   TEXT NOT NULL,
    version       INTEGER NOT NULL,
    created_ts    REAL NOT NULL,
    closed_ts     REAL,
    config_json   TEXT,
    imported_from TEXT
);
CREATE TABLE IF NOT EXISTS cells (
    id        INTEGER PRIMARY KEY,
    run_id    TEXT NOT NULL,
    bench     TEXT NOT NULL,
    technique TEXT NOT NULL,
    attempt   INTEGER NOT NULL,
    status    TEXT NOT NULL,
    ts        REAL,
    record    TEXT NOT NULL,
    crc       TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS cells_by_cell
    ON cells (run_id, bench, technique, id);
CREATE INDEX IF NOT EXISTS cells_by_status
    ON cells (run_id, status);
CREATE TABLE IF NOT EXISTS events (
    id     INTEGER PRIMARY KEY,
    run_id TEXT NOT NULL,
    kind   TEXT NOT NULL,
    ts     REAL,
    record TEXT NOT NULL,
    crc    TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS events_by_run ON events (run_id, kind, id);
CREATE TABLE IF NOT EXISTS leases (
    run_id       TEXT PRIMARY KEY,
    owner        TEXT NOT NULL,
    host         TEXT NOT NULL,
    pid          INTEGER NOT NULL,
    acquired_ts  REAL NOT NULL,
    heartbeat_ts REAL NOT NULL
);
"""


def store_path_for(checkpoint_dir: str) -> str:
    return os.path.join(checkpoint_dir, STORE_FILENAME)


def _connect(path: str) -> sqlite3.Connection:
    conn = sqlite3.connect(path, timeout=10.0)
    conn.execute("PRAGMA journal_mode=WAL")
    # FULL: every commit frame is fsynced before COMMIT returns — the
    # per-cell commit is durable against kill -9 and power loss, which
    # is the whole point of commit-per-record.
    conn.execute("PRAGMA synchronous=FULL")
    conn.execute("PRAGMA foreign_keys=ON")
    return conn


def _pid_alive(pid: int) -> Optional[bool]:
    """Best-effort liveness probe; ``None`` when it cannot be determined."""
    if pid <= 0:
        return None
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True  # exists, owned by someone else
    except OSError:
        return None
    return True


def _verified(text: str, crc: str) -> Optional[dict]:
    """A stored row's record, or ``None`` when its text fails to parse or
    to match its digest (bit rot, injected garbage)."""
    try:
        rec = json.loads(text)
    except json.JSONDecodeError:
        return None
    if not isinstance(rec, dict) or record_digest(rec) != crc:
        return None
    return rec


def _read_cells(conn: sqlite3.Connection, run_id: str) -> JournalInfo:
    """The run's cells: last *valid* record per cell wins, corrupted rows
    are skipped and counted (those cells re-run)."""
    info = JournalInfo()
    for rowid, text, crc in conn.execute(
        "SELECT id, record, crc FROM cells WHERE run_id = ? ORDER BY id",
        (run_id,),
    ):
        rec = _verified(text, crc)
        if rec is None:
            info.corrupt_lines.append(rowid)
        else:
            info.completed[(rec["bench"], rec["technique"])] = rec
    return info


def _read_events(
    conn: sqlite3.Connection, run_id: str, kind: Optional[str] = None
) -> List[dict]:
    """The run's valid event records (corrupted rows skipped), oldest first."""
    query = "SELECT record, crc FROM events WHERE run_id = ?"
    params: tuple = (run_id,)
    if kind is not None:
        query += " AND kind = ?"
        params += (kind,)
    rows = conn.execute(query + " ORDER BY id", params)
    return [rec for rec in (_verified(t, c) for t, c in rows) if rec is not None]


class StudyStore:
    """One open store file, scoped to one run (see module docstring).

    Writer methods require :meth:`acquire_lease` to have succeeded; the
    read-only module helpers (:func:`list_runs`, :func:`load_run`) never
    take a lease.
    """

    def __init__(self, path: str, run_id: str) -> None:
        self.path = path
        self.run_id = run_id
        self.conn = _connect(path)
        with self.conn:  # one transaction; idempotent
            self.conn.executescript(_SCHEMA)
            self.conn.execute(
                "INSERT OR IGNORE INTO meta (key, value) VALUES (?, ?)",
                ("store_version", str(STORE_VERSION)),
            )
        self._owner: Optional[str] = None
        self._last_heartbeat = 0.0

    def close(self) -> None:
        if self.conn is None:
            return
        try:
            if self._owner is not None:
                with self.conn:
                    self.conn.execute(
                        "UPDATE runs SET closed_ts = ? WHERE run_id = ?",
                        (round(time.time(), 3), self.run_id),
                    )
                    self.conn.execute(
                        "DELETE FROM leases WHERE run_id = ? AND owner = ?",
                        (self.run_id, self._owner),
                    )
                self._owner = None
            # Fold the WAL back into the main file on clean close so a
            # copied/archived store is one self-contained file.
            self.conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")
        except sqlite3.Error:
            pass  # closing best-effort; the committed data is safe
        finally:
            self.conn.close()
            self.conn = None

    # -- runs ---------------------------------------------------------------

    def run_row(self) -> Optional[sqlite3.Row]:
        self.conn.row_factory = sqlite3.Row
        cur = self.conn.execute(
            "SELECT * FROM runs WHERE run_id = ?", (self.run_id,)
        )
        return cur.fetchone()

    def ensure_run(self, config: StudyConfig) -> None:
        """Create the run row, or verify its fingerprint on resume."""
        ours = config.fingerprint()
        row = self.run_row()
        if row is None:
            with self.conn:
                self.conn.execute(
                    "INSERT INTO runs (run_id, fingerprint, version, "
                    "created_ts, config_json) VALUES (?, ?, ?, ?, ?)",
                    (
                        self.run_id,
                        ours,
                        CHECKPOINT_VERSION,
                        round(time.time(), 3),
                        json.dumps(asdict(config), sort_keys=True),
                    ),
                )
            return
        theirs = row["fingerprint"]
        if theirs != ours:
            raise _fingerprint_mismatch(
                f"run {self.run_id!r} in {self.path}", theirs, ours
            )

    # -- lease --------------------------------------------------------------

    def acquire_lease(
        self,
        ttl: float = LEASE_TTL_SECONDS,
        log=None,
    ) -> None:
        """Become this run's single writer, or raise :class:`StoreLockedError`.

        Takeover is allowed when the current owner is provably dead
        (same host, pid gone) or its heartbeat is older than ``ttl``.
        An unclean previous shutdown (stale lease and/or a run row with
        no ``closed_ts``) is attributed in the log and an ``events`` row.
        """
        now = time.time()
        me = f"{socket.gethostname()}:{os.getpid()}:{os.urandom(4).hex()}"
        with self.conn:
            self.conn.execute("BEGIN IMMEDIATE").close()
            self.conn.row_factory = sqlite3.Row
            row = self.conn.execute(
                "SELECT * FROM leases WHERE run_id = ?", (self.run_id,)
            ).fetchone()
            takeover = None
            if row is not None:
                age = now - row["heartbeat_ts"]
                alive = (
                    _pid_alive(row["pid"])
                    if row["host"] == socket.gethostname()
                    else None
                )
                if alive is False:
                    takeover = (
                        f"previous writer pid {row['pid']} is dead "
                        f"(last heartbeat {age:.1f}s ago)"
                    )
                elif age > ttl and alive is not True:
                    takeover = (
                        f"lease of {row['owner']} is stale "
                        f"(last heartbeat {age:.1f}s ago > TTL {ttl:g}s)"
                    )
                else:
                    raise StoreLockedError(
                        f"run {self.run_id!r} in {self.path} is being "
                        f"written by {row['owner']} (heartbeat {age:.1f}s "
                        "ago); a second concurrent writer would corrupt "
                        "it — wait for that run or use a new --run-id"
                    )
            self.conn.execute(
                "INSERT OR REPLACE INTO leases "
                "(run_id, owner, host, pid, acquired_ts, heartbeat_ts) "
                "VALUES (?, ?, ?, ?, ?, ?)",
                (self.run_id, me, socket.gethostname(), os.getpid(), now, now),
            )
            self._owner = me
            run = self.conn.execute(
                "SELECT closed_ts FROM runs WHERE run_id = ?", (self.run_id,)
            ).fetchone()
            unclean = run is not None and run["closed_ts"] is None
            if run is not None:
                self.conn.execute(
                    "UPDATE runs SET closed_ts = NULL WHERE run_id = ?",
                    (self.run_id,),
                )
            if takeover or unclean:
                n = self.conn.execute(
                    "SELECT COUNT(*) FROM cells WHERE run_id = ?",
                    (self.run_id,),
                ).fetchone()[0]
                detail = takeover or "run was never closed cleanly"
                message = (
                    f"recovering run {self.run_id!r} from unclean "
                    f"shutdown: {detail}; resuming from {n} committed "
                    "cell record(s)"
                )
                self._insert_event(
                    {"kind": "takeover", "detail": detail, "ts": round(now, 3)}
                )
                if log:
                    log(message)
        self._last_heartbeat = time.monotonic()

    def heartbeat(self) -> None:
        """Refresh the lease (throttled to :data:`HEARTBEAT_SECONDS`)."""
        if self._owner is None:
            return
        now = time.monotonic()
        if now - self._last_heartbeat < HEARTBEAT_SECONDS:
            return
        try:
            with self.conn:
                self.conn.execute(
                    "UPDATE leases SET heartbeat_ts = ? "
                    "WHERE run_id = ? AND owner = ?",
                    (time.time(), self.run_id, self._owner),
                )
            self._last_heartbeat = now
        except sqlite3.OperationalError:
            pass  # a missed heartbeat is recoverable; the next one retries

    # -- writes -------------------------------------------------------------

    def _insert_cell(self, record: dict, crc: Optional[str] = None) -> None:
        """Insert one cell record inside the caller's open transaction."""
        attempt = self.conn.execute(
            "SELECT COUNT(*) FROM cells WHERE run_id = ? AND bench = ? "
            "AND technique = ?",
            (self.run_id, record["bench"], record["technique"]),
        ).fetchone()[0]
        self.conn.execute(
            "INSERT INTO cells (run_id, bench, technique, attempt, status, "
            "ts, record, crc) VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
            (
                self.run_id,
                record["bench"],
                record["technique"],
                attempt,
                taxonomy.status_of(record),
                record.get("ts"),
                json.dumps(record, sort_keys=True, separators=(",", ":")),
                crc if crc is not None else record_digest(record),
            ),
        )

    def append_cell(
        self, record: dict, corrupt: bool = False, kill: bool = False
    ) -> None:
        """Commit one cell record (one durable transaction).

        ``corrupt`` stores a garbled digest (the ``corrupt-journal``
        fault: the row is detected and skipped on read, the cell
        re-runs).  ``kill`` SIGKILLs this process *after* the INSERT but
        *before* the COMMIT (the ``store-kill`` fault: the record must
        NOT survive — recovery lands on the previous committed cell).
        """
        crc = "deadbeef" if corrupt else None
        with self.conn:
            self.conn.execute("BEGIN IMMEDIATE").close()
            self._insert_cell(record, crc)
            if kill:  # pragma: no cover - exercised via subprocess drills
                os.kill(os.getpid(), 9)

    def _insert_event(self, record: dict) -> None:
        self.conn.execute(
            "INSERT INTO events (run_id, kind, ts, record, crc) "
            "VALUES (?, ?, ?, ?, ?)",
            (
                self.run_id,
                record.get("kind", "event"),
                record.get("ts"),
                json.dumps(record, sort_keys=True, separators=(",", ":")),
                record_digest(record),
            ),
        )

    def append_event(self, record: dict) -> None:
        with self.conn:
            self._insert_event(record)

    # -- reads --------------------------------------------------------------

    def load_cells(self) -> JournalInfo:
        """Completed cells of this run, journal-reader semantics: last
        *valid* record per cell wins, corrupted rows are skipped and
        counted (those cells re-run)."""
        row = self.run_row()
        info = _read_cells(self.conn, self.run_id)
        if row is not None:
            info.header = {
                "kind": "header",
                "version": row["version"],
                "run_id": row["run_id"],
                "fingerprint": row["fingerprint"],
            }
            info.version = row["version"]
        return info

    def events(self, kind: Optional[str] = None) -> List[dict]:
        return _read_events(self.conn, self.run_id, kind)

    # -- journal import -----------------------------------------------------

    def import_journal(self, journal_path: str, config: StudyConfig) -> int:
        """Migrate a v1/v2 JSONL journal into the store (one transaction).

        Called when the store has no row for this run but a journal file
        exists: every valid cell record is imported *in file order* (the
        full attempt history, so last-wins reads agree with
        :func:`read_journal`), supervision records land in ``events``, and
        corrupt lines are skipped.  The journal file is left untouched
        (the run row remembers it in ``imported_from``; a later resume
        won't re-import).

        Returns the number of cell records imported.  Raises
        :func:`read_journal`'s ``ValueError`` for a fingerprint mismatch
        or an unverifiable header.
        """
        info = read_journal(journal_path, config)
        header = info.header or {}
        cells = 0
        with self.conn:
            self.conn.execute("BEGIN IMMEDIATE").close()
            self.conn.execute(
                "INSERT INTO runs (run_id, fingerprint, version, created_ts, "
                "config_json, imported_from) VALUES (?, ?, ?, ?, ?, ?)",
                (
                    self.run_id,
                    header.get("fingerprint", config.fingerprint()),
                    header.get("version", CHECKPOINT_VERSION),
                    header.get("ts", round(time.time(), 3)),
                    json.dumps(asdict(config), sort_keys=True),
                    journal_path,
                ),
            )
            for rec in info.records:
                if rec.get("kind") == "cell":
                    self._insert_cell(rec)
                    cells += 1
                else:
                    self._insert_event(rec)
        return cells


# -- checkpoint backends ----------------------------------------------------


class StoreBackend:
    """The SQLite store as a run's checkpoint backend."""

    def __init__(
        self,
        config: StudyConfig,
        run_id: str,
        checkpoint_dir: str,
        fault_plan=None,
        log=None,
    ) -> None:
        self.config = config
        self.run_id = run_id
        self.checkpoint_dir = checkpoint_dir
        self.path = store_path_for(checkpoint_dir)
        self._fault_plan = fault_plan
        self._log = log
        self.store: Optional[StudyStore] = None
        #: Cells whose append failed (disk full mid-run); they re-run on
        #: resume, which "recovers to the last committed cell".
        self.lost_appends: List[CellKey] = []

    def open(self) -> None:
        """Open + lease + (maybe) migrate.  Raises ``StoreLockedError``
        on a live concurrent writer, ``ValueError`` on a fingerprint
        mismatch — and lets ``sqlite3.Error``/``OSError`` escape for
        :func:`open_backend` to explain."""
        os.makedirs(self.checkpoint_dir, exist_ok=True)
        self.store = StudyStore(self.path, self.run_id)
        try:
            self.store.acquire_lease(log=self._log)
            journal = os.path.join(
                self.checkpoint_dir, f"{self.run_id}.jsonl"
            )
            if self.store.run_row() is None and os.path.exists(journal):
                n = self.store.import_journal(journal, self.config)
                if self._log:
                    self._log(
                        f"migrated journal {journal} into the store "
                        f"({n} cell record(s)); the journal file is kept "
                        "but no longer written"
                    )
            self.store.ensure_run(self.config)
        except Exception:
            store, self.store = self.store, None
            if store is not None:
                try:
                    store.conn.close()
                except Exception:
                    pass
            raise

    def load(self) -> Dict[CellKey, dict]:
        info = self.store.load_cells()
        if info.corrupt_lines and self._log:
            self._log(
                f"store: {len(info.corrupt_lines)} corrupted cell "
                f"record(s) in run {self.run_id!r} ignored (rows "
                f"{info.corrupt_lines}); those cells will re-run"
            )
        return info.completed

    def append(self, record: dict) -> None:
        key = (record["bench"], record["technique"])
        corrupt = bool(
            self._fault_plan
            and self._fault_plan.corrupts_journal(*key)
        )
        kill = bool(
            self._fault_plan and self._fault_plan.kills_store(*key)
        )
        try:
            self.store.append_cell(record, corrupt=corrupt, kill=kill)
        except sqlite3.Error as exc:
            # Disk full / I/O error mid-run: keep the study alive.  The
            # record lives only in memory now; resume re-runs the cell.
            self.lost_appends.append(key)
            if self._log:
                self._log(
                    f"store append failed for {key[0]}/{key[1]} ({exc}); "
                    "record kept in memory only — this cell re-runs on "
                    "resume"
                )

    def append_supervision(self, summary: dict) -> None:
        rec = dict(summary)
        rec["kind"] = "supervision"
        rec["ts"] = round(time.time(), 3)
        try:
            self.store.append_event(rec)
        except sqlite3.Error:
            pass

    def heartbeat(self) -> None:
        self.store.heartbeat()

    def close(self) -> None:
        if self.store is not None:
            self.store.close()
            self.store = None


def open_backend(
    config: StudyConfig,
    run_id: str,
    checkpoint_dir: Optional[str],
    fault_plan=None,
    log=None,
) -> Optional[StoreBackend]:
    """The run's store backend, opened with its lease held and ready to
    append — ``None`` when checkpointing is disabled.

    A store that cannot be opened (readonly directory, corrupt database
    file, disk full) raises ``ValueError`` naming the file and the fix;
    so do lease refusal (:class:`StoreLockedError`) and fingerprint
    mismatches, because proceeding would corrupt or mix a real run.
    """
    if checkpoint_dir is None:
        return None
    backend = StoreBackend(
        config, run_id, checkpoint_dir, fault_plan=fault_plan, log=log
    )
    try:
        backend.open()
    except (sqlite3.Error, OSError) as exc:
        raise ValueError(
            f"cannot open study store {backend.path} ({exc}); move or "
            "delete that file, or pick another --checkpoint-dir"
        ) from exc
    return backend


# -- read-only helpers (reporting / CLI) ------------------------------------


def list_runs(checkpoint_dir: str) -> List[dict]:
    """Every run in the directory's store with indexed status counts."""
    path = store_path_for(checkpoint_dir)
    if not os.path.exists(path):
        return []
    conn = sqlite3.connect(f"file:{path}?mode=ro", uri=True, timeout=10.0)
    try:
        conn.row_factory = sqlite3.Row
        out = []
        for row in conn.execute(
            "SELECT run_id, fingerprint, version, created_ts, closed_ts, "
            "imported_from FROM runs ORDER BY created_ts"
        ):
            # Status counts over the *latest* attempt per cell (the
            # record that wins on resume), straight off cells_by_cell.
            statuses: Dict[str, int] = {}
            for status, n in conn.execute(
                "SELECT status, COUNT(*) FROM cells c "
                "WHERE run_id = ? AND id = (SELECT MAX(id) FROM cells "
                "WHERE run_id = c.run_id AND bench = c.bench "
                "AND technique = c.technique) GROUP BY status",
                (row["run_id"],),
            ):
                statuses[status] = n
            lease = conn.execute(
                "SELECT owner, heartbeat_ts FROM leases WHERE run_id = ?",
                (row["run_id"],),
            ).fetchone()
            out.append(
                {
                    "run_id": row["run_id"],
                    "fingerprint": row["fingerprint"],
                    "version": row["version"],
                    "created_ts": row["created_ts"],
                    "closed_ts": row["closed_ts"],
                    "imported_from": row["imported_from"],
                    "cells": sum(statuses.values()),
                    "statuses": statuses,
                    "lease": dict(lease) if lease is not None else None,
                }
            )
        return out
    finally:
        conn.close()


def load_run(checkpoint_dir: str, run_id: str):
    """Rebuild a :class:`~repro.study.runner.StudyResult` from the store.

    The run's own persisted configuration is used (native runs store it;
    journal-imported runs store the importing resume's).  Raises
    ``KeyError`` for an unknown run.
    """
    path = store_path_for(checkpoint_dir)
    conn = sqlite3.connect(f"file:{path}?mode=ro", uri=True, timeout=10.0)
    try:
        conn.row_factory = sqlite3.Row
        row = conn.execute(
            "SELECT config_json FROM runs WHERE run_id = ?", (run_id,)
        ).fetchone()
        if row is None:
            raise KeyError(
                f"run {run_id!r} not found in {path} "
                f"(known: {[r['run_id'] for r in list_runs(checkpoint_dir)]})"
            )
        # Keep only current fields: rows written before a field was
        # removed still carry it (e.g. ``"store": true``).
        saved = json.loads(row["config_json"])
        known = {f.name for f in fields(StudyConfig)}
        config = StudyConfig(**{k: v for k, v in saved.items() if k in known})
        completed = _read_cells(conn, run_id).completed
        # The newest *valid* supervision record (a corrupted newer row is
        # skipped, not fatal).
        events = _read_events(conn, run_id, "supervision")
        supervision = None
        if events:
            supervision = {
                k: v for k, v in events[-1].items() if k not in ("kind", "ts")
            }
        from .runner import assemble_study

        return assemble_study(config, completed, supervision)
    finally:
        conn.close()
