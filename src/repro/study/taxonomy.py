"""The cell-outcome taxonomy: every way a (benchmark, technique) cell ends.

Production SCT platforms treat stuck schedules and tool faults as
first-class, classified outcomes rather than aborts.  Every cell record in
the checkpoint store carries one of these statuses:

========== =============================================================
status     meaning
========== =============================================================
ok         exploration ran to its limit (or exhaustion); no bug found
bug        exploration ran and found (at least) one bug
timeout    the cooperative cell deadline expired (partial stats kept) or
           the watchdog hard-killed a worker stuck far past its deadline
diverged   a recorded schedule failed to replay (nondeterminism leak in
           the subject or the tool) — classified, never a crash
error      the cell raised; retried with backoff + a deterministic seed
           bump, then recorded with its traceback
quarantined the cell crashed its worker process (segfault/OOM/``os._exit``)
           repeatedly and was benched so the study could complete
aborted    at least half the cell's executions were contained program-API
           misuse aborts (:attr:`repro.engine.Outcome.ABORT`) — the
           subject abuses the harness; its stats are kept but flagged
oom        the cell's process tree crossed its RSS ceiling
           (``StudyConfig.cell_max_rss``), or its worker was killed by
           SIGKILL with nothing else to blame (the kernel OOM killer) —
           partial stats kept when the cooperative stop landed first
resource   a non-memory ceiling breach: file-descriptor ceiling, disk
           floor under the checkpoint/results directory, or descendant
           processes found alive (and reaped) after the cell ended
========== =============================================================

``ok``/``bug`` are *successes* (their stats are complete and final);
everything else is *retryable* — ``--retry-errors`` re-runs those cells on
resume.  v1 journals predate the taxonomy and record successes as ``ok``
regardless of bugs; readers must treat both success statuses alike.
"""

from __future__ import annotations

OK = "ok"
BUG = "bug"
TIMEOUT = "timeout"
DIVERGED = "diverged"
ERROR = "error"
QUARANTINED = "quarantined"
ABORTED = "aborted"
OOM = "oom"
RESOURCE = "resource"

#: Every status a cell record may carry (journal v2).
ALL_STATUSES = (
    OK, BUG, TIMEOUT, DIVERGED, ERROR, QUARANTINED, ABORTED, OOM, RESOURCE,
)

#: Completed-for-good statuses: the recorded stats are the final word.
SUCCESS_STATUSES = frozenset({OK, BUG})

#: Statuses ``--retry-errors`` re-runs on resume.
RETRYABLE_STATUSES = frozenset(
    {TIMEOUT, DIVERGED, ERROR, QUARANTINED, ABORTED, OOM, RESOURCE}
)

#: Statuses the runner retries *in-run* (immediately, with backoff and a
#: deterministic seed bump) before recording the failure.  Resource
#: breaches are here because degradation may have changed the odds: the
#: retry runs under the post-degradation knobs (snapshots off, fewer
#: shards), which is exactly when a second attempt is worth it.
INRUN_RETRY_STATUSES = frozenset({ERROR, DIVERGED, OOM, RESOURCE})

#: Statuses that may carry partial (but well-formed) exploration stats:
#: a cooperative stop — deadline expiry or a supervisor budget trip —
#: leaves the measurement usable, only truncated.
PARTIAL_STATS_STATUSES = frozenset({TIMEOUT, ABORTED, OOM, RESOURCE})

#: A cell is flagged ``aborted`` when at least this fraction of its
#: executions were contained misuse aborts.
ABORT_FLAG_FRACTION = 0.5


def is_success(status: str) -> bool:
    """Whether the cell completed its exploration (found a bug or not)."""
    return status in SUCCESS_STATUSES


def is_retryable(status: str) -> bool:
    """Whether ``--retry-errors`` should re-run the cell."""
    return status in RETRYABLE_STATUSES


def status_of(record: dict) -> str:
    """The (normalized) status of a journal cell record; records written
    before the taxonomy (journal v1) carry ``ok`` for every success."""
    return record.get("status") or ERROR
