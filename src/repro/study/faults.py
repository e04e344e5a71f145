"""Deterministic fault injection for the study runner.

The resilience layer (deadlines, watchdog, retries, quarantine, record
digests) is only trustworthy if every degradation path can be exercised end to
end.  This module is that mechanism: a :class:`FaultPlan` — built from
``StudyConfig.faults`` and/or the ``REPRO_STUDY_FAULTS`` environment
variable (worker processes inherit the environment, so env-driven plans
reach the pool) — names exact (benchmark, technique, attempt) cells and
what should go wrong there.  Injection is fully deterministic: no clocks,
no randomness, just declarative matching.

A fault spec is a JSON object::

    {"cell": "CS.lazy01_bad/IDB",   # "<benchmark>/<technique>"
     "kind": "crash",               # crash | hang | diverge | corrupt-journal
     "attempts": [0, 1],            # attempt numbers that fire (default [0])
     "seconds": 3600}               # hang duration (hang only)

Kinds:

``crash``
    The worker process dies hard (``os._exit``), breaking the process
    pool — exercises pool rebuild, crash accounting, and quarantine.
``hang``
    The cell sleeps far past any deadline — exercises the watchdog
    hard-kill and the ``timeout`` classification.
``diverge``
    Raises :class:`repro.engine.strategies.ReplayDivergence` — exercises
    the ``diverged`` classification.
``corrupt-journal``
    The cell runs normally, but its store row is written with a garbled
    digest — exercises digest detection on read and the re-run of just
    that cell on resume.
``store-kill``
    The cell runs normally, but the *parent* process SIGKILLs itself
    after executing the store INSERT and before the COMMIT — the
    sharpest possible mid-transaction crash.  Recovery must land on the
    previous committed cell (the torn transaction never becomes
    visible).  Drills run the study in a subprocess to survive the
    kill.
``oom``
    Allocates ``bytes`` (default 64 MiB) of real, touched memory and
    holds it for the rest of the cell — exercises the
    :class:`repro.study.supervisor.CellSupervisor` RSS ceiling, the
    ``oom`` classification, and graceful degradation.
``orphan``
    Forks a child that sleeps ``seconds`` and deliberately leaks it —
    exercises descendant reaping (the cell ends with the orphan
    contained and classified ``resource``, never left running).
``disk-full``
    Forces the disk guard to read 0 bytes free
    (:func:`repro.study.supervisor.set_disk_override`) — exercises the
    disk floor and the ``resource`` classification without actually
    filling a filesystem.

``crash`` and ``hang`` are meaningful only under the pool runner
(``jobs > 1``); in-process they would take the whole study down, which is
exactly the behaviour the pool exists to contain.  The resource kinds
leave worker-global state behind (held ballast, a forced disk reading);
:func:`clear_injected_state` — called by the pool's cell wrapper after
every cell — releases it so a reused worker starts clean.
"""

from __future__ import annotations

import json
import os
import sys
import time
from typing import List, Optional, Sequence, Tuple

#: Environment variable holding a JSON list of fault specs.
ENV_FAULTS = "REPRO_STUDY_FAULTS"

#: Exit status used by injected worker crashes (distinctive in logs).
CRASH_EXIT_CODE = 66

#: Ballast held by an injected ``oom`` fault when the spec names no size.
DEFAULT_OOM_BYTES = 64 * 1024 * 1024

KINDS = ("crash", "hang", "diverge", "corrupt-journal", "store-kill", "oom",
         "orphan", "disk-full")

#: Kinds that fire at record-write time in the parent, not inside the
#: cell — :meth:`FaultPlan.match` never returns them.
WRITE_TIME_KINDS = frozenset({"corrupt-journal", "store-kill"})

#: Ballast bytearrays held by fired ``oom`` faults (module global so the
#: memory stays resident until :func:`clear_injected_state`).
_ballast: List[bytearray] = []


class FaultSpec:
    """One declarative fault: where it fires and what it does."""

    __slots__ = ("bench", "technique", "kind", "attempts", "seconds", "bytes")

    def __init__(
        self,
        bench: str,
        technique: str,
        kind: str,
        attempts: Sequence[int] = (0,),
        seconds: float = 3600.0,
        bytes: int = DEFAULT_OOM_BYTES,
    ) -> None:
        if kind not in KINDS:
            raise ValueError(f"unknown fault kind {kind!r} (one of {KINDS})")
        self.bench = bench
        self.technique = technique
        self.kind = kind
        self.attempts = tuple(attempts)
        self.seconds = float(seconds)
        self.bytes = int(bytes)

    @classmethod
    def from_dict(cls, spec: dict) -> "FaultSpec":
        cell = spec.get("cell", "")
        bench, sep, technique = cell.rpartition("/")
        if not sep or not bench or not technique:
            raise ValueError(
                f"fault spec cell {cell!r} must be '<benchmark>/<technique>'"
            )
        return cls(
            bench,
            technique,
            spec.get("kind", ""),
            attempts=spec.get("attempts", (0,)),
            seconds=spec.get("seconds", 3600.0),
            bytes=spec.get("bytes", DEFAULT_OOM_BYTES),
        )

    def matches(self, bench: str, technique: str, attempt: int) -> bool:
        return (
            self.bench == bench
            and self.technique == technique
            and attempt in self.attempts
        )

    def as_dict(self) -> dict:
        return {
            "cell": f"{self.bench}/{self.technique}",
            "kind": self.kind,
            "attempts": list(self.attempts),
            "seconds": self.seconds,
            "bytes": self.bytes,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FaultSpec({self.bench}/{self.technique}: {self.kind} "
            f"@attempts {list(self.attempts)})"
        )


class FaultPlan:
    """The set of faults one study run injects (usually empty)."""

    __slots__ = ("specs",)

    def __init__(self, specs: Sequence[FaultSpec] = ()) -> None:
        self.specs: Tuple[FaultSpec, ...] = tuple(specs)

    def __bool__(self) -> bool:
        return bool(self.specs)

    @classmethod
    def from_config(cls, config) -> "FaultPlan":
        """Merge ``config.faults`` (list of spec dicts) with the
        ``REPRO_STUDY_FAULTS`` environment variable."""
        raw: List[dict] = list(getattr(config, "faults", None) or ())
        env = os.environ.get(ENV_FAULTS)
        if env:
            try:
                parsed = json.loads(env)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{ENV_FAULTS} is not valid JSON: {exc}")
            if not isinstance(parsed, list):
                raise ValueError(f"{ENV_FAULTS} must be a JSON list")
            raw.extend(parsed)
        return cls([FaultSpec.from_dict(spec) for spec in raw])

    def match(
        self, bench: str, technique: str, attempt: int
    ) -> Optional[FaultSpec]:
        """The first in-cell fault armed for this attempt (excluding the
        write-time kinds, which fire when the record is stored, not when
        the cell runs)."""
        for spec in self.specs:
            if spec.kind not in WRITE_TIME_KINDS and spec.matches(
                bench, technique, attempt
            ):
                return spec
        return None

    def corrupts_journal(self, bench: str, technique: str) -> bool:
        """Whether this cell's stored record should be written garbled."""
        return any(
            spec.kind == "corrupt-journal"
            and spec.bench == bench
            and spec.technique == technique
            for spec in self.specs
        )

    def kills_store(self, bench: str, technique: str) -> bool:
        """Whether this cell's store commit should SIGKILL the writer
        mid-transaction (``store-kill``)."""
        return any(
            spec.kind == "store-kill"
            and spec.bench == bench
            and spec.technique == technique
            for spec in self.specs
        )


def fire(spec: FaultSpec) -> None:
    """Trigger an in-cell fault (never returns normally for crash/hang)."""
    if spec.kind == "crash":
        print(
            f"[fault-injection] crashing worker for "
            f"{spec.bench}/{spec.technique}",
            file=sys.stderr,
            flush=True,
        )
        os._exit(CRASH_EXIT_CODE)
    if spec.kind == "hang":
        # Sleep in slices so an injected hang is still terminate()-able
        # promptly on every platform; the watchdog kills us well before
        # the total elapses.
        deadline = time.monotonic() + spec.seconds
        while time.monotonic() < deadline:
            time.sleep(min(0.1, spec.seconds))
        return
    if spec.kind == "diverge":
        from ..engine.strategies import ReplayDivergence

        raise ReplayDivergence(
            f"injected fault: forced divergence in "
            f"{spec.bench}/{spec.technique}"
        )
    if spec.kind == "oom":
        # The allocation alone is lazily-mapped zero pages (invisible to
        # VmRSS); write one byte per page so the memory is actually
        # resident and the supervisor's RSS ceiling trips on truth.
        ballast = bytearray(spec.bytes)
        for i in range(0, len(ballast), 4096):
            ballast[i] = 1
        _ballast.append(ballast)
        return
    if spec.kind == "orphan":
        # Deliberately leak a sleeping child: fork and never wait.  The
        # cell supervisor (or the parent's group sweep) must find and
        # reap it — if neither exists, the drill's post-run process scan
        # fails loudly instead of the host accumulating zombies.
        if not hasattr(os, "fork"):  # pragma: no cover - non-POSIX
            return
        pid = os.fork()
        if pid == 0:
            try:
                time.sleep(spec.seconds)
            finally:
                os._exit(0)
        return
    if spec.kind == "disk-full":
        from . import supervisor as supervisor_mod

        supervisor_mod.set_disk_override(0)
        return
    raise AssertionError(f"unfireable fault kind {spec.kind!r}")


def clear_injected_state() -> None:
    """Release worker-global residue of resource faults (held ballast,
    forced disk readings).  Called after every cell by the pool's cell
    wrapper: workers are reused, and a fault must only outlive its cell
    when that is the fault's very point (``orphan`` leaks a process, not
    state in this worker)."""
    _ballast.clear()
    from . import supervisor as supervisor_mod

    supervisor_mod.set_disk_override(None)
