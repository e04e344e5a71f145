"""Engine hardening: terminal-state audit, livelock lasso, self-check mode.

Three cooperating pieces (DESIGN.md section 12) that make every controlled
execution a fault boundary without costing anything on well-behaved
programs:

- :func:`audit_terminal_state` — at ``Outcome.OK``, walk the execution's
  :class:`~repro.runtime.objects.NamingScope` inventory and the thread
  table for leaked resources (mutexes still held, stranded waiters,
  spawned-but-never-joined threads).  Pure inspection, runs once per OK
  execution.
- :class:`LassoDetector` — distinguishes a genuine livelock from an
  execution that is merely long.  Active only inside the last
  ``LASSO_WINDOW`` steps before the step limit; fingerprints the full
  progress-relevant state and reports a cycle only when an *identical*
  state recurs with zero shared-store mutations in between (the kernel's
  ``store_version`` is monotonic, so equal versions bracket a
  mutation-free interval).  Promotion is sound: a reported ``LIVELOCK``
  really cannot make progress under the repeating choice pattern; cycles
  that mutate state (or whose thread-local state the detector cannot
  stably fingerprint) conservatively stay ``STEP_LIMIT``.
- :func:`engine_check_enabled` / :func:`set_engine_check` — the paranoid
  self-check switch (``REPRO_ENGINE_CHECK=1`` or
  ``StudyConfig.engine_check``).  When on, the executor validates
  scheduler-choice legality, kernel runnable-list consistency and
  replay-prefix determinism on every step, raising
  :class:`~repro.runtime.errors.EngineInvariantError` (never contained).
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from ..runtime.context import ThreadContext, ThreadHandle
from ..runtime.objects import (
    Barrier,
    CondVar,
    Mutex,
    RWLock,
    Semaphore,
    SharedArray,
    SharedObject,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .state import Kernel

# ---------------------------------------------------------------------------
# Paranoid self-check mode
# ---------------------------------------------------------------------------

_ENV_VAR = "REPRO_ENGINE_CHECK"
_forced: Optional[bool] = None


def engine_check_enabled() -> bool:
    """Whether paranoid self-checks are on (env var or forced override)."""
    if _forced is not None:
        return _forced
    return os.environ.get(_ENV_VAR, "") not in ("", "0")


def set_engine_check(value: Optional[bool]) -> None:
    """Force self-check mode on/off; ``None`` defers to the environment.

    The study runner calls ``set_engine_check(True)`` in each worker when
    ``StudyConfig.engine_check`` is set; tests use ``None`` to restore the
    environment-driven default.
    """
    global _forced
    _forced = value


# ---------------------------------------------------------------------------
# Terminal-state resource audit
# ---------------------------------------------------------------------------


def audit_terminal_state(kernel: "Kernel") -> Optional[Tuple[str, ...]]:
    """Leaked-resource labels for an execution that ended ``OK``.

    Every thread has finished, so anything still held or parked is leaked
    for good: a mutex with an owner, a reader/writer still registered on
    an ``RWLock``, waiters recorded on a condvar or barrier (stranded —
    impossible unless the engine misbooked a wake), and spawned threads
    nobody joined.  Returns ``None`` when the state is clean, else a tuple
    of stable ``category:name`` labels in object-creation order (threads
    last) — stable so study aggregation can count identical leaks across
    executions.
    """
    leaks: List[str] = []
    for obj in kernel.naming.objects:
        label = _leak_label(obj)
        if label is not None:
            leaks.append(label)
    for ts in kernel.threads[1:]:  # main (tid 0) has no joinable handle
        if not ts.handle.joined:
            leaks.append(f"thread-unjoined:T{ts.tid}")
    return tuple(leaks) if leaks else None


def _leak_label(obj: SharedObject) -> Optional[str]:
    if isinstance(obj, Mutex):
        if obj.owner is not None:
            return f"mutex-held:{obj.name}"
    elif isinstance(obj, RWLock):
        if obj.writer is not None or obj.readers:
            return f"rwlock-held:{obj.name}"
    elif isinstance(obj, CondVar):
        if obj.waiters:
            return f"condvar-waiters:{obj.name}"
    elif isinstance(obj, Barrier):
        if obj.waiting:
            return f"barrier-stranded:{obj.name}"
    return None


# ---------------------------------------------------------------------------
# Livelock lasso detection
# ---------------------------------------------------------------------------

#: Steps before the step limit at which fingerprinting starts.  A cycle
#: must recur inside this window to be confirmed; larger windows catch
#: longer lassos at proportional cost.  Executions that finish earlier
#: never pay anything.
LASSO_WINDOW = 2048


def lasso_watch_from(max_steps: int) -> int:
    """The first step the lasso detector observes under ``max_steps``."""
    return max_steps - LASSO_WINDOW if max_steps > LASSO_WINDOW else 0


#: Sentinel meaning "this state cannot be stably fingerprinted" — such a
#: step never matches anything, so no false cycle can be reported.
_UNSTABLE = object()

_STABLE_SCALARS = (int, float, bool, str, bytes, type(None))
#: Values nested this deep, and containers holding more items, are unstable.
_DEPTH_CAP = 5
_ITEM_CAP = 64

# How :func:`_stable_value` represents a value depends only on its type, so
# each type is classified once: the first entry of ``_KIND_CLASSES`` it
# subclasses (the order is the representation's precedence), else
# ``_OTHER``, whose instances are probed one by one for a generator frame
# or an attribute namespace.
_SCALAR, _HANDLE, _CONTEXT, _SHARED, _TUPLE, _LIST, _DICT, _OTHER = range(8)
_KIND_CLASSES = (
    (_SCALAR, _STABLE_SCALARS),
    (_HANDLE, ThreadHandle),
    (_CONTEXT, ThreadContext),
    (_SHARED, SharedObject),
    (_TUPLE, tuple),
    (_LIST, list),
    (_DICT, dict),
)
#: Type -> kind, filled on each type's first sight.  A pure function of
#: the type, so every caller in the process may share it.
_KINDS: Dict[type, int] = {}


def _classify(cls: type) -> int:
    for kind, classes in _KIND_CLASSES:
        if issubclass(cls, classes):
            break
    else:
        kind = _OTHER
    _KINDS[cls] = kind
    return kind


def _stable_value(value: Any, depth: int = 0) -> Any:
    """A hashable, identity-free stand-in for one generator local.

    Anything we cannot represent faithfully returns ``_UNSTABLE``: the
    detector then treats the whole step as unique (sound — it can only
    *miss* livelocks, never invent one).
    """
    cls = type(value)
    kind = _KINDS.get(cls)
    if kind is None:
        kind = _classify(cls)
    if kind == _SCALAR:
        return value
    if depth >= _DEPTH_CAP:
        return _UNSTABLE
    if kind == _SHARED:
        # Shared-object *contents* are covered by store_version (every
        # mutation bumps it); the local just names the object.
        return ("obj", value.name)
    if kind == _TUPLE:
        return _stable_seq("t", value, depth)
    if kind == _LIST:
        return _stable_seq("l", value, depth)
    if kind == _DICT:
        return _stable_dict(value, depth)
    if kind == _HANDLE:
        return ("th", value.tid, value.finished)
    if kind == _CONTEXT:
        return ("ctx", value.tid)
    gen_frame = getattr(value, "gi_frame", None)
    if gen_frame is not None:
        # A nested generator (``yield from`` delegation): fingerprint its
        # frame position and locals recursively.
        return _frame_digest(gen_frame, depth + 1)
    attrs = getattr(value, "__dict__", None)
    if attrs is not None:
        # Shared-state namespaces (SimpleNamespace, ad-hoc classes): recurse
        # so *untracked* plain-Python mutations (a growing list, a counter
        # attribute) still change the fingerprint — a loop whose exit
        # condition reads such state can never be mistaken for a lasso.
        inner = _stable_value(dict(attrs), depth + 1)
        if inner is _UNSTABLE:
            return _UNSTABLE
        return ("ns", cls.__name__, inner)
    return _UNSTABLE


# The loops below inline :func:`_stable_value`'s two leaf cases, by far
# the most common items: a scalar stands for itself at any depth, a shared
# object for its name below the depth cap (``named``).


def _stable_seq(tag: str, seq, depth: int):
    if len(seq) > _ITEM_CAP:
        return _UNSTABLE
    out = [tag]
    depth += 1
    named = depth < _DEPTH_CAP
    kinds = _KINDS
    for item in seq:
        kind = kinds.get(type(item))
        if kind == _SCALAR:
            out.append(item)
        elif kind == _SHARED and named:
            out.append(("obj", item.name))
        else:
            sv = _stable_value(item, depth)
            if sv is _UNSTABLE:
                return _UNSTABLE
            out.append(sv)
    return tuple(out)


def _stable_dict(mapping, depth: int):
    if len(mapping) > _ITEM_CAP:
        return _UNSTABLE
    out: List[Any] = ["d"]
    try:
        items = sorted(mapping.items())
    except TypeError:
        return _UNSTABLE
    depth += 1
    named = depth < _DEPTH_CAP
    kinds = _KINDS
    for k, v in items:
        kind = kinds.get(type(v))
        if kind == _SCALAR:
            out.append((k, v))
        elif kind == _SHARED and named:
            out.append((k, ("obj", v.name)))
        else:
            sv = _stable_value(v, depth)
            if sv is _UNSTABLE:
                return _UNSTABLE
            out.append((k, sv))
    return tuple(out)


def _frame_digest(frame, depth: int = 0, seen: Optional[Dict[int, Any]] = None) -> Any:
    """Bytecode offset plus the stable locals of one frame.

    ``seen`` memoizes, by identity, the digests of locals probed per
    instance across the frames of one state: every thread body holds the
    program's shared namespace, which cannot change while one state is
    being digested."""
    if frame is None:
        return ("done",)
    items: List[Any] = [frame.f_lasti]
    named = depth < _DEPTH_CAP
    kinds = _KINDS
    local_values = frame.f_locals
    # Names are distinct strings: sorting them orders the items as
    # sorting the (name, value) pairs would.
    for name in sorted(local_values):
        value = local_values[name]
        kind = kinds.get(type(value))
        if kind == _SCALAR:
            items.append((name, value))
            continue
        if kind == _SHARED and named:
            items.append((name, ("obj", value.name)))
            continue
        if kind == _OTHER and seen is not None:
            key = id(value)
            if key in seen:
                sv = seen[key]
            else:
                sv = seen[key] = _stable_value(value, depth)
        else:
            sv = _stable_value(value, depth)
        if sv is _UNSTABLE:
            return _UNSTABLE
        items.append((name, sv))
    return tuple(items)


# ---------------------------------------------------------------------------
# Cross-run state fingerprint (DPOR state cache)
# ---------------------------------------------------------------------------


def _object_state(obj: SharedObject) -> Any:
    """The mutable, behaviour-relevant fields of one shared object."""
    if isinstance(obj, Mutex):
        return obj.owner
    if isinstance(obj, CondVar):
        return tuple(obj.waiters)
    if isinstance(obj, Semaphore):
        return obj.count
    if isinstance(obj, Barrier):
        return tuple(obj.waiting)
    if isinstance(obj, RWLock):
        return (obj.writer, tuple(obj.readers))
    if isinstance(obj, SharedArray):
        return tuple(obj.cells)
    return obj.value  # SharedVar / Atomic


def state_fingerprint(kernel: "Kernel", enabled: Tuple[int, ...]) -> Optional[Any]:
    """A hashable identity for the *full* execution state, or ``None``.

    Unlike :meth:`LassoDetector._fingerprint` (which brackets a single run
    and can lean on the monotonic ``store_version``), this digest must be
    comparable across *different* executions of the same program, so it
    hashes the actual contents of every named shared object, every live
    thread's status/poised-op/frame, and the results of finished threads
    (a joiner may still read them).  Plain-Python shared state (lists,
    namespaces) is covered by the frame digests — the shared namespace is
    a local of every thread body.  ``None`` means "cannot be stably
    fingerprinted"; callers must treat such states as unique.
    """
    from .state import ThreadStatus

    kinds = _KINDS
    shared: List[Any] = []
    for obj in kernel.naming.objects:
        sv = _object_state(obj)
        if kinds.get(type(sv)) != _SCALAR:
            sv = _stable_value(sv, 1)
            if sv is _UNSTABLE:
                return None
        shared.append((obj.name, sv))
    parts: List[Any] = [tuple(shared), enabled]
    seen: Dict[int, Any] = {}
    for ts in kernel.threads:
        if ts.status is ThreadStatus.FINISHED:
            handle = getattr(ts, "handle", None)
            result = getattr(handle, "result", None) if handle is not None else None
            sv = _stable_value(result, 1)
            if sv is _UNSTABLE:
                return None
            parts.append(("fin", ts.tid, sv))
            continue
        op = ts.pending
        if op is not None:
            op_key = (op.kind, op.site, getattr(op.target, "name", None))
        elif ts.wait_obj is not None:
            op_key = (
                "wait",
                getattr(ts.wait_obj, "name", None),
                getattr(ts.wait_data, "name", None),
            )
        else:
            return None
        digest = _frame_digest(ts.gen.gi_frame, 0, seen)
        if digest is _UNSTABLE:
            return None
        parts.append((ts.tid, int(ts.status), op_key, digest))
    return tuple(parts)


class LassoDetector:
    """Detects a recurring non-progress state near the step limit.

    Fed once per scheduling point (within the window) with the kernel and
    its enabled set.  A *state* is: the shared-store version, the enabled
    set, and per live thread its status, poised op (kind + site + target)
    and generator-frame digest (bytecode offset + stably-representable
    locals, recursing through ``yield from``).  Because ``store_version``
    is monotonic, two equal states bracket an interval with no shared
    mutation at all — so the repeating segment is a true lasso: re-running
    the same choices loops forever.  ``observe`` returns the cycle length
    on the first confirmed recurrence, else ``None``.
    """

    __slots__ = ("_seen", "_version", "cycle_len")

    def __init__(self) -> None:
        self._seen: Dict[Any, int] = {}
        self._version = -1
        #: Length of the first confirmed cycle (``None`` until confirmed).
        self.cycle_len: Optional[int] = None

    def observe(self, kernel: "Kernel", enabled: Tuple[int, ...]) -> Optional[int]:
        if self.cycle_len is not None:
            return self.cycle_len
        version = kernel.store_version
        if version != self._version:
            # Progress happened: every remembered state is unreachable
            # (store_version is part of it and never repeats).
            self._seen.clear()
            self._version = version
        state = self._fingerprint(kernel, enabled, version)
        if state is None:
            return None
        prev = self._seen.get(state)
        if prev is not None:
            self.cycle_len = kernel.steps - prev
            return self.cycle_len
        self._seen[state] = kernel.steps
        return None

    def _fingerprint(
        self, kernel: "Kernel", enabled: Tuple[int, ...], version: int
    ) -> Optional[Any]:
        from .state import ThreadStatus

        parts: List[Any] = [version, enabled]
        seen: Dict[int, Any] = {}
        for ts in kernel.threads:
            status = ts.status
            if status is ThreadStatus.FINISHED:
                continue
            op = ts.pending
            if op is not None:
                op_key = (op.kind, op.site, getattr(op.target, "name", None))
            elif ts.wait_obj is not None:
                op_key = ("wait", getattr(ts.wait_obj, "name", None))
            else:
                return None
            digest = _frame_digest(ts.gen.gi_frame, 0, seen)
            if digest is _UNSTABLE:
                return None
            parts.append((ts.tid, int(status), op_key, digest))
        return tuple(parts)
