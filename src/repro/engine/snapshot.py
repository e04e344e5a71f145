"""Fork-based copy-on-write prefix snapshots for the bounded DFS.

The stateless search re-executes the shared schedule prefix of sibling
subtrees on every run — the replay fast path (PR 2) makes each replayed
step cheap, but on deep trees replay still dominates: in the exhaustive
``fixed.*`` cells ~75% of all visible steps are replayed prefix.  This
module removes the replay entirely for deep subtrees: when the search
pushes a *new* multi-candidate choice point far enough from the root, the
process ``os.fork()``s one **parked holder** child that owns every untried
sibling of that point.  The parent keeps only the default candidate and
explores on; when the parent's search unwinds past the point, the holder
is woken and resumes *from the live process image* — its copy of the
interpreter already sits inside ``execute()`` at the forked step, so the
sibling schedules run with **zero replayed steps**.  Holders fork holders
recursively, so an entire deep subtree is enumerated with each shared
prefix executed exactly once, machine-wide.

Results stream back over a pipe as the same serializable run-summary
payloads the sharded merge uses (:class:`repro.core.sharding.RunSummary`),
in exact serial DFS order, so the unmodified explorer accounting loops
consume the merged stream and every ``ExplorationStats.as_dict()`` field
matches the serial run by construction.  (As with sharding, only the
opt-in ``EngineCounters`` telemetry knows the difference:
``snapshot_restored_steps`` counts the prefix steps inherited from live
images, and ``replayed_steps`` shrinks accordingly.)  Two transport
details keep the pipes off the profile: batches ship as opaque
pre-pickled *segments* that ancestor holders relay as bytes (a summary
is pickled once no matter how many chain hops it crosses), and a resumed
run's schedule is *delta-encoded* — only the suffix past the fork point
travels; the root re-attaches the shared prefix from the previous run in
the stream.

Profitability, measured on the development box (single core): a resumed
execution costs a fixed ~2.5–3ms regardless of prefix depth — ~1.3ms
``os.fork`` of the ~20MB engine image, ~1.3ms kernel teardown of the
child address space at exit, plus pipe/pickle change — while serial
replay costs the prefix re-executed per run: ~2.5µs/step when steps are
pure engine bookkeeping, tens of µs when the subject does real work
between scheduling points (as native SCT targets do).  The break-even
prefix is therefore ~100–1000 steps depending on step weight;
:data:`DEFAULT_MIN_FORK_STEPS` (256) gates forking on exactly that depth.
Shallow trees — most of SCTBench — never fork and run the classic
search unchanged; deep-prefix subjects (``fixed.prelude``) run ≥2×
faster end-to-end.  That win is replay elimination, which is why it
holds even on a single CPU.  On more CPUs a search also runs holders in
parallel, under one look-ahead rule: wherever a process is about to
block on a holder's batch — the root and every woken holder collecting
sibling holders, and the frontier search resuming cross-bound holders —
it first wakes the holders whose batches come next, each on a token
from the search's one pool of :func:`default_procs` − 1 tokens (make's
jobserver idea, :class:`_Tokens`).  Batches are still collected in DFS
order, so emission order, batch contents and frontier placement do not
depend on what ran ahead.

Every child is forked by one primitive (:meth:`SnapshotRunner._fork`)
and owns exactly two pipe ends: the read end of its go pipe and the
write end of its result pipe.  Every other pipe end it inherits — the
parent-side ends of sibling holders, cross-bound holders' ends, and the
result pipe the forking process itself owes *its* parent — is closed in
the child at once, so EOF on a result pipe means exactly "that child is
gone", never "and every descendant it forked has exited too".  The one
inherited descriptor every holder keeps is the search's token file.

Failure containment:

- a holder that dies or errors is *re-explored inline* from its stored
  edge descriptors — the same ``PrunedEdge`` payloads sharding ships,
  through the same subtree loop — so the merged stream (including any
  exception the subtree legitimately raises) matches serial exactly,
  just slower;
- under ``REPRO_ENGINE_CHECK=1`` every fork records a digest of the
  shared-object state (:func:`repro.runtime.objects.snapshot`) and the
  woken child audits its inherited state against it; a mismatch raises
  :class:`~repro.runtime.errors.EngineInvariantError` loudly — that is a
  broken engine, never something to paper over;
- a woken child can never "escape" into inherited parent frames: every
  ``next()`` on the search generator goes through :meth:`SnapshotRunner.
  _next`, which diverts a freshly-woken child into the holder drain loop
  and turns any escaping exception into an ``("err", traceback)`` message
  followed by ``os._exit``;
- platforms without ``os.fork`` (or monkeypatched unavailability) fall
  back to the plain replay fast path automatically — ``snapshots=`` is
  a pure go-faster knob, never a semantics switch.

This module is imported lazily by its consumers (the explorers and the
sharded subtree worker); it must stay out of ``repro.engine.__init__``
to avoid an import cycle through :mod:`repro.core.sharding`.
"""

from __future__ import annotations

import atexit
import os
import pickle
import signal
import socket
import struct
import tempfile
import traceback
import weakref
from typing import Dict, Iterator, List, Optional, Set, Tuple

from ..core.bounds import NO_BOUND
from ..core.dfs import Frontier, PrunedEdge, RunRecord, affords, in_order
from ..core.iterative import FrontierSearch
from ..core.sharding import RunSummary, SubtreeSpec, _subtree_worker
from ..runtime.errors import EngineInvariantError
from ..runtime.objects import snapshot as objects_snapshot
from .executor import DEFAULT_MAX_STEPS
from .hardening import engine_check_enabled
from .trace import Outcome

try:
    import fcntl
except ImportError:  # pragma: no cover - platforms without fork, where
    fcntl = None  # the explorers fall back before any token is made

#: Minimum absolute step depth of a choice point before forking a holder
#: for it.  A resumed execution has a fixed ~2.5-3ms cost (fork + child
#: address-space teardown at engine heap size); replaying the prefix
#: costs ~2.5µs/step for bookkeeping-only subjects and tens of µs/step
#: when steps do real work, so break-even sits at ~100-1000 steps.
#: Shallower points replay faster than they fork.
DEFAULT_MIN_FORK_STEPS = 256

#: Ceiling on simultaneously parked holders per process (a parked holder
#: is one sleeping child process).  Deeper points past the ceiling are
#: explored by classic backtrack+replay in-process.
DEFAULT_MAX_HOLDERS = 64

#: Ceiling on *cross-bound* parked holders registered with the frontier
#: search (children sleeping across a bound transition so the next bound
#: resumes their subtree with zero prefix replay).  Past the ceiling the
#: registry evicts the holder whose edges become affordable latest (ties:
#: the shallowest, which loses the least replay); evicted edges fall back
#: to plain replayable descriptors.  Sized to the per-bound frontier of the
#: deep-prefix subjects this path targets.
DEFAULT_MAX_CROSS_HOLDERS = 512


def default_procs() -> int:
    """How many processes of one snapshot search may run at once: the
    CPUs this process may run on (its affinity mask where the platform
    has one, so ``taskset`` narrows it), at most 8.  The search's own
    process takes one; the rest are its look-ahead tokens
    (:class:`_Tokens`), which let holders run ahead of their turn."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - no affinity masks here
        cpus = os.cpu_count() or 1
    return max(1, min(8, cpus))


def fork_available() -> bool:
    """Whether COW snapshot workers can run here.

    All consumers call this lazily through the module (never ``from``-
    imported), so tests can monkeypatch it to exercise the non-fork
    fallback on any platform.
    """
    return os.name == "posix" and hasattr(os, "fork")


# -- pipe framing ------------------------------------------------------------

_LEN = struct.Struct("<Q")


def _write_msg(fd: int, obj) -> None:
    """Length-prefixed pickle to a pipe fd (handles partial writes)."""
    data = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    view = memoryview(_LEN.pack(len(data)) + data)
    while view:
        view = view[os.write(fd, view):]


def _read_exact(fd: int, n: int) -> Optional[bytes]:
    chunks = []
    while n:
        chunk = os.read(fd, min(n, 1 << 20))
        if not chunk:
            return None
        chunks.append(chunk)
        n -= len(chunk)
    return b"".join(chunks)


def _read_msg(fd: int):
    """Read one framed message; ``None`` on EOF (dead peer)."""
    header = _read_exact(fd, _LEN.size)
    if header is None:
        return None
    data = _read_exact(fd, _LEN.unpack(header)[0])
    if data is None:
        return None
    return pickle.loads(data)


def _close(*fds: int) -> None:
    for fd in fds:
        if fd >= 0:
            try:
                os.close(fd)
            except OSError:
                pass


def _batch(msg) -> Optional[dict]:
    """A child's reply as a subtree batch, or ``None`` when the subtree
    must be re-explored by replay: the child died (``msg`` is ``None``)
    or the subtree raised (re-exploration reproduces a deterministic
    exception exactly).  A failed restore audit is raised here."""
    if msg is None:
        return None
    status, value = msg
    if status == "invariant":
        raise EngineInvariantError(value)
    return value if status == "ok" else None


def _digest(kernel) -> Optional[dict]:
    """Fork-time shared-object digest for the wake audit (engine check
    mode only)."""
    if not engine_check_enabled():
        return None
    return objects_snapshot(kernel.naming.objects)


# -- look-ahead tokens -------------------------------------------------------


class _Tokens:
    """The look-ahead budget of one search: ``n`` tokens shared by every
    process of its tree (make's jobserver idea).

    A process takes a token (never blocking) before it wakes a holder
    ahead of its turn, and gives it back when it starts blocking on that
    holder or destroys it.  Blocking on the head batch needs none: the
    head runs in the blocked process's place.  So at most ``n + 1``
    processes of the search run at once.

    A token is a byte-range lock on one anonymous file that every
    holder inherits through :meth:`SnapshotRunner._fork` — the one
    descriptor a child keeps besides its own two pipe ends.  Locks
    belong to the process that took them: a child starts with none, and
    a process that dies holding some (a running holder killed at a
    mid-stream stop) returns them with it, where a pipe of token bytes
    would lose them.
    """

    def __init__(self, n: int) -> None:
        self.n = n
        if hasattr(os, "memfd_create"):
            self.fd = os.memfd_create("repro-lookahead")
        else:  # pragma: no cover - platforms without memfd
            self.fd, path = tempfile.mkstemp()
            os.unlink(path)
        #: Byte offsets this process holds, one per holder it woke ahead.
        self._held: List[int] = []
        #: Closes the file once the search is closed or collected.
        self.close = weakref.finalize(self, os.close, self.fd)

    def take(self) -> bool:
        for i in range(self.n):
            if i in self._held:
                continue
            try:
                fcntl.lockf(self.fd, fcntl.LOCK_EX | fcntl.LOCK_NB, 1, i)
            except OSError:
                continue
            self._held.append(i)
            return True
        return False

    def give(self) -> None:
        fcntl.lockf(self.fd, fcntl.LOCK_UN, 1, self._held.pop())

    def on_child(self) -> None:
        """Called on the child side of every fork: locks are not
        inherited."""
        self._held = []


def _search_tokens() -> Optional[_Tokens]:
    """A new search's look-ahead tokens (``None``: no look-ahead)."""
    n = default_procs() - 1
    if n < 1:
        return None
    try:
        return _Tokens(n)
    except OSError:  # pragma: no cover - out of descriptors
        return None


# -- live-child accounting ---------------------------------------------------

#: Pids of every parked holder this process currently owns.  The normal
#: paths unregister on reap; the :func:`atexit` hook below is the
#: abnormal-exit backstop — a run that unwinds past
#: ``SnapshotRunner.close()`` (``sys.exit``, an uncaught exception in a
#: non-runner frame) must not leave parked holders sleeping on COW pages
#: forever.
_live_children: Set[int] = set()


def _register_child(pid: int) -> None:
    _live_children.add(pid)


def _unregister_child(pid: int) -> None:
    _live_children.discard(pid)


def _reset_child_registry() -> None:
    """Called on the child side of every fork: the inherited set lists
    *siblings and ancestors' children*, none of which this process owns."""
    _live_children.clear()


def reap_all_children() -> List[int]:
    """Kill and reap every still-registered forked child (idempotent).

    Returns the pids that were still alive.  Runs automatically at
    interpreter exit; callers that tear down an exploration abnormally
    (test harnesses, the study's cell wrapper) may call it directly.
    """
    reaped = []
    for pid in sorted(_live_children):
        try:
            os.kill(pid, signal.SIGKILL)
            reaped.append(pid)
        except OSError:
            pass
        try:
            os.waitpid(pid, 0)
        except (ChildProcessError, OSError):
            pass
    _live_children.clear()
    return reaped


atexit.register(reap_all_children)


class _Child:
    """Parent-side handle to one parked holder: its pid, the write end of
    its go pipe and the read end of its result pipe.

    ``depth`` orders collection and eviction.  For a holder of sibling
    subtrees it is the DFS stack depth *including* the forked point: the
    holder's subtree precedes every run the parent produces after its
    stack unwinds shallower than that.  For a cross-bound holder it is the
    fork step, the prefix length a live resume saves.  ``owns`` is what
    the child owns: the forked point's remainder — untried siblings, then
    pruned edges — as :class:`PrunedEdge` objects in DFS order (the
    re-dispatch fallback if the child dies — they share the immutable
    prefix chain, so nothing walks it unless that happens), or for a
    cross-bound holder ``{edge index: cost_after}``.  A
    cross-bound pid may be a grandchild (registered over the fd-passing
    socket), so ``waitpid`` failures are expected and the kill is the
    contract.  ``ahead`` is the look-ahead pool whose token this
    process took to wake the child ahead of its turn (``None`` when it
    was woken in its turn, or is parked).
    """

    __slots__ = ("pid", "go_w", "res_r", "depth", "owns", "ahead")

    def __init__(self, pid: int, go_w: int, res_r: int, depth: int = 0,
                 owns=None) -> None:
        self.pid = pid
        self.go_w = go_w
        self.res_r = res_r
        self.depth = depth
        self.owns = owns
        self.ahead: Optional[_Tokens] = None
        _register_child(pid)

    def wake(self) -> bool:
        """Unpark the child (idempotent).  Returns whether the wake byte
        was delivered — ``False`` means the child is already dead."""
        if self.go_w < 0:
            return True
        fd, self.go_w = self.go_w, -1
        try:
            os.write(fd, b"!")
            return True
        except OSError:
            return False
        finally:
            _close(fd)

    def reap(self) -> None:
        """Close remaining fds and collect the exit status."""
        _close(self.go_w, self.res_r)
        self.go_w = self.res_r = -1
        try:
            os.waitpid(self.pid, 0)
        except (ChildProcessError, OSError):
            pass
        _unregister_child(self.pid)

    def release(self) -> None:
        """Give back the token this child was woken ahead on: its
        collector now blocks on it, or it is gone."""
        if self.ahead is not None:
            self.ahead.give()
            self.ahead = None

    def destroy(self) -> None:
        """Kill the child (parked or running), reap it and give back its
        look-ahead token."""
        try:
            os.kill(self.pid, signal.SIGKILL)
        except OSError:
            pass
        self.reap()
        self.release()


# -- cross-bound holders -----------------------------------------------------


class CrossBoundRegistry:
    """Root-owned registry of holders parked across bound transitions.

    One instance lives on a :class:`SnapshotFrontierSearch` (or a sharded
    inline search) and is shared — by reference in the root, by COW image
    in every forked descendant — with every :class:`SnapshotRunner` the
    search creates.  Whichever process records a deep bound-pruned point
    forks one parked holder owning *all* of that point's pruned edges and
    registers it here; frontier entries carry ``(holder_id, index)``
    handles, and :meth:`resume` wakes the holder when a later bound
    affords one of its edges.

    Registration is race-free across processes: the root keeps both ends
    of an ``AF_UNIX``/``SOCK_DGRAM`` socketpair, descendants inherit the
    *send* end, and a child ships ``(meta, [go_w, res_r])`` datagrams via
    ``SCM_RIGHTS`` **at fork time — before any result batch is written**,
    so by the time the root has consumed the batch that mentions a handle
    the registration is already queued; :meth:`resume` drains the queue
    before every lookup.  A full queue (``EAGAIN``) fails the
    registration and the caller kills the fresh holder — the edges stay
    plain replayable descriptors, never dangling handles.

    Failure is always graceful: a missing/evicted/dead holder makes
    :meth:`resume` return ``None`` and the frontier search re-explores
    the edge by classic prefix replay.

    ``tokens`` is the owning search's look-ahead pool (``None``: no
    look-ahead): :meth:`wake_ahead` wakes the holder of an upcoming
    entry on a token while the head's batch is awaited.
    """

    def __init__(self, tokens: Optional[_Tokens] = None) -> None:
        self.max_holders = DEFAULT_MAX_CROSS_HOLDERS
        self.owner_pid = os.getpid()
        self.holders: Dict[str, _Child] = {}
        #: Woken holders whose batch is not collected yet, by the handle
        #: they were woken for: the head being resumed and those woken
        #: ahead of it.
        self._woken: Dict[Tuple[str, int], _Child] = {}
        self._tokens = tokens
        self.evicted = 0
        self.resumed = 0
        self._counter = 0
        #: Per-process fork-storm guard for *descendants* (the root is
        #: governed by the live cap + eviction instead): each forked
        #: process may register at most this many holders.
        self._quota = self.max_holders
        self._closed = False
        self._recv, self._send = socket.socketpair(
            socket.AF_UNIX, socket.SOCK_DGRAM
        )
        for sock in (self._recv, self._send):
            sock.setblocking(False)
            for opt in (socket.SO_SNDBUF, socket.SO_RCVBUF):
                try:
                    sock.setsockopt(socket.SOL_SOCKET, opt, 1 << 20)
                except OSError:  # pragma: no cover - platform quirk
                    pass

    # -- any process ---------------------------------------------------------

    def next_id(self) -> str:
        self._counter += 1
        return "%d.%d" % (os.getpid(), self._counter)

    def may_fork(self) -> bool:
        if self._closed:
            return False
        if os.getpid() == self.owner_pid:
            return len(self.holders) < self.max_holders
        return self._quota > 0

    def register(self, hid: str, pid: int, go_w: int, res_r: int,
                 costs: Dict[int, int], depth: int) -> bool:
        """Register a freshly forked parked holder.  In the root this is
        a direct table insert; in a descendant the fds travel to the root
        over the socket.  ``False`` means the holder could not be
        registered and the caller must kill it (and close the fds)."""
        if os.getpid() == self.owner_pid:
            self.holders[hid] = _Child(pid, go_w, res_r, depth, costs)
            self._evict_over_cap()
            return True
        self._quota -= 1
        meta = pickle.dumps((hid, pid, costs, depth),
                            protocol=pickle.HIGHEST_PROTOCOL)
        try:
            socket.send_fds(self._send, [meta], [go_w, res_r])
        except OSError:
            return False
        _close(go_w, res_r)
        return True

    def on_child(self) -> None:
        """Called on the child side of every fork: drop the inherited
        root-side state (holder fds and the receive end), keep only the
        send end for registrations.  Idempotent — chain forks call it
        again with everything already closed."""
        for holder in [*self.holders.values(), *self._woken.values()]:
            _close(holder.go_w, holder.res_r)
        self.holders = {}
        self._woken = {}
        try:
            self._recv.close()
        except OSError:  # pragma: no cover
            pass

    # -- root only -----------------------------------------------------------

    def drain(self) -> None:
        """Adopt every queued registration (non-blocking; root only)."""
        if os.getpid() != self.owner_pid:
            return
        while True:
            try:
                msg, fds, _flags, _addr = socket.recv_fds(
                    self._recv, 1 << 16, 2
                )
            except (BlockingIOError, InterruptedError):
                break
            except OSError:  # pragma: no cover - socket torn down
                break
            if not msg:  # pragma: no cover - senders never write empty
                break
            hid, pid, costs, depth = pickle.loads(msg)
            stale = self.holders.pop(hid, None)
            if stale is not None:  # pragma: no cover - ids never collide
                stale.destroy()
            self.holders[hid] = _Child(pid, fds[0], fds[1], depth, costs)
        self._evict_over_cap()

    def _evict_over_cap(self) -> None:
        while len(self.holders) > self.max_holders:
            hid = max(
                self.holders,
                key=lambda h: (
                    min(self.holders[h].owns.values()),
                    -self.holders[h].depth,
                ),
            )
            self.holders.pop(hid).destroy()
            self.evicted += 1

    def _wake(self, key: Tuple[str, int], bound: int) -> Optional[_Child]:
        """Wake the registered holder owning edge ``key`` at ``bound``;
        ``None`` if no live registration owns it."""
        hid, idx = key
        holder = self.holders.get(hid)
        if holder is None or idx not in holder.owns:
            return None
        del self.holders[hid]
        try:
            _write_msg(holder.go_w, (bound, idx))
        except OSError:
            pass  # already dead: its batch reads as EOF
        self._woken[key] = holder
        return holder

    def wake_ahead(self, handle, bound: int) -> bool:
        """Wake the holder of an upcoming frontier entry on a look-ahead
        token, so its subtree runs while an earlier batch is awaited.
        ``False`` only when no token is free (stop looking further).

        An entry whose holder id belongs to a woken, uncollected holder
        is never woken ahead: that holder's chain follow-on, which owns
        the entry, registers only once the holder runs; the entry is
        resumed live in its turn."""
        if handle is None or any(h == handle[0] for h, _ in self._woken):
            return True
        holder = self.holders.get(handle[0])
        if holder is None or handle[1] not in holder.owns:
            return True
        if not self._tokens.take():
            return False
        self._wake((handle[0], handle[1]), bound).ahead = self._tokens
        return True

    def resume(self, handle, bound: int, ahead=None):
        """Wake the holder owning ``handle`` (unless it was woken ahead;
        then its token goes back) and return its subtree batch (the
        ``{"segments", "frontier", "exhausted"}`` payload), or ``None``
        if the subtree must be re-explored by classic replay (no such
        holder, evicted, dead, or it raised).  ``ahead``, the caller's
        look-ahead, is called once the holder runs, before blocking on
        its batch."""
        if handle is None or self._closed:
            return None
        self.drain()
        key = (handle[0], handle[1])
        holder = self._woken.get(key)
        if holder is not None:
            holder.release()
        else:
            holder = self._wake(key, bound)
            if holder is None:
                return None
        if ahead is not None:
            ahead()
        del self._woken[key]
        self.resumed += 1
        try:
            msg = _read_msg(holder.res_r)
        except OSError:
            msg = None
        holder.reap()
        # The woken child chain-forked a follow-on holder for its other
        # edges and re-registered before writing the batch: adopt it now
        # so the next resumed sibling finds its handle live.
        self.drain()
        return _batch(msg)

    def close(self) -> None:
        """Kill and reap every registered holder, including registrations
        still queued in the socket, and every woken one (idempotent; root
        only kills)."""
        if self._closed:
            return
        self._closed = True
        if os.getpid() == self.owner_pid:
            self.drain()
            for holder in [*self.holders.values(), *self._woken.values()]:
                holder.destroy()
            self.holders = {}
            self._woken = {}
        for sock in (self._recv, self._send):
            try:
                sock.close()
            except OSError:  # pragma: no cover
                pass


def decode_batch(sub: dict, base_schedule: List[int]) -> List[RunRecord]:
    """Decode a holder batch into run records.

    A resumed run's schedule arrives delta-encoded: its first
    ``restored_steps`` entries were elided child-side (identical to the
    previous record's — the shared prefix up to the fork point).
    ``base_schedule`` is the schedule preceding the batch: the previous
    run in the parent's stream, or for a cross-bound batch the resumed
    frontier entry's own schedule (the woken child re-rooted there)."""
    records = []
    last = base_schedule
    for segment in sub["segments"]:
        for summary, cost, pruned_any in pickle.loads(segment):
            if summary.restored_steps:
                summary.schedule = (
                    last[:summary.restored_steps] + summary.schedule
                )
            last = summary.schedule
            records.append(RunRecord(summary, cost, pruned_any))
    return records


# -- the snapshot runner -----------------------------------------------------


class SnapshotRunner:
    """Drive a :class:`BoundedDFS` with fork-based prefix snapshots.

    Builds the search from ``spec`` (beneath ``root``, recording pruned
    edges into ``frontier``) and exposes its run stream: ``runs()`` /
    ``exhausted`` / ``split_remaining()`` with the exact serial contract
    (same records, same order, ``exhausted`` accurate at every yield),
    plus ``close()`` for cleanup.  ``cross`` is the cross-bound holder
    registry shared with the owning frontier search, ``tokens`` the
    search's look-ahead pool (``None``, as for shard workers: holders
    run only in their turn).
    """

    def __init__(
        self,
        spec: SubtreeSpec,
        bound: Optional[int],
        *,
        root: Optional[PrunedEdge] = None,
        frontier: Optional[List[PrunedEdge]] = None,
        cross: Optional[CrossBoundRegistry] = None,
        tokens: Optional[_Tokens] = None,
    ) -> None:
        #: What the search pops, in DFS order, until it can join
        #: ``frontier``: pruned edges, and the handle of each sibling
        #: holder whose forked point was popped (``detach_untried``).  A
        #: handle holds back everything after it until that holder's
        #: batch — whose frontier goes in its place — is collected.
        self._staged: list = []
        self._frontier = frontier
        self.dfs = spec.search(bound, root, self._staged)
        #: What a dead holder's subtree is re-explored with: never forks.
        self._spec = spec.replaying()
        self._tokens = tokens
        #: Cross-bound holder registry shared with the owning frontier
        #: search; when set (and the search has a frontier sink), deep
        #: bound-pruned points fork holders that park across bound
        #: transitions instead of dying with this subtree.
        self._cross = cross
        # Read at construction so tests and benchmarks can tune the fork
        # heuristic through the module constants.
        self.min_fork_steps = DEFAULT_MIN_FORK_STEPS
        self.max_holders = DEFAULT_MAX_HOLDERS
        self._holders: List[_Child] = []
        #: Write end of the result pipe this process owes its parent: set
        #: when a holder wakes, closed in every child it forks.
        self._res_w = -1
        #: In a woken holder, the pid of the process that collects its
        #: batch when that is its parent (sibling holders), else ``None``
        #: (cross-bound holders: the root collects them through the
        #: registry, and their forker may exit at any time).
        self._collector: Optional[int] = None
        #: Restored prefix steps in a freshly-woken holder: the flag that
        #: diverts the next ``_next()`` return into the holder drain loop
        #: instead of letting the child unwind inherited parent frames.
        self._woke: Optional[int] = None
        self._complete = False
        self._fork_broken = False
        #: Schedule of the most recently emitted run — the delta-decode
        #: base for the next suffix-encoded holder summary.
        self._last_sched: List[int] = []
        #: True while :meth:`runs` is inside a collected holder batch
        #: (records already decoded but not yet yielded); see
        #: :attr:`mid_batch`.
        self._mid_batch = False

    # -- public stream contract --------------------------------------------

    @property
    def exhausted(self) -> bool:
        return self._complete

    @property
    def mid_batch(self) -> bool:
        """Whether the stream is suspended inside a collected holder batch.

        A holder ships its whole subtree as one message, so records past
        the current yield already left their child process and exist only
        in this generator — :meth:`split_remaining` cannot hand them back
        as resumable edges.  Consumers that stop early to split (the
        sharding workers) must keep draining until this goes ``False``
        (it is cleared *on* the batch's final record, not after it).
        """
        return self._mid_batch

    def runs(self) -> Iterator[RunRecord]:
        """The merged run stream: own (truncated-tree) runs interleaved
        with collected holder batches, in exact serial DFS order."""
        dfs = self.dfs
        dfs.fork_hook = self._hook
        if self._cross is not None and self._frontier is not None:
            dfs.prune_hook = self._cross_hook
        gen = dfs.runs()
        try:
            while True:
                try:
                    record = self._next(gen)
                except StopIteration:
                    break
                if dfs.exhausted and not self._holders:
                    self._complete = True
                self._join(self._unstage())
                self._last_sched = record.result.schedule
                yield record
                # Holders whose forked point is deeper than the post-
                # backtrack stack hold subtrees that precede every later
                # own run: collect them now, newest (deepest) first.
                depth = dfs.depth
                while self._holders and self._holders[-1].depth > depth:
                    final_ok = dfs.exhausted and len(self._holders) == 1
                    yield from self._emit_holder(final_ok)
            while self._holders:  # pragma: no cover - drained at last yield
                yield from self._emit_holder(len(self._holders) == 1)
        finally:
            dfs.fork_hook = None
            dfs.prune_hook = None
            self.close()

    def split_remaining(self) -> List[PrunedEdge]:
        """Detach all unexplored work — the in-process remainder plus
        every parked holder's share, each where its forked point stood —
        as an ordered remainder (:meth:`BoundedDFS.split_remaining`).
        Holders are killed: ownership of their subtrees transfers with
        the edges.

        Only valid at a batch boundary (:attr:`mid_batch` ``False``):
        records still buffered inside a collected batch have no edge
        descriptor and would be lost."""
        edges: List[PrunedEdge] = []
        for item in self._staged + self.dfs.split_remaining():
            if isinstance(item, _Child):
                edges.extend(item.owns)
            else:
                edges.append(item)
        del self._staged[:]
        self.close()
        self._complete = True
        return edges

    def _unstage(self) -> List[PrunedEdge]:
        """Take the staged edges that precede the first uncollected
        holder's handle."""
        staged = self._staged
        n = 0
        for item in staged:
            if isinstance(item, _Child):
                break
            n += 1
        edges = staged[:n]
        del staged[:n]
        return edges

    def _join(self, edges: List[PrunedEdge]) -> None:
        if self._frontier is not None:
            self._frontier.extend(edges)

    def close(self) -> None:
        """Kill and reap every outstanding holder (idempotent)."""
        for holder in self._holders:
            holder.destroy()
        self._holders = []

    # -- forking -------------------------------------------------------------

    def _fork(self) -> Tuple[int, int, int]:
        """The one fork primitive: a child with a go pipe and a result
        pipe.  Returns like ``os.fork``: ``(pid, go_w, res_r)`` in the
        parent, ``(0, go_r, res_w)`` in the child, and ``(-1, -1, -1)``
        when no pipe or process can be made, which turns forking off for
        this runner.

        The child owns exactly those two ends: it drops every other
        inherited parent-side resource at once — registered pids, the
        parent ends of sibling holders, cross-bound holder fds and the
        registry's receive socket, and the result pipe the forking
        process owes its own parent — so pipe EOF and child accounting
        stay exact."""
        fds: List[int] = []
        forker = os.getpid()
        try:
            fds.extend(os.pipe())
            fds.extend(os.pipe())
            pid = os.fork()
        except OSError:
            _close(*fds)
            self._fork_broken = True
            return -1, -1, -1
        go_r, go_w, res_r, res_w = fds
        if pid:
            _close(go_r, res_w)
            return pid, go_w, res_r
        _close(go_w, res_r, self._res_w)
        self._res_w = -1
        _reset_child_registry()
        for holder in self._holders:
            _close(holder.go_w, holder.res_r)
        self._holders = []
        if self._tokens is not None:
            self._tokens.on_child()
        if self._cross is not None:
            self._cross.on_child()
        self._woke = None
        self._complete = False
        self._collector = forker
        return 0, go_r, res_w

    def _audit_wake(self, step_index: int, kernel, digest) -> None:
        """Woken child, once its follow-on holder is forked: re-anchor the
        inherited budget and audit the shared-object state against the
        fork-time digest."""
        budget = self.dfs.budget
        if budget is not None:
            budget.fork_reanchor()
        if digest is None:
            return
        state = objects_snapshot(kernel.naming.objects)
        if state != digest:
            changed = sorted(
                k for k in set(digest) | set(state)
                if digest.get(k) != state.get(k)
            )
            self._exit_with((
                "invariant",
                "snapshot restore audit failed: shared-object state at "
                f"wake (step {step_index}) differs from the fork-time "
                f"digest; changed: {changed}",
            ), 3)

    # -- sibling holders -----------------------------------------------------

    def _hook(self, cp, step_index: int, kernel) -> None:
        """``BoundedDFS.fork_hook``: called by the search right after
        pushing a new multi-candidate choice point (in whichever process
        is exploring)."""
        if (
            self._fork_broken
            or step_index < self.min_fork_steps
            or len(self._holders) >= self.max_holders
        ):
            return
        self._fork_holder(cp, step_index, kernel, _digest(kernel))

    def _fork_holder(self, cp, step_index: int, kernel, digest) -> bool:
        """Fork one parked holder owning ``cp``'s untried siblings and
        keep only its current candidate here.  Returns ``True`` on the
        parent side (holder registered, or fork unavailable), and
        ``False`` in a freshly *woken* holder child — by then the child's
        :meth:`_park` has already retargeted the point and set
        ``self._woke``, so the caller must return immediately and let the
        inherited ``execute()`` resume."""
        pid, go, res = self._fork()
        if pid == 0:
            self._park(go, res, cp, step_index, kernel, digest)
            return False  # woken: resume as the first untried sibling
        if pid > 0:
            child = _Child(pid, go, res, self.dfs.depth)
            child.owns = self.dfs.detach_untried(cp, child)
            self._holders.append(child)
        return True

    def _park(self, go_r, res_w, cp, step_index, kernel, digest) -> None:
        """Child side of a sibling-holder fork: sleep until woken (or
        EOF = parent gone), then retarget the forked point at the first
        untried sibling and let the inherited ``execute()`` continue."""
        try:
            wake = os.read(go_r, 1)
        except OSError:  # pragma: no cover - pipe failure
            wake = b""
        _close(go_r)
        if not wake:
            os._exit(2)  # parent finished or died without needing us
        self._res_w = res_w
        self.dfs.resume_sibling(cp)
        # Chain-fork: park a follow-on holder for the siblings *after*
        # the one this child is about to run, so every sibling at the
        # point — not just the first — resumes from a live image instead
        # of replaying the whole prefix.  The follow-on child repeats
        # this at its own wake, walking the candidate list one live
        # resume at a time.  The shared-state digest carries over
        # unchanged: nothing has stepped since the original fork.
        if cp.has_untried() and not self._fork_broken:
            if not self._fork_holder(cp, step_index, kernel, digest):
                return  # we are the follow-on holder; _woke is set
        self._audit_wake(step_index, kernel, digest)
        self._woke = step_index

    # -- cross-bound holders ---------------------------------------------------

    def _cross_hook(self, edges, step_index: int, kernel) -> Optional[int]:
        """``BoundedDFS.prune_hook``: called right after the bound cut
        off ``edges`` (that choice point's pruned candidates, which the
        pushed point hands on when popped).  Parent side: fork one parked
        holder owning the live image, tag the edges with its handle,
        return ``None``.
        In a freshly *woken* child the call instead returns the resumed
        edge's tid — the hook has re-rooted the search at that edge and
        the inherited ``execute()`` continues by running it as the new
        root's final step."""
        cross = self._cross
        if (
            self._fork_broken
            or step_index < self.min_fork_steps
            or not cross.may_fork()
        ):
            return None
        return self._cross_fork(dict(enumerate(edges)), step_index, kernel,
                                _digest(kernel), cross.next_id())

    def _cross_fork(self, owned, step_index, kernel, digest,
                    hid) -> Optional[int]:
        """Fork one parked holder owning ``owned`` (``{edge index:
        edge}``, indices stable across chain forks so every outstanding
        handle stays valid) and register it under ``hid``.  Returns
        ``None`` on the forking side; in the child, once a later bound
        wakes it, the resumed edge's tid."""
        pid, go, res = self._fork()
        if pid == 0:
            return self._cross_park(go, res, owned, step_index, kernel,
                                    digest, hid)
        if pid > 0:
            costs = {i: e.cost_after for i, e in owned.items()}
            if self._cross.register(hid, pid, go, res, costs, step_index):
                for i, edge in owned.items():
                    edge.holder = (hid, i)
            else:
                # Registration channel full or gone: kill the fresh
                # holder; the edges stay plain replayable descriptors.
                _Child(pid, go, res).destroy()
        return None

    def _cross_park(self, go_r, res_w, owned, step_index, kernel, digest,
                    hid) -> int:
        """Child side of a cross-bound fork: park on the live image until
        the frontier search resumes one of ``owned`` at a later bound,
        then re-root the inherited search at that edge and return its tid
        (the woken ``choose`` executes it as the new root's final step)."""
        msg = _read_msg(go_r)
        _close(go_r)
        if msg is None:
            os._exit(2)  # search finished or died without resuming us
        self._res_w = res_w
        self._collector = None
        new_bound, j = msg
        edge = owned.pop(j, None)
        if edge is None:  # pragma: no cover - registry never sends these
            os._exit(2)
        if owned:
            # Chain-fork a follow-on holder for the edges not resumed
            # now, *before* the re-root below mutates inherited state;
            # it re-registers under the same holder id (datagram queued
            # before this child's batch, so the root adopts it in time).
            chained = self._cross_fork(owned, step_index, kernel, digest,
                                       hid)
            if chained is not None:
                return chained  # we are the follow-on, freshly re-rooted
        self._audit_wake(step_index, kernel, digest)
        self.dfs.reroot(edge, new_bound)
        self._woke = step_index
        return edge.tid

    # -- child containment ---------------------------------------------------

    def _next(self, gen) -> RunRecord:
        """Advance the search generator with woken-child containment: a
        child that just resumed inside ``execute()`` surfaces here on its
        first completed run and is diverted into the holder drain loop;
        anything it raises is shipped as an error instead of unwinding
        into frames inherited from the parent."""
        try:
            record = next(gen)
        except StopIteration:
            if self._woke is not None:  # pragma: no cover - impossible
                self._exit_with(("err", "woken holder produced no run"), 1)
            raise
        except BaseException:
            if self._woke is not None:
                self._exit_with(("err", traceback.format_exc()), 1)
            raise
        if self._woke is not None:
            self._become_holder(record, gen)  # never returns
        return record

    def _exit_with(self, msg, code: int) -> None:
        """Ship ``msg`` on the result pipe and exit (holder side)."""
        try:
            _write_msg(self._res_w, msg)
        except BaseException:
            pass
        os._exit(code)

    def _become_holder(self, first: RunRecord, gen) -> None:
        """Woken child: drain the sibling subtree synchronously, ship the
        batch on the result pipe, exit.  Never returns."""
        restored = self._woke
        self._woke = None
        try:
            batch = self._drain_as_holder(first, gen, restored)
        except BaseException:
            self._exit_with(("err", traceback.format_exc()), 1)
        self._exit_with(("ok", batch), 0)

    def _drain_as_holder(self, first: RunRecord, gen,
                         restored: int) -> dict:
        """Holder drain loop: same merge logic as :meth:`runs`, but
        synchronous, accumulating ``(RunSummary, cost, pruned_any)``
        tuples plus the frontier edges this subtree pruned, in DFS order
        (staged edges flushed around each nested batch).  A run starts
        with the stage empty, so all it holds after the wake is this
        holder's own.

        The batch ships as a list of opaque pre-pickled *segments*: own
        runs are pickled once here, nested holder batches are spliced in
        as the byte segments they arrived as.  Relaying bytes through an
        ancestor costs a memcpy, not a re-serialization, so a summary
        crossing a deep holder chain is pickled exactly once no matter
        how many hops it takes to reach the root."""
        dfs = self.dfs
        segments: List[bytes] = []
        cur: List[Tuple[RunSummary, int, bool]] = []
        out_frontier: List[dict] = []
        collector = self._collector

        def flush_cur() -> None:
            if cur:
                segments.append(
                    pickle.dumps(cur, protocol=pickle.HIGHEST_PROTOCOL)
                )
                del cur[:]

        def flush_frontier() -> None:
            out_frontier.extend(e.to_payload() for e in self._unstage())

        # Delta encoding: this run's first ``restored`` schedule entries
        # are bit-identical to the stream predecessor's (both executed
        # the shared prefix up to the fork point), so ship only the
        # suffix.  ``restored_steps`` doubles as the prefix length;
        # :func:`decode_batch` re-attaches the prefix.  Slicing past the
        # prefix also keeps this child from copy-on-write faulting every
        # page the prefix entries live on.
        summary = RunSummary.from_result(first.result,
                                         schedule_base=restored)
        summary.restored_steps = restored
        cur.append((summary, first.cost, bool(first.pruned_any)))
        exhausted = True
        while True:
            if summary.outcome is Outcome.TIMEOUT:
                exhausted = False
                break
            if collector is not None and os.getppid() != collector:
                os._exit(2)  # orphaned mid-drain: no one will collect us
            flush_frontier()
            depth = dfs.depth
            while self._holders and self._holders[-1].depth > depth:
                holder, sub = self._next_batch()
                self._staged.remove(holder)
                flush_cur()
                segments.extend(sub["segments"])
                out_frontier.extend(sub["frontier"])
                flush_frontier()
                if not sub["exhausted"]:
                    exhausted = False
                    break
            if not exhausted:
                break
            try:
                record = self._next(gen)
            except StopIteration:
                break
            summary = RunSummary.from_result(record.result)
            cur.append((summary, record.cost, bool(record.pruned_any)))
        self.close()  # holders are left only on an early (timeout) stop
        flush_cur()
        flush_frontier()
        return {"segments": segments, "frontier": out_frontier,
                "exhausted": exhausted}

    # -- parent-side collection ----------------------------------------------

    def _next_batch(self) -> Tuple[_Child, dict]:
        """Pop the newest holder, whose batch comes next in DFS order, and
        collect it.  The one look-ahead rule: before blocking on it, wake
        the holders after it, newest first, each on a free token; a
        holder woken ahead hands its token back here, once this process
        starts blocking on it."""
        holder = self._holders.pop()
        holder.release()
        holder.wake()
        tokens = self._tokens
        if tokens is not None:
            for later in reversed(self._holders):
                if later.go_w < 0:
                    continue  # already woken ahead
                if not tokens.take():
                    break
                later.ahead = tokens
                later.wake()
        return holder, self._collect(holder)

    def _collect(self, holder: _Child) -> dict:
        """Wake one holder and block for its batch.  A dead or failed
        holder degrades to walking its stored remainder in-process with
        the plain replaying search — same records, same order, same
        frontier (including any exception the subtree deterministically
        raises), no snapshot win."""
        msg = _read_msg(holder.res_r) if holder.wake() else None
        holder.reap()
        batch = _batch(msg)
        if batch is not None:
            return batch
        bound = self.dfs.bound
        segments: List[bytes] = []
        frontier: List[dict] = []
        exhausted = True
        for edge in holder.owns:
            if not affords(bound, edge):
                frontier.append(edge.to_payload())
                continue
            runs, sub_frontier, _, exhausted = _subtree_worker(
                self._spec, bound, edge.to_payload(), None,
                self._frontier is not None,
            )
            segments.append(
                pickle.dumps(runs, protocol=pickle.HIGHEST_PROTOCOL)
            )
            frontier.extend(sub_frontier)
            if not exhausted:
                break
        return {"segments": segments, "frontier": frontier,
                "exhausted": exhausted}

    def _emit_holder(self, final_ok: bool) -> Iterator[RunRecord]:
        """Collect the newest holder and emit its batch.  ``final_ok``:
        this batch can carry the stream's final record (own search
        exhausted and no other holder outstanding)."""
        holder, sub = self._next_batch()
        if self._cross is not None:
            # Keep the registration queue shallow: adopt (and cap) the
            # cross-bound holders this batch's subtree just parked.
            self._cross.drain()
        # The batch's frontier goes where the holder's handle was staged,
        # ahead of the edges it held back.
        self._staged.remove(holder)
        self._join([PrunedEdge.from_payload(p) for p in sub["frontier"]])
        self._join(self._unstage())
        records = decode_batch(sub, self._last_sched)
        last = len(records) - 1
        for i, record in enumerate(records):
            self._last_sched = record.result.schedule
            if final_ok and sub["exhausted"] and i == last:
                self._complete = True
            self._mid_batch = i < last
            yield record


# -- convenience constructors ------------------------------------------------


def snapshot_dfs(
    program,
    *,
    visible_filter=None,
    max_steps: int = DEFAULT_MAX_STEPS,
    spurious_wakeups: int = 0,
    budget=None,
) -> SnapshotRunner:
    """A snapshot-backed unbounded DFS (the ``DFSExplorer`` backend)."""
    spec = SubtreeSpec(
        program,
        NO_BOUND,
        visible_filter=visible_filter,
        max_steps=max_steps,
        spurious_wakeups=spurious_wakeups,
        budget=budget,
    )
    return SnapshotRunner(spec, None, tokens=_search_tokens())


class SnapshotFrontierSearch(FrontierSearch):
    """Frontier-resuming backend whose per-subtree searches fork COW
    holders: ``snapshots=`` under IPB/IDB.  Same enumerated set, order,
    and frontier as :class:`~repro.core.iterative.FrontierSearch`.

    Beyond the per-subtree (intra-bound) holders, deep bound-pruned
    points park **cross-bound** holders in a :class:`CrossBoundRegistry`:
    when a later bound affords such an edge, :meth:`runs_at_bound`
    resumes the subtree from the holder's live image instead of replaying
    the whole prefix from step 0 — the iterative-bounding analogue of the
    plain-DFS snapshot win.  Any miss (evicted, dead, fork-unavailable)
    falls back to the classic replayed ``_subtree`` with identical
    records in identical order.
    """

    def __init__(self, program, cost_model, **kwargs) -> None:
        super().__init__(program, cost_model, **kwargs)
        self._tokens = _search_tokens()
        self._cross = CrossBoundRegistry(self._tokens)

    def _subtree(self, bound, root) -> SnapshotRunner:
        # The runner's ``runs()`` closes itself (try/finally) even when
        # the consumer stops mid-stream, so the base-class enumeration
        # needs no extra cleanup.
        return SnapshotRunner(self.spec, bound, root=root,
                              frontier=self._frontier, cross=self._cross,
                              tokens=self._tokens)

    def runs_at_bound(self, bound: int) -> Iterator[RunRecord]:
        if not self._started:
            yield from super().runs_at_bound(bound)
            return
        old, self._frontier = self._frontier, Frontier(self._limit)
        ahead = None
        if self._tokens is not None:
            ahead = _Upcoming(old, bound, self._cross).wake
        for entry in in_order(old, bound, self._frontier):
            sub = self._cross.resume(entry.holder, bound, ahead)
            if sub is None:
                # No live image for this edge — classic prefix replay.
                yield from self._subtree(bound, entry).runs()
                continue
            self._frontier.extend(
                PrunedEdge.from_payload(p) for p in sub["frontier"]
            )
            yield from decode_batch(sub, entry.schedule)

    def close(self) -> None:
        """Kill every cross-bound holder still parked or woken, and close
        the token file (idempotent)."""
        self._cross.close()
        if self._tokens is not None:
            self._tokens.close()


class _Upcoming:
    """The cross-bound look-ahead of one frontier walk.  :func:`in_order`
    walks ``edges`` from its end, so ``edges[-1]`` is always the next
    entry; ``scan`` indexes the next entry to examine (every entry above
    it has been examined or walked; walked ones drop off the end)."""

    __slots__ = ("edges", "bound", "cross", "scan")

    def __init__(self, edges: List[PrunedEdge], bound: int,
                 cross: CrossBoundRegistry) -> None:
        self.edges = edges
        self.bound = bound
        self.cross = cross
        self.scan = len(edges) - 1

    def wake(self) -> None:
        """Wake the holders of the next affordable entries, in walk
        order, until no token is free."""
        edges = self.edges
        self.scan = min(self.scan, len(edges) - 1)
        while self.scan >= 0:
            edge = edges[self.scan]
            if affords(self.bound, edge) and not self.cross.wake_ahead(
                edge.holder, self.bound
            ):
                return
            self.scan -= 1
