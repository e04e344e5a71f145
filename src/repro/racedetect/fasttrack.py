"""FastTrack-style dynamic data race detection over engine executions.

The paper's methodology (section 5, *Data Race Detection Phase*) runs
Maple's happens-before race detector for ten uncontrolled executions and
promotes every racy instruction to a visible operation.  This module is our
detector: an :class:`~repro.engine.trace.ExecutionObserver` implementing
the FastTrack algorithm (Flanagan & Freund, PLDI'09) — vector clocks for
synchronisation, epoch fast paths for memory accesses.

Happens-before edges modelled:

====================  =====================================================
event                 effect
====================  =====================================================
spawn                 child clock ⊇ parent; parent ticks (fork rule)
join                  parent ⊔= child (join rule)
lock / reacquire      acquirer ⊔= L(m)
unlock / cond_wait    L(m) := C(t); t ticks (cond_wait releases the mutex)
sem_post              L(s) ⊔= C(t); t ticks
sem_wait              acquirer ⊔= L(s)
cond signal→wake      woken ⊔= waker (captured via the engine's wake hook)
barrier               all-to-all: arrivals accumulate into L(b); every
                      party ⊔= L(b) at release
sc atomics            full fence per op: C(t) ⊔= L(a); L(a) ⊔= C(t)
====================  =====================================================

Plain ``SharedVar``/``SharedArray`` accesses — including ``await_value``,
which models ad-hoc busy-wait on a racy flag — are checked for races.
Atomics never race (they are C++11 atomics; the CHESS benchmarks were
ported exactly that way in the paper).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set, Tuple

from ..engine.trace import ExecutionObserver
from ..runtime.objects import Atomic, Barrier, CondVar, SharedArray
from ..runtime.ops import Op, OpKind
from .vectorclock import Epoch, VectorClock

#: A location: (object name, element index or None).
Location = Tuple[str, Any]
#: site of the earlier access, site of the later access, and kinds.
RacePair = Tuple[str, str]


class RaceReport:
    """One detected race: two concurrent conflicting accesses."""

    __slots__ = ("location", "first_site", "second_site", "first_is_write", "second_is_write")

    def __init__(
        self,
        location: Location,
        first_site: str,
        second_site: str,
        first_is_write: bool,
        second_is_write: bool,
    ) -> None:
        self.location = location
        self.first_site = first_site
        self.second_site = second_site
        self.first_is_write = first_is_write
        self.second_is_write = second_is_write

    @property
    def sites(self) -> Tuple[str, str]:
        return (self.first_site, self.second_site)

    def key(self) -> Tuple[Location, str, str]:
        return (self.location, self.first_site, self.second_site)

    def __repr__(self) -> str:
        a = "W" if self.first_is_write else "R"
        b = "W" if self.second_is_write else "R"
        return (
            f"RaceReport({self.location[0]}"
            f"{'' if self.location[1] is None else '[' + str(self.location[1]) + ']'}"
            f": {a}@{self.first_site} || {b}@{self.second_site})"
        )


class _VarState:
    """Per-location FastTrack state with site bookkeeping for reporting."""

    __slots__ = ("write_epoch", "write_site", "read_epoch", "read_site", "read_vc", "read_sites")

    def __init__(self) -> None:
        self.write_epoch: Optional[Epoch] = None
        self.write_site: str = "?"
        # Exclusive-reader fast path:
        self.read_epoch: Optional[Epoch] = None
        self.read_site: str = "?"
        # Shared-read slow path:
        self.read_vc: Optional[VectorClock] = None
        self.read_sites: Dict[int, str] = {}


_READ_KINDS = frozenset({OpKind.LOAD, OpKind.AWAIT})
_WRITE_KINDS = frozenset({OpKind.STORE})
_ATOMIC_KINDS = frozenset({OpKind.RMW, OpKind.CAS})
_ACQUIRE_KINDS = frozenset({OpKind.LOCK, OpKind.REACQUIRE})


def location_of(op: Op) -> Location:
    """Memory-location identity of an access: (object name, index|None)."""
    if isinstance(op.target, SharedArray):
        return (op.target.name, op.arg)
    return (op.target.name, None)


def _atomic_fence_name(op: Op) -> str:
    """Fence-clock identity for an RMW/CAS: per cell for array atomics, so
    atomics on distinct cells of one array do not order each other."""
    if isinstance(op.target, SharedArray):
        return f"{op.target.name}[{op.arg}]"
    return op.target.name


class FastTrackDetector(ExecutionObserver):
    """Observe one (or more) executions and collect data races.

    Reuse across executions accumulates races; per-execution clock state
    resets in :meth:`on_start`.
    """

    def __init__(self) -> None:
        self.races: List[RaceReport] = []
        self._seen: Set[Tuple[Location, str, str]] = set()
        self._threads: Dict[int, VectorClock] = {}
        self._locks: Dict[str, VectorClock] = {}
        self._vars: Dict[Location, _VarState] = {}
        self._barrier_parked: Dict[str, List[int]] = {}

    # -- lifecycle -----------------------------------------------------------

    def on_start(self, shared: Any) -> None:
        self._threads = {0: VectorClock({0: 1})}
        self._locks = {}
        self._vars = {}
        self._barrier_parked = {}

    def _clock(self, tid: int) -> VectorClock:
        vc = self._threads.get(tid)
        if vc is None:
            vc = VectorClock({tid: 1})
            self._threads[tid] = vc
        return vc

    def _lock_vc(self, name: str) -> VectorClock:
        vc = self._locks.get(name)
        if vc is None:
            vc = VectorClock()
            self._locks[name] = vc
        return vc

    # -- event dispatch --------------------------------------------------------

    def on_step(self, tid: int, op: Op, result: Any, visible: bool) -> None:
        k = op.kind
        if k in _READ_KINDS:
            if isinstance(op.target, Atomic):
                # Awaiting an atomic flag is an acquire of its fence clock.
                self._clock(tid).join(self._lock_vc("@atomic:" + op.target.name))
            else:
                self._read(tid, op)
            return
        if k in _WRITE_KINDS:
            self._write(tid, op)
            return
        if k in _ATOMIC_KINDS:
            vc = self._clock(tid)
            lvc = self._lock_vc("@atomic:" + _atomic_fence_name(op))
            vc.join(lvc)
            lvc.join(vc)
            return
        if k in _ACQUIRE_KINDS:
            self._clock(tid).join(self._lock_vc(op.target.name))
            return
        if k is OpKind.TRYLOCK:
            if result:
                self._clock(tid).join(self._lock_vc(op.target.name))
            return
        if k is OpKind.UNLOCK:
            self._release(tid, op.target.name)
            return
        if k is OpKind.COND_WAIT:
            # Releases the mutex (op.arg) before parking.
            self._release(tid, op.arg.name)
            return
        if k is OpKind.SEM_POST:
            vc = self._clock(tid)
            self._lock_vc(op.target.name).join(vc)
            vc.tick(tid)
            return
        if k is OpKind.SEM_WAIT:
            self._clock(tid).join(self._lock_vc(op.target.name))
            return
        if k is OpKind.SPAWN:
            self._fork(tid, result.tid)
            return
        if k is OpKind.SPAWN_MANY:
            for handle in result:
                self._fork(tid, handle.tid)
            return
        if k is OpKind.JOIN:
            self._clock(tid).join(self._clock(op.target.tid))
            return
        if k is OpKind.BARRIER_WAIT:
            self._barrier(tid, op.target, is_last=bool(result))
            return
        # YIELD / NOOP / RW ops: rwlocks release/acquire like mutexes.
        if k is OpKind.RW_RDLOCK or k is OpKind.RW_WRLOCK:
            self._clock(tid).join(self._lock_vc(op.target.name))
            return
        if k is OpKind.RW_UNLOCK:
            self._release(tid, op.target.name)
            return

    def on_wake(self, waker: int, woken: int, obj: Any) -> None:
        if isinstance(obj, CondVar):
            # signal happens-before wake-up.
            self._clock(woken).join(self._clock(waker))
        elif isinstance(obj, Barrier):
            self._barrier_parked.setdefault(obj.name, []).append(woken)

    # -- sync helpers ------------------------------------------------------------

    def _release(self, tid: int, lock_name: str) -> None:
        vc = self._clock(tid)
        self._locks[lock_name] = vc.copy()
        vc.tick(tid)

    def _fork(self, parent: int, child: int) -> None:
        pvc = self._clock(parent)
        cvc = self._clock(child)
        cvc.join(pvc)
        pvc.tick(parent)

    def _barrier(self, tid: int, barrier: Barrier, is_last: bool) -> None:
        lvc = self._lock_vc("@barrier:" + barrier.name)
        lvc.join(self._clock(tid))
        if is_last:
            # Release: every parked party (recorded via on_wake) and the
            # last arriver acquire the accumulated clock.
            parked = self._barrier_parked.pop(barrier.name, [])
            for wtid in parked:
                vc = self._clock(wtid)
                vc.join(lvc)
                vc.tick(wtid)
            vc = self._clock(tid)
            vc.join(lvc)
            vc.tick(tid)
            self._locks.pop("@barrier:" + barrier.name, None)

    # -- access checking ------------------------------------------------------------

    def _report(
        self,
        loc: Location,
        first_site: str,
        second_site: str,
        first_w: bool,
        second_w: bool,
    ) -> None:
        key = (loc, first_site, second_site)
        if key in self._seen:
            return
        self._seen.add(key)
        self.races.append(RaceReport(loc, first_site, second_site, first_w, second_w))

    def _read(self, tid: int, op: Op) -> None:
        loc = location_of(op)
        st = self._vars.get(loc)
        if st is None:
            st = self._vars[loc] = _VarState()
        vc = self._clock(tid)
        # write-read race?
        if st.write_epoch is not None and not vc.covers_epoch(st.write_epoch):
            self._report(loc, st.write_site, op.site, True, False)
        # Record the read.
        if st.read_vc is not None:
            st.read_vc.set(tid, vc.get(tid))
            st.read_sites[tid] = op.site
            return
        if st.read_epoch is None or st.read_epoch[0] == tid or vc.covers_epoch(st.read_epoch):
            st.read_epoch = vc.epoch(tid)
            st.read_site = op.site
            return
        # Concurrent reads: inflate to a read vector clock (FastTrack's
        # SHARED transition).
        st.read_vc = VectorClock({st.read_epoch[0]: st.read_epoch[1], tid: vc.get(tid)})
        st.read_sites = {st.read_epoch[0]: st.read_site, tid: op.site}
        st.read_epoch = None

    def _write(self, tid: int, op: Op) -> None:
        loc = location_of(op)
        st = self._vars.get(loc)
        if st is None:
            st = self._vars[loc] = _VarState()
        vc = self._clock(tid)
        # write-write race?
        if st.write_epoch is not None and not vc.covers_epoch(st.write_epoch):
            self._report(loc, st.write_site, op.site, True, True)
        # read-write races?
        if st.read_vc is not None:
            for rtid, rclk in list(st.read_vc.items()):
                if rtid != tid and rclk > vc.get(rtid):
                    self._report(loc, st.read_sites.get(rtid, "?"), op.site, False, True)
            st.read_vc = None
            st.read_sites = {}
        elif st.read_epoch is not None:
            if st.read_epoch[0] != tid and not vc.covers_epoch(st.read_epoch):
                self._report(loc, st.read_site, op.site, False, True)
            st.read_epoch = None
        st.write_epoch = vc.epoch(tid)
        st.write_site = op.site

    # -- results -------------------------------------------------------------------

    @property
    def racy_sites(self) -> Set[str]:
        out: Set[str] = set()
        for race in self.races:
            out.add(race.first_site)
            out.add(race.second_site)
        return out

    @property
    def has_races(self) -> bool:
        return bool(self.races)
