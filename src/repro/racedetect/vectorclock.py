"""Vector clocks and epochs for happens-before race detection.

Batched (SWAR-packed) clocks: a whole vector clock lives in one Python
``int``, 64 bits per thread lane, so every hot FastTrack operation is a
handful of big-integer primitives that CPython executes in C over the
entire clock at once instead of a Python-level loop over components:

- ``join`` (the ⊔ of the FastTrack rules) computes a per-lane ``a >= b``
  mask with one guarded subtraction — the carry out of each lane's guard
  bit records the comparison — and blends the two clocks with two ANDs
  and an OR;
- ``leq`` is the same guarded subtraction and a mask compare;
- ``copy`` is free: ints are immutable, so copies share the value and
  the first mutation rebinds it.  That matters because FastTrack's
  release rule (``L(m) := C(t)``) copies a clock on every unlock/post,
  and most of those copies are only ever read (joined into acquirers);
- ``get``/``tick``/``covers_epoch`` are a shift and a mask.

Per-op constants beat the sparse dict from ~8 threads and scale past 2x
at 64; below that the two are within noise (the dict's per-item loop is
short).  Lane payloads must stay below ``2**63`` — the top bit of each
lane is the comparison guard — which every engine-bounded execution
satisfies by orders of magnitude (components count visible steps).

The previous sparse dict-backed clock lives on in ``tests/oracles.py`` as
the reference model for the property tests and the baseline of the
vector-clock microbenchmark.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Tuple

#: An *epoch* c@t — the FastTrack scalar abstraction of a vector clock.
Epoch = Tuple[int, int]  # (tid, clock)

_MASK = (1 << 64) - 1

#: lane count -> (guard-bit mask H, all-ones FULL, per-lane low bit).
_LANE_TABLES: Dict[int, Tuple[int, int, int]] = {}

#: ``1 << (64 * tid)`` interned per tid (tick's hot operand).
_SHIFTS = [1 << (64 * t) for t in range(16)]


def _lanes(n: int) -> Tuple[int, int, int]:
    table = _LANE_TABLES.get(n)
    if table is None:
        full = (1 << (64 * n)) - 1
        lane_ones = full // _MASK  # bit 0 of every lane
        table = (lane_ones << 63, full, lane_ones)
        _LANE_TABLES[n] = table
    return table


def _shift(tid: int) -> int:
    while tid >= len(_SHIFTS):
        _SHIFTS.append(1 << (64 * len(_SHIFTS)))
    return _SHIFTS[tid]


class VectorClock:
    """A mutable vector clock over thread ids, packed into one int.

    Thread ``t``'s component occupies bits ``64*t .. 64*t+63``; components
    must stay below ``2**63`` (the lane's top bit is the SWAR comparison
    guard).  All components default to 0; ``_n`` tracks the materialised
    lane count (trailing zero lanes are free either way — they are just
    zero bits).
    """

    __slots__ = ("_v", "_n")

    def __init__(self, clocks: Optional[Dict[int, int]] = None) -> None:
        v = 0
        n = 0
        if clocks:
            for tid, clk in clocks.items():
                v |= clk << (64 * tid)
            n = max(clocks) + 1
        self._v = v
        self._n = n

    @property
    def clocks(self) -> Dict[int, int]:
        """Sparse dict view (non-zero components) — read-only snapshot."""
        return dict(self.items())

    def copy(self) -> "VectorClock":
        other = VectorClock.__new__(VectorClock)
        other._v = self._v
        other._n = self._n
        return other

    def get(self, tid: int) -> int:
        return (self._v >> (64 * tid)) & _MASK

    def set(self, tid: int, value: int) -> None:
        """Assign one component (used by FastTrack's shared-read clock)."""
        s = 64 * tid
        self._v = (self._v & ~(_MASK << s)) | (value << s)
        if tid >= self._n:
            self._n = tid + 1

    def tick(self, tid: int) -> None:
        """Increment this thread's component."""
        self._v += _shift(tid)
        if tid >= self._n:
            self._n = tid + 1

    def join(self, other: "VectorClock") -> None:
        """Pointwise maximum (the ⊔ of the FastTrack rules), in place.

        One pass of C-speed int arithmetic: ``(a | H) - b`` leaves each
        lane's guard bit set iff ``a >= b`` there (lane payloads are below
        the guard, so borrows never cross lanes), the guard bits spread to
        full-lane masks via a multiply, and the masks blend ``a``/``b``.
        """
        a = other._v
        b = self._v
        if a == b or not a:
            return
        if not b:
            self._v = a
            if other._n > self._n:
                self._n = other._n
            return
        n = other._n if other._n >= self._n else self._n
        grd, full, lane_ones = _lanes(n)
        mask = ((((a | grd) - b) >> 63) & lane_ones) * _MASK
        self._v = (a & mask) | (b & (full ^ mask))
        if other._n > self._n:
            self._n = other._n

    def epoch(self, tid: int) -> Epoch:
        """This thread's current epoch ``c@t``."""
        return (tid, (self._v >> (64 * tid)) & _MASK)

    def covers_epoch(self, epoch: Epoch) -> bool:
        """``c@t ≤ V`` iff ``c ≤ V(t)`` — the FastTrack fast-path check."""
        tid, clk = epoch
        return clk <= (self._v >> (64 * tid)) & _MASK

    def leq(self, other: "VectorClock") -> bool:
        """Pointwise ≤ (happens-before between fully-known clocks)."""
        n = other._n if other._n >= self._n else self._n
        if n == 0:
            return True
        grd, _full, lane_ones = _lanes(n)
        survived = (((other._v | grd) - self._v) >> 63) & lane_ones
        return survived == lane_ones

    def items(self) -> Iterator[Tuple[int, int]]:
        """Iterate the non-zero components, ascending by thread id."""
        v = self._v
        tid = 0
        while v:
            clk = v & _MASK
            if clk:
                yield (tid, clk)
            v >>= 64
            tid += 1

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VectorClock):
            return NotImplemented
        return self._v == other._v

    def __hash__(self) -> int:  # pragma: no cover - clocks are mutable
        raise TypeError("VectorClock is mutable and unhashable")

    def __repr__(self) -> str:
        inner = ", ".join(f"T{t}:{c}" for t, c in self.items())
        return f"VC({inner})"
