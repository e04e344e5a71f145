"""Host-speed probes: the benchmark's times in reference seconds.

The hosts this benchmark runs on share their vCPUs with other tenants,
and a vCPU's speed drifts by up to 1.8x over seconds to minutes (the
same repeat of ``por-suite`` took 15 to 25 s within four minutes).  The
drift is per vCPU: the two vCPUs of one host slow down independently.
No number of repeats averages that out, so every time the benchmark
reports is normalised by the speed the vCPUs ran at meanwhile:

    reference seconds = seconds x REFERENCE_MS / probe reading

One probe process per vCPU, pinned to it, wakes every ``PERIOD_S`` and
times a fixed pointer-chasing loop over a few hundred KiB of objects and
dict entries (interpreter work that slows down as this program's does)
by its own CPU time, so being descheduled does not count.  A reading is
the mean over the probes of the vCPUs the measured work ran on, taken in
the work's own time span.  The probe code is the benchmark's, not the
program's: a change to the program moves the work's time, not the
probe's.
"""

from __future__ import annotations

import multiprocessing
import os
import random
import statistics
import time
from typing import Dict, Iterable, List, Optional, Tuple

#: Seconds between two probe readings on one vCPU (each takes ~1 ms,
#: about 2% of the vCPU).
PERIOD_S = 0.05
#: Steps of the probe loop per reading: the first ones run on caches the
#: work left cold, the rest on warm ones, and together they slow down as
#: the workloads do (on ``por-suite``, log wall time over log reading
#: had slope 1.0-1.2 across repeats, against 1.5-1.7 for either half).
STEPS = 4_000
#: The probe reading, in ms, that defines a reference second: about what
#: it reads on the baseline host while the workloads run at their
#: quickest there, so reference seconds are close to seconds on a quiet
#: host (see README.md).
REFERENCE_MS = 1.25
#: A span shorter than this is widened around its middle to pick
#: readings: a 2 ms cell still gets about ten per vCPU.
MIN_SPAN_S = 0.5
#: A probe process that has no reading this long after it was started
#: fails the run.
START_TIMEOUT_S = 30.0


class _Node:
    __slots__ = ("key", "label", "next")

    def __init__(self, key: int) -> None:
        self.key = key
        self.label = str(key)
        self.next: Optional[_Node] = None


def _heap(n: int = 2_000, seed: int = 1):
    """A shuffled ring of ``n`` objects plus a dict over tuple keys."""
    nodes = [_Node(i) for i in range(n)]
    order = list(range(n))
    random.Random(seed).shuffle(order)
    for a, b in zip(order, order[1:] + order[:1]):
        nodes[a].next = nodes[b]
    return nodes, {(node.key, node.key & 7): node for node in nodes}


def _walk(heap, start: int, steps: int = STEPS) -> int:
    nodes, table = heap
    node, acc = nodes[start % len(nodes)], 0
    for _ in range(steps):
        node = node.next
        acc += node.key & 3
        acc ^= len(table[node.key, node.key & 7].label)
    return acc


def _probe(cpu: int, conn, stop, parent: int) -> None:
    os.sched_setaffinity(0, {cpu})
    heap, out, k = _heap(), [], 0
    while not stop.is_set() and os.getppid() == parent:
        stamp = time.time()
        c0 = time.thread_time()
        _walk(heap, k)
        out.append((stamp, time.thread_time() - c0))
        if k == 0:
            conn.send(None)  # started: the first reading is in
        k += 1
        time.sleep(PERIOD_S)
    conn.send(out)
    conn.close()


class Probes:
    """One probe process per vCPU of this process's affinity, for the
    length of the ``with`` block; readings are kept afterwards."""

    def __init__(self, cpus: Optional[Iterable[int]] = None) -> None:
        self.cpus = sorted(cpus if cpus is not None
                           else os.sched_getaffinity(0))
        self.readings: Dict[int, List[Tuple[float, float]]] = {}
        self._procs: list = []

    def __enter__(self) -> "Probes":
        # fork: no thread runs when probes start, and spawn would leave
        # multiprocessing's resource tracker process running.
        ctx = multiprocessing.get_context("fork")
        self._stop = ctx.Event()
        try:
            for cpu in self.cpus:
                recv, send = ctx.Pipe(duplex=False)
                proc = ctx.Process(target=_probe, daemon=True,
                                   args=(cpu, send, self._stop, os.getpid()))
                proc.start()
                send.close()
                self._procs.append((cpu, proc, recv))
            # Every probe has a reading before any work starts.
            for cpu, _, recv in self._procs:
                if not recv.poll(START_TIMEOUT_S):
                    raise RuntimeError(f"speed probe on vCPU {cpu} did not "
                                       "start")
                recv.recv()
        except BaseException:
            self._halt()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._halt()

    def _halt(self) -> None:
        self._stop.set()
        for cpu, proc, recv in self._procs:
            try:
                if recv.poll(10.0):
                    self.readings[cpu] = recv.recv()
            except (EOFError, OSError):
                pass
            finally:
                recv.close()
            proc.join(5.0)
            if proc.is_alive():
                proc.kill()
                proc.join()
        self._procs = []
        missing = [cpu for cpu in self.cpus if not self.readings.get(cpu)]
        if missing:
            raise RuntimeError(f"no speed probe readings from vCPU(s) "
                               f"{missing}")

    def reading_ms(self, start: float, end: float,
                   cpus: Optional[Iterable[int]] = None) -> float:
        """Mean probe reading (ms) over ``[start, end]`` (``time.time()``
        stamps, widened to ``MIN_SPAN_S``) on ``cpus`` (default all)."""
        pad = max(0.0, MIN_SPAN_S - (end - start)) / 2
        lo, hi = start - pad, end + pad
        picked = [d for cpu in (self.cpus if cpus is None else cpus)
                  for t, d in self.readings[cpu] if lo <= t <= hi]
        if not picked:
            raise RuntimeError(f"no speed probe reading in [{lo:.3f}, "
                               f"{hi:.3f}]")
        return 1e3 * statistics.fmean(picked)

    def scale(self, start: float, end: float,
              cpus: Optional[Iterable[int]] = None) -> float:
        """Reference seconds per second over the span."""
        return REFERENCE_MS / self.reading_ms(start, end, cpus)
