"""Snapshot-backed exploration is observationally identical to serial replay.

The contract (DESIGN.md section 15): with ``snapshots=True`` the
stateless bounded explorers (IPB/IDB/DFS) produce byte-identical
``as_dict()`` stats and enumerate the same terminal schedules in the same
order as the classic serial search; only wall-clock and the telemetry
counters (``replayed_steps`` vs ``snapshot_restored_steps``) differ.  The
knob composes with ``shards=`` and silently degrades to the serial replay
fast path where ``os.fork`` is unavailable.  Every holder owns exactly
its own two pipe ends.

Also here, because they ship in the same change:

- :meth:`repro.core.budget.Budget.fork_reanchor` — the deadline-transfer
  handshake a forked snapshot child performs so an inherited budget never
  widens and is polled promptly;
- property tests pinning the packed
  :class:`repro.racedetect.vectorclock.VectorClock` to the sparse
  ``DictVectorClock`` reference model in ``tests/oracles.py``.
"""

from __future__ import annotations

import fcntl
import itertools
import os
import random
import stat
import time

import pytest

from repro.core import (
    DELAY,
    PREEMPTION,
    DFSExplorer,
    IterativeBPORExplorer,
    make_idb,
    make_ipb,
)
from repro.core.bounds import NoBoundCost
from repro.core.budget import Budget
from repro.core.dfs import BoundedDFS
from repro.core.explorer import EngineCounters
from repro.core.iterative import FrontierSearch
from repro.engine import snapshot as snap
from repro.racedetect.vectorclock import VectorClock

from .oracles import DictVectorClock
from .programs import (
    barrier_rendezvous,
    crasher,
    figure1,
    lock_order_deadlock,
    lost_signal,
    producer_consumer_sem,
    safe_counter,
    unsafe_counter,
)

GRID = [
    figure1,
    lambda: figure1(clone_count=2),
    lambda: unsafe_counter(workers=2, increments=1),
    lambda: unsafe_counter(workers=2, increments=2),
    lambda: unsafe_counter(workers=3, increments=1),
    lambda: safe_counter(workers=2, increments=2),
    lock_order_deadlock,
    lost_signal,
    lambda: barrier_rendezvous(parties=2),
    lambda: producer_consumer_sem(items=2),
    crasher,
]

#: A smaller slice for the expensive modes (sharded workers, raw streams).
SMALL_GRID = [
    figure1,
    lambda: unsafe_counter(workers=2, increments=2),
    lost_signal,
]

MAKERS = {
    "IPB": make_ipb,
    "IDB": make_idb,
    "DFS": lambda **kw: DFSExplorer(**kw),
}

needs_fork = pytest.mark.skipif(
    not snap.fork_available(), reason="os.fork unavailable"
)


@pytest.fixture(autouse=True)
def eager_forking(monkeypatch):
    """Force holder forks on these tiny programs (the production default
    of :data:`repro.engine.snapshot.DEFAULT_MIN_FORK_STEPS` would never
    fork below a few hundred steps)."""
    monkeypatch.setattr(snap, "DEFAULT_MIN_FORK_STEPS", 1)


def _explore(make, factory, limit=10_000, **kwargs):
    return make(counters=True, **kwargs).explore(factory(), limit)


# -- byte-identical stats ----------------------------------------------------


@needs_fork
@pytest.mark.parametrize("name", sorted(MAKERS))
@pytest.mark.parametrize("factory", GRID)
def test_stats_identical_with_snapshots(factory, name):
    make = MAKERS[name]
    serial = _explore(make, factory)
    snapped = _explore(make, factory, snapshots=True)
    assert serial.as_dict() == snapped.as_dict()


@needs_fork
@pytest.mark.parametrize("name", sorted(MAKERS))
@pytest.mark.parametrize("factory", SMALL_GRID)
def test_stats_identical_with_snapshots_and_shards(factory, name):
    # snapshots=True composes with intra-cell sharding: the shard workers
    # fork holders beneath their subtrees and the merge stays exact.
    make = MAKERS[name]
    serial = _explore(make, factory)
    snapped = _explore(make, factory, snapshots=True, shards=3)
    assert serial.as_dict() == snapped.as_dict()


@needs_fork
@pytest.mark.parametrize("limit", [1, 2, 3, 5, 8, 13])
def test_stats_identical_under_limit_truncation(limit):
    # Stopping mid-stream must collect parked holders without disturbing
    # the enumerated prefix.
    for name, make in sorted(MAKERS.items()):
        serial = _explore(make, figure1, limit=limit)
        snapped = _explore(make, figure1, limit=limit, snapshots=True)
        assert serial.as_dict() == snapped.as_dict(), (name, limit)


# -- identical run streams ---------------------------------------------------


def _stream(runs, cap=400):
    out = []
    for record in itertools.islice(runs, cap):
        out.append(
            (
                tuple(record.result.schedule),
                record.result.outcome,
                record.cost,
                record.pruned_any,
            )
        )
    return out


@needs_fork
@pytest.mark.parametrize("factory", GRID)
def test_dfs_run_stream_identical_in_order(factory, monkeypatch):
    monkeypatch.setattr(snap, "default_procs", lambda: 2)
    serial = BoundedDFS(factory(), NoBoundCost(), None, fast_replay=True)
    runner = snap.snapshot_dfs(factory())
    try:
        assert _stream(serial.runs()) == _stream(runner.runs())
        assert serial.exhausted == runner.exhausted
    finally:
        runner.close()


@needs_fork
@pytest.mark.parametrize("cost_model", [PREEMPTION, DELAY], ids=["PC", "DC"])
@pytest.mark.parametrize("factory", SMALL_GRID)
def test_bounded_run_streams_identical_in_order(factory, cost_model):
    # _enumerate_bounds closes each search, so no cross-bound holder
    # outlives the test.
    serial, serial_done = _enumerate_bounds(FrontierSearch(factory(), cost_model))
    snapped, snapped_done = _enumerate_bounds(
        snap.SnapshotFrontierSearch(factory(), cost_model)
    )
    assert serial == snapped  # same records, same order, same bounds
    assert serial_done == snapped_done


@needs_fork
@pytest.mark.parametrize("shards", [1, 3])
@pytest.mark.parametrize("name", ["IPB", "IDB"])
@pytest.mark.parametrize("factory", SMALL_GRID)
def test_iterative_matrix_serial_vs_snapshots_vs_shards(factory, name, shards):
    # The full cross-bound matrix: serial vs snapshots vs snapshots x
    # shards must agree byte-for-byte whether frontier entries resume
    # from parked holders, are adopted by inline shard workers, or are
    # re-derived by classic replay in pool workers.
    make = MAKERS[name]
    serial = _explore(make, factory)
    snapped = _explore(make, factory, snapshots=True, shards=shards)
    assert serial.as_dict() == snapped.as_dict()


@needs_fork
@pytest.mark.parametrize("shards", [1, 3])
@pytest.mark.parametrize("factory", SMALL_GRID)
def test_ibpor_matrix_serial_vs_snapshots_vs_shards(factory, shards):
    # IBPOR takes no snapshots (its entries replay incrementally); what
    # is left of the matrix is its shards leg.
    serial = IterativeBPORExplorer().explore(factory(), 10_000)
    sharded = IterativeBPORExplorer(shards=shards).explore(factory(), 10_000)
    assert serial.as_dict() == sharded.as_dict()


# -- cross-bound holders: resume, eviction, fallback -------------------------


def _enumerate_bounds(search, max_bound=9):
    out, done = [], False
    try:
        for bound in range(max_bound):
            out.extend(
                (bound, entry)
                for entry in _stream(search.runs_at_bound(bound), cap=10_000)
            )
            if not search.pruned_at_bound():
                done = True
                break
    finally:
        close = getattr(search, "close", None)
        if close is not None:
            close()
    return out, done


@needs_fork
def test_cross_bound_resume_fires_and_streams_identically():
    factory = lambda: unsafe_counter(workers=3, increments=1)
    serial, serial_done = _enumerate_bounds(FrontierSearch(factory(), PREEMPTION))
    search = snap.SnapshotFrontierSearch(factory(), PREEMPTION)
    snapped, snapped_done = _enumerate_bounds(search)
    assert serial == snapped
    assert serial_done == snapped_done
    # The fast path actually engaged: later bounds woke parked holders.
    assert search._cross.resumed > 0


@needs_fork
@pytest.mark.parametrize("cap", [0, 1, 3])
def test_holder_eviction_falls_back_to_replay(cap, monkeypatch):
    # A tiny holder-pool cap forces eviction (cap 0 disables cross-bound
    # forking entirely); evicted edges fall back to classic prefix
    # replay with an identical record stream.
    monkeypatch.setattr(snap, "DEFAULT_MAX_CROSS_HOLDERS", cap)
    factory = lambda: unsafe_counter(workers=3, increments=1)
    serial, serial_done = _enumerate_bounds(FrontierSearch(factory(), PREEMPTION))
    search = snap.SnapshotFrontierSearch(factory(), PREEMPTION)
    snapped, snapped_done = _enumerate_bounds(search)
    assert serial == snapped
    assert serial_done == snapped_done
    if cap == 0:
        assert search._cross.resumed == 0
    else:
        assert search._cross.evicted > 0


# -- look-ahead --------------------------------------------------------------


#: SMALL_GRID plus a program with three-way choice points, whose
#: cross-bound holders own two edges of one cost.
LOOK_AHEAD_GRID = SMALL_GRID + [lambda: unsafe_counter(workers=3, increments=1)]


def _observe(records, counters):
    out = []
    for record in records:
        counters.observe(record.result)
        out.append((tuple(record.result.schedule), record.result.outcome,
                    record.cost, record.pruned_any))
    return out


def _look_ahead_view(kind, factory):
    """Run stream, per-bound frontiers and prefix-step counters of one
    snapshot search."""
    counters = EngineCounters()
    if kind == "DFS":
        runner = snap.snapshot_dfs(factory())
        try:
            return _observe(runner.runs(), counters), counters.to_payload()
        finally:
            runner.close()
    search = snap.SnapshotFrontierSearch(factory(), kind)
    view = []
    try:
        for bound in range(9):
            view.append(_observe(search.runs_at_bound(bound), counters))
            view.append([tuple(e.schedule) for e in search._frontier])
            if not search.pruned_at_bound():
                break
    finally:
        search.close()
    return view, counters.to_payload()


@needs_fork
@pytest.mark.parametrize("kind", ["DFS", PREEMPTION], ids=["DFS", "PC"])
@pytest.mark.parametrize("factory", LOOK_AHEAD_GRID)
def test_look_ahead_width_changes_nothing(factory, kind, monkeypatch):
    # One, two or three processes of the search at once: the same runs in
    # the same order, the same frontiers, and the same prefix steps
    # replayed and restored.
    views = []
    for procs in (1, 2, 3):
        monkeypatch.setattr(snap, "default_procs", lambda: procs)
        views.append(_look_ahead_view(kind, factory))
    assert views[1] == views[0]
    assert views[2] == views[0]
    if kind == "DFS":
        serial = BoundedDFS(factory(), NoBoundCost(), None, fast_replay=True)
        assert views[0][0] == _observe(serial.runs(), EngineCounters())


@needs_fork
def test_cross_bound_holder_resumes_consecutive_edges_live(monkeypatch):
    # At a three-way choice point both preempting candidates cost 1, so
    # one cross-bound holder owns two consecutive bound-1 entries.  The
    # first may be woken ahead; the second belongs to the first's chain
    # follow-on, is never woken ahead, and still resumes live.
    monkeypatch.setattr(snap, "default_procs", lambda: 3)
    resumed, woken_ahead = [], []
    real_resume = snap.CrossBoundRegistry.resume
    real_wake_ahead = snap.CrossBoundRegistry.wake_ahead

    def resume(self, handle, bound, ahead=None):
        sub = real_resume(self, handle, bound, ahead)
        if handle is not None:
            resumed.append((tuple(handle), sub is not None))
        return sub

    def wake_ahead(self, handle, bound):
        before = set(self._woken)
        more = real_wake_ahead(self, handle, bound)
        woken_ahead.extend(set(self._woken) - before)
        return more

    monkeypatch.setattr(snap.CrossBoundRegistry, "resume", resume)
    monkeypatch.setattr(snap.CrossBoundRegistry, "wake_ahead", wake_ahead)
    factory = LOOK_AHEAD_GRID[-1]
    serial, _ = _enumerate_bounds(FrontierSearch(factory(), PREEMPTION))
    snapped, _ = _enumerate_bounds(
        snap.SnapshotFrontierSearch(factory(), PREEMPTION)
    )
    assert snapped == serial
    assert woken_ahead  # the look-ahead engaged
    pairs = [
        (a, b) for (a, live_a), (b, live_b) in zip(resumed, resumed[1:])
        if a[0] == b[0] and live_a and live_b
    ]
    assert pairs
    assert not any(b in woken_ahead for _, b in pairs)


def _free_tokens(fd, n):
    """Tokens no process holds, counted by a fresh child: a process never
    conflicts with its own locks."""
    pid = os.fork()
    if pid == 0:
        free = 0
        for i in range(n):
            try:
                fcntl.lockf(fd, fcntl.LOCK_EX | fcntl.LOCK_NB, 1, i)
            except OSError:
                continue
            free += 1
        os._exit(free)
    return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])


@needs_fork
@pytest.mark.parametrize("kind", ["DFS", "IPB"])
def test_stop_with_holders_woken_ahead_returns_every_token(kind,
                                                           monkeypatch):
    # Stop mid-stream (as a schedule limit does) while holders run ahead:
    # no child outlives the search and every token is back in the pool,
    # including tokens taken by running holders that were killed.
    monkeypatch.setattr(snap, "default_procs", lambda: 3)
    pools = []
    real_tokens = snap._search_tokens

    def search_tokens():
        pools.append(real_tokens())
        return pools[-1]

    monkeypatch.setattr(snap, "_search_tokens", search_tokens)
    factory = lambda: producer_consumer_sem(items=2)
    if kind == "DFS":
        search = snap.snapshot_dfs(factory())
        runs = search.runs()
        ahead = lambda: any(h.ahead for h in search._holders)
    else:
        search = snap.SnapshotFrontierSearch(factory(), PREEMPTION)

        def every_bound():
            for bound in range(9):
                yield from search.runs_at_bound(bound)

        runs = every_bound()
        ahead = lambda: any(h.ahead for h in search._cross._woken.values())
    (tokens,) = pools
    try:
        assert any(ahead() for _ in runs)
        runs.close()  # the runner kills its sibling holders
        if kind == "IPB":
            # Kill the cross-bound holders but keep the token file open:
            # closing it would drop this process's locks with it.
            search._cross.close()
        assert not snap._live_children
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        # Holders orphaned mid-run exit at their next run boundary; the
        # locks they took go with them.
        deadline = time.monotonic() + 30
        while _free_tokens(tokens.fd, tokens.n) < tokens.n:
            assert time.monotonic() < deadline
            time.sleep(0.01)
    finally:
        search.close()


def test_default_procs_counts_the_cpus_this_process_may_use(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert snap.default_procs() == 1  # ``taskset -c 0``: no look-ahead
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {1, 2, 5})
    assert snap.default_procs() == 3
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(32)))
    assert snap.default_procs() == 8
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert snap.default_procs() == 2


# -- pipe ownership ----------------------------------------------------------


def _holds_write_end(fd, inode):
    try:
        st = os.fstat(fd)
    except OSError:
        return False
    return (
        stat.S_ISFIFO(st.st_mode)
        and st.st_ino == inode
        and fcntl.fcntl(fd, fcntl.F_GETFL) & os.O_ACCMODE == os.O_WRONLY
    )


@needs_fork
@pytest.mark.parametrize("name", ["DFS", "IPB"])
def test_no_holder_keeps_an_ancestor_result_pipe_open(name, tmp_path,
                                                      monkeypatch):
    # A holder writes its batch holding no pipe write end but its own
    # result pipe's: an ancestor's result pipe left open in a descendant
    # would delay that ancestor's EOF until the descendant exits.
    made = []  # (write end, inode) of every pipe, inherited by each fork
    real_pipe, real_write = os.pipe, snap._write_msg
    root = os.getpid()
    log = tmp_path / "held"

    def pipe():
        r, w = real_pipe()
        made.append((w, os.fstat(w).st_ino))
        return r, w

    def write_msg(fd, obj):
        if os.getpid() != root:
            held = sum(w != fd and _holds_write_end(w, ino) for w, ino in made)
            with open(log, "a") as fh:
                fh.write(f"{held}\n")
        return real_write(fd, obj)

    monkeypatch.setattr(os, "pipe", pipe)
    monkeypatch.setattr(snap, "_write_msg", write_msg)
    _explore(MAKERS[name], lambda: unsafe_counter(workers=3, increments=1),
             snapshots=True)
    held = [int(n) for n in log.read_text().split()]
    assert held and sum(held) == 0


# -- counters and fallback ---------------------------------------------------


@needs_fork
def test_counters_account_restored_prefix_steps():
    factory = lambda: unsafe_counter(workers=3, increments=1)
    serial = _explore(MAKERS["DFS"], factory)
    snapped = _explore(MAKERS["DFS"], factory, snapshots=True)
    assert serial.counters.snapshot_restored_steps == 0
    # Forked children resume live instead of re-walking the prefix: the
    # replayed share drops and reappears as restored snapshot steps.
    assert snapped.counters.snapshot_restored_steps > 0
    assert snapped.counters.replayed_steps < serial.counters.replayed_steps
    assert serial.as_dict() == snapped.as_dict()


@needs_fork
def test_iterative_counters_account_cross_bound_restores():
    # Under iterative bounding the frontier entries resume from parked
    # cross-bound holders: the prefix replay that used to dominate
    # (re-rooting every subtree from step 0) reappears as restored
    # snapshot steps, with total steps conserved exactly.
    factory = lambda: unsafe_counter(workers=3, increments=1)
    serial = _explore(MAKERS["IPB"], factory)
    snapped = _explore(MAKERS["IPB"], factory, snapshots=True)
    assert serial.counters.snapshot_restored_steps == 0
    assert snapped.counters.snapshot_restored_steps > 0
    assert snapped.counters.replayed_steps < serial.counters.replayed_steps
    assert serial.as_dict() == snapped.as_dict()


@pytest.mark.parametrize("name", sorted(MAKERS))
def test_fork_unavailable_falls_back_to_serial(name, monkeypatch):
    monkeypatch.setattr(snap, "fork_available", lambda: False)
    make = MAKERS[name]
    serial = _explore(make, figure1)
    snapped = _explore(make, figure1, snapshots=True)
    assert serial.as_dict() == snapped.as_dict()
    # the fallback really is the serial engine: nothing was restored
    assert snapped.counters.snapshot_restored_steps == 0


# -- Budget.fork_reanchor ----------------------------------------------------


def test_fork_reanchor_transfers_remaining_deadline():
    now = [0.0]
    budget = Budget(deadline_seconds=10.0, clock=lambda: now[0]).start()
    now[0] = 9.25
    budget.fork_reanchor()
    # the child's allowance is exactly what the parent had left...
    assert budget.deadline_seconds == pytest.approx(0.75)
    # ...anchored on the child's *own* clock, which need not resemble the
    # parent's (the next poll re-reads it).
    now[0] = 100.0
    assert not budget.expired
    now[0] = 100.5
    assert not budget.expired
    now[0] = 100.8
    assert budget.expired


def test_fork_reanchor_never_widens_an_expired_deadline():
    now = [0.0]
    budget = Budget(deadline_seconds=5.0, clock=lambda: now[0]).start()
    now[0] = 7.0  # parent already past its deadline at fork time
    budget.fork_reanchor()
    assert budget.deadline_seconds == 0.0
    budget.tick()  # first poll anchors the child clock...
    assert budget.expired  # ...and the allowance is already gone
    assert budget.start_execution()  # the next execution never starts


def test_fork_reanchor_without_deadline_is_harmless():
    budget = Budget(max_total_steps=2).start()
    budget.fork_reanchor()
    assert budget.deadline_seconds is None
    assert budget.remaining_seconds() is None
    # inherited work ceilings keep counting from the parent's tally
    assert not budget.tick()
    assert not budget.tick()
    assert budget.tick()


# -- VectorClock vs the DictVectorClock reference model ----------------------


TIDS = 6  # thread-id universe for the property tests


def _check_pair(dense: VectorClock, sparse: DictVectorClock) -> None:
    assert dense.clocks == sparse.clocks
    assert list(dense.items()) == list(sparse.items())
    for tid in range(TIDS + 2):  # also probe past the dense buffer
        assert dense.get(tid) == sparse.get(tid)
        assert dense.epoch(tid) == sparse.epoch(tid)


@pytest.mark.parametrize("seed", range(8))
def test_vector_clock_matches_dict_reference(seed):
    rng = random.Random(seed)
    dense = [VectorClock(), VectorClock()]
    sparse = [DictVectorClock(), DictVectorClock()]
    for _ in range(250):
        which = rng.randrange(2)
        other = 1 - which
        op = rng.choice(("tick", "tick", "set", "join", "copy"))
        if op == "tick":
            tid = rng.randrange(TIDS)
            dense[which].tick(tid)
            sparse[which].tick(tid)
        elif op == "set":
            tid, val = rng.randrange(TIDS), rng.randrange(5)
            dense[which].set(tid, val)
            sparse[which].set(tid, val)
        elif op == "join":
            dense[which].join(dense[other])
            sparse[which].join(sparse[other])
        else:  # copy: COW alias on the dense side, plain copy on the ref
            dense[which] = dense[other].copy()
            sparse[which] = sparse[other].copy()
        _check_pair(dense[0], sparse[0])
        _check_pair(dense[1], sparse[1])
        assert dense[0].leq(dense[1]) == sparse[0].leq(sparse[1])
        assert dense[1].leq(dense[0]) == sparse[1].leq(sparse[0])
        assert (dense[0] == dense[1]) == (sparse[0] == sparse[1])
        for tid in range(TIDS):
            assert dense[0].covers_epoch(dense[1].epoch(tid)) == sparse[
                0
            ].covers_epoch(sparse[1].epoch(tid))


def test_vector_clock_copy_is_isolated():
    # copy() shares the packed value; a mutation on either side must not
    # leak into the other (the FastTrack release rule depends on this).
    base = VectorClock({0: 3, 2: 1})
    alias = base.copy()
    base.tick(0)
    alias.tick(2)
    assert base.clocks == {0: 4, 2: 1}
    assert alias.clocks == {0: 3, 2: 2}


def test_vector_clock_trailing_zeros_do_not_matter():
    assert VectorClock({0: 1, 3: 0}) == VectorClock({0: 1})
    assert VectorClock() == VectorClock({5: 0})
    a = VectorClock({1: 2})
    b = VectorClock({1: 2, 4: 7})
    assert a != b and b != a
    assert a.leq(b) and not b.leq(a)
