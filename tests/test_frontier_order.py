"""The iterative-bounding frontier is in DFS order by construction, and
capping it at 2 × limit edges per cost changes nothing observable.

The contract (DESIGN.md §5, "Frontier resumption"): no search sorts its
frontier.  A choice point's pruned edges join it when the point is
popped, every remainder handed elsewhere (a split, a holder's share, a
worker's leftovers) carries its pending pruned edges in place, and a
bound's pass keeps every edge it cannot afford where it stands.  The
witness is :func:`tests.oracles.order_path`, which recomputes an edge's
DFS sort key by replaying its schedule: every bound's frontier must
ascend in it, under every executor.

Because the frontier is ordered, a search drops an edge once
``2 × limit`` kept edges cost no more than it; the explorer can never
resume it.  Capped and uncapped searches must agree on every stat,
every run and every engine counter.
"""

from __future__ import annotations

import json
from collections import Counter
from types import SimpleNamespace

import pytest

from repro.core import DELAY, PREEMPTION, ShardedFrontierSearch, make_idb, make_ipb
from repro.core.bounds import BoundCost
from repro.core.dfs import BoundedDFS, PrunedEdge, affords, in_order
from repro.core.iterative import FrontierSearch
from repro.core.sharding import SubtreeSpec
from repro.engine import snapshot as snap
from repro.runtime import Mutex, Program, SharedVar
from repro.sctbench.fixed import make_queue_fixed, make_stack_fixed

from .oracles import order_path
from .programs import figure1, unsafe_counter
from .test_frontier_equivalence import GRID


@pytest.fixture(autouse=True)
def eager_forking(monkeypatch):
    """Fork holders even on these tiny programs, so the snapshot legs
    exercise sibling and cross-bound holders."""
    monkeypatch.setattr(snap, "DEFAULT_MIN_FORK_STEPS", 1)


#: Every executor of the per-bound frontier search.
SEARCHES = {
    "serial": lambda program, cost: FrontierSearch(program, cost),
    "snapshots": lambda program, cost: snap.SnapshotFrontierSearch(
        program, cost
    ),
    "shards1": lambda program, cost: ShardedFrontierSearch(
        program, cost, shards=1, split_runs=2
    ),
    "shards3": lambda program, cost: ShardedFrontierSearch(
        program, cost, shards=3, split_runs=2
    ),
}


def _enumerate(search, max_bound=9):
    """The run stream and each bound's frontier (as schedules)."""
    runs, frontiers = [], []
    try:
        for bound in range(max_bound):
            for record in search.runs_at_bound(bound):
                runs.append((bound, tuple(record.result.schedule), record.cost))
            frontiers.append([tuple(e.schedule) for e in search._frontier])
            if not search.pruned_at_bound():
                break
    finally:
        search.close()
    return runs, frontiers


def _ascending(program, schedules) -> bool:
    keys = [order_path(program, list(s)) for s in schedules]
    return all(a < b for a, b in zip(keys, keys[1:]))


def _stream(dfs):
    return [
        (tuple(r.result.schedule), r.cost, r.pruned_any) for r in dfs.runs()
    ]


@pytest.mark.parametrize("name", sorted(SEARCHES))
@pytest.mark.parametrize("cost_model", [PREEMPTION, DELAY], ids=["IPB", "IDB"])
@pytest.mark.parametrize("factory", GRID)
def test_every_frontier_is_in_oracle_order(factory, cost_model, name):
    if name == "snapshots" and not snap.fork_available():
        pytest.skip("os.fork unavailable")
    runs, frontiers = _enumerate(SEARCHES[name](factory(), cost_model))
    program = factory()
    for frontier in frontiers:
        assert _ascending(program, frontier)
    if name != "serial":
        assert (runs, frontiers) == _enumerate(
            FrontierSearch(factory(), cost_model)
        )


@pytest.mark.skipif(not snap.fork_available(), reason="os.fork unavailable")
def test_dead_holders_fall_back_in_order(monkeypatch):
    # Every holder batch is lost: sibling holders' shares are walked in
    # place by replay, and cross-bound edges resume by replay.
    monkeypatch.setattr(snap, "_batch", lambda msg: None)
    factory = lambda: figure1(clone_count=2)
    runs, frontiers = _enumerate(
        snap.SnapshotFrontierSearch(factory(), PREEMPTION)
    )
    assert (runs, frontiers) == _enumerate(FrontierSearch(factory(), PREEMPTION))
    program = factory()
    for frontier in frontiers:
        assert _ascending(program, frontier)


@pytest.mark.skipif(not snap.fork_available(), reason="os.fork unavailable")
@pytest.mark.parametrize("dead", [False, True], ids=["live", "dead"])
@pytest.mark.parametrize(
    "cost_model, bound", [(DELAY, 1), (DELAY, 2), (PREEMPTION, 1)],
    ids=["IDB1", "IDB2", "IPB1"],
)
def test_holders_hand_on_pruned_edges_in_place(cost_model, bound, dead,
                                               monkeypatch):
    # A whole tree at a fixed bound >= 1 has choice points with several
    # affordable candidates *and* pruned ones, so sibling holders take
    # over pruned edges; popped holders hold back the edges of shallower
    # points until their batch is in.
    if dead:
        monkeypatch.setattr(snap, "_batch", lambda msg: None)
    factory = lambda: unsafe_counter(workers=3, increments=1)
    serial_frontier = []
    serial = _stream(BoundedDFS(
        factory(), cost_model, bound, frontier=serial_frontier,
        fast_replay=True,
    ))
    frontier = []
    runner = snap.SnapshotRunner(
        SubtreeSpec(factory(), cost_model), bound, frontier=frontier
    )
    assert _stream(runner) == serial
    assert [e.schedule for e in frontier] == [
        e.schedule for e in serial_frontier
    ]


@pytest.mark.parametrize("after_runs", [1, 3, 5, 13, 25, 39])
def test_bounded_split_is_an_ordered_remainder(after_runs):
    # Split under IPB at bound 1 mid-run: running the affordable edges in
    # order and letting the rest join the frontier where they stand must
    # reproduce the serial run stream *and* the serial frontier.
    factory = lambda: unsafe_counter(workers=3, increments=1)
    serial_frontier = []
    serial = _stream(
        BoundedDFS(factory(), PREEMPTION, 1, frontier=serial_frontier)
    )
    assert len(serial) > after_runs

    frontier = []
    dfs = BoundedDFS(factory(), PREEMPTION, 1, frontier=frontier)
    got = []
    gen = dfs.runs()
    for record in gen:
        got.append((tuple(record.result.schedule), record.cost, record.pruned_any))
        if len(got) == after_runs:
            break
    gen.close()
    remainder = dfs.split_remaining()
    # After 5, 13, 25 or 39 runs the stack holds pruned edges; they ride
    # along in place.
    assert any(not affords(1, e) for e in remainder) == (after_runs >= 5)
    program = factory()
    assert _ascending(program, [e.schedule for e in frontier + remainder])
    for edge in in_order(remainder, 1, frontier):
        payload = json.loads(json.dumps(edge.to_payload()))
        sub = BoundedDFS(
            factory(), PREEMPTION, 1,
            root=PrunedEdge.from_payload(payload), frontier=frontier,
        )
        got.extend(_stream(sub))
    assert got == serial
    assert [e.schedule for e in frontier] == [
        e.schedule for e in serial_frontier
    ]


class _LastIsCheapest(BoundCost):
    """Breaks the ordering contract: among the candidates that cost
    anything, the highest thread id costs least, so at bound 1 it is
    affordable behind pruned ones."""

    name = "last-is-cheapest"

    def increment(self, step_index, last_tid, chosen, enabled, num_created):
        if step_index == 0 or chosen == last_tid:
            return 0
        return 1 if chosen == max(enabled) else 2


def test_cost_model_breaking_the_ordering_contract_is_refused():
    # Its pruned edges would not follow the point's explored subtrees,
    # so the frontier could not be in DFS order.
    dfs = BoundedDFS(
        unsafe_counter(workers=3, increments=1), _LastIsCheapest(), 1,
        frontier=[],
    )
    with pytest.raises(AssertionError, match="ahead of an affordable"):
        for _ in dfs.runs():
            pass


# -- the 2 × limit cap -------------------------------------------------------


def make_aborting_counter() -> Program:
    """Three workers bump two counters in turn; one that sees them differ
    (another worker was preempted between its two stores) unlocks a mutex
    it does not hold, which is contained as an abandoned ``ABORT`` run —
    so abandoned runs, not only schedules, count towards the limit."""

    def setup():
        return SimpleNamespace(
            v=SharedVar(0, "v"), w=SharedVar(0, "w"), m=Mutex("m")
        )

    def worker(ctx, sh):
        x = yield ctx.load(sh.v)
        y = yield ctx.load(sh.w)
        if x != y:
            yield ctx.unlock(sh.m)
        yield ctx.store(sh.v, x + 1)
        yield ctx.store(sh.w, y + 1)

    def main(ctx, sh):
        handles = []
        for _ in range(3):
            handles.append((yield ctx.spawn(worker)))
        for handle in handles:
            yield ctx.join(handle)

    return Program("aborting_counter", setup, main)


def make_three_counters() -> Program:
    """Three workers, two unprotected increments each: under IDB its
    frontiers hold edges of several costs, and the cap drops edges of
    one cost because of the lower-cost edges kept before them."""
    return unsafe_counter(workers=3, increments=2)


class _Tap:
    """A frontier search that records the run stream and checks the
    frontier whenever the explorer looks at it.  ``most`` is the largest
    number of kept edges costing no more than one of them, up to and
    including it; ``cross`` whether some edge is past ``2 × limit`` of
    those but within ``2 × limit`` of its own cost (which a per-cost cap
    would keep)."""

    def __init__(self, search, limit) -> None:
        self.search = search
        self.limit = limit
        self.stream = []
        self.most = 0
        self.cross = False
        self.dropped = 0

    def runs_at_bound(self, bound):
        for record in self.search.runs_at_bound(bound):
            result = record.result
            self.stream.append(
                (bound, tuple(result.schedule), result.outcome, record.cost)
            )
            yield record

    def _check(self) -> None:
        frontier = self.search._frontier
        seen = Counter()
        for edge in frontier:
            cost = edge.cost_after
            seen[cost] += 1
            rank = sum(n for c, n in seen.items() if c <= cost)
            self.most = max(self.most, rank)
            self.cross |= seen[cost] <= 2 * self.limit < rank
        self.dropped += frontier.dropped

    def pruned_at_bound(self) -> bool:
        self._check()
        return self.search.pruned_at_bound()

    def close(self) -> None:
        self._check()
        self.search.close()


def _explore(make, program, limit, capped, **kwargs):
    explorer = make(counters=True, **kwargs)
    backend = explorer._search
    taps = []

    def search(program, limit):
        taps.append(_Tap(backend(program, limit if capped else None), limit))
        return taps[-1]

    explorer._search = search
    return explorer.explore(program, limit), taps[0]


#: (program, explorer, limit): cells where the cap drops edges, the
#: explorer resumes edges at later bounds, (for the aborting counter)
#: abandoned runs count towards the limit, and (for the three counters)
#: the cap drops edges because of lower-cost ones.
CAP_CASES = [
    (make_stack_fixed, make_ipb, 4),
    (make_queue_fixed, make_idb, 3),
    (make_aborting_counter, make_ipb, 20),
    (make_aborting_counter, make_idb, 10),
    (make_aborting_counter, make_idb, 20),
    (make_three_counters, make_idb, 10),
]

CAP_VARIANTS = {
    "serial": {},
    "snapshots": {"snapshots": True},
    "shards3": {"shards": 3},
}


@pytest.mark.parametrize("variant", sorted(CAP_VARIANTS))
@pytest.mark.parametrize(
    "case", CAP_CASES,
    ids=lambda c: f"{c[0].__name__[5:]}-{c[1].__name__[5:]}-{c[2]}",
)
def test_cap_drops_only_edges_no_run_can_reach(case, variant):
    factory, make, limit = case
    kwargs = CAP_VARIANTS[variant]
    if kwargs.get("snapshots") and not snap.fork_available():
        pytest.skip("os.fork unavailable")
    capped, tap = _explore(make, factory(), limit, True, **kwargs)
    uncapped, free = _explore(make, factory(), limit, False, **kwargs)
    assert tap.dropped > 0  # the cap engaged on this cell
    assert free.dropped == 0
    assert tap.most <= 2 * limit < free.most
    assert not tap.cross
    if factory is make_three_counters:
        assert free.cross  # a per-cost cap would keep more
    assert capped.as_dict() == uncapped.as_dict()
    assert tap.stream == free.stream
    assert capped.executions == uncapped.executions
    assert capped.counters.to_payload() == uncapped.counters.to_payload()
    if factory is make_aborting_counter:
        assert capped.aborts > 0
