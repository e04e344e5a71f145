"""Dynamic partial-order reduction: reduction and soundness vs full DFS."""

import heapq
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core import Budget, DFSExplorer
from repro.core import dpor as dpor_module
from repro.core.dpor import (
    DPORExplorer,
    IterativeBPORExplorer,
    dependent,
    never_co_enabled,
)
from repro.engine import (
    ExecutionObserver,
    Outcome,
    ReplayStrategy,
    execute,
    sync_only_filter,
)
from repro.engine.hardening import LASSO_WINDOW, LassoDetector
from repro.racedetect import detect_races
from repro.runtime import CondVar, Mutex, Program, SharedArray, SharedVar
from repro.runtime.context import ThreadContext
from repro.sctbench.fixed import FIXED_TWINS, make_account_fixed, make_wsq_fixed

from .programs import (
    figure1,
    lock_order_deadlock,
    lost_signal,
    safe_counter,
    unsafe_counter,
)
from .test_properties import brute_force, build_program, compact, program_st


class TestDependency:
    def setup_method(self):
        self.ctx = ThreadContext(0)
        self.x = SharedVar(0, "x")
        self.y = SharedVar(0, "y")
        self.m = Mutex("m")

    def test_reads_commute(self):
        assert not dependent(self.ctx.load(self.x), self.ctx.load(self.x))

    def test_write_conflicts_with_read_same_var(self):
        assert dependent(self.ctx.store(self.x, 1), self.ctx.load(self.x))

    def test_different_vars_commute(self):
        assert not dependent(self.ctx.store(self.x, 1), self.ctx.store(self.y, 2))

    def test_lock_ops_conflict_on_same_mutex(self):
        assert dependent(self.ctx.lock(self.m), self.ctx.lock(self.m))
        assert dependent(self.ctx.lock(self.m), self.ctx.unlock(self.m))

    def test_lock_and_data_commute(self):
        assert not dependent(self.ctx.lock(self.m), self.ctx.store(self.x, 1))

    def test_yield_commutes_with_everything(self):
        assert not dependent(self.ctx.sched_yield(), self.ctx.store(self.x, 1))


class TestReduction:
    @pytest.mark.parametrize(
        "make_program",
        [figure1, unsafe_counter, lock_order_deadlock, lost_signal, safe_counter],
        ids=["figure1", "unsafe_counter", "deadlock", "lost_signal", "safe_counter"],
    )
    def test_explores_fewer_schedules_same_verdict(self, make_program):
        program = make_program()
        dfs = DFSExplorer().explore(program, 50_000)
        dpor = DPORExplorer().explore(program, 50_000)
        assert dfs.completed and dpor.completed
        assert dpor.schedules <= dfs.schedules
        assert dpor.found_bug == dfs.found_bug, (
            f"DPOR {'found' if dpor.found_bug else 'missed'} what DFS "
            f"{'found' if dfs.found_bug else 'missed'}"
        )

    def test_reduction_is_substantial_for_independent_threads(self):
        # Threads touching disjoint variables: DFS explores every
        # interleaving; DPOR needs only one schedule per trace (one here).
        from types import SimpleNamespace

        from repro.runtime import Program

        def setup():
            return SimpleNamespace(
                cells=[SharedVar(0, f"c{i}") for i in range(3)]
            )

        def worker(ctx, sh, i):
            yield ctx.store(sh.cells[i], 1, site=f"w{i}a")
            yield ctx.store(sh.cells[i], 2, site=f"w{i}b")

        def main(ctx, sh):
            hs = []
            for i in range(3):
                hs.append((yield ctx.spawn(worker, i)))
            for h in hs:
                yield ctx.join(h)

        program = Program("independent", setup, main)
        dfs = DFSExplorer().explore(program, 50_000)
        dpor = DPORExplorer().explore(program, 50_000)
        assert dfs.completed and dpor.completed
        assert dfs.schedules == 1121  # every interleaving, spawns included
        assert dpor.schedules == 1    # a single Mazurkiewicz trace

    def test_bug_report_is_replayable(self):
        from repro.engine import replay

        program = figure1()
        stats = DPORExplorer().explore(program, 50_000)
        assert stats.found_bug
        result = replay(program, stats.first_bug.schedule)
        assert result.outcome is stats.first_bug.outcome

    def test_invisible_footprints_carry_dependencies(self):
        """Regression: under racy-site filtering, data accesses execute
        invisibly inside lock-granularity steps.  Dependency must be
        computed on the step's full footprint — with op-level dependencies
        only, the two twostage critical sections (different mutexes,
        shared data) would commute and the bug would be missed."""
        from repro.racedetect import detect_races
        from repro.sctbench import get

        program = get("CS.twostage_bad").make()
        report = detect_races(program, runs=10, seed=0)
        filt = (
            report.visible_filter()
            if report.has_races
            else (lambda op: False)
        )
        dfs = DFSExplorer(visible_filter=filt).explore(program, 10_000)
        dpor = DPORExplorer(visible_filter=filt).explore(program, 10_000)
        assert dfs.found_bug
        assert dpor.found_bug
        assert dpor.schedules < dfs.schedules


class TestArrayCellDependency:
    """Regression: atomic RMW/CAS on a :class:`SharedArray` cell must carry
    the *per-cell* dependency key.  The old relation gave them the
    whole-object key, which did not intersect a racing STORE's per-cell
    key — ``dependent()`` returned False and DPOR pruned the buggy
    interleaving."""

    def setup_method(self):
        self.ctx = ThreadContext(0)
        self.arr = SharedArray(2, name="a")

    def test_cas_conflicts_with_store_same_cell(self):
        cas = self.ctx.cas_elem(self.arr, 0, 0, 1)
        store = self.ctx.store_elem(self.arr, 0, 9)
        assert dependent(cas, store)
        assert dependent(store, cas)

    def test_cas_commutes_with_store_other_cell(self):
        cas = self.ctx.cas_elem(self.arr, 0, 0, 1)
        assert not dependent(cas, self.ctx.store_elem(self.arr, 1, 9))

    def test_rmw_conflicts_with_load_same_cell_only(self):
        rmw = self.ctx.fetch_add_elem(self.arr, 0, 1)
        assert dependent(rmw, self.ctx.load_elem(self.arr, 0))
        assert not dependent(rmw, self.ctx.load_elem(self.arr, 1))

    def test_rmw_pairs_on_same_cell_conflict(self):
        a = self.ctx.fetch_add_elem(self.arr, 1, 1)
        b = self.ctx.atomic_rmw_elem(self.arr, 1, lambda v: v * 2)
        assert dependent(a, b)

    def test_dpor_finds_the_array_cas_store_race(self):
        """A CAS on arr[0] races a plain STORE to arr[0]: the CAS fails
        only when the store lands first.  Full DFS always finds the
        failing order; DPOR must too (pre-fix, the CAS/STORE pair was
        deemed independent and the store-first order was pruned)."""

        def setup():
            return SimpleNamespace(arr=SharedArray(2, name="arr"))

        def casser(ctx, sh):
            ok, _old = yield ctx.cas_elem(sh.arr, 0, 0, 1, site="cas")
            ctx.check(ok, "cas lost the race")

        def storer(ctx, sh):
            yield ctx.store_elem(sh.arr, 0, 7, site="store")

        def main(ctx, sh):
            h1 = yield ctx.spawn(casser)
            h2 = yield ctx.spawn(storer)
            yield ctx.join(h1)
            yield ctx.join(h2)

        program = Program("array_cas_race", setup, main)
        dfs = DFSExplorer().explore(program, 10_000)
        dpor = DPORExplorer().explore(program, 10_000)
        assert dfs.completed and dpor.completed
        assert dfs.found_bug
        assert dpor.found_bug
        assert dpor.schedules <= dfs.schedules


# --- rich op vocabulary for the trace-coverage property ---------------------
#
# Extends test_properties' script language with SharedArray accesses
# (including cell-level CAS/RMW) and a condvar wait/signal pair, so the
# dependency relation's per-cell keys and COND_WAIT's mutex interaction
# (``_extra_key``) are both exercised by the hypothesis suite.

N_CELLS = 2

rich_action_st = st.one_of(
    st.tuples(st.just("load"), st.integers(0, 1)),
    st.tuples(st.just("store"), st.integers(0, 1)),
    st.tuples(st.just("aload"), st.integers(0, N_CELLS - 1)),
    st.tuples(st.just("astore"), st.integers(0, N_CELLS - 1)),
    st.tuples(st.just("acas"), st.integers(0, N_CELLS - 1)),
    st.tuples(st.just("armw"), st.integers(0, N_CELLS - 1)),
    st.tuples(st.just("lock_unlock"), st.just(0)),
    st.tuples(st.just("wait"), st.just(0)),
    st.tuples(st.just("signal"), st.just(0)),
    st.tuples(st.just("yield"), st.just(0)),
)

_ACTION_COST = {"wait": 3, "lock_unlock": 2}

rich_program_st = st.lists(
    st.lists(rich_action_st, min_size=1, max_size=3), min_size=1, max_size=3
).filter(
    lambda ts: sum(_ACTION_COST.get(a[0], 1) for t in ts for a in t) <= 6
)


def build_rich_program(threads, name="rich"):
    def setup():
        return SimpleNamespace(
            vars=[SharedVar(0, f"v{i}") for i in range(2)],
            arr=SharedArray(N_CELLS, name="arr"),
            m=Mutex("m"),
            cv=CondVar("cv"),
        )

    def worker(ctx, sh, script, wid):
        for j, (kind, idx) in enumerate(script):
            site = f"w{wid}:{j}:{kind}{idx}"
            if kind == "load":
                yield ctx.load(sh.vars[idx], site=site)
            elif kind == "store":
                yield ctx.store(sh.vars[idx], wid * 100 + j, site=site)
            elif kind == "aload":
                yield ctx.load_elem(sh.arr, idx, site=site)
            elif kind == "astore":
                yield ctx.store_elem(sh.arr, idx, wid * 100 + j, site=site)
            elif kind == "acas":
                yield ctx.cas_elem(sh.arr, idx, 0, wid + 1, site=site)
            elif kind == "armw":
                yield ctx.fetch_add_elem(sh.arr, idx, 1, site=site)
            elif kind == "lock_unlock":
                yield ctx.lock(sh.m, site=site + ":l")
                yield ctx.unlock(sh.m, site=site + ":u")
            elif kind == "wait":
                yield ctx.lock(sh.m, site=site + ":l")
                yield ctx.cond_wait(sh.cv, sh.m, site=site + ":w")
                yield ctx.unlock(sh.m, site=site + ":u")
            elif kind == "signal":
                yield ctx.cond_signal(sh.cv, site=site)
            elif kind == "yield":
                yield ctx.sched_yield(site=site)

    def main(ctx, sh):
        handles = []
        for wid, script in enumerate(threads):
            handles.append((yield ctx.spawn(worker, script, wid)))
        for h in handles:
            yield ctx.join(h)

    return Program(name, setup, main)


class _OpTrace(ExecutionObserver):
    """Records the (tid, op) sequence of one execution."""

    def __init__(self):
        self.steps = []

    def on_step(self, tid, op, result, visible):
        self.steps.append((tid, op))


def _trace_steps(program, schedule):
    obs = _OpTrace()
    execute(
        program,
        ReplayStrategy(list(schedule), strict=True),
        observers=(obs,),
        record_enabled=False,
    )
    return obs.steps


def _canon_trace(steps):
    """Canonical word of the Mazurkiewicz trace.

    Identifies each step by (tid, per-thread occurrence index) — the
    scripts are straight-line, so that names the op uniquely — builds the
    dependence DAG (program order plus every ``dependent`` pair, oriented
    by observed order), and emits the lexicographically-least topological
    linearisation.  Equivalent schedules induce the same DAG (dependent
    pairs keep their order under commutation of independent ops), so they
    canonicalise identically; inequivalent ones flip at least one
    dependence edge and differ.  Greedy adjacent-swap bubbling is *not*
    enough here: it has multiple fixpoints per class (an op can be unable
    to pass a smaller-tid independent neighbour)."""
    counters = {}
    nodes = []
    for tid, op in steps:
        k = counters.get(tid, 0)
        counters[tid] = k + 1
        nodes.append((tid, k, op))
    n = len(nodes)
    succs = [[] for _ in range(n)]
    preds = [0] * n
    for i in range(n):
        ti, _, oi = nodes[i]
        for j in range(i + 1, n):
            tj, _, oj = nodes[j]
            if ti == tj or dependent(oi, oj):
                succs[i].append(j)
                preds[j] += 1
    ready = [(t, k, i) for i, (t, k, _) in enumerate(nodes) if not preds[i]]
    heapq.heapify(ready)
    out = []
    while ready:
        t, k, i = heapq.heappop(ready)
        out.append((t, k))
        for j in succs[i]:
            preds[j] -= 1
            if not preds[j]:
                tj, kj, _ = nodes[j]
                heapq.heappush(ready, (tj, kj, j))
    return tuple(out)


class TestCoEnabledness:
    """The 'may be co-enabled' half of DPOR's race condition: a mutex
    release and an acquire of the same mutex are dependent, but no
    scheduling choice can reverse them — treating that pair as a race
    stopped the backtrack walk before the real acquire/acquire race."""

    def setup_method(self):
        self.ctx = ThreadContext(0)
        self.m = Mutex("m")
        self.m2 = Mutex("m2")
        self.cv = CondVar("cv")
        self.x = SharedVar(0, "x")

    def test_release_vs_acquire_same_mutex(self):
        assert never_co_enabled(self.ctx.unlock(self.m), self.ctx.lock(self.m))
        assert never_co_enabled(self.ctx.lock(self.m), self.ctx.unlock(self.m))

    def test_release_vs_release_same_mutex(self):
        assert never_co_enabled(self.ctx.unlock(self.m), self.ctx.unlock(self.m))

    def test_cond_wait_releases_its_mutex(self):
        wait = self.ctx.cond_wait(self.cv, self.m)
        assert never_co_enabled(wait, self.ctx.lock(self.m))
        assert never_co_enabled(wait, self.ctx.unlock(self.m))

    def test_different_mutexes_unconstrained(self):
        assert not never_co_enabled(self.ctx.unlock(self.m), self.ctx.lock(self.m2))

    def test_acquire_vs_acquire_may_be_co_enabled(self):
        assert not never_co_enabled(self.ctx.lock(self.m), self.ctx.lock(self.m))

    def test_trylock_always_enabled(self):
        assert not never_co_enabled(self.ctx.unlock(self.m), self.ctx.trylock(self.m))

    def test_data_ops_unconstrained(self):
        assert not never_co_enabled(self.ctx.store(self.x, 1), self.ctx.load(self.x))

    def test_pinned_sleep_blocked_witness_regression(self):
        """The pre-fix falsifying example (reproduced at 1095ee3): a
        writer racing two readers of one cell, one of which later
        reads a second cell the other writes.  The aload/aload
        independence kept the second reader asleep at the point after
        the first, so registering only the racing thread there
        sleep-filtered the reversal; the fix also registers the awake
        E-witness (the writer) whose step wakes the sleeper."""
        threads = [
            [("astore", 0)],
            [("aload", 0), ("aload", 1)],
            [("aload", 0), ("astore", 1)],
        ]
        program = build_rich_program(threads)
        brute = [
            r for r in brute_force(program) if r.outcome.is_terminal_schedule
        ]
        dfs_scheds = {tuple(r.schedule) for r in brute}
        log = []
        dpor = DPORExplorer(state_cache=False)
        dpor._run_log = log
        stats = dpor.explore(program, 50_000)
        assert stats.completed
        dpor_scheds = {
            tuple(r.schedule)
            for r in log
            if r is not None and r.outcome.is_terminal_schedule
        }
        assert dpor_scheds <= dfs_scheds
        canon_dfs = {_canon_trace(_trace_steps(program, s)) for s in dfs_scheds}
        canon_dpor = {_canon_trace(_trace_steps(program, s)) for s in dpor_scheds}
        assert len(canon_dfs) == 8
        assert canon_dpor == canon_dfs

    def test_pinned_lock_handoff_regression(self):
        """The pre-fix falsifying example (reproduced at d3b35a9): one
        thread with a bare critical section, one with a load then a
        critical section.  Registering the 'race' at the unlock/lock
        handoff stopped the walk, so the class with the critical
        sections reversed was never explored."""
        threads = [[("lock_unlock", 0)], [("load", 0), ("lock_unlock", 0)]]
        program = build_rich_program(threads)
        brute = [
            r for r in brute_force(program) if r.outcome.is_terminal_schedule
        ]
        dfs_scheds = {tuple(r.schedule) for r in brute}
        log = []
        dpor = DPORExplorer(state_cache=False)
        dpor._run_log = log
        stats = dpor.explore(program, 50_000)
        assert stats.completed
        dpor_scheds = {
            tuple(r.schedule)
            for r in log
            if r is not None and r.outcome.is_terminal_schedule
        }
        assert dpor_scheds <= dfs_scheds
        canon_dfs = {_canon_trace(_trace_steps(program, s)) for s in dfs_scheds}
        canon_dpor = {_canon_trace(_trace_steps(program, s)) for s in dpor_scheds}
        assert len(canon_dfs) == 2  # the two critical-section orders
        assert canon_dpor == canon_dfs


class TestTraceCoverageProperty:
    @given(threads=rich_program_st)
    @example(threads=[[("lock_unlock", 0)], [("load", 0), ("lock_unlock", 0)]])
    @example(
        threads=[
            [("astore", 0)],
            [("aload", 0), ("aload", 1)],
            [("aload", 0), ("astore", 1)],
        ]
    )
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_dpor_keeps_one_representative_per_trace(self, threads):
        """DPOR's terminal schedules are a subset of DFS's, with at least
        one representative per Mazurkiewicz equivalence class.  The state
        cache is off: a cache hit legitimately skips re-counting a
        revisited class, which is sound for bug-finding but breaks the
        per-class-representative accounting this test checks."""
        program = build_rich_program(threads)
        brute = [
            r for r in brute_force(program) if r.outcome.is_terminal_schedule
        ]
        dfs_scheds = {tuple(r.schedule) for r in brute}
        log = []
        dpor = DPORExplorer(state_cache=False)
        dpor._run_log = log
        stats = dpor.explore(program, 50_000)
        assert stats.completed
        dpor_scheds = {
            tuple(r.schedule)
            for r in log
            if r is not None and r.outcome.is_terminal_schedule
        }
        assert dpor_scheds <= dfs_scheds
        canon_dfs = {_canon_trace(_trace_steps(program, s)) for s in dfs_scheds}
        canon_dpor = {_canon_trace(_trace_steps(program, s)) for s in dpor_scheds}
        assert canon_dpor == canon_dfs

    @given(threads=rich_program_st)
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_state_cache_preserves_the_verdict(self, threads):
        """The fingerprint cache may prune revisited subtrees (fewer
        counted schedules) but never changes completion or bug-finding."""
        program = build_rich_program(threads)
        on = DPORExplorer().explore(program, 50_000)
        off = DPORExplorer(state_cache=False).explore(program, 50_000)
        assert on.completed and off.completed
        assert on.found_bug == off.found_bug
        assert on.schedules <= off.schedules

    @given(threads=rich_program_st)
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_rich_vocabulary_agrees_with_dfs_on_bugs(self, threads):
        program = build_rich_program(threads)
        dfs = DFSExplorer().explore(program, 50_000)
        dpor = DPORExplorer().explore(program, 50_000)
        assert dfs.completed and dpor.completed
        assert dpor.found_bug == dfs.found_bug


class TestSoundnessProperty:
    @given(threads=program_st)
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_dpor_agrees_with_dfs_on_bug_presence(self, threads):
        """On randomly generated programs, DPOR and full DFS agree on
        whether any buggy terminal schedule exists, and DPOR never
        explores more schedules."""
        program = build_program(threads)
        dfs = DFSExplorer().explore(program, 50_000)
        dpor = DPORExplorer().explore(program, 50_000)
        assert dfs.completed and dpor.completed
        assert dpor.schedules <= dfs.schedules
        assert dpor.found_bug == dfs.found_bug


# --- the incremental analysis against its from-scratch oracle --------------


class FromScratchDPOR(DPORExplorer):
    """Test oracle: every execution forgets every point's step and
    re-analyses the whole path, where the production explorer keeps the
    prefix below the point the backtrack step changed (and replays it
    without ``choose``).  The race walk and the state cache's prefix
    check scan every earlier step, where the production explorer visits
    only the key index's lists."""

    def _begin_run(self):
        for point in self._stack:
            point.reset_run_state()
        return super()._begin_run()

    def _sharing_steps(self, j, keys):
        stack = self._stack
        return [
            i for i in range(j - 1, -1, -1) if not keys.isdisjoint(stack[i].keys)
        ]

    def _prefix_conflicts(self, cached):
        creads, cwrites = cached
        if not creads and not cwrites:
            return False
        call = creads | cwrites
        for prev in self._stack:
            if prev.op is not None and not (
                prev.writes.isdisjoint(call)
                and prev.op_writes.isdisjoint(call)
                and prev.reads.isdisjoint(cwrites)
                and prev.op_reads.isdisjoint(cwrites)
            ):
                return True
        return False


#: The searches compared, each built from the DPOR class in effect.
ORACLE_SEARCHES = (
    lambda dpor_cls, **kw: dpor_cls(**kw),
    lambda dpor_cls, **kw: dpor_cls(preemption_bound=1, **kw),
    lambda dpor_cls, **kw: IterativeBPORExplorer(**kw),
)

#: Oracle subjects: random rich-vocabulary scripts and the fixed twins
#: (each twin is also pinned as an explicit example).
oracle_subject_st = st.one_of(rich_program_st, st.sampled_from(FIXED_TWINS))


def with_twin_examples(test):
    for factory in FIXED_TWINS:
        test = example(subject=factory)(test)
    return test


def oracle_program(subject):
    """``(program, visible filter)``: racy sites visible, as in the study,
    so steps also carry invisible footprints."""
    program = subject() if callable(subject) else build_rich_program(subject)
    report = detect_races(program, runs=10, seed=0)
    return program, report.visible_filter() if report.has_races else sync_only_filter


def exploration_record(dpor_cls, search, program, limit, **kw):
    """What one search decided.  Every DPORExplorer it creates — IBPOR's
    per-bound and per-entry searches included — is built from
    ``dpor_cls`` and logs its runs, in creation order."""
    explorers = []

    class Recording(dpor_cls):
        def __init__(self, **kwargs):
            super().__init__(**kwargs)
            self._run_log = []
            explorers.append(self)

    with mock.patch.object(dpor_module, "DPORExplorer", Recording):
        stats = search(Recording, **kw).explore(program, limit)
    return {
        "stats": stats.as_dict(),
        "executions": stats.executions,
        "explorers": [
            (
                [
                    None if r is None else (r.schedule, r.choice_points, r.max_enabled)
                    for r in e._run_log
                ],
                e.state_cache_hits,
                e.frontier_sink,
            )
            for e in explorers
        ],
    }


#: Execution ceilings that end a search early: the run after the last one
#: allowed is stopped before its first step.
EXECUTION_CEILINGS = (1, 2, 3, 5, 8, 13, 21)


def assert_budgeted_runs_match(program, filt, ceilings, make_budget, **kw):
    """Under a fresh ``make_budget(ceiling)`` per search, the incremental
    search decides what the from-scratch oracle decides, run by run."""
    for ceiling in ceilings:
        for search in ORACLE_SEARCHES:
            incremental, from_scratch = (
                exploration_record(
                    dpor_cls,
                    search,
                    program,
                    100,
                    visible_filter=filt,
                    budget=make_budget(ceiling),
                    **kw,
                )
                for dpor_cls in (DPORExplorer, FromScratchDPOR)
            )
            assert incremental == from_scratch, ceiling


def stops_inside_replayed_prefix(program, filt, budget) -> bool:
    """Whether ``budget`` stops a serial DPOR search's last run after its
    first step but inside the prefix it replays without ``choose``."""
    replayed = []

    class Probe(DPORExplorer):
        def _begin_run(self):
            replayed.append(super()._begin_run())
            return replayed[-1]

    explorer = Probe(visible_filter=filt, budget=budget)
    explorer._run_log = []
    explorer.explore(program, 100)
    last = explorer._run_log[-1]
    return (
        last is not None
        and last.outcome is Outcome.TIMEOUT
        and 0 < last.steps < replayed[-1]
    )


#: Step ceilings for :data:`STEP_CEILING_SUBJECT`, several of which land
#: inside a run's replayed prefix.
STEP_CEILINGS = range(20, 400, 9)
STEP_CEILING_SUBJECT = make_account_fixed


class TestIncrementalAnalysis:
    @given(subject=oracle_subject_st)
    @with_twin_examples
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_matches_from_scratch_analysis(self, subject):
        """Keeping the analysis of the replayed prefix changes nothing:
        same stats, executions, state-cache hits, executed schedules in
        order, and BPOR frontier entries as re-analysing every step."""
        program, filt = oracle_program(subject)
        for search in ORACLE_SEARCHES:
            incremental = exploration_record(
                DPORExplorer, search, program, 100, visible_filter=filt
            )
            from_scratch = exploration_record(
                FromScratchDPOR, search, program, 100, visible_filter=filt
            )
            assert incremental == from_scratch

    @given(subject=oracle_subject_st)
    @with_twin_examples
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_execution_ceiling_matches_from_scratch(self, subject):
        """A search an execution ceiling ends stops its last run before
        the run's first step: that run re-seeds no width stats from the
        prefix it never replayed."""
        program, filt = oracle_program(subject)
        assert_budgeted_runs_match(
            program, filt, EXECUTION_CEILINGS, lambda c: Budget(max_executions=c)
        )

    def test_lasso_detector_sees_every_window_step(self):
        """The replayed prefix stops where the lasso detector starts
        watching, so the detector observes the steps it observes when
        every step is chosen: no livelock verdict depends on the replay."""
        program = make_wsq_fixed()  # traces of up to 62 steps
        observed = {}
        original = LassoDetector.observe
        for dpor_cls in (DPORExplorer, FromScratchDPOR):
            steps = observed[dpor_cls] = []

            def observe(detector, kernel, enabled, steps=steps):
                steps.append(kernel.steps)
                return original(detector, kernel, enabled)

            with mock.patch.object(LassoDetector, "observe", observe):
                dpor_cls(max_steps=LASSO_WINDOW + 40).explore(program, 100)
        assert observed[DPORExplorer] == observed[FromScratchDPOR] != []

    def test_step_ceiling_inside_the_replayed_prefix(self):
        """A step ceiling can stop a run inside its replayed prefix: only
        the replayed steps it took count towards its width stats."""
        program, filt = oracle_program(STEP_CEILING_SUBJECT)
        assert any(
            stops_inside_replayed_prefix(program, filt, Budget(max_total_steps=c))
            for c in STEP_CEILINGS
        )
        assert_budgeted_runs_match(
            program, filt, STEP_CEILINGS, lambda c: Budget(max_total_steps=c)
        )
