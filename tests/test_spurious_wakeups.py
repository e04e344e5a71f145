"""Spurious condvar wakeups (the CHESS ``/spuriouswakeups`` feature).

POSIX allows ``pthread_cond_wait`` to return without a signal; code that
checks its predicate with ``if`` instead of ``while`` is broken.  With
``spurious_wakeups=1`` the engine makes every parked condvar waiter
schedulable, so systematic search exposes the missing-recheck bug; the
correctly written variant must stay clean even under spurious wakeups.
"""

from types import SimpleNamespace

import pytest

from repro.core import DFSExplorer, RandomExplorer
from repro.engine import Outcome, RoundRobinStrategy, execute, replay
from repro.runtime import CondVar, Mutex, Program, SharedVar


def make_handshake(recheck: bool) -> Program:
    """Consumer waits for ``ready``; producer sets it and signals.

    ``recheck=False`` is the bug: the consumer tests the predicate with
    ``if``, so a spurious wakeup lets it proceed before the data exists.
    """

    def setup():
        return SimpleNamespace(
            m=Mutex("m"),
            cv=CondVar("cv"),
            ready=SharedVar(0, "ready"),
            data=SharedVar(None, "data"),
        )

    def consumer(ctx, sh):
        yield ctx.lock(sh.m)
        if recheck:
            while True:
                r = yield ctx.load(sh.ready)
                if r:
                    break
                yield ctx.cond_wait(sh.cv, sh.m)
        else:
            r = yield ctx.load(sh.ready)
            if not r:
                yield ctx.cond_wait(sh.cv, sh.m)  # BUG: no re-check
        v = yield ctx.load(sh.data)
        yield ctx.unlock(sh.m)
        ctx.check(v == 42, f"consumed data={v} before production")

    def producer(ctx, sh):
        yield ctx.lock(sh.m)
        yield ctx.store(sh.data, 42)
        yield ctx.store(sh.ready, 1)
        yield ctx.cond_signal(sh.cv)
        yield ctx.unlock(sh.m)

    def main(ctx, sh):
        c = yield ctx.spawn(consumer)
        p = yield ctx.spawn(producer)
        yield ctx.join(c)
        yield ctx.join(p)

    name = "handshake_while" if recheck else "handshake_if"
    return Program(name, setup, main)


class TestWithoutSpuriousWakeups:
    def test_if_variant_passes_ordinary_search(self):
        # Without spurious wakeups the signal implies the predicate, so
        # the buggy variant is unfalsifiable — exactly why such bugs ship.
        stats = DFSExplorer().explore(make_handshake(recheck=False), 10_000)
        assert stats.completed
        assert not stats.found_bug


class TestWithSpuriousWakeups:
    def test_if_variant_fails(self):
        stats = DFSExplorer(spurious_wakeups=1).explore(
            make_handshake(recheck=False), 10_000
        )
        assert stats.found_bug
        assert stats.first_bug.outcome is Outcome.ASSERTION

    def test_while_variant_still_clean(self):
        stats = DFSExplorer(spurious_wakeups=1).explore(
            make_handshake(recheck=True), 10_000
        )
        assert stats.completed
        assert not stats.found_bug

    def test_random_explorer_supports_it_too(self):
        stats = RandomExplorer(seed=4, spurious_wakeups=1).explore(
            make_handshake(recheck=False), 2_000
        )
        assert stats.found_bug

    def test_bug_replayable_with_flag(self):
        program = make_handshake(recheck=False)
        stats = DFSExplorer(spurious_wakeups=1).explore(program, 10_000)
        result = replay(
            program, stats.first_bug.schedule, spurious_wakeups=1
        )
        assert result.outcome is Outcome.ASSERTION

    def test_wake_never_jumps_a_held_mutex(self):
        # Spuriously waking a waiter whose mutex is held must not break
        # mutual exclusion: the woken thread blocks at the reacquire, so
        # the holder's critical section is never observed half-done.
        def setup():
            return SimpleNamespace(
                m=Mutex("m"), cv=CondVar("cv"), in_cs=SharedVar(0, "in_cs")
            )

        def waiter(ctx, sh):
            yield ctx.lock(sh.m)
            yield ctx.cond_wait(sh.cv, sh.m)
            busy = yield ctx.load(sh.in_cs)
            ctx.check(busy == 0, "woke into an occupied critical section")
            yield ctx.unlock(sh.m)

        def holder(ctx, sh):
            yield ctx.lock(sh.m)
            yield ctx.store(sh.in_cs, 1)
            yield ctx.sched_yield()
            yield ctx.store(sh.in_cs, 0)
            yield ctx.cond_signal(sh.cv)
            yield ctx.unlock(sh.m)

        def main(ctx, sh):
            w = yield ctx.spawn(waiter)
            h = yield ctx.spawn(holder)
            yield ctx.join(w)
            yield ctx.join(h)

        program = Program("wake_vs_mutex", setup, main)
        # Exhaustive: mutual exclusion holds on every schedule, spurious
        # wake-ups included.
        stats = DFSExplorer(spurious_wakeups=1).explore(program, 10_000)
        assert stats.completed
        assert not stats.found_bug
        for seed in range(40):
            st = RandomExplorer(seed=seed, spurious_wakeups=1).explore(
                program, 20
            )
            assert not st.found_bug

    def test_default_engine_unaffected(self):
        program = make_handshake(recheck=False)
        result = execute(program, RoundRobinStrategy())
        assert result.outcome is Outcome.OK
