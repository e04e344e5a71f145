"""Engine hardening: misuse containment, terminal-state audit, lasso
livelock detection, and the paranoid self-check mode (DESIGN.md §12)."""

from types import SimpleNamespace

import pytest

from repro.core import Budget, DFSExplorer, RandomExplorer, make_idb, make_ipb
from repro.core.dpor import DPORExplorer
from repro.engine import (
    CallbackStrategy,
    Outcome,
    RandomStrategy,
    RoundRobinStrategy,
    engine_check_enabled,
    execute,
    set_engine_check,
)
from repro.runtime import (
    EngineInvariantError,
    MisuseKind,
    Mutex,
    Program,
    SharedVar,
    normalize_traceback,
)
from repro.sctbench import ADVERSARIAL, BENCHMARKS, get
from repro.sctbench.adversarial import EXPECTED

RR = RoundRobinStrategy

#: The adversarial programs whose signal is a contained misuse abort,
#: with the MisuseKind value the stats must tally.
ABORTERS = sorted(
    (name, sig.split(":", 1)[1])
    for name, sig in EXPECTED.items()
    if sig.startswith("abort:")
)

EXPLORERS = {
    "DFS": lambda: DFSExplorer(max_steps=300),
    "Rand": lambda: RandomExplorer(seed=7, max_steps=300),
    "DPOR": lambda: DPORExplorer(max_steps=300),
}


def run_one(name, strategy=None, **kw):
    program = next(i for i in ADVERSARIAL if i.name == name).factory()
    return execute(program, strategy or RR(), **kw)


class TestMisuseMatrix:
    """Every misuse kind is contained as ABORT and exploration continues,
    under both a systematic and a randomised explorer."""

    @pytest.mark.parametrize("tech", sorted(EXPLORERS))
    @pytest.mark.parametrize("name,kind", ABORTERS)
    def test_abort_contained_and_exploration_continues(self, tech, name, kind):
        program = next(i for i in ADVERSARIAL if i.name == name).factory()
        stats = EXPLORERS[tech]().explore(program, 15)
        assert stats.aborts > 0
        assert stats.abort_kinds.get(kind, 0) > 0
        assert stats.first_abort is not None
        assert stats.first_abort["kind"] == kind
        # Contained misuse is never reported as a concurrency bug.
        assert not stats.found_bug
        assert stats.first_bug is None
        # The explorer kept going after the abort instead of raising.
        assert stats.executions >= stats.aborts

    @pytest.mark.parametrize("tech", sorted(EXPLORERS))
    def test_schedule_dependent_abort_still_reaches_clean_schedules(self, tech):
        # adv.yield_garbage only misbehaves on schedules where the child
        # observes the flag set; the explorer must skip those and still
        # enumerate terminal (clean) schedules.
        program = next(
            i for i in ADVERSARIAL if i.name == "adv.yield_garbage"
        ).factory()
        stats = EXPLORERS[tech]().explore(program, 15)
        assert stats.aborts > 0
        assert stats.schedules > 0  # clean schedules explored too

    def test_abort_result_shape(self):
        result = run_one("adv.unlock_stranger", RandomStrategy(seed=1))
        if result.outcome is not Outcome.ABORT:  # schedule-dependent
            for seed in range(20):
                result = run_one("adv.unlock_stranger", RandomStrategy(seed=seed))
                if result.outcome is Outcome.ABORT:
                    break
        assert result.outcome is Outcome.ABORT
        assert result.bug is None
        assert result.misuse.kind is MisuseKind.UNLOCK_NOT_OWNER
        assert result.misuse.message
        assert result.misuse.traceback
        assert not result.outcome.is_terminal_schedule
        payload = result.misuse.to_payload()
        assert payload["kind"] == "unlock-not-owner"

    def test_misuse_abort_keeps_schedule_invariant(self):
        result = run_one("adv.double_acquire")
        assert result.outcome is Outcome.ABORT
        assert len(result.schedule) == result.steps


class TestTerminalStateAudit:
    def test_mutex_leak_reported(self):
        result = run_one("adv.mutex_leak")
        assert result.outcome is Outcome.OK
        assert result.leaks is not None
        assert any(label.startswith("mutex-held:") for label in result.leaks)

    def test_thread_leak_reported(self):
        result = run_one("adv.thread_leak")
        assert result.outcome is Outcome.OK
        assert any(
            label.startswith("thread-unjoined:") for label in result.leaks
        )

    def test_clean_program_has_no_leaks(self):
        def setup():
            return SimpleNamespace(m=Mutex("m"))

        def child(ctx, sh):
            yield ctx.lock(sh.m)
            yield ctx.unlock(sh.m)

        def main(ctx, sh):
            h = yield ctx.spawn(child)
            yield ctx.lock(sh.m)
            yield ctx.unlock(sh.m)
            yield ctx.join(h)

        result = execute(Program("clean", setup, main), RR())
        assert result.outcome is Outcome.OK
        assert result.leaks is None

    def test_leaks_counted_per_schedule_in_stats(self):
        program = next(
            i for i in ADVERSARIAL if i.name == "adv.mutex_leak"
        ).factory()
        stats = DFSExplorer(max_steps=300).explore(program, 20)
        assert stats.leaks
        assert any(k.startswith("mutex-held:") for k in stats.leaks)
        assert sum(stats.leaks.values()) <= stats.schedules


class TestLivelockDetection:
    def test_spin_loop_is_confirmed_livelock(self):
        result = run_one("adv.livelock", max_steps=150)
        assert result.outcome is Outcome.LIVELOCK
        assert result.lasso_len is not None
        assert 1 <= result.lasso_len <= 150
        assert not result.outcome.is_terminal_schedule

    def test_progressing_loop_is_plain_step_limit(self):
        # Same shape as a livelock, but every iteration mutates tracked
        # state — the fingerprint never recurs, so no lasso is confirmed.
        def setup():
            return SimpleNamespace(v=SharedVar(0, "v"))

        def main(ctx, sh):
            n = 0
            while True:
                n += 1
                yield ctx.store(sh.v, n)

        result = execute(Program("progress", setup, main), RR(), max_steps=150)
        assert result.outcome is Outcome.STEP_LIMIT
        assert result.lasso_len is None

    @pytest.mark.parametrize(
        "make", [DFSExplorer, make_ipb, make_idb], ids=["DFS", "IPB", "IDB"]
    )
    def test_replayed_prefix_does_not_hide_a_livelock(self, make):
        # Two spinners, one joined: every run ends in a lasso.  Every
        # step is a choice point, so each run replays a prefix reaching
        # into the detector's window and chooses only its last steps;
        # the replayed steps must still feed the detector.
        def spinner(ctx, sh):
            while True:
                yield ctx.sched_yield(site="spin")

        def main(ctx, sh):
            first = yield ctx.spawn(spinner)
            yield ctx.spawn(spinner)
            yield ctx.join(first)

        program = Program("two_spinners", SimpleNamespace, main)
        stats = make(max_steps=300).explore(program, 8)
        assert stats.as_dict()["livelocks"] == 8

    def test_livelock_counts_in_stats(self):
        program = next(
            i for i in ADVERSARIAL if i.name == "adv.livelock"
        ).factory()
        stats = RandomExplorer(seed=3, max_steps=150).explore(program, 10)
        assert stats.livelock_hits > 0
        assert stats.max_lasso >= 1
        # LIVELOCK still counts as a step-limit hit, preserving the
        # executions == schedules + step_limit_hits accounting.
        assert stats.step_limit_hits >= stats.livelock_hits


class TestSelfCheckMode:
    def teardown_method(self):
        set_engine_check(None)

    def test_env_var_and_override(self, monkeypatch):
        monkeypatch.delenv("REPRO_ENGINE_CHECK", raising=False)
        set_engine_check(None)
        assert engine_check_enabled() is False
        monkeypatch.setenv("REPRO_ENGINE_CHECK", "1")
        assert engine_check_enabled() is True
        set_engine_check(False)
        assert engine_check_enabled() is False
        set_engine_check(True)
        monkeypatch.setenv("REPRO_ENGINE_CHECK", "0")
        assert engine_check_enabled() is True

    def test_results_unchanged_under_check(self):
        program = get(0).factory()
        baseline = execute(program, RandomStrategy(seed=5))
        set_engine_check(True)
        checked = execute(program, RandomStrategy(seed=5))
        assert checked.outcome is baseline.outcome
        assert checked.schedule == baseline.schedule

    def test_illegal_strategy_choice_caught(self):
        def setup():
            return SimpleNamespace(v=SharedVar(0, "v"))

        def main(ctx, sh):
            yield ctx.store(sh.v, 1)
            yield ctx.store(sh.v, 2)

        set_engine_check(True)
        strategy = CallbackStrategy(lambda step, enabled, last, kernel: 99)
        with pytest.raises(EngineInvariantError):
            execute(Program("illegal", setup, main), strategy)

    def test_adversarial_corpus_survives_check_mode(self):
        set_engine_check(True)
        for info in ADVERSARIAL:
            result = execute(info.factory(), RandomStrategy(seed=1), max_steps=150)
            assert result.outcome in (
                Outcome.OK,
                Outcome.ABORT,
                Outcome.LIVELOCK,
                Outcome.STEP_LIMIT,
                Outcome.DEADLOCK,
            ), (info.name, result.outcome)

    def test_dpor_survives_adversarial_corpus_under_check_mode(self):
        """DPOR explores every adversarial program under the paranoid
        self-checks with a live budget: aborts are contained and counted,
        nothing escapes as an exception, and the budget keeps the always-
        aborting subjects from spinning."""
        set_engine_check(True)
        for info in ADVERSARIAL:
            stats = DPORExplorer(
                max_steps=150,
                budget=Budget(deadline_seconds=60.0).start(),
            ).explore(info.factory(), 10)
            assert stats.executions > 0, info.name
            sig = EXPECTED[info.name]
            if sig.startswith("abort:"):
                assert stats.aborts > 0, info.name
                assert stats.abort_kinds.get(sig.split(":", 1)[1], 0) > 0
                assert not stats.found_bug, info.name


class TestRegistry:
    def test_adversarial_outside_the_grid(self):
        grid_names = {i.name for i in BENCHMARKS}
        assert len(BENCHMARKS) == 52
        for info in ADVERSARIAL:
            assert info.name not in grid_names
            assert info.bench_id >= 100
            assert get(info.bench_id) is info
        assert set(EXPECTED) == {i.name for i in ADVERSARIAL}

    def test_get_unknown_id_raises(self):
        with pytest.raises(KeyError):
            get(99)


class TestNormalizeTraceback:
    def test_stable_rendering(self):
        def inner():
            raise ValueError("boom")

        try:
            inner()
        except ValueError as exc:
            text = normalize_traceback(exc)
        assert "ValueError: boom" in text
        assert "inner" in text
        # No absolute paths, no line numbers: diffable across versions.
        assert "/" not in text
        assert "line " not in text
