"""Process-tree supervision: ceilings, tree kills, degradation, faults.

Covers the supervisor stack end to end: /proc tree sampling, the
in-worker :class:`CellSupervisor` (RSS/fd ceilings, disk floor, orphan
reaping, budget tripping), the parent-side :class:`StudySupervisor`
group sweep, the :class:`DegradationController` rungs, the new
``oom``/``orphan``/``disk-full`` fault kinds, the snapshot child
registry (holder-leak regression), and the ``oom``/``resource``
statuses through retry, resume and reporting.
"""

import json
import multiprocessing
import multiprocessing.connection
import os
import signal
import time

import pytest

from repro.core.budget import Budget
from repro.study import taxonomy
from repro.study.config import StudyConfig
from repro.study import faults as faults_mod
from repro.study import supervisor as sup
from repro.study.parallel import ParallelStudyRunner, exit_codes
from repro.study.report import resource_usage_summary
from repro.study.runner import run_cell
from repro.study.supervisor import (
    CellSupervisor,
    DegradationController,
    ResourceBreach,
    StudySupervisor,
)

from .test_store import stored

pytestmark = pytest.mark.skipif(
    not sup.proc_available() or not hasattr(os, "fork"),
    reason="needs /proc and os.fork",
)

BENCH = "CS.reorder_3_bad"


def _fork_sleeper(seconds: float = 60.0, own_group: bool = False) -> int:
    """Fork a child that sleeps; returns its pid (parent side)."""
    pid = os.fork()
    if pid == 0:
        try:
            if own_group:
                os.setpgid(0, 0)
            time.sleep(seconds)
        finally:
            os._exit(0)
    if own_group:
        try:
            os.setpgid(pid, pid)  # racing the child's own call is fine
        except OSError:
            pass
    return pid


def _die_by_sigkill() -> None:
    os.kill(os.getpid(), signal.SIGKILL)


def _alive(pid: int) -> bool:
    """Whether ``pid`` is live and not yet a zombie."""
    fields = sup._read_stat_fields(pid)
    if fields is None:
        return False
    try:
        with open(f"/proc/{pid}/stat", "rb") as fh:
            data = fh.read()
        return data[data.rindex(b")") + 2:].split()[0] != b"Z"
    except (OSError, ValueError):
        return False


def small_config(**kw) -> StudyConfig:
    cfg = StudyConfig(schedule_limit=kw.pop("limit", 40))
    cfg.benchmarks = [BENCH]
    cfg.techniques = kw.pop("techniques", ["Rand"])
    cfg.retry_backoff = 0.0
    for key, value in kw.items():
        setattr(cfg, key, value)
    return cfg


class TestProcSampling:
    def test_read_rss_self(self):
        rss = sup.read_rss(os.getpid())
        assert rss is not None and rss > 1024 * 1024

    def test_read_fd_count_self(self):
        assert sup.read_fd_count(os.getpid()) >= 3

    def test_gone_pid_reads_none(self):
        # Fork-and-reap guarantees the pid is free short-term.
        pid = _fork_sleeper(0.0)
        os.waitpid(pid, 0)
        assert sup.read_rss(pid) is None
        assert sup.read_fd_count(pid) is None

    def test_descendants_and_tree_sample(self):
        pid = _fork_sleeper()
        try:
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                if pid in sup.descendant_pids(os.getpid()):
                    break
                time.sleep(0.01)
            assert pid in sup.descendant_pids(os.getpid())
            rss, fds, procs = sup.tree_sample(os.getpid())
            assert procs >= 2
            assert rss > sup.read_rss(os.getpid())  # child's RSS included
        finally:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)

    def test_free_disk_override_and_real(self):
        assert sup.free_disk_bytes(".") > 0
        sup.set_disk_override(123)
        try:
            assert sup.free_disk_bytes("/nonexistent/path") == 123
        finally:
            sup.set_disk_override(None)

    def test_free_disk_walks_to_existing_parent(self):
        missing = os.path.join(os.getcwd(), "no", "such", "dir")
        assert sup.free_disk_bytes(missing) > 0


class TestKillTree:
    def test_killpg_takes_grandchildren(self):
        # Child in its own group forks a grandchild; one kill_tree on the
        # child must take both (the grandchild via group membership).
        pid = os.fork()
        if pid == 0:
            try:
                os.setpgid(0, 0)
                gpid = os.fork()
                if gpid == 0:
                    time.sleep(60)
                    os._exit(0)
                time.sleep(60)
            finally:
                os._exit(0)
        try:
            os.setpgid(pid, pid)
        except OSError:
            pass
        deadline = time.monotonic() + 5.0
        grandchildren = []
        while time.monotonic() < deadline and not grandchildren:
            grandchildren = [
                p for p in sup.pids_in_groups([pid]) if p != pid
            ]
            time.sleep(0.01)
        assert grandchildren, "grandchild never appeared in the group"
        sup.kill_tree(pid)
        os.waitpid(pid, 0)
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            if not any(_alive(p) for p in grandchildren):
                break
            time.sleep(0.01)
        assert not any(_alive(p) for p in grandchildren)

    def test_kill_tree_never_signals_own_group(self):
        # Killing a dead/foreign pid degrades to per-pid attempts and
        # must not signal this test process.
        assert sup.kill_tree(2**22 + os.getpid() % 1000) is not None


class TestCellSupervisor:
    def test_from_config_none_without_ceilings(self):
        assert CellSupervisor.from_config(StudyConfig(), None) is None

    def test_rss_ceiling_trips_budget_and_records_breach(self):
        budget = Budget()
        cs = CellSupervisor(budget, max_rss=1)  # breaches on first sample
        assert cs._sample() is True
        breach = cs.finish()
        assert isinstance(breach, ResourceBreach)
        assert breach.status == taxonomy.OOM
        assert budget.expired and "RSS" in budget.reason
        snap = cs.snapshot()
        assert snap["peak_rss"] > 0 and snap["peak_procs"] >= 1

    def test_fd_ceiling_is_resource_status(self):
        budget = Budget()
        cs = CellSupervisor(budget, max_fds=1)
        assert cs._sample() is True
        assert cs.finish().status == taxonomy.RESOURCE

    def test_disk_floor_uses_override(self):
        budget = Budget()
        cs = CellSupervisor(
            budget, min_free_disk=1024, watch_dir=os.getcwd()
        )
        sup.set_disk_override(0)
        try:
            assert cs._sample() is True
        finally:
            sup.set_disk_override(None)
        breach = cs.finish()
        assert breach.status == taxonomy.RESOURCE
        assert "free disk" in breach.detail

    def test_within_ceilings_no_breach_but_peaks_tracked(self):
        cs = CellSupervisor(Budget(), max_rss=2**40)
        assert cs._sample() is False
        assert cs.finish() is None
        assert cs.snapshot()["peak_rss"] > 0

    def test_breach_kills_descendants(self):
        pid = _fork_sleeper()
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            if pid in sup.descendant_pids(os.getpid()):
                break
            time.sleep(0.01)
        cs = CellSupervisor(Budget(), max_rss=1)
        assert cs._sample() is True
        assert pid in cs.killed_pids
        assert not _alive(pid)

    def test_finish_reaps_orphans_as_resource_breach(self):
        pid = _fork_sleeper()
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            if pid in sup.descendant_pids(os.getpid()):
                break
            time.sleep(0.01)
        cs = CellSupervisor(Budget(), max_rss=2**40)
        breach = cs.finish()
        assert breach is not None
        assert breach.status == taxonomy.RESOURCE
        assert "orphaned" in breach.detail
        assert pid in cs.snapshot()["reaped_pids"]
        assert not _alive(pid)


class TestStudySupervisor:
    def test_sweep_reaps_group_survivors(self):
        worker = _fork_sleeper(own_group=True)
        ss = StudySupervisor()
        ss.register_worker(worker)
        # Kill the "worker" directly (as the kernel OOM killer would);
        # then sweep must find nothing extra, reaping only survivors.
        ss.kill_worker_tree(worker)
        os.waitpid(worker, 0)
        assert ss.tree_kills == 1
        assert ss.sweep() == 0

    def test_sweep_counts_reparented_orphans(self):
        # A worker whose child outlives it: kill only the worker, then
        # sweep must catch the orphan via group membership.
        worker = os.fork()
        if worker == 0:
            try:
                os.setpgid(0, 0)
                _fork_sleeper(60.0)
                time.sleep(60)
            finally:
                os._exit(0)
        try:
            os.setpgid(worker, worker)
        except OSError:
            pass
        deadline = time.monotonic() + 5.0
        orphans = []
        while time.monotonic() < deadline and not orphans:
            orphans = [p for p in sup.pids_in_groups([worker]) if p != worker]
            time.sleep(0.01)
        assert orphans
        os.kill(worker, signal.SIGKILL)
        os.waitpid(worker, 0)
        ss = StudySupervisor()
        ss.register_worker(worker)
        assert ss.sweep() >= 1
        assert ss.reaped_orphans >= 1
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            if not any(_alive(p) for p in orphans):
                break
            time.sleep(0.01)
        assert not any(_alive(p) for p in orphans)

    def test_exit_codes_read_a_dead_worker_past_a_live_one(self):
        # A broken pool lists its workers in no particular order.  A live
        # sibling listed first must not hold up reading the SIGKILLed
        # worker's code: that code is what attributes the crash to the
        # OOM killer.
        ctx = multiprocessing.get_context("spawn")
        live = ctx.Process(target=time.sleep, args=(60,))
        dead = ctx.Process(target=_die_by_sigkill)
        live.start()
        dead.start()
        try:
            assert multiprocessing.connection.wait([dead.sentinel], 30)
            start = time.monotonic()
            codes = exit_codes([live, dead], timeout=10.0)
            elapsed = time.monotonic() - start
        finally:
            live.kill()
            live.join(timeout=30)
            dead.join(timeout=30)
        assert not live.is_alive()
        assert codes == [-signal.SIGKILL]
        assert elapsed < 5.0


class TestDegradationController:
    def _oom_record(self):
        return {"bench": BENCH, "technique": "Rand", "status": taxonomy.OOM}

    def test_first_breach_disables_snapshots(self):
        cfg = small_config(snapshots=True, cell_shards=8)
        dc = DegradationController()
        assert dc.observe(self._oom_record(), cfg) is True
        assert cfg.snapshots is False
        assert cfg.cell_shards == 8  # rung 2 not yet
        assert dc.events[0]["action"] == "disable-snapshots"

    def test_second_breach_halves_shards_with_floor(self):
        cfg = small_config(snapshots=True, cell_shards=8)
        dc = DegradationController()
        dc.observe(self._oom_record(), cfg)
        assert dc.observe(self._oom_record(), cfg) is True
        assert cfg.cell_shards == 4
        dc.observe(self._oom_record(), cfg)
        assert cfg.cell_shards == 2
        # Floor: never to 1 (that would change the Rand/PCT stream).
        assert dc.observe(self._oom_record(), cfg) is False
        assert cfg.cell_shards == 2

    def test_disabled_controller_counts_but_never_acts(self):
        cfg = small_config(snapshots=True)
        dc = DegradationController(enabled=False)
        assert dc.observe(self._oom_record(), cfg) is False
        assert cfg.snapshots is True
        assert dc.oom_breaches == 1 and not dc.events

    def test_non_oom_statuses_ignored(self):
        cfg = small_config(snapshots=True)
        dc = DegradationController()
        for status in (taxonomy.OK, taxonomy.RESOURCE, taxonomy.ERROR):
            rec = {"bench": BENCH, "technique": "Rand", "status": status}
            assert dc.observe(rec, cfg) is False
        assert cfg.snapshots is True


class TestFingerprintDiscipline:
    def test_ceilings_absent_keep_old_fingerprint(self):
        base = StudyConfig(schedule_limit=100)
        armed = StudyConfig(schedule_limit=100)
        armed.auto_degrade = False
        armed.supervise_dir = "/anywhere"
        assert armed.fingerprint() == base.fingerprint()

    def test_ceilings_set_change_fingerprint(self):
        base = StudyConfig(schedule_limit=100)
        armed = StudyConfig(schedule_limit=100)
        armed.cell_max_rss = 1 << 30
        assert armed.fingerprint() != base.fingerprint()

    def test_degradation_touches_only_unfingerprinted_knobs(self):
        cfg = small_config(snapshots=True)
        before = cfg.fingerprint()
        DegradationController().observe(
            {"bench": BENCH, "technique": "Rand", "status": taxonomy.OOM},
            cfg,
        )
        assert cfg.snapshots is False
        assert cfg.fingerprint() == before


class TestFaultKinds:
    def test_oom_ballast_is_resident_and_clearable(self):
        spec = faults_mod.FaultSpec("b", "t", "oom", bytes=32 * 1024 * 1024)
        before = sup.read_rss(os.getpid())
        faults_mod.fire(spec)
        try:
            after = sup.read_rss(os.getpid())
            assert after - before > 24 * 1024 * 1024
        finally:
            faults_mod.clear_injected_state()
        assert not faults_mod._ballast

    def test_disk_full_sets_and_clears_override(self):
        faults_mod.fire(faults_mod.FaultSpec("b", "t", "disk-full"))
        try:
            assert sup.free_disk_bytes(".") == 0
        finally:
            faults_mod.clear_injected_state()
        assert sup.free_disk_bytes(".") > 0

    def test_orphan_leaks_a_child(self):
        before = set(sup.descendant_pids(os.getpid()))
        faults_mod.fire(faults_mod.FaultSpec("b", "t", "orphan", seconds=60))
        deadline = time.monotonic() + 5.0
        leaked = set()
        while time.monotonic() < deadline and not leaked:
            leaked = set(sup.descendant_pids(os.getpid())) - before
            time.sleep(0.01)
        assert leaked
        for pid in leaked:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            faults_mod.FaultSpec("b", "t", "meteor")


class TestSnapshotChildRegistry:
    """Satellite regression: parked holders must never outlive the run."""

    def test_reap_all_children_kills_abandoned_child(self):
        from repro.engine import snapshot as snap

        from .programs import unsafe_counter

        runner = snap.snapshot_dfs(unsafe_counter())
        pid, go, res = runner._fork()
        if pid == 0:
            try:
                os.read(go, 1)  # parked until woken or the parent is gone
            finally:
                os._exit(0)
        snap._Child(pid, go, res)
        assert pid in snap._live_children
        # Abnormal teardown: nobody collects the holder.  The atexit
        # backstop (called directly here) must kill and reap the child.
        reaped = snap.reap_all_children()
        snap._close(go, res)
        assert pid in reaped
        assert not snap._live_children
        assert not _alive(pid)

    def test_holder_leak_on_abnormal_exit_is_reaped(self, monkeypatch):
        # A SnapshotRunner whose consumer dies mid-stream without close():
        # the registry still knows the parked holders.
        from repro.engine import snapshot as snap

        from .programs import unsafe_counter

        monkeypatch.setattr(snap, "DEFAULT_MIN_FORK_STEPS", 1)
        monkeypatch.setattr(snap, "default_procs", lambda: 1)
        runner = snap.snapshot_dfs(unsafe_counter())
        gen = runner.runs()
        for _ in range(2):
            next(gen)
        holder_pids = [h.pid for h in runner._holders]
        if not holder_pids:
            pytest.skip("subject too shallow to fork a holder here")
        # Simulate abnormal unwind: drop the generator without closing.
        del gen
        reaped = snap.reap_all_children()
        for pid in holder_pids:
            assert not _alive(pid)
        runner._holders = []  # already dead; avoid double-kill noise

    def test_child_registry_reset_in_children(self):
        from repro.engine import snapshot as snap

        from .programs import unsafe_counter

        parent_pid = _fork_sleeper(0.0)
        os.waitpid(parent_pid, 0)
        snap._register_child(parent_pid)
        try:
            runner = snap.snapshot_dfs(unsafe_counter())
            pid, go, res = runner._fork()
            if pid == 0:
                try:
                    snap._write_msg(res, len(snap._live_children))
                finally:
                    os._exit(0)
            holder = snap._Child(pid, go, res)
            try:
                # The child saw a cleared registry (its inherited copy
                # listed a sibling it does not own).
                assert snap._read_msg(res) == 0
            finally:
                holder.reap()
        finally:
            snap._unregister_child(parent_pid)


class TestCrossBoundSupervision:
    """Satellite regression: cross-bound parked holders must be visible
    to the supervision stack — counted by the /proc tree sampler (what
    ``peak_procs`` reads), taken by ``kill_worker_tree``'s group kill,
    and invisible to the post-pool ``sweep()`` afterwards."""

    def test_parked_cross_holders_counted_killed_and_swept(self):
        r, w = os.pipe()
        worker = os.fork()
        if worker == 0:
            try:
                os.setpgid(0, 0)
                os.close(r)
                from repro.core.bounds import PREEMPTION
                from repro.engine import snapshot as snap

                from .programs import unsafe_counter

                snap.DEFAULT_MIN_FORK_STEPS = 1
                snap.default_procs = lambda: 1
                search = snap.SnapshotFrontierSearch(
                    unsafe_counter(3, 1), PREEMPTION
                )
                for _ in search.runs_at_bound(0):
                    pass
                search._cross.drain()
                pids = [h.pid for h in search._cross.holders.values()]
                os.write(w, (json.dumps(pids) + "\n").encode())
                time.sleep(60)
            finally:
                os._exit(0)
        try:
            os.setpgid(worker, worker)
        except OSError:
            pass
        os.close(w)
        with os.fdopen(r) as fh:
            holder_pids = json.loads(fh.readline())
        assert holder_pids, "bound-0 search parked no cross-bound holders"
        # Counted: the sampler behind CellSupervisor's peak_procs sees
        # every holder via the worker's group — including any whose
        # forker already exited (reparented to init, invisible to the
        # parent-link walk).
        assert set(holder_pids) <= set(sup.pids_in_groups([worker]))
        assert sup.tree_sample(worker)[2] >= 1 + len(holder_pids)
        # Killed: one group kill on the worker takes every parked holder.
        ss = StudySupervisor()
        ss.register_worker(worker)
        ss.kill_worker_tree(worker)
        os.waitpid(worker, 0)
        assert ss.tree_kills == 1
        # The SIGKILLs are asynchronous: give the holders a moment to
        # actually die (production's sweep runs post-pool, well after
        # the kill has settled).
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            if not any(_alive(p) for p in holder_pids):
                break
            time.sleep(0.01)
        assert not any(_alive(p) for p in holder_pids)
        # Swept: the post-pool sweep finds zero survivors.
        assert ss.sweep() == 0


class TestCellEndToEnd:
    def test_oom_fault_yields_oom_status_with_partial_stats(self):
        # Faults fire in the pool's cell wrapper; here we hold the
        # ballast ourselves, since run_cell is called directly.
        cfg = small_config(
            limit=200,
            stop_at_first_bug=False,
            cell_max_rss=200 * 1024 * 1024,
        )
        try:
            faults_mod.fire(faults_mod.FaultSpec(
                BENCH, "Rand", "oom", bytes=400 * 1024 * 1024
            ))
            rec = run_cell(BENCH, "Rand", cfg)
        finally:
            faults_mod.clear_injected_state()
        assert rec["status"] == taxonomy.OOM
        assert "RSS" in rec["error"]
        assert rec["resource"]["peak_rss"] > 200 * 1024 * 1024
        # Stats survive the breach, whether the stop was cooperative
        # (partial) or the cell beat the sampler to the finish line.
        if rec["stats"] is not None:
            assert 0 < rec["stats"]["schedules"] <= 200

    def test_unsupervised_record_has_no_new_keys(self):
        rec = run_cell(BENCH, "Rand", small_config())
        assert "resource" not in rec

    def test_supervised_clean_record_carries_telemetry(self):
        cfg = small_config(cell_max_rss=2**40)
        rec = run_cell(BENCH, "Rand", cfg)
        assert rec["status"] == taxonomy.BUG
        assert rec["error"] is None
        assert rec["resource"]["peak_rss"] > 0


class TestStudyEndToEnd:
    def test_oom_breach_retries_then_succeeds(self, tmp_path):
        cfg = small_config(
            limit=200,
            stop_at_first_bug=False,
            cell_max_rss=200 * 1024 * 1024,
            snapshots=True,
            faults=[{
                "cell": f"{BENCH}/Rand", "kind": "oom",
                "attempts": [0], "bytes": 400 * 1024 * 1024,
            }],
        )
        runner = ParallelStudyRunner(
            cfg, jobs=2, run_id="oom-retry", checkpoint_dir=str(tmp_path)
        )
        study = runner.run()
        result = study.results[0]
        # Attempt 0 breached; the in-run retry (under degraded knobs)
        # succeeded and superseded it.
        assert result.statuses == {}
        assert study.supervision is not None
        actions = [ev["action"] for ev in study.supervision["degradation"]]
        assert "disable-snapshots" in actions
        assert runner._effective.snapshots is False
        assert cfg.snapshots is True  # the original config is untouched

    def test_persistent_oom_recorded_and_retryable_on_resume(
        self, tmp_path, monkeypatch
    ):
        # Inject via the env channel: it reaches forked workers but is
        # not fingerprinted, so the resume below matches the stored run.
        monkeypatch.setenv(faults_mod.ENV_FAULTS, json.dumps([{
            "cell": f"{BENCH}/Rand", "kind": "oom",
            "attempts": [0, 1], "bytes": 400 * 1024 * 1024,
        }]))
        cfg = small_config(
            limit=200,
            stop_at_first_bug=False,
            cell_max_rss=200 * 1024 * 1024,
        )
        runner = ParallelStudyRunner(
            cfg, jobs=2, run_id="oom-resume", checkpoint_dir=str(tmp_path)
        )
        study = runner.run()
        assert study.results[0].statuses == {"Rand": taxonomy.OOM}
        assert taxonomy.is_retryable(taxonomy.OOM)
        # Resume with --retry-errors and the fault gone: the cell heals.
        monkeypatch.delenv(faults_mod.ENV_FAULTS)
        cfg2 = small_config(
            limit=200,
            stop_at_first_bug=False,
            cell_max_rss=200 * 1024 * 1024,
        )
        runner2 = ParallelStudyRunner(
            cfg2, jobs=2, run_id="oom-resume",
            checkpoint_dir=str(tmp_path), retry_errors=True,
        )
        study2 = runner2.run()
        assert study2.results[0].statuses == {}
        info, _ = stored(tmp_path, "oom-resume")
        assert taxonomy.status_of(
            info.completed[(BENCH, "Rand")]
        ) == taxonomy.BUG

    def test_orphan_fault_contained_and_classified(self, tmp_path):
        cfg = small_config(
            cell_max_rss=2**40,  # arm supervision; never trips
            faults=[{
                "cell": f"{BENCH}/Rand", "kind": "orphan",
                "attempts": [0, 1], "seconds": 300,
            }],
        )
        runner = ParallelStudyRunner(
            cfg, jobs=2, run_id="orphan", checkpoint_dir=str(tmp_path)
        )
        study = runner.run()
        result = study.results[0]
        assert result.statuses == {"Rand": taxonomy.RESOURCE}
        reaped = result.resources["Rand"]["reaped_pids"]
        assert reaped
        for pid in reaped:
            assert not _alive(pid)

    def test_disk_full_fault_is_resource_status(self, tmp_path):
        cfg = small_config(
            min_free_disk=1024,
            faults=[{
                "cell": f"{BENCH}/Rand", "kind": "disk-full",
                "attempts": [0, 1],
            }],
        )
        runner = ParallelStudyRunner(
            cfg, jobs=2, run_id="disk", checkpoint_dir=str(tmp_path)
        )
        study = runner.run()
        result = study.results[0]
        assert result.statuses == {"Rand": taxonomy.RESOURCE}
        assert "free disk" in result.errors["Rand"]

    def test_sigkilled_worker_classifies_oom_not_quarantined(
        self, tmp_path, monkeypatch
    ):
        # The kernel OOM killer sends SIGKILL without consulting our
        # sampler.  Rewire the crash fault to die by real SIGKILL (pool
        # workers inherit the patched module via fork): the quarantine
        # logic must see every attributed crash was a SIGKILL and bench
        # the cell as `oom`, not `quarantined`.
        real_fire = faults_mod.fire

        def sigkill_fire(spec):
            if spec.kind == "crash":
                os.kill(os.getpid(), signal.SIGKILL)
            return real_fire(spec)

        monkeypatch.setattr(faults_mod, "fire", sigkill_fire)
        cfg = small_config(
            faults=[{
                "cell": f"{BENCH}/Rand", "kind": "crash",
                "attempts": [0, 1, 2, 3],
            }],
        )
        study = ParallelStudyRunner(
            cfg, jobs=2, run_id="oomkill", checkpoint_dir=str(tmp_path)
        ).run()
        result = study.results[0]
        assert result.statuses == {"Rand": taxonomy.OOM}
        assert "SIGKILL" in result.errors["Rand"]

    def test_serial_path_retries_oom_in_run(self, tmp_path):
        cfg = small_config(
            limit=200,
            stop_at_first_bug=False,
            cell_max_rss=200 * 1024 * 1024,
            faults=[{
                "cell": f"{BENCH}/Rand", "kind": "oom",
                "attempts": [0], "bytes": 400 * 1024 * 1024,
            }],
        )
        runner = ParallelStudyRunner(
            cfg, jobs=1, run_id="serial-oom", checkpoint_dir=str(tmp_path)
        )
        try:
            study = runner.run()
        finally:
            faults_mod.clear_injected_state()
        assert study.results[0].statuses == {}

    def test_supervision_record_ignored_by_old_readers(self, tmp_path):
        cfg = small_config(
            limit=200,
            stop_at_first_bug=False,
            cell_max_rss=200 * 1024 * 1024,
            snapshots=True,
            faults=[{
                "cell": f"{BENCH}/Rand", "kind": "oom",
                "attempts": [0], "bytes": 400 * 1024 * 1024,
            }],
        )
        ParallelStudyRunner(
            cfg, jobs=2, run_id="sup-rec", checkpoint_dir=str(tmp_path)
        ).run()
        info, events = stored(tmp_path, "sup-rec")
        assert "supervision" in [ev["kind"] for ev in events]
        # The cell reader skips it without error; cells still resume.
        assert (BENCH, "Rand") in info.completed
        assert not info.corrupt_lines

    def test_fault_free_supervised_journal_has_no_supervision_record(
        self, tmp_path
    ):
        cfg = small_config(cell_max_rss=2**40)
        study = ParallelStudyRunner(
            cfg, jobs=2, run_id="clean", checkpoint_dir=str(tmp_path)
        ).run()
        assert study.supervision is None
        _, events = stored(tmp_path, "clean")
        assert "supervision" not in [ev["kind"] for ev in events]


class TestResourceReport:
    def test_report_section_renders_events_and_peaks(self, tmp_path):
        cfg = small_config(
            limit=200,
            stop_at_first_bug=False,
            cell_max_rss=200 * 1024 * 1024,
            snapshots=True,
            faults=[{
                "cell": f"{BENCH}/Rand", "kind": "oom",
                "attempts": [0], "bytes": 400 * 1024 * 1024,
            }],
        )
        study = ParallelStudyRunner(
            cfg, jobs=2, run_id="report", checkpoint_dir=str(tmp_path)
        ).run()
        text = resource_usage_summary(study)
        assert "peak rss" in text
        assert "disable-snapshots" in text
        from repro.study.report import full_report

        assert "## Resource usage" in full_report(study)

    def test_unsupervised_study_omits_section(self):
        study = ParallelStudyRunner(
            small_config(), jobs=1, checkpoint_dir=None
        ).run()
        from repro.study.report import full_report

        assert "## Resource usage" not in full_report(study)
