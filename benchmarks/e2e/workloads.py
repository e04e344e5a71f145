"""The three end-to-end workloads and the checks on their outputs.

Each workload is driven as a closed loop from one harness process:
``setup`` builds the inputs from the seed, ``run`` is the measured part,
``retime`` (timing runs only, after the measured part) times short cells
again, ``cells`` turns the outputs into JSON-safe cell records, and
``check`` verifies them (golden file plus checks that need no golden
file).  No workload uses more than two worker processes.

``--seed`` reaches only the Rand and MapleAlg seeds of ``paper-grid``.
Race detection keeps seed 0 everywhere: the paper (section 5) treats the
racy-site set as part of the benchmark.
"""

from __future__ import annotations

import contextlib
import functools
import json
import multiprocessing
import os
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

# Entry points the tracer wraps (detect_races, load_run, full_report) are
# called through their package, never bound here, so the wrappers apply.
from repro import racedetect, study  # noqa: E402
from repro.core import Budget, DFSExplorer, ExplorationStats, make_idb, make_ipb  # noqa: E402
from repro.core.dpor import DPORExplorer, IterativeBPORExplorer  # noqa: E402
from repro.engine import replay, sync_only_filter  # noqa: E402
from repro.sctbench import get as get_benchmark  # noqa: E402
from repro.sctbench.fixed import FIXED_TWINS, make_prelude_fixed  # noqa: E402
from repro.study import ParallelStudyRunner, StudyStore, quick_config, taxonomy  # noqa: E402
from repro.study.report import PAPER_TECH_ORDER  # noqa: E402
from repro.study.store import store_path_for  # noqa: E402

#: Scratch space (study stores); inside the checkout, ignored by git.
WORK_DIR = HERE / "out" / "tmp"
GOLDEN_PATH = HERE / "golden.json"
#: The seed ``golden.json`` was generated with.  Under any other seed the
#: seed-dependent cells (Rand, MapleAlg) get only the golden-free checks.
GOLDEN_SEED = 42
#: Race-detection parameters of the study (paper section 5), for every
#: workload: ten runs, seed 0.
DETECTION_RUNS = 10
DETECTION_SEED = 0
MAX_STEPS = 50_000
SEEDED_TECHNIQUES = ("Rand", "MapleAlg")

Failure = Tuple[str, str]  # (cell id, or "*" for the workload; message)


def no_cell(cell_id: str):
    """The untraced stand-in for :meth:`tracing.Tracer.cell`."""
    return contextlib.nullcontext()


def visible_filter(report):
    """The study's rule: racy sites are visible; with no races only
    synchronisation is."""
    return report.visible_filter() if report.has_races else sync_only_filter


def detect(program):
    return racedetect.detect_races(program, runs=DETECTION_RUNS,
                                   seed=DETECTION_SEED, max_steps=MAX_STEPS)


#: ``prctl(2)`` option: orphaned descendants are reparented to this
#: process instead of to init.
_PR_SET_CHILD_SUBREAPER = 36


def become_subreaper() -> None:
    """Adopt orphaned descendants.  Cross-bound snapshot holders are
    chain-forked by other holders; once their forker exits they would go
    to init, and their CPU time and peak RSS would never reach this
    process's ``RUSAGE_CHILDREN``.  Linux only."""
    import ctypes

    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        errno = ctypes.get_errno()
        raise OSError(errno, f"prctl(PR_SET_CHILD_SUBREAPER): "
                             f"{os.strerror(errno)}")


def reap_children(timeout: float = 30.0) -> None:
    """Wait until every child has exited and been reaped: multiprocessing
    children (shard and study pool workers) first, then any other, such
    as snapshot holders adopted as orphans (:func:`become_subreaper`).
    Their CPU time and peak RSS are then counted, and no process outlives
    the cell that started it."""
    deadline = time.monotonic() + timeout
    # multiprocessing reaps its own children: waiting for any pid first
    # would take their exit status from it.
    while multiprocessing.active_children():
        if time.monotonic() > deadline:
            raise RuntimeError("worker processes still alive after "
                               f"{timeout:g}s")
        time.sleep(0.005)
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:  # no child left
            return
        if pid:
            continue
        if time.monotonic() > deadline:
            raise RuntimeError("child processes still alive after "
                               f"{timeout:g}s")
        time.sleep(0.005)


def _same_result(first, again) -> bool:
    """Whether a rerun of a cell reproduced its first run's result."""
    if first is None or again is None:
        return first is again
    return (first.as_dict(), first.executions) == (again.as_dict(),
                                                  again.executions)


def as_dict(payload: dict) -> dict:
    return ExplorationStats.from_payload(payload).as_dict()


def replay_failure(program, bug: dict, filt) -> Optional[str]:
    """Replay a reported first bug; ``None`` when it reaches the recorded
    outcome again, else what went wrong."""
    try:
        result = replay(program, bug["schedule"], visible_filter=filt,
                        max_steps=MAX_STEPS)
    except Exception as exc:  # divergence is a finding, not a crash
        return f"first_bug replay raised {type(exc).__name__}: {exc}"
    if result.outcome.value != bug["outcome"]:
        return (f"first_bug replays to {result.outcome.value}, "
                f"recorded {bug['outcome']}")
    return None


def load_golden(path: Path = GOLDEN_PATH) -> dict:
    if not path.is_file():
        return {"seed": None}
    return json.loads(path.read_text())


def exact_counts(cells: List[dict]) -> Dict[str, int]:
    """The counts a run must reproduce exactly (same code, same seed)."""
    out = {"cells": len(cells), "bugs": 0, "undecided": 0, "schedules": 0,
           "executions": 0, "steps": 0, "replayed_steps": 0,
           "saved_executions": 0, "snapshot_restored_steps": 0,
           "dpor_cache_hits": 0}
    for cell in cells:
        st = cell["stats"]
        out["undecided"] += cell["undecided"]
        out["dpor_cache_hits"] += cell.get("cache_hits", 0)
        if st is None:
            continue
        tech = cell["technique"]
        bug = st["first_bug"] is not None
        for key, value in (("bugs", bug), ("schedules", st["schedules"]),
                           ("executions", st["executions"])):
            out[key] += value
            out[f"{tech}.{key}"] = out.get(f"{tech}.{key}", 0) + value
        for key, value in (st["counters"] or {}).items():
            if key != "executions":
                out[key] = out.get(key, 0) + value
    return out


def _cell(cell_id: str, subject: str, technique: str, start: float,
          seconds: float, stats, status: str, error: Optional[str] = None,
          **extra) -> dict:
    cell = {
        "id": cell_id,
        "subject": subject,
        "technique": technique,
        "seconds": seconds,
        # Each timed run: (time.time() at its start, seconds).
        "runs": [(start, seconds)],
        "status": status,
        "error": error,
        "stats": stats.to_payload() if isinstance(stats, ExplorationStats)
        else stats,
        "undecided": status == taxonomy.TIMEOUT,
    }
    cell.update(extra)
    return cell


def _explore(explorer, program, limit):
    """Run one harness-driven cell: ``(stats, status, error)``."""
    try:
        stats = explorer.explore(program, limit)
    except Exception as exc:
        return None, taxonomy.ERROR, f"{type(exc).__name__}: {exc}"
    if stats.deadline_hit:
        return stats, taxonomy.TIMEOUT, None
    return stats, taxonomy.BUG if stats.found_bug else taxonomy.OK, None


class PaperGrid:
    """The researcher's path: the study runner over the paper's grid."""

    name = "paper-grid"
    seeded = True
    one_cpu = False
    LIMIT = 500
    JOBS = 2
    RUN_ID = "e2e"

    def setup(self, seed: int, subjects=None, serial: bool = False) -> dict:
        config = quick_config(self.LIMIT)
        config.techniques = list(PAPER_TECH_ORDER)
        config.rand_seed = config.maple_seed = seed
        config.engine_counters = True
        config.benchmarks = list(subjects) if subjects else None
        for name in config.benchmarks or ():
            get_benchmark(name)  # an unknown name fails here, not mid-run
        WORK_DIR.mkdir(parents=True, exist_ok=True)
        return {
            "config": config,
            "jobs": 1 if serial else self.JOBS,
            "dir": tempfile.mkdtemp(prefix="paper-grid-", dir=WORK_DIR),
        }

    def run(self, inputs: dict, cell=no_cell) -> dict:
        result = ParallelStudyRunner(
            inputs["config"], jobs=inputs["jobs"], run_id=self.RUN_ID,
            checkpoint_dir=inputs["dir"],
        ).run()
        loaded = study.load_run(inputs["dir"], self.RUN_ID)
        return {"study": result, "loaded": loaded,
                "report": study.full_report(loaded)}

    def cells(self, inputs: dict, raw: dict) -> List[dict]:
        store = StudyStore(store_path_for(inputs["dir"]), self.RUN_ID)
        try:
            records = store.load_cells().completed
        finally:
            store.close()
        order = inputs["config"].techniques
        cells = []
        for (bench, tech), rec in sorted(
            records.items(),
            key=lambda kv: (kv[1]["bench_id"], order.index(kv[0][1])),
        ):
            cells.append(_cell(f"{bench}/{tech}", bench, tech, rec["ts"],
                               rec["seconds"], rec["stats"],
                               taxonomy.status_of(rec), rec.get("error")))
        return cells

    def check(self, inputs: dict, raw: dict, cells: List[dict], golden: dict,
              seed: int) -> List[Failure]:
        failures: List[Failure] = []
        config = inputs["config"]
        expected = len(raw["study"]) * len(config.techniques)
        if len(cells) != expected:
            failures.append(("*", f"{len(cells)} cell records, expected "
                                  f"{expected}"))
        if [_no_seconds(b) for b in raw["loaded"]] != [
            _no_seconds(b) for b in raw["study"]
        ]:
            failures.append(("*", "load_run does not reproduce the runner's "
                                  "results"))
        if "## Table 3" not in raw["report"]:
            failures.append(("*", "full_report has no Table 3"))
        filters: Dict[str, object] = {}
        reference = golden.get(self.name, {})
        for cell in cells:
            cid, tech = cell["id"], cell["technique"]
            if not taxonomy.is_success(cell["status"]):
                failures.append((cid, f"status {cell['status']}: "
                                      f"{cell['error']}"))
                continue
            if tech not in SEEDED_TECHNIQUES or seed == golden.get("seed"):
                want = reference.get(cid)
                if want is None:
                    failures.append((cid, "no golden entry"))
                elif as_dict(cell["stats"]) != want:
                    failures.append((cid, "as_dict() differs from golden"))
            bug = cell["stats"]["first_bug"]
            if bug is not None:
                info = get_benchmark(cell["subject"])
                filt = None  # MapleAlg observes every access
                if tech != "MapleAlg":
                    if info.name not in filters:
                        filters[info.name] = visible_filter(detect(info.make()))
                    filt = filters[info.name]
                problem = replay_failure(info.make(), bug, filt)
                if problem:
                    failures.append((cid, problem))
        return failures

    def retime(self, inputs: dict, raw: dict) -> None:
        pass

    def cleanup(self, inputs: dict) -> None:
        shutil.rmtree(inputs["dir"], ignore_errors=True)


def _no_seconds(result) -> dict:
    out = result.as_dict()
    out.pop("seconds")
    return out


#: por-suite subjects: (label, factory, schedule limit).
POR_SUBJECTS = [
    (name, get_benchmark(name).make, 3 if name == "CS.twostage_100_bad" else 300)
    for name in ("chess.WSQ", "CS.din_phil7_sat", "CS.queue_bad",
                 "CB.pbzip2-0.9.4", "CS.reorder_5_bad", "CS.reorder_10_bad",
                 "CS.twostage_100_bad")
] + [(factory().name, factory, 300) for factory in FIXED_TWINS]


class PorSuite:
    """DPOR and iterative BPOR under a fixed work ceiling."""

    name = "por-suite"
    seeded = False
    #: Serial: pinned to one vCPU, so that vCPU's speed probe applies.
    one_cpu = True
    CEILING = 3000
    TECHNIQUES = (("DPOR", DPORExplorer), ("BPOR", IterativeBPORExplorer))
    #: A cell faster than ``TINY_S`` (the median cell is one of the 1-5
    #: ms fixed-twin cells) is timed again by :meth:`retime`, in
    #: ``TINY_ROUNDS`` rounds over all such cells (about 7 s): its timed
    #: runs are those reruns.  Timed once, those cells vary by half from
    #: one repeat to the next; the host's speed changes over seconds, so
    #: the reruns are spread over many of them.
    TINY_S = 0.1
    TINY_ROUNDS = 40

    def setup(self, seed: int, subjects=None, serial: bool = False) -> dict:
        chosen = [s for s in POR_SUBJECTS if not subjects or s[0] in subjects]
        if subjects and len(chosen) != len(set(subjects)):
            raise KeyError(f"unknown por-suite subject in {subjects}")
        return {"subjects": [(label, factory(), limit)
                             for label, factory, limit in chosen]}

    def _run_once(self, explorer_cls, program, filt, limit):
        """``(explorer, (stats, status, error), seconds)`` of one run."""
        explorer = explorer_cls(visible_filter=filt, max_steps=MAX_STEPS,
                                budget=Budget(max_executions=self.CEILING))
        t0 = time.perf_counter()
        outcome = _explore(explorer, program, limit)
        return explorer, outcome, time.perf_counter() - t0

    def run(self, inputs: dict, cell=no_cell) -> dict:
        filters, cells, tiny = {}, [], []
        for label, program, limit in inputs["subjects"]:
            filters[label] = filt = visible_filter(detect(program))
            for tech, explorer_cls in self.TECHNIQUES:
                cid = f"{label}/{tech}"
                args = (explorer_cls, program, filt, limit)
                start = time.time()
                with cell(cid):
                    explorer, (stats, status, error), seconds = \
                        self._run_once(*args)
                cells.append(_cell(
                    cid, label, tech, start, seconds, stats, status, error,
                    cache_hits=getattr(explorer, "state_cache_hits", 0),
                    reruns_agree=True,
                ))
                if seconds < self.TINY_S:
                    tiny.append((cells[-1], args, stats))
        return {"filters": filters, "cells": cells, "tiny": tiny}

    def retime(self, inputs: dict, raw: dict) -> None:
        """Time the tiny cells again (outside the timed pass); a rerun
        whose result differs from the first run's fails the cell."""
        runs = {rec["id"]: [] for rec, _, _ in raw["tiny"]}
        for _ in range(self.TINY_ROUNDS):
            for rec, args, stats in raw["tiny"]:
                start = time.time()
                _, (again, _, _), seconds = self._run_once(*args)
                runs[rec["id"]].append((start, seconds))
                rec["reruns_agree"] &= _same_result(stats, again)
        for rec, _, _ in raw["tiny"]:
            rec.update(runs=runs[rec["id"]], seconds=statistics.median(
                seconds for _, seconds in runs[rec["id"]]))

    def cells(self, inputs: dict, raw: dict) -> List[dict]:
        return raw["cells"]

    def check(self, inputs: dict, raw: dict, cells: List[dict], golden: dict,
              seed: int) -> List[Failure]:
        failures: List[Failure] = []
        programs = {label: program for label, program, _ in inputs["subjects"]}
        reference = golden.get(self.name, {})
        for cell in cells:
            cid, st = cell["id"], cell["stats"]
            if cell["status"] == taxonomy.ERROR:
                failures.append((cid, f"error: {cell['error']}"))
                continue
            if not cell["reruns_agree"]:
                failures.append((cid, "a timing rerun's result differs"))
            verdict = {"found_bug": st["first_bug"] is not None,
                       "completed": st["completed"]}
            want = reference.get(cid)
            if want is None:
                failures.append((cid, "no golden entry"))
            elif verdict != want:
                failures.append((cid, f"verdict {verdict}, golden {want}"))
            if cell["subject"].startswith("fixed.") and verdict["found_bug"]:
                failures.append((cid, "a fixed twin reported a bug"))
            if st["first_bug"] is not None:
                problem = replay_failure(programs[cell["subject"]],
                                         st["first_bug"],
                                         raw["filters"][cell["subject"]])
                if problem:
                    failures.append((cid, problem))
        return failures

    def cleanup(self, inputs: dict) -> None:
        pass


#: deep-prefix cells: (subject, technique, variant, schedule limit).
DEEP_CELLS = [
    ("fixed.prelude", "DFS", "snapshots", 10_000),
    ("fixed.prelude", "IPB", "snapshots", 10_000),
    ("fixed.prelude256", "DFS", "shards2", 10_000),
    ("chess.WSQ", "IPB", "shards2", 2_000),
]
DEEP_SOURCES = {
    "fixed.prelude": make_prelude_fixed,
    "fixed.prelude256": functools.partial(make_prelude_fixed, 256),
    "chess.WSQ": ("bench", "chess.WSQ"),
}
EXPLORERS = {"DFS": DFSExplorer, "IPB": make_ipb, "IDB": make_idb}


def deep_program(subject: str):
    source = DEEP_SOURCES[subject]
    return get_benchmark(source[1]).make() if isinstance(source, tuple) \
        else source()


class DeepPrefix:
    """The two subtree executors: fork snapshots and the shard pool."""

    name = "deep-prefix"
    seeded = False
    one_cpu = False

    def setup(self, seed: int, subjects=None, serial: bool = False) -> dict:
        chosen = [c for c in DEEP_CELLS if not subjects or c[0] in subjects]
        if subjects and {c[0] for c in chosen} != set(subjects):
            raise KeyError(f"unknown deep-prefix subject in {subjects}")
        return {"cells": chosen,
                "programs": {c[0]: deep_program(c[0]) for c in chosen}}

    def run(self, inputs: dict, cell=no_cell) -> dict:
        cells = []
        for subject, tech, variant, limit in inputs["cells"]:
            cid = f"{subject}/{tech}+{variant}"
            kwargs = {"snapshots": True} if variant == "snapshots" else {
                "shards": 2, "program_source": DEEP_SOURCES[subject]}
            explorer = EXPLORERS[tech](counters=True, **kwargs)
            start, t0 = time.time(), time.perf_counter()
            with cell(cid):
                stats, status, error = _explore(
                    explorer, inputs["programs"][subject], limit)
                reap_children()
            cells.append(_cell(cid, subject, tech, start,
                               time.perf_counter() - t0, stats, status, error))
        return {"cells": cells}

    def cells(self, inputs: dict, raw: dict) -> List[dict]:
        return raw["cells"]

    def check(self, inputs: dict, raw: dict, cells: List[dict], golden: dict,
              seed: int) -> List[Failure]:
        failures: List[Failure] = []
        reference = golden.get(self.name, {})
        prelude = golden.get("reference", {}).get("fixed.prelude/IDB")
        for cell in cells:
            cid, st = cell["id"], cell["stats"]
            if cell["status"] == taxonomy.ERROR:
                failures.append((cid, f"error: {cell['error']}"))
                continue
            want = reference.get(cid)
            if want is None:
                failures.append((cid, "no golden entry"))
            elif as_dict(st) != want:
                failures.append((cid, "as_dict() differs from the serial "
                                      "explorer's"))
            if cell["subject"].startswith("fixed."):
                if st["first_bug"] is not None:
                    failures.append((cid, "fixed.prelude reported a bug"))
                if prelude is None:
                    failures.append((cid, "no golden IDB reference"))
                elif (st["schedules"], st["completed"]) != (
                    prelude["schedules"], True
                ):
                    failures.append((cid, f"{st['schedules']} schedules "
                                          f"(completed {st['completed']}); "
                                          "IDB completes the space with "
                                          f"{prelude['schedules']}"))
            if cid.endswith("+snapshots") and st["counters"]["replayed_steps"]:
                failures.append((cid, f"{st['counters']['replayed_steps']} "
                                      "prefix steps replayed under snapshots"))
            if st["first_bug"] is not None:
                problem = replay_failure(deep_program(cell["subject"]),
                                         st["first_bug"], None)
                if problem:
                    failures.append((cid, problem))
        return failures

    def retime(self, inputs: dict, raw: dict) -> None:
        pass

    def cleanup(self, inputs: dict) -> None:
        pass


WORKLOADS = {w.name: w for w in (PaperGrid(), PorSuite(), DeepPrefix())}
