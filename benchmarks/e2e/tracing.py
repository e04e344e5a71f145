"""Per-layer timing taken from outside the program.

The tracer wraps the public entry points of each layer (:data:`ENTRIES`)
for the length of one traced run and restores the originals afterwards;
no file under ``src/`` knows it exists.  Three wrapper kinds:

* ``fine`` — hot entry points (``Kernel.step`` runs millions of times):
  aggregated as calls plus nanosecond totals, no per-call record;
* ``span`` — coarse entry points (a cell, ``explore``, ``detect_races``, a
  store append, the report): aggregated like ``fine`` *and* kept as a span
  ``[entry, start_ns, end_ns, parent_span, cell]`` in memory until the run
  ends;
* ``gen`` — generator entry points, timed across every resumption.

Self time is a call's duration minus the time its wrapped callees took, so
the self times of every entry plus the harness's own time sum exactly to
the traced wall.  Work done in forked children (shard workers, snapshot
holders) is invisible here except as the parent's waiting time and the
``RUSAGE_CHILDREN`` delta recorded per cell.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import pickle
import pkgutil
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

#: What each layer should move, on which workload (written down before
#: measuring; see README.md).  ``harness`` is the benchmark's own code:
#: time not attributed to any layer of the program.
LAYERS: Dict[str, str] = {
    "engine.state": "wall_s, cpu_s and cell_p50_s on paper-grid",
    "engine.executor": "wall_s on paper-grid; failed_frac on por-suite "
    "(through useful_ratio)",
    "core.dfs": "wall_s on paper-grid",
    "core.iterative": "wall_s on paper-grid",
    "core.dpor": "wall_s and failed_frac on por-suite; nothing on paper-grid",
    "racedetect": "cell_p50_s on paper-grid (predicted: no move, <1%)",
    "engine.strategies": "wall_s on paper-grid",
    "core.random_walk": "wall_s on paper-grid",
    "core.maple_alg": "wall_s on paper-grid",
    "engine.snapshot": "wall_s, cpu_s and peak_rss_mb on deep-prefix",
    "core.sharding": "wall_s and cpu_s on deep-prefix",
    "study.runner": "wall_s on paper-grid",
    "study.parallel": "wall_s on paper-grid",
    "study.store": "wall_s on paper-grid",
    "study.report": "wall_s on paper-grid",
    "harness": "nothing (the benchmark's own time)",
}


@dataclass(frozen=True)
class Entry:
    """One wrapped entry point.

    ``target`` is ``module:qualname``.  A plain function is patched in
    every loaded ``repro`` module that holds it (``from x import f``
    copies the name).  ``cell`` marks the span that opens a study cell,
    whose id is ``"<args[0]>/<args[1]>"``.
    """

    layer: str
    name: str
    target: str
    kind: str = "fine"
    cell: bool = False

    @property
    def key(self) -> str:
        return f"{self.layer}.{self.name}"


ENTRIES: List[Entry] = [
    Entry("engine.state", "Kernel.step", "repro.engine.state:Kernel.step"),
    Entry("engine.state", "Kernel.enabled", "repro.engine.state:Kernel.enabled"),
    Entry("engine.executor", "execute", "repro.engine.executor:execute"),
    Entry("engine.strategies", "RandomStrategy.choose",
          "repro.engine.strategies:RandomStrategy.choose"),
    Entry("core.dfs", "choose", "repro.core.dfs:_DFSStrategy.choose"),
    Entry("core.dfs", "BoundedDFS.runs", "repro.core.dfs:BoundedDFS.runs",
          kind="gen"),
    Entry("core.iterative", "DFSExplorer.explore",
          "repro.core.iterative:DFSExplorer.explore", kind="span"),
    Entry("core.iterative", "IterativeBoundingExplorer.explore",
          "repro.core.iterative:IterativeBoundingExplorer.explore",
          kind="span"),
    Entry("core.dpor", "choose", "repro.core.dpor:_DPORStrategy.choose"),
    Entry("core.dpor", "state_fingerprint",
          "repro.core.dpor:state_fingerprint"),
    Entry("core.dpor", "DPORExplorer.explore",
          "repro.core.dpor:DPORExplorer.explore", kind="span"),
    Entry("core.dpor", "IterativeBPORExplorer.explore",
          "repro.core.dpor:IterativeBPORExplorer.explore", kind="span"),
    Entry("core.random_walk", "RandomExplorer.explore",
          "repro.core.random_walk:RandomExplorer.explore", kind="span"),
    Entry("core.maple_alg", "MapleAlgExplorer.explore",
          "repro.core.maple_alg:MapleAlgExplorer.explore", kind="span"),
    Entry("racedetect", "detect_races", "repro.racedetect.phase:detect_races",
          kind="span"),
    Entry("racedetect", "FastTrackDetector.on_step",
          "repro.racedetect.fasttrack:FastTrackDetector.on_step"),
    Entry("engine.snapshot", "SnapshotRunner.runs",
          "repro.engine.snapshot:SnapshotRunner.runs", kind="gen"),
    Entry("engine.snapshot", "SnapshotFrontierSearch.runs_at_bound",
          "repro.engine.snapshot:SnapshotFrontierSearch.runs_at_bound",
          kind="gen"),
    Entry("engine.snapshot", "CrossBoundRegistry.resume",
          "repro.engine.snapshot:CrossBoundRegistry.resume"),
    Entry("engine.snapshot", "CrossBoundRegistry.drain",
          "repro.engine.snapshot:CrossBoundRegistry.drain"),
    Entry("core.sharding", "submit",
          "repro.core.sharding:ShardedSearchBase._submit"),
    Entry("core.sharding", "drive",
          "repro.core.sharding:ShardedSearchBase._drive", kind="gen"),
    Entry("core.sharding", "ShardedDFS.runs",
          "repro.core.sharding:ShardedDFS.runs", kind="gen"),
    Entry("core.sharding", "ShardedFrontierSearch.runs_at_bound",
          "repro.core.sharding:ShardedFrontierSearch.runs_at_bound",
          kind="gen"),
    Entry("study.runner", "run_cell", "repro.study.runner:run_cell",
          kind="span", cell=True),
    Entry("study.parallel", "ParallelStudyRunner.run",
          "repro.study.parallel:ParallelStudyRunner.run", kind="span"),
    Entry("study.store", "StoreBackend.append",
          "repro.study.store:StoreBackend.append", kind="span"),
    Entry("study.store", "load_run", "repro.study.store:load_run",
          kind="span"),
    Entry("study.report", "full_report", "repro.study.report:full_report",
          kind="span"),
]

#: The harness's own spans (not program entry points).
ROOT = Entry("harness", "run", "", kind="span")
CELL = Entry("harness", "cell", "", kind="span")

_MARK = "__e2e_wrapped__"


def _resolve(target: str):
    """``(owner, attribute)`` of a ``module:qualname`` target."""
    module_name, _, qualname = target.partition(":")
    owner = importlib.import_module(module_name)
    cls_name, _, attr = qualname.rpartition(".")
    if cls_name:
        owner = getattr(owner, cls_name)
    return owner, attr


def _repro_modules() -> List[object]:
    """Every ``repro`` module, imported now, so a name bound by a module
    imported mid-run can never capture a wrapper that outlives the run."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)
    return [m for n, m in sorted(sys.modules.items())
            if (n == "repro" or n.startswith("repro.")) and m is not None]


def _cpu(who: int) -> float:
    ru = resource.getrusage(who)
    return ru.ru_utime + ru.ru_stime


class Tracer:
    """Wrap :data:`ENTRIES`, collect calls/self/total nanoseconds per
    entry, spans for the coarse ones, and per-cell deltas.

    Use as ``with Tracer() as tr: tr.run(fn)``; leaving the block
    restores every patched attribute.
    """

    def __init__(self) -> None:
        #: entry key -> [calls, self_ns, total_ns]
        self.stats: Dict[str, List[int]] = {
            e.key: [0, 0, 0] for e in ENTRIES + [ROOT, CELL]
        }
        #: [entry key, start_ns, end_ns, parent span index, cell id]
        self.spans: List[list] = []
        #: Counts observed at the boundaries.
        self.counts: Dict[str, int] = {
            "execute.steps": 0,
            "sharding.payload_bytes": 0,
            "sharding.pool_start_ns": 0,
        }
        #: cell id -> {"stats": deltas, "counts": deltas, "self_cpu_s",
        #: "children_cpu_s"}
        self.cells: Dict[str, dict] = {}
        self.wall_ns = 0
        self._acc: List[int] = [0]
        self._open: List[int] = []
        self._cell: Optional[str] = None
        self._patches: List[tuple] = []
        #: Targets that no longer exist (not wrapped).
        self.missing: List[str] = []

    # -- install / uninstall ---------------------------------------------

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def install(self) -> None:
        modules = _repro_modules()
        try:
            for entry in ENTRIES:
                try:
                    owner, attr = _resolve(entry.target)
                    original = owner.__dict__[attr]
                except (ImportError, AttributeError, KeyError):
                    # Renamed or removed by a later change: reported, and
                    # the entry reads zero, instead of failing the run.
                    self.missing.append(entry.target)
                    continue
                wrapper = self._wrap(entry, original)
                if inspect.isclass(owner):
                    self._patch(owner, attr, wrapper)
                    continue
                for mod in modules:
                    for name, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, name, wrapper)
        except BaseException:
            self.uninstall()
            raise

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @staticmethod
    def leftover_wrappers() -> List[str]:
        """Names of wrappers still installed anywhere in ``repro`` (the
        self-test's proof that uninstalling is complete)."""
        found = []
        for mod in _repro_modules():
            for name, value in vars(mod).items():
                if getattr(value, _MARK, False):
                    found.append(f"{mod.__name__}.{name}")
                if inspect.isclass(value) and value.__module__ == mod.__name__:
                    for attr, member in vars(value).items():
                        if getattr(member, _MARK, False):
                            found.append(f"{mod.__name__}.{name}.{attr}")
        return found

    # -- wrappers --------------------------------------------------------

    def _wrap(self, entry: Entry, fn: Callable) -> Callable:
        if entry.kind == "gen":
            wrapper = self._gen_wrapper(entry, fn)
        elif entry.kind == "span":
            wrapper = self._span_wrapper(entry, fn)
        elif entry.name == "execute":
            wrapper = self._fine_wrapper(entry, fn, after=self._observe_execute)
        elif entry.name == "submit":
            wrapper = self._submit_wrapper(entry, fn)
        else:
            wrapper = self._fine_wrapper(entry, fn)
        functools.update_wrapper(wrapper, fn)
        setattr(wrapper, _MARK, True)
        return wrapper

    def _fine_wrapper(self, entry: Entry, fn: Callable, after=None) -> Callable:
        rec = self.stats[entry.key]
        acc = self._acc
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            acc.append(0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = acc.pop()
                acc[-1] += dt
                rec[0] += 1
                rec[1] += dt - child
                rec[2] += dt
            if after is not None:
                after(result)
            return result

        return wrapper

    def _span_wrapper(self, entry: Entry, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            cell = f"{args[0]}/{args[1]}" if entry.cell else None
            with self.span(entry, cell):
                return fn(*args, **kwargs)

        return wrapper

    def _gen_wrapper(self, entry: Entry, fn: Callable) -> Callable:
        rec = self.stats[entry.key]
        acc = self._acc
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            rec[0] += 1
            try:
                while True:
                    acc.append(0)
                    t0 = clock()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        dt = clock() - t0
                        child = acc.pop()
                        acc[-1] += dt
                        rec[1] += dt - child
                        rec[2] += dt
                    yield item
            finally:
                inner.close()

        return wrapper

    def _submit_wrapper(self, entry: Entry, fn: Callable) -> Callable:
        timed = self._fine_wrapper(entry, fn)
        counts = self.counts

        def wrapper(search, bound, payload, want_frontier):
            starts_pool = search._pool is None and not search.inline
            counts["sharding.payload_bytes"] += len(pickle.dumps(
                (search.spec, bound, payload, search.split_runs, want_frontier),
                protocol=pickle.HIGHEST_PROTOCOL,
            ))
            t0 = time.perf_counter_ns()
            result = timed(search, bound, payload, want_frontier)
            if starts_pool:
                # Pool workers fork on the first submit (fork start method).
                counts["sharding.pool_start_ns"] += time.perf_counter_ns() - t0
            return result

        return wrapper

    def _observe_execute(self, result) -> None:
        self.counts["execute.steps"] += result.steps

    # -- spans -----------------------------------------------------------

    @contextlib.contextmanager
    def span(self, entry: Entry, cell: Optional[str] = None):
        """Time one coarse span; ``cell`` opens a cell (per-cell deltas of
        every entry and of the children's CPU are kept)."""
        rec = self.stats[entry.key]
        acc = self._acc
        opens_cell = cell is not None and self._cell is None
        if opens_cell:
            self._cell = cell
            before = self._snapshot()
            self0 = _cpu(resource.RUSAGE_SELF)
            children0 = _cpu(resource.RUSAGE_CHILDREN)
        index = len(self.spans)
        span = [entry.key, 0, 0, self._open[-1] if self._open else None,
                self._cell]
        self.spans.append(span)
        self._open.append(index)
        acc.append(0)
        span[1] = t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            span[2] = t1 = time.perf_counter_ns()
            dt = t1 - t0
            child = acc.pop()
            acc[-1] += dt
            rec[0] += 1
            rec[1] += dt - child
            rec[2] += dt
            self._open.pop()
            if opens_cell:
                after = self._snapshot()
                self.cells[cell] = {
                    "stats": {k: [a - b for a, b in zip(v, before["stats"][k])]
                              for k, v in after["stats"].items()},
                    "counts": {k: v - before["counts"][k]
                               for k, v in after["counts"].items()},
                    "self_cpu_s": _cpu(resource.RUSAGE_SELF) - self0,
                    "children_cpu_s": _cpu(resource.RUSAGE_CHILDREN)
                    - children0,
                }
                self._cell = None

    def cell(self, cell_id: str):
        """The harness-side span around one cell it drives itself."""
        return self.span(CELL, cell_id)

    def _snapshot(self) -> dict:
        return {"stats": {k: list(v) for k, v in self.stats.items()},
                "counts": dict(self.counts)}

    def run(self, fn: Callable, *args, **kwargs):
        """Run ``fn`` under the root span; its duration is the traced wall."""
        with self.span(ROOT):
            result = fn(*args, **kwargs)
        self.wall_ns = self.stats[ROOT.key][2]
        return result

    # -- summary -----------------------------------------------------------

    def summary(self) -> dict:
        """Calls, self time and share per entry and per layer, plus the
        derived per-layer ratios (JSON-safe)."""
        wall = self.wall_ns or 1
        entries = {}
        layers: Dict[str, dict] = {}
        for key, (calls, self_ns, total_ns) in self.stats.items():
            entries[key] = {
                "calls": calls,
                "self_s": self_ns / 1e9,
                "total_s": total_ns / 1e9,
                "share": self_ns / wall,
            }
        for entry in ENTRIES + [ROOT, CELL]:
            layer = layers.setdefault(entry.layer, {"self_s": 0.0, "share": 0.0})
            layer["self_s"] += entries[entry.key]["self_s"]
            layer["share"] += entries[entry.key]["share"]
        appends = [(s[2] - s[1]) / 1e6 for s in self.spans
                   if s[0] == "study.store.StoreBackend.append"]
        return {
            "wall_s": self.wall_ns / 1e9,
            "unattributed_s": layers["harness"]["self_s"],
            "unattributed_share": layers["harness"]["share"],
            "entries": entries,
            "layers": layers,
            "counts": dict(self.counts),
            "store_append_p50_ms": statistics.median(appends) if appends else 0.0,
            "dpor_us_per_step": self._dpor_us_per_step(),
        }

    def _dpor_us_per_step(self) -> Dict[str, float]:
        """DPOR ``choose`` self time per call (one call per visible step),
        split by the cell's mean trace length: short < 100 steps."""
        out = {}
        for label in ("short", "long"):
            calls = ns = 0
            for cell in self.cells.values():
                rec = cell["stats"]["core.dpor.choose"]
                executions = cell["stats"]["engine.executor.execute"][0]
                if not rec[0] or not executions:
                    continue
                mean_len = cell["counts"]["execute.steps"] / executions
                if (mean_len >= 100) == (label == "long"):
                    calls += rec[0]
                    ns += rec[1]
            out[label] = ns / calls / 1e3 if calls else 0.0
        return out
