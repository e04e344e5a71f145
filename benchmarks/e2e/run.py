"""End-to-end study benchmark: paper-grid, por-suite and deep-prefix.

Timing — every workload, each repeat in a fresh interpreter::

    PYTHONPATH=src python benchmarks/e2e/run.py [--seed 42] [--repeats 3]
        [--workload NAME] [--seconds S]

prints each end-to-end metric as the median of the repeats with min and
max, checks every output, and writes the result JSON
``benchmarks/e2e/out/result.json`` (compare two with ``diff.py``).
Times are in reference seconds: scaled by the readings of per-vCPU
speed probes that run alongside (``speed.py``); the result JSON keeps
the raw wall and CPU seconds too.

Per-layer timing — each workload once, in this process, with timing
wrappers installed from outside the program (``tracing.py``)::

    PYTHONPATH=src python benchmarks/e2e/run.py --trace [--workload NAME]

prints calls, self time and share per layer plus the tracing overhead
against an untraced run of the same configuration, and writes
``benchmarks/e2e/out/trace.json``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics, or the
per-layer ones with ``--trace 1``).  The exit status is non-zero on any
failed check or error.
"""

from __future__ import annotations

import argparse
import json
import math
import multiprocessing
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT_DIR = HERE / "out"
TMP_DIR = OUT_DIR / "tmp"

#: End-to-end metrics: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "cell_p50_s": "s",
    "cell_p90_s": "s",
    "peak_rss_mb": "MB",
}
#: One set-up launch takes ~0.17 s and varies by 25% or more: report the
#: median of at least this many (every repeat's own, plus set-up-only
#: launches to make up the number).
SETUP_LAUNCHES = 9
DEFAULT_REPEATS = 3
#: A repeat that runs longer than this is killed and fails the run.
CHILD_TIMEOUT_S = 170.0


# -- repeats in fresh interpreters -------------------------------------------


def _child_env() -> dict:
    env = dict(os.environ)
    paths = [str(ROOT / "src")] + (
        [env["PYTHONPATH"]] if env.get("PYTHONPATH") else []
    )
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env["TMPDIR"] = str(TMP_DIR)
    return env


def launch(workload: str, seed: int, *, setup_only: bool = False,
           serial: bool = False, cpu: Optional[int] = None):
    """Run ``worker.py`` once: ``(time.time() at launch, seconds to READY,
    result dict or None)``."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed)]
    if setup_only:
        cmd.append("--setup-only")
    if serial:
        cmd.append("--serial")
    if cpu is not None:
        cmd += ["--cpu", str(cpu)]
    stamp, t0 = time.time(), time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            env=_child_env(), cwd=ROOT)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        ready_s = time.perf_counter() - t0
        rest, _ = proc.communicate()
    finally:
        watchdog.cancel()
        watchdog.join()  # no thread may outlive this into a later fork
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or ready.strip() != "READY":
        raise RuntimeError(f"{workload} worker exited with status "
                           f"{proc.returncode}")
    if setup_only:
        return stamp, ready_s, None
    lines = [line for line in rest.splitlines() if line.strip()]
    return stamp, ready_s, json.loads(lines[-1])


def timing_run(workload: str, seed: int, repeats: int,
               seconds: Optional[float]) -> dict:
    """At least ``repeats`` repeats, and more while another one (as long
    as the last) still ends within ``seconds``; then set-up-only launches
    until ``SETUP_LAUNCHES`` set-up times are in.  Speed probes run on
    the vCPUs the work uses throughout (``speed.py``)."""
    import workloads

    cpus = sorted(os.sched_getaffinity(0))
    cpu = cpus[0] if workloads.WORKLOADS[workload].one_cpu else None
    used = cpus if cpu is None else [cpu]
    setups, results = [], []
    with speed.Probes(used) as probes:
        start, last = time.perf_counter(), 0.0
        while len(results) < repeats or (
            seconds and time.perf_counter() - start + last <= seconds
        ):
            t0 = time.perf_counter()
            stamp, ready_s, result = launch(workload, seed, cpu=cpu)
            last = time.perf_counter() - t0
            setups.append((stamp, ready_s))
            results.append(result)
        while len(setups) < SETUP_LAUNCHES:
            setups.append(launch(workload, seed, setup_only=True,
                                 cpu=cpu)[:2])
    return aggregate(
        [ready_s * probes.scale(stamp, stamp + ready_s, used)
         for stamp, ready_s in setups],
        [reference_seconds(r, probes, used) for r in results],
        results)


def reference_seconds(result: dict, probes, cpus: List[int]) -> dict:
    """One repeat's end-to-end metrics, times in reference seconds: the
    repeat's wall and CPU time scaled by the probe readings over the
    repeat; a cell's time is the median over its timed runs of each run
    scaled by the readings around it."""
    scale = probes.scale(result["start"], result["end"], cpus)
    cells = [statistics.median(seconds * probes.scale(start, start + seconds,
                                                      cpus)
                               for start, seconds in runs)
             for runs in result["cells"]]
    return {
        "wall_s": result["wall_s"] * scale,
        "cpu_s": result["cpu_s"] * scale,
        "cell_p50_s": hd_quantile(cells, 0.5),
        "cell_p90_s": hd_quantile(cells, 0.9),
        "peak_rss_mb": result["peak_rss_mb"],
        "reading_ms": probes.reading_ms(result["start"], result["end"],
                                        cpus),
    }


def hd_quantile(values: List[float], p: float) -> float:
    """Harrell-Davis estimate of the ``p`` quantile: the mean of the
    order statistics weighted by a Beta((n+1)p, (n+1)(1-p)) density over
    each one's share of [0, 1] (midpoint rule).  Cell times are sparse
    around their median (on ``paper-grid`` neighbouring ranks there are
    several percent apart), so the sample quantile jumps as cells swap
    ranks from one repeat to the next; this estimate spreads about half
    as much."""
    xs = sorted(values)
    n = len(xs)
    if n == 1:
        return xs[0]
    a, b = p * (n + 1), (1 - p) * (n + 1)
    logs = [(a - 1) * math.log(t) + (b - 1) * math.log1p(-t)
            for t in ((i + 0.5) / n for i in range(n))]
    top = max(logs)
    weights = [math.exp(lw - top) for lw in logs]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def aggregate(setups: List[float], repeats: List[dict],
              results: List[dict]) -> dict:
    """One workload's timing result from its set-up times and the
    repeats' metrics (``reference_seconds``) and raw measurements
    (``worker.measure``)."""
    metrics = {"setup_s": _stats(setups, "s")}
    for name, unit in END_TO_END.items():
        if name != "setup_s":
            metrics[name] = _stats([r[name] for r in repeats], unit)
    failures = [f for r in results for f in r["failures"]]
    counts = results[0]["counts"]
    if any(r["counts"] != counts for r in results):
        failures.append(["*", "exact counts differ between repeats"])
    busy = [sum(statistics.median(seconds for _, seconds in runs)
                for runs in r["cells"]) for r in results]
    return {
        "repeats": len(results),
        "setup_launches": len(setups),
        "metrics": metrics,
        "counts": counts,
        "attempted": sum(r["attempted"] for r in results),
        "failed": count_failed(failures),
        "undecided": counts["undecided"],
        "cells": results[0]["attempted"],
        "failures": _dedupe(failures),
        # Raw seconds, for comparison with the reference seconds above.
        "raw": {
            "wall_s": _stats([r["wall_s"] for r in results], "s"),
            "cpu_s": _stats([r["cpu_s"] for r in results], "s"),
            "probe_reading_ms": _stats([r["reading_ms"] for r in repeats],
                                       "ms"),
        },
        "dispatch": {
            "jobs": results[0]["jobs"],
            "cell_busy_s": _stats(busy, "s"),
            "dispatch_gap_s": _stats(
                [r["jobs"] * r["wall_s"] - b for r, b in zip(results, busy)],
                "s"),
        },
    }


def _stats(values: List[float], unit: str) -> dict:
    return {"value": statistics.median(values), "min": min(values),
            "max": max(values), "n": len(values), "unit": unit,
            "values": values}


def count_failed(failures) -> int:
    """Distinct failed cells among failures, of one repeat or several
    (each distinct workload-level failure counts as one)."""
    return len({(cell, msg) if cell == "*" else cell
                for cell, msg in failures})


def _dedupe(failures: List[list]) -> List[list]:
    seen, out = set(), []
    for cell, msg in failures:
        if (cell, msg) not in seen:
            seen.add((cell, msg))
            out.append([cell, msg])
    return out


# -- traced run in this process ----------------------------------------------


def trace_run(workload: str, seed: int) -> dict:
    """One untraced repeat (fresh interpreter) and one traced run (this
    process) of the same serial configuration."""
    import tracing
    import workloads

    _, _, reference = launch(workload, seed, serial=True)
    wl = workloads.WORKLOADS[workload]
    inputs = wl.setup(seed, serial=True)
    try:
        # Orphaned holders are reaped in their cell, so the per-cell
        # RUSAGE_CHILDREN delta covers them.
        workloads.become_subreaper()
        with tracing.Tracer() as tracer:
            raw = tracer.run(wl.run, inputs, tracer.cell)
        workloads.reap_children()
        cells = wl.cells(inputs, raw)
        failures = wl.check(inputs, raw, cells, workloads.load_golden(), seed)
    finally:
        wl.cleanup(inputs)
    summary = tracer.summary()
    failures = [list(f) for f in failures] + reference["failures"]
    counts = workloads.exact_counts(cells)
    if counts != reference["counts"]:
        failures.append(["*", "exact counts differ with the wrappers installed"])
    return {
        "wall_s": summary["wall_s"],
        "untraced_wall_s": reference["wall_s"],
        "metrics": layer_metrics(summary, cells, counts, reference["wall_s"]),
        "extra": layer_extras(summary, tracer.cells),
        "counts": counts,
        "attempted": len(cells) + reference["attempted"],
        "failed": count_failed(failures),
        "undecided": counts["undecided"],
        "cells": len(cells),
        "failures": _dedupe(failures),
        "summary": summary,
        "per_cell": tracer.cells,
        "spans": tracer.spans,
        "missing_entries": tracer.missing,
    }


def layer_metrics(summary: dict, cells: List[dict], exact: dict,
                  untraced_wall: float) -> Dict[str, dict]:
    """The per-layer metrics: share of traced wall for every wrapped entry
    and every layer, calls of the hot and generator entries (a span's
    calls just count cells), the derived ratios and exact counts."""
    import tracing

    out: Dict[str, dict] = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    for entry in tracing.ENTRIES:
        stats = summary["entries"][entry.key]
        if entry.kind != "span":
            put(f"{entry.key}.calls", stats["calls"], "count")
        put(f"{entry.key}.share", 100.0 * stats["share"], "%")
    for layer, totals in summary["layers"].items():
        put(f"{layer}.share", 100.0 * totals["share"], "%")
    entries, counts = summary["entries"], summary["counts"]
    step = entries["engine.state.Kernel.step"]
    put("engine.state.steps_per_s",
        step["calls"] / step["self_s"] if step["self_s"] else 0.0, "1/s")
    put("engine.executor.useful_ratio",
        exact["schedules"] / max(1, exact["executions"]), "ratio")
    put("core.iterative.saved_executions", exact["saved_executions"], "count")
    fingerprints = entries["core.dpor.state_fingerprint"]["calls"]
    put("core.dpor.cache_hit_ratio",
        exact["dpor_cache_hits"] / fingerprints if fingerprints else 0.0,
        "ratio")
    put("engine.snapshot.replayed_steps", exact["replayed_steps"], "count")
    put("engine.snapshot.snapshot_restored_steps",
        exact["snapshot_restored_steps"], "count")
    put("core.sharding.payload_bytes", counts["sharding.payload_bytes"],
        "bytes")
    busy = sum(c["seconds"] for c in cells)
    put("study.parallel.cell_busy_s", busy, "s")
    put("study.parallel.dispatch_gap_s", summary["wall_s"] - busy, "s")
    put("trace.wall_s", summary["wall_s"], "s")
    put("trace.overhead", summary["wall_s"] / untraced_wall - 1.0, "ratio")
    return out


def layer_extras(summary: dict, per_cell: dict) -> Dict[str, dict]:
    """Per-layer numbers that exist only on some workloads (printed and
    written to trace.json, not part of the metric contract)."""

    def children_cpu(key):
        return sum(c["children_cpu_s"] for c in per_cell.values()
                   if c["stats"][key][0])

    us = summary["dpor_us_per_step"]
    return {
        "core.dpor.us_per_step_short": {"value": us["short"], "unit": "us"},
        "core.dpor.us_per_step_long": {"value": us["long"], "unit": "us"},
        "study.store.append_p50_ms": {
            "value": summary["store_append_p50_ms"], "unit": "ms"},
        "core.sharding.pool_start_s": {
            "value": summary["counts"]["sharding.pool_start_ns"] / 1e9,
            "unit": "s"},
        "core.sharding.worker_cpu_s": {
            "value": children_cpu("core.sharding.submit"), "unit": "s"},
        "engine.snapshot.children_cpu_s": {
            "value": children_cpu("engine.snapshot.SnapshotRunner.runs"),
            "unit": "s"},
    }


# -- host facts ----------------------------------------------------------------


def _spin(n: int) -> int:
    acc = 0
    for i in range(n):
        acc = (acc + i * i) & 0xFFFF
    return acc


def host_facts() -> dict:
    """Core count, a measured 2-process speedup on a CPU-bound loop (a
    shared 2-vCPU host gives well under 2x), Python version, commit."""
    n = 2_000_000
    t0 = time.perf_counter()
    _spin(n)
    single = time.perf_counter() - t0
    ctx = multiprocessing.get_context("fork")
    procs = [ctx.Process(target=_spin, args=(n,)) for _ in range(2)]
    t0 = time.perf_counter()
    for p in procs:
        p.start()
    for p in procs:
        p.join()
    pair = time.perf_counter() - t0
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "cpu_count": os.cpu_count(),
        "speedup_2proc": 2.0 * single / pair,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": commit,
    }


# -- output --------------------------------------------------------------------


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def print_timing(name: str, seed: int, res: dict) -> None:
    print(f"== {name} (seed {seed}; {res['repeats']} repeat(s) in fresh "
          f"interpreters, {res['setup_launches']} set-up launches)")
    for metric, m in res["metrics"].items():
        print(f"   {metric:<12} {_fmt(m['value']):>12} {m['unit']:<3} "
              f"median of {m['n']}  [min {_fmt(m['min'])}, "
              f"max {_fmt(m['max'])}]")
    raw = res["raw"]
    print(f"   (times in reference seconds; raw wall_s {_fmt(raw['wall_s']['value'])}"
          f" s, cpu_s {_fmt(raw['cpu_s']['value'])} s; speed probe read "
          f"{raw['probe_reading_ms']['value']:.3f} ms, reference "
          f"{speed.REFERENCE_MS:g} ms)")
    _print_checks(res)


def print_trace(name: str, seed: int, res: dict) -> None:
    s = res["summary"]
    print(f"== {name} traced (seed {seed}; wall {res['wall_s']:.3f} s traced "
          f"vs {res['untraced_wall_s']:.3f} s untraced, overhead "
          f"{100 * res['metrics']['trace.overhead']['value']:.1f}%)")
    print(f"   {'layer / entry':<52} {'calls':>10} {'self_s':>9} {'share':>7}")
    for layer, totals in sorted(s["layers"].items(),
                                key=lambda kv: -kv[1]["self_s"]):
        if not totals["self_s"]:
            continue
        print(f"   {layer:<52} {'':>10} {totals['self_s']:9.3f} "
              f"{100 * totals['share']:6.2f}%")
        for key, e in s["entries"].items():
            if key.startswith(layer + ".") and e["calls"]:
                print(f"     {key[len(layer) + 1:]:<50} {e['calls']:>10} "
                      f"{e['self_s']:9.3f} {100 * e['share']:6.2f}%")
    print(f"   unattributed (harness): {100 * s['unattributed_share']:.2f}% "
          "of traced wall")
    for key, m in list(res["metrics"].items()) + list(res["extra"].items()):
        if not key.endswith((".calls", ".share")):
            print(f"   {key:<44} {_fmt(m['value']):>12} {m['unit']}")
    if res["missing_entries"]:
        print(f"   entries not found (not wrapped): {res['missing_entries']}")
    _print_checks(res)


def _print_checks(res: dict) -> None:
    cells = res["cells"]
    bad = res["failed"] + res["undecided"]
    print(f"   failed_frac  {bad}/{cells} = {bad / max(1, cells):.4f} "
          f"({res['failed']} wrong or errored, {res['undecided']} undecided "
          "under the ceiling)")
    print(f"   checks       {res['attempted']} cell results checked, "
          f"{res['failed']} failed")
    for cell, msg in res["failures"][:20]:
        print(f"   FAIL {cell}: {msg}")


# -- main ------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end study benchmark (see module docstring).")
    parser.add_argument("--workload", default="all",
                        help="paper-grid, por-suite, deep-prefix or all")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--repeats", type=int, default=None,
                        help=f"minimum repeats (default {DEFAULT_REPEATS}, "
                             "or 1 with --seconds)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="keep repeating until this much time is measured")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="per-layer traced run")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"e2e benchmark: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    import workloads

    names = list(workloads.WORKLOADS) if args.workload == "all" \
        else [args.workload]
    if any(n not in workloads.WORKLOADS for n in names):
        parser.error(f"unknown workload {args.workload!r}")
    repeats = args.repeats or (1 if args.seconds else DEFAULT_REPEATS)
    TMP_DIR.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(TMP_DIR)

    result = {"benchmark": "e2e", "seed": args.seed, "trace": bool(args.trace),
              "host": host_facts(), "workloads": {}}
    sys.stdout.flush()
    for name in names:
        if args.trace:
            res = trace_run(name, args.seed)
            print_trace(name, args.seed, res)
        else:
            res = timing_run(name, args.seed, repeats, args.seconds)
            print_timing(name, args.seed, res)
        res["seeded"] = workloads.WORKLOADS[name].seeded
        result["workloads"][name] = res
        sys.stdout.flush()

    out = OUT_DIR / ("trace.json" if args.trace else "result.json")
    out.write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {out}")

    line = result_line(result["workloads"])
    print(json.dumps(line))
    return 0 if line["correct"] else 1


def result_line(runs: Dict[str, dict]) -> dict:
    """The last line of standard output: ``correct``, ``attempted``,
    ``failed`` and the metrics (prefixed by workload when there are
    several)."""
    failed = sum(r["failed"] for r in runs.values())
    metrics = {}
    for name, r in runs.items():
        prefix = "" if len(runs) == 1 else f"{name}."
        for metric, m in r["metrics"].items():
            metrics[prefix + metric] = {"value": m["value"], "unit": m["unit"]}
    return {"correct": failed == 0,
            "attempted": sum(r["attempted"] for r in runs.values()),
            "failed": failed, "metrics": metrics}


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception as exc:  # report, exit non-zero, print no result
        print(f"e2e benchmark failed: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        sys.exit(1)
