"""Compare a fresh e2e result with another one or with the baseline.

    python benchmarks/e2e/diff.py NEW.json [OLD.json]

``OLD`` defaults to the committed ``benchmarks/e2e/baseline.json``.  Both
are result files written by ``run.py``.  The comparison:

* fails (exit status 1) on any change to an exact count and on any
  failed check in ``NEW`` (workloads ``NEW`` did not run are skipped);
* for each workload and end-to-end metric prints ``better``, ``worse``,
  ``same`` or ``unresolved`` against the metric's bound in
  ``BENCHMARK.json``.  A metric whose run-to-run spread (distance between
  quartiles over median) exceeds its bound is ``unresolved`` unless every
  new run beats every old run, or the reverse.

Exact counts of a workload that depends on the seed (``paper-grid``) are
compared only when both files used the same seed; counts of traced
results are compared too, their timings only listed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK_JSON = HERE.parents[1] / "BENCHMARK.json"


def _spread(values) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return (q3 - q1) / statistics.median(values)


def verdict(old: dict, new: dict, bound: float, better: str) -> str:
    """``better``/``worse``/``same``/``unresolved`` for one metric."""
    sign = 1.0 if better == "lower" else -1.0
    change = sign * (new["value"] - old["value"]) / old["value"]
    olds, news = old.get("values", [old["value"]]), new.get("values",
                                                           [new["value"]])
    if max(_spread(olds), _spread(news)) > bound:
        if all(sign * n < sign * o for n in news for o in olds):
            return "better"
        if all(sign * n > sign * o for n in news for o in olds):
            return "worse"
        return "unresolved"
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "same"


def compare(new: dict, old: dict, spec: dict) -> int:
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    problems = 0
    for name, old_wl in old["workloads"].items():
        new_wl = new["workloads"].get(name)
        if new_wl is None:
            print(f"== {name}: not in the new result")
            continue
        print(f"== {name}")
        if new_wl["failed"]:
            print(f"   {new_wl['failed']} failed check(s) in the new result")
            problems += 1
        if not old_wl["seeded"] or new["seed"] == old["seed"]:
            keys = sorted(set(old_wl["counts"]) | set(new_wl["counts"]))
            changed = [k for k in keys
                       if old_wl["counts"].get(k) != new_wl["counts"].get(k)]
            for key in changed:
                print(f"   COUNT {key}: {old_wl['counts'].get(key)} -> "
                      f"{new_wl['counts'].get(key)}")
            problems += bool(changed)
            if not changed:
                print(f"   exact counts identical ({len(keys)})")
        else:
            print("   exact counts not compared (different seed)")
        if old.get("trace") or new.get("trace"):
            for metric, m in sorted(new_wl["metrics"].items()):
                o = old_wl["metrics"].get(metric)
                if o is not None and not metric.endswith(".calls"):
                    print(f"   {metric:<56} {o['value']:>12.6g} -> "
                          f"{m['value']:<12.6g} {m['unit']}")
            continue
        for metric, m in new_wl["metrics"].items():
            o = old_wl["metrics"].get(metric)
            if o is None or metric not in bounds:
                continue
            b = bounds[metric]
            print(f"   {metric:<12} {o['value']:>11.6g} -> {m['value']:<11.6g}"
                  f" {m['unit']:<3} {100 * (m['value'] / o['value'] - 1):+7.2f}%"
                  f"  {verdict(o, m, b['bound'], b['better'])}"
                  f" (bound {100 * b['bound']:g}%)")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("new")
    parser.add_argument("old", nargs="?", default=str(HERE / "baseline.json"))
    args = parser.parse_args(argv)
    new = json.loads(Path(args.new).read_text())
    old = json.loads(Path(args.old).read_text())
    spec = json.loads(BENCHMARK_JSON.read_text())
    for label, res in (("old", old), ("new", new)):
        host = res["host"]
        print(f"{label}: seed {res['seed']}, {host['cpu_count']} cpus "
              f"(2-process speedup {host['speedup_2proc']:.2f}x), Python "
              f"{host['python']}, commit {host['commit']}")
    return compare(new, old, spec)


if __name__ == "__main__":
    sys.exit(main())
