"""Regenerate ``golden.json``, the reference outputs the benchmark checks.

    PYTHONPATH=src python benchmarks/e2e/make_golden.py [--out PATH]

References come from the serial code paths, not from the workloads'
own executors:

* ``paper-grid`` — full ``as_dict()`` per cell from the serial study
  (:func:`repro.study.run_study`: no pool, no store) at seed 42;
* ``por-suite`` — the (``found_bug``, ``completed``) verdict per cell;
* ``deep-prefix`` — full ``as_dict()`` per cell from the plain serial
  explorer (no snapshots, no shards), per the byte-identity contract;
  plus IDB on ``fixed.prelude``, which must complete the same 920
  schedules DFS and IPB do.

Takes about a minute.
"""

from __future__ import annotations

import argparse
import json
import sys

import workloads
from repro.study import run_study


def paper_grid() -> dict:
    wl = workloads.WORKLOADS["paper-grid"]
    inputs = wl.setup(workloads.GOLDEN_SEED)
    wl.cleanup(inputs)
    study = run_study(inputs["config"])
    return {f"{r.info.name}/{tech}": st.as_dict()
            for r in study for tech, st in r.stats.items()}


def por_suite() -> dict:
    wl = workloads.WORKLOADS["por-suite"]
    raw = wl.run(wl.setup(workloads.GOLDEN_SEED))
    return {c["id"]: {"found_bug": c["stats"]["first_bug"] is not None,
                      "completed": c["stats"]["completed"]}
            for c in raw["cells"]}


def deep_prefix() -> tuple:
    cells = {}
    for subject, tech, variant, limit in workloads.DEEP_CELLS:
        explorer = workloads.EXPLORERS[tech](counters=True)
        stats = explorer.explore(workloads.deep_program(subject), limit)
        cells[f"{subject}/{tech}+{variant}"] = stats.as_dict()
    idb = workloads.EXPLORERS["IDB"](counters=True).explore(
        workloads.deep_program("fixed.prelude"), 10_000)
    reference = {"fixed.prelude/IDB": idb.as_dict()}
    agree = {cells["fixed.prelude/DFS+snapshots"]["schedules"],
             cells["fixed.prelude/IPB+snapshots"]["schedules"],
             idb.schedules}
    if len(agree) != 1 or not idb.completed:
        raise SystemExit(f"DFS, IPB and IDB disagree on fixed.prelude: {agree}")
    return cells, reference


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(workloads.GOLDEN_PATH))
    args = parser.parse_args(argv)
    deep, reference = deep_prefix()
    golden = {
        "seed": workloads.GOLDEN_SEED,
        "paper-grid": paper_grid(),
        "por-suite": por_suite(),
        "deep-prefix": deep,
        "reference": reference,
    }
    with open(args.out, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out}: " + ", ".join(
        f"{k} {len(v)}" for k, v in golden.items() if isinstance(v, dict)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
