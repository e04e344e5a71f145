"""A miniature of the paper's empirical study over one benchmark suite.

Runs the full methodology (race phase + IPB/IDB/DFS/Rand/MapleAlg) over
the CS suite at a reduced schedule limit and prints the same artifacts the
paper reports: the Table 3 grid for the subset, the Figure 2 Venn regions,
and the Figure 3 scatter (IDB vs IPB schedules-to-first-bug).

``--jobs N`` fans the (benchmark, technique) cells out over N worker
processes — the results are identical to the serial run, just faster on
a multi-core box.

The full 52-benchmark study at the paper's 10,000-schedule limit is
``python -m repro.study --limit 10000 --out results/``.

Run:  python examples/mini_study.py [--jobs N]
"""

import argparse

from repro.sctbench import suite_of
from repro.study import (
    engine_cost_summary,
    figure3_series,
    quick_config,
    render_scatter,
    render_venn,
    run_study,
    table3,
    venn_systematic,
    venn_vs_random,
)

LIMIT = 1_000


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for (benchmark, technique) cells",
    )
    parser.add_argument(
        "--shards", type=int, default=1, metavar="N",
        help="worker processes inside each cell (intra-cell sharding; "
             "flips Rand to the index-seeded stream)",
    )
    args = parser.parse_args()

    config = quick_config(limit=LIMIT)
    config.benchmarks = [b.name for b in suite_of("CS")]
    config.jobs = max(1, args.jobs)
    config.cell_shards = max(1, args.shards)
    # Engine-cost telemetry: shows how many restart re-executions the
    # frontier-resuming iterative bounding saved (never affects results).
    config.engine_counters = True
    print(f"Running the CS suite ({len(config.benchmarks)} benchmarks), "
          f"limit {LIMIT:,} schedules per technique, jobs={config.jobs}, "
          f"shards={config.cell_shards}...\n")
    study = run_study(config)

    print(table3(study))
    print()
    print(render_venn(venn_systematic(study), ("IPB", "IDB", "DFS")))
    print()
    print(render_venn(venn_vs_random(study), ("IDB", "Rand", "MapleAlg")))
    print()
    points = figure3_series(study)
    print(render_scatter(
        points, LIMIT,
        title="Figure 3 (CS suite): schedules to first bug — x=IDB, y=IPB; "
              "points above the diagonal favour IDB",
    ))
    print()
    print("Engine cost (frontier resumption + replay fast path):")
    print(engine_cost_summary(study))


if __name__ == "__main__":
    main()
