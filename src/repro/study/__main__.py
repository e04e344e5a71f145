"""Command-line entry point: ``python -m repro.study`` / ``repro-study``.

Runs the study and writes every regenerated artifact:

    python -m repro.study --limit 10000 --out results/

produces ``table1.txt`` … ``table3.txt``, ``figure2a.txt``/``2b``,
``figure3.csv``/``figure3.txt``, ``figure4.csv``/``figure4.txt``,
``comparison.txt``, ``report.txt`` and ``raw.json``.

``--jobs N`` fans the study's (benchmark, technique) cells over N worker
processes; ``--run-id`` names a run in the checkpoint store so an
interrupted run resumes where it stopped::

    python -m repro.study --jobs 8 --run-id full-study --out results/

Every run goes through :class:`~repro.study.parallel.ParallelStudyRunner`
(retries, resource ceilings, fault injection); only ``--jobs N > 1``,
``--run-id`` or ``--retry-errors`` checkpoint it in the store.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from .config import StudyConfig, quick_config


def parse_size(text: str) -> int:
    """Parse a byte size with an optional K/M/G/T suffix (``512M``,
    ``2G``, ``1048576``).  Binary units (1K = 1024)."""
    text = text.strip()
    multipliers = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30, "T": 1 << 40}
    suffix = text[-1:].upper()
    if suffix in multipliers:
        number, scale = text[:-1], multipliers[suffix]
    else:
        number, scale = text, 1
    try:
        value = int(float(number) * scale)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid size {text!r} (expected e.g. 512M, 2G, or bytes)"
        )
    if value <= 0:
        raise argparse.ArgumentTypeError(f"size must be positive: {text!r}")
    return value
from .figures import (
    figure3_series,
    figure4_series,
    render_scatter,
    render_venn,
    scatter_csv,
    venn_systematic,
    venn_vs_random,
)
from .parallel import DEFAULT_CHECKPOINT_DIR, ParallelStudyRunner, StudyInterrupted
from .report import bound_comparison, found_pattern_comparison, full_report, headline_findings
from .tables import table1, table2, table3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-study",
        description="Reproduce the PPoPP'14 schedule-bounding study.",
    )
    parser.add_argument(
        "--limit", type=int, default=10_000,
        help="terminal-schedule limit per benchmark/technique (paper: 10000)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="reduced limits for a fast end-to-end pass",
    )
    parser.add_argument(
        "--benchmarks", nargs="*", default=None,
        help="benchmark names to run (default: all 52)",
    )
    parser.add_argument("--out", default=None, help="directory for artifacts")
    parser.add_argument(
        "--quiet", action="store_true", help="suppress per-technique progress"
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for (benchmark, technique) cells (default: 1)",
    )
    parser.add_argument(
        "--run-id", default=None,
        help="checkpoint id; re-use to resume an interrupted run",
    )
    parser.add_argument(
        "--shards", type=int, default=1, metavar="N",
        help="worker processes *inside* each cell: IPB/IDB/DFS shard the "
             "DFS/frontier subtrees, Rand/PCT shard the execution-index "
             "range (switching them to the index-seeded random stream — "
             "part of the fingerprint); DPOR, BPOR and MapleAlg run "
             "serially; 1 = classic serial exploration",
    )
    parser.add_argument(
        "--snapshots", action="store_true",
        help="fork-based copy-on-write prefix snapshots for IPB/IDB/DFS: "
             "deep schedule prefixes resume from live process images "
             "instead of being replayed; results byte-identical, falls "
             "back to serial replay where os.fork is unavailable",
    )
    parser.add_argument(
        "--profile-cell", action="store_true", dest="profile_cells",
        help="dump a per-cell cProfile (<bench>.<technique>.prof + pstats "
             "text) under --profile-dir; pure telemetry, never part of "
             "the study fingerprint",
    )
    parser.add_argument(
        "--profile-dir", default="results/profiles",
        help="directory for --profile-cell dumps (default: "
             "results/profiles)",
    )
    parser.add_argument(
        "--engine-counters", action="store_true",
        help="collect engine-cost counters for the systematic techniques "
             "(report gains an 'Engine cost' section; results unchanged)",
    )
    parser.add_argument(
        "--engine-check", action="store_true",
        help="paranoid engine self-checks every step (scheduler-choice "
             "legality, kernel bookkeeping, replay determinism); pure "
             "validation — slower, results unchanged",
    )
    parser.add_argument(
        "--checkpoint-dir", default=DEFAULT_CHECKPOINT_DIR,
        help=f"study store directory (default: {DEFAULT_CHECKPOINT_DIR})",
    )
    parser.add_argument(
        "--cell-deadline", type=float, default=None, metavar="SECONDS",
        help="cooperative wall-clock deadline per (benchmark, technique) "
             "cell; an expired cell keeps its partial stats with status "
             "'timeout' (default: no deadline)",
    )
    parser.add_argument(
        "--retry-errors", action="store_true",
        help="on resume, re-run stored cells whose status is "
             "timeout/diverged/error/quarantined/oom/resource instead of "
             "skipping them",
    )
    parser.add_argument(
        "--max-rss", type=parse_size, default=None, metavar="SIZE",
        help="RSS ceiling per cell *process tree* (worker + shard workers "
             "+ snapshot holders), e.g. 512M or 2G; a breach stops the "
             "cell cooperatively with status 'oom' (partial stats kept) "
             "and may trigger graceful degradation (default: no ceiling)",
    )
    parser.add_argument(
        "--max-fds", type=int, default=None, metavar="N",
        help="open-file-descriptor ceiling per cell process tree; a "
             "breach stops the cell with status 'resource' (default: no "
             "ceiling)",
    )
    parser.add_argument(
        "--min-free-disk", type=parse_size, default=None, metavar="SIZE",
        help="free-disk floor under the checkpoint directory, e.g. 1G; "
             "dropping below it stops the cell with status 'resource' "
             "before a full disk can corrupt the store (default: no "
             "floor)",
    )
    parser.add_argument(
        "--no-auto-degrade", action="store_false", dest="auto_degrade",
        help="disable graceful degradation (by default, after an 'oom' "
             "cell the runner turns off snapshots, then halves shards, "
             "for subsequent cells — go-slower knobs only, never part of "
             "the fingerprint)",
    )
    parser.add_argument(
        "--list-runs", action="store_true",
        help="list every run in the store under --checkpoint-dir (cells "
             "by status, lease state) and exit",
    )
    parser.add_argument(
        "--report-run", default=None, metavar="RUN_ID",
        help="rebuild the full report for a completed/partial run from "
             "the store (no cells are executed) and exit",
    )
    args = parser.parse_args(argv)

    if args.list_runs:
        from .report import store_overview

        print(store_overview(args.checkpoint_dir))
        return 0

    if args.report_run:
        from .store import load_run

        try:
            study = load_run(args.checkpoint_dir, args.report_run)
        except (KeyError, OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(full_report(study))
        return 0

    if args.quick:
        config = quick_config()
    else:
        config = StudyConfig(schedule_limit=args.limit)
    config.benchmarks = args.benchmarks
    config.jobs = max(1, args.jobs)
    config.cell_shards = max(1, args.shards)
    config.snapshots = args.snapshots
    config.profile_cells = args.profile_cells
    config.profile_dir = args.profile_dir
    config.engine_counters = args.engine_counters
    config.engine_check = args.engine_check
    config.cell_deadline = args.cell_deadline
    config.cell_max_rss = args.max_rss
    config.cell_max_fds = args.max_fds
    config.min_free_disk = args.min_free_disk
    config.auto_degrade = args.auto_degrade
    config.supervise_dir = args.checkpoint_dir

    progress = None if args.quiet else lambda msg: print(msg, file=sys.stderr, flush=True)
    t0 = time.time()
    checkpointed = config.jobs > 1 or args.run_id or args.retry_errors
    runner = ParallelStudyRunner(
        config,
        run_id=args.run_id,
        checkpoint_dir=args.checkpoint_dir if checkpointed else None,
        progress=progress,
        retry_errors=args.retry_errors,
    )
    try:
        study = runner.run()
    except ValueError as exc:  # fingerprint mismatch, unopenable store
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except StudyInterrupted as exc:
        print(f"\n{exc}", file=sys.stderr)
        return 0
    elapsed = time.time() - t0

    report = full_report(study)
    print(report)
    print(f"\ntotal wall-clock: {elapsed:.1f}s")

    if args.out:
        os.makedirs(args.out, exist_ok=True)
        limit = config.schedule_limit

        def write(name: str, content: str) -> None:
            with open(os.path.join(args.out, name), "w") as fh:
                fh.write(content + "\n")

        write("table1.txt", table1())
        write("table2.txt", table2(study))
        write("table3.txt", table3(study))
        write("figure2a.txt", render_venn(venn_systematic(study), ("IPB", "IDB", "DFS")))
        write(
            "figure2b.txt",
            render_venn(venn_vs_random(study), ("IDB", "Rand", "MapleAlg")),
        )
        f3 = figure3_series(study)
        f4 = figure4_series(study)
        write("figure3.csv", scatter_csv(f3))
        write("figure4.csv", scatter_csv(f4))
        write(
            "figure3.txt",
            render_scatter(f3, limit, use_first=True, title="Figure 3: schedules to first bug (x=IDB, y=IPB)"),
        )
        write(
            "figure4.txt",
            render_scatter(f4, limit, use_first=True, title="Figure 4: worst-case non-buggy schedules (x=IDB, y=IPB)"),
        )
        write("comparison.txt", found_pattern_comparison(study) + "\n\n" + bound_comparison(study))
        write("headlines.txt", headline_findings(study))
        write("report.txt", report)
        write("raw.json", study.to_json())
        print(f"artifacts written to {args.out}/")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
