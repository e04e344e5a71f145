"""Tests for the study harness: runner, tables, figures, report, CLI."""

import json
import os
import subprocess
import sys

import pytest

from repro.study import (
    StudyConfig,
    figure3_series,
    figure4_series,
    full_report,
    headline_findings,
    quick_config,
    render_scatter,
    render_venn,
    run_study,
    scatter_csv,
    table1,
    table2,
    table2_rows,
    table3,
    venn_systematic,
    venn_vs_random,
)

SMALL_SET = [
    "CS.account_bad",
    "CS.lazy01_bad",
    "CS.reorder_3_bad",
    "CS.din_phil2_sat",
    "splash2.lu",
]


@pytest.fixture(scope="module")
def small_study():
    config = quick_config(limit=200)
    config.benchmarks = SMALL_SET
    return run_study(config)


class TestRunner:
    def test_runs_every_requested_benchmark(self, small_study):
        assert len(small_study) == len(SMALL_SET)
        assert [r.info.name for r in small_study] == SMALL_SET

    def test_every_technique_present(self, small_study):
        for r in small_study:
            assert set(r.stats) == {
                "IPB", "IDB", "DFS", "DPOR", "BPOR", "Rand", "MapleAlg",
            }

    def test_easy_bugs_found_by_bounding(self, small_study):
        for name in SMALL_SET:
            r = small_study.by_name(name)
            assert r.found_by("IDB"), name

    def test_found_set(self, small_study):
        assert small_study.found_set("IDB") == frozenset(SMALL_SET)

    def test_json_roundtrips(self, small_study):
        data = json.loads(small_study.to_json())
        assert data["schedule_limit"] == 200
        assert len(data["benchmarks"]) == len(SMALL_SET)
        first = data["benchmarks"][0]
        assert "techniques" in first and "IDB" in first["techniques"]

    def test_single_benchmark_runner(self):
        config = quick_config(limit=100)
        config.benchmarks = ["CS.lazy01_bad"]
        result = run_study(config).by_name("CS.lazy01_bad")
        assert result.found_by("IDB")
        assert result.seconds >= 0

    def test_limit_override_applies(self):
        config = StudyConfig(schedule_limit=100)
        config.limit_overrides = {"CS.lazy01_bad": 7}
        assert config.limit_for("CS.lazy01_bad") == 7
        assert config.limit_for("CS.account_bad") == 100

    def test_extension_techniques_selectable(self):
        config = quick_config(limit=100)
        config.techniques = ["IDB", "PCT", "DPOR"]
        config.benchmarks = ["CS.lazy01_bad"]
        result = run_study(config).by_name("CS.lazy01_bad")
        assert set(result.stats) == {"IDB", "PCT", "DPOR"}
        assert result.stats["DPOR"].found_bug
        assert result.stats["PCT"].technique == "PCT"

    def test_bpor_cell_reports_study_label(self):
        config = quick_config(limit=100)
        config.techniques = ["BPOR"]
        config.benchmarks = ["CS.lazy01_bad"]
        result = run_study(config).by_name("CS.lazy01_bad")
        assert result.stats["BPOR"].technique == "BPOR"
        assert result.stats["BPOR"].found_bug

    @pytest.mark.parametrize("technique", ["MapleAlg", "DPOR", "BPOR"])
    def test_non_shardable_technique_warns_per_cell(self, technique):
        from repro.study.runner import run_cell

        config = quick_config(limit=20)
        config.cell_shards = 2
        with pytest.warns(RuntimeWarning, match=technique):
            run_cell("CS.lazy01_bad", technique, config)

    def test_shardable_technique_does_not_warn(self):
        import warnings

        from repro.study.runner import run_cell

        config = quick_config(limit=50)
        config.cell_shards = 2
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            record = run_cell("CS.lazy01_bad", "IPB", config)
        assert record["status"] == "bug"


class TestTables:
    def test_table1_shape(self):
        text = table1()
        assert "CHESS" in text and "SPLASH-2" in text
        assert "52" in text  # total used

    def test_table2_counts(self, small_study):
        rows = dict(table2_rows(small_study))
        # lazy01 and din_phil2 are DB=0 bugs; all five tiny benchmarks
        # should be exhaustively explorable below the 200 limit.
        assert rows["Bug found with DB = 0"] >= 2
        text = table2(small_study)
        assert "# benchmarks" in text

    def test_table3_contains_all_rows(self, small_study):
        text = table3(small_study)
        for name in SMALL_SET:
            assert name in text


class TestFigures:
    def test_venn_regions_sum_to_benchmark_count(self, small_study):
        for regions in (venn_systematic(small_study), venn_vs_random(small_study)):
            assert sum(regions.values()) == len(SMALL_SET)

    def test_venn_renders(self, small_study):
        text = render_venn(venn_systematic(small_study), ("IPB", "IDB", "DFS"))
        assert "IPB & IDB & DFS" in text

    def test_figure3_points(self, small_study):
        points = figure3_series(small_study)
        # every benchmark here is found by at least one bounding technique
        assert len(points) == len(SMALL_SET)
        for p in points:
            assert 1 <= p.idb_first <= 200
            assert 1 <= p.ipb_first <= 200

    def test_figure4_worst_case_at_least_first(self, small_study):
        f4 = {p.name: p for p in figure4_series(small_study)}
        for p in figure3_series(small_study):
            # worst case (non-buggy + 1) is >= best case cannot be asserted
            # in general, but both must be within the limit
            assert f4[p.name].idb_first <= 200

    def test_scatter_csv_and_ascii(self, small_study):
        points = figure3_series(small_study)
        csv = scatter_csv(points)
        assert csv.splitlines()[0].startswith("id,name")
        assert len(csv.splitlines()) == len(points) + 1
        art = render_scatter(points, 200, title="t")
        assert "t" in art and "|" in art


class TestReport:
    def test_full_report_renders(self, small_study):
        text = full_report(small_study)
        for section in ("## Table 1", "## Table 3", "## Figure 2a", "Headline"):
            assert section in text

    def test_headline_findings_mentions_counts(self, small_study):
        text = headline_findings(small_study)
        assert "IDB found" in text


class TestComparisons:
    def test_found_pattern_table_lists_every_benchmark(self, small_study):
        from repro.study import found_pattern_comparison

        text = found_pattern_comparison(small_study)
        for name in SMALL_SET:
            assert name in text
        assert "agreement:" in text

    def test_bound_comparison_lists_bounds(self, small_study):
        from repro.study import bound_comparison

        text = bound_comparison(small_study)
        assert "exact bound matches" in text
        assert "CS.lazy01_bad" in text

    def test_run_diff_on_same_study_is_clean(self, small_study, tmp_path):
        import json

        from repro.study import diff_runs

        payload = json.loads(small_study.to_json())
        diff = diff_runs(payload, payload)
        assert diff.clean


class TestCLI:
    def test_cli_end_to_end(self, tmp_path, capsys):
        from repro.study.__main__ import main

        rc = main(
            [
                "--quick",
                "--quiet",
                "--benchmarks",
                "CS.lazy01_bad",
                "splash2.fft",
                "--out",
                str(tmp_path / "results"),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "Study report" in out
        produced = {p.name for p in (tmp_path / "results").iterdir()}
        assert {"table3.txt", "figure2a.txt", "figure3.csv", "raw.json"} <= produced

    def test_default_run_honours_resource_ceilings(self, tmp_path):
        # In a subprocess: an in-process cell supervisor would sample and
        # reap pytest's own children.
        src = os.path.join(
            os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [
                sys.executable, "-m", "repro.study", "--quick", "--quiet",
                "--benchmarks", "CS.lazy01_bad", "--max-rss", "1M",
                "--out", "out",
            ],
            cwd=tmp_path,
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        raw = json.loads((tmp_path / "out" / "raw.json").read_text())
        (bench,) = raw["benchmarks"]
        assert bench["statuses"] == {
            tech: "oom" for tech in quick_config().techniques
        }
        assert not list(tmp_path.rglob("study.sqlite*"))
