"""Tests for the human-readable trace report (repro.obs.report)."""

import pytest

from repro.mapreduce.engine import DependencyBarrier, GlobalBarrier, LocalEngine
from repro.obs import format_report, format_run_report, load_trace, normalized_runs, write_chrome_trace
from tests.test_mapreduce_engine import counting_job, ranged_job


@pytest.fixture(scope="module")
def dep_run():
    job, deps = ranged_job()
    res = LocalEngine().run_serial(job, DependencyBarrier(deps))
    return normalized_runs(res.obs)[0]


class TestRunReport:
    def test_header_and_phase_table(self, dep_run):
        text = format_run_report(dep_run)
        assert text.startswith("== ranged ==")
        assert "per-phase totals:" in text
        for name in ("map.read", "map.spill", "reduce.fetch", "reduce.reduce"):
            assert name in text

    def test_barrier_wait_section(self, dep_run):
        text = format_run_report(dep_run)
        assert "barrier waits (per reduce):" in text
        for p in range(4):
            assert f"reduce {p}" in text
        assert "wait total" in text

    def test_early_start_timeline(self, dep_run):
        text = format_run_report(dep_run)
        # Serial DependencyBarrier run: reduces 0..2 start before the
        # last map finishes (see test_mapreduce_engine).
        assert "early starts: 3 of 4 reduces began" in text
        assert "maps done" in text

    def test_skew_summary(self, dep_run):
        text = format_run_report(dep_run)
        assert "reduce skew: min/median/max" in text
        assert "max/median" in text

    def test_metric_callouts(self, dep_run):
        text = format_run_report(dep_run)
        assert "reduce group sizes:" in text
        assert "counters:" in text
        assert "shuffle.fetch.connections=8" in text

    def test_latency_percentile_table(self, dep_run):
        text = format_run_report(dep_run)
        assert "latency percentiles (bucket-interpolated):" in text
        # Every populated *.seconds histogram gets a row with p50/p95/max.
        for col in ("p50", "p95", "max"):
            assert col in text
        assert "barrier.wait.seconds" in text
        assert "shuffle.fetch.seconds" in text

    def test_top_limits_early_start_lines(self):
        job, deps = ranged_job(num_splits=16, num_reduces=8)
        res = LocalEngine().run_serial(job, DependencyBarrier(deps))
        text = format_run_report(normalized_runs(res.obs)[0])
        assert "early starts: 7 of 8" in text
        assert "... (2 more)" in text

    def test_global_barrier_has_no_early_starts(self):
        res = LocalEngine().run_serial(counting_job(), GlobalBarrier())
        text = format_run_report(normalized_runs(res.obs)[0])
        assert "early starts: 0 of 3" in text


class TestWholeTrace:
    def test_multi_run_sections(self, tmp_path):
        job, deps = ranged_job()
        eng = LocalEngine()
        a = eng.run_serial(job, DependencyBarrier(deps))
        b = eng.run_serial(job, GlobalBarrier())
        path = write_chrome_trace(
            tmp_path / "t.json", [("sidr", a.obs), ("stock", b.obs)]
        )
        text = format_report(load_trace(path))
        assert "== sidr ==" in text
        assert "== stock ==" in text
        assert text.index("== sidr ==") < text.index("== stock ==")

    def test_simulated_trace_reports(self):
        from repro.bench.figures import fig13_skew

        result = fig13_skew(scale=20)
        runs = normalized_runs(
            [(k, tl.to_observability(k)) for k, tl in result.timelines.items()]
        )
        text = format_report(runs)
        assert "== stock ==" in text and "== SIDR ==" in text
        assert "barrier waits (per reduce):" in text
