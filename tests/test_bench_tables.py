"""Reduced-scale runs of the table producers and ablations."""

import pytest

from repro.bench.tables import (
    ablation_skew_bound,
    ablation_store_vs_recompute,
    coordinate_pair_overhead,
    sec45_partition_micro,
    table2_reduce_write_scaling,
    table3_network_connections,
)
from repro.bench.workloads import query1_workload


@pytest.fixture(scope="module")
def wl_small():
    return query1_workload(num_splits=200)


class TestTable2:
    def test_sentinel_scales_sidr_constant(self, tmp_path):
        rows = table2_reduce_write_scaling(
            str(tmp_path),
            reduce_counts=(4, 8, 16),
            cells_per_task=32_768,
            runs=2,
        )
        sent = [r for r in rows if r.strategy == "sentinel"]
        sidr = [r for r in rows if r.strategy == "sidr-contiguous"]
        assert len(sent) == 3 and len(sidr) == 1
        # Sentinel file size doubles with the reduce count.
        assert sent[1].file_size_bytes == pytest.approx(
            2 * sent[0].file_size_bytes, rel=0.01
        )
        assert sent[2].file_size_bytes == pytest.approx(
            4 * sent[0].file_size_bytes, rel=0.01
        )
        # SIDR's file is the fixed per-task data, far below any sentinel.
        assert sidr[0].file_size_bytes < sent[0].file_size_bytes / 2
        assert sidr[0].seeks == 0

    def test_coordinate_pair_overhead_constant(self, tmp_path):
        ratio = coordinate_pair_overhead(str(tmp_path))
        assert 2.0 < ratio < 4.0


class TestTable3:
    def test_paper_rows(self, wl_small):
        rows = table3_network_connections(
            reduce_counts=(22, 66), workload=wl_small
        )
        r22 = rows[0]
        assert r22.hadoop_connections == 200 * 22
        # SIDR: roughly one connection per split plus block boundaries.
        assert r22.sidr_connections < r22.hadoop_connections / 10
        assert rows[1].hadoop_connections == 3 * r22.hadoop_connections

    def test_sidr_connections_grow_slowly(self, wl_small):
        rows = table3_network_connections(
            reduce_counts=(22, 66, 132), workload=wl_small
        )
        sidr = [r.sidr_connections for r in rows]
        hadoop = [r.hadoop_connections for r in rows]
        assert hadoop[2] / hadoop[0] == 6
        assert sidr[2] / sidr[0] < 2  # near-flat (paper: 2,820 -> 3,031)


class TestPartitionMicro:
    def test_both_measured(self):
        res = sec45_partition_micro(num_keys=200_000, runs=2)
        assert res.default_seconds > 0
        assert res.partition_plus_seconds > 0
        # The ratio (paper: 1.1x) is a wall-clock claim and is asserted
        # at the paper's 6.48M keys by
        # benchmarks/test_sec45_partition_micro.py, not on two 200k-key
        # runs here.


class TestAblations:
    def test_skew_bound_tradeoff(self, wl_small):
        rows = ablation_skew_bound(
            bounds=(10, 1000, 100_000), num_reduces=24, workload=wl_small
        )
        units = [r.unit_volume for r in rows]
        assert units == sorted(units)  # bigger bound -> bigger unit
        for r in rows:
            assert r.max_skew_cells <= max(r.unit_volume, r.skew_bound)

    def test_store_vs_recompute(self, wl_small):
        res = ablation_store_vs_recompute(num_reduces=24, workload=wl_small)
        assert res.store_seconds > 0
        assert res.recompute_one_seconds > 0
        # One-off recompute of a single block is cheaper than the full map.
        assert res.recompute_one_seconds < res.store_seconds * 2


class TestReport:
    def test_format_table(self):
        from repro.bench.report import format_table

        text = format_table(
            ["name", "value"], [["a", 1], ["b", 22.5]], title="T"
        )
        assert "T" in text and "22.5" in text

    def test_format_series(self):
        from repro.bench.report import format_series
        from repro.sidr.early_results import CompletionCurve

        c = CompletionCurve((1.0, 2.0), (0.5, 1.0))
        text = format_series({"x": c}, title="curves")
        assert "x" in text and "100.0%" in text
