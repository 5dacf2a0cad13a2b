"""Integration tests for the SIDR planner — the full §3 front-end."""

import numpy as np
import pytest

from repro.errors import PartitionError
from repro.mapreduce.engine import GlobalBarrier, LocalEngine
from repro.mapreduce.job import JobConf
from repro.mapreduce.mapper import ChunkAggregateMapper
from repro.mapreduce.partitioner import HashPartitioner
from repro.mapreduce.reducer import AggregateReducer
from repro.query.recordreader import make_reader_factory
from repro.query.splits import slice_splits
from repro.sidr.planner import build_plan, build_sidr_job


class TestPlanAssembly:
    def test_plan_pieces_consistent(self, weekly_mean_plan):
        splits = slice_splits(weekly_mean_plan, num_splits=7)
        plan = build_plan(weekly_mean_plan, splits, 4)
        assert plan.num_reduce_tasks == 4
        assert plan.partition.num_blocks == 4
        assert plan.deps.num_splits == 7
        assert plan.partitioner.num_partitions == 4

    def test_output_regions_tile_output_space(self, weekly_mean_plan):
        from repro.arrays.slab import Slab, slabs_cover

        splits = slice_splits(weekly_mean_plan, num_splits=7)
        plan = build_plan(weekly_mean_plan, splits, 4)
        slabs = [s for l in range(4) for s in plan.output_region(l)]
        assert slabs_cover(
            Slab.whole(weekly_mean_plan.intermediate_space), slabs
        )

    def test_priorities_length_checked(self, weekly_mean_plan):
        splits = slice_splits(weekly_mean_plan, num_splits=4)
        with pytest.raises(PartitionError):
            build_plan(weekly_mean_plan, splits, 3, priorities=[1.0])

    def test_configure_job_names_the_plane_once(self, weekly_mean_plan, temp_data):
        """``configure_job`` is where a plane is named and validated;
        the job then *is* that plane by what it carries."""
        from repro.errors import JobConfigError

        splits = slice_splits(weekly_mean_plan, num_splits=4)
        plan = build_plan(weekly_mean_plan, splits, 3)
        job, _ = plan.configure_job(temp_data)
        assert job.data_plane == "columnar"
        assert job.batch_operator is weekly_mean_plan.operator
        record, _ = plan.configure_job(temp_data, data_plane="record")
        assert record.data_plane == "record" and record.batch_operator is None
        with pytest.raises(JobConfigError, match="unknown data plane 'rowful'"):
            plan.configure_job(temp_data, data_plane="rowful")

    def test_priorities_carried(self, weekly_mean_plan):
        splits = slice_splits(weekly_mean_plan, num_splits=4)
        plan = build_plan(
            weekly_mean_plan, splits, 3, priorities=[2.0, 0.0, 1.0]
        )
        assert plan.priorities == (2.0, 0.0, 1.0)
        assert build_plan(weekly_mean_plan, splits, 3).priorities is None


class TestEquivalence:
    """The three-way correctness check from DESIGN.md §5: oracle vs stock
    configuration vs SIDR configuration."""

    def _stock_job(self, qplan, splits, r, data):
        op = qplan.operator
        return JobConf(
            name="stock",
            splits=list(splits),
            reader_factory=make_reader_factory(data, qplan),
            mapper_factory=lambda: ChunkAggregateMapper(op),
            reducer_factory=lambda: AggregateReducer(op),
            partitioner=HashPartitioner(),
            num_reduce_tasks=r,
        )

    @pytest.mark.parametrize("r", [1, 3, 5])
    def test_weekly_mean_all_configurations(
        self, weekly_mean_plan, temp_data, r
    ):
        splits = slice_splits(weekly_mean_plan, num_splits=6)
        oracle = weekly_mean_plan.reference_output(temp_data)
        eng = LocalEngine()

        stock = eng.run_serial(
            self._stock_job(weekly_mean_plan, splits, r, temp_data),
            GlobalBarrier(),
        )
        job, barrier, plan = build_sidr_job(
            weekly_mean_plan, splits, r, temp_data
        )
        sidr = eng.run_serial(job, barrier)

        got_stock = dict(stock.all_records())
        got_sidr = dict(sidr.all_records())
        assert set(got_stock) == set(oracle) == set(got_sidr)
        for k, want in oracle.items():
            assert got_stock[k] == pytest.approx(want)
            assert got_sidr[k] == pytest.approx(want)

    def test_median_4d_equivalence(self, wind_median_plan, wind_field):
        data = wind_field.arrays["windspeed"].astype(np.float64)
        splits = slice_splits(wind_median_plan, num_splits=5)
        oracle = wind_median_plan.reference_output(data)
        job, barrier, plan = build_sidr_job(wind_median_plan, splits, 3, data)
        res = LocalEngine().run_threaded(job, barrier)
        got = dict(res.all_records())
        for k, want in oracle.items():
            assert got[k] == pytest.approx(want)

    def test_sidr_beats_stock_on_connections(self, weekly_mean_plan, temp_data):
        splits = slice_splits(weekly_mean_plan, num_splits=10)
        eng = LocalEngine()
        stock = eng.run_serial(
            self._stock_job(weekly_mean_plan, splits, 5, temp_data),
            GlobalBarrier(),
        )
        job, barrier, _ = build_sidr_job(weekly_mean_plan, splits, 5, temp_data)
        sidr = eng.run_serial(job, barrier)
        assert sidr.shuffle_connections < stock.shuffle_connections
        assert stock.shuffle_connections == 50

    def test_sidr_early_starts_nonzero(self, weekly_mean_plan, temp_data):
        splits = slice_splits(weekly_mean_plan, num_splits=10)
        job, barrier, _ = build_sidr_job(weekly_mean_plan, splits, 5, temp_data)
        res = LocalEngine().run_serial(job, barrier)
        assert res.counters.get("barrier.early.starts") >= 3


class TestFilterQuery:
    def test_query2_style_filter(self, tmp_path):
        """Query 2 end-to-end: filter over normal data, SIDR vs oracle."""
        from repro.bench.workloads import small_query2

        field, qplan = small_query2(shape=(16, 8, 8), threshold_sigmas=2.0, seed=9)
        data = field.arrays["reading"].astype(np.float64)
        splits = slice_splits(qplan, num_splits=4)
        oracle = qplan.reference_output(data)
        job, barrier, _ = build_sidr_job(qplan, splits, 2, data)
        res = LocalEngine().run_serial(job, barrier)
        got = dict(res.all_records())
        assert set(got) == set(oracle)
        for k in oracle:
            assert got[k] == pytest.approx(oracle[k])
        # Mostly-empty result lists, but every key still present.
        nonempty = sum(1 for v in got.values() if v)
        assert 0 < nonempty < len(got)
