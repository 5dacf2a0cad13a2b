"""Tests for output committing and assembly (§4.4 productionized)."""

import numpy as np
import pytest

from repro.errors import DatasetError, QueryError
from repro.mapreduce.engine import LocalEngine
from repro.query.splits import slice_splits
from repro.sidr.output import (
    assemble_output,
    commit_sidr_output,
    commit_stock_output,
)
from repro.sidr.planner import build_sidr_job


@pytest.fixture(scope="module")
def finished_job(weekly_mean_plan):
    import repro.scidata.generators as gen

    field = gen.temperature_dataset(days=29, lat=10, lon=6, seed=21)
    data = field.arrays["temperature"].astype(np.float64)
    splits = slice_splits(weekly_mean_plan, num_splits=6)
    job, barrier, plan = build_sidr_job(weekly_mean_plan, splits, 4, data)
    res = LocalEngine().run_serial(job, barrier)
    oracle = weekly_mean_plan.reference_output(data)
    return plan, res, oracle


@pytest.fixture(scope="module")
def big_finished_job():
    """A job with a big enough output space (5,760 keys) that file sizes
    reflect data, not headers."""
    import repro.scidata.generators as gen
    from repro.query.language import StructuralQuery
    from repro.query.operators import MeanOp

    field = gen.temperature_dataset(days=57, lat=30, lon=48, seed=22)
    data = field.arrays["temperature"].astype(np.float64)
    q = StructuralQuery(
        variable="temperature", extraction_shape=(7, 5, 1), operator=MeanOp()
    )
    qplan = q.compile(field.metadata)
    splits = slice_splits(qplan, num_splits=8)
    job, barrier, plan = build_sidr_job(qplan, splits, 4, data)
    res = LocalEngine().run_serial(job, barrier)
    return plan, res


class TestContiguousCommit:
    def test_commit_and_assemble_roundtrip(self, finished_job, tmp_path):
        plan, res, oracle = finished_job
        report = commit_sidr_output(plan, res, tmp_path / "out")
        assert report.strategy == "contiguous"
        assert report.total_seeks == 0
        assert len(report.files) >= plan.num_reduce_tasks
        out = assemble_output(
            tmp_path / "out", plan.query_plan.intermediate_space
        )
        for k, want in oracle.items():
            assert out[k] == pytest.approx(want)

    def test_part_files_are_small(self, big_finished_job, tmp_path):
        plan, res = big_finished_job
        import os

        commit_sidr_output(plan, res, tmp_path / "small")
        total_cells = plan.query_plan.num_intermediate_keys
        sizes = [
            os.path.getsize(os.path.join(tmp_path / "small", f))
            for f in os.listdir(tmp_path / "small")
        ]
        # Together roughly the dense output plus small headers.
        assert sum(sizes) < total_cells * 8 * 1.3

    def test_missing_key_detected(self, finished_job, tmp_path):
        plan, res, _ = finished_job
        broken = res
        victim = sorted(broken.outputs)[0]
        saved = broken.outputs[victim]
        broken.outputs[victim] = saved[:-1]  # drop one record
        try:
            with pytest.raises(DatasetError):
                commit_sidr_output(plan, broken, tmp_path / "broken")
        finally:
            broken.outputs[victim] = saved

    def test_list_outputs_rejected(self, tmp_path):
        """Filter queries produce lists; the dense committer refuses."""
        from repro.bench.workloads import small_query2
        from repro.query.splits import slice_splits as ss

        field, qplan = small_query2(shape=(8, 8, 8), threshold_sigmas=1.0)
        data = field.arrays["reading"].astype(np.float64)
        splits = ss(qplan, num_splits=2)
        job, barrier, plan = build_sidr_job(qplan, splits, 2, data)
        res = LocalEngine().run_serial(job, barrier)
        with pytest.raises(QueryError):
            commit_sidr_output(plan, res, tmp_path / "lists")

    @pytest.mark.parametrize("plane", ["columnar", "record"])
    def test_pair_outputs_rejected(self, tmp_path, weekly_mean_plan, plane):
        """``range_exceeds`` produces ``{exceeds, variation}`` pairs —
        an ``ExceedsColumn`` on the columnar plane, dicts on the record
        plane — and the dense committer refuses them too."""
        from dataclasses import replace

        from repro.query.operators import RangeExceedsOp

        query = replace(weekly_mean_plan.query, operator=RangeExceedsOp(2.0))
        qplan = query.compile(weekly_mean_plan.metadata)
        data = np.zeros(qplan.input_space)
        job, barrier, plan = build_sidr_job(
            qplan, slice_splits(qplan, num_splits=2), 2, data, data_plane=plane
        )
        res = LocalEngine().run_serial(job, barrier)
        with pytest.raises(QueryError, match="scalar outputs"):
            commit_sidr_output(plan, res, tmp_path / "pairs")


class TestStockCommit:
    def test_sentinel_commit_costs(self, big_finished_job, tmp_path):
        plan, res = big_finished_job
        space = plan.query_plan.intermediate_space
        contig = commit_sidr_output(plan, res, tmp_path / "c")
        stock = commit_stock_output(space, res, tmp_path / "s")
        # Table 2's law on a real job: sentinel output is ~r times larger
        # and pays one seek per scattered record.
        assert stock.total_bytes > 3 * contig.total_bytes
        assert stock.total_seeks > 0


class TestAssembleValidation:
    def test_empty_dir(self, tmp_path):
        with pytest.raises(DatasetError):
            assemble_output(tmp_path, (2, 2))

    def test_gap_detected(self, finished_job, tmp_path):
        plan, res, _ = finished_job
        import os

        commit_sidr_output(plan, res, tmp_path / "gap")
        victim = sorted(os.listdir(tmp_path / "gap"))[0]
        os.unlink(tmp_path / "gap" / victim)
        with pytest.raises(DatasetError, match="uncovered"):
            assemble_output(
                tmp_path / "gap", plan.query_plan.intermediate_space
            )

    def test_overlap_detected(self, finished_job, tmp_path):
        plan, res, _ = finished_job
        import shutil

        commit_sidr_output(plan, res, tmp_path / "dup")
        files = sorted((tmp_path / "dup").glob("part-*.nc"))
        shutil.copy(files[0], tmp_path / "dup" / "part-99999-0.nc")
        with pytest.raises(DatasetError, match="overlaps"):
            assemble_output(
                tmp_path / "dup", plan.query_plan.intermediate_space
            )
