"""Unit and integration tests for count-annotation validation (§3.2.1)."""

import pytest

from repro.errors import BarrierViolationError
from repro.mapreduce.engine import DependencyBarrier, LocalEngine
from repro.query.language import StructuralQuery
from repro.query.operators import SumOp
from repro.query.splits import slice_splits
from repro.sidr.annotations import (
    CountAnnotationValidator,
    expected_source_cells,
)
from repro.sidr.partition_plus import partition_plus
from repro.sidr.planner import build_plan


class TestExpectedCounts:
    def test_truncate_fast_path(self, weekly_mean_plan):
        part = partition_plus(weekly_mean_plan.intermediate_space, 4)
        counts = expected_source_cells(weekly_mean_plan, part)
        assert sum(counts) == weekly_mean_plan.covered.volume
        for b, c in zip(part.blocks, counts):
            assert c == b.num_keys * 35

    def test_partial_instances_slow_path(self, temp_field):
        q = StructuralQuery(
            variable="temperature",
            extraction_shape=(7, 5, 1),
            operator=SumOp(),
            keep_partial_instances=True,
        )
        plan = q.compile(temp_field.metadata)
        part = partition_plus(plan.intermediate_space, 3)
        counts = expected_source_cells(plan, part)
        # Clipped instances shrink totals below keys*cells_per_instance.
        assert sum(counts) == plan.subset.volume
        assert any(
            c < b.num_keys * plan.cells_per_instance
            for b, c in zip(part.blocks, counts)
        )


class TestValidator:
    def test_exact_pass(self):
        v = CountAnnotationValidator(expected=[10, 20])
        v.validate(0, 10)
        v.validate(1, 20)
        assert v.observed == {0: 10, 1: 20}

    def test_short_tally_rejected(self):
        v = CountAnnotationValidator(expected=[10])
        with pytest.raises(BarrierViolationError, match="dependency barrier"):
            v.validate(0, 9)

    def test_excess_tally_rejected_when_exact(self):
        v = CountAnnotationValidator(expected=[10])
        with pytest.raises(BarrierViolationError, match="misrouted"):
            v.validate(0, 11)

    def test_unknown_partition(self):
        v = CountAnnotationValidator(expected=[10])
        with pytest.raises(BarrierViolationError):
            v.validate(5, 10)


class TestEndToEndValidation:
    """The paper's own correctness check: every reduce start in a SIDR
    job tallies exactly its keyblock's source cells."""

    def test_sidr_job_validates(self, weekly_mean_plan, temp_data):
        splits = slice_splits(weekly_mean_plan, num_splits=7)
        plan = build_plan(weekly_mean_plan, splits, 4)
        job, barrier = plan.configure_job(temp_data)
        res = LocalEngine().run_serial(job, barrier)
        validator = job.context["reduce_start_validator"]
        assert validator.observed == {
            l: e for l, e in enumerate(validator.expected)
        }
        assert res.counters.get("barrier.early.starts") > 0

    def test_corrupted_dependency_map_caught(self, weekly_mean_plan, temp_data):
        """Drop one producer from a dependency set: the reduce would start
        before all its data exists and the validator must abort the job."""
        splits = slice_splits(weekly_mean_plan, num_splits=7)
        plan = build_plan(weekly_mean_plan, splits, 4)
        job, _barrier = plan.configure_job(temp_data)
        deps = plan.deps.dependency_barrier()
        # Remove the largest split from block 1's dependencies.
        victim = max(deps[1])
        deps[1] = deps[1] - {victim}
        bad_barrier = DependencyBarrier(deps)
        with pytest.raises(BarrierViolationError):
            LocalEngine().run_serial(job, bad_barrier)

    def test_threaded_job_validates(self, weekly_mean_plan, temp_data):
        splits = slice_splits(weekly_mean_plan, num_splits=7)
        plan = build_plan(weekly_mean_plan, splits, 3)
        job, barrier = plan.configure_job(temp_data)
        res = LocalEngine().run_threaded(job, barrier)
        assert len(res.outputs) == 3

    def test_combiner_does_not_break_tally(self, weekly_mean_plan, temp_data):
        """Combining shrinks record counts but not source annotations —
        exactly why the annotation exists (§3.2.1).  Cell-level reading
        gives the combiner many records per key to collapse."""
        from repro.mapreduce.job import JobConf
        from repro.query.recordreader import (
            CellToChunkMapper,
            make_reader_factory,
        )
        from repro.mapreduce.reducer import AggregateReducer, CombinerAdapter

        splits = slice_splits(weekly_mean_plan, num_splits=7)
        plan = build_plan(weekly_mean_plan, splits, 4)
        op = weekly_mean_plan.operator
        job = JobConf(
            name="cells",
            splits=list(splits),
            reader_factory=make_reader_factory(
                temp_data, weekly_mean_plan, cell_level=True
            ),
            mapper_factory=lambda: CellToChunkMapper(weekly_mean_plan),
            reducer_factory=lambda: AggregateReducer(op),
            combiner_factory=lambda: CombinerAdapter(op),
            partitioner=plan.partitioner,
            num_reduce_tasks=4,
            contact_all_maps=False,
        )
        job.context["reduce_start_validator"] = plan.validator()
        res = LocalEngine().run_serial(job, plan.barrier)
        c = res.counters
        # Per-cell records collapse to one per (split, key)...
        assert c.get("combine.input.records") > c.get("combine.output.records")
        # ...yet the per-key source tallies still validated exactly (the
        # validator raised otherwise) and results match the oracle.
        oracle = weekly_mean_plan.reference_output(temp_data)
        got = dict(res.all_records())
        for k in oracle:
            assert got[k] == pytest.approx(oracle[k])
