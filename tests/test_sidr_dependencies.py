"""Unit and property tests for dependency analysis (paper §3.2).

The load-bearing invariant: the *predicted* dependency map must exactly
match the *observed* producer/consumer relation of a real engine run —
an under-approximation would start reduces early (wrong results), an
over-approximation would waste connections.
"""

import pytest

from repro.errors import PartitionError
from repro.mapreduce.engine import LocalEngine
from repro.query.splits import aligned_slice_splits, slice_splits
from repro.sidr.dependencies import (
    DependencyMap,
    compute_dependencies,
    recompute_for_block,
)
from repro.sidr.partition_plus import partition_plus


def build(plan, num_splits, r, aligned=False, skew_bound=None):
    splits = (
        aligned_slice_splits(plan, num_splits=num_splits)
        if aligned
        else slice_splits(plan, num_splits=num_splits)
    )
    part = partition_plus(plan.intermediate_space, r, skew_bound=skew_bound)
    deps = compute_dependencies(plan, splits, part)
    return splits, part, deps


class TestBasics:
    def test_bidirectional_consistency(self, weekly_mean_plan):
        _, _, deps = build(weekly_mean_plan, 7, 4)
        deps.validate_complete()

    def test_every_block_has_producers(self, weekly_mean_plan):
        _, _, deps = build(weekly_mean_plan, 7, 4)
        assert all(len(d) >= 1 for d in deps.dependencies)

    def test_every_split_produces(self, weekly_mean_plan):
        _, _, deps = build(weekly_mean_plan, 7, 4)
        assert all(len(p) >= 1 for p in deps.producers)

    def test_contiguous_splits_have_contiguous_deps(self, weekly_mean_plan):
        """Row-ordered splits feed row-ordered keyblocks: I_l are
        intervals of split indexes (Figure 8b's alignment)."""
        _, _, deps = build(weekly_mean_plan, 14, 4)
        for d in deps.dependencies:
            ds = sorted(d)
            assert ds == list(range(ds[0], ds[-1] + 1))

    def test_connection_counts(self, weekly_mean_plan):
        splits, part, deps = build(weekly_mean_plan, 14, 4)
        assert deps.hadoop_connections() == 14 * 4
        assert deps.sidr_connections == sum(len(d) for d in deps.dependencies)
        assert deps.sidr_connections < deps.hadoop_connections()

    def test_aligned_splits_disjoint_deps(self, weekly_mean_plan):
        """With extraction-aligned splits, each split feeds exactly the
        blocks covering its K' rows; total connections ~= num splits."""
        splits, part, deps = build(weekly_mean_plan, 4, 4, aligned=True)
        assert deps.sidr_connections <= len(splits) + part.num_blocks

    def test_mismatched_partition_space(self, weekly_mean_plan):
        splits = slice_splits(weekly_mean_plan, num_splits=4)
        wrong = partition_plus((5, 5), 2)
        with pytest.raises(PartitionError):
            compute_dependencies(weekly_mean_plan, splits, wrong)


class TestStoreVsRecompute:
    def test_recompute_matches_store(self, weekly_mean_plan):
        splits, part, deps = build(weekly_mean_plan, 9, 5)
        for l in range(part.num_blocks):
            assert (
                recompute_for_block(weekly_mean_plan, splits, part, l)
                == deps.dependencies[l]
            )


class TestGroundTruth:
    """Predicted dependencies vs what the engine actually produces."""

    def _observed_producers(self, plan, splits, part, data):
        """Run the maps for real and record which partitions each split's
        output actually goes to."""
        from repro.mapreduce.engine import LocalEngine
        from repro.mapreduce.job import JobConf
        from repro.mapreduce.mapper import ChunkAggregateMapper
        from repro.mapreduce.partitioner import RangePartitioner
        from repro.mapreduce.reducer import ConcatReducer
        from repro.mapreduce.shuffle import ShuffleStore
        from repro.query.recordreader import make_reader_factory

        rp = RangePartitioner(part.space, part.cell_boundaries())
        job = JobConf(
            name="gt",
            splits=list(splits),
            reader_factory=make_reader_factory(data, plan),
            mapper_factory=lambda: ChunkAggregateMapper(plan.operator),
            reducer_factory=ConcatReducer,
            partitioner=rp,
            num_reduce_tasks=part.num_blocks,
        )
        engine = LocalEngine()
        store = ShuffleStore()
        from repro.mapreduce.counters import Counters
        from repro.obs import JobObservability

        obs = JobObservability("gt")
        for i in range(len(splits)):
            engine._run_map(job, i, store, Counters(), obs)
        return [store.index_of(i).partitions for i in range(len(splits))]

    @pytest.mark.parametrize("num_splits,r", [(5, 3), (9, 4), (14, 6)])
    def test_predicted_equals_observed(
        self, weekly_mean_plan, temp_data, num_splits, r
    ):
        splits, part, deps = build(weekly_mean_plan, num_splits, r)
        observed = self._observed_producers(
            weekly_mean_plan, splits, part, temp_data
        )
        for i, obs in enumerate(observed):
            assert deps.producers[i] == obs, f"split {i}"

    def test_predicted_equals_observed_4d(self, wind_median_plan, wind_field):
        data = wind_field.arrays["windspeed"].astype(float)
        splits, part, deps = build(wind_median_plan, 6, 4)
        observed = self._observed_producers(
            wind_median_plan, splits, part, data
        )
        for i, obs in enumerate(observed):
            assert deps.producers[i] == obs


class TestValidation:
    def test_missing_edge_detected(self):
        with pytest.raises(PartitionError):
            DependencyMap(
                num_splits=2,
                num_blocks=1,
                producers=(frozenset({0}), frozenset()),
                dependencies=(frozenset({0, 1}),),
            ).validate_complete()

    def test_starving_block_detected(self):
        with pytest.raises(PartitionError):
            DependencyMap(
                num_splits=1,
                num_blocks=1,
                producers=(frozenset(),),
                dependencies=(frozenset(),),
            ).validate_complete()

    def test_stats(self):
        dm = DependencyMap(
            num_splits=3,
            num_blocks=2,
            producers=(frozenset({0}), frozenset({0, 1}), frozenset({1})),
            dependencies=(frozenset({0, 1}), frozenset({1, 2})),
        )
        dm.validate_complete()
        assert dm.sidr_connections == 4
        assert dm.max_dependency_size() == 2
        assert dm.mean_dependency_size() == 2.0
