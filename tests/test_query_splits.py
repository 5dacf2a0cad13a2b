"""Unit tests for coordinate split generation."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.arrays.slab import Slab, slabs_cover
from repro.dfs.filesystem import SimulatedDFS
from repro.errors import QueryError
from repro.mapreduce.engine import LocalEngine
from repro.query.language import StructuralQuery
from repro.query.operators import MeanOp
from repro.query.splits import (
    aligned_slice_splits,
    attach_locality,
    slice_splits,
)
from repro.scidata.metadata import simple_metadata
from repro.sidr.planner import build_plan
from repro.verify.oracle import oracle_records, records_digest


def _strided_plan(space, shape, stride, keep_partial=False):
    return StructuralQuery(
        variable="v", extraction_shape=shape, operator=MeanOp(),
        stride=stride, keep_partial_instances=keep_partial,
    ).compile(simple_metadata("v", space))


class TestSliceSplits:
    def test_splits_cover_covered_region(self, weekly_mean_plan):
        splits = slice_splits(weekly_mean_plan, num_splits=5)
        slabs = [s for sp in splits for s in sp.slabs]
        assert slabs_cover(weekly_mean_plan.covered, slabs)

    def test_balanced_row_counts(self, weekly_mean_plan):
        splits = slice_splits(weekly_mean_plan, num_splits=5)
        rows = [sp.slabs[0].shape[0] for sp in splits]
        assert max(rows) - min(rows) <= 1
        assert sum(rows) == 28

    def test_more_splits_than_rows_capped(self, weekly_mean_plan):
        splits = slice_splits(weekly_mean_plan, num_splits=100)
        assert len(splits) == 28  # one per dim-0 row at most

    def test_exactly_one_arg_required(self, weekly_mean_plan):
        """The split count is the one argument, and it must be positive."""
        with pytest.raises(TypeError):
            slice_splits(weekly_mean_plan)
        with pytest.raises(QueryError):
            slice_splits(weekly_mean_plan, num_splits=0)

    def test_indexes_sequential(self, weekly_mean_plan):
        splits = slice_splits(weekly_mean_plan, num_splits=5)
        assert [s.index for s in splits] == list(range(5))

    def test_length_bytes(self, weekly_mean_plan):
        splits = slice_splits(weekly_mean_plan, num_splits=4)
        assert splits[0].length_bytes == 7 * 10 * 6 * weekly_mean_plan.item_bytes


class TestAlignedSplits:
    def test_boundaries_on_extraction_multiples(self, weekly_mean_plan):
        splits = aligned_slice_splits(weekly_mean_plan, num_splits=3)
        for sp in splits[:-1]:
            rel = sp.slabs[0].corner[0] - weekly_mean_plan.covered.corner[0]
            assert rel % 7 == 0
            assert sp.slabs[0].shape[0] % 7 == 0

    def test_no_instance_spans_splits(self, weekly_mean_plan):
        """Aligned splits mean every split maps to a disjoint K' range."""
        splits = aligned_slice_splits(weekly_mean_plan, num_splits=4)
        images = [
            weekly_mean_plan.image_of(sp.slabs[0]) for sp in splits
        ]
        for a in range(len(images)):
            for b in range(a + 1, len(images)):
                assert not images[a].overlaps(images[b])

    def test_unaligned_splits_do_overlap(self, weekly_mean_plan):
        """Contrast: block-sized splits share instances at boundaries —
        the situation that makes count annotations necessary (§3.2.1)."""
        splits = slice_splits(weekly_mean_plan, num_splits=5)
        images = [weekly_mean_plan.image_of(sp.slabs[0]) for sp in splits]
        overlapping = sum(
            1
            for a in range(len(images))
            for b in range(a + 1, len(images))
            if images[a].overlaps(images[b])
        )
        assert overlapping > 0

    def test_cover(self, weekly_mean_plan):
        splits = aligned_slice_splits(weekly_mean_plan, num_splits=3)
        slabs = [s for sp in splits for s in sp.slabs]
        assert slabs_cover(weekly_mean_plan.covered, slabs)

    def test_one_instance_row_shorter_than_its_stride(self):
        """``(5,6)``, extract ``(2,3)``, stride ``(4,3)``: one instance
        along dim 0, whose covered rows (2) are fewer than its stride.
        Counting units as ``rows // stride[0]`` made that zero units and
        a ``QueryError``."""
        plan = _strided_plan((5, 6), (2, 3), (4, 3))
        assert plan.intermediate_space[0] == 1
        (split,) = aligned_slice_splits(plan, num_splits=4)
        assert split.slabs == (plan.covered,)

    def test_last_instance_shorter_than_its_stride(self):
        """``(5,6)``, extract ``(2,3)``, stride ``(3,3)``: two instance
        rows (0-1 and 3-4) in five covered rows.  ``rows // stride[0]``
        counted one unit and cut one split where two are possible."""
        plan = _strided_plan((5, 6), (2, 3), (3, 3))
        splits = aligned_slice_splits(plan, num_splits=4)
        assert [sp.slabs[0].corner[0] for sp in splits] == [0, 3]
        assert [sp.slabs[0].shape[0] for sp in splits] == [3, 2]

    @given(st.data())
    def test_aligned_splits_property(self, data):
        """Any rank <= 3, shape, stride >= shape, either truncation and
        1..8 splits asked: the splits are disjoint and cover ``covered``,
        there are ``min(num_splits, K'_T[0])`` of them, and no instance
        spans two."""
        rank = data.draw(st.integers(1, 3))
        space = tuple(data.draw(st.integers(1, 12)) for _ in range(rank))
        shape = tuple(data.draw(st.integers(1, s)) for s in space)
        stride = tuple(data.draw(st.integers(e, e + 3)) for e in shape)
        plan = _strided_plan(space, shape, stride, data.draw(st.booleans()))
        asked = data.draw(st.integers(1, 8))
        splits = aligned_slice_splits(plan, num_splits=asked)
        assert len(splits) == min(asked, plan.intermediate_space[0])
        assert [sp.index for sp in splits] == list(range(len(splits)))
        slabs = [sp.slabs[0] for sp in splits]
        assert sum(s.volume for s in slabs) == plan.covered.volume
        assert slabs_cover(plan.covered, slabs)
        for key in Slab.whole(plan.intermediate_space).iter_coords():
            region = plan.instance_region(key)
            holders = [s for s in slabs if s.overlaps(region)]
            assert len(holders) == 1 and holders[0].contains_slab(region)


class TestLocality:
    def test_attach_locality_sets_hosts(self, weekly_mean_plan):
        dfs = SimulatedDFS(num_hosts=8, block_size=4096, seed=1)
        total = (
            weekly_mean_plan.covered.volume * weekly_mean_plan.item_bytes
        )
        dfs.add_file("/t.nc", max(total, 1))
        splits = slice_splits(weekly_mean_plan, num_splits=4)
        located = attach_locality(
            splits, dfs, "/t.nc", weekly_mean_plan.input_space
        )
        assert all(sp.preferred_hosts for sp in located)
        assert [sp.index for sp in located] == [0, 1, 2, 3]

    def test_hosts_capped(self, weekly_mean_plan):
        dfs = SimulatedDFS(num_hosts=8, block_size=1024, seed=2)
        total = weekly_mean_plan.covered.volume * weekly_mean_plan.item_bytes
        dfs.add_file("/t.nc", max(total, 1))
        splits = slice_splits(weekly_mean_plan, num_splits=2)
        located = attach_locality(
            splits, dfs, "/t.nc", weekly_mean_plan.input_space
        )
        assert all(len(sp.preferred_hosts) <= 3 for sp in located)


class TestValidation:
    def test_empty_split_rejected(self):
        from repro.query.splits import CoordinateSplit

        with pytest.raises(QueryError):
            CoordinateSplit(index=0, variable="v", slabs=(), item_bytes=4)

    def test_empty_slab_rejected(self):
        from repro.query.splits import CoordinateSplit

        with pytest.raises(QueryError):
            CoordinateSplit(
                index=0,
                variable="v",
                slabs=(Slab((0,), (0,)),),
                item_bytes=4,
            )


class TestKeptPartialInstances:
    """``keep_partial_instances`` on a 3×2 variable with extract
    ``(2, 1)``: the second instance row is clipped to one row.  ``covered``
    ends where the variable does; it used to run to the unclipped
    instance's end, row 4, and ``slice_splits`` cut a map over row 3,
    which does not exist."""

    @staticmethod
    def _plan():
        return StructuralQuery(
            variable="v", extraction_shape=(2, 1), operator=MeanOp(),
            keep_partial_instances=True,
        ).compile(simple_metadata("v", (3, 2)))

    def test_covered_is_clipped_to_the_subset(self):
        plan = self._plan()
        assert plan.intermediate_space == (2, 2)
        assert plan.covered == Slab((0, 0), (3, 2))

    @pytest.mark.parametrize(
        "split, cells",
        [(slice_splits, [2, 2, 2]), (aligned_slice_splits, [4, 2])],
        ids=["sliced", "aligned"],
    )
    def test_no_map_reads_past_the_variable(self, split, cells):
        """Every map reads rows that exist and reports their cells; the
        keyblock waits on exactly those maps, and the job's output is
        the oracle's."""
        plan = self._plan()
        splits = split(plan, num_splits=3)
        whole = Slab.whole(plan.input_space)
        for sp in splits:
            assert sp.slabs[0].volume and whole.contains_slab(sp.slabs[0])
        assert [sp.length_bytes // sp.item_bytes for sp in splits] == cells
        sidr = build_plan(plan, splits, 1)
        assert sidr.deps.dependencies == (frozenset(range(len(splits))),)
        data = np.arange(6.0).reshape(3, 2)
        res = LocalEngine().run(*sidr.configure_job(data), mode="serial")
        assert records_digest(res.all_records()) == records_digest(
            oracle_records(plan, data)
        )
