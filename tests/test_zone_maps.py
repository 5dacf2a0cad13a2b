"""Property-based soundness tests for zone-map split skipping.

Pruning a split is a *proof obligation*: the planner asserts that no
cell inside the split's covered region satisfies the predicate and that
the region's contribution is therefore a combine identity.  These tests
check the proof against brute force for randomly drawn geometry, data,
thresholds and tile shapes — plus the serialization round trip, the
degrade-to-no-pruning paths (stale/mismatched zone maps), the keep-one
guard, and end-to-end byte-identity of pruned vs unpruned runs.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.arrays.linearize import expand_runs
from repro.arrays.slab import Slab
from repro.errors import FormatError
from repro.mapreduce.engine import LocalEngine
from repro.query.language import StructuralQuery
from repro.query.operators import ThresholdFilterOp
from repro.query.pruning import prune_splits, split_prunable
from repro.query.splits import slice_splits
from repro.scidata.metadata import DatasetMetadata, Dimension, Variable
from repro.scidata.zonemaps import (
    ZoneMap,
    build_zone_map,
    constant_zone_map,
    default_tile_shape,
)
from repro.sidr.annotations import expected_source_cells
from repro.sidr.partition_plus import partition_plus
from repro.sidr.planner import build_plan, build_sidr_job, derive_zone_map

SETTINGS = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def _meta(shape):
    dims = tuple(Dimension(f"d{i}", n) for i, n in enumerate(shape))
    return DatasetMetadata(
        dimensions=dims,
        variables=(Variable("v", "double", tuple(d.name for d in dims)),),
    )


@st.composite
def prune_case(draw):
    """Geometry, data and thresholds: truncating or not, dense or
    strided, over the whole variable."""
    rank = draw(st.integers(1, 3))
    shape = tuple(draw(st.integers(2, 9)) for _ in range(rank))
    extraction = tuple(draw(st.integers(1, s)) for s in shape)
    stride = None
    if draw(st.booleans()):
        stride = tuple(e + draw(st.integers(0, 2)) for e in extraction)
    partial = draw(st.booleans())
    tile = None
    if draw(st.booleans()):
        tile = tuple(draw(st.integers(1, s)) for s in shape)
    threshold = float(draw(st.integers(-12, 12)))
    num_splits = draw(st.integers(1, 6))
    reduces = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 100_000))
    return (
        shape, extraction, stride, partial, tile, threshold,
        num_splits, reduces, seed,
    )


def _build(case):
    (
        shape, extraction, stride, partial, tile, threshold,
        num_splits, reduces, seed,
    ) = case
    rng = np.random.default_rng(seed)
    data = rng.integers(-15, 15, size=shape, endpoint=True).astype(np.float64)
    plan = StructuralQuery(
        variable="v",
        extraction_shape=extraction,
        operator=ThresholdFilterOp(threshold=threshold),
        stride=stride,
        keep_partial_instances=partial,
    ).compile(_meta(shape))
    splits = slice_splits(plan, num_splits=num_splits)
    zone_map = build_zone_map("v", data, tile_shape=tile)
    return plan, data, splits, zone_map, reduces


class TestPruningSoundness:
    @given(case=prune_case())
    @settings(max_examples=120, **SETTINGS)
    def test_pruned_split_contains_no_matching_cell(self, case):
        """The core soundness property: a prunable verdict is a proof
        that no covered cell in the split exceeds the threshold."""
        plan, data, splits, zone_map, _ = _build(case)
        predicate = plan.operator.prune_predicate()
        threshold = plan.operator.threshold
        for sp in splits:
            if not split_prunable(plan, sp, zone_map, predicate):
                continue
            for slab in sp.slabs:
                work = slab.intersect(plan.covered)
                if work.is_empty:
                    continue
                region = data[work.as_slices()]
                assert not np.any(region > threshold), (
                    f"pruned split {sp.index} contains matching cells "
                    f"(threshold {threshold}, max {region.max()})"
                )

    @given(case=prune_case())
    @settings(max_examples=60, **SETTINGS)
    def test_pruned_run_is_byte_identical_to_unpruned(self, case):
        """End to end: pruning must be invisible in the output — same
        keys, same values, on both data planes — and the pruning-aware
        count-annotation validator must balance exactly."""
        plan, data, splits, zone_map, reduces = _build(case)
        reduces = min(reduces, plan.num_intermediate_keys)
        oracle = plan.reference_output(data)
        for data_plane in ("record", "columnar"):
            outs = {}
            for prune in (False, True):
                job, barrier, sidr = build_sidr_job(
                    plan, list(splits), reduces, data,
                    data_plane=data_plane, prune=prune, zone_map=zone_map,
                )
                res = LocalEngine().run_serial(job, barrier)
                outs[prune] = res.all_records()
                validator = job.context["reduce_start_validator"]
                assert validator.observed == {
                    l: e for l, e in enumerate(validator.expected)
                }
                if prune and sidr.pruning is not None:
                    assert res.counters.get("plan.splits.pruned") == (
                        sidr.pruning.num_pruned
                    )
            assert outs[True] == outs[False]
            assert dict(outs[True]) == oracle

    @given(case=prune_case())
    @settings(max_examples=60, **SETTINGS)
    def test_prune_result_geometry_is_consistent(self, case):
        plan, data, splits, zone_map, reduces = _build(case)
        partition = partition_plus(
            plan.intermediate_space, min(reduces, plan.num_intermediate_keys)
        )
        result = prune_splits(
            plan, splits, partition, zone_map,
            plan.operator.prune_predicate(),
        )
        if result is None:
            return
        # At least one split always survives (keep-one guard).
        assert len(result.surviving) >= 1
        assert len(result.surviving) + result.num_pruned == len(splits)
        # Survivors are re-indexed contiguously for engine task numbering.
        assert [sp.index for sp in result.surviving] == list(
            range(len(result.surviving))
        )
        # Each keyblock expects exactly the cells the surviving splits
        # deliver to its keys, and a key is synthesized exactly when
        # they deliver none of its cells.
        slabs = [s for sp in result.surviving for s in sp.slabs]
        walk = _walk(plan, partition, slabs)
        assert result.expected_counts == tuple(
            sum(cells.values()) for cells in walk
        )
        for b, cells in enumerate(walk):
            missing = [key for key, n in cells.items() if n == 0]
            runs = result.synth_keys.get(b, np.empty((0, 2), dtype=np.int64))
            # maximal runs: each starts past the last one's stop
            assert (runs[:, 0] < runs[:, 1]).all()
            assert (runs[1:, 0] > runs[:-1, 1]).all()
            coords = np.unravel_index(expand_runs(runs), plan.intermediate_space)
            assert list(zip(*[c.tolist() for c in coords])) == missing
        # Empty blocks are exactly the all-synthesized ones.
        for b in result.empty_blocks:
            runs = result.synth_keys[b]
            assert int((runs[:, 1] - runs[:, 0]).sum()) == partition.blocks[b].num_keys
        assert result.num_synth_keys == sum(
            list(cells.values()).count(0) for cells in walk
        )

    @given(case=prune_case())
    @settings(max_examples=120, **SETTINGS)
    def test_expected_source_cells_match_a_per_key_walk(self, case):
        """Unpruned, every keyblock expects its keys' instance cells
        inside the variable — which is also what all the splits deliver."""
        plan, data, splits, zone_map, reduces = _build(case)
        partition = partition_plus(
            plan.intermediate_space, min(reduces, plan.num_intermediate_keys)
        )
        expected = expected_source_cells(plan, partition)
        assert expected == tuple(
            sum(cells.values()) for cells in _walk(plan, partition)
        )
        slabs = [s for sp in splits for s in sp.slabs]
        assert expected == tuple(
            sum(cells.values()) for cells in _walk(plan, partition, slabs)
        )
        sidr = build_plan(plan, splits, partition.num_blocks, prune=False)
        assert sidr.expected_counts == expected
        assert tuple(sidr.validator().expected) == expected


def _walk(plan, partition, slabs=None):
    """Per keyblock, ``{key: cells}`` in key order: the brute-force
    reference, one key at a time — each key's instance ∩ K_T, or
    the part of it inside ``slabs``."""
    out = []
    for blk in partition.blocks:
        cells = {}
        for s in blk.slabs:
            for key in s.iter_coords():
                inst = plan.instance_region(key)
                cells[key] = (
                    inst.volume if slabs is None
                    else sum(inst.intersect(sl).volume for sl in slabs)
                )
        out.append(cells)
    return out


class TestSerialization:
    @given(case=prune_case())
    @settings(max_examples=40, **SETTINGS)
    def test_zone_map_survives_dict_round_trip(self, case):
        plan, data, splits, zone_map, _ = _build(case)
        meta = _meta(data.shape).with_zone_maps((zone_map,))
        back = DatasetMetadata.from_dict(meta.to_dict())
        assert back.zone_map("v") == zone_map
        # Derived stats stay out of metadata equality (a dataset with
        # and without an index holds the same logical data).
        assert back == _meta(data.shape)

    def test_zone_map_file_round_trip(self, tmp_path):
        from repro.scidata.nclite import read_header, write_nclite

        shape = (12, 6)
        rng = np.random.default_rng(3)
        data = rng.uniform(-5, 5, size=shape)
        meta = _meta(shape)
        path = tmp_path / "zm.ncl"
        write_nclite(path, meta, {"v": data})
        header = read_header(path)
        zm = header.metadata.zone_map("v")
        assert zm is not None
        assert zm == build_zone_map("v", data)

    def test_write_slab_invalidates_zone_maps(self, tmp_path):
        """Mutating a dataset drops its zone maps in place (offsets are
        preserved), so a later query degrades to no pruning instead of
        pruning against stale statistics."""
        from repro.scidata.dataset import open_dataset
        from repro.scidata.nclite import read_header, write_nclite

        shape = (10, 4)
        data = np.zeros(shape)
        path = tmp_path / "mut.ncl"
        write_nclite(path, _meta(shape), {"v": data})
        assert read_header(path).metadata.zone_maps
        slab = Slab((0, 0), (1, 4))
        with open_dataset(path, mode="r+") as ds:
            ds.write_slab("v", slab, np.full((1, 4), 99.0))
        header = read_header(path)
        assert not header.metadata.zone_maps
        with open_dataset(path) as ds:
            got = ds.read_slab("v", slab)
        np.testing.assert_array_equal(got, np.full((1, 4), 99.0))

    def test_from_dict_without_zone_maps_degrades(self):
        """Pre-index metadata documents (no ``zone_maps`` key) load fine
        and simply provide no index."""
        doc = _meta((4, 4)).to_dict()
        assert "zone_maps" not in doc
        meta = DatasetMetadata.from_dict(doc)
        assert meta.zone_maps == ()
        assert meta.zone_map("v") is None

    def test_malformed_zone_map_doc_raises_format_error(self):
        doc = _meta((4, 4)).with_zone_maps(
            (build_zone_map("v", np.zeros((4, 4))),)
        ).to_dict()
        doc["zone_maps"][0].pop("mins")
        with pytest.raises(FormatError):
            DatasetMetadata.from_dict(doc)


class TestDegrade:
    def _plan(self, shape=(8, 4), threshold=100.0):
        return StructuralQuery(
            variable="v",
            extraction_shape=(2, 4),
            operator=ThresholdFilterOp(threshold=threshold),
        ).compile(_meta(shape))

    def test_wrong_variable_zone_map_is_ignored(self):
        plan = self._plan()
        splits = slice_splits(plan, num_splits=4)
        partition = partition_plus(plan.intermediate_space, 2)
        zm = build_zone_map("other", np.zeros((8, 4)))
        assert prune_splits(
            plan, splits, partition, zm, plan.operator.prune_predicate()
        ) is None

    def test_wrong_space_zone_map_is_ignored(self):
        """A zone map built for different dimensions (stale after a
        schema change) degrades to no pruning rather than erroring."""
        plan = self._plan()
        splits = slice_splits(plan, num_splits=4)
        partition = partition_plus(plan.intermediate_space, 2)
        zm = build_zone_map("v", np.zeros((6, 4)))
        assert prune_splits(
            plan, splits, partition, zm, plan.operator.prune_predicate()
        ) is None

    def test_no_predicate_means_no_pruning(self):
        from repro.query.operators import RangeExceedsOp

        plan = StructuralQuery(
            variable="v",
            extraction_shape=(2, 4),
            operator=RangeExceedsOp(threshold=0.0),
        ).compile(_meta((8, 4)))
        assert plan.operator.prune_predicate() is None
        assert derive_zone_map(plan, np.zeros((8, 4))) is None

    def test_unreadable_source_degrades(self, tmp_path):
        plan = self._plan()
        assert derive_zone_map(plan, str(tmp_path / "missing.ncl")) is None

    def test_keep_one_guard_on_fully_prunable_job(self):
        """Everything below threshold: all splits are prunable, but a
        job needs a map task — exactly one survives and the output still
        matches the oracle (every key's list is empty)."""
        plan = self._plan(threshold=100.0)
        data = np.zeros((8, 4))
        splits = slice_splits(plan, num_splits=4)
        zm = build_zone_map("v", data)
        job, barrier, sidr = build_sidr_job(
            plan, splits, 2, data, zone_map=zm
        )
        assert sidr.pruning is not None
        assert len(sidr.pruning.surviving) == 1
        assert sidr.pruning.num_pruned == len(splits) - 1
        res = LocalEngine().run_serial(job, barrier)
        assert dict(res.all_records()) == plan.reference_output(data)


class TestZoneMapStructure:
    def test_default_tile_shape_targets_row_groups(self):
        space = (4096, 64, 64)
        tile = default_tile_shape(space)
        assert tile[1:] == (64, 64)
        assert 1 <= tile[0] <= space[0]

    def test_region_bounds_are_conservative(self):
        rng = np.random.default_rng(9)
        data = rng.uniform(-10, 10, size=(16, 8))
        zm = build_zone_map("v", data, tile_shape=(4, 4))
        region = Slab((3, 1), (6, 5))  # straddles tile boundaries
        lo, hi = zm.region_bounds(region)
        cells = data[region.as_slices()]
        assert lo <= cells.min() and hi >= cells.max()

    def test_constant_zone_map_matches_built(self):
        space = (9, 5)
        fill = 2.5
        analytic = constant_zone_map("v", space, fill)
        built = build_zone_map("v", np.full(space, fill))
        assert analytic.tile_shape == built.tile_shape
        for stat in ("mins", "maxs", "counts"):
            assert np.array_equal(getattr(analytic, stat), getattr(built, stat))
        assert analytic.fill_value == fill and analytic.fill_tiles.all()

    def test_mismatched_grid_rejected(self):
        zm = build_zone_map("v", np.zeros((8, 4)))
        with pytest.raises(FormatError):
            ZoneMap(
                variable=zm.variable,
                space=zm.space,
                tile_shape=zm.tile_shape,
                mins=zm.mins[:1],
                maxs=zm.maxs,
                counts=zm.counts,
            )
