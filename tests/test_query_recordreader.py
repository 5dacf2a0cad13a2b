"""Unit tests for scientific record readers."""

import numpy as np

from repro.query.operators import Chunk
from repro.query.recordreader import (
    CellRecordReader,
    CellToChunkMapper,
    StructuralRecordReader,
    make_reader_factory,
)
from repro.query.splits import slice_splits


class TestStructuralReader:
    def test_total_source_counts_cover_input(self, weekly_mean_plan, temp_data):
        """Every covered cell appears in exactly one chunk across all
        splits — the record reader's conservation law."""
        splits = slice_splits(weekly_mean_plan, num_splits=5)
        total = 0
        for sp in splits:
            for _k, chunk in StructuralRecordReader(
                temp_data, weekly_mean_plan, sp
            ):
                total += chunk.source_count
        assert total == weekly_mean_plan.covered.volume

    def test_keys_within_intermediate_space(self, weekly_mean_plan, temp_data):
        splits = slice_splits(weekly_mean_plan, num_splits=3)
        space = weekly_mean_plan.intermediate_space
        for sp in splits:
            for k, _c in StructuralRecordReader(temp_data, weekly_mean_plan, sp):
                assert all(0 <= x < e for x, e in zip(k, space))

    def test_chunk_values_match_source(self, weekly_mean_plan, temp_data):
        splits = slice_splits(weekly_mean_plan, num_splits=1)
        chunks = {}
        for k, c in StructuralRecordReader(temp_data, weekly_mean_plan, splits[0]):
            chunks[k] = c
        region = weekly_mean_plan.instance_region((2, 1, 3))
        want = np.sort(temp_data[region.as_slices()].reshape(-1))
        got = np.sort(np.asarray(chunks[(2, 1, 3)].data))
        assert np.allclose(got, want)

    def test_instance_spanning_splits_yields_partial_chunks(
        self, weekly_mean_plan, temp_data
    ):
        """Block-sized (unaligned) splits cut instances: the same key is
        emitted by adjacent splits with partial source counts summing to
        the whole instance (§3.2.1)."""
        splits = slice_splits(weekly_mean_plan, num_splits=5)
        per_key: dict = {}
        for sp in splits:
            for k, c in StructuralRecordReader(temp_data, weekly_mean_plan, sp):
                per_key.setdefault(k, []).append(c.source_count)
        split_keys = [k for k, counts in per_key.items() if len(counts) > 1]
        assert split_keys, "expected at least one instance to span splits"
        cells = weekly_mean_plan.instance_cells()
        for k in per_key:
            assert sum(per_key[k]) == cells[k]

    def test_reads_from_file(self, tmp_path, temp_field, weekly_mean_plan):
        path = tmp_path / "t.nc"
        temp_field.write(path).close()
        splits = slice_splits(weekly_mean_plan, num_splits=2)
        records = list(
            StructuralRecordReader(str(path), weekly_mean_plan, splits[0])
        )
        assert records and all(isinstance(c, Chunk) for _k, c in records)


class TestCellReader:
    def test_yields_every_covered_cell(self, weekly_mean_plan, temp_data):
        splits = slice_splits(weekly_mean_plan, num_splits=4)
        n = sum(
            1
            for sp in splits
            for _ in CellRecordReader(temp_data, weekly_mean_plan, sp)
        )
        assert n == weekly_mean_plan.covered.volume

    def test_values_match_array(self, weekly_mean_plan, temp_data):
        splits = slice_splits(weekly_mean_plan, num_splits=2)
        for k, v in CellRecordReader(temp_data, weekly_mean_plan, splits[0]):
            assert v == temp_data[k]
            break


class TestCellToChunkMapper:
    def test_equivalent_to_chunked_reader(self, weekly_mean_plan, temp_data):
        """Cell-level reading + translation mapper produces the same
        (key, source-count) totals as the chunked fast path."""
        splits = slice_splits(weekly_mean_plan, num_splits=3)
        mapper = CellToChunkMapper(weekly_mean_plan)
        slow: dict = {}
        for sp in splits:
            for k, v in CellRecordReader(temp_data, weekly_mean_plan, sp):
                for k2, chunk in mapper.map(k, v):
                    slow[k2] = slow.get(k2, 0) + chunk.source_count
        fast: dict = {}
        for sp in splits:
            for k2, chunk in StructuralRecordReader(
                temp_data, weekly_mean_plan, sp
            ):
                fast[k2] = fast.get(k2, 0) + chunk.source_count
        assert slow == fast

    def test_truncated_cells_dropped(self, weekly_mean_plan):
        mapper = CellToChunkMapper(weekly_mean_plan)
        # Day 28 is in the dropped partial week.
        assert list(mapper.map((28, 0, 0), 1.0)) == []


class TestFactory:
    def test_chunked_factory(self, weekly_mean_plan, temp_data):
        f = make_reader_factory(temp_data, weekly_mean_plan)
        splits = slice_splits(weekly_mean_plan, num_splits=2)
        assert list(f(splits[0]))

    def test_cell_factory(self, weekly_mean_plan, temp_data):
        f = make_reader_factory(temp_data, weekly_mean_plan, cell_level=True)
        splits = slice_splits(weekly_mean_plan, num_splits=2)
        k, v = next(iter(f(splits[0])))
        assert len(k) == 3 and np.isscalar(v) or hasattr(v, "dtype")


class TestStridedReader:
    def test_gap_cells_not_emitted(self, temp_field, temp_data):
        from repro.query.language import StructuralQuery
        from repro.query.operators import MeanOp

        q = StructuralQuery(
            variable="temperature",
            extraction_shape=(2, 5, 1),
            operator=MeanOp(),
            stride=(7, 5, 1),
        )
        plan = q.compile(temp_field.metadata)
        splits = slice_splits(plan, num_splits=3)
        total = 0
        for sp in splits:
            for k, c in StructuralRecordReader(temp_data, plan, sp):
                total += c.source_count
        # 4 time instances x 2 lat bands x 6 lons, 2*5*1 cells each.
        assert total == 4 * 2 * 6 * 10
