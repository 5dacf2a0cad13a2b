"""Unit tests for the §4.4 output-writing strategies."""

import numpy as np
import pytest

from repro.arrays.slab import Slab
from repro.errors import DatasetError
from repro.scidata.sparse import (
    ContiguousWriter,
    CoordinatePairWriter,
    SentinelFileWriter,
    read_contiguous_output,
)


class TestSentinel:
    def test_file_sized_to_whole_space(self, tmp_path):
        w = SentinelFileWriter((100, 10))
        rep = w.write(tmp_path / "s.nc", [(Slab((0, 0), (1, 10)), np.ones(10))])
        # 100x10 doubles plus header
        assert rep.file_size >= 100 * 10 * 8
        assert rep.strategy == "sentinel"

    def test_size_scales_with_space_not_data(self, tmp_path):
        cells = [(Slab((0, 0), (1, 10)), np.ones(10))]
        small = SentinelFileWriter((50, 10)).write(tmp_path / "a.nc", cells)
        big = SentinelFileWriter((200, 10)).write(tmp_path / "b.nc", cells)
        assert big.file_size > 3 * small.file_size
        assert big.useful_bytes == small.useful_bytes

    def test_seeks_count_scattered_rows(self, tmp_path):
        w = SentinelFileWriter((20, 10))
        cells = [
            (Slab((i, 0), (1, 10)), np.ones(10)) for i in range(0, 20, 4)
        ]
        rep = w.write(tmp_path / "s.nc", cells)
        assert rep.seeks == 5

    def test_value_size_mismatch(self, tmp_path):
        w = SentinelFileWriter((4, 4))
        with pytest.raises(DatasetError):
            w.write(tmp_path / "s.nc", [(Slab((0, 0), (1, 4)), np.ones(3))])

    def test_written_values_recoverable(self, tmp_path):
        from repro.scidata.dataset import open_dataset

        w = SentinelFileWriter((4, 4))
        vals = np.arange(4.0)
        w.write(tmp_path / "s.nc", [(Slab((2, 0), (1, 4)), vals)])
        with open_dataset(tmp_path / "s.nc") as ds:
            arr = ds.read_all("output")
        assert np.array_equal(arr[2], vals)
        assert np.all(np.isnan(arr[0]))


class TestCoordinatePair:
    def test_constant_overhead(self, tmp_path):
        w = CoordinatePairWriter((40, 8))
        cells = [(Slab((i, 0), (1, 8)), np.ones(8)) for i in range(0, 40, 4)]
        rep = w.write(tmp_path / "c.bin", cells)
        # rank-2 int64 coords (16 B) per 8-B value -> ~3x overhead.
        assert 2.5 < rep.overhead_ratio < 3.6

    def test_independent_of_space_size(self, tmp_path):
        cells = [(Slab((0, 0), (1, 8)), np.ones(8))]
        a = CoordinatePairWriter((10, 8)).write(tmp_path / "a.bin", cells)
        b = CoordinatePairWriter((10_000, 8)).write(tmp_path / "b.bin", cells)
        assert abs(a.file_size - b.file_size) < 64  # header digits only


class TestContiguous:
    def test_roundtrip(self, tmp_path):
        w = ContiguousWriter((16, 8))
        block = Slab((4, 0), (3, 8))
        vals = np.arange(24.0).reshape(3, 8)
        w.write(tmp_path / "o.nc", block, vals)
        got_block, got_vals = read_contiguous_output(tmp_path / "o.nc")
        assert got_block == block
        assert np.array_equal(got_vals, vals)

    def test_size_is_useful_bytes_plus_header(self, tmp_path):
        w = ContiguousWriter((4096, 8))
        rep = w.write(
            tmp_path / "o.nc", Slab((0, 0), (1024, 8)), np.ones((1024, 8))
        )
        assert rep.useful_bytes == 1024 * 8 * 8
        assert rep.file_size - rep.useful_bytes < 1024
        assert rep.overhead_ratio < 1.02

    def test_constant_cost_as_space_scales(self, tmp_path):
        """The Table 2 headline: the SIDR writer's output is the same
        size regardless of the total output space."""
        block = Slab((0, 0), (2, 8))
        vals = np.ones((2, 8))
        a = ContiguousWriter((16, 8)).write(tmp_path / "a.nc", block, vals)
        b = ContiguousWriter((16_000, 8)).write(tmp_path / "b.nc", block, vals)
        assert abs(a.file_size - b.file_size) < 64

    def test_union_reconstructs_space(self, tmp_path):
        """All reducers' contiguous blocks tile the output exactly."""
        space = (12, 4)
        full = np.arange(48.0).reshape(space)
        blocks = [Slab((i * 3, 0), (3, 4)) for i in range(4)]
        out = np.full(space, np.nan)
        for i, b in enumerate(blocks):
            p = tmp_path / f"part{i}.nc"
            ContiguousWriter(space).write(p, b, full[b.as_slices()])
            rb, rv = read_contiguous_output(p)
            out[rb.as_slices()] = rv
        assert np.array_equal(out, full)
