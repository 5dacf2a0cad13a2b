"""Unit tests for the NCLite binary format."""

import numpy as np
import pytest

from repro.errors import FormatError
from repro.scidata.metadata import simple_metadata
from repro.scidata.nclite import (
    NCLITE_MAGIC,
    encode_header,
    read_header,
    write_nclite,
    write_nclite_empty,
)


@pytest.fixture
def meta2var():
    from repro.scidata.metadata import DatasetMetadata, Dimension, Variable

    return DatasetMetadata(
        dimensions=(Dimension("x", 3), Dimension("y", 4)),
        variables=(
            Variable("a", "double", ("x", "y")),
            Variable("b", "int", ("y",)),
        ),
    )


class TestHeader:
    def test_offsets_sequential(self, meta2var):
        _, rel = encode_header(meta2var)
        assert rel["a"] == 0
        assert rel["b"] == 3 * 4 * 8

    def test_roundtrip(self, tmp_path, meta2var):
        arrays = {
            "a": np.arange(12, dtype=np.float64).reshape(3, 4),
            "b": np.arange(4, dtype=np.int32),
        }
        path = tmp_path / "f.nc"
        write_nclite(path, meta2var, arrays)
        h = read_header(path)
        assert h.metadata == meta2var
        assert h.offsets["b"] - h.offsets["a"] == 96


class TestWrite:
    def test_missing_variable(self, tmp_path, meta2var):
        with pytest.raises(FormatError):
            write_nclite(tmp_path / "f.nc", meta2var, {"a": np.zeros((3, 4))})

    def test_wrong_shape(self, tmp_path, meta2var):
        with pytest.raises(FormatError):
            write_nclite(
                tmp_path / "f.nc",
                meta2var,
                {"a": np.zeros((4, 3)), "b": np.zeros(4, dtype=np.int32)},
            )

    def test_no_tmp_file_left_behind(self, tmp_path, meta2var):
        arrays = {
            "a": np.zeros((3, 4)),
            "b": np.zeros(4, dtype=np.int32),
        }
        write_nclite(tmp_path / "f.nc", meta2var, arrays)
        leftovers = [p for p in tmp_path.iterdir() if "tmp" in p.name]
        assert leftovers == []

    def test_empty_fill(self, tmp_path):
        meta = simple_metadata("v", (10, 10), dtype="double")
        path = tmp_path / "e.nc"
        write_nclite_empty(path, meta)
        from repro.scidata.dataset import open_dataset

        with open_dataset(path) as ds:
            assert np.all(ds.read_all("v") == 0.0)


class TestCorruption:
    def _write_one(self, tmp_path):
        meta = simple_metadata("v", (4,), dtype="double")
        path = tmp_path / "v.nc"
        write_nclite(path, meta, {"v": np.arange(4.0)})
        return path

    def test_bad_magic(self, tmp_path):
        path = self._write_one(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[0] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="magic"):
            read_header(path)

    def test_truncated_payload(self, tmp_path):
        path = self._write_one(tmp_path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-4])
        with pytest.raises(FormatError, match="mismatch"):
            read_header(path)

    def test_truncated_header(self, tmp_path):
        path = self._write_one(tmp_path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(NCLITE_MAGIC) + 2])
        with pytest.raises(FormatError):
            read_header(path)

    def test_garbage_json(self, tmp_path):
        path = self._write_one(tmp_path)
        raw = bytearray(path.read_bytes())
        # Clobber the first JSON byte.
        raw[len(NCLITE_MAGIC) + 4] = ord("!")
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            read_header(path)
