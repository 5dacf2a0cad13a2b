"""Output-writing strategies contrasted in paper §4.4 / Table 2.

A reduce task holds the values for its assigned portion of the output
space O.  How it writes them depends on whether its keys are contiguous:

* :class:`SentinelFileWriter` — Hadoop's modulo partitioner scatters each
  reducer's keys across O, so "a common method for writing sparse data is
  to create a file representing the entire space and using sentinel
  values for absent data".  Each reducer writes a full-space file: bytes
  written scale with |O| x #reducers and scattered cell writes cost one
  seek per contiguous run.
* :class:`CoordinatePairWriter` — stores explicit ``(coordinate, value)``
  records; constant overhead per value, independent of reducer count, but
  the coordinates are stored rather than implicit.
* :class:`ContiguousWriter` — SIDR's partition+ gives each reducer a
  dense, contiguous keyblock, so it writes a small dense array with its
  global origin recorded in metadata ("coordinates of individual points
  are relative to the origin of that dense array", §4.4).

All three report an :class:`WriteReport` so the Table 2 bench can print
time, bytes and seeks.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass

import numpy as np

from repro.arrays.linearize import slab_to_index_runs
from repro.arrays.shape import Coord, Shape, volume
from repro.arrays.slab import Slab
from repro.errors import DatasetError
from repro.scidata.metadata import (
    Attribute,
    DatasetMetadata,
    simple_metadata,
)
from repro.scidata.nclite import encode_header

#: Every sparse layout writes little-endian float64 values.
_F64 = np.dtype("<f8")


@dataclass(frozen=True)
class WriteReport:
    """Outcome of one reduce-task output write."""

    strategy: str
    seconds: float
    bytes_written: int
    file_size: int
    seeks: int
    useful_bytes: int

    @property
    def overhead_ratio(self) -> float:
        """Bytes written per useful byte (1.0 is ideal)."""
        return self.bytes_written / max(self.useful_bytes, 1)


def _fsync(fh) -> None:
    fh.flush()
    os.fsync(fh.fileno())


class SentinelFileWriter:
    """Full-output-space file with sentinel fill; scattered slab writes.

    ``write`` creates the file sized to the *entire* output space (the
    paper's first drawback: "the size of the file written by each Reduce
    task is the size of the total output") and then writes the reducer's
    cells at their global positions, one seek per contiguous run (second
    drawback: seek cost grows as keys get sparser).
    """

    def __init__(self, output_space: Shape) -> None:
        if any(e <= 0 for e in output_space):
            raise DatasetError(f"invalid output space {output_space!r}")
        self.output_space = tuple(output_space)
        self.dtype = _F64
        #: The value of every cell the reducer does not write.
        self.sentinel = np.nan

    def write(self, path: str | os.PathLike, cells: list[tuple[Slab, np.ndarray]]) -> WriteReport:
        """Write the reducer's assigned slabs into a sentinel-filled file.

        ``cells`` is a list of (global slab, values) pairs; with the
        modulo partitioner these are many tiny scattered slabs.
        """
        meta = simple_metadata("output", self.output_space, dtype="double")
        header, _ = encode_header(meta)
        itemsize = self.dtype.itemsize
        total_cells = volume(self.output_space)
        start = time.perf_counter()
        written = 0
        seeks = 0
        useful = 0
        with open(path, "wb") as fh:
            fh.write(header)
            base = fh.tell()
            # Sentinel-fill the whole space in bounded chunks.
            chunk = np.full(min(1 << 20, total_cells), self.sentinel, dtype=self.dtype).tobytes()
            remaining = total_cells
            while remaining > 0:
                n = min(1 << 20, remaining)
                fh.write(chunk[: n * itemsize])
                written += n * itemsize
                remaining -= n
            # Scattered writes of the actual data.
            for slab, values in cells:
                values = np.ascontiguousarray(values, dtype=self.dtype).reshape(-1)
                if values.size != slab.volume:
                    raise DatasetError(
                        f"values size {values.size} != slab volume {slab.volume}"
                    )
                pos = 0
                for lo, hi in slab_to_index_runs(slab, self.output_space):
                    n = hi - lo
                    fh.seek(base + lo * itemsize)
                    fh.write(values[pos : pos + n].tobytes())
                    seeks += 1
                    written += n * itemsize
                    useful += n * itemsize
                    pos += n
            _fsync(fh)
        elapsed = time.perf_counter() - start
        return WriteReport(
            strategy="sentinel",
            seconds=elapsed,
            bytes_written=written,
            file_size=os.path.getsize(path),
            seeks=seeks,
            useful_bytes=useful,
        )


class CoordinatePairWriter:
    """Explicit ``(coordinate, value)`` records.

    Overhead is "a constant scalar relative to the amount of useful data
    and independent of the number of Reduce tasks" (§4.4): rank int64
    coordinates plus the value per record.
    """

    def __init__(self, output_space: Shape) -> None:
        self.output_space = tuple(output_space)
        self.dtype = _F64

    def write(self, path: str | os.PathLike, cells: list[tuple[Slab, np.ndarray]]) -> WriteReport:
        rank = len(self.output_space)
        start = time.perf_counter()
        written = 0
        useful = 0
        with open(path, "wb") as fh:
            head = json.dumps(
                {"space": list(self.output_space), "rank": rank, "dtype": str(self.dtype)}
            ).encode() + b"\n"
            fh.write(head)
            written += len(head)
            for slab, values in cells:
                values = np.ascontiguousarray(values, dtype=self.dtype).reshape(-1)
                coords = np.array(list(slab.iter_coords()), dtype=np.int64)
                if coords.shape[0] != values.size:
                    raise DatasetError("values/slab size mismatch")
                rec = np.empty(
                    values.size,
                    dtype=[("coord", np.int64, (rank,)), ("value", self.dtype)],
                )
                rec["coord"] = coords
                rec["value"] = values
                buf = rec.tobytes()
                fh.write(buf)
                written += len(buf)
                useful += values.size * self.dtype.itemsize
            _fsync(fh)
        elapsed = time.perf_counter() - start
        return WriteReport(
            strategy="coordinate-pair",
            seconds=elapsed,
            bytes_written=written,
            file_size=os.path.getsize(path),
            seeks=0,
            useful_bytes=useful,
        )


class ContiguousWriter:
    """SIDR's writer: one dense array for the reducer's contiguous
    keyblock, with the global origin in metadata.

    Bytes written equal useful bytes plus a small header; cost is
    independent of the total output size and of the reducer count —
    the bottom row of Table 2.
    """

    def __init__(self, output_space: Shape) -> None:
        self.output_space = tuple(output_space)
        self.dtype = _F64

    def write(self, path: str | os.PathLike, block: Slab, values: np.ndarray) -> WriteReport:
        values = np.ascontiguousarray(values, dtype=self.dtype)
        if tuple(values.shape) != block.shape:
            values = values.reshape(block.shape)
        from repro.scidata.metadata import Dimension, Variable

        dims = tuple(
            Dimension(f"dim{i}", max(1, e)) for i, e in enumerate(block.shape)
        )
        meta = DatasetMetadata(
            dimensions=dims,
            variables=(
                Variable(
                    "output",
                    "double",
                    tuple(d.name for d in dims),
                    attributes=(
                        Attribute("origin", ",".join(map(str, block.corner))),
                        Attribute("space", ",".join(map(str, self.output_space))),
                    ),
                ),
            ),
        )
        header, _ = encode_header(meta)
        start = time.perf_counter()
        with open(path, "wb") as fh:
            fh.write(header)
            fh.write(values.astype(self.dtype).tobytes())
            _fsync(fh)
        elapsed = time.perf_counter() - start
        useful = values.size * self.dtype.itemsize
        return WriteReport(
            strategy="contiguous",
            seconds=elapsed,
            bytes_written=useful + len(header),
            file_size=os.path.getsize(path),
            seeks=0,
            useful_bytes=useful,
        )


def read_contiguous_output(path: str | os.PathLike) -> tuple[Slab, np.ndarray]:
    """Read a :class:`ContiguousWriter` file back as (global slab, values).

    Used by tests to verify that the union of all reducers' contiguous
    outputs reconstructs the full output space exactly.
    """
    from repro.scidata.dataset import open_dataset

    with open_dataset(path) as ds:
        var = ds.metadata.variable("output")
        origin_attr = next(a for a in var.attributes if a.name == "origin")
        origin: Coord = tuple(
            int(x) for x in str(origin_attr.value).split(",") if x != ""
        )
        data = ds.read_all("output")
    return Slab(origin, tuple(data.shape)), data
