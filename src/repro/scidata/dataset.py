"""Coordinate-based dataset access.

:class:`Dataset` is the NCLite analogue of the NetCDF library API the
paper builds on: data is read and written "via functions that take
coordinate arguments in lieu of byte-offsets and then translate those
coordinates into accesses in the underlying file" (§2.1).

Slab reads/writes are translated into the minimal set of contiguous byte
runs (via :func:`repro.arrays.linearize.slab_to_index_runs`), which is
exactly the mechanism that makes *dense, contiguous* output cheap and
sparse scattered output expensive — the effect Table 2 measures.
"""

from __future__ import annotations

import mmap
import os
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.arrays.linearize import count_index_runs, slab_to_index_runs
from repro.arrays.shape import Shape, volume
from repro.arrays.slab import Slab
from repro.errors import DatasetError
from repro.scidata.metadata import DatasetMetadata, simple_metadata
from repro.scidata.nclite import (
    Header,
    read_header,
    strip_zone_maps,
    write_nclite,
    write_nclite_empty,
)


@dataclass
class IOStats:
    """Accounting of physical file activity, consumed by tests and the
    Table 2 benchmark."""

    seeks: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    read_calls: int = 0
    write_calls: int = 0

    def reset(self) -> None:
        self.seeks = 0
        self.bytes_read = 0
        self.bytes_written = 0
        self.read_calls = 0
        self.write_calls = 0


#: Slab read plans one read-only handle keeps; past it they are all
#: dropped and rebuilt as read.  A reopened session is a new handle,
#: so it starts with none.
READ_PLAN_CAPACITY = 4096


class _ReadPlan(NamedTuple):
    """One validated slab read: what :meth:`Dataset.read_slab` needs
    besides the mapping."""

    dtype: np.dtype
    shape: tuple[int, ...]
    volume: int
    #: ``(byte offset, items)`` per contiguous run, in file order.
    runs: tuple[tuple[int, int], ...]
    #: One past the last byte the runs read: the short-read check.
    end: int


class Dataset:
    """An open NCLite file with slab-granular coordinate access."""

    def __init__(self, path: str | os.PathLike, mode: str = "r") -> None:
        if mode not in ("r", "r+"):
            raise DatasetError(f"unsupported mode {mode!r}; use 'r' or 'r+'")
        self._path = os.fspath(path)
        self._mode = mode
        self._header: Header = read_header(path)
        self._fh = open(path, "rb" if mode == "r" else "r+b")
        self._mm: mmap.mmap | None = None
        self._mm_failed = False
        self.io_stats = IOStats()
        #: ``(variable, slab)`` -> its validated byte runs
        #: (:meth:`_read_plan`); read-only handles only.
        self._plans: dict[tuple[str, Slab], _ReadPlan] = {}

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def path(self) -> str:
        return self._path

    @property
    def metadata(self) -> DatasetMetadata:
        return self._header.metadata

    def variable_shape(self, name: str) -> Shape:
        return self.metadata.variable_shape(name)

    def variable_space(self, name: str) -> Slab:
        """The full K_T slab of a variable."""
        return Slab.whole(self.variable_shape(name))

    def to_cdl(self) -> str:
        return self.metadata.to_cdl(os.path.basename(self._path).split(".")[0])

    # ------------------------------------------------------------------ #
    # Slab IO
    # ------------------------------------------------------------------ #
    def _var_layout(self, name: str) -> tuple[int, np.dtype, Shape]:
        var = self.metadata.variable(name)
        space = self.metadata.variable_shape(name)
        base = self._header.offsets[name]
        return base, var.numpy_dtype.newbyteorder("<"), space

    def _check_slab(self, name: str, slab: Slab, space: Shape) -> None:
        if slab.rank != len(space):
            raise DatasetError(
                f"slab rank {slab.rank} != variable {name!r} rank {len(space)}"
            )
        if not Slab.whole(space).contains_slab(slab):
            raise DatasetError(
                f"slab {slab!r} outside variable {name!r} space {space!r}"
            )

    def _map(self) -> mmap.mmap | None:
        """Lazily mmap the file for the zero-copy read path.

        Read-only datasets only: a writable dataset keeps the seek/read
        path so ``write_slab`` never races its own mapping (and zone-map
        stripping can rewrite the header in place).  A failed ``mmap``
        (exotic filesystem, empty file) disables itself permanently and
        falls back to buffered reads.
        """
        if self._mode != "r" or self._mm_failed:
            return None
        if self._mm is None:
            try:
                self._mm = mmap.mmap(
                    self._fh.fileno(), 0, access=mmap.ACCESS_READ
                )
            except (OSError, ValueError):
                self._mm_failed = True
                return None
        return self._mm

    def ensure_mapped(self) -> bool:
        """Establish the read-only mmap now (idempotent).

        Returns True when the zero-copy path is active.  Callers that
        share one handle across threads (the resident query service)
        call this once up front: it removes the lazy-init race in
        :meth:`_map`, and a False return tells them to fall back to
        per-reader opens — the buffered path shares the handle's file
        position and must not be used concurrently.
        """
        return self._map() is not None

    def _read_plan(self, name: str, slab: Slab) -> _ReadPlan:
        """``slab`` of variable ``name`` as byte runs, validated.  A
        read-only handle keeps each one (its header never changes), up
        to :data:`READ_PLAN_CAPACITY` of them: every split of every
        job reads the same few slabs, so each is checked once."""
        key = (name, slab)
        plan = self._plans.get(key)
        if plan is not None:
            return plan
        base, dtype, space = self._var_layout(name)
        self._check_slab(name, slab, space)
        itemsize = dtype.itemsize
        runs = tuple(
            (base + lo * itemsize, hi - lo)
            for lo, hi in slab_to_index_runs(slab, space)
        )
        plan = _ReadPlan(
            dtype, slab.shape, slab.volume, runs,
            max((off + n * itemsize for off, n in runs), default=0),
        )
        if self._mode == "r":
            if len(self._plans) >= READ_PLAN_CAPACITY:
                self._plans.clear()
            self._plans[key] = plan
        return plan

    def read_slab(self, name: str, slab: Slab) -> np.ndarray:
        """Read ``slab`` of variable ``name`` with the slab's shape.

        Read-only datasets return mmap-backed arrays: a single
        contiguous run is a zero-copy read-only *view* of the file
        mapping (no bytes cross userspace until touched); a
        multi-run slab is one gather from per-run views into a fresh
        array.  Writable datasets use buffered per-run reads and
        always return fresh C-order arrays.  ``io_stats`` counts the
        same logical seeks/reads either way (one per run), so the
        Table 2 physical cost model is path-independent.
        """
        plan = self._read_plan(name, slab)
        dtype, runs = plan.dtype, plan.runs
        mm = self._mm if self._mm is not None else self._map()
        if mm is not None:
            if plan.end > len(mm):
                raise DatasetError(
                    f"short read in {self._path} variable {name!r}"
                )
            self._count_reads(plan)
            if len(runs) == 1:
                offset, n = runs[0]
                return np.frombuffer(
                    mm, dtype=dtype, count=n, offset=offset
                ).reshape(plan.shape)
            out = np.empty(plan.volume, dtype=dtype)
            pos = 0
            for offset, n in runs:
                out[pos : pos + n] = np.frombuffer(
                    mm, dtype=dtype, count=n, offset=offset
                )
                pos += n
            return out.reshape(plan.shape)
        out = np.empty(plan.volume, dtype=dtype)
        pos = 0
        itemsize = dtype.itemsize
        for offset, n in runs:
            self._fh.seek(offset)
            chunk = self._fh.read(n * itemsize)
            if len(chunk) != n * itemsize:
                raise DatasetError(
                    f"short read in {self._path} variable {name!r}"
                )
            out[pos : pos + n] = np.frombuffer(chunk, dtype=dtype)
            pos += n
        self._count_reads(plan)
        return out.reshape(plan.shape)

    def _count_reads(self, plan: _ReadPlan) -> None:
        stats = self.io_stats
        stats.seeks += len(plan.runs)
        stats.read_calls += len(plan.runs)
        stats.bytes_read += plan.volume * plan.dtype.itemsize

    def write_slab(self, name: str, slab: Slab, data: np.ndarray) -> None:
        """Write ``data`` (shape must equal the slab's) into the variable."""
        if self._mode != "r+":
            raise DatasetError("dataset opened read-only")
        # Writing under the zone maps would leave stale statistics that a
        # later pruned read could trust; invalidate them on-disk first.
        if self.metadata.zone_maps:
            self._header = strip_zone_maps(self._fh, self._header)
        base, dtype, space = self._var_layout(name)
        self._check_slab(name, slab, space)
        data = np.ascontiguousarray(data, dtype=dtype)
        if tuple(data.shape) != slab.shape:
            raise DatasetError(
                f"data shape {data.shape} != slab shape {slab.shape}"
            )
        flat = data.reshape(-1)
        itemsize = dtype.itemsize
        pos = 0
        for lo, hi in slab_to_index_runs(slab, space):
            n = hi - lo
            self._fh.seek(base + lo * itemsize)
            self._fh.write(flat[pos : pos + n].tobytes())
            self.io_stats.seeks += 1
            self.io_stats.write_calls += 1
            self.io_stats.bytes_written += n * itemsize
            pos += n

    def write_runs_estimate(self, name: str, slab: Slab) -> int:
        """Number of seek+write operations a slab write will issue —
        the physical-IO cost model the Table 2 benchmark reports."""
        _, _, space = self._var_layout(name)
        return count_index_runs(slab, space)

    def read_all(self, name: str) -> np.ndarray:
        """Entire variable (test/laptop scale only)."""
        return self.read_slab(name, self.variable_space(name))

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def flush(self) -> None:
        self._fh.flush()

    def close(self) -> None:
        """Release the file handle and (if mapped) the mmap.

        A zero-copy view handed out by :meth:`read_slab` keeps the
        mapping alive through its ``.base`` reference; closing the
        mapping under it would raise ``BufferError``, so the map is
        left for the garbage collector in that case — the *file
        descriptor* still closes either way.
        """
        if self._mm is not None:
            try:
                self._mm.close()
            except BufferError:
                pass
            self._mm = None
        if not self._fh.closed:
            self._fh.close()

    def __enter__(self) -> "Dataset":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        vars_ = ", ".join(v.name for v in self.metadata.variables)
        return f"Dataset({self._path!r}, variables=[{vars_}])"


def open_dataset(path: str | os.PathLike, mode: str = "r") -> Dataset:
    """Open an existing NCLite file."""
    return Dataset(path, mode=mode)


def create_dataset(
    path: str | os.PathLike,
    metadata: DatasetMetadata | None = None,
    arrays: dict[str, np.ndarray] | None = None,
    *,
    var_name: str | None = None,
    data: np.ndarray | None = None,
    fill: float | int | None = None,
    mode: str = "r",
) -> Dataset:
    """Create an NCLite file and open it.

    Two convenience forms:

    * full form — pass ``metadata`` plus either ``arrays`` (payloads) or
      ``fill`` (pre-allocated constant payloads);
    * quick form — pass ``var_name`` + ``data`` and metadata is derived
      from the array (auto-named dimensions), matching how tests and the
      examples build small inputs.
    """
    if metadata is None:
        if var_name is None or data is None:
            raise DatasetError(
                "create_dataset needs either metadata or var_name+data"
            )
        from repro.scidata.metadata import dtype_name

        metadata = simple_metadata(
            var_name, tuple(data.shape), dtype=dtype_name(data.dtype)
        )
        arrays = {var_name: data}
    if arrays is not None:
        write_nclite(path, metadata, arrays)
    else:
        write_nclite_empty(path, metadata, fill=0 if fill is None else fill)
    return Dataset(path, mode=mode)
