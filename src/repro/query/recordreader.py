"""Scientific record readers.

The RecordReader is the format-specific component that turns a split into
(k, v) records (§2.3).  Two readers are provided:

* :class:`StructuralRecordReader` — the production path.  Reads each of
  the split's slabs in one bulk coordinate read, then emits one
  ``(k', Chunk)`` record per extraction-shape instance overlapping the
  split.  Keys are *already translated to K'* (SciHadoop's record reader
  plus the paper's Area 2 translation fused, which is how SIDR's
  implementation behaves: translation happens in-line with map
  execution).  A chunk carries the instance's cells present in *this*
  split; instances spanning splits yield one partial chunk per split —
  exactly the ambiguity the §3.2.1 count annotation resolves.
* :class:`CellRecordReader` — the reference path: one ``(k, value)``
  record per input cell, keys in K.  Paired with
  :class:`CellToChunkMapper` it produces identical intermediate data one
  cell at a time; tests use it as the slow oracle for the chunked path.

Both readers work from an NCLite file or an in-memory array (tests).
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from typing import Any

import numpy as np

from repro.arrays.slab import Slab
from repro.mapreduce.mapper import Mapper
from repro.mapreduce.types import KeyValue
from repro.query.language import QueryPlan
from repro.query.operators import Chunk
from repro.query.splits import CoordinateSplit


def _read_slab(source: Any, variable: str, slab: Slab) -> np.ndarray:
    if isinstance(source, np.ndarray):
        return source[slab.as_slices()]
    # An already-open Dataset (the resident service's SessionRegistry
    # keeps one per dataset): read through its zero-copy mmap path
    # without re-opening the file per split.  Callers sharing a handle
    # across threads must have called ``ensure_mapped()`` — the buffered
    # fallback shares a file position and is not concurrency-safe.
    read = getattr(source, "read_slab", None)
    if read is not None:
        return read(variable, slab)
    from repro.scidata.dataset import open_dataset

    with open_dataset(source) as ds:
        return ds.read_slab(variable, slab)


class StructuralRecordReader:
    """Chunked reader: one record per instance-overlap in the split."""

    def __init__(self, source: Any, plan: QueryPlan, split: CoordinateSplit) -> None:
        self._source = source
        self._plan = plan
        self._split = split

    def __iter__(self) -> Iterator[KeyValue]:
        plan = self._plan
        for slab in self._split.slabs:
            work = slab.intersect(plan.covered)
            if work.is_empty:
                continue
            data = _read_slab(self._source, plan.variable, slab)
            image = plan.image_of(work)
            for key in image.iter_coords():
                region = plan.instance_region(key).intersect(work)
                if region.is_empty:
                    # Stride gap or clipped edge: this instance has no
                    # cells in the split.
                    continue
                cells = data[region.as_local_slices(slab.corner)]
                flat = np.ascontiguousarray(cells).reshape(-1)
                yield (key, Chunk(flat, int(flat.size)))


class CellRecordReader:
    """Reference reader: one (K-coordinate, value) record per cell."""

    def __init__(self, source: Any, plan: QueryPlan, split: CoordinateSplit) -> None:
        self._source = source
        self._plan = plan
        self._split = split

    def __iter__(self) -> Iterator[KeyValue]:
        plan = self._plan
        for slab in self._split.slabs:
            work = slab.intersect(plan.covered)
            if work.is_empty:
                continue
            data = _read_slab(self._source, plan.variable, slab)
            for coord in work.iter_coords():
                rel = tuple(c - o for c, o in zip(coord, slab.corner))
                yield (coord, data[rel])


class CellToChunkMapper(Mapper):
    """Translates per-cell records into per-cell operator partials keyed
    in K' — the drop-in slow path for the chunked reader+mapper pair.

    Cells in stride gaps (or outside the truncated K'_T) are dropped,
    mirroring what the chunked reader never emits.  Emitting partials
    (via ``plan.operator.map_partial``) keeps the combiner/reducer
    pipeline identical between the cell-level and chunked paths.
    """

    def __init__(self, plan: QueryPlan) -> None:
        self._plan = plan

    def map(self, key: Any, value: Any) -> Iterator[KeyValue]:
        k2 = self._plan.key_of(tuple(key))
        if k2 is None:
            return
        chunk = Chunk(np.asarray([value], dtype=np.float64), 1)
        yield (k2, self._plan.operator.map_partial(chunk))


def make_reader_factory(
    source: Any,
    plan: QueryPlan,
    *,
    cell_level: bool = False,
) -> Callable[[CoordinateSplit], Iterator[KeyValue]]:
    """Reader factory for :class:`repro.mapreduce.job.JobConf`.

    ``source`` may be an NCLite path (each reader opens its own handle —
    thread-safe under the threaded engine) or an in-memory array.
    """

    if cell_level:

        def factory(split: CoordinateSplit) -> Iterator[KeyValue]:
            return iter(CellRecordReader(source, plan, split))

    else:

        def factory(split: CoordinateSplit) -> Iterator[KeyValue]:
            return iter(StructuralRecordReader(source, plan, split))

    return factory
