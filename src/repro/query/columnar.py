"""Columnar record reader.

The query half of the columnar data plane (engine half:
:mod:`repro.mapreduce.columnar`).  Two pieces:

* :class:`ColumnarRecordReader` — reads each split slab once (same bulk
  read as :class:`~repro.query.recordreader.StructuralRecordReader`) and
  emits :class:`~repro.mapreduce.columnar.ChunkBatch` items covering
  whole groups of extraction-shape instances.  The slab's working
  region is decomposed per dimension into at most three *zones* —
  clipped head instance, run of whole instances, clipped tail instance,
  stride-gap cells in none — whose cartesian product covers every
  instance piece in the region with boxes of uniform per-instance
  extent.  Each box becomes one batch: a basic slice, one strided
  window view copied to ``(n, cells)`` (C-order per instance, matching
  the record plane's slice-and-flatten exactly), and the product of the
  zones' key ranges for the keys.  Dense and strided extractions are
  the same decomposition (``stride == shape``).  Every item is a
  ``ChunkBatch``, and the two planes emit identical logical records.
* :func:`batch_operator_for` — the plane's admission check: a built-in
  operator (:class:`~repro.query.operators.SpecOperator`, whose table
  and column functions live in :mod:`repro.query.operators`) is its own
  batch operator; a user-defined one has no columnar definition and is
  a :class:`~repro.errors.QueryError` naming the record plane.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from itertools import product
from typing import Any

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.arrays.shape import coord_sub
from repro.errors import QueryError
from repro.mapreduce.columnar import ChunkBatch
from repro.query.language import QueryPlan
from repro.query.operators import (
    OPERATOR_NAMES,
    SpecOperator,
    StructuralOperator,
)
from repro.query.recordreader import _read_slab
from repro.query.splits import CoordinateSplit

def _zone_segments(
    lo: int, hi: int, extent: int, stride: int
) -> list[tuple[int, int, int, int]]:
    """Decompose the half-open per-dimension work range ``[lo, hi)``
    (relative to the extraction origin) into zones of uniform
    per-instance extent; instance ``k`` occupies
    ``[k * stride, k * stride + extent)``.

    Returns ``(key_start, key_count, cell_start, cell_extent)`` tuples:
    at most a clipped head instance, a run of whole instances, and a
    clipped tail instance.  Cells in a stride gap are in no zone.
    """
    zones = []
    k0, r0 = divmod(lo, stride)
    if r0:
        if r0 < extent:  # else ``lo`` is in the gap after instance k0
            zones.append((k0, 1, lo, min(hi, k0 * stride + extent) - lo))
        k0 += 1
    # Instances below ``whole`` end by ``hi``.
    whole = (hi - extent) // stride + 1 if hi >= extent else 0
    if whole > k0:
        zones.append((k0, whole - k0, k0 * stride, extent))
        k0 = whole
    if k0 * stride < hi:
        zones.append((k0, 1, k0 * stride, hi - k0 * stride))
    return zones


def _corner_grid(axes: list[np.ndarray]) -> np.ndarray:
    """(n, rank) array of the axes' cartesian product, C order."""
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack(mesh, axis=-1).reshape(-1, len(axes))


class ColumnarRecordReader:
    """Batched reader: every item is a ChunkBatch.

    Emits exactly the same logical records as
    :class:`~repro.query.recordreader.StructuralRecordReader` — same
    keys, same cells in the same C order — one batch per zone.
    """

    def __init__(self, source: Any, plan: QueryPlan, split: CoordinateSplit) -> None:
        self._source = source
        self._plan = plan
        self._split = split

    def __iter__(self) -> Iterator[ChunkBatch]:
        plan = self._plan
        ex = plan.extraction
        steps = tuple(slice(None, None, st) for st in ex.stride)
        for slab in self._split.slabs:
            work = slab.intersect(plan.covered)
            if work.is_empty:
                continue
            data = _read_slab(self._source, plan.variable, slab)
            # Clip to the subset: under keep_partial_instances the
            # covering box can extend past it, and the record plane's
            # instance_region() intersects with the subset too.
            core = work.intersect(plan.subset)
            if core.is_empty:
                continue
            per_dim = [
                _zone_segments(lo, hi, sh, st)
                for lo, hi, sh, st in zip(
                    coord_sub(core.corner, ex.origin),
                    coord_sub(core.end, ex.origin),
                    ex.shape,
                    ex.stride,
                )
            ]
            # origin-relative cell coordinate -> index into ``data``
            local = coord_sub(ex.origin, slab.corner)
            for combo in product(*per_dim):
                # First piece's first cell to last piece's last cell.
                block = data[tuple(
                    slice(off + start, off + start + (count - 1) * st + ext)
                    for off, (_, count, start, ext), st in zip(
                        local, combo, ex.stride
                    )
                )]
                # One window per instance piece, C order within it —
                # the record plane's slice-and-flatten exactly.
                exts = tuple(ext for _, _, _, ext in combo)
                windows = sliding_window_view(block, exts)[steps]
                keys = _corner_grid(
                    [k + np.arange(count, dtype=np.int64) for k, count, _, _ in combo]
                )
                yield ChunkBatch(keys, windows.reshape(len(keys), -1))


def make_columnar_reader_factory(
    source: Any, plan: QueryPlan
) -> Callable[[CoordinateSplit], Iterator[ChunkBatch]]:
    """Columnar reader factory for :class:`repro.mapreduce.job.JobConf`."""

    def factory(split: CoordinateSplit) -> Iterator[ChunkBatch]:
        return iter(ColumnarRecordReader(source, plan, split))

    return factory


def batch_operator_for(op: StructuralOperator) -> SpecOperator:
    """``op`` as the columnar plane's batch operator: a built-in
    operator is its own, anything else a :class:`~repro.errors.QueryError`."""
    if not isinstance(op, SpecOperator):
        raise QueryError(
            f"operator {op.name!r} has no columnar definition "
            f"(known: {sorted(OPERATOR_NAMES)}); a user-defined operator "
            "runs on the record plane: pass data_plane=\"record\""
        )
    return op
