"""Columnar record reader and the planned map geometry.

The query half of the columnar data plane (engine half:
:mod:`repro.mapreduce.columnar`).  A key on this plane is its row-major
index in K'_T, carried in ``[start, stop)`` runs.  Three pieces:

* :func:`map_geometry` — everything a split's map does that depends on
  the split and not on the data, as one value: which slabs to read and
  the zones cut from each (the slab's working region decomposed per
  dimension into at most three — clipped head instance, run of whole
  instances, clipped tail instance, stride-gap cells in none — whose
  cartesian product covers every instance piece with boxes of uniform
  per-instance extent), each zone with the index of its first key and
  its instances' ``(count, key stride)`` runs.  It holds no per-key
  array: a zone's run table (:func:`zone_runs`, one run per innermost
  row of instances; a box of whole rows of K'_T is one run) is made
  where it is read.  It is a pure function of
  ``(plan, split)``, so :class:`~repro.sidr.planner.SIDRPlan` computes
  it once per split and keeps it — and so does the service's plan
  cache.  Dense and strided extractions, one zone or many: the same
  function.
* :class:`ColumnarRecordReader` — reads each slab of a geometry once
  (same bulk read as
  :class:`~repro.query.recordreader.StructuralRecordReader`) and emits
  one :class:`~repro.mapreduce.columnar.ChunkBatch` per zone: a basic
  slice, its strided windows copied to ``(n, cells)`` by
  :func:`window_rows` (C-order per instance, matching the record
  plane's slice-and-flatten exactly), and the zone's run table.  Every
  item is a ``ChunkBatch``, and the two planes emit identical logical
  records.
* :func:`batch_operator_for` — the plane's admission check: a built-in
  operator (:class:`~repro.query.operators.SpecOperator`, whose table
  and column functions live in :mod:`repro.query.operators`) is its own
  batch operator; a user-defined one has no columnar definition and is
  a :class:`~repro.errors.QueryError` naming the record plane.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from itertools import product
from typing import Any

import numpy as np

from repro.arrays.linearize import row_major_strides
from repro.arrays.shape import coord_sub
from repro.arrays.slab import Slab
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

#: One zone of a slab read: the basic slice of the slab's array from the
#: zone's first cell to its last, the per-instance window extents, the
#: row-major index in K'_T of its first instance's key, and its
#: instances' ``(count, key stride)`` per dimension — adjacent
#: dimensions that step through K'_T as one merged into one
#: (:func:`_key_runs`).
Zone = tuple[tuple[slice, ...], tuple[int, ...], int, tuple[tuple[int, int], ...]]


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


def _key_runs(
    counts: tuple[int, ...], key_strides: tuple[int, ...]
) -> tuple[tuple[int, int], ...]:
    """A box of ``counts`` instances as ``(count, key stride)`` per
    dimension, a dimension merged into the one before it when it spans
    that one's stride (the box covers it whole): a box of whole trailing
    rows of K'_T is one run of consecutive keys."""
    runs = [(counts[-1], key_strides[-1])]
    for count, stride in zip(counts[-2::-1], key_strides[-2::-1]):
        inner, step = runs[-1]
        if inner * step == stride:
            runs[-1] = (count * inner, step)
        else:
            runs.append((count, stride))
    return tuple(runs[::-1])


@dataclass(frozen=True)
class MapGeometry:
    """What one split's map does that does not depend on the data
    (:func:`map_geometry`): tuples and integers, O(zones)."""

    #: Each slab to read, with the zones cut from it.
    reads: tuple[tuple[Slab, tuple[Zone, ...]], ...]
    #: Window steps (the extraction stride), one per dimension.
    steps: tuple[int, ...]
    #: K'_T, the space the keys index.
    space: tuple[int, ...]


def map_geometry(plan: QueryPlan, split: CoordinateSplit) -> MapGeometry:
    """``split``'s :class:`MapGeometry` under ``plan``."""
    ex = plan.extraction
    space = tuple(plan.intermediate_space)
    key_strides = row_major_strides(space)
    reads = []
    for slab in split.slabs:
        # Clip to the subset: under keep_partial_instances the covering
        # box can extend past it, and the record plane's
        # instance_region() intersects with the subset too.
        core = slab.intersect(plan.covered).intersect(plan.subset)
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
        # origin-relative cell coordinate -> index into the slab's array
        local = coord_sub(ex.origin, slab.corner)
        zones = []
        for combo in product(*per_dim):
            zones.append((
                # First piece's first cell to last piece's last cell.
                tuple(
                    slice(off + start, off + start + (count - 1) * st + ext)
                    for off, (_, count, start, ext), st in zip(
                        local, combo, ex.stride
                    )
                ),
                tuple(ext for _, _, _, ext in combo),
                sum(k * stride for (k, _, _, _), stride in zip(combo, key_strides)),
                _key_runs(tuple(count for _, count, _, _ in combo), key_strides),
            ))
        reads.append((slab, tuple(zones)))
    return MapGeometry(reads=tuple(reads), steps=tuple(ex.stride), space=space)


def zone_runs(base: int, runs: tuple[tuple[int, int], ...]) -> np.ndarray:
    """A zone's keys in C order as ``(R, 2)`` int64 ``[start, stop)``
    runs, one per innermost row of instances (K'_T's last key stride is
    1): ``base`` plus the broadcast sum of the outer runs' ``arange ×
    stride``.  O(runs), no per-key array."""
    *outer, (count, _) = runs
    if not outer:  # one stretch of consecutive keys
        return np.array([[base, base + count]])
    starts = base
    for n, stride in outer:
        starts = np.add.outer(starts, np.arange(0, n * stride, stride))
    return np.add.outer(starts, (0, count)).reshape(-1, 2)


class _Interface:
    """An ``__array_interface__`` over another array's memory, the way
    :func:`numpy.lib.stride_tricks.as_strided` builds its views;
    ``base`` keeps that memory alive."""

    def __init__(self, interface: dict[str, Any], base: np.ndarray) -> None:
        self.__array_interface__ = interface
        self.base = base


def window_rows(
    block: np.ndarray, exts: tuple[int, ...], steps: tuple[int, ...]
) -> np.ndarray:
    """``block``'s windows of extent ``exts``, one every ``steps`` cells
    per dimension, as one C-ordered row per window: the bytes of
    ``sliding_window_view(block, exts)[::steps].reshape(n, -1)``.

    Each window's innermost run — ``exts[-1]`` adjacent cells — is
    copied as one fixed-size ``np.void`` item, so a short run costs one
    item copy, not ``exts[-1]`` cell copies.  The result is
    C-contiguous; it aliases ``block`` (read-only) only when the windows
    already lie end to end.
    """
    if block.strides[-1] != block.itemsize:
        # Fortran-ordered or transposed in-memory sources: a run must be
        # adjacent bytes.  File slabs are always C-ordered.
        block = np.ascontiguousarray(block)
    # List comprehensions, not generators: this runs once per zone of
    # every map, and a generator costs a call per item.
    counts = tuple([
        (size - ext) // step + 1
        for size, ext, step in zip(block.shape, exts, steps)
    ])
    run = np.dtype((np.void, exts[-1] * block.itemsize))
    interface = dict(block.__array_interface__)
    interface.update(
        # Read-only, like every window view.
        data=(interface["data"][0], True),
        shape=counts + tuple(exts[:-1]),
        strides=tuple([
            stride * step for stride, step in zip(block.strides, steps)
        ]) + block.strides[:-1],
        typestr=run.str,
        descr=run.descr,
    )
    runs = np.asarray(_Interface(interface, block))
    # Reshape only a C-contiguous array: with one window along an axis,
    # a reshape of the strided runs can come back as a view whose last
    # axis is not contiguous, which ``view`` rejects.
    rows = np.ascontiguousarray(runs).reshape(math.prod(counts), -1)
    return rows.view(block.dtype)


class ColumnarRecordReader:
    """Batched reader: every item is a ChunkBatch.

    Emits exactly the same logical records as
    :class:`~repro.query.recordreader.StructuralRecordReader` — same
    keys, same cells in the same C order — one batch per zone of its
    ``geometry`` (computed here when not given), its keys runs of
    row-major indices in K'_T.
    """

    def __init__(
        self,
        source: Any,
        plan: QueryPlan,
        split: CoordinateSplit,
        geometry: MapGeometry | None = None,
    ) -> None:
        self._source = source
        self._variable = plan.variable
        if geometry is None:
            geometry = map_geometry(plan, split)
        self._geometry = geometry

    def __iter__(self) -> Iterator[ChunkBatch]:
        geo = self._geometry
        for slab, zones in geo.reads:
            data = _read_slab(self._source, self._variable, slab)
            for block, exts, base, runs in zones:
                yield ChunkBatch(
                    zone_runs(base, runs),
                    window_rows(data[block], exts, geo.steps),
                    geo.space,
                )


def make_columnar_reader_factory(
    source: Any,
    plan: QueryPlan,
    geometry: Callable[[CoordinateSplit], MapGeometry] | None = None,
) -> Callable[[CoordinateSplit], ColumnarRecordReader]:
    """Columnar reader factory for :class:`repro.mapreduce.job.JobConf`;
    ``geometry`` looks a split's planned geometry up (e.g.
    :meth:`repro.sidr.planner.SIDRPlan.map_geometry`)."""

    def factory(split: CoordinateSplit) -> ColumnarRecordReader:
        planned = None if geometry is None else geometry(split)
        return ColumnarRecordReader(source, plan, split, planned)

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
