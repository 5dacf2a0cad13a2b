"""Columnar record reader and vectorized operator adapters.

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
* :func:`batch_operator_for` — the :class:`StructuralBatchOperator` of
  any of the 11 operators, looked up in one spec table (``_SPECS``):
  per-batch state columns, how same-key rows combine, and one
  whole-column finalize.  Two families:

  - *fixed-width* state (sum, count, mean, min, max, stddev, range,
    range_exceeds): one ``axis=1`` reduction per state column, combined
    by a segmented fold that runs each segment strictly left to right —
    the same order as the scalar ``combine`` implementations' built-in
    ``sum``/``min``/``max`` — and finalized by one array expression
    built only from IEEE operations that round the same in numpy and in
    Python floats (``+ - * /``, ``sqrt``, comparisons).
  - *ragged* state (filter_gt, sort, median): one object-dtype column
    whose element ``i`` is instance ``i``'s surviving values in cell
    order — those passing ``> threshold`` for filter_gt (the predicate
    pushed down into one whole-batch mask), all of them for sort and
    median.  Combine concatenates a key's rows in map order, as the
    scalar ``combine`` does; finalize is one stable
    ``lexsort((value, segment))`` of all values, read out as per-key
    sorted lists (filter_gt, sort) or as the middle element(s) of each
    segment by offsets arithmetic (median).  The order of a key's
    values before that sort cannot change the sorted multiset, so
    neither can how splits cut the instance.

  Either way columnar output is byte-identical to the record plane.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from itertools import product
from typing import Any, NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.arrays.shape import coord_sub
from repro.errors import QueryError
from repro.mapreduce.columnar import ChunkBatch
from repro.query.language import QueryPlan
from repro.query.operators import StructuralOperator
from repro.query.recordreader import _read_slab
from repro.query.splits import CoordinateSplit

# --------------------------------------------------------------------- #
# Reader
# --------------------------------------------------------------------- #


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


# --------------------------------------------------------------------- #
# Batch operators
# --------------------------------------------------------------------- #


def _f64(values: np.ndarray) -> np.ndarray:
    return values.astype(np.float64, copy=False)


def _segmented_fold(
    uf: np.ufunc, col: np.ndarray, starts: np.ndarray
) -> np.ndarray:
    """Left-to-right fold of each segment, bit-exact vs the scalar path.

    ``np.ufunc.reduceat`` may associate pairwise (observably different
    float sums for segments of >= 4), while the scalar operators combine
    with builtin ``sum``/``min``/``max`` — strictly sequential.  This
    fold is sequential *within* each segment but vectorized *across*
    segments: one pass per position-in-segment, so the loop count is the
    longest segment (the number of map fragments feeding one key — a
    handful), not the record count.
    """
    col = np.asarray(col)
    n = col.shape[0]
    if starts.size == 0:
        return col[:0].copy()
    ends = np.append(starts[1:], n)
    out = col[starts].copy()
    longest = int((ends - starts).max())
    for j in range(1, longest):
        idx = starts + j
        live = idx < ends
        out[live] = uf(out[live], col[idx[live]])
    return out


def _counts_column(values: np.ndarray) -> np.ndarray:
    return np.full(values.shape[0], values.shape[1], dtype=np.int64)


def _require_cells(count: np.ndarray, what: str) -> None:
    if count.size and not count.all():
        raise QueryError(f"{what} of zero cells")


# Fixed-width state --------------------------------------------------- #


def _state_itself(col: np.ndarray, t: None) -> np.ndarray:
    return _f64(col)


def _mean(total: np.ndarray, count: np.ndarray, t: None) -> np.ndarray:
    _require_cells(count, "mean")
    return total / count


def _moments(v: np.ndarray, t: None) -> tuple[np.ndarray, ...]:
    w = _f64(v)
    return (_counts_column(v), w.sum(axis=1), np.square(w).sum(axis=1))


def _stddev(n: np.ndarray, s: np.ndarray, ss: np.ndarray, t: None) -> np.ndarray:
    _require_cells(n, "stddev")
    mean = s / n
    var = ss / n - mean * mean
    # ``where(var > 0)`` is the scalar ``max(0.0, var)`` exactly: a NaN
    # or negative-zero variance clamps to +0.0 in both.
    return np.sqrt(np.where(var > 0.0, var, 0.0))


def _minmax(v: np.ndarray, t: float | None) -> tuple[np.ndarray, ...]:
    w = _f64(v)
    return (w.min(axis=1), w.max(axis=1))


def _exceeds(lo: np.ndarray, hi: np.ndarray, t: float) -> list:
    variation = hi - lo
    return [
        {"exceeds": e, "variation": v}
        for e, v in zip((variation > t).tolist(), variation.tolist())
    ]


# Ragged state -------------------------------------------------------- #


def _split_rows(flat: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Object column whose element ``i`` is ``flat[ends[i-1]:ends[i]]``."""
    col = np.empty(len(ends), dtype=object)
    begin = 0
    for i, end in enumerate(ends.tolist()):
        # Per-element assignment: a slice assignment would try to
        # broadcast the ragged pieces into a 2-D block.
        col[i] = flat[begin:end]
        begin = end
    return col


def _ragged_rows(col: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """An object column of float arrays as one flat value array plus
    per-row lengths (the rows laid end to end, in order)."""
    rows = col.tolist()
    lengths = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
    flat = np.concatenate(rows) if rows else np.empty(0, dtype=np.float64)
    return flat, lengths


def _survivors(v: np.ndarray, t: float | None) -> tuple[np.ndarray, ...]:
    """Each instance's cells passing ``> t`` (all of them without a
    threshold), in cell order.

    One boolean mask per batch replaces the record plane's per-instance
    ``arr[arr > t]`` — the batch-path half of split skipping: splits the
    zone map could not prune entirely still do a single vectorized
    compare instead of per-instance Python.  An all-masked row keeps its
    place: an empty survivors array, with the row's full source count
    travelling beside it, matching the scalar ``map_partial`` on a
    nothing-passes chunk (§2.4.2 allows empty per-instance results and
    the §3.2.1 count annotation still needs the cells tallied).
    """
    w = _f64(v)
    if t is None:
        flat, kept = w.reshape(-1), _counts_column(w)
    else:
        mask = w > t
        flat, kept = w[mask], mask.sum(axis=1)
    return (_split_rows(flat, kept.cumsum()),)


def _concat_segments(col: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Ragged combine.  Rows of one key are adjacent and in map order,
    so a key's combined state is a contiguous run of the column laid out
    flat — the scalar ``np.concatenate`` order exactly."""
    if starts.size == len(col):
        return col  # every row its own key: nothing to merge
    flat, lengths = _ragged_rows(col)
    return _split_rows(flat, np.add.reduceat(lengths, starts).cumsum())


def _sorted_segments(col: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All values, each row's sorted within its segment, plus the
    segment lengths.  One stable sort: equal values keep their order
    like ``sorted``, NaNs go last like ``np.sort``."""
    flat, lengths = _ragged_rows(col)
    segment = np.repeat(np.arange(len(lengths)), lengths)
    return flat[np.lexsort((flat, segment))], lengths


def _sorted_lists(col: np.ndarray, t: float | None) -> list:
    values, lengths = _sorted_segments(col)
    values, ends = values.tolist(), lengths.cumsum().tolist()
    return [values[a:b] for a, b in zip([0] + ends[:-1], ends)]


def _medians(col: np.ndarray, t: None) -> np.ndarray:
    """``np.median`` of every segment at once: the middle element of an
    odd count, ``(a + b) / 2`` of the middle two of an even one, NaN
    for a segment holding one (they sort last)."""
    values, lengths = _sorted_segments(col)
    _require_cells(lengths, "median")
    ends = lengths.cumsum()
    first = ends - lengths
    a = values[first + (lengths - 1) // 2]
    b = values[first + lengths // 2]
    middle = np.where(lengths % 2 == 1, a, (a + b) / 2)
    return np.where(np.isnan(values[ends - 1]), np.nan, middle)


class _Spec(NamedTuple):
    """One operator's columnar definition.  ``map_batch`` and
    ``finalize`` take the operator's threshold last (None for operators
    without one)."""

    #: ``(n, cells)`` value block -> one state column per component of
    #: the scalar ``Partial.state``.
    map_batch: Callable[..., tuple[np.ndarray, ...]]
    #: Per-column combine ufuncs, or None for ragged state (concatenate).
    combine: tuple[np.ufunc, ...] | None
    #: Combined state columns -> the output column.
    finalize: Callable[..., np.ndarray | list]


_SPECS: dict[str, _Spec] = {
    "sum": _Spec(lambda v, t: (_f64(v.sum(axis=1)),), (np.add,), _state_itself),
    "count": _Spec(
        lambda v, t: (_counts_column(v),),
        (np.add,),
        lambda c, t: np.asarray(c, dtype=np.int64),
    ),
    "mean": _Spec(
        lambda v, t: (_f64(v).sum(axis=1), _counts_column(v)),
        (np.add, np.add),
        _mean,
    ),
    "min": _Spec(
        lambda v, t: (_f64(v.min(axis=1)),), (np.minimum,), _state_itself
    ),
    "max": _Spec(
        lambda v, t: (_f64(v.max(axis=1)),), (np.maximum,), _state_itself
    ),
    "stddev": _Spec(_moments, (np.add, np.add, np.add), _stddev),
    "range": _Spec(
        _minmax, (np.minimum, np.maximum), lambda lo, hi, t: hi - lo
    ),
    "range_exceeds": _Spec(_minmax, (np.minimum, np.maximum), _exceeds),
    "filter_gt": _Spec(_survivors, None, _sorted_lists),
    "sort": _Spec(_survivors, None, _sorted_lists),
    "median": _Spec(_survivors, None, _medians),
}


class StructuralBatchOperator:
    """Vectorized face of one structural operator.

    The per-batch ``axis=1`` fold (or mask), the segmented combine and
    the whole-column finalize are array code constructed to reproduce
    the scalar arithmetic bit for bit (see the byte-identity tests,
    which hold ``finalize_columns`` against ``operator.finalize`` row by
    row).
    """

    def __init__(self, operator: StructuralOperator) -> None:
        try:
            self._spec = _SPECS[operator.name]
        except KeyError:
            raise QueryError(
                f"operator {operator.name!r} has no columnar definition "
                f"(known: {sorted(_SPECS)}); a user-defined operator runs "
                "on the record plane: pass data_plane=\"record\""
            ) from None
        self.operator = operator
        threshold = getattr(operator, "threshold", None)
        self._threshold = None if threshold is None else float(threshold)

    def map_batch(self, values: np.ndarray) -> tuple[np.ndarray, ...]:
        return self._spec.map_batch(values, self._threshold)

    def combine_columns(
        self, columns: tuple[np.ndarray, ...], starts: np.ndarray
    ) -> tuple[np.ndarray, ...]:
        if self._spec.combine is None:
            return (_concat_segments(columns[0], starts),)
        return tuple(
            _segmented_fold(uf, col, starts)
            for uf, col in zip(self._spec.combine, columns)
        )

    def finalize_columns(
        self, columns: tuple[np.ndarray, ...], source_counts: np.ndarray
    ) -> np.ndarray | list:
        # The one invariant ``Partial`` enforced per row.
        if source_counts.size and int(source_counts.min()) < 0:
            raise QueryError("negative source_count")
        # Python floats overflow to inf and turn inf - inf into NaN
        # silently; so must the columns.
        with np.errstate(over="ignore", invalid="ignore"):
            return self._spec.finalize(*columns, self._threshold)

    def masked_cells(
        self, values: np.ndarray, columns: tuple[np.ndarray, ...]
    ) -> int:
        """Cells a pushdown mask dropped from this batch (the engine's
        ``pushdown.rows.masked`` counter): what a ragged state under a
        threshold did not keep, nothing for any other operator."""
        if self._spec.combine is not None or self._threshold is None:
            return 0
        return int(values.size) - sum(map(len, columns[0].tolist()))


def batch_operator_for(op: StructuralOperator) -> StructuralBatchOperator:
    """The columnar definition of ``op`` (every built-in operator has
    one; anything else is a :class:`~repro.errors.QueryError`)."""
    return StructuralBatchOperator(op)
