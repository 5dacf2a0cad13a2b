"""Columnar record reader and vectorized operator adapters.

The query half of the columnar data plane (engine half:
:mod:`repro.mapreduce.columnar`).  Two pieces:

* :class:`ColumnarRecordReader` — reads each split slab once (same bulk
  read as :class:`~repro.query.recordreader.StructuralRecordReader`) and
  emits :class:`~repro.mapreduce.columnar.ChunkBatch` items covering
  whole groups of extraction-shape instances.  For dense extractions the
  slab's working region is decomposed per dimension into at most three
  *zones* — clipped head instance, run of full instances, clipped tail
  instance — whose cartesian product tiles the region with pieces of
  uniform per-instance extent.  Each zone becomes one batch: a basic
  slice, a ``reshape``/``transpose`` to ``(n, cells)`` (C-order per
  instance, matching the record plane's slice-and-flatten exactly), and
  one ``translate_many`` call for the keys.  Strided extractions batch
  the box of fully-contained instances via one ``np.ix_`` gather; each
  clipped-edge or stride-gap-straddling instance follows as a one-row
  batch cut by the record plane's exact per-instance slice.  Every item
  is a ``ChunkBatch``, and the two planes emit identical logical
  records.
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
from itertools import chain, product
from typing import Any, NamedTuple

import numpy as np

from repro.arrays.extraction import StridedExtraction
from repro.arrays.shape import ceil_div, coord_sub
from repro.arrays.slab import Slab
from repro.errors import QueryError
from repro.mapreduce.columnar import ChunkBatch
from repro.query.language import QueryPlan
from repro.query.operators import StructuralOperator
from repro.query.recordreader import _read_slab
from repro.query.splits import CoordinateSplit

# --------------------------------------------------------------------- #
# Reader
# --------------------------------------------------------------------- #


def _zone_segments(lo: int, hi: int, extent: int) -> list[tuple[int, int, int, int]]:
    """Decompose the half-open per-dimension work range ``[lo, hi)``
    (relative to the extraction origin) into zones of uniform
    per-instance extent.

    Returns ``(key_start, key_count, cell_start, cell_extent)`` tuples:
    at most a clipped head instance, a run of full instances, and a
    clipped tail instance.
    """
    k0, r0 = divmod(lo, extent)
    k1, r1 = divmod(hi, extent)
    if k0 == k1:
        return [(k0, 1, lo, hi - lo)]
    zones = []
    if r0:
        zones.append((k0, 1, lo, extent - r0))
        k0 += 1
    if k1 > k0:
        zones.append((k0, k1 - k0, k0 * extent, extent))
    if r1:
        zones.append((k1, 1, k1 * extent, r1))
    return zones


def _interleaved_shape(counts: tuple[int, ...], exts: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(chain.from_iterable(zip(counts, exts)))


def _instance_major_perm(rank: int) -> tuple[int, ...]:
    # (count0, ext0, count1, ext1, ...) -> (counts..., exts...)
    return tuple(range(0, 2 * rank, 2)) + tuple(range(1, 2 * rank, 2))


def _batch_values(
    block: np.ndarray, counts: tuple[int, ...], exts: tuple[int, ...]
) -> np.ndarray:
    """Reorder a ``(counts*exts)``-shaped cell block into ``(n, cells)``
    rows, one C-order-flattened instance piece per row."""
    rank = len(counts)
    n = int(np.prod(counts))
    cells = int(np.prod(exts))
    interleaved = block.reshape(_interleaved_shape(counts, exts))
    rows = interleaved.transpose(_instance_major_perm(rank))
    return np.ascontiguousarray(rows).reshape(n, cells)


def _corner_grid(axes: list[np.ndarray]) -> np.ndarray:
    """(n, rank) array of instance-corner coordinates, C order."""
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack(mesh, axis=-1).reshape(-1, len(axes))


class ColumnarRecordReader:
    """Batched reader: every item is a ChunkBatch.

    Emits exactly the same logical records as
    :class:`~repro.query.recordreader.StructuralRecordReader` — same
    keys, same cells in the same C order — grouped into batches where
    the geometry allows and as one-row batches where it does not.
    """

    def __init__(self, source: Any, plan: QueryPlan, split: CoordinateSplit) -> None:
        self._source = source
        self._plan = plan
        self._split = split

    def __iter__(self) -> Iterator[ChunkBatch]:
        plan = self._plan
        for slab in self._split.slabs:
            work = slab.intersect(plan.covered)
            if work.is_empty:
                continue
            data = _read_slab(self._source, plan.variable, slab)
            # Clip to the subset: under keep_partial_instances the
            # covering box can extend past it, and the record plane's
            # instance_region() intersects with the subset too.
            core = work.intersect(plan.subset)
            if isinstance(plan.extraction, StridedExtraction):
                yield from self._iter_strided(plan, slab, work, core, data)
            else:
                yield from self._iter_dense(plan, slab, core, data)

    # ------------------------------------------------------------------ #
    def _iter_dense(
        self, plan: QueryPlan, slab: Slab, core: Slab, data: np.ndarray
    ) -> Iterator[ChunkBatch]:
        if core.is_empty:
            return
        ex = plan.extraction
        rank = core.rank
        rel_lo = coord_sub(core.corner, ex.origin)
        rel_hi = coord_sub(core.end, ex.origin)
        per_dim = [
            _zone_segments(lo, hi, s)
            for lo, hi, s in zip(rel_lo, rel_hi, ex.shape)
        ]
        for combo in product(*per_dim):
            counts = tuple(z[1] for z in combo)
            exts = tuple(z[3] for z in combo)
            slices = tuple(
                slice(
                    ex.origin[d] + combo[d][2] - slab.corner[d],
                    ex.origin[d] + combo[d][2] - slab.corner[d]
                    + counts[d] * exts[d],
                )
                for d in range(rank)
            )
            values = _batch_values(data[slices], counts, exts)
            axes = [
                ex.origin[d]
                + (combo[d][0] + np.arange(counts[d], dtype=np.int64))
                * ex.shape[d]
                for d in range(rank)
            ]
            keys = ex.translate_many(_corner_grid(axes))
            yield ChunkBatch(keys, values)

    # ------------------------------------------------------------------ #
    def _iter_strided(
        self,
        plan: QueryPlan,
        slab: Slab,
        work: Slab,
        core: Slab,
        data: np.ndarray,
    ) -> Iterator[ChunkBatch]:
        ex = plan.extraction
        rank = work.rank
        full = Slab(tuple(0 for _ in range(rank)), tuple(0 for _ in range(rank)))
        if not core.is_empty:
            rel_lo = coord_sub(core.corner, ex.origin)
            rel_hi = coord_sub(core.end, ex.origin)
            klo = []
            khi = []
            for lo, hi, st, sh in zip(rel_lo, rel_hi, ex.stride, ex.shape):
                klo.append(ceil_div(lo, st))
                khi.append((hi - sh) // st + 1 if hi >= sh else 0)
            full = Slab.from_extent(klo, khi).intersect(
                Slab.whole(plan.intermediate_space)
            )
        if not full.is_empty:
            counts = full.shape
            axes_idx = []
            corner_axes = []
            for d in range(rank):
                starts = (
                    ex.origin[d]
                    + (full.corner[d] + np.arange(counts[d], dtype=np.int64))
                    * ex.stride[d]
                )
                corner_axes.append(starts)
                local = starts - slab.corner[d]
                axes_idx.append(
                    (
                        local[:, None]
                        + np.arange(ex.shape[d], dtype=np.int64)[None, :]
                    ).reshape(-1)
                )
            block = data[np.ix_(*axes_idx)]
            values = _batch_values(block, tuple(counts), tuple(ex.shape))
            keys, mask = ex.translate_many(_corner_grid(corner_axes))
            assert bool(mask.all()), "full-instance corners must translate"
            yield ChunkBatch(keys, values)
        # Clipped edges and gap-straddling instances: the record plane's
        # exact per-instance slice of whatever the box didn't cover, one
        # row each (their cell counts differ).
        image = plan.image_of(work)
        for key in image.iter_coords():
            if not full.is_empty and full.contains(key):
                continue
            region = plan.instance_region(key).intersect(work)
            if region.is_empty:
                continue
            cells = data[region.as_local_slices(slab.corner)]
            yield ChunkBatch(np.asarray([key]), cells.reshape(1, -1))


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
