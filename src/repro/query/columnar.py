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
  the box of fully-contained instances via one ``np.ix_`` gather and
  fall back to per-instance ``(key, Chunk)`` records for clipped edges
  and stride-gap overlaps — the record plane's exact loop, so the two
  planes emit identical logical records.
* :func:`batch_operator_for` — maps a distributive
  :class:`~repro.query.operators.StructuralOperator` to a
  :class:`StructuralBatchOperator` computing whole-batch partials in one
  ``axis=1`` reduction per state column and merging same-key runs with
  segmented ``ufunc.reduceat`` reductions.  The segmented fold
  runs each segment strictly left to right — the same order as the
  scalar ``combine`` implementations' built-in ``sum``/``min``/``max`` —
  and ``finalize_columns`` is one array expression per operator built
  only from IEEE operations that round the same in numpy and in Python
  floats (``+ - * /``, ``sqrt``, comparisons), so columnar output is
  byte-identical to the record plane.  Holistic operators
  (median, sort) return ``None``: those jobs run on the record plane.
  ``filter_gt`` — a variable-length partial — gets the dedicated
  :class:`_FilterBatchOperator`, which pushes the predicate down into
  one whole-batch boolean mask (its single state column is object-dtype:
  element ``i`` is instance ``i``'s surviving values in cell order).
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from itertools import chain, product
from typing import Any

import numpy as np

from repro.arrays.extraction import StridedExtraction
from repro.arrays.shape import ceil_div, coord_sub
from repro.arrays.slab import Slab
from repro.errors import QueryError
from repro.mapreduce.columnar import ChunkBatch
from repro.query.language import QueryPlan
from repro.query.operators import Chunk, StructuralOperator
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
    """Batched reader: ChunkBatch items for vectorizable instance groups,
    per-instance ``(key, Chunk)`` fallback records for the rest.

    Emits exactly the same logical records as
    :class:`~repro.query.recordreader.StructuralRecordReader` — same
    keys, same cells in the same C order — just grouped into batches
    where the geometry allows.
    """

    def __init__(self, source: Any, plan: QueryPlan, split: CoordinateSplit) -> None:
        self._source = source
        self._plan = plan
        self._split = split

    def __iter__(self) -> Iterator[Any]:
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
    ) -> Iterator[Any]:
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
        # exact per-instance loop over whatever the batch didn't cover.
        image = plan.image_of(work)
        for key in image.iter_coords():
            if not full.is_empty and full.contains(key):
                continue
            region = plan.instance_region(key).intersect(work)
            if region.is_empty:
                continue
            cells = data[region.as_local_slices(slab.corner)]
            flat = np.ascontiguousarray(cells).reshape(-1)
            yield (key, Chunk(flat, int(flat.size)))


def make_columnar_reader_factory(
    source: Any, plan: QueryPlan
) -> Callable[[CoordinateSplit], Iterator[Any]]:
    """Columnar reader factory for :class:`repro.mapreduce.job.JobConf`."""

    def factory(split: CoordinateSplit) -> Iterator[Any]:
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


class StructuralBatchOperator:
    """Vectorized face of one distributive operator.

    ``map_record`` delegates to the scalar operator (clipped edges are
    few); the per-batch ``axis=1`` fold, the segmented combine and the
    whole-column finalize are array code constructed to reproduce the
    scalar arithmetic bit for bit (see the byte-identity tests, which
    hold ``finalize_columns`` against ``operator.finalize`` row by row).
    """

    def __init__(
        self,
        operator: StructuralOperator,
        map_batch: Callable[[np.ndarray], tuple[np.ndarray, ...]],
        combine_ufuncs: tuple[np.ufunc, ...],
        finalize: Callable[..., np.ndarray | list],
    ) -> None:
        self.operator = operator
        self._map_batch = map_batch
        self._ufuncs = combine_ufuncs
        self._finalize = finalize

    def map_batch(self, values: np.ndarray) -> tuple[np.ndarray, ...]:
        return self._map_batch(values)

    def map_record(self, chunk: Chunk) -> tuple[tuple[Any, ...], int]:
        p = self.operator.map_partial(chunk)
        state = p.state if isinstance(p.state, tuple) else (p.state,)
        return state, p.source_count

    def combine_columns(
        self, columns: tuple[np.ndarray, ...], starts: np.ndarray
    ) -> tuple[np.ndarray, ...]:
        return tuple(
            _segmented_fold(uf, col, starts)
            for uf, col in zip(self._ufuncs, columns)
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
            return self._finalize(*columns)


def _counts_column(values: np.ndarray) -> np.ndarray:
    return np.full(values.shape[0], values.shape[1], dtype=np.int64)


def _require_cells(count: np.ndarray, what: str) -> None:
    if count.size and not count.all():
        raise QueryError(f"{what} of zero cells")


def _build_sum(op: StructuralOperator) -> StructuralBatchOperator:
    return StructuralBatchOperator(
        op,
        lambda v: (v.sum(axis=1).astype(np.float64, copy=False),),
        (np.add,),
        _f64,
    )


def _build_count(op: StructuralOperator) -> StructuralBatchOperator:
    return StructuralBatchOperator(
        op,
        lambda v: (_counts_column(v),),
        (np.add,),
        lambda count: np.asarray(count, dtype=np.int64),
    )


def _build_mean(op: StructuralOperator) -> StructuralBatchOperator:
    def finalize(total: np.ndarray, count: np.ndarray) -> np.ndarray:
        _require_cells(count, "mean")
        return total / count

    return StructuralBatchOperator(
        op,
        lambda v: (_f64(v).sum(axis=1), _counts_column(v)),
        (np.add, np.add),
        finalize,
    )


def _build_min(op: StructuralOperator) -> StructuralBatchOperator:
    return StructuralBatchOperator(
        op,
        lambda v: (v.min(axis=1).astype(np.float64, copy=False),),
        (np.minimum,),
        _f64,
    )


def _build_max(op: StructuralOperator) -> StructuralBatchOperator:
    return StructuralBatchOperator(
        op,
        lambda v: (v.max(axis=1).astype(np.float64, copy=False),),
        (np.maximum,),
        _f64,
    )


def _build_stddev(op: StructuralOperator) -> StructuralBatchOperator:
    def map_batch(v: np.ndarray) -> tuple[np.ndarray, ...]:
        w = _f64(v)
        return (_counts_column(v), w.sum(axis=1), np.square(w).sum(axis=1))

    def finalize(n: np.ndarray, s: np.ndarray, ss: np.ndarray) -> np.ndarray:
        _require_cells(n, "stddev")
        mean = s / n
        var = ss / n - mean * mean
        # ``where(var > 0)`` is the scalar ``max(0.0, var)`` exactly:
        # a NaN or negative-zero variance clamps to +0.0 in both.
        return np.sqrt(np.where(var > 0.0, var, 0.0))

    return StructuralBatchOperator(
        op, map_batch, (np.add, np.add, np.add), finalize
    )


def _minmax_batch(v: np.ndarray) -> tuple[np.ndarray, ...]:
    w = _f64(v)
    return (w.min(axis=1), w.max(axis=1))


def _build_range(op: StructuralOperator) -> StructuralBatchOperator:
    return StructuralBatchOperator(
        op,
        _minmax_batch,
        (np.minimum, np.maximum),
        lambda lo, hi: hi - lo,
    )


def _build_range_exceeds(op: StructuralOperator) -> StructuralBatchOperator:
    threshold = float(op.threshold)  # type: ignore[attr-defined]

    def finalize(lo: np.ndarray, hi: np.ndarray) -> list:
        variation = hi - lo
        return [
            {"exceeds": e, "variation": v}
            for e, v in zip((variation > threshold).tolist(), variation.tolist())
        ]

    return StructuralBatchOperator(
        op, _minmax_batch, (np.minimum, np.maximum), finalize
    )


def _ragged_rows(col: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """An object column of float arrays as one flat value array plus
    per-row lengths (the rows laid end to end, in order)."""
    rows = col.tolist()
    lengths = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
    flat = np.concatenate(rows) if rows else np.empty(0, dtype=np.float64)
    return flat, lengths


class _FilterBatchOperator(StructuralBatchOperator):
    """filter_gt's vectorized face: predicate pushdown.

    One boolean mask per batch replaces the record plane's per-instance
    ``arr[arr > t]`` — the batch-path half of split skipping: splits the
    zone map could not prune entirely still do a single vectorized
    compare instead of per-instance Python.  The single state column is
    object-dtype; element ``i`` is instance ``i``'s surviving values in
    cell order.  Combine and finalize both work on the column laid out
    flat (values + row lengths): rows of one key are adjacent and in map
    order, so a key's combined state is a contiguous run of the flat
    array — the scalar ``np.concatenate`` order exactly — and finalize
    is one stable sort of the flat values within key segments, which
    orders each segment as the scalar ``sorted`` does.

    An all-masked row keeps its place: an empty survivors array with the
    row's full source count, matching the scalar ``map_partial`` on a
    nothing-passes chunk (§2.4.2 allows empty per-instance results and
    the §3.2.1 count annotation still needs the cells tallied).
    """

    def __init__(self, operator: StructuralOperator) -> None:
        self._threshold = float(operator.threshold)  # type: ignore[attr-defined]
        super().__init__(operator, self._mask_batch, (), self._sorted_lists)

    def _mask_batch(self, values: np.ndarray) -> tuple[np.ndarray, ...]:
        w = _f64(values)
        mask = w > self._threshold
        kept = mask.sum(axis=1)
        pieces = np.split(w[mask], np.cumsum(kept)[:-1]) if kept.size else []
        col = np.empty(w.shape[0], dtype=object)
        for i, piece in enumerate(pieces):
            # Per-element assignment: a slice assignment would try to
            # broadcast the ragged pieces into a 2-D block.
            col[i] = piece
        return (col,)

    def combine_columns(
        self, columns: tuple[np.ndarray, ...], starts: np.ndarray
    ) -> tuple[np.ndarray, ...]:
        col = columns[0]
        if starts.size == len(col):
            return (col,)  # every row its own key: nothing to merge
        flat, lengths = _ragged_rows(col)
        ends = np.add.reduceat(lengths, starts).cumsum()
        out = np.empty(len(starts), dtype=object)
        begin = 0
        for i, end in enumerate(ends.tolist()):
            out[i] = flat[begin:end]
            begin = end
        return (out,)

    @staticmethod
    def _sorted_lists(col: np.ndarray) -> list:
        flat, lengths = _ragged_rows(col)
        segment = np.repeat(np.arange(len(lengths)), lengths)
        # Stable within equal values, like ``sorted``; the predicate
        # already dropped NaNs (``nan > t`` is false).
        values = flat[np.lexsort((flat, segment))].tolist()
        ends = lengths.cumsum().tolist()
        return [values[a:b] for a, b in zip([0] + ends[:-1], ends)]

    def masked_cells(
        self, values: np.ndarray, columns: tuple[np.ndarray, ...]
    ) -> int:
        """Cells the pushdown mask dropped from this batch (the engine's
        ``pushdown.rows.masked`` counter)."""
        kept = sum(int(np.asarray(row).size) for row in columns[0])
        return int(values.size) - kept


#: Operator name -> batch adapter builder.  Only holistic operators
#: (median, sort) stay on the record plane: their reduce-side state is
#: the full value multiset, which no fixed set of columns carries.
_BUILDERS: dict[str, Callable[[StructuralOperator], StructuralBatchOperator]] = {
    "sum": _build_sum,
    "count": _build_count,
    "mean": _build_mean,
    "min": _build_min,
    "max": _build_max,
    "stddev": _build_stddev,
    "range": _build_range,
    "range_exceeds": _build_range_exceeds,
    "filter_gt": _FilterBatchOperator,
}


def batch_operator_for(op: StructuralOperator) -> StructuralBatchOperator | None:
    """Batch adapter for ``op``, or ``None`` when the operator cannot run
    columnar (the caller should fall back to the record plane)."""
    if not getattr(op, "distributive", False):
        return None
    builder = _BUILDERS.get(getattr(op, "name", ""))
    if builder is None:
        return None
    return builder(op)
