"""Row-major linearization of coordinates and slabs.

partition+ (paper §3.1) defines *contiguous* keyblocks: ranges of
intermediate keys that are adjacent in the dataset's natural (row-major)
order.  This module provides the bijection between n-dimensional
coordinates and their row-major linear index within a space, plus the
decomposition of a slab into maximal contiguous index runs — the structure
that makes contiguous output writes (§4.4) efficient.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from repro.arrays.shape import Coord, Shape, volume
from repro.arrays.slab import Slab
from repro.errors import GeometryError, RankMismatchError


def row_major_strides(space: Shape) -> Coord:
    """Per-dimension index strides for row-major (C) order.

    ``strides[-1] == 1`` and ``strides[d] == product(space[d+1:])``.
    """
    strides = [1] * len(space)
    for d in range(len(space) - 2, -1, -1):
        strides[d] = strides[d + 1] * space[d + 1]
    return tuple(strides)


def coord_to_index(coord: Coord, space: Shape) -> int:
    """Row-major linear index of ``coord`` within ``space``.

    Raises :class:`GeometryError` when the coordinate is out of bounds —
    a silent wrap here would corrupt keyblock routing.
    """
    if len(coord) != len(space):
        raise RankMismatchError(
            f"coord rank {len(coord)} != space rank {len(space)}"
        )
    idx = 0
    for x, ext in zip(coord, space):
        if not (0 <= x < ext):
            raise GeometryError(f"coordinate {coord!r} outside space {space!r}")
        idx = idx * ext + x
    return idx


def index_to_coord(index: int, space: Shape) -> Coord:
    """Inverse of :func:`coord_to_index`."""
    vol = volume(space)
    if not (0 <= index < vol):
        raise GeometryError(f"index {index} outside space of volume {vol}")
    out = [0] * len(space)
    for d in range(len(space) - 1, -1, -1):
        out[d] = index % space[d]
        index //= space[d]
    return tuple(out)


def coords_to_indices(coords: np.ndarray, space: Shape) -> np.ndarray:
    """Vectorized :func:`coord_to_index` for an ``(n, rank)`` int array."""
    coords = np.asarray(coords, dtype=np.int64)
    if coords.ndim != 2 or coords.shape[1] != len(space):
        raise RankMismatchError(
            f"expected (n, {len(space)}) coordinate array, got {coords.shape}"
        )
    if coords.size:
        # Column-wise min/max keeps the bounds check allocation-free
        # relative to materializing full boolean comparison arrays — this
        # sits on the partitioner hot path (§4.5).
        lo = coords.min(axis=0)
        hi = coords.max(axis=0)
        if (lo < 0).any() or (hi >= np.asarray(space, dtype=np.int64)).any():
            raise GeometryError("coordinate array contains out-of-bounds points")
    strides = np.asarray(row_major_strides(space), dtype=np.int64)
    return coords @ strides


def slab_index_range(slab: Slab, space: Shape) -> tuple[int, int]:
    """Half-open ``[lo, hi)`` index range spanned by ``slab`` in ``space``.

    The range covers all of the slab's cells but, unless the slab is
    row-major-contiguous, also covers cells outside the slab; use
    :func:`slab_to_index_runs` for the exact cell set.
    """
    if slab.is_empty:
        lo = coord_to_index(slab.corner, space) if volume(space) else 0
        return lo, lo
    lo = coord_to_index(slab.corner, space)
    last = tuple(c + e - 1 for c, e in zip(slab.corner, slab.shape))
    hi = coord_to_index(last, space) + 1
    return lo, hi


def slab_is_contiguous(slab: Slab, space: Shape) -> bool:
    """True when the slab's cells form one contiguous row-major index run.

    A slab is contiguous iff, scanning dimensions from slowest to fastest,
    every dimension after the first one with extent > 1 spans its entire
    space extent.  (Equivalently: index span == volume.)
    """
    if slab.is_empty:
        return True
    lo, hi = slab_index_range(slab, space)
    return hi - lo == slab.volume


def slab_to_index_runs(slab: Slab, space: Shape) -> Iterator[tuple[int, int]]:
    """Yield maximal contiguous ``[lo, hi)`` row-major index runs covering
    exactly the slab's cells, in increasing order.

    The decomposition walks the slab's "row prefix": the leading dims
    before the contiguous suffix.  The number of runs is the volume of
    that prefix, which is what makes dense (contiguous) keyblocks cheap
    to write and sparse ones expensive (Table 2).
    """
    if slab.is_empty:
        return
    rank = slab.rank
    # Find the longest suffix of dimensions fully spanned by the slab.
    # Everything from `split` onward is contiguous within one run.
    split = rank
    while split > 0 and slab.corner[split - 1] == 0 and slab.shape[split - 1] == space[split - 1]:
        split -= 1
    # The dimension just before the fully-spanned suffix may have extent >1
    # without breaking contiguity of a single run *within one prefix row*.
    if split > 0:
        split -= 1
    run_len = 1
    for d in range(split, rank):
        run_len *= slab.shape[d]
    prefix = Slab(slab.corner[:split], slab.shape[:split])
    strides = row_major_strides(space)
    if split == 0:
        start = coord_to_index(slab.corner, space)
        yield (start, start + run_len)
        return
    suffix_corner = slab.corner[split:]
    for pcoord in prefix.iter_coords():
        start = coord_to_index(pcoord + suffix_corner, space)
        yield (start, start + run_len)


def range_to_slabs(lo: int, hi: int, space: Shape) -> list[Slab]:
    """Decompose a contiguous row-major index range ``[lo, hi)`` into a
    minimal list of disjoint slabs covering exactly those cells.

    This is the inverse direction of :func:`slab_to_index_runs`: SIDR's
    keyblocks are contiguous index ranges in K' (paper §3.1), and turning
    them back into slabs gives the geometric form needed for dependency
    intersection tests and contiguous output regions.  A contiguous range
    decomposes into at most ``2*rank - 1`` slabs (a ragged head, a boxy
    middle, a ragged tail, recursively).
    """
    vol = volume(space)
    if not (0 <= lo <= hi <= vol):
        raise GeometryError(f"range [{lo}, {hi}) outside space of volume {vol}")
    if lo == hi:
        return []
    if not space:
        return [Slab((), ())]
    out: list[Slab] = []
    _range_to_slabs_rec(lo, hi, space, (), out)
    return out


def _range_to_slabs_rec(
    lo: int, hi: int, space: Shape, prefix: Coord, out: list[Slab]
) -> None:
    """Recursive helper: emit slabs for range [lo, hi) of ``space``, with
    ``prefix`` prepended to every emitted slab's coordinates."""
    if lo >= hi:
        return
    if len(space) == 1:
        out.append(Slab(prefix + (lo,), (1,) * len(prefix) + (hi - lo,)))
        return
    row = volume(space[1:])
    first_row, first_off = divmod(lo, row)
    last_row, last_off = divmod(hi, row)  # exclusive
    if first_row == last_row or (first_row + 1 == last_row and last_off == 0):
        # Entire range within one row: recurse into the tail dims.
        _range_to_slabs_rec(
            first_off,
            first_off + (hi - lo),
            space[1:],
            prefix + (first_row,),
            out,
        )
        return
    if lo > first_row * row:
        _range_to_slabs_rec(first_off, row, space[1:], prefix + (first_row,), out)
        body_start = first_row + 1
    else:
        body_start = first_row
    body_end = last_row
    if body_start < body_end:
        out.append(
            Slab(
                prefix + (body_start,) + (0,) * (len(space) - 1),
                (1,) * len(prefix)
                + (body_end - body_start,)
                + tuple(space[1:]),
            )
        )
    if last_off > 0:
        _range_to_slabs_rec(0, last_off, space[1:], prefix + (last_row,), out)


def count_index_runs(slab: Slab, space: Shape) -> int:
    """Number of contiguous runs :func:`slab_to_index_runs` would yield."""
    if slab.is_empty:
        return 0
    rank = slab.rank
    split = rank
    while split > 0 and slab.corner[split - 1] == 0 and slab.shape[split - 1] == space[split - 1]:
        split -= 1
    if split > 0:
        split -= 1
    n = 1
    for d in range(split):
        n *= slab.shape[d]
    return n


def index_runs(indices: np.ndarray) -> np.ndarray:
    """The ``(R, 2)`` int64 ``[start, stop)`` runs of consecutive values
    in a strictly increasing 1-D index array, in order."""
    if not indices.size:
        return np.empty((0, 2), dtype=np.int64)
    cuts = (indices[1:] != indices[:-1] + 1).nonzero()[0] + 1
    runs = np.empty((cuts.size + 1, 2), dtype=np.int64)
    runs[0, 0], runs[-1, 1] = indices[0], indices[-1] + 1
    runs[1:, 0] = indices[cuts]
    runs[:-1, 1] = indices[cuts - 1] + 1
    return runs


def expand_runs(runs: np.ndarray) -> np.ndarray:
    """The int64 indices an ``(R, 2)`` table of ``[start, stop)`` runs
    covers, run after run: the inverse of :func:`index_runs`."""
    lengths = runs[:, 1] - runs[:, 0]
    shift = runs[:, 0] - (np.cumsum(lengths) - lengths)
    return np.repeat(shift, lengths) + np.arange(int(lengths.sum()), dtype=np.int64)
