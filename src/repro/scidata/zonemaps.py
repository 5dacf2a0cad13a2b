"""Zone maps: per-tile min/max/count statistics over a variable.

A zone map partitions a variable's cell space into a regular grid of
tiles and records, for each tile, the minimum, maximum, and cell count
(plus an optional "entirely fill value" flag for sparse/pre-allocated
data).  They are the light-weight load-time index of "Only Aggressive
Elephants are Fast Elephants": computed in one pass while the data is
already in memory at write time, stored in the NCLite header, and read
back by the planner without touching the payload.

The planner uses :meth:`ZoneMap.region_bounds` to ask "what is a
conservative [min, max] envelope of the values inside this region?".
The answer is computed over every tile that *intersects* the region, so
it is a superset bound: the true min is never below, the true max never
above.  That makes pruning decisions built on it sound — a region whose
envelope provably cannot satisfy a predicate contains no matching cell.

Tile granularity trades pruning power against metadata size (the
tradeoff Aji et al. study for spatial partitions): one tile per cell
gives perfect bounds but a header as large as the data; one tile total
gives a six-number index that can almost never prune.
:func:`default_tile_shape` tiles along the first dimension only —
matching how ``slice_splits`` carves inputs — and targets about 1024
tiles regardless of dataset size.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.arrays.shape import Shape
from repro.arrays.slab import Slab
from repro.errors import FormatError

#: Target number of tiles for :func:`default_tile_shape`.
DEFAULT_TARGET_TILES = 1024


def default_tile_shape(space: Shape, target_tiles: int = DEFAULT_TARGET_TILES) -> Shape:
    """Tile shape covering ``space`` with about ``target_tiles`` tiles.

    Tiles only along dimension 0 (full extent elsewhere): input splits
    are row groups along dimension 0, so finer tiling of the other
    dimensions cannot improve whole-split pruning but does grow the
    header.
    """
    if not space:
        raise FormatError("zone map over a 0-dimensional space")
    rows = max(1, -(-space[0] // max(1, target_tiles)))
    return (rows,) + tuple(space[1:])


@dataclass(frozen=True, eq=False)
class ZoneMap:
    """Per-tile min/max/count statistics for one variable.

    ``mins``/``maxs``/``counts`` have the grid's shape
    (``ceil(space[d] / tile_shape[d])`` per dimension).  ``fill_tiles``
    marks tiles whose every cell equals ``fill_value`` (None when no
    fill value is known).
    """

    variable: str
    space: Shape
    tile_shape: Shape
    mins: np.ndarray
    maxs: np.ndarray
    counts: np.ndarray
    fill_value: float | None = None
    fill_tiles: np.ndarray | None = field(default=None)

    def __post_init__(self) -> None:
        if len(self.space) != len(self.tile_shape):
            raise FormatError(
                f"zone map {self.variable!r}: tile rank "
                f"{len(self.tile_shape)} != space rank {len(self.space)}"
            )
        if any(t <= 0 for t in self.tile_shape):
            raise FormatError(
                f"zone map {self.variable!r}: non-positive tile {self.tile_shape}"
            )
        grid = self.grid_shape
        for name in ("mins", "maxs", "counts"):
            arr = getattr(self, name)
            if tuple(arr.shape) != grid:
                raise FormatError(
                    f"zone map {self.variable!r}: {name} shape "
                    f"{tuple(arr.shape)} != tile grid {grid}"
                )
        if self.fill_tiles is not None and tuple(self.fill_tiles.shape) != grid:
            raise FormatError(
                f"zone map {self.variable!r}: fill_tiles shape mismatch"
            )

    @property
    def grid_shape(self) -> Shape:
        return tuple(
            -(-s // t) for s, t in zip(self.space, self.tile_shape)
        )

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def _tile_slices(self, region: Slab) -> tuple[slice, ...] | None:
        """Grid slices of every tile intersecting ``region`` (clipped to
        the variable space), or None when the clipped region is empty."""
        clipped = region.intersect(Slab.whole(self.space))
        if clipped.is_empty:
            return None
        return tuple(
            slice(c // t, -(-(c + s) // t))
            for c, s, t in zip(clipped.corner, clipped.shape, self.tile_shape)
        )

    def region_bounds(self, region: Slab) -> tuple[float, float] | None:
        """Conservative ``(min, max)`` envelope of values in ``region``.

        Computed over all tiles overlapping the region, so the envelope
        can only be wider than the truth — never narrower.  Returns
        None for a region outside the variable space.
        """
        sl = self._tile_slices(region)
        if sl is None:
            return None
        return float(self.mins[sl].min()), float(self.maxs[sl].max())

    # ------------------------------------------------------------------ #
    # Equality / serialization
    # ------------------------------------------------------------------ #
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ZoneMap):
            return NotImplemented
        fills_equal = (
            (self.fill_tiles is None) == (other.fill_tiles is None)
            and (
                self.fill_tiles is None
                or np.array_equal(self.fill_tiles, other.fill_tiles)
            )
        )
        return (
            self.variable == other.variable
            and self.space == other.space
            and self.tile_shape == other.tile_shape
            and self.fill_value == other.fill_value
            and np.array_equal(self.mins, other.mins)
            and np.array_equal(self.maxs, other.maxs)
            and np.array_equal(self.counts, other.counts)
            and fills_equal
        )

    def to_dict(self) -> dict:
        return {
            "variable": self.variable,
            "space": list(self.space),
            "tile_shape": list(self.tile_shape),
            "mins": self.mins.tolist(),
            "maxs": self.maxs.tolist(),
            "counts": self.counts.tolist(),
            "fill_value": self.fill_value,
            "fill_tiles": (
                None if self.fill_tiles is None
                else self.fill_tiles.astype(np.int8).tolist()
            ),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ZoneMap":
        try:
            fill_tiles = d.get("fill_tiles")
            return cls(
                variable=d["variable"],
                space=tuple(int(s) for s in d["space"]),
                tile_shape=tuple(int(t) for t in d["tile_shape"]),
                mins=np.asarray(d["mins"], dtype=np.float64),
                maxs=np.asarray(d["maxs"], dtype=np.float64),
                counts=np.asarray(d["counts"], dtype=np.int64),
                fill_value=(
                    None if d.get("fill_value") is None
                    else float(d["fill_value"])
                ),
                fill_tiles=(
                    None if fill_tiles is None
                    else np.asarray(fill_tiles, dtype=bool)
                ),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"malformed zone map dictionary: {exc}") from exc


def build_zone_map(
    variable: str,
    data: np.ndarray,
    tile_shape: Shape | None = None,
    fill_value: float | None = None,
) -> ZoneMap:
    """Scan ``data`` once and build its zone map.

    ``tile_shape`` defaults to :func:`default_tile_shape`.  When a
    ``fill_value`` is given, tiles consisting entirely of it are flagged
    in ``fill_tiles``.
    """
    space = tuple(int(s) for s in data.shape)
    if tile_shape is None:
        tile_shape = default_tile_shape(space)
    tile_shape = tuple(int(t) for t in tile_shape)
    if len(tile_shape) != len(space) or any(t <= 0 for t in tile_shape):
        raise FormatError(
            f"zone map {variable!r}: bad tile shape {tile_shape} "
            f"for space {space}"
        )
    grid = tuple(-(-s // t) for s, t in zip(space, tile_shape))
    mins = np.empty(grid, dtype=np.float64)
    maxs = np.empty(grid, dtype=np.float64)
    counts = np.empty(grid, dtype=np.int64)
    fills = np.empty(grid, dtype=bool) if fill_value is not None else None
    for idx in np.ndindex(*grid):
        sl = tuple(
            slice(i * t, min((i + 1) * t, s))
            for i, t, s in zip(idx, tile_shape, space)
        )
        tile = data[sl]
        mins[idx] = tile.min()
        maxs[idx] = tile.max()
        counts[idx] = tile.size
        if fills is not None:
            fills[idx] = bool((tile == fill_value).all())
    return ZoneMap(
        variable=variable,
        space=space,
        tile_shape=tile_shape,
        mins=mins,
        maxs=maxs,
        counts=counts,
        fill_value=fill_value,
        fill_tiles=fills,
    )


def constant_zone_map(
    variable: str,
    space: Shape,
    fill: float,
    tile_shape: Shape | None = None,
) -> ZoneMap:
    """Zone map of a constant-fill variable, computed without a scan.

    Used by ``write_nclite_empty``: every tile's min and max *are* the
    fill value, and every tile is pure fill.
    """
    space = tuple(int(s) for s in space)
    if tile_shape is None:
        tile_shape = default_tile_shape(space)
    tile_shape = tuple(int(t) for t in tile_shape)
    grid = tuple(-(-s // t) for s, t in zip(space, tile_shape))
    counts = np.empty(grid, dtype=np.int64)
    for idx in np.ndindex(*grid):
        n = 1
        for i, t, s in zip(idx, tile_shape, space):
            n *= min((i + 1) * t, s) - i * t
        counts[idx] = n
    return ZoneMap(
        variable=variable,
        space=space,
        tile_shape=tile_shape,
        mins=np.full(grid, float(fill)),
        maxs=np.full(grid, float(fill)),
        counts=counts,
        fill_value=float(fill),
        fill_tiles=np.ones(grid, dtype=bool),
    )
