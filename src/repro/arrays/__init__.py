"""n-dimensional coordinate substrate.

Scientific file formats expose data through *logical coordinates* rather
than byte offsets (paper §2.1).  Everything in this reproduction — input
splits, intermediate keys, keyblocks, output regions — is a region of an
n-dimensional integer grid.  This package provides the algebra for those
regions:

* :class:`~repro.arrays.shape.Shape` / coordinate helpers — immutable
  integer tuples with element-wise arithmetic and row-major volume.
* :class:`~repro.arrays.slab.Slab` — a ``corner + shape`` axis-aligned box,
  the paper's unit of work ("pairs of n-dimensional coordinates specifying
  a corner and a shape", §2.1), with intersection / containment / tiling.
* :mod:`~repro.arrays.linearize` — bijective row-major linearization of
  coordinates and slabs, used by partition+ to define *contiguous*
  keyblocks (§3.1).
* :class:`~repro.arrays.extraction.ExtractionShape` — the SciHadoop
  extraction shape (§2.4.2) that maps the input keyspace K onto the
  intermediate keyspace K' (§3 Area 2/3), optionally strided.
"""

from repro.arrays.shape import (
    Coord,
    Shape,
    as_coord,
    ceil_div,
    coord_add,
    coord_div,
    coord_floordiv,
    coord_max,
    coord_min,
    coord_mod,
    coord_mul,
    coord_sub,
    volume,
)
from repro.arrays.slab import Slab, bounding_box, slabs_cover, slabs_disjoint
from repro.arrays.linearize import (
    coord_to_index,
    index_to_coord,
    row_major_strides,
    range_to_slabs,
    slab_index_range,
    slab_to_index_runs,
)
from repro.arrays.tiling import (
    grid_shape,
    tile_count,
    tile_of_coord,
    tile_slab,
    tiles_overlapping,
    iter_tiles,
)
from repro.arrays.extraction import ExtractionShape

__all__ = [
    "Coord",
    "Shape",
    "as_coord",
    "ceil_div",
    "coord_add",
    "coord_div",
    "coord_floordiv",
    "coord_max",
    "coord_min",
    "coord_mod",
    "coord_mul",
    "coord_sub",
    "volume",
    "Slab",
    "bounding_box",
    "slabs_cover",
    "slabs_disjoint",
    "coord_to_index",
    "index_to_coord",
    "row_major_strides",
    "range_to_slabs",
    "slab_index_range",
    "slab_to_index_runs",
    "grid_shape",
    "tile_count",
    "tile_of_coord",
    "tile_slab",
    "tiles_overlapping",
    "iter_tiles",
    "ExtractionShape",
]
