"""Extraction shapes: the K -> K' key translation (paper §2.4.2, §3).

An extraction shape is "a concrete representation of the units of data
that the operator ... will be applied to" (§2.4.2): the input space K is
logically tiled by instances of the shape and each instance becomes one
intermediate key in K'.  SIDR leverages it to solve the paper's opaque
Area 2 (Map input key -> Map output key) and Area 3 (exact intermediate
keyspace K'_T) deterministically:

* ``translate(k)``    — k' = (k - origin) // stride  (element-wise, §3)
* ``image(slab)``     — the K' region a K region produces data for
* ``preimage(k')``    — the K region that feeds one intermediate key
* ``intermediate_space(input_shape)`` — the exact shape of K'_T

Truncation semantics: the paper's weekly-average example "throws away the
data from the 365-th day" (§3 Area 3), i.e. trailing input that does not
fill a whole extraction-shape instance is dropped.  That is the default
(``truncate=True``); ``truncate=False`` keeps clipped edge instances
(ceil semantics), which some queries want (e.g. counting cells per
region at the boundary).

Strided access is the same geometry: "reading data at regularly spaced
intervals can be described by adding an additional n-dimensional array
indicating the stride lengths between extraction shape instances"
(§2.4.2).  Instance ``i`` occupies ``[i * stride, i * stride + shape)``
per dimension; a dense extraction is the case ``stride == shape``.
Cells in the gaps between instances belong to no intermediate key.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arrays.shape import (
    Coord,
    Shape,
    as_coord,
    ceil_div,
    coord_sub,
)
from repro.arrays.slab import Slab
from repro.errors import GeometryError, QueryError, RankMismatchError


@dataclass(frozen=True)
class ExtractionShape:
    """Instances of ``shape`` placed every ``stride`` cells from
    ``origin``.

    Parameters
    ----------
    shape:
        Extents of one instance (e.g. ``{7, 5, 1}`` for weekly averages
        down-sampled 5x in latitude, §3 Area 2).
    origin:
        Global coordinate of the first instance's corner; defaults to the
        zero vector.  Queries over a subset of a dataset set this to the
        subset corner so translation stays in global coordinates.
    truncate:
        Drop trailing partial instances (paper default) or keep them.
    stride:
        Distance between instance corners; defaults to ``shape`` (dense:
        instances tile K with no gaps).  ``stride[d] >= shape[d]`` is
        required.
    """

    shape: Shape
    origin: Coord | None = None
    truncate: bool = True
    stride: Shape | None = None

    def __post_init__(self) -> None:
        shape = as_coord(self.shape)
        if any(s <= 0 for s in shape):
            raise GeometryError(f"extraction shape must be positive: {shape!r}")
        origin = (
            tuple(0 for _ in shape)
            if self.origin is None
            else as_coord(self.origin)
        )
        if len(origin) != len(shape):
            raise RankMismatchError("extraction origin/shape rank mismatch")
        stride = shape if self.stride is None else as_coord(self.stride)
        if len(stride) != len(shape):
            raise RankMismatchError("extraction shape/stride rank mismatch")
        if any(st < sh for st, sh in zip(stride, shape)):
            raise GeometryError(
                f"stride {stride!r} smaller than shape {shape!r}"
            )
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "stride", stride)

    @property
    def rank(self) -> int:
        return len(self.shape)

    @property
    def cells_per_key(self) -> int:
        """|K| cells contributing to each k' — used by the count-annotation
        correctness check (§3.2.1 approach 2)."""
        n = 1
        for s in self.shape:
            n *= s
        return n

    def _relative(self, coord: Coord, what: str) -> Coord:
        if len(coord) != self.rank:
            raise RankMismatchError(
                f"{what} rank {len(coord)} != extraction rank {self.rank}"
            )
        rel = coord_sub(coord, self.origin)
        if any(x < 0 for x in rel):
            raise GeometryError(
                f"{what} {coord!r} precedes extraction origin {self.origin!r}"
            )
        return rel

    # ------------------------------------------------------------------ #
    # Scalar translation
    # ------------------------------------------------------------------ #
    def translate(self, key: Coord) -> Coord | None:
        """Map a K key to its K' key (paper §3 Area 2), or ``None`` when
        the cell lies in a stride gap and is not consumed by the query
        (never, when ``stride == shape``)."""
        out = []
        for x, st, sh in zip(self._relative(key, "key"), self.stride, self.shape):
            q, r = divmod(x, st)
            if r >= sh:
                return None
            out.append(q)
        return tuple(out)

    # ------------------------------------------------------------------ #
    # Region translation
    # ------------------------------------------------------------------ #
    def image(self, region: Slab, intermediate_space: Shape | None = None) -> Slab:
        """K' region that a K region produces intermediate keys for.

        Exact, strides included: per dimension the instances an interval
        meets are a contiguous run, and a slab meets an instance iff it
        does in every dimension — so a region lying wholly in stride
        gaps has an empty image, and every key of a non-empty image has
        a cell in the region.

        When ``intermediate_space`` is given (the query's K'_T shape) the
        image is clipped to it — under truncate semantics, input cells in
        a dropped trailing instance produce no key at all.
        """
        if region.rank != self.rank:
            raise RankMismatchError("region/extraction rank mismatch")
        if region.is_empty:
            return Slab(tuple(0 for _ in self.shape), tuple(0 for _ in self.shape))
        lo = []
        for x, st, sh in zip(
            self._relative(region.corner, "region corner"), self.stride, self.shape
        ):
            q, r = divmod(x, st)
            # A region starting past the end of instance q in this
            # dimension first meets instance q + 1.
            lo.append(q if r < sh else q + 1)
        # One past the last instance whose start precedes the region end.
        hi = [
            ceil_div(x, st)
            for x, st in zip(coord_sub(region.end, self.origin), self.stride)
        ]
        img = Slab.from_extent(tuple(lo), tuple(hi))
        if intermediate_space is not None:
            img = img.intersect(Slab.whole(intermediate_space))
        return img

    def preimage(self, key: Coord) -> Slab:
        """K region (one instance) whose cells all map to intermediate
        key ``key``."""
        if len(key) != self.rank:
            raise RankMismatchError("key/extraction rank mismatch")
        corner = tuple(
            o + k * st for o, k, st in zip(self.origin, key, self.stride)
        )
        return Slab(corner, self.shape)

    # ------------------------------------------------------------------ #
    # Intermediate keyspace
    # ------------------------------------------------------------------ #
    def intermediate_space(self, input_shape: Shape) -> Shape:
        """Exact K'_T shape for an input region of ``input_shape`` starting
        at the extraction origin (paper §3 Area 3: "dividing the length of
        each dimension in K_T by the entry in the corresponding dimension
        of the extraction shape"): the instances that fit whole under
        ``truncate``, else every instance holding at least one cell."""
        if len(input_shape) != self.rank:
            raise RankMismatchError("input shape rank mismatch")
        if self.truncate:
            # instance i occupies [i*st, i*st + sh): count i*st + sh <= d
            out = tuple(
                0 if d < sh else (d - sh) // st + 1
                for d, st, sh in zip(input_shape, self.stride, self.shape)
            )
        else:
            out = tuple(ceil_div(d, st) for d, st in zip(input_shape, self.stride))
        if any(x == 0 for x in out):
            raise QueryError(
                f"extraction shape {self.shape!r} (stride {self.stride!r}) "
                f"larger than input {input_shape!r} in some dimension; "
                "no complete instance"
            )
        return out
