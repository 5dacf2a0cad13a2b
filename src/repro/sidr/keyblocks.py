"""Keyblocks: the partitions of K' that partition+ produces.

A keyblock is a contiguous run of unit-shape instances in the row-major
order of the instance grid — equivalently (because unit shapes are
row-contiguous by construction) a contiguous row-major cell range in
K'_T.  Contiguity is what makes keyblocks translate into "dense,
contiguous chunks" of output (§1, §4.4).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.arrays.linearize import range_to_slabs
from repro.arrays.shape import Coord, Shape, volume
from repro.arrays.slab import Slab, bounding_box
from repro.errors import PartitionError


@dataclass(frozen=True)
class KeyBlock:
    """One reduce task's share of the intermediate keyspace."""

    index: int
    #: Half-open instance range in row-major instance-grid order.
    instance_range: tuple[int, int]
    #: Half-open row-major cell range in K'_T.
    cell_range: tuple[int, int]
    #: The K'_T space (needed to recover geometry from the cell range).
    space: Shape

    def __post_init__(self) -> None:
        ilo, ihi = self.instance_range
        clo, chi = self.cell_range
        if ilo < 0 or ihi < ilo:
            raise PartitionError(f"bad instance range {self.instance_range}")
        if clo < 0 or chi < clo or chi > volume(self.space):
            raise PartitionError(f"bad cell range {self.cell_range}")

    @property
    def num_instances(self) -> int:
        return self.instance_range[1] - self.instance_range[0]

    @property
    def num_keys(self) -> int:
        """Number of intermediate keys (K' cells) in this keyblock."""
        return self.cell_range[1] - self.cell_range[0]

    @cached_property
    def slabs(self) -> tuple[Slab, ...]:
        """Exact geometric form: disjoint slabs covering the cell range."""
        return tuple(range_to_slabs(*self.cell_range, self.space))

    @cached_property
    def bounding_slab(self) -> Slab:
        """Smallest slab containing the keyblock (over-approximation)."""
        if not self.slabs:
            raise PartitionError(f"empty keyblock {self.index}")
        return bounding_box(self.slabs)

    def contains_key(self, key: Coord) -> bool:
        return any(s.contains(key) for s in self.slabs)

    def overlaps(self, region: Slab) -> bool:
        """Exact overlap test against a K' region — the primitive behind
        dependency analysis."""
        return any(s.overlaps(region) for s in self.slabs)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"KeyBlock({self.index}, instances={self.instance_range}, "
            f"cells={self.cell_range})"
        )


@dataclass(frozen=True)
class KeyBlockPartition:
    """The complete partition+ output: all keyblocks plus the unit shape.

    Invariants (verified by ``validate()`` and by property tests):

    * blocks are ordered, non-empty, and their cell ranges exactly tile
      ``[0, |K'_T|)`` — every intermediate key belongs to exactly one
      keyblock;
    * instance counts differ by at most one among blocks 0..r-2, and the
      final block is allowed to be smaller (§3.1);
    * every block's cells are contiguous in row-major K' order.
    """

    space: Shape
    unit_shape: Shape
    blocks: tuple[KeyBlock, ...]
    skew_bound: int

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    @property
    def total_instances(self) -> int:
        return self.blocks[-1].instance_range[1] if self.blocks else 0

    def block_of_cell_index(self, idx: int) -> int:
        """Keyblock owning row-major K' cell index ``idx`` (binary search)."""
        lo, hi = 0, len(self.blocks)
        while lo < hi:
            mid = (lo + hi) // 2
            blk = self.blocks[mid]
            if idx < blk.cell_range[0]:
                hi = mid
            elif idx >= blk.cell_range[1]:
                lo = mid + 1
            else:
                return mid
        raise PartitionError(f"cell index {idx} in no keyblock")

    def cell_boundaries(self) -> list[int]:
        """Exclusive upper cell index per block — RangePartitioner input."""
        return [b.cell_range[1] for b in self.blocks]

    def sums(self, grid: np.ndarray) -> tuple[int, ...]:
        """Per-keyblock sums of ``grid``, an array of shape K'_T: each
        block is a contiguous row-major range, so one ``reduceat``."""
        if tuple(grid.shape) != tuple(self.space):
            raise PartitionError(
                f"grid shape {grid.shape} != keyspace {self.space}"
            )
        starts = [b.cell_range[0] for b in self.blocks]
        return tuple(int(x) for x in np.add.reduceat(grid.ravel(), starts))

    def max_skew_cells(self) -> int:
        """Largest difference in key counts between any two keyblocks."""
        sizes = [b.num_keys for b in self.blocks]
        return max(sizes) - min(sizes)

    def validate(self) -> None:
        """Check all structural invariants; raise PartitionError if broken."""
        if not self.blocks:
            raise PartitionError("partition with no keyblocks")
        total = volume(self.space)
        cursor = 0
        icursor = 0
        for i, b in enumerate(self.blocks):
            if b.index != i:
                raise PartitionError(f"block {i} has index {b.index}")
            if b.cell_range[0] != cursor:
                raise PartitionError(
                    f"cell gap before block {i}: {cursor} vs {b.cell_range[0]}"
                )
            if b.instance_range[0] != icursor:
                raise PartitionError(f"instance gap before block {i}")
            if b.num_keys <= 0:
                raise PartitionError(f"empty keyblock {i}")
            cursor = b.cell_range[1]
            icursor = b.instance_range[1]
        if cursor != total:
            raise PartitionError(
                f"blocks cover {cursor} cells, space has {total}"
            )
        # Skew: blocks other than the last differ by at most one instance.
        body = [b.num_instances for b in self.blocks[:-1]]
        if body and max(body) - min(body) > 1:
            raise PartitionError(
                f"instance skew {max(body) - min(body)} > 1 among leading blocks"
            )
        if self.blocks[-1].num_instances > max(body, default=self.blocks[-1].num_instances):
            raise PartitionError("final block larger than leading blocks")
