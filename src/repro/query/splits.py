"""Coordinate-defined input splits (SciHadoop, §2.4.1).

A :class:`CoordinateSplit` is defined "in terms of logical coordinates,
as opposed to byte-offsets, creating a situation where both RecordReader
input and output are defined at the same level of abstraction" — the
split and the key set it produces (K_Tᵢ) are equivalent, which is what
lets SIDR close opaque Area 1.

Two generators:

* :func:`aligned_slice_splits` — the serving split function: the
  service, ``repro.cli query`` / ``recovery`` / ``speculation`` and
  half of the fuzz cases cut here.  Boundaries fall on dim-0 stride
  multiples, so a split is exactly the whole instances it produces —
  no instance spans two splits, no map emits a partial, and a split's
  keys, partitions and spill order are fixed before it reads a byte
  (:func:`repro.query.columnar.map_geometry`).  Split sizes balance to
  whole instance rows, so the count is at most ``K'_T[0]``.
* :func:`slice_splits` — block-sized slicing of the covered input region
  along the slowest dimension, the SciHadoop default the paper measures
  (its Query 1 yields 2,781 such splits at 128 MB for a 348 GB dataset)
  and what the figures, ablations, examples and tutorial reproduce.
  Boundaries are *not* aligned to the extraction shape, so instances may
  span splits — the case that makes the §3.2.1 count annotation
  necessary.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arrays.linearize import slab_to_index_runs
from repro.arrays.shape import Shape
from repro.arrays.slab import Slab
from repro.dfs.filesystem import SimulatedDFS
from repro.errors import QueryError
from repro.query.language import QueryPlan


@dataclass(frozen=True)
class CoordinateSplit:
    """An input split defined as one or more slabs in K.

    ``item_bytes`` lets the split report its physical size (the
    scheduler's and simulator's cost-model input).
    """

    index: int
    variable: str
    slabs: tuple[Slab, ...]
    item_bytes: int
    preferred_hosts: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.slabs:
            raise QueryError("coordinate split with no slabs")
        if any(s.is_empty for s in self.slabs):
            raise QueryError("coordinate split contains an empty slab")
        if self.item_bytes <= 0:
            raise QueryError("item_bytes must be positive")

    @property
    def cells(self) -> int:
        return sum(s.volume for s in self.slabs)

    @property
    def length_bytes(self) -> int:
        return self.cells * self.item_bytes

    def with_hosts(self, hosts: tuple[str, ...]) -> "CoordinateSplit":
        return CoordinateSplit(
            index=self.index,
            variable=self.variable,
            slabs=self.slabs,
            item_bytes=self.item_bytes,
            preferred_hosts=hosts,
        )

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        parts = "+".join(
            f"{list(s.corner)}/{list(s.shape)}" for s in self.slabs
        )
        return f"{self.variable}@{parts}"


def _balanced_boundaries(total_rows: int, groups: int) -> list[int]:
    """Cut points dividing ``total_rows`` into ``groups`` runs whose sizes
    differ by at most one row."""
    base, extra = divmod(total_rows, groups)
    cuts = [0]
    for g in range(groups):
        cuts.append(cuts[-1] + base + (1 if g < extra else 0))
    return cuts


def slice_splits(plan: QueryPlan, *, num_splits: int) -> list[CoordinateSplit]:
    """Slice the covered region into ``num_splits`` contiguous dim-0 row
    groups (at most one per row)."""
    covered = plan.covered
    rows = covered.shape[0]
    groups = min(num_splits, rows)
    if groups <= 0:
        raise QueryError("cannot create zero splits")
    cuts = _balanced_boundaries(rows, groups)
    splits: list[CoordinateSplit] = []
    for i in range(groups):
        corner = (covered.corner[0] + cuts[i],) + covered.corner[1:]
        shape = (cuts[i + 1] - cuts[i],) + covered.shape[1:]
        splits.append(
            CoordinateSplit(
                index=i,
                variable=plan.variable,
                slabs=(Slab(corner, shape),),
                item_bytes=plan.item_bytes,
            )
        )
    return splits


def aligned_slice_splits(
    plan: QueryPlan,
    *,
    num_splits: int,
) -> list[CoordinateSplit]:
    """Like :func:`slice_splits` but boundaries fall on multiples of the
    dim-0 stride, so no instance spans two splits.

    The units are the ``K'_T[0]`` instance rows: the last one may be
    shorter than its stride (it ends where ``covered`` does), so the
    count is ``min(num_splits, K'_T[0])``, not a division of the rows.
    """
    covered = plan.covered
    unit = plan.extraction.stride[0]
    rows = covered.shape[0]
    units = plan.intermediate_space[0]
    groups = min(num_splits, units)
    if groups <= 0:
        raise QueryError("cannot create zero splits")
    cuts = _balanced_boundaries(units, groups)
    splits: list[CoordinateSplit] = []
    for i in range(groups):
        start_row = cuts[i] * unit
        end_row = cuts[i + 1] * unit if i + 1 < groups else rows
        corner = (covered.corner[0] + start_row,) + covered.corner[1:]
        shape = (end_row - start_row,) + covered.shape[1:]
        splits.append(
            CoordinateSplit(
                index=i,
                variable=plan.variable,
                slabs=(Slab(corner, shape),),
                item_bytes=plan.item_bytes,
            )
        )
    return splits


def attach_locality(
    splits: list[CoordinateSplit],
    dfs: SimulatedDFS,
    path: str,
    input_space: Shape,
) -> list[CoordinateSplit]:
    """Resolve each split's preferred hosts — the three hosts holding
    most of its bytes — from DFS block placement.

    A coordinate split's bytes are the row-major runs of its slabs within
    the variable payload; the hosts covering most of those bytes become
    the split's preferred hosts.  This is where the paper's §2.4.1 caveat
    shows up: a logically clean slab may physically span several blocks,
    diluting locality.
    """
    out: list[CoordinateSplit] = []
    for sp in splits:
        from collections import Counter

        weights: Counter[str] = Counter()
        for slab in sp.slabs:
            for lo, hi in slab_to_index_runs(slab, input_space):
                start = lo * sp.item_bytes
                length = (hi - lo) * sp.item_bytes
                for host in dfs.hosts_for_range(path, start, length):
                    weights[host] += length
        ranked = tuple(h for h, _ in weights.most_common(3))
        out.append(sp.with_hosts(ranked))
    return out
