"""Dependency analysis: which splits feed which keyblocks (paper §3.2).

"Data dependencies are determined when a query begins by calculating
which keyblocks each Iᵢ will generate data for and then inverting those
relationships (the end result is a map from keyblocks to Iᵢ)"
(§3.2.1).  Both directions are kept:

* ``producers[i]``   — keyblocks split ``i`` produces data for;
* ``dependencies[l]`` — I_l, the splits keyblock ``l`` depends on.

The forward computation is purely geometric: the image of each split's
slabs in K' (Area 2) is intersected with each keyblock's slab form.
Because both the image and the keyblocks derive from the same exact
K'_T, the result is exact, not an over-approximation — tests verify it
against the ground-truth map-output index of real engine runs.

The module also implements the paper's store-vs-recompute choice
(§3.2.1): :func:`compute_dependencies` builds the full stored map, while
:meth:`DependencyMap.recompute_for_block` derives a single I_l on demand
(what a reduce task would do at startup).

Connection accounting (§4.6, Table 3): stock Hadoop opens
``maps x reduces`` connections ("every Reduce task contact every
completed Map task"); SIDR opens ``sum_l |I_l|``.
"""

from __future__ import annotations

import bisect
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

from repro.arrays.linearize import slab_index_range
from repro.arrays.slab import Slab
from repro.errors import PartitionError
from repro.query.language import QueryPlan
from repro.query.splits import CoordinateSplit
from repro.sidr.keyblocks import KeyBlockPartition


@dataclass(frozen=True)
class DependencyMap:
    """Bidirectional split/keyblock dependency relation."""

    num_splits: int
    num_blocks: int
    producers: tuple[frozenset[int], ...]     # split  -> keyblocks
    dependencies: tuple[frozenset[int], ...]  # block  -> splits (I_l)

    def __post_init__(self) -> None:
        if len(self.producers) != self.num_splits:
            raise PartitionError("producers length mismatch")
        if len(self.dependencies) != self.num_blocks:
            raise PartitionError("dependencies length mismatch")

    # ------------------------------------------------------------------ #
    def dependency_barrier(self) -> dict[int, frozenset[int]]:
        """Input for :class:`repro.mapreduce.engine.DependencyBarrier`."""
        return {l: deps for l, deps in enumerate(self.dependencies)}

    @cached_property
    def sidr_connections(self) -> int:
        """Total reduce->map connections under SIDR: sum of |I_l|."""
        return sum(len(d) for d in self.dependencies)

    def hadoop_connections(self) -> int:
        """Total connections under stock Hadoop: every reduce contacts
        every map."""
        return self.num_splits * self.num_blocks

    def max_dependency_size(self) -> int:
        return max((len(d) for d in self.dependencies), default=0)

    def criticality(
        self,
        split_index: int,
        pending_blocks: "Sequence[int] | frozenset[int] | None" = None,
    ) -> float:
        """How many *pending* keyblocks split ``split_index`` blocks.

        This is the structure-aware speculation signal: a straggling map
        whose output feeds many unfinished I_l sets gates more reduces
        (and more early results) than one feeding a single block, so its
        backup attempt should launch first.  ``pending_blocks`` limits
        the count to keyblocks still waiting (default: all).
        """
        blocks = self.producers[split_index]
        if pending_blocks is not None:
            blocks = blocks & frozenset(pending_blocks)
        return float(len(blocks))

    def mean_dependency_size(self) -> float:
        if not self.dependencies:
            return 0.0
        return self.sidr_connections / self.num_blocks

    def validate_complete(
        self, allow_empty: frozenset[int] = frozenset()
    ) -> None:
        """Every keyblock must depend on at least one split and every
        producer edge must appear in both directions.

        ``allow_empty`` lists keyblocks legitimately without producers:
        split pruning can remove every split feeding a block, whose keys
        the planner then synthesizes (its barrier is trivially ready and
        its expected source-cell count is zero).
        """
        for l, deps in enumerate(self.dependencies):
            if not deps and l not in allow_empty:
                raise PartitionError(
                    f"keyblock {l} has no producing splits — partition and "
                    "splits disagree about the covered keyspace"
                )
        for i, blocks in enumerate(self.producers):
            for l in blocks:
                if i not in self.dependencies[l]:
                    raise PartitionError(
                        f"edge split {i} -> block {l} missing from inverse"
                    )
        for l, deps in enumerate(self.dependencies):
            for i in deps:
                if l not in self.producers[i]:
                    raise PartitionError(
                        f"edge block {l} -> split {i} missing from forward"
                    )


def _blocks_for_image(
    image: Slab,
    partition: KeyBlockPartition,
    boundaries: Sequence[int],
) -> set[int]:
    """Exact set of keyblocks a K' region intersects.

    Fast path: the region's row-major index span [lo, hi) selects the
    candidate block range by binary search; each candidate then gets an
    exact geometric overlap test (a slab's index span can cover cells
    outside the slab, so candidates are necessary but not sufficient).
    """
    if image.is_empty:
        return set()
    lo, hi = slab_index_range(image, partition.space)
    first = bisect.bisect_right(boundaries, lo)
    out: set[int] = set()
    for l in range(first, partition.num_blocks):
        blk = partition.blocks[l]
        if blk.cell_range[0] >= hi:
            break
        if blk.overlaps(image):
            out.add(l)
    return out


def compute_dependencies(
    plan: QueryPlan,
    splits: Sequence[CoordinateSplit],
    partition: KeyBlockPartition,
    *,
    allow_empty: frozenset[int] = frozenset(),
) -> DependencyMap:
    """Build the stored dependency map (the paper's chosen side of the
    store-vs-recompute trade-off).

    ``allow_empty`` names keyblocks permitted to end up with an empty
    I_l (every producer was pruned; see ``DependencyMap.validate_complete``).
    """
    if partition.space != plan.intermediate_space:
        raise PartitionError(
            f"partition space {partition.space} != query K'_T "
            f"{plan.intermediate_space}"
        )
    boundaries = partition.cell_boundaries()
    producers: list[frozenset[int]] = []
    deps: list[set[int]] = [set() for _ in range(partition.num_blocks)]
    for sp in splits:
        blocks: set[int] = set()
        for slab in sp.slabs:
            work = slab.intersect(plan.covered)
            if work.is_empty:
                continue
            image = plan.image_of(work)
            blocks |= _blocks_for_image(image, partition, boundaries)
        producers.append(frozenset(blocks))
        for l in blocks:
            deps[l].add(sp.index)
    dm = DependencyMap(
        num_splits=len(splits),
        num_blocks=partition.num_blocks,
        producers=tuple(producers),
        dependencies=tuple(frozenset(d) for d in deps),
    )
    dm.validate_complete(allow_empty=allow_empty)
    return dm


def recompute_for_block(
    plan: QueryPlan,
    splits: Sequence[CoordinateSplit],
    partition: KeyBlockPartition,
    block_index: int,
) -> frozenset[int]:
    """Derive a single I_l on demand — the "re-compute" alternative of
    §3.2.1, used by the ablation benchmark to time the trade-off."""
    blk = partition.blocks[block_index]
    out: set[int] = set()
    for sp in splits:
        for slab in sp.slabs:
            work = slab.intersect(plan.covered)
            if work.is_empty:
                continue
            image = plan.image_of(work)
            if not image.is_empty and blk.overlaps(image):
                out.add(sp.index)
                break
    return frozenset(out)
