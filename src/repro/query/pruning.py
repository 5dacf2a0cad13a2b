"""Split skipping: zone-map-driven pruning of whole input splits.

The planner calls :func:`prune_splits` after compiling a query and
partitioning K'_T.  Given the variable's zone map and the operator's
:class:`~repro.query.operators.PrunePredicate`, it decides per
:class:`~repro.query.splits.CoordinateSplit` whether the split's entire
covered region provably contributes only combine identities — in which
case the split never becomes a map task.

Pruning must be invisible in the output bytes.  That takes more than
dropping splits:

* **surviving-key mask** — a key none of whose cells a surviving split
  delivers is still a key of K'_T (§2.4.2 allows it an empty result).
  It is *synthesized*: its keyblock's reduce takes it with the combine
  identity as its state — the operator's map of zero cells — and
  finalizes it like any other key (sound by predicate contract: the
  key's entire input was identity).
* **expected-count repair** — the §3.2.1 count-annotation validator
  expects per-keyblock source-cell totals.  Pruned cells never arrive,
  so each keyblock expects exactly the cells the *surviving* splits
  deliver: per key, a sum of per-axis products
  (:meth:`~repro.query.language.QueryPlan.instance_cells`), computed
  once per plan.
* **empty blocks** — a keyblock all of whose producers were pruned has
  an empty dependency set I_l; the dependency validator is told to
  allow it (its barrier is trivially ready and it expects zero cells).

Everything here is exact geometry: a key survives where a surviving
split's reader emits it (an instance cell inside the subset and the
split), so pruning cannot disagree with what the maps deliver.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from repro.arrays.linearize import index_runs
from repro.query.language import QueryPlan
from repro.query.operators import PrunePredicate
from repro.query.splits import CoordinateSplit

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.scidata.zonemaps import ZoneMap
    from repro.sidr.keyblocks import KeyBlockPartition


@dataclass(frozen=True)
class PruneResult:
    """Everything the planner needs to build a pruned-but-equivalent job."""

    #: Surviving splits, re-indexed 0..n-1 (CoordinateSplit.index must
    #: equal list position for the engine's task numbering).
    surviving: tuple[CoordinateSplit, ...]
    #: Original indices of the splits that were pruned.
    pruned_indices: tuple[int, ...]
    #: Original split count before pruning.
    original_splits: int
    #: keyblock index -> its synthesized keys, an ``(R, 2)`` int64 table
    #: of ``[start, stop)`` row-major runs in K'_T, in key order.
    synth_keys: dict[int, np.ndarray]
    #: Keyblocks whose every key is synthesized (empty I_l allowed).
    empty_blocks: frozenset[int]
    #: Pruning-aware expected source cells per keyblock (validator input).
    expected_counts: tuple[int, ...]

    @property
    def num_pruned(self) -> int:
        return len(self.pruned_indices)

    @property
    def num_synth_keys(self) -> int:
        return sum(int(np.diff(runs).sum()) for runs in self.synth_keys.values())


def split_prunable(
    plan: QueryPlan,
    split: CoordinateSplit,
    zone_map: "ZoneMap",
    predicate: PrunePredicate,
) -> bool:
    """May this split be skipped entirely?

    True iff every slab's covered work region either is empty or has a
    zone-map value envelope the predicate accepts.  The envelope comes
    from all tiles *overlapping* the region, so it is conservative —
    a prunable verdict is proof, a non-prunable one may be a false
    alarm (which only costs speed, never correctness).
    """
    covered = plan.covered
    for slab in split.slabs:
        work = slab.intersect(covered)
        if work.is_empty:
            continue
        bounds = zone_map.region_bounds(work)
        if bounds is None or not predicate.region_prunable(*bounds):
            return False
    return True


def _group_missing_keys(
    mask: np.ndarray, partition: "KeyBlockPartition"
) -> dict[int, np.ndarray]:
    """Keys with no surviving producer, grouped by owning keyblock.

    ``np.flatnonzero`` yields row-major indices in order, so a
    keyblock's keys are one contiguous stretch of them, sorted in
    row-major key order — the order reduce outputs use — and kept as
    the few ``[start, stop)`` runs they form (:func:`index_runs`).
    """
    lin = np.flatnonzero(~mask).astype(np.int64, copy=False)
    groups = {}
    for b, blk in enumerate(partition.blocks):
        lo, hi = np.searchsorted(lin, blk.cell_range)
        if hi > lo:
            groups[b] = index_runs(lin[lo:hi])
    return groups


def prune_splits(
    plan: QueryPlan,
    splits: list[CoordinateSplit] | tuple[CoordinateSplit, ...],
    partition: "KeyBlockPartition",
    zone_map: "ZoneMap | None",
    predicate: PrunePredicate | None,
) -> PruneResult | None:
    """Decide which splits can be skipped; None when nothing prunes.

    A zone map for the wrong variable or space (e.g. stale metadata) is
    ignored — degrading to no pruning is always sound.
    """
    if zone_map is None or predicate is None:
        return None
    if (
        zone_map.variable != plan.variable
        or tuple(zone_map.space) != tuple(plan.input_space)
    ):
        return None
    flags = [
        split_prunable(plan, sp, zone_map, predicate) for sp in splits
    ]
    if not any(flags):
        return None
    if all(flags):
        # Keep one split: a job needs at least one map task, and an
        # all-identity run through one split is still cheap.
        flags[0] = False
    surviving = tuple(
        replace(sp, index=i)
        for i, sp in enumerate(sp for sp, f in zip(splits, flags) if not f)
    )
    # Each key's cells that the surviving splits deliver: the full
    # instance where no pruned split meets it, less (or none) where one
    # does.
    delivered = plan.instance_cells(s for sp in surviving for s in sp.slabs)
    synth = _group_missing_keys(delivered > 0, partition)
    empty_blocks = frozenset(
        b for b, runs in synth.items()
        if np.diff(runs).sum() == partition.blocks[b].num_keys
    )
    return PruneResult(
        surviving=surviving,
        pruned_indices=tuple(sp.index for sp, f in zip(splits, flags) if f),
        original_splits=len(splits),
        synth_keys=synth,
        empty_blocks=empty_blocks,
        expected_counts=partition.sums(delivered),
    )
