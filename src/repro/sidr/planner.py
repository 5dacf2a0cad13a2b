"""SIDRPlan: the complete routing structure for one job (paper §3).

``build_plan`` runs the whole SIDR front-end — partition+, dependency
analysis, expected-count computation — "based solely on information
found in, or derived from, the query specification combined with the
input metadata" (§3.1).  The resulting plan plugs into:

* the real engine — ``plan.partitioner`` (a RangePartitioner over the
  keyblock boundaries), ``plan.barrier`` (a DependencyBarrier over I_l),
  ``plan.validator`` (count-annotation checks), via
  :meth:`SIDRPlan.configure_job` / :func:`build_sidr_job`;
* the simulator — dependency sets and keyblock sizes drive the
  SIDR scheduler's timing model;
* output writing — ``plan.output_region(l)`` is the contiguous slab of
  the output space keyblock ``l`` owns (§4.4).
"""

from __future__ import annotations

import os
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from typing import Any

import numpy as np

from repro.arrays.slab import Slab
from repro.errors import FormatError, JobConfigError
from repro.mapreduce.engine import DependencyBarrier, Part
from repro.mapreduce.job import JobConf
from repro.mapreduce.mapper import ChunkAggregateMapper
from repro.mapreduce.partitioner import RangePartitioner
from repro.mapreduce.reducer import AggregateReducer, CombinerAdapter
from repro.query.columnar import (
    MapGeometry,
    batch_operator_for,
    make_columnar_reader_factory,
    map_geometry,
)
from repro.query.language import QueryPlan
from repro.query.pruning import PruneResult, prune_splits
from repro.query.recordreader import make_reader_factory
from repro.query.splits import CoordinateSplit
from repro.scidata.zonemaps import ZoneMap, build_zone_map
from repro.sidr.annotations import CountAnnotationValidator, expected_source_cells
from repro.sidr.dependencies import DependencyMap, compute_dependencies
from repro.sidr.keyblocks import KeyBlockPartition
from repro.sidr.partition_plus import partition_plus


@dataclass(frozen=True)
class SIDRPlan:
    """Everything SIDR pre-computes for a query."""

    query_plan: QueryPlan
    splits: tuple[CoordinateSplit, ...]
    partition: KeyBlockPartition
    deps: DependencyMap
    #: Source cells each keyblock's reduce must tally (§3.2.1): what
    #: ``splits`` deliver, pruned or not, computed once in build_plan.
    expected_counts: tuple[int, ...]
    #: Zone-map pruning decision; None when pruning was off or nothing
    #: pruned.  When set, ``splits`` are the re-indexed survivors.
    pruning: PruneResult | None = None

    def __post_init__(self) -> None:
        #: Split index -> its :class:`MapGeometry`, filled on first use.
        object.__setattr__(self, "_geometry", {})
        #: Part count asked for -> :meth:`parts`' answer, filled on first use.
        object.__setattr__(self, "_parts", {})

    def __getstate__(self) -> dict[str, Any]:
        """Without the :meth:`parts` memo and :attr:`partitioner` a job
        adds: a plan that ran pickles to the bytes the plan cache took."""
        state = dict(self.__dict__, _parts={})
        state.pop("partitioner", None)
        return state

    # ------------------------------------------------------------------ #
    # Engine-facing pieces
    # ------------------------------------------------------------------ #
    @property
    def num_reduce_tasks(self) -> int:
        return self.partition.num_blocks

    @cached_property
    def partitioner(self) -> RangePartitioner:
        """One partitioner per plan, shared by every job it configures."""
        return RangePartitioner(
            self.partition.space, self.partition.cell_boundaries()
        )

    @property
    def barrier(self) -> DependencyBarrier:
        return DependencyBarrier(self.deps.dependency_barrier())

    def validator(self) -> CountAnnotationValidator:
        return CountAnnotationValidator(expected=self.expected_counts)

    # ------------------------------------------------------------------ #
    # Map geometry: a pure function of (plan, split), computed once
    # ------------------------------------------------------------------ #
    def map_geometry(self, split: CoordinateSplit) -> MapGeometry:
        """``split``'s map geometry — its slab reads and zones, each
        zone's first key and instance counts — computed on first use and
        kept; a split that is not one of this plan's is computed each
        call."""
        i = split.index
        mine = 0 <= i < len(self.splits) and self.splits[i] == split
        geometry = self._geometry.get(i) if mine else None
        if geometry is None:
            # Two threads may both compute a split's first geometry:
            # equal values, and the dict keeps one.
            geometry = map_geometry(self.query_plan, split)
            if mine:
                self._geometry[i] = geometry
        return geometry

    def with_map_geometry(self) -> "SIDRPlan":
        """This plan with every split's map geometry computed: complete,
        so it can be cached and shared."""
        for split in self.splits:
            self.map_geometry(split)
        return self

    # ------------------------------------------------------------------ #
    # Independent keyblock ranges
    # ------------------------------------------------------------------ #
    def parts(self, k: int) -> tuple[Part, ...]:
        """This plan cut into at most ``k`` independent parts (:class:`Part`):
        contiguous keyblock ranges whose input sets share no map, so each
        runs as a job of its own and their outputs, laid end to end in
        keyblock order, are the whole job's.

        A cut between keyblocks ℓ and ℓ+1 is legal when I_0 ∪ … ∪ I_ℓ
        and I_ℓ+1 ∪ … are disjoint, and every part reads at least one
        map.  Of the legal cuts, at most ``k`` − 1 are taken that
        minimise the largest part's input cells — the fewest cuts, then
        the earliest, among equal maxima.  A map no keyblock reads runs
        in part 0.  ``parts(1)`` is the whole plan; each answer is
        computed once per plan."""
        got = self._parts.get(k)
        if got is None:
            got = self._parts[k] = self._cut(max(1, k))
        return got

    def _cut(self, k: int) -> tuple[Part, ...]:
        deps = self.deps.dependencies
        n = len(deps)
        cells = [split.cells for split in self.splits]
        orphans = set(range(len(cells))).difference(*deps)
        # Boundary b is legal when the maps left of it and right of it
        # are disjoint; 0 and n always are.
        left: list[frozenset[int]] = [frozenset()]
        for block in deps:
            left.append(left[-1] | block)
        right: list[frozenset[int]] = [frozenset()]
        for block in reversed(deps):
            right.append(right[-1] | block)
        right.reverse()
        bounds = [b for b in range(n + 1) if not left[b] & right[b]]

        def reads(a: int, b: int) -> frozenset[int]:
            got = left[b] - left[a]
            return got | orphans if a == 0 else got

        inf = float("inf")

        def cost(a: int, b: int) -> float:
            if not left[b] - left[a]:
                return inf  # a part that reads nothing is not made
            return sum(cells[m] for m in reads(a, b))

        # best[j][b]: the least largest part over [0, b) in j parts, and
        # the boundary the last part starts at.
        best: list[dict[int, tuple[float, int]]] = [{0: (0.0, -1)}]
        for _ in range(min(k, len(bounds) - 1)):
            prev, row = best[-1], {}
            for b in bounds:
                for a in bounds:
                    if a >= b or a not in prev:
                        continue
                    worst = max(prev[a][0], cost(a, b))
                    if worst < row.get(b, (inf,))[0]:
                        row[b] = (worst, a)
            best.append(row)
        worst, j = min(
            ((best[j][n][0], j) for j in range(1, len(best)) if n in best[j]),
            default=(inf, 1),
        )
        cuts = [n]
        if worst < inf:
            for row in reversed(best[1:j + 1]):
                cuts.append(row[cuts[-1]][1])
        else:
            cuts.append(0)
        cuts.reverse()
        return tuple(
            Part(i, range(a, b), tuple(sorted(reads(a, b))))
            for i, (a, b) in enumerate(zip(cuts, cuts[1:]))
        )

    # ------------------------------------------------------------------ #
    # Output geometry (§4.4)
    # ------------------------------------------------------------------ #
    def output_region(self, block: int) -> tuple[Slab, ...]:
        """The contiguous region(s) of the output space keyblock ``block``
        owns — what its reduce task writes with the ContiguousWriter."""
        return self.partition.blocks[block].slabs

    # ------------------------------------------------------------------ #
    # Job assembly
    # ------------------------------------------------------------------ #
    def configure_job(
        self,
        source: Any,
        *,
        name: str | None = None,
        data_plane: str = "columnar",
    ) -> tuple[JobConf, DependencyBarrier]:
        """Build an engine-ready (JobConf, barrier) pair for this plan.

        This is the one place a data plane is named: ``"columnar"``
        (the vectorized batch path every built-in operator has) hands
        the job a batch operator and a batch reader; ``"record"`` is the
        per-record reference path, and the only one a user-defined
        operator runs on.
        """
        if data_plane not in ("record", "columnar"):
            raise JobConfigError(
                f"unknown data plane {data_plane!r}; "
                "expected 'record' or 'columnar'"
            )
        qp = self.query_plan
        op = qp.operator
        columnar = data_plane == "columnar"
        reader_factory = (
            make_columnar_reader_factory(source, qp, self.map_geometry)
            if columnar else make_reader_factory(source, qp)
        )
        job = JobConf(
            name=name or f"sidr-{op.name}-{qp.variable}",
            splits=list(self.splits),
            reader_factory=reader_factory,
            mapper_factory=lambda: ChunkAggregateMapper(op),
            reducer_factory=lambda: AggregateReducer(op),
            partitioner=self.partitioner,
            num_reduce_tasks=self.num_reduce_tasks,
            combiner_factory=lambda: CombinerAdapter(op),
            contact_all_maps=False,
            batch_operator=batch_operator_for(op) if columnar else None,
        )
        job.context["reduce_start_validator"] = self.validator()
        # The engine reads the pruning decision off the plan too.
        job.context["sidr_plan"] = self
        return job, self.barrier


def build_plan(
    query_plan: QueryPlan,
    splits: Sequence[CoordinateSplit],
    num_reduce_tasks: int,
    *,
    skew_bound: int | None = None,
    zone_map: ZoneMap | None = None,
    prune: bool = True,
) -> SIDRPlan:
    """Run the SIDR front-end: partition+, split pruning, dependency
    analysis.

    With a ``zone_map`` and an operator exposing a prune predicate,
    splits that provably contribute only combine identities are dropped
    before task creation (``prune=False`` is the escape hatch).  The
    partition is computed first and is identical with or without
    pruning — keyblock ownership depends only on K'_T.
    """
    partition = partition_plus(
        query_plan.intermediate_space, num_reduce_tasks, skew_bound=skew_bound
    )
    pruning: PruneResult | None = None
    if prune and zone_map is not None:
        pruning = prune_splits(
            query_plan, list(splits), partition, zone_map,
            query_plan.operator.prune_predicate(),
        )
    if pruning is not None:
        splits = pruning.surviving
    deps = compute_dependencies(
        query_plan, splits, partition,
        allow_empty=pruning.empty_blocks if pruning else frozenset(),
    )
    return SIDRPlan(
        query_plan=query_plan,
        splits=tuple(splits),
        partition=partition,
        deps=deps,
        expected_counts=(
            pruning.expected_counts if pruning is not None
            else expected_source_cells(query_plan, partition)
        ),
        pruning=pruning,
    )


def derive_zone_map(query_plan: QueryPlan, source: Any) -> ZoneMap | None:
    """Find (or build) a zone map for the queried variable.

    Checked in order: an open ``Dataset``'s header, an NCLite file's
    header (header read only — no payload scan), or a one-pass build
    for an in-memory array; the plan holds no header to look in.
    Returns None (→ no pruning) when the operator has no prune predicate
    or no index can be found — stale/pre-index files degrade gracefully.
    """
    if query_plan.operator.prune_predicate() is None:
        return None
    var = query_plan.variable
    src_meta = getattr(source, "metadata", None)
    if src_meta is not None and hasattr(src_meta, "zone_map"):
        return src_meta.zone_map(var)
    if isinstance(source, np.ndarray):
        return build_zone_map(var, source)
    if isinstance(source, (str, os.PathLike)):
        from repro.scidata.nclite import read_header

        try:
            return read_header(source).metadata.zone_map(var)
        except (FormatError, OSError):
            return None
    return None


def build_sidr_job(
    query_plan: QueryPlan,
    splits: Sequence[CoordinateSplit],
    num_reduce_tasks: int,
    source: Any,
    *,
    data_plane: str = "columnar",
    prune: bool = True,
    zone_map: ZoneMap | None = None,
) -> tuple[JobConf, DependencyBarrier, SIDRPlan]:
    """One-call convenience: plan + engine job.

    Zone-map pruning is on by default (it never changes output bytes);
    pass ``prune=False`` or use ``repro.cli query --no-prune`` to force
    every split to run.
    """
    if prune and zone_map is None:
        zone_map = derive_zone_map(query_plan, source)
    plan = build_plan(
        query_plan, splits, num_reduce_tasks,
        zone_map=zone_map, prune=prune,
    )
    job, barrier = plan.configure_job(source, data_plane=data_plane)
    return job, barrier, plan
