"""Pipelined computations over early results (paper §6, future work).

"Additionally, we will research integrating SIDR's ability to produce
early, orderable, correct results for portions of the total output into
pipe-lined computations."

A :class:`PipelinedQuery` chains two structural queries: stage 2 treats
stage 1's output space (K'_T of stage 1) as its input space.  Because
SIDR's stage-1 keyblocks commit early and are *correct* (not estimates —
the §5 contrast with Hadoop Online), stage-2 map tasks whose input region
is fully covered by committed keyblocks can run before stage 1 finishes.

Execution model (in-process, deterministic):

* stage 1 runs under its SIDR plan; a completion hook fires per keyblock;
* stage-2 splits are generated over stage 1's output space; each stage-2
  split's *gate* is the set of stage-1 keyblocks its region overlaps —
  a second dependency analysis, between the stages;
* the moment a stage-2 split's gate is satisfied, its map runs; stage-2
  reduce tasks fire under their own SIDR dependency barrier.

The interleaving trace records stage-2 work executing between stage-1
events — the pipelining the paper proposes — and the final output equals
the composed serial oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.errors import QueryError
from repro.mapreduce.counters import Counters
from repro.mapreduce.engine import LocalEngine
from repro.mapreduce.shuffle import ShuffleStore
from repro.mapreduce.types import KeyValue
from repro.obs import JobObservability
from repro.query.language import QueryPlan, StructuralQuery
from repro.query.splits import slice_splits
from repro.scidata.metadata import simple_metadata
from repro.sidr.planner import build_plan


@dataclass(frozen=True)
class PipelineEvent:
    """One entry in the interleaving log."""

    seq: int
    stage: int
    kind: str  # "keyblock" (stage-1 commit) | "map" | "reduce"
    index: int


@dataclass
class PipelineResult:
    """Output and interleaving evidence of a pipelined run."""

    stage1_outputs: dict[tuple, Any]
    stage2_outputs: dict[tuple, Any]
    events: list[PipelineEvent]

    def stage2_maps_before_stage1_done(self) -> int:
        """Stage-2 map tasks that ran before stage 1's final keyblock —
        the quantity that proves pipelining happened."""
        last_kb = max(
            (e.seq for e in self.events if e.stage == 1 and e.kind == "keyblock"),
            default=-1,
        )
        return sum(
            1
            for e in self.events
            if e.stage == 2 and e.kind == "map" and e.seq < last_kb
        )


class PipelinedQuery:
    """Two chained structural queries with stage-2 early starts."""

    def __init__(
        self,
        stage1: QueryPlan,
        stage2_query: StructuralQuery,
        *,
        stage1_reduces: int,
        stage2_reduces: int,
        stage1_splits: int,
        stage2_splits: int,
    ) -> None:
        self.stage1 = stage1
        # Stage 2's input space is stage 1's output space.
        inter_meta = simple_metadata(
            stage2_query.variable, stage1.intermediate_space, dtype="double"
        )
        self.stage2 = stage2_query.compile(inter_meta)
        self.s1_splits = slice_splits(stage1, num_splits=stage1_splits)
        self.s2_splits = slice_splits(self.stage2, num_splits=stage2_splits)
        self.s1_plan = build_plan(stage1, self.s1_splits, stage1_reduces)
        self.s2_plan = build_plan(self.stage2, self.s2_splits, stage2_reduces)
        #: gate[i] = stage-1 keyblocks covering stage-2 split i's input.
        self.gates = self._compute_gates()

    def _compute_gates(self) -> list[frozenset[int]]:
        gates: list[frozenset[int]] = []
        for sp in self.s2_splits:
            blocks: set[int] = set()
            for slab in sp.slabs:
                for l, kb in enumerate(self.s1_plan.partition.blocks):
                    if kb.overlaps(slab):
                        blocks.add(l)
            if not blocks:
                raise QueryError(
                    f"stage-2 split {sp.index} covers no stage-1 keyblock"
                )
            gates.append(frozenset(blocks))
        return gates

    # ------------------------------------------------------------------ #
    def run(self, source: Any) -> PipelineResult:
        """Execute both stages with stage-2 early starts.

        ``source`` is stage 1's input (array or NCLite path).  Stage 2
        reads from an in-memory array filled in as stage-1 keyblocks
        commit; the gates guarantee a stage-2 map only touches regions
        already final.
        """
        events: list[PipelineEvent] = []
        seq = [0]

        def log(stage: int, kind: str, index: int) -> None:
            events.append(PipelineEvent(seq[0], stage, kind, index))
            seq[0] += 1

        # Stage-2 machinery, driven incrementally.
        s2_space = self.stage2.input_space
        s2_input = np.full(s2_space, np.nan)
        engine = LocalEngine()
        s2_job, s2_barrier = self.s2_plan.configure_job(s2_input)
        s2_obs = JobObservability(s2_job.name, enabled=False)
        s2_store = ShuffleStore()
        s2_counters = Counters()
        s2_done_maps: set[int] = set()
        s2_pending_reduces = set(range(self.s2_plan.num_reduce_tasks))
        s2_outputs: dict[int, list[KeyValue]] = {}
        committed_blocks: set[int] = set()

        def try_stage2_progress() -> None:
            # Run any stage-2 map whose gate is satisfied.
            for sp in self.s2_splits:
                i = sp.index
                if i in s2_done_maps:
                    continue
                if self.gates[i] <= committed_blocks:
                    engine._run_map(s2_job, i, s2_store, s2_counters, s2_obs)
                    s2_done_maps.add(i)
                    log(2, "map", i)
            # Fire any stage-2 reduce whose dependencies are met.
            snapshot = frozenset(s2_done_maps)
            for l in sorted(s2_pending_reduces):
                if s2_barrier.ready(l, snapshot, len(self.s2_splits)):
                    s2_pending_reduces.discard(l)
                    s2_outputs[l] = engine._run_reduce(
                        s2_job, l, s2_barrier, s2_store, s2_counters,
                        s2_obs, snapshot,
                    )
                    log(2, "reduce", l)

        def on_stage1_block(l: int, records: list[KeyValue]) -> None:
            for k, v in records:
                s2_input[k] = v
            committed_blocks.add(l)
            log(1, "keyblock", l)
            try_stage2_progress()

        s1_job, s1_barrier = self.s1_plan.configure_job(source)
        s1_res = engine.run_serial(
            s1_job, s1_barrier, on_reduce_complete=on_stage1_block
        )
        # Anything still gated (shouldn't be) and remaining reduces.
        try_stage2_progress()
        if s2_pending_reduces or len(s2_done_maps) != len(self.s2_splits):
            raise QueryError(
                "pipeline stalled: stage-2 work left after stage 1 finished"
            )
        if np.isnan(s2_input).any():
            raise QueryError("stage-1 output space not fully materialized")
        return PipelineResult(
            stage1_outputs=dict(s1_res.all_records()),
            stage2_outputs={
                k: v
                for l in sorted(s2_outputs)
                for k, v in s2_outputs[l]
            },
            events=events,
        )

    # ------------------------------------------------------------------ #
    def reference(self, data: np.ndarray) -> dict[tuple, Any]:
        """Composed serial oracle: stage 2 applied to stage 1's oracle."""
        s1 = self.stage1.reference_output(np.asarray(data, dtype=np.float64))
        inter = np.empty(self.stage1.intermediate_space)
        for k, v in s1.items():
            inter[k] = v
        return self.stage2.reference_output(inter)
