"""Count-annotation validation (paper §3.2.1, approach 2).

"Annotating each ⟨k',v'⟩ pair to include the number of ⟨k,v⟩ pairs it
represents.  Each Reduce task can then keep a running tally ... When the
task has accumulated data representing all ⟨k,v⟩ in its K_l, processing
can safely begin."

SIDR uses approach 1 (the I_l barrier) for control flow and "implements
the annotations required for the latter method as a means of validating
the system's correctness" — exactly what this module does: the expected
source-cell count of every keyblock is computed from the query geometry,
once per plan (:func:`repro.sidr.planner.build_plan`), and the engine
hands each reduce start's tally to
:meth:`CountAnnotationValidator.validate`, which raises
:class:`~repro.errors.BarrierViolationError` on any mismatch.  A short
tally means the dependency map missed a producer (the reduce would have
started early); an over-long tally means double-delivery or a routing
error.  Either way the run aborts rather than producing a silently wrong
answer.
"""

from __future__ import annotations

import threading
from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.errors import BarrierViolationError, PartitionError
from repro.query.language import QueryPlan
from repro.sidr.keyblocks import KeyBlockPartition


def expected_source_cells(
    plan: QueryPlan, partition: KeyBlockPartition
) -> tuple[int, ...]:
    """Expected number of source (input) cells feeding each keyblock:
    the per-keyblock sums of :meth:`QueryPlan.instance_cells`, so
    clipped edge instances (``keep_partial_instances``) count only
    their cells inside the variable."""
    if partition.space != plan.intermediate_space:
        raise PartitionError("partition/plan keyspace mismatch")
    return partition.sums(plan.instance_cells())


@dataclass
class CountAnnotationValidator:
    """Validates reduce-start tallies against expected source counts."""

    expected: Sequence[int]
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)
    _observed: dict[int, int] = field(default_factory=dict, repr=False)

    def validate(self, partition_index: int, tallied_source_records: int) -> None:
        if not (0 <= partition_index < len(self.expected)):
            raise BarrierViolationError(
                f"validator has no expectation for partition {partition_index}"
            )
        want = self.expected[partition_index]
        got = tallied_source_records
        with self._lock:
            self._observed[partition_index] = got
        if got < want:
            raise BarrierViolationError(
                f"reduce {partition_index} started with {got}/{want} source "
                "records accounted for — dependency barrier violated"
            )
        if got != want:
            raise BarrierViolationError(
                f"reduce {partition_index} tallied {got} source records but "
                f"expected exactly {want} — intermediate data misrouted"
            )

    @property
    def observed(self) -> dict[int, int]:
        with self._lock:
            return dict(self._observed)
