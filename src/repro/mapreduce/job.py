"""Job configuration.

A :class:`JobConf` carries everything the engine needs: the input splits,
a record-reader factory, user map/combine/reduce functions, the partition
function, and the reduce-task count.  Factories (rather than instances)
are taken for mappers/reducers because each task must get a fresh
instance — Hadoop instantiates user classes per task attempt, and
stateful mappers would otherwise leak state across tasks.

A job's data plane is what it carries, not something it is told: with a
:attr:`JobConf.batch_operator` the engine runs the columnar task bodies,
without one the per-record ``Mapper``/``Reducer`` bodies — the reference
engine every hand-built job runs on.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field
from typing import Any

from repro.errors import JobConfigError
from repro.mapreduce.columnar import BatchOperator
from repro.mapreduce.mapper import Mapper
from repro.mapreduce.partitioner import Partitioner
from repro.mapreduce.reducer import Reducer
from repro.mapreduce.splits import InputSplit
from repro.mapreduce.types import KeyValue

#: Reads one split and yields its (k, v) records — the RecordReader role.
ReaderFactory = Callable[[InputSplit], Iterable[KeyValue]]


@dataclass
class JobConf:
    """Complete specification of one MapReduce job."""

    name: str
    splits: Sequence[InputSplit]
    reader_factory: ReaderFactory
    mapper_factory: Callable[[], Mapper]
    reducer_factory: Callable[[], Reducer]
    partitioner: Partitioner
    num_reduce_tasks: int
    #: The record plane's; a columnar map always combines repeated keys.
    combiner_factory: Callable[[], Reducer] | None = None
    #: Stock Hadoop reduce tasks contact every completed map task (§4.6);
    #: engines running SIDR plans set this False to fetch only from the
    #: dependency set.
    contact_all_maps: bool = True
    #: The vectorized face of the job's operator.  A job carrying one
    #: runs the columnar plane, and its ``reader_factory`` must emit
    #: :class:`~repro.mapreduce.columnar.ChunkBatch` items
    #: (:meth:`repro.sidr.planner.SIDRPlan.configure_job` wires both);
    #: ``None`` runs the record plane.
    batch_operator: BatchOperator | None = None
    #: Wall-clock budget in seconds for the whole job run (None = no
    #: deadline).  On expiry every in-flight attempt is cooperatively
    #: cancelled; ``on_deadline`` picks what happens next.
    deadline: float | None = None
    #: ``"fail"`` raises :class:`~repro.errors.JobFailedError` when the
    #: deadline expires; ``"partial"`` returns the reduce outputs
    #: completed so far as a partial :class:`JobResult`.
    on_deadline: str = "fail"
    #: Arbitrary per-job context (e.g. the SIDRPlan) for hooks/tests.
    context: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name:
            raise JobConfigError("job name must be non-empty")
        if self.deadline is not None and self.deadline <= 0:
            raise JobConfigError(
                f"deadline must be positive, got {self.deadline}"
            )
        if self.on_deadline not in ("fail", "partial"):
            raise JobConfigError(
                f"unknown on_deadline policy {self.on_deadline!r}; "
                "expected 'fail' or 'partial'"
            )
        if not self.splits:
            raise JobConfigError("job has no input splits")
        if self.num_reduce_tasks <= 0:
            raise JobConfigError(
                f"num_reduce_tasks must be positive, got {self.num_reduce_tasks}"
            )
        for i, s in enumerate(self.splits):
            if s.index != i:
                raise JobConfigError(
                    f"split at position {i} has index {s.index}; split "
                    "indexes must match their list position"
                )

    @property
    def num_map_tasks(self) -> int:
        return len(self.splits)

    @property
    def data_plane(self) -> str:
        """``"columnar"`` iff the job carries a batch operator."""
        return "record" if self.batch_operator is None else "columnar"
