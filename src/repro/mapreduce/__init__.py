"""A real, in-process MapReduce engine with faithful Hadoop semantics.

The simulator (:mod:`repro.sim`) reproduces the paper's cluster-scale
*timing* results; this package reproduces the *semantics*: splits, record
readers, user map/combine/reduce functions, deterministic partitioning of
intermediate keys into keyblocks, a sort-merge shuffle that groups all
values of a key, and the barrier between map completion and reduce
execution.  The two MapReduce guarantees of §2.3 hold by construction:

1. every input split is processed by exactly one map task, and
2. for a given k', all values are processed at the same time by a single
   reduce task.

The barrier is pluggable (:class:`~repro.mapreduce.engine.BarrierPolicy`):
``GlobalBarrier`` is stock Hadoop (Figure 4 left); ``DependencyBarrier``
consumes a SIDR dependency map and lets each reduce task fire as soon as
the maps in its I_l have completed (Figure 4 right).  The engine records
an execution trace in every mode so tests can verify that reduce tasks
really do start early — and never before their dependencies are met.

Map output files carry the ⟨k,v⟩-count annotation of §3.2.1 (approach 2),
which the engine validates whenever a reduce fires.
"""

from repro.mapreduce.types import (
    KeyValue,
    MapTaskId,
    ReduceTaskId,
    TaskKind,
)
from repro.mapreduce.counters import Counters
from repro.mapreduce.splits import (
    ByteRangeSplit,
    InputSplit,
    generate_byte_splits,
)
from repro.mapreduce.mapper import (
    ChunkAggregateMapper,
    IdentityMapper,
    Mapper,
)
from repro.mapreduce.reducer import (
    AggregateReducer,
    ConcatReducer,
    Reducer,
)
from repro.mapreduce.partitioner import (
    HashPartitioner,
    Partitioner,
    RangePartitioner,
)
from repro.mapreduce.columnar import (
    ChunkBatch,
    ColumnarMapOutput,
    run_columnar_map,
    run_columnar_reduce,
)
from repro.mapreduce.shuffle import MapOutputFile, MapOutputIndex, ShuffleStore
from repro.mapreduce.sortmerge import group_sorted, merge_segments
from repro.mapreduce.job import JobConf
from repro.mapreduce.engine import (
    BarrierPolicy,
    DependencyBarrier,
    EngineTrace,
    GlobalBarrier,
    JobResult,
    LocalEngine,
    TraceEvent,
)

__all__ = [
    "KeyValue",
    "MapTaskId",
    "ReduceTaskId",
    "TaskKind",
    "Counters",
    "ByteRangeSplit",
    "InputSplit",
    "generate_byte_splits",
    "ChunkAggregateMapper",
    "IdentityMapper",
    "Mapper",
    "AggregateReducer",
    "ConcatReducer",
    "Reducer",
    "HashPartitioner",
    "Partitioner",
    "RangePartitioner",
    "ChunkBatch",
    "ColumnarMapOutput",
    "run_columnar_map",
    "run_columnar_reduce",
    "MapOutputFile",
    "MapOutputIndex",
    "ShuffleStore",
    "group_sorted",
    "merge_segments",
    "JobConf",
    "BarrierPolicy",
    "DependencyBarrier",
    "EngineTrace",
    "GlobalBarrier",
    "JobResult",
    "LocalEngine",
    "TraceEvent",
]
