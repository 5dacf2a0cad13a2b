"""repro — a full reproduction of *SIDR: Structure-Aware Intelligent Data
Routing in Hadoop* (Buck et al., SC '13).

Public API tour
---------------

Data substrate::

    from repro import temperature_dataset, create_dataset, open_dataset
    field = temperature_dataset(days=365, lat=250, lon=200)
    ds = field.write("temps.nc")

Structural queries (SciHadoop layer)::

    from repro import StructuralQuery, get_operator
    query = StructuralQuery(
        variable="temperature",
        extraction_shape=(7, 5, 1),          # weekly mean, 5x lat downsample
        operator=get_operator("mean"),
    )
    plan = query.compile(ds.metadata)

SIDR (the paper's contribution)::

    from repro import slice_splits, build_sidr_job, LocalEngine
    splits = slice_splits(plan, num_splits=32)
    job, barrier, sidr = build_sidr_job(plan, splits, num_reduce_tasks=8,
                                        source="temps.nc")
    result = LocalEngine().run_threaded(job, barrier)

Cluster-scale simulation and the paper's evaluation::

    from repro.bench import fig09_task_completion, table3_network_connections
    fig9 = fig09_task_completion()        # paper-scale Figure 9 series

See README.md for the architecture overview and DESIGN.md for the module
inventory and the per-experiment index.
"""

from repro.errors import (
    BarrierViolationError,
    DatasetError,
    PartitionError,
    QueryError,
    ReproError,
)
from repro.arrays import ExtractionShape, Slab
from repro.scidata import (
    Dataset,
    create_dataset,
    normal_dataset,
    open_dataset,
    temperature_dataset,
    windspeed_dataset,
)
from repro.dfs import SimulatedDFS
from repro.mapreduce import (
    DependencyBarrier,
    GlobalBarrier,
    HashPartitioner,
    JobConf,
    LocalEngine,
    RangePartitioner,
)
from repro.query import (
    StructuralQuery,
    get_operator,
    make_reader_factory,
    slice_splits,
)
from repro.sidr import (
    SIDRPlan,
    build_plan,
    partition_plus,
)
from repro.sidr.planner import build_sidr_job
from repro.sim import (
    ClusterConfig,
    CostModel,
    ExecutionMode,
    SimJobSpec,
    simulate_job,
)

__version__ = "1.0.0"

__all__ = [
    "ReproError",
    "BarrierViolationError",
    "DatasetError",
    "PartitionError",
    "QueryError",
    "ExtractionShape",
    "Slab",
    "Dataset",
    "create_dataset",
    "open_dataset",
    "temperature_dataset",
    "windspeed_dataset",
    "normal_dataset",
    "SimulatedDFS",
    "JobConf",
    "LocalEngine",
    "GlobalBarrier",
    "DependencyBarrier",
    "HashPartitioner",
    "RangePartitioner",
    "StructuralQuery",
    "get_operator",
    "slice_splits",
    "make_reader_factory",
    "SIDRPlan",
    "build_plan",
    "build_sidr_job",
    "partition_plus",
    "ClusterConfig",
    "CostModel",
    "ExecutionMode",
    "SimJobSpec",
    "simulate_job",
    "__version__",
]
