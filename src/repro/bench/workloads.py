"""The paper's evaluation workloads (§4).

Paper scale (simulator):

* **Query 1** — median over ``windspeed{7200, 360, 720, 50}`` (float32,
  348 GB) with extraction shape {2, 36, 36, 10}; 2,781 SciHadoop splits
  at 128 MB; K'_T = {3600, 10, 20, 5} (3.6 M intermediate keys).
* **Query 2** — same-shape dataset of normal values, filter keeping
  values > mean + 3 sigma (~0.1% selectivity), extraction {2, 40, 40, 10};
  K'_T = {3600, 9, 18, 5}.
* **Skew query** (§4.3) — Query-1-volume down-sampling whose patterned
  intermediate keys hash to a single parity class under Hadoop's
  partitioner.

Laptop scale (real engine): the same queries shrunk ~10^5-fold, used by
integration tests and examples; identical code paths, smaller extents.

System variants:

* ``HADOOP`` — byte-oriented Hadoop: structure-oblivious record reading
  costs a read-amplification factor (records span block boundaries, the
  reader pulls and decodes more bytes) and weak locality; uniform hash
  partitioning; global barrier; stock scheduling.
* ``SCIHADOOP`` — coordinate splits (full locality, no amplification);
  uniform hash partitioning; global barrier; stock scheduling.
* ``SIDR`` — coordinate splits; partition+ keyblocks; dependency
  barriers; reduce-first scheduling; dense contiguous output.

Calibration constants for the Hadoop variant (amplification 2.2x,
locality 0.35) are chosen so the simulated Figure 9 reproduces the
paper's ~2.5x Hadoop/SciHadoop map-phase ratio; see EXPERIMENTS.md.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass

from repro.errors import QueryError
from repro.query.language import QueryPlan, StructuralQuery
from repro.query.operators import MedianOp, ThresholdFilterOp
from repro.query.splits import CoordinateSplit, slice_splits
from repro.scidata.generators import normal_dataset, windspeed_dataset
from repro.sidr.planner import SIDRPlan, build_plan
from repro.sim.cluster import ClusterConfig
from repro.sim.workload import (
    DependencyDistribution,
    ParitySkewDistribution,
    SimJobSpec,
    SimSplit,
    UniformDistribution,
)

MB = 1024 * 1024

#: 348 GB at 128 MB blocks -> the paper's split count for Query 1 (§4.1).
PAPER_NUM_SPLITS = 2781

#: Hadoop-variant calibration (see module docstring).
HADOOP_READ_AMPLIFICATION = 2.2
HADOOP_LOCAL_FRACTION = 0.35

#: Output element size (double) for the final output volume model.
OUTPUT_ITEM_BYTES = 8


class SystemVariant(enum.Enum):
    HADOOP = "hadoop"
    SCIHADOOP = "scihadoop"
    SIDR = "sidr"


@dataclass(frozen=True)
class Workload:
    """A compiled paper workload: query plan + splits + volume model."""

    name: str
    plan: QueryPlan
    splits: tuple[CoordinateSplit, ...]
    #: Intermediate bytes produced per input byte read (1.0 for median —
    #: holistic operators forward every value; ~0.001 for the 3-sigma
    #: filter).
    intermediate_ratio: float
    #: Total final-output bytes across all reduce tasks.
    total_output_bytes: int
    #: How the stock (hash-partitioned) variant writes output: dense
    #: array queries need sentinel-filled full-space files, while filter
    #: queries emit variable-length lists and use coordinate/value pairs
    #: (§4.4 describes both).
    stock_output_style: str = "sentinel"

    @property
    def num_splits(self) -> int:
        return len(self.splits)

    def sidr_plan(self, num_reduces: int, **kwargs) -> SIDRPlan:
        return build_plan(self.plan, self.splits, num_reduces, **kwargs)


# --------------------------------------------------------------------- #
# Workload builders
# --------------------------------------------------------------------- #
def query1_workload(
    *, num_splits: int | None = None, scale: int = 1
) -> Workload:
    """Query 1: median, {7200,360,720,50} windspeed, extraction
    {2,36,36,10} (§4.1).  Metadata-only: the simulator never touches
    cells.

    ``scale`` divides the time dimension (and, proportionally, the
    default split count) for fast test/CI runs; ``scale=1`` is the
    paper's exact geometry.
    """
    field = windspeed_dataset(time=7200 // scale, generate_payload=False)
    q = StructuralQuery(
        variable="windspeed",
        extraction_shape=(2, 36, 36, 10),
        operator=MedianOp(),
    )
    plan = q.compile(field.metadata)
    if num_splits is None:
        num_splits = max(1, PAPER_NUM_SPLITS // scale)
    splits = tuple(slice_splits(plan, num_splits=num_splits))
    out_bytes = plan.num_intermediate_keys * OUTPUT_ITEM_BYTES
    return Workload(
        name="query1-median",
        plan=plan,
        splits=splits,
        intermediate_ratio=1.0,
        total_output_bytes=out_bytes,
    )


def query2_workload(
    *, num_splits: int | None = None, scale: int = 1
) -> Workload:
    """Query 2: 3-sigma filter over a same-size normal dataset,
    extraction {2,40,40,10} (§4.1): 0.1% of values pass, so intermediate
    and output volumes are tiny while the input scan is identical."""
    field = windspeed_dataset(time=7200 // scale, generate_payload=False)
    # Same dimensions; the filter threshold lives in the operator.
    q = StructuralQuery(
        variable="windspeed",
        extraction_shape=(2, 40, 40, 10),
        operator=ThresholdFilterOp(threshold=3.0),
    )
    plan = q.compile(field.metadata)
    if num_splits is None:
        num_splits = max(1, PAPER_NUM_SPLITS // scale)
    splits = tuple(slice_splits(plan, num_splits=num_splits))
    # 93.31e9 cells * 0.1% survivors, stored as (coord, value) ~ 40 B.
    survivors = int(plan.covered.volume * 0.001)
    return Workload(
        name="query2-filter",
        plan=plan,
        splits=splits,
        intermediate_ratio=0.002,
        total_output_bytes=survivors * 40,
        stock_output_style="pairs",
    )


def skew_workload(
    *, num_splits: int | None = None, scale: int = 1
) -> Workload:
    """§4.3's pathological query: a down-sampling whose intermediate keys
    are instance corners — all even under extraction {2,...}, hashing to
    one parity class.  Volume model matches Query 1."""
    field = windspeed_dataset(time=7200 // scale, generate_payload=False)
    q = StructuralQuery(
        variable="windspeed",
        extraction_shape=(2, 36, 36, 10),
        operator=MedianOp(),
    )
    plan = q.compile(field.metadata)
    if num_splits is None:
        num_splits = max(1, PAPER_NUM_SPLITS // scale)
    splits = tuple(slice_splits(plan, num_splits=num_splits))
    return Workload(
        name="skew-median",
        plan=plan,
        splits=splits,
        intermediate_ratio=1.0,
        total_output_bytes=plan.num_intermediate_keys * OUTPUT_ITEM_BYTES,
    )


# --------------------------------------------------------------------- #
# Simulated job specs
# --------------------------------------------------------------------- #
def _sim_splits(
    workload: Workload,
    cluster: ClusterConfig,
    variant: SystemVariant,
    *,
    seed: int = 0,
) -> tuple[SimSplit, ...]:
    """Translate coordinate splits into simulator cost terms.

    Replica placement is drawn per split from a seeded RNG (equivalent in
    distribution to querying the simulated DFS and much cheaper at 2,781
    splits); the Hadoop variant additionally pays read amplification and
    loses locality.
    """
    hosts = cluster.topology().host_names
    rng = random.Random(seed)
    amp = (
        HADOOP_READ_AMPLIFICATION
        if variant is SystemVariant.HADOOP
        else 1.0
    )
    loc = (
        HADOOP_LOCAL_FRACTION if variant is SystemVariant.HADOOP else 1.0
    )
    out: list[SimSplit] = []
    for sp in workload.splits:
        read = int(sp.length_bytes * amp)
        cells = int(sp.cells * amp)
        inter = int(sp.length_bytes * workload.intermediate_ratio)
        out.append(
            SimSplit(
                index=sp.index,
                read_bytes=read,
                cells=cells,
                output_bytes=inter,
                preferred_hosts=tuple(rng.sample(hosts, min(3, len(hosts)))),
                local_fraction_preferred=loc,
                local_fraction_other=0.1 if variant is SystemVariant.HADOOP else 0.0,
            )
        )
    return tuple(out)


def sim_spec(
    workload: Workload,
    variant: SystemVariant,
    num_reduces: int,
    *,
    seed: int = 0,
    skewed: bool = False,
) -> SimJobSpec:
    """Build the simulator job spec for one (workload, system, r) cell,
    on the default cluster."""
    splits = _sim_splits(workload, ClusterConfig(), variant, seed=seed)
    if variant is SystemVariant.SIDR:
        if skewed:
            raise QueryError("SIDR prevents key skew; skewed=True is stock-only")
        plan = workload.sidr_plan(num_reduces)
        dist = DependencyDistribution.from_sidr_plan(plan)
        per_out = _sidr_output_bytes(plan, workload.total_output_bytes)
        weights = tuple(float(b.num_keys) for b in plan.partition.blocks)
        total_w = sum(weights)
        return SimJobSpec(
            name=f"{workload.name}-sidr-{num_reduces}",
            splits=splits,
            distribution=dist,
            reduce_output_bytes=per_out,
            dense_output=True,
            reduce_weights=tuple(w / total_w for w in weights),
        )
    dist = (
        ParitySkewDistribution(num_reduces)
        if skewed
        else UniformDistribution(num_reduces)
    )
    if workload.stock_output_style == "sentinel":
        # Sentinel-file output: every reduce writes the whole output
        # space (§4.4) — the modulo partitioner leaves dense array output
        # no alternative.
        per_out = tuple([workload.total_output_bytes] * num_reduces)
        dense = False
    else:
        # Coordinate/value pairs: constant overhead, split across
        # reducers (filter queries emit variable-length lists).
        per_out = tuple(
            [max(1, workload.total_output_bytes // num_reduces)] * num_reduces
        )
        dense = True
    return SimJobSpec(
        name=f"{workload.name}-{variant.value}-{num_reduces}",
        splits=splits,
        distribution=dist,
        reduce_output_bytes=per_out,
        dense_output=dense,
    )


def sim_spec_from_plan(plan: SIDRPlan) -> SimJobSpec:
    """Translate a *real* engine job's :class:`SIDRPlan` into simulator
    cost terms, so the cost model can price the exact job the engine
    runs (the live tracker's ETA, :mod:`repro.obs.live.progress`); a
    map writes as many intermediate bytes as it reads."""
    dist = DependencyDistribution.from_sidr_plan(plan)
    splits = tuple(
        SimSplit(
            index=sp.index,
            read_bytes=max(1, sp.length_bytes),
            cells=max(1, sp.cells),
            output_bytes=max(1, sp.length_bytes),
        )
        for sp in plan.splits
    )
    total_keys = sum(b.num_keys for b in plan.partition.blocks)
    out_bytes = tuple(
        max(1, int(OUTPUT_ITEM_BYTES * b.num_keys))
        for b in plan.partition.blocks
    )
    if total_keys <= 0:
        raise QueryError("plan has no intermediate keys")
    return SimJobSpec(
        name="sidr-real-job",
        splits=splits,
        distribution=dist,
        reduce_output_bytes=out_bytes,
        dense_output=True,
    )


def _sidr_output_bytes(plan: SIDRPlan, total: int) -> tuple[int, ...]:
    keys = sum(b.num_keys for b in plan.partition.blocks)
    return tuple(
        max(1, int(total * b.num_keys / keys)) for b in plan.partition.blocks
    )


# --------------------------------------------------------------------- #
# Laptop-scale workloads for the real engine
# --------------------------------------------------------------------- #
def small_query1():
    """A shrunk Query 1 that the real engine executes in memory: median
    with extraction {2, 6, 6, 5}.  Returns (field, plan)."""
    field = windspeed_dataset(time=24, lat=12, lon=12, elevation=10, seed=11)
    q = StructuralQuery(
        variable="windspeed",
        extraction_shape=(2, 6, 6, 5),
        operator=MedianOp(),
    )
    return field, q.compile(field.metadata)


def small_query2(
    *,
    shape: tuple[int, ...] = (24, 16, 16),
    threshold_sigmas: float = 3.0,
    seed: int = 13,
):
    """A shrunk Query 2: 3-sigma filter over an IID normal dataset with
    extraction {2, 4, 4}.  Returns (field, plan)."""
    field = normal_dataset(shape, seed=seed)
    q = StructuralQuery(
        variable="reading",
        extraction_shape=(2, 4, 4),
        operator=ThresholdFilterOp(threshold=threshold_sigmas),
    )
    return field, q.compile(field.metadata)
