"""Row producers for the paper's tables and micro-benchmarks.

* Table 2 (§4.4) — real file IO: a representative reduce task writes its
  output under the sentinel-file strategy (file sized to the whole
  output space, scattered writes) vs SIDR's contiguous writer (dense
  block, constant cost).  The paper fixes per-task data and doubles the
  total output / task count per row; we do the same at laptop scale.
* Table 3 (§4.6) — network connections between map and reduce tasks:
  Hadoop = maps x reduces; SIDR = sum of |I_l|, computed from the real
  dependency analysis of Query 1's splits.
* §4.5 — partition micro-benchmark: time to partition millions of
  intermediate keys with the default hash partitioner vs partition+.
* Ablations (DESIGN.md §6): skew-bound sweep; store-vs-recompute of the
  dependency map.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

import numpy as np

from repro.arrays.shape import volume
from repro.arrays.slab import Slab
from repro.bench.workloads import Workload, query1_workload
from repro.mapreduce.partitioner import HashPartitioner
from repro.scidata.sparse import (
    ContiguousWriter,
    CoordinatePairWriter,
    SentinelFileWriter,
)
from repro.sidr.dependencies import compute_dependencies, recompute_for_block
from repro.sidr.partition_plus import partition_plus


# --------------------------------------------------------------------- #
# Table 2: individual reduce write time and size scaling
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class Table2Row:
    strategy: str
    total_reduces: int
    seconds_mean: float
    seconds_std: float
    file_size_bytes: int
    seeks: int


def table2_reduce_write_scaling(
    tmpdir: str,
    *,
    reduce_counts: tuple[int, ...] = (20, 40, 80),
    cells_per_task: int = 65_536,
    runs: int = 3,
) -> list[Table2Row]:
    """Reproduce Table 2 at laptop scale.

    The paper fixes the data written per task (24.8 MB there; here
    ``cells_per_task`` doubles), then scales the number of reduce tasks
    and with it the total output space.  A sentinel-strategy task writes
    a file the size of the whole space with its cells scattered (every
    r-th row-major position, the modulo partitioner's layout); time and
    file size grow with the task count.  The SIDR task writes one dense
    contiguous block; its row is constant.
    """
    rows: list[Table2Row] = []
    rank_cols = 256  # trailing dimension; rows scale with total size
    for r in reduce_counts:
        total_cells = cells_per_task * r
        space = (total_cells // rank_cols, rank_cols)
        # The sentinel task owns every r-th row (hash layout): scattered.
        own_rows = range(0, space[0], r)
        cells = [
            (Slab((i, 0), (1, rank_cols)), np.full(rank_cols, 1.0))
            for i in own_rows
        ]
        writer = SentinelFileWriter(space)
        times = []
        size = seeks = 0
        for run in range(runs):
            path = os.path.join(tmpdir, f"sentinel-{r}-{run}.nc")
            rep = writer.write(path, cells)
            times.append(rep.seconds)
            size, seeks = rep.file_size, rep.seeks
            os.unlink(path)
        rows.append(
            Table2Row(
                strategy="sentinel",
                total_reduces=r,
                seconds_mean=float(np.mean(times)),
                seconds_std=float(np.std(times)),
                file_size_bytes=size,
                seeks=seeks,
            )
        )
    # SIDR: one dense block of the fixed per-task size, any total scale.
    block_rows = cells_per_task // rank_cols
    block = Slab((0, 0), (block_rows, rank_cols))
    data = np.ones((block_rows, rank_cols))
    writer = ContiguousWriter((block_rows * reduce_counts[-1], rank_cols))
    times = []
    size = 0
    for run in range(runs):
        path = os.path.join(tmpdir, f"contig-{run}.nc")
        rep = writer.write(path, block, data)
        times.append(rep.seconds)
        size = rep.file_size
        os.unlink(path)
    rows.append(
        Table2Row(
            strategy="sidr-contiguous",
            total_reduces=reduce_counts[-1],
            seconds_mean=float(np.mean(times)),
            seconds_std=float(np.std(times)),
            file_size_bytes=size,
            seeks=0,
        )
    )
    return rows


def coordinate_pair_overhead(tmpdir: str) -> float:
    """§4.4's alternative sparse layout: bytes written per useful byte of
    a coordinate/value file of 16 384 cells (a constant scalar, the
    paper notes)."""
    rank_cols = 128
    rows = 16_384 // rank_cols
    space = (rows * 4, rank_cols)
    cells = [
        (Slab((i * 4, 0), (1, rank_cols)), np.full(rank_cols, 1.0))
        for i in range(rows)
    ]
    writer = CoordinatePairWriter(space)
    rep = writer.write(os.path.join(tmpdir, "coords.bin"), cells)
    return rep.overhead_ratio


# --------------------------------------------------------------------- #
# Table 3: network connection scaling
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class Table3Row:
    num_maps: int
    num_reduces: int
    hadoop_connections: int
    sidr_connections: int


def table3_network_connections(
    *,
    reduce_counts: tuple[int, ...] = (22, 66, 132, 264, 528, 1024),
    workload: Workload | None = None,
) -> list[Table3Row]:
    """Reproduce Table 3 from the real dependency analysis of Query 1.

    Paper row for 2781/22: Hadoop 61,182 vs SIDR 2,820; at 1024 reduces
    Hadoop needs 2.94 M connections vs SIDR's 5,106.
    """
    wl = workload or query1_workload()
    rows: list[Table3Row] = []
    for r in reduce_counts:
        plan = wl.sidr_plan(r)
        rows.append(
            Table3Row(
                num_maps=wl.num_splits,
                num_reduces=r,
                hadoop_connections=plan.deps.hadoop_connections(),
                sidr_connections=plan.deps.sidr_connections,
            )
        )
    return rows


# --------------------------------------------------------------------- #
# §4.5: partition function micro-benchmark
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class PartitionMicroResult:
    num_keys: int
    default_seconds: float
    partition_plus_seconds: float

    @property
    def slowdown(self) -> float:
        return self.partition_plus_seconds / self.default_seconds


def sec45_partition_micro(
    *,
    num_keys: int = 6_480_000,
    runs: int = 3,
) -> PartitionMicroResult:
    """Time partitioning ``num_keys`` intermediate keys both ways, over
    22 reduces.

    The paper loads 6.48 M key/value pairs and measures 200 ms for the
    default partition function vs 223 ms for partition+ (~1.1x).  Keys
    here are uniform random coordinates in Query 1's K'_T space.
    """
    space, num_reduces = (3600, 10, 20, 5), 22
    rng = np.random.default_rng(0)
    keys = np.column_stack(
        [rng.integers(0, e, size=num_keys) for e in space]
    ).astype(np.int64)
    default = HashPartitioner()
    part = partition_plus(space, num_reduces)
    from repro.mapreduce.partitioner import RangePartitioner

    plus = RangePartitioner(space, part.cell_boundaries())

    def best_of(fn) -> float:
        times = []
        for _ in range(runs):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        return min(times)

    t_default = best_of(lambda: default.partition_many(keys, num_reduces))
    t_plus = best_of(lambda: plus.partition_many(keys, num_reduces))
    return PartitionMicroResult(
        num_keys=num_keys,
        default_seconds=t_default,
        partition_plus_seconds=t_plus,
    )


# --------------------------------------------------------------------- #
# Ablations (DESIGN.md §6)
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class SkewBoundRow:
    skew_bound: int
    unit_volume: int
    max_skew_cells: int
    sidr_connections: int
    #: A bound can be infeasible: too few unit-shape instances for the
    #: reducer count (partition+ rejects it rather than producing empty
    #: keyblocks).
    feasible: bool = True


def ablation_skew_bound(
    *,
    bounds: tuple[int, ...] = (100, 1000, 10_000, 100_000),
    num_reduces: int = 66,
    workload: Workload | None = None,
) -> list[SkewBoundRow]:
    """Sweep partition+'s skew bound: smaller bounds give tighter balance
    but more, finer unit shapes; larger bounds give simpler routing
    (footnote 1 of §3.1)."""
    from repro.errors import PartitionError

    wl = workload or query1_workload()
    rows: list[SkewBoundRow] = []
    for b in bounds:
        try:
            plan = wl.sidr_plan(num_reduces, skew_bound=b)
        except PartitionError:
            rows.append(
                SkewBoundRow(
                    skew_bound=b,
                    unit_volume=0,
                    max_skew_cells=0,
                    sidr_connections=0,
                    feasible=False,
                )
            )
            continue
        rows.append(
            SkewBoundRow(
                skew_bound=b,
                unit_volume=volume(plan.partition.unit_shape),
                max_skew_cells=plan.partition.max_skew_cells(),
                sidr_connections=plan.deps.sidr_connections,
            )
        )
    return rows


@dataclass(frozen=True)
class StoreRecomputeResult:
    store_seconds: float
    recompute_one_seconds: float
    recompute_all_seconds_est: float


def ablation_store_vs_recompute(
    *, num_reduces: int = 176, workload: Workload | None = None
) -> StoreRecomputeResult:
    """§3.2.1's store-vs-recompute trade-off, timed.

    "Store" computes the whole dependency map at job submission (what
    SIDR does); "re-compute" derives one I_l at reduce startup.
    """
    wl = workload or query1_workload()
    plan = wl.plan
    part = partition_plus(plan.intermediate_space, num_reduces)
    t0 = time.perf_counter()
    deps = compute_dependencies(plan, wl.splits, part)
    store = time.perf_counter() - t0
    t0 = time.perf_counter()
    one = recompute_for_block(plan, wl.splits, part, num_reduces // 2)
    t_one = time.perf_counter() - t0
    assert one == deps.dependencies[num_reduces // 2]
    return StoreRecomputeResult(
        store_seconds=store,
        recompute_one_seconds=t_one,
        recompute_all_seconds_est=t_one * num_reduces,
    )
