"""Discrete-event cluster simulator.

The paper's evaluation ran on a 25-node cluster (24 DataNode/TaskTracker
workers, 4 map + 3 reduce slots each, 1 GbE, three HDFS disks per node,
3x replication, 128 MB blocks — §4).  This package simulates that
machine at event granularity and replays the three execution models:

* **Hadoop** — byte-range splits with structure-oblivious readers (read
  amplification, weak locality), hash partitioning, global barrier,
  reduces scheduled in ID order;
* **SciHadoop** — coordinate splits with strong locality, hash
  partitioning, global barrier;
* **SIDR** — coordinate splits, partition+ keyblocks, dependency
  barriers, reduce-first co-scheduling.

The output is a :class:`~repro.sim.timeline.TaskTimeline` — per-task
start/finish times — from which the bench harness derives the completion
curves of Figures 9-13 and the connection counts of Table 3.

Modeling notes (what is simulated vs. parameterized) are in the module
docstrings of :mod:`repro.sim.costmodel`; calibration constants live
with the workloads in :mod:`repro.bench.workloads`.
"""

from repro.sim.events import Simulator
from repro.sim.cluster import ClusterConfig, SimCluster
from repro.sim.costmodel import CostModel
from repro.sim.workload import (
    IntermediateDistribution,
    DependencyDistribution,
    ParitySkewDistribution,
    SimJobSpec,
    SimSplit,
    UniformDistribution,
)
from repro.sim.jobsim import ExecutionMode, simulate_job
from repro.sim.failure import (
    RecoveryCost,
    RecoveryModel,
    breakeven_failure_prob,
    evaluate_recovery,
)
from repro.sim.timeline import TaskTimeline

__all__ = [
    "Simulator",
    "ClusterConfig",
    "SimCluster",
    "CostModel",
    "IntermediateDistribution",
    "DependencyDistribution",
    "ParitySkewDistribution",
    "SimJobSpec",
    "SimSplit",
    "UniformDistribution",
    "ExecutionMode",
    "simulate_job",
    "RecoveryCost",
    "RecoveryModel",
    "breakeven_failure_prob",
    "evaluate_recovery",
    "TaskTimeline",
]
