"""Failure-recovery models (paper §6, future work).

"Building upon SIDR, we plan to investigate altering the MapReduce
failure recovery model to use the data dependency information to
re-execute subsets of Map tasks in the event of a Reduce task failure in
place of persisting all intermediate data to disk.  Our hypothesis is
that the performance savings in the non-failure case will offset said
re-execution cost."

This module quantifies that hypothesis analytically on top of a
completed simulation run.  Three recovery designs:

* ``PERSISTED`` — stock Hadoop: every map task persists its full
  intermediate output to local disk before committing (a spill cost paid
  on *every* map, failure or not); recovering a failed reduce re-fetches
  its data from the persisted files.
* ``REEXECUTE_ALL`` — no persistence, no dependency knowledge: a failed
  reduce must re-run *every* map task (the naive alternative Hadoop
  avoids by persisting).
* ``REEXECUTE_DEPS`` — SIDR's proposal: no persistence; a failed reduce
  re-runs only its dependency set I_l.

The model composes per-task costs from the same :class:`CostModel` as the
simulator, so the comparison is apples-to-apples with the timeline
benches.  Expected total cost = non-failure overhead + failure
probability x recovery cost, evaluated per reduce task and summed.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SimulationError
from repro.faults.recovery import RecoveryModel
from repro.sim.costmodel import CostModel
from repro.sim.workload import SimJobSpec

__all__ = [
    "RecoveryModel",
    "RecoveryCost",
    "evaluate_recovery",
    "breakeven_failure_prob",
]


@dataclass(frozen=True)
class RecoveryCost:
    """Expected costs of one recovery design for one job, in
    machine-seconds of extra work (comparable across designs)."""

    model: RecoveryModel
    #: Paid on every run regardless of failures (e.g. spill persistence).
    non_failure_overhead: float
    #: Expected extra work given per-reduce failure probability.
    expected_recovery: float

    @property
    def expected_total(self) -> float:
        return self.non_failure_overhead + self.expected_recovery


def _map_rerun_cost(spec: SimJobSpec, cost: CostModel, map_index: int) -> float:
    """Machine-seconds to re-execute one map task (local read assumed —
    re-execution is scheduled with locality like the original)."""
    sp = spec.splits[map_index]
    return (
        sp.read_bytes / cost.disk_rate_per_slot
        + sp.cells * cost.map_cpu_per_cell
        + sp.output_bytes / cost.spill_rate
        + cost.task_overhead
    )


def _refetch_cost(spec: SimJobSpec, cost: CostModel, reduce_index: int) -> float:
    """Machine-seconds to re-copy a reduce task's input from persisted
    map output."""
    producers = spec.distribution.producers_of(reduce_index, spec.num_maps)
    total = sum(
        spec.distribution.share(m, reduce_index) * spec.splits[m].output_bytes
        for m in producers
    )
    return (
        len(producers) * cost.fetch_latency
        + total / cost.net_rate_per_task
    )


def evaluate_recovery(
    spec: SimJobSpec,
    model: RecoveryModel,
    *,
    reduce_failure_prob: float = 0.01,
) -> RecoveryCost:
    """Expected machine-seconds of failure-handling work for one design.

    ``reduce_failure_prob`` is the independent probability that any given
    reduce task attempt fails once and is retried (second failures are
    ignored: they contribute O(p^2)).
    """
    if not (0.0 <= reduce_failure_prob <= 1.0):
        raise SimulationError("failure probability must be in [0, 1]")
    cost = CostModel()
    p = reduce_failure_prob

    if model is RecoveryModel.PERSISTED:
        # Non-failure: the persistence spill is already part of normal map
        # cost in Hadoop; the *extra* relative to a no-persistence design
        # is writing intermediate output durably (one full write pass).
        overhead = sum(
            sp.output_bytes / cost.spill_rate for sp in spec.splits
        )
        recovery = p * sum(
            _refetch_cost(spec, cost, l) for l in range(spec.num_reduces)
        )
        return RecoveryCost(model, overhead, recovery)

    if model is RecoveryModel.REEXECUTE_ALL:
        all_maps = sum(
            _map_rerun_cost(spec, cost, m) for m in range(spec.num_maps)
        )
        recovery = p * spec.num_reduces * all_maps
        return RecoveryCost(model, 0.0, recovery)

    if model is RecoveryModel.REEXECUTE_DEPS:
        recovery = 0.0
        for l in range(spec.num_reduces):
            deps = spec.distribution.producers_of(l, spec.num_maps)
            rerun = sum(_map_rerun_cost(spec, cost, m) for m in deps)
            rerun += _refetch_cost(spec, cost, l)
            recovery += p * rerun
        return RecoveryCost(model, 0.0, recovery)

    raise SimulationError(f"unknown recovery model {model!r}")


def breakeven_failure_prob(spec: SimJobSpec) -> float:
    """Failure probability at which SIDR's re-execute-deps stops paying
    off against persistence — the quantitative form of the paper's §6
    hypothesis.  Below this probability, skipping persistence wins.
    """
    cost = CostModel()
    persisted = evaluate_recovery(
        spec, RecoveryModel.PERSISTED, reduce_failure_prob=0.0
    )
    # persisted total(p) = overhead + p*refetch ; deps total(p) = p*rerun
    refetch = sum(
        _refetch_cost(spec, cost, l) for l in range(spec.num_reduces)
    )
    rerun = 0.0
    for l in range(spec.num_reduces):
        deps = spec.distribution.producers_of(l, spec.num_maps)
        rerun += sum(_map_rerun_cost(spec, cost, m) for m in deps)
        rerun += _refetch_cost(spec, cost, l)
    denom = rerun - refetch
    if denom <= 0:
        return 1.0  # re-execution never loses
    return min(1.0, persisted.non_failure_overhead / denom)
