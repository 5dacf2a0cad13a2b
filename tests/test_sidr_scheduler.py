"""Reduce-first scheduling (§3.3, §3.4), as the simulator implements it.

"SIDR inverts this process by scheduling Reduce tasks first with Map
tasks only becoming eligible to be scheduled if at least one Reduce task
that depends on it is already running."  :mod:`repro.sim.jobsim` is the
one implementation: reduces go out by priority, then index, and a map
starts only once a scheduled reduce depends on it.  One reduce slot in
the whole cluster makes the order observable as reduce waves.
"""

import pytest

from repro.errors import SimulationError
from repro.sim.cluster import ClusterConfig
from repro.sim.costmodel import MB
from repro.sim.jobsim import ExecutionMode, simulate_job
from repro.sim.workload import (
    DependencyDistribution,
    SimJobSpec,
    SimSplit,
    UniformDistribution,
)

ONE_REDUCE_SLOT = ClusterConfig(
    num_nodes=1, hosts_per_rack=1, map_slots_per_node=2, reduce_slots_per_node=1,
)


def spec(num_maps=6, distribution=None, priorities=None):
    """Two maps per keyblock by default (map ``m`` feeds block ``m // 2``)."""
    distribution = distribution or DependencyDistribution(
        [{m // 2: 1.0} for m in range(num_maps)], num_maps // 2
    )
    r = distribution.num_reduces()
    return SimJobSpec(
        name="reduce-first",
        splits=tuple(
            SimSplit(index=i, read_bytes=8 * MB, cells=(8 * MB) // 4,
                     output_bytes=1 * MB)
            for i in range(num_maps)
        ),
        distribution=distribution,
        reduce_output_bytes=tuple([1 * MB] * r),
        dense_output=True,
        priorities=priorities,
    )


def schedule_order(job):
    tl = simulate_job(job, ONE_REDUCE_SLOT, mode=ExecutionMode.SIDR)
    return sorted(range(job.num_reduces), key=lambda l: tl.reduce_scheduled[l])


class TestReduceOrder:
    def test_default_index_order(self):
        assert schedule_order(spec()) == [0, 1, 2]

    def test_priority_order(self):
        assert schedule_order(spec(priorities=(2.0, 0.0, 1.0))) == [1, 2, 0]

    def test_priority_ties_break_by_index(self):
        assert schedule_order(spec(priorities=(1.0, 1.0, 0.0))) == [2, 0, 1]

    def test_priority_length_checked(self):
        with pytest.raises(SimulationError):
            spec(priorities=(1.0,))


class TestEligibility:
    def test_maps_ineligible_until_reduce_scheduled(self):
        """No map starts before the first reduce that depends on it."""
        job = spec()
        tl = simulate_job(job, ONE_REDUCE_SLOT, mode=ExecutionMode.SIDR)
        for m in range(job.num_maps):
            unlocked = min(
                tl.reduce_scheduled[l]
                for l in range(job.num_reduces)
                if m in job.distribution.producers_of(l, job.num_maps)
            )
            assert tl.map_start[m] >= unlocked
        tl.validate()

    def test_shared_maps_marked_once(self):
        """Maps every reduce depends on are unlocked by the first one
        scheduled: they do not wait for the second."""
        job = spec(num_maps=2, distribution=UniformDistribution(2))
        tl = simulate_job(job, ONE_REDUCE_SLOT, mode=ExecutionMode.SIDR)
        assert tl.reduce_scheduled[0] < tl.reduce_scheduled[1]
        assert all(t < tl.reduce_scheduled[1] for t in tl.map_start)


    def test_unknown_block_rejected(self):
        with pytest.raises(SimulationError):
            DependencyDistribution([{7: 1.0}], 3)


class TestMapScheduling:
    def test_ineligible_map_rejected(self):
        """The central §3.3 invariant: block 2's maps (4, 5) have no
        running reduce until reduce 2 takes the single slot."""
        tl = simulate_job(spec(), ONE_REDUCE_SLOT, mode=ExecutionMode.SIDR)
        assert min(tl.map_start[4], tl.map_start[5]) >= tl.reduce_scheduled[2]
        assert tl.reduce_scheduled[2] >= tl.reduce_finish[1]

    def test_eligible_unscheduled_tracking(self):
        """An eligible map that found no free map slot takes the next
        one to free up, ahead of any map still ineligible."""
        one_slot_each = ClusterConfig(
            num_nodes=1, hosts_per_rack=1,
            map_slots_per_node=1, reduce_slots_per_node=1,
        )
        tl = simulate_job(spec(), one_slot_each, mode=ExecutionMode.SIDR)
        assert tl.map_start[1] == tl.map_finish[0]
        assert tl.map_start[1] < tl.reduce_scheduled[1]

    def test_full_schedule_walkthrough(self):
        """Scheduling every reduce runs every map, and every reduce
        finishes."""
        job = spec()
        tl = simulate_job(job, ONE_REDUCE_SLOT, mode=ExecutionMode.SIDR)
        assert all(f > 0 for f in tl.map_finish)
        assert all(f > 0 for f in tl.reduce_finish)
        tl.validate()
