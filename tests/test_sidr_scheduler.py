"""Unit tests for the SIDR scheduling policy (§3.3, §3.4)."""

import pytest

from repro.errors import SchedulerError
from repro.sidr.dependencies import DependencyMap
from repro.sidr.scheduler import SidrSchedulePolicy


def simple_deps():
    return DependencyMap(
        num_splits=6,
        num_blocks=3,
        producers=(
            frozenset({0}),
            frozenset({0}),
            frozenset({1}),
            frozenset({1}),
            frozenset({2}),
            frozenset({2}),
        ),
        dependencies=(
            frozenset({0, 1}),
            frozenset({2, 3}),
            frozenset({4, 5}),
        ),
    )


class TestReduceOrder:
    def test_default_index_order(self):
        p = SidrSchedulePolicy(deps=simple_deps())
        assert p.reduce_schedule_order() == [0, 1, 2]

    def test_priority_order(self):
        p = SidrSchedulePolicy(deps=simple_deps(), priorities=[2.0, 0.0, 1.0])
        assert p.reduce_schedule_order() == [1, 2, 0]

    def test_priority_ties_break_by_index(self):
        p = SidrSchedulePolicy(deps=simple_deps(), priorities=[1.0, 1.0, 0.0])
        assert p.reduce_schedule_order() == [2, 0, 1]

    def test_priority_length_checked(self):
        with pytest.raises(SchedulerError):
            SidrSchedulePolicy(deps=simple_deps(), priorities=[1.0])


class TestEligibility:
    def test_maps_ineligible_until_reduce_scheduled(self):
        p = SidrSchedulePolicy(deps=simple_deps())
        assert not p.is_map_eligible(0)
        newly = p.on_reduce_scheduled(0)
        assert newly == frozenset({0, 1})
        assert p.is_map_eligible(0) and p.is_map_eligible(1)
        assert not p.is_map_eligible(2)

    def test_shared_maps_marked_once(self):
        deps = DependencyMap(
            num_splits=2,
            num_blocks=2,
            producers=(frozenset({0, 1}), frozenset({0, 1})),
            dependencies=(frozenset({0, 1}), frozenset({0, 1})),
        )
        p = SidrSchedulePolicy(deps=deps)
        assert p.on_reduce_scheduled(0) == frozenset({0, 1})
        assert p.on_reduce_scheduled(1) == frozenset()

    def test_double_reduce_schedule_rejected(self):
        p = SidrSchedulePolicy(deps=simple_deps())
        p.on_reduce_scheduled(0)
        with pytest.raises(SchedulerError):
            p.on_reduce_scheduled(0)

    def test_unknown_block_rejected(self):
        p = SidrSchedulePolicy(deps=simple_deps())
        with pytest.raises(SchedulerError):
            p.on_reduce_scheduled(7)


class TestMapScheduling:
    def test_ineligible_map_rejected(self):
        """The central §3.3 invariant: a map may run only when a running
        reduce depends on it."""
        p = SidrSchedulePolicy(deps=simple_deps())
        with pytest.raises(SchedulerError):
            p.on_map_scheduled(0)

    def test_eligible_map_accepted_once(self):
        p = SidrSchedulePolicy(deps=simple_deps())
        p.on_reduce_scheduled(0)
        p.on_map_scheduled(0)
        with pytest.raises(SchedulerError):
            p.on_map_scheduled(0)
        assert p.scheduled_maps == frozenset({0})

    def test_eligible_unscheduled_tracking(self):
        p = SidrSchedulePolicy(deps=simple_deps())
        p.on_reduce_scheduled(1)
        assert p.eligible_unscheduled_maps() == frozenset({2, 3})
        p.on_map_scheduled(2)
        assert p.eligible_unscheduled_maps() == frozenset({3})

    def test_full_schedule_walkthrough(self):
        """Scheduling all reduces makes all maps eligible exactly once."""
        p = SidrSchedulePolicy(deps=simple_deps())
        marked = set()
        for l in p.reduce_schedule_order():
            marked |= p.on_reduce_scheduled(l)
        assert marked == set(range(6))
        assert p.scheduled_reduces == frozenset({0, 1, 2})


def folded_bus():
    """A run's bus, and ``m()``: its registry once the run finishes and
    the metrics fold reads the record."""
    from repro.obs import JobObservability

    obs = JobObservability("sched")

    def m():
        obs.finish()
        return obs.metrics

    return m, obs.bus


class TestSchedulerMetrics:
    def test_decisions_counted(self):
        m, bus = folded_bus()
        p = SidrSchedulePolicy(deps=simple_deps(), bus=bus)
        for l in p.reduce_schedule_order():
            p.on_reduce_scheduled(l)
        for i in range(6):
            p.on_map_scheduled(i)
        c = m().snapshot()["counters"]
        assert c["sched.reduce.scheduled"] == 3
        assert c["sched.maps.unlocked"] == 6
        assert c["sched.map.scheduled"] == 6

    def test_plan_threads_metrics_through(self):
        from repro.query.language import StructuralQuery
        from repro.query.operators import MeanOp
        from repro.query.splits import slice_splits
        from repro.scidata.generators import temperature_dataset
        from repro.sidr.planner import build_plan

        field = temperature_dataset(days=14, lat=10, lon=6)
        plan = StructuralQuery(
            variable="temperature",
            extraction_shape=(7, 5, 1),
            operator=MeanOp(),
        ).compile(field.metadata)
        splits = slice_splits(plan, num_splits=4)
        sidr = build_plan(plan, splits, 2)
        m, bus = folded_bus()
        policy = sidr.schedule_policy(bus=bus)
        policy.on_reduce_scheduled(0)
        assert m().snapshot()["counters"]["sched.reduce.scheduled"] == 1
