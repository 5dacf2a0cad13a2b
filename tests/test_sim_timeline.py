"""Unit tests for TaskTimeline metrics and curves."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.sim.timeline import TaskTimeline


def timeline(map_finish, reduce_finish, weights=None):
    n_m, n_r = len(map_finish), len(reduce_finish)
    tl = TaskTimeline(
        mode="test",
        num_maps=n_m,
        num_reduces=n_r,
        map_start=[0.0] * n_m,
        map_finish=list(map_finish),
        reduce_scheduled=[0.0] * n_r,
        reduce_processing_start=[min(reduce_finish)] * n_r
        if reduce_finish
        else [],
        reduce_finish=list(reduce_finish),
        reduce_weights=list(weights) if weights else [1.0 / n_r] * n_r,
    )
    # Fix processing_start to be <= each finish for validation.
    tl.reduce_processing_start = [f for f in reduce_finish]
    return tl


class TestMetrics:
    def test_makespan_and_first(self):
        tl = timeline([10.0, 20.0], [25.0, 40.0])
        assert tl.makespan == 40.0
        assert tl.last_map_finish == 20.0
        assert tl.first_result_time == 25.0

    def test_early_reduce_count(self):
        tl = timeline([10.0, 50.0], [30.0, 60.0])
        assert tl.reduces_finished_before_last_map() == 1

    def test_validate_rejects_inverted_phases(self):
        tl = timeline([10.0], [20.0])
        tl.reduce_processing_start = [25.0]  # after finish
        with pytest.raises(SimulationError):
            tl.validate()

    def test_validate_rejects_missing_tasks(self):
        tl = timeline([10.0], [20.0])
        tl.map_finish = []
        with pytest.raises(SimulationError):
            tl.validate()


class TestCurves:
    def test_map_curve(self):
        tl = timeline([30.0, 10.0, 20.0], [40.0])
        c = tl.map_completion_curve()
        assert c.times == (10.0, 20.0, 30.0)
        assert c.fractions[-1] == pytest.approx(1.0)

    def test_reduce_curve_weighted(self):
        tl = timeline([1.0], [10.0, 20.0], weights=[0.75, 0.25])
        c = tl.reduce_completion_curve()
        assert c.fraction_at(10.0) == pytest.approx(0.75)
        assert c.fraction_at(20.0) == pytest.approx(1.0)

    def test_reduce_curve_unweighted_default(self):
        tl = timeline([1.0], [10.0, 20.0, 30.0, 40.0])
        c = tl.reduce_completion_curve()
        assert c.fraction_at(20.0) == pytest.approx(0.5)

    def test_sampled_curve_bounds(self):
        tl = timeline([1.0], [10.0, 20.0])
        vals = tl.sampled_reduce_curve(np.array([0.0, 15.0, 99.0]))
        assert vals[0] == 0.0
        assert vals[1] == pytest.approx(0.5)
        assert vals[2] == pytest.approx(1.0)

    def test_fraction_done_at(self):
        tl = timeline([1.0], [10.0, 20.0])
        assert tl.fraction_done_at(5.0) == 0.0
        assert tl.fraction_done_at(10.0) == pytest.approx(0.5)

    def test_summary_keys(self):
        tl = timeline([5.0], [10.0])
        s = tl.summary()
        assert set(s) == {
            "makespan",
            "last_map_finish",
            "first_result",
            "early_reduces",
            "connections",
        }


def map_only_timeline(map_finish):
    n_m = len(map_finish)
    return TaskTimeline(
        mode="test",
        num_maps=n_m,
        num_reduces=0,
        map_start=[0.0] * n_m,
        map_finish=list(map_finish),
    )


class TestZeroReduces:
    """Regression: map-only timelines used to crash with an IndexError
    in ``reduce_completion_curve`` (``fr[-1]`` on an empty cumsum)."""

    def test_empty_reduce_curve(self):
        c = map_only_timeline([10.0, 20.0]).reduce_completion_curve()
        assert c.times == ()
        assert c.fractions == ()

    def test_fraction_done_at_zero_reduces(self):
        assert map_only_timeline([10.0]).fraction_done_at(99.0) == 0.0

    def test_sampled_curve_zero_reduces(self):
        vals = map_only_timeline([10.0]).sampled_reduce_curve(
            np.array([0.0, 5.0, 50.0])
        )
        assert list(vals) == [0.0, 0.0, 0.0]

    def test_summary_zero_reduces(self):
        s = map_only_timeline([10.0]).summary()
        assert s["first_result"] == float("inf")
        assert s["early_reduces"] == 0.0
        assert s["makespan"] == 10.0


class TestObservabilityBridge:
    def test_replay_matches_timeline(self):
        tl = TaskTimeline(
            mode="test",
            num_maps=2,
            num_reduces=1,
            map_start=[0.0, 1.0],
            map_finish=[4.0, 6.0],
            reduce_scheduled=[0.5],
            reduce_processing_start=[5.0],
            reduce_finish=[9.0],
            reduce_barrier_ready=[4.0],
            reduce_weights=[1.0],
            shuffle_connections=2,
        )
        obs = tl.to_observability("replay")
        spans = obs.spans()

        def find(name):
            return [s for s in spans if s.name == name]

        (job,) = find("job")
        assert job.start == 0.0 and job.end == 9.0
        maps = sorted(find("map"), key=lambda s: s.args["index"])
        assert [(s.start, s.end) for s in maps] == [(0.0, 4.0), (1.0, 6.0)]
        (wait,) = find("barrier.wait")
        assert (wait.start, wait.end) == (0.5, 4.0)
        (reduce,) = find("reduce")
        assert (reduce.start, reduce.end) == (4.0, 9.0)
        # The reduce's phases are task.phase events, nested as a real
        # run's are.
        (fetch,) = find("reduce.fetch")
        assert (fetch.start, fetch.end) == (4.0, 5.0)
        (red,) = find("reduce.reduce")
        assert (red.start, red.end) == (5.0, 9.0)
        for phase in (fetch, red):
            assert phase.parent_id == reduce.span_id
            assert phase.track == reduce.track == "reduce 0"
        # Barrier satisfied at t=4 < last map finish at t=6: early start.
        assert len(find("reduce.early_start")) == 1
        snap = obs.metrics.snapshot()
        fetch_hist = snap["histograms"]["shuffle.fetch.seconds"]
        assert fetch_hist["count"] == tl.num_reduces
        assert fetch_hist["sum"] == 1.0
        assert snap["counters"]["barrier.early.starts"] == 1
        assert snap["counters"]["shuffle.fetch.connections"] == 2
        assert snap["gauges"]["job.makespan.seconds"] == 9.0

    def test_replay_without_barrier_ready_falls_back(self):
        """Old timelines (no ``reduce_barrier_ready``) still replay, using
        the processing start as the barrier-satisfaction time."""
        tl = timeline([5.0], [10.0])
        obs = tl.to_observability()
        (wait,) = [s for s in obs.spans() if s.name == "barrier.wait"]
        assert wait.end == 10.0  # processing_start fallback
        assert obs.job_name == "sim-test"
