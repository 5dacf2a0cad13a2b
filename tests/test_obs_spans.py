"""Unit tests for spans as a reading of events (repro.obs.spans), and
for the ``task.phase`` events ``JobObservability.phase`` publishes."""

import threading

import pytest

from repro.errors import ObservabilityError
from repro.obs import CAT_INSTANT, CAT_PHASE, CAT_TASK, EventBus, JobObservability
from repro.obs.spans import spans


def bus_of(*events):
    """A bus holding ``(t, type, fields)`` events, published at ``t``."""
    bus = EventBus()
    for t, type, fields in events:
        bus.publish(type, at=t, **fields)
    return bus


def task(kind, index, **data):
    return {"kind": kind, "index": index, **data}


def phase(kind, index, name, start):
    return {"kind": kind, "index": index, "name": name, "start": start}


class TestBasics:
    def test_start_end(self):
        bus = bus_of(
            (1.0, "task.start", task("map", 0)),
            (2.5, "task.finish", task("map", 0, status="ok")),
        )
        (s,) = spans(bus.events())
        assert s.finished
        assert (s.name, s.category, s.track) == ("map", CAT_TASK, "map 0")
        assert s.duration == 1.5

    def test_duration_of_open_span_is_error(self):
        (s,) = spans(bus_of((1.0, "task.start", task("map", 0))).events())
        assert not s.finished
        with pytest.raises(ObservabilityError):
            _ = s.duration

    def test_end_clamped_to_start(self):
        """Clock skew between explicit timestamps must not produce
        negative durations."""
        bus = bus_of((3.0, "barrier.fire", task("reduce", 0, since=5.0)))
        (wait,) = spans(bus.events())
        assert wait.name == "barrier.wait"
        assert wait.end == 5.0
        assert wait.duration == 0.0

    def test_ids_are_unique_and_ordered(self):
        bus = bus_of(*((float(i), "task.start", task("map", i)) for i in range(10)))
        ids = [s.span_id for s in spans(bus.events())]
        assert ids == list(range(10))


class TestHierarchy:
    def test_parent_linkage(self):
        bus = bus_of(
            (0.0, "job.start", {"name": "j"}),
            (1.0, "task.start", task("map", 3)),
            (2.0, "task.phase", phase("map", 3, "map.read", 1.5)),
            (3.0, "task.finish", task("map", 3, status="ok")),
            (4.0, "job.finish", {"name": "j"}),
        )
        job, map_task, read = spans(bus.events())
        assert job.parent_id is None
        assert map_task.parent_id == job.span_id
        assert read.parent_id == map_task.span_id
        assert (read.category, read.start, read.end) == (CAT_PHASE, 1.5, 2.0)
        assert job.end == 4.0

    def test_track_defaults_to_parent(self):
        bus = bus_of(
            (1.0, "task.start", task("map", 3)),
            (2.0, "task.phase", phase("map", 3, "map.read", 1.0)),
        )
        _, read = spans(bus.events())
        assert read.track == "map 3"

    def test_track_defaults_to_name_without_parent(self):
        """A phase published outside any attempt has no task to sit in."""
        obs = JobObservability()
        with obs.phase("solo", None):
            pass
        (s,) = spans(obs.bus.events())
        assert (s.track, s.parent_id) == ("solo", None)


class TestContextManager:
    def test_clean_exit_finishes(self):
        obs = JobObservability()
        with obs.phase("map.read", ("map", 0, 0)) as data:
            data["records"] = 7
        (ev,) = obs.bus.events()
        assert ev.type == "task.phase"
        assert (ev.kind, ev.index, ev.attempt) == ("map", 0, 0)
        assert ev.data["name"] == "map.read" and ev.data["records"] == 7
        assert ev.data["start"] <= ev.t
        (s,) = spans([ev])
        assert s.finished and s.args == {"records": 7}

    def test_error_recorded_and_reraised(self):
        obs = JobObservability()
        with pytest.raises(ValueError):
            with obs.phase("boom", ("reduce", 1, 2)):
                raise ValueError("x")
        (s,) = spans(obs.bus.events())
        assert s.finished
        assert s.args["error"] == "ValueError"


class TestSyntheticClock:
    def test_explicit_timestamps(self):
        """The simulator replays timelines with synthetic ``at=`` times."""
        bus = bus_of(
            (10.0, "task.start", task("reduce", 1)),
            (25.5, "task.finish", task("reduce", 1, status="ok")),
        )
        (s,) = spans(bus.events())
        assert s.start == 10.0
        assert s.duration == 15.5

    def test_instant(self):
        (s,) = spans(bus_of((3.0, "task.retry", task("map", 1))).events())
        assert s.category == CAT_INSTANT
        assert (s.name, s.track, s.args["index"]) == ("task.retry", "map 1", 1)
        assert s.start == 3.0
        assert s.duration == 0.0


class TestThreadSafety:
    def test_concurrent_recording_loses_nothing(self):
        """Phases published from many threads all become spans under
        their attempt, with unique ids."""
        obs = JobObservability()
        obs.start()
        obs.bus.publish("task.start", kind="map", index=0)
        n_threads, per_thread = 8, 50

        def work(t):
            for i in range(per_thread):
                with obs.phase(f"t{t}.{i}", ("map", 0, 0)):
                    pass

        threads = [
            threading.Thread(target=work, args=(t,)) for t in range(n_threads)
        ]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        obs.bus.publish("task.finish", kind="map", index=0, status="ok")
        obs.finish()
        job, attempt, *phases = obs.spans()
        assert len(phases) == n_threads * per_thread
        ids = [s.span_id for s in obs.spans()]
        assert len(set(ids)) == len(ids)
        assert all(s.parent_id == attempt.span_id for s in phases)
        assert attempt.parent_id == job.span_id
