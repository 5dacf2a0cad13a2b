"""Live observability plane: event bus, progress/ETA, stragglers.

Covers the streaming contracts the post-hoc trace cannot express:

* bus basics — the record's total order under concurrent publishers,
  listener isolation;
* happens-before on a real threaded run — no reduce starts before its
  barrier fires, no partition is fetched before a spill committed it;
* progress snapshots, the cost-model ETA bridge, and the inflight gauge;
* straggler flagging, a reading of the record, driven by the ``slow``
  fault injector;
* JSONL durability: a replayed event file aggregates to the same
  per-phase totals as the engine's own post-hoc trace;
* the simulator joining the same plane via ``replay_events``.
"""

import json
import threading
import time

import pytest

from repro.errors import InjectedFaultError, JobFailedError
from repro.faults import FaultKind, FaultRule, InjectionPlan
from repro.mapreduce.counters import Counters
from repro.mapreduce.engine import GlobalBarrier, LocalEngine
from repro.obs import JobObservability, MetricsRegistry
from repro.obs.folds import MetricsFold
from repro.obs.live import (
    CostModelEta,
    EventBus,
    JsonlEventWriter,
    ProgressTracker,
    StragglerDetector,
    phase_totals,
    read_events,
)
from repro.query.splits import slice_splits
from repro.sidr.planner import build_sidr_job
from repro.sim.timeline import TaskTimeline
from repro.spec import REASON_HANG, REASON_SUPERSEDED

from tests.test_mapreduce_engine import counting_job


def run_with_bus(job, barrier, engine=None, *, bus=None, metrics=None):
    """Threaded run with the live plane attached; returns (result, events)."""
    metrics = metrics or MetricsRegistry()
    bus = bus or EventBus(metrics=metrics)
    obs = JobObservability(job.name, metrics=metrics, bus=bus)
    engine = engine or LocalEngine()
    res = engine.run_threaded(job, barrier, obs=obs)
    assert bus.listener_errors == 0, bus.first_listener_error
    return res, bus.events()


# --------------------------------------------------------------------- #
# Bus basics
# --------------------------------------------------------------------- #
class TestEventBus:
    def test_seq_is_a_total_order(self):
        bus = EventBus()
        seen = []
        bus.attach(seen.append)
        for i in range(10):
            bus.publish("tick", index=i)
        assert [e.seq for e in bus.events()] == list(range(10))
        assert seen == bus.events()
        assert bus.published == 10
        # ``since`` reads the record from a seq on
        assert [e.index for e in bus.events(since=7)] == [7, 8, 9]

    def test_timestamps_monotonic(self):
        bus = EventBus()
        for _ in range(5):
            bus.publish("tick")
        ts = [e.t for e in bus.events()]
        assert ts == sorted(ts)

    def test_to_json_omits_empty_fields(self):
        bus = EventBus()
        ev = bus.publish("job.start", name="j")
        doc = ev.to_json()
        assert doc["type"] == "job.start"
        assert "kind" not in doc and "index" not in doc
        assert doc["data"] == {"name": "j"}
        task = bus.publish("task.start", kind="map", index=3)
        assert task.to_json()["kind"] == "map"
        assert "data" not in task.to_json()

    def test_listener_may_publish(self):
        bus = EventBus()

        def echo(ev):
            if ev.type == "ping":
                bus.publish("pong")

        bus.attach(echo)
        bus.publish("ping")
        assert [e.type for e in bus.events()] == ["ping", "pong"]

    def test_listener_exceptions_counted_not_raised(self):
        bus = EventBus()
        assert bus.first_listener_error is None
        bus.attach(lambda ev: 1 / 0)
        bus.attach(lambda ev: [][0])
        bus.publish("tick")
        assert bus.listener_errors == 2
        assert isinstance(bus.first_listener_error, ZeroDivisionError)

    def test_concurrent_publishers_lossless_order(self):
        """N threads publish at once: the record is in strictly
        increasing ``seq`` and holds exactly what a listener saw."""
        bus = EventBus()
        seen = []
        bus.attach(seen.append)

        def worker(k):
            for _ in range(200):
                bus.publish("tick", index=k)

        threads = [
            threading.Thread(target=worker, args=(k,)) for k in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        events = bus.events()
        seqs = [e.seq for e in events]
        assert len(events) == 800
        assert all(a < b for a, b in zip(seqs, seqs[1:]))
        assert bus.published == len(seen) == 800
        assert sorted(seen, key=lambda e: e.seq) == events


# --------------------------------------------------------------------- #
# Happens-before on a real threaded run
# --------------------------------------------------------------------- #
class TestEventOrdering:
    @pytest.fixture(scope="class")
    def sidr_events(self, weekly_mean_plan, temp_data):
        splits = slice_splits(weekly_mean_plan, num_splits=8)
        job, barrier, _ = build_sidr_job(
            weekly_mean_plan, splits, 4, temp_data
        )
        _, events = run_with_bus(job, barrier)
        return events

    def test_no_reduce_start_before_barrier_fire(self, sidr_events):
        fired = set()
        for ev in sidr_events:
            if ev.type == "barrier.fire":
                fired.add(ev.index)
            elif ev.type == "task.start" and ev.kind == "reduce":
                assert ev.index in fired, (
                    f"reduce {ev.index} started at seq {ev.seq} before "
                    "its barrier fired"
                )

    def test_spill_commit_precedes_fetch_of_partition(self, sidr_events):
        # (map, partition) committed so far, in bus order.
        committed = set()
        fetches = 0
        for ev in sidr_events:
            if ev.type == "spill.commit":
                for part in ev.data["partitions"]:
                    committed.add((ev.index, part))
            elif ev.type == "fetch":
                fetches += 1
                assert (ev.data["map"], ev.index) in committed, (
                    f"reduce {ev.index} fetched map {ev.data['map']} "
                    "before its spill committed"
                )
        assert fetches > 0

    def test_job_start_first_and_finish_last(self, sidr_events):
        assert sidr_events[0].type == "job.start"
        assert sidr_events[-1].type == "job.finish"

    def test_every_start_has_exactly_one_finish(self, sidr_events):
        starts = [
            (e.kind, e.index, e.attempt)
            for e in sidr_events
            if e.type == "task.start"
        ]
        finishes = [
            (e.kind, e.index, e.attempt)
            for e in sidr_events
            if e.type == "task.finish"
        ]
        assert sorted(starts) == sorted(finishes)
        assert len(starts) == 8 + 4


# --------------------------------------------------------------------- #
# Inflight gauge
# --------------------------------------------------------------------- #
class TestInflightGauge:
    @pytest.mark.parametrize("runner", ["run_serial", "run_threaded"])
    def test_gauge_returns_to_zero(self, runner):
        job, barrier = counting_job(), GlobalBarrier()
        metrics = MetricsRegistry()
        bus = EventBus(metrics=metrics)
        obs = JobObservability(job.name, metrics=metrics, bus=bus)
        getattr(LocalEngine(), runner)(job, barrier, obs=obs)
        assert metrics.gauge("obs.tasks.inflight").value == 0.0
        # The gauge is raised while tasks are in flight: folded over the
        # record up to the first finish, it reads the attempts running.
        events = bus.events()
        first_finish = next(
            i for i, ev in enumerate(events) if ev.type == "task.finish"
        )
        prefix = MetricsRegistry()
        fold = MetricsFold(prefix)
        for ev in events[:first_finish]:
            fold(ev)
        assert prefix.gauge("obs.tasks.inflight").value >= 1.0


# --------------------------------------------------------------------- #
# Progress, snapshot, ETA
# --------------------------------------------------------------------- #
class TestProgress:
    def test_snapshot_through_a_real_run(self, weekly_mean_plan, temp_data):
        splits = slice_splits(weekly_mean_plan, num_splits=8)
        job, barrier, sidr = build_sidr_job(
            weekly_mean_plan, splits, 4, temp_data
        )
        metrics = MetricsRegistry()
        bus = EventBus(metrics=metrics)
        progress = ProgressTracker(
            bus, estimator=CostModelEta(sidr)
        )
        assert progress.snapshot()["state"] == "pending"
        obs = JobObservability(job.name, metrics=metrics, bus=bus)
        LocalEngine().run_threaded(job, barrier, obs=obs)
        snap = progress.snapshot()
        assert snap["state"] == "done"
        assert snap["progress"] == 1.0
        assert snap["maps"] == {
            "total": 8, "done": 8, "inflight": 0, "fraction": 1.0,
        }
        assert snap["reduces"]["done"] == 4
        assert snap["reduces"]["fired"] == 4
        assert snap["tasks_inflight"] == 0
        assert snap["eta"] == 0.0
        assert snap["events"] == {"published": bus.published}
        # The curve reaches all 4 reduces, monotonically, as fractions.
        curve = snap["reduce_curve"]
        assert [f for _, f in curve] == [0.25, 0.5, 0.75, 1.0]
        assert [t for t, _ in curve] == sorted(t for t, _ in curve)
        json.dumps(snap)  # the whole document must be JSON-serializable

    def test_eta_declines_as_work_completes(self):
        bus = EventBus(clock=lambda: 0.0)
        progress = ProgressTracker(bus)
        bus.publish("job.start", at=0.0, name="j", maps=4, reduces=2)
        for i in range(4):
            bus.publish("task.start", kind="map", index=i, at=float(i))
            bus.publish(
                "task.finish", kind="map", index=i, at=float(i) + 1.0,
                status="ok", seconds=1.0,
            )
        # Rate extrapolation (no estimator): maps and reduces weigh
        # equally, so all-maps-done is half the job — 4s elapsed at
        # fraction 0.5 extrapolates to 4s remaining.
        eta = progress.eta_seconds(now=4.0)
        assert eta == pytest.approx(4.0)
        # Finishing one of the two reduces cuts the estimate.
        bus.publish("barrier.fire", kind="reduce", index=0, at=4.0)
        bus.publish("task.start", kind="reduce", index=0, at=4.0)
        bus.publish(
            "task.finish", kind="reduce", index=0, at=5.0,
            status="ok", seconds=1.0,
        )
        later = progress.eta_seconds(now=5.0)
        assert later is not None and later < 4.0
        snap = progress.snapshot(now=4.0)
        assert snap["maps"]["fraction"] == 1.0
        assert snap["state"] == "running"

    def test_cost_model_eta_prices_the_plan(
        self, weekly_mean_plan, temp_data
    ):
        splits = slice_splits(weekly_mean_plan, num_splits=8)
        _, _, sidr = build_sidr_job(weekly_mean_plan, splits, 4, temp_data)
        eta = CostModelEta(sidr)
        assert eta.predicted_seconds("map", 0) > 0.0
        assert eta.predicted_seconds("reduce", 0) > 0.0
        assert eta.predicted_makespan() > 0.0

    def test_failed_job_state(self):
        bus = EventBus(clock=lambda: 0.0)
        progress = ProgressTracker(bus)
        bus.publish("job.start", at=0.0, name="j", maps=1, reduces=0)
        bus.publish("task.start", kind="map", index=0, at=0.0)
        bus.publish(
            "task.finish", kind="map", index=0, at=1.0,
            status="failed", error="InjectedFaultError",
        )
        bus.publish("job.finish", at=1.0, name="j")
        snap = progress.snapshot(now=1.0)
        assert snap["state"] == "failed"
        assert snap["attempts"]["failures"] == 1

    def test_counts_attempts_as_the_counters_do(self):
        """In flight is per attempt (a primary and its racing backup are
        two), and ``attempts.failures`` is ``task.failures``: a ``lost``
        loser is no failure, a hang-mitigation cancel is one."""
        bus = EventBus(clock=lambda: 0.0)
        progress = ProgressTracker(bus)
        bus.publish("job.start", at=0.0, name="j", maps=2, reduces=0)
        for attempt in (0, 1):
            bus.publish("task.start", kind="map", index=0, attempt=attempt)
        assert progress.snapshot()["maps"]["inflight"] == 2
        bus.publish("task.finish", kind="map", index=0, attempt=1,
                    status="ok", seconds=0.5)
        assert progress.snapshot()["maps"]["inflight"] == 1
        bus.publish("task.finish", kind="map", index=0, attempt=0,
                    status="lost", error="TaskCancelledError", seconds=1.0)
        bus.publish("task.cancelled", kind="map", index=0, attempt=0,
                    reason=REASON_SUPERSEDED)
        bus.publish("task.start", kind="map", index=1, attempt=0)
        bus.publish("task.finish", kind="map", index=1, attempt=0,
                    status="cancelled", error="TaskCancelledError")
        bus.publish("task.cancelled", kind="map", index=1, attempt=0,
                    reason=REASON_HANG)
        bus.publish("task.retry", kind="map", index=1, attempt=0)
        bus.publish("task.start", kind="map", index=1, attempt=1)
        bus.publish("task.finish", kind="map", index=1, attempt=1,
                    status="ok", seconds=0.1)
        bus.publish("job.finish", name="j")
        counters = Counters()
        counters.fold(bus.events())
        snap = progress.snapshot()
        assert snap["state"] == "done"
        assert snap["tasks_inflight"] == 0
        assert snap["attempts"] == {
            "retries": counters.get("task.retries"),
            "failures": counters.get("task.failures"),
        } == {"retries": 1, "failures": 1}


class TestFinishOnFailure:
    """Every outcome leaves through the engine's single finish site, so
    a failed job closes its span and says so on the bus — whichever
    executor ran it."""

    @pytest.mark.parametrize(
        "mode,raised",
        [
            ("serial", InjectedFaultError),
            ("threaded", JobFailedError),
        ],
    )
    def test_crashed_map_still_finishes_the_job(self, mode, raised):
        bus = EventBus()
        job = counting_job()
        obs = JobObservability(job.name, bus=bus)
        engine = LocalEngine(
            faults=InjectionPlan(
                rules=(
                    FaultRule(
                        task="map", kind=FaultKind.CRASH,
                        indices=frozenset({1}),
                    ),
                )
            )
        )
        with pytest.raises(raised):
            engine.run(job, GlobalBarrier(), mode=mode, obs=obs)
        types = [e.type for e in bus.events()]
        assert types.count("job.finish") == 1
        assert types[-1] == "job.finish"
        (job_span,) = [s for s in obs.spans() if s.name == "job"]
        assert job_span.end is not None
        assert bus.listener_errors == 0, bus.first_listener_error


    def test_listener_that_raises_shows_in_the_run_metrics(self):
        """The engine must not die of observability, but a listener that
        raised must be visible afterwards."""
        bus = EventBus()
        obs = JobObservability("count", bus=bus)

        def broken(ev):
            if ev.type == "task.start":
                raise KeyError("boom")

        bus.attach(broken)
        res = LocalEngine().run_threaded(counting_job(), GlobalBarrier(), obs=obs)
        attempts = res.counters.get("task.attempts")
        assert attempts == 6 + 3
        gauges = res.obs.metrics.snapshot()["gauges"]
        assert gauges["obs.bus.listener_errors"] == attempts
        assert isinstance(bus.first_listener_error, KeyError)


# --------------------------------------------------------------------- #
# Straggler detection (driven by the slow fault injector)
# --------------------------------------------------------------------- #
class TestStragglerDetector:
    def test_slow_fault_is_flagged_live(self, weekly_mean_plan, temp_data):
        splits = slice_splits(weekly_mean_plan, num_splits=8)
        job, barrier, _ = build_sidr_job(
            weekly_mean_plan, splits, 4, temp_data
        )
        slow = InjectionPlan(
            rules=(
                FaultRule(
                    task="map",
                    kind=FaultKind.SLOW,
                    indices=frozenset({5}),
                    delay=0.4,
                ),
            ),
            seed=0,
        )
        metrics = MetricsRegistry()
        bus = EventBus(metrics=metrics)
        detector = StragglerDetector(bus)
        obs = JobObservability(job.name, metrics=metrics, bus=bus)
        detector.start_ticker(interval=0.02)
        try:
            LocalEngine(faults=slow).run_threaded(job, barrier, obs=obs)
        finally:
            detector.stop_ticker()
        assert ("map", 5, 0) in detector.flagged
        flagged = [e for e in bus.events() if e.type == "task.straggler"]
        assert [(e.kind, e.index) for e in flagged] == [("map", 5)]
        ev = flagged[0]
        assert ev.data["elapsed"] > ev.data["threshold"]
        assert ev.data["median"] < ev.data["threshold"]
        assert metrics.counter("sched.stragglers.flagged").value == 1

    def test_no_flags_on_uniform_run(self, weekly_mean_plan, temp_data):
        splits = slice_splits(weekly_mean_plan, num_splits=8)
        job, barrier, _ = build_sidr_job(
            weekly_mean_plan, splits, 4, temp_data
        )
        bus = EventBus()
        detector = StragglerDetector(bus)
        obs = JobObservability(job.name, bus=bus)
        LocalEngine().run_threaded(job, barrier, obs=obs)
        detector.check()
        assert detector.flagged == set()

    def test_threshold_floor_and_samples(self):
        bus = EventBus(clock=lambda: 0.0)
        detector = StragglerDetector(bus, min_samples=3)
        for i in range(2):
            bus.publish("task.start", kind="map", index=i, at=0.0)
            bus.publish(
                "task.finish", kind="map", index=i, at=0.001,
                status="ok", seconds=0.001,
            )
        assert detector.threshold("map") is None  # not enough samples
        bus.publish("task.start", kind="map", index=2, at=0.0)
        bus.publish(
            "task.finish", kind="map", index=2, at=0.001,
            status="ok", seconds=0.001,
        )
        # Tightly clustered millisecond tasks: the floor dominates.
        assert detector.threshold("map") == detector.min_seconds

    def test_flagged_once_per_attempt(self):
        bus = EventBus(clock=lambda: 0.0)
        detector = StragglerDetector(bus, min_samples=1, min_seconds=0.0)
        bus.publish("task.start", kind="map", index=0, at=0.0)
        bus.publish(
            "task.finish", kind="map", index=0, at=1.0,
            status="ok", seconds=1.0,
        )
        bus.publish("task.start", kind="map", index=9, at=1.0)
        first = detector.check(now=100.0)
        again = detector.check(now=200.0)
        assert [(e.kind, e.index) for e in first] == [("map", 9)]
        assert again == []

    def test_rejects_non_amplifying_k(self):
        with pytest.raises(ValueError):
            StragglerDetector(EventBus(), k=1.0)


# --------------------------------------------------------------------- #
# JSONL durability + replay equivalence
# --------------------------------------------------------------------- #
class TestJsonlStream:
    def test_replay_matches_posthoc_trace(
        self, tmp_path, weekly_mean_plan, temp_data
    ):
        splits = slice_splits(weekly_mean_plan, num_splits=8)
        job, barrier, _ = build_sidr_job(
            weekly_mean_plan, splits, 4, temp_data
        )
        path = tmp_path / "events.jsonl"
        metrics = MetricsRegistry()
        bus = EventBus(metrics=metrics)
        obs = JobObservability(job.name, metrics=metrics, bus=bus)
        with JsonlEventWriter(bus, path) as writer:
            res = LocalEngine().run_threaded(job, barrier, obs=obs)
        assert writer.written == bus.published

        replayed = read_events(path)
        # event for event, as far as JSON carries an event
        assert [e.to_json() for e in replayed] == [
            json.loads(json.dumps(e.to_json())) for e in bus.events()
        ]
        live = phase_totals(replayed)
        for kind in ("map", "reduce"):
            entries = [e.event for e in res.trace.events if e.kind == kind]
            assert live[kind] == {
                "started": entries.count("start"),
                "finished": entries.count("finish"),
            }
        assert live["map"] == {"started": 8, "finished": 8}
        assert live["barriers_fired"] == 4
        assert live["spills"] >= 8
        assert live["fetches"] > 0

    def test_stream_is_durable_line_by_line(self, tmp_path):
        # Every line written so far must already be valid JSON — the
        # writer flushes per event, so a killed process loses at most
        # the event in flight.
        bus = EventBus()
        path = tmp_path / "ev.jsonl"
        with JsonlEventWriter(bus, path):
            for i in range(50):
                bus.publish("tick", index=i)
            deadline = time.time() + 5.0
            while time.time() < deadline:
                lines = [
                    ln
                    for ln in path.read_text().splitlines()
                    if ln.strip()
                ]
                if len(lines) >= 25:
                    break
                time.sleep(0.01)
        assert len(lines) >= 25
        for ln in lines:
            json.loads(ln)

    def test_interleaved_multi_job_streams_replay_separably(self, tmp_path):
        """Two job-tagged buses appending to ONE stream file (the
        resident service's audit-log shape): every line lands whole,
        carries its job id, and ``read_events(path, job=...)`` recovers
        each job's stream in publication order."""
        path = tmp_path / "svc-events.jsonl"
        bus_a = EventBus(job="j00001")
        bus_b = EventBus(job="j00002")
        with JsonlEventWriter(bus_a, path, append=True), \
                JsonlEventWriter(bus_b, path, append=True):
            for i in range(20):
                bus_a.publish("tick", index=i)
                bus_b.publish("tick", index=i)

        everything = read_events(path)
        assert len(everything) == 40
        assert {e.job for e in everything} == {"j00001", "j00002"}

        for job in ("j00001", "j00002"):
            stream = read_events(path, job=job)
            assert len(stream) == 20
            assert all(e.job == job for e in stream)
            # per-job publication order survives the interleaving
            assert [e.index for e in stream] == list(range(20))
            assert [e.seq for e in stream] == sorted(e.seq for e in stream)

    def test_append_false_truncates_and_untagged_events_have_no_job(
        self, tmp_path
    ):
        path = tmp_path / "ev.jsonl"
        path.write_text('{"stale": true}\n')
        bus = EventBus()
        with JsonlEventWriter(bus, path):
            bus.publish("tick", index=0)
        events = read_events(path)
        assert len(events) == 1  # default mode truncated the stale line
        assert events[0].job == ""
        # untagged events serialize without a job field at all
        assert "job" not in json.loads(path.read_text().splitlines()[0])
        # and a job filter excludes them
        assert read_events(path, job="j00001") == []

    def test_writer_survives_bad_payloads_and_full_disk(self, tmp_path):
        """One unserializable event, or a write that fails, must not
        kill the drainer: later events still land, the loss is counted,
        and numpy scalars (an ``np.int64`` index) serialize."""
        import numpy as np

        bus = EventBus()
        path = tmp_path / "ev.jsonl"
        with JsonlEventWriter(bus, path) as writer:
            bus.publish("tick", index=0, n=np.int64(7), x=np.float32(0.5))
            bus.publish("tick", index=1, bad=object())
            bus.publish("tick", index=2)
        assert writer.write_errors == 1
        assert isinstance(writer.first_write_error, TypeError)
        assert writer.written == 2
        events = read_events(path)
        assert [e.index for e in events] == [0, 2]
        assert events[0].data == {"n": 7, "x": 0.5}

        full = "/dev/full"  # every flush fails with ENOSPC
        try:
            open(full, "w").close()
        except OSError:
            pytest.skip("no writable /dev/full on this platform")
        with JsonlEventWriter(bus, full) as writer:
            for i in range(3):
                bus.publish("tick", index=i)
        assert writer.written == 0
        assert writer.write_errors >= 3
        assert isinstance(writer.first_write_error, OSError)

    def test_unwritable_path_leaves_no_subscription(self, tmp_path):
        """The writer reads the record from a cursor: a path it cannot
        open raises before any drainer starts, and the bus is as it
        was."""
        bus = EventBus()
        threads = threading.active_count()
        with pytest.raises(OSError):
            JsonlEventWriter(bus, tmp_path / "no-such-dir" / "ev.jsonl")
        assert bus._listeners == ()
        assert threading.active_count() == threads


# --------------------------------------------------------------------- #
# The simulator joins the same plane
# --------------------------------------------------------------------- #
class TestSimulatorReplay:
    def test_replay_events_feeds_progress_tracker(self):
        tl = TaskTimeline(
            mode="sidr",
            num_maps=3,
            num_reduces=2,
            map_start=[0.0, 0.0, 1.0],
            map_finish=[2.0, 3.0, 4.0],
            reduce_scheduled=[0.0, 0.0],
            reduce_barrier_ready=[2.0, 4.0],
            reduce_processing_start=[2.0, 4.0],
            reduce_finish=[5.0, 6.0],
        )
        bus = EventBus(clock=lambda: 0.0)
        progress = ProgressTracker(bus)
        n = tl.replay_events(bus)
        events = bus.events()
        assert len(events) == n
        # Virtual time, in order, with the engine's exact vocabulary.
        assert [e.t for e in events] == sorted(e.t for e in events)
        fired = set()
        for ev in events:
            if ev.type == "barrier.fire":
                fired.add(ev.index)
            elif ev.type == "task.start" and ev.kind == "reduce":
                assert ev.index in fired
        snap = progress.snapshot(now=6.0)
        assert snap["state"] == "done"
        assert snap["maps"]["done"] == 3
        assert snap["reduces"]["done"] == 2
        assert snap["elapsed"] == pytest.approx(6.0)
