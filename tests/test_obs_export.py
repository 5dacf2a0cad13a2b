"""Trace export tests: Chrome trace_event schema, round-trips of the
Chrome trace and of the ``--events`` JSONL.

The schema assertions here are the PR's acceptance criteria: every span
event carries pid/tid/ts/dur, reduce task spans nest under the job span,
and a DependencyBarrier run emits one barrier-wait span per reduce.
"""

import json

import pytest

from repro.errors import ObservabilityError
from repro.mapreduce.engine import DependencyBarrier, LocalEngine
from repro.obs import (
    EventBus,
    JobObservability,
    JsonlEventWriter,
    chrome_trace_doc,
    load_trace,
    normalized_runs,
    write_chrome_trace,
    write_metrics,
)
from tests.test_mapreduce_engine import ranged_job


@pytest.fixture(scope="module")
def dep_events(tmp_path_factory):
    """One DependencyBarrier run shared by the schema tests, with its
    ``--events`` JSONL."""
    job, deps = ranged_job()
    bus = EventBus()
    path = tmp_path_factory.mktemp("events") / "events.jsonl"
    with JsonlEventWriter(bus, path):
        res = LocalEngine().run_serial(
            job, DependencyBarrier(deps), obs=JobObservability(job.name, bus=bus)
        )
    return res, path


@pytest.fixture(scope="module")
def dep_result(dep_events):
    return dep_events[0]


@pytest.fixture(scope="module")
def dep_doc(dep_result):
    return chrome_trace_doc(dep_result.obs)


def _complete_events(doc):
    return [e for e in doc["traceEvents"] if e.get("ph") == "X"]


class TestChromeSchema:
    def test_document_shape(self, dep_doc):
        assert isinstance(dep_doc["traceEvents"], list)
        assert dep_doc["displayTimeUnit"] == "ms"
        json.dumps(dep_doc)  # must be serializable as-is

    def test_every_span_has_pid_tid_ts_dur(self, dep_doc):
        xs = _complete_events(dep_doc)
        assert xs
        for e in xs:
            assert isinstance(e["pid"], int)
            assert isinstance(e["tid"], int)
            assert e["ts"] >= 0.0
            assert e["dur"] >= 0.0
            assert e["name"] and e["cat"]

    def test_reduce_spans_nest_under_job_span(self, dep_doc):
        xs = _complete_events(dep_doc)
        jobs = [e for e in xs if e["cat"] == "job"]
        assert len(jobs) == 1
        job_id = jobs[0]["args"]["span_id"]
        reduces = [
            e for e in xs if e["cat"] == "task" and e["name"] == "reduce"
        ]
        assert len(reduces) == 4
        for e in reduces:
            assert e["args"]["parent_id"] == job_id

    def test_barrier_wait_span_per_reduce(self, dep_doc):
        waits = [
            e for e in _complete_events(dep_doc) if e["name"] == "barrier.wait"
        ]
        assert sorted(e["args"]["index"] for e in waits) == [0, 1, 2, 3]

    def test_phases_share_task_track(self, dep_doc):
        """Phase spans carry their task's tid so they stack in Perfetto."""
        xs = _complete_events(dep_doc)
        by_id = {e["args"]["span_id"]: e for e in xs}
        phases = [e for e in xs if e["cat"] == "phase"]
        assert phases
        for e in phases:
            assert e["tid"] == by_id[e["args"]["parent_id"]]["tid"]

    def test_thread_metadata_covers_all_tids(self, dep_doc):
        named = {
            (e["pid"], e["tid"])
            for e in dep_doc["traceEvents"]
            if e.get("ph") == "M" and e["name"] == "thread_name"
        }
        used = {
            (e["pid"], e["tid"])
            for e in dep_doc["traceEvents"]
            if e.get("ph") in ("X", "i")
        }
        assert used <= named

    def test_early_start_instants(self, dep_result, dep_doc):
        instants = [
            e
            for e in dep_doc["traceEvents"]
            if e.get("ph") == "i" and e["name"] == "reduce.early_start"
        ]
        assert len(instants) == dep_result.counters.get("barrier.early.starts")
        assert all(e["s"] == "t" for e in instants)

    def test_multiple_runs_get_separate_pids(self, dep_result):
        doc = chrome_trace_doc(
            [("a", dep_result.obs), ("b", dep_result.obs)]
        )
        names = {
            e["pid"]: e["args"]["name"]
            for e in doc["traceEvents"]
            if e.get("ph") == "M" and e["name"] == "process_name"
        }
        assert names == {1: "a", 2: "b"}


class TestRoundTrips:
    def test_chrome_round_trip(self, dep_result, tmp_path):
        path = write_chrome_trace(tmp_path / "t.json", dep_result.obs)
        runs = load_trace(path)
        assert len(runs) == 1
        direct = normalized_runs(dep_result.obs)[0]
        assert runs[0]["label"] == direct["label"]
        assert len(runs[0]["spans"]) == len(direct["spans"])
        got = {
            (s["name"], s["track"]) for s in runs[0]["spans"]
        }
        assert got == {(s["name"], s["track"]) for s in direct["spans"]}
        assert runs[0]["metrics"]["counters"] == direct["metrics"]["counters"]

    def test_jsonl_round_trip(self, dep_events):
        """The ``--events`` JSONL replays to the run's own spans."""
        res, path = dep_events
        runs = load_trace(path)
        direct = normalized_runs(res.obs)[0]
        assert len(runs) == 1
        assert runs[0]["label"] == direct["label"] == "ranged"
        assert len(runs[0]["spans"]) == len(direct["spans"])
        for got, want in zip(runs[0]["spans"], direct["spans"]):
            assert (got["name"], got["track"]) == (want["name"], want["track"])
            assert got["start"] == pytest.approx(want["start"], abs=1e-6)
            assert got["dur"] == pytest.approx(want["dur"], abs=2e-6)
        got = runs[0]["metrics"]["histograms"]
        for name in ("barrier.wait.seconds", "shuffle.fetch.seconds"):
            assert got[name]["count"] == direct["metrics"]["histograms"][name]["count"]

    def test_one_event_is_an_events_file(self, tmp_path):
        """A one-line JSONL parses as one JSON object; it is still read
        as events, not as a Chrome trace."""
        path = tmp_path / "one.jsonl"
        path.write_text('{"seq": 0, "t": 0.0, "type": "job.start", "data": {"name": "j"}}\n')
        (run,) = load_trace(path)
        assert run["label"] == "j" and run["spans"] == []

    def test_events_file_has_one_run_per_job(self, tmp_path):
        path = tmp_path / "audit.jsonl"
        for job in ("a", "b"):
            bus = EventBus(job=job)
            with JsonlEventWriter(bus, path, append=True):
                obs = JobObservability(f"run-{job}", bus=bus)
                obs.start()
                obs.finish()
        assert [r["label"] for r in load_trace(path)] == ["run-a", "run-b"]

    def test_write_metrics_with_extra(self, dep_result, tmp_path):
        path = write_metrics(
            tmp_path / "m.json",
            ("run", dep_result.obs),
            extra={"counters": dep_result.counters.as_dict()},
        )
        doc = json.loads(path.read_text())
        assert "run" in doc
        assert doc["counters"]["barrier.early.starts"] == 3

    def test_bad_trace_files_rejected(self, tmp_path):
        empty = tmp_path / "empty.json"
        empty.write_text("")
        with pytest.raises(ObservabilityError):
            load_trace(empty)
        nolist = tmp_path / "bad.json"
        nolist.write_text("{}")
        with pytest.raises(ObservabilityError):
            load_trace(nolist)
        unrelated = tmp_path / "bad.jsonl"
        unrelated.write_text('{"a": 1}\n{"b": 2}\n')
        with pytest.raises(ObservabilityError):
            load_trace(unrelated)


class TestSimulatedRuns:
    def test_timeline_exports_same_vocabulary(self):
        """A simulated timeline and a real run must speak one language."""
        from repro.bench.figures import fig13_skew

        result = fig13_skew(scale=20)
        obs = result.timelines["SIDR"].to_observability("SIDR")
        doc = chrome_trace_doc(obs)
        names = {
            e["name"] for e in doc["traceEvents"] if e.get("ph") == "X"
        }
        assert {"job", "map", "reduce", "barrier.wait",
                "reduce.fetch", "reduce.reduce"} <= names
        snap = obs.metrics.snapshot()
        assert "barrier.wait.seconds" in snap["histograms"]
        assert "shuffle.fetch.connections" in snap["counters"]

    def test_sim_spans_use_synthetic_clock(self):
        from repro.bench.figures import fig13_skew

        result = fig13_skew(scale=20)
        tl = result.timelines["SIDR"]
        obs = tl.to_observability("SIDR")
        (job,) = [s for s in obs.spans() if s.name == "job"]
        assert job.start == 0.0
        assert job.end == pytest.approx(tl.makespan)


class TestDisabledMode:
    def test_disabled_obs_exports_empty(self):
        obs = JobObservability("off", enabled=False)
        doc = chrome_trace_doc(obs)
        assert _complete_events(doc) == []
