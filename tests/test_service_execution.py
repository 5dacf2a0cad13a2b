"""The service's execution model (docs/SERVICE.md, "Execution model").

The service's one thread runs its event loop, which hands each job to a
free engine process (a slot); a served job runs on that process's one
thread, and gets thread pools of its own only where it cannot run
without a second thread (:func:`repro.service.engine_process.execution_mode`).
These tests pin the rule and each branch's observable behaviour: no
thread started and the deterministic serial interleaving for
``threaded``; a launched, winning backup for ``threaded`` +
``speculate``; the same failure report from ``serial`` and
``threaded``.  What an engine process does with a job is
:func:`~repro.service.engine_process.run_job`; the tests that spy on
its bus call that function here (:func:`run_in_engine`), on the
service's plan and session, and the served run beside it must agree.
"""

from __future__ import annotations

import asyncio
import hashlib
import threading
import time

import numpy as np
import pytest

import repro.service.engine_process as engine_module
from repro.obs import EventBus
from repro.service import (
    HttpServiceClient,
    QueryRequest,
    ServiceServer,
    run_in_engine,
    service_fixture,
)
from repro.service.api import DONE, ENGINES, FAILED
from repro.service.engine_process import execution_mode
from repro.service.testing import oracle_for_request


def field(seed=5, shape=(24, 20)):
    """Integer-valued float64: exact partial sums, so byte-identity with
    the oracle holds in any reduction order."""
    rng = np.random.default_rng(seed)
    return rng.integers(-40, 40, size=shape, endpoint=True).astype(np.float64)


def watched_bus(published):
    """An ``EventBus`` class that notes ``(type, listeners attached)``
    in ``published`` at every publish."""

    class WatchedBus(EventBus):
        def publish(self, type, **kwargs):
            published.append((type, len(self._listeners)))
            return super().publish(type, **kwargs)

    return WatchedBus


def req(**kw):
    base = dict(
        dataset="d", variable="v", extract=(4, 5), operator="mean",
        splits=6, reduces=3, prune=False,
    )
    base.update(kw)
    return QueryRequest(**base)


@pytest.fixture()
def sampled(monkeypatch):
    """Every event of every job run by :func:`run_in_engine`, each with
    a sample taken on the publishing thread while the job runs:
    ``(event, threads)``."""
    seen = []

    class SampledBus(EventBus):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.attach(self._sample)

        @staticmethod
        def _sample(event):
            seen.append((event, threading.active_count()))

    monkeypatch.setattr(engine_module, "EventBus", SampledBus)
    return seen


class TestSelectionRule:
    @pytest.mark.parametrize(
        "engine, speculate, mode",
        [
            ("serial", False, "serial"),
            ("serial", True, "serial"),
            ("threaded", False, "serial"),
            ("threaded", True, "threaded"),
        ],
    )
    def test_mode_is_a_function_of_engine_and_speculate(
        self, engine, speculate, mode
    ):
        assert execution_mode(engine, speculate) == mode

    def test_total_over_the_request_fields_with_one_pooled_cell(self):
        """Every admissible (engine, speculate) pair is served in a mode
        the engine runs, and exactly one of them builds pools."""
        served = {
            (engine, speculate): execution_mode(engine, speculate)
            for engine in ENGINES
            for speculate in (False, True)
        }
        assert set(served.values()) <= set(ENGINES)
        pooled = [cell for cell, mode in served.items() if mode != "serial"]
        assert pooled == [("threaded", True)]


class TestThreadedRunsOnTheWorkerThread:
    def test_no_thread_started_and_serial_interleaving(self, sampled):
        with service_fixture(workers=1) as client:
            svc = client.service
            svc.register_array("d", "v", field())
            request = req(engine="threaded")
            _, digest = oracle_for_request(svc, request)
            doc = client.query(request)
            assert not sampled  # the served run published in its process
            idle = threading.active_count()
            out = run_in_engine(svc, request)
        assert doc["state"] == out.state == DONE
        assert doc["engine"] == "threaded"  # the wire name is unchanged
        assert doc["digest"] == hashlib.sha256(out.block).hexdigest() == digest

        assert {threads for _, threads in sampled} == {idle}

        # The deterministic serial interleaving: a fired reduce starts
        # at once and finishes before the next map starts (paper Fig. 4b
        # on one thread).
        stream = [
            (ev.type, ev.kind, ev.index)
            for ev, _ in sampled
            if ev.type in ("task.start", "task.finish", "barrier.fire")
        ]
        fires = [i for i, (t, _, _) in enumerate(stream) if t == "barrier.fire"]
        assert len(fires) == 3
        for i in fires:
            p = stream[i][2]
            assert stream[i + 1] == ("task.start", "reduce", p)
            assert stream[i + 2] == ("task.finish", "reduce", p)
        maps = [s for s in stream if s[1] == "map"]
        assert maps == [
            (t, "map", m) for m in range(6) for t in ("task.start", "task.finish")
        ]
        # and early: reduces fired while maps were still outstanding
        assert stream.index(("barrier.fire", "reduce", 0)) < stream.index(
            ("task.start", "map", 5)
        )


class TestOneDispatcher:
    def test_one_thread_for_the_service_and_none_per_job(self):
        """The service's one thread runs its event loop, whatever
        ``workers`` is; no job, split, whole or queued behind another,
        starts a thread in the service's process.  Over HTTP, on that
        same loop, a job goes from ``POST /query`` to its ``/result``
        with no ``call_soon_threadsafe``: nothing crosses a thread."""
        before = set(threading.enumerate())
        with service_fixture(workers=2) as client:
            svc = client.service
            started = set(threading.enumerate()) - before
            svc.register_array("d", "v", field())
            idle = threading.active_count()
            during = []
            for _ in range(2):
                doc = client.query(req())
                assert doc["state"] == DONE and doc["parts"] == 2
                during.append(threading.active_count())
            slow = req(fault_rules=(
                {"task": "map", "fault": "slow", "indices": [0], "delay": 0.3},
            ))
            jobs = [client.submit(slow) for _ in range(3)]
            deadline = time.monotonic() + 20
            while client.status(jobs[0])["state"] != "running":
                assert time.monotonic() < deadline, "never ran"
                time.sleep(0.01)
            during.append(threading.active_count())
            assert all(client.result(j)["state"] == DONE for j in jobs)
            during.append(threading.active_count())

            server = ServiceServer(svc)
            host, port = asyncio.run_coroutine_threadsafe(
                server.start(), svc.loop
            ).result(10)
            serving = asyncio.run_coroutine_threadsafe(
                server.serve_until_shutdown(), svc.loop
            )
            wire = HttpServiceClient(f"http://{host}:{port}", timeout=30)
            crossings = []
            threadsafe = svc.loop.call_soon_threadsafe

            def spy(*args, **kwargs):
                crossings.append(threading.current_thread().name)
                return threadsafe(*args, **kwargs)

            svc.loop.call_soon_threadsafe = spy
            try:
                # the first runs alone after the slow three shared the
                # service, so the second splits
                served = [wire.query(req()) for _ in range(2)]
            finally:
                svc.loop.call_soon_threadsafe = threadsafe
                wire.shutdown()
                serving.result(10)
                wire.close()
        assert [t.name for t in started] == ["svc-loop"]
        assert during == [idle] * len(during)
        assert set(threading.enumerate()) <= before
        assert [d["state"] for d in served] == [DONE, DONE]
        assert [d["parts"] for d in served] == [1, 2]
        assert crossings == []


    def test_stats_show_the_services_own_process(self):
        """``/stats`` ``process``: the service's resident KiB, open
        descriptors and OS threads, read from ``/proc/self`` — every one
        of them a thread ``threading`` knows of.  (numpy's BLAS pool is
        an OS thread too, but its fork handler stops it when the service
        forks its engines, and no served job calls BLAS here.)"""
        with service_fixture(workers=2) as client:
            client.service.register_array("d", "v", field())
            assert client.query(req())["state"] == DONE
            process = client.stats()["process"]
            threads = threading.active_count()
        assert set(process) == {"rss_kb", "fds", "threads"}
        assert process["threads"] == threads
        assert process["rss_kb"] > 0 and process["fds"] > 0


class TestAServedJobListensToNothing:
    def test_no_listener_and_no_heartbeat_for_the_whole_run(self, monkeypatch):
        """A served job that neither speculates nor runs under ``serve
        --events`` has no listener on its bus from its first publish to
        its last, and publishes no phase: its status document and
        counters are read off the bus's record."""
        published = []
        monkeypatch.setattr(engine_module, "EventBus", watched_bus(published))
        with service_fixture(workers=1) as client:
            client.service.register_array("d", "v", field())
            for engine in ("serial", "threaded"):
                doc = client.query(req(engine=engine))
                assert doc["state"] == DONE
                assert doc["progress"]["state"] == "done"
                counters = client.status(doc["id"])["counters"]
                assert counters["task.attempts"] == 6 + 3
                out = run_in_engine(client.service, req(engine=engine))
                assert out.progress["state"] == "done"
                assert out.counters == counters
        types = [t for t, _ in published]
        assert types.count("job.start") == types.count("job.finish") == 2
        assert {listeners for _, listeners in published} == {0}
        assert "task.phase" not in types

    def test_a_speculating_job_has_no_listener_either(self, monkeypatch):
        """Speculation reads the record on a ticker: hedging a served
        job attaches nothing to its bus."""
        published = []
        monkeypatch.setattr(engine_module, "EventBus", watched_bus(published))
        with service_fixture(workers=1) as client:
            client.service.register_array("d", "v", field())
            out = run_in_engine(
                client.service, req(engine="threaded", speculate=True)
            )
        assert out.state == DONE
        assert published
        assert {listeners for _, listeners in published} == {0}


class TestSpeculationStillRacesABackup:
    def test_hung_map_is_hedged_and_the_backup_wins(self, sampled):
        with service_fixture(workers=1) as client:
            svc = client.service
            svc.register_array("d", "v", field())
            request = req(
                engine="threaded", speculate=True, hang_timeout=0.2,
                max_attempts=3,
                fault_rules=(
                    {"task": "map", "fault": "hang", "indices": [1], "times": 1},
                ),
            )
            _, digest = oracle_for_request(svc, request)
            doc = client.query(request)
            # the status doc carries the run's counters; a result doc
            # stays what it was
            counters = client.status(doc["id"])["counters"]
            idle = threading.active_count()
            out = run_in_engine(svc, request)
        assert "counters" not in doc
        assert doc["state"] == out.state == DONE
        assert doc["digest"] == hashlib.sha256(out.block).hexdigest() == digest
        for run in (counters, out.counters):
            assert run["task.speculations"] == 1
            assert run["task.cancelled"] == 1
        races = [
            ev for ev, _ in sampled
            if ev.type == "task.speculate" and ev.data["mode"] == "race"
        ]
        assert [(ev.kind, ev.index) for ev in races] == [("map", 1)]
        backup = races[0].attempt
        finishes = {
            ev.attempt: ev.data["status"]
            for ev, _ in sampled
            if ev.type == "task.finish" and (ev.kind, ev.index) == ("map", 1)
        }
        assert finishes[backup] == "ok" and finishes[races[0].data["of"]] == "lost"
        # pooled: the job ran on threads of its own
        assert max(threads for _, threads in sampled) > idle

    def test_explicit_serial_keeps_cancel_and_retry_in_place(self, sampled):
        with service_fixture(workers=1) as client:
            client.service.register_array("d", "v", field())
            doc = client.query(req(
                engine="serial", speculate=True, hang_timeout=0.2,
                max_attempts=3,
                fault_rules=(
                    {"task": "map", "fault": "hang", "indices": [1], "times": 1},
                ),
            ))
            counters = client.status(doc["id"])["counters"]
        assert doc["state"] == DONE
        assert counters.get("task.speculations", 0) == 0
        assert counters["task.retries"] == 1


class TestFailuresReadTheSame:
    CRASH = dict(
        fault_rules=(
            {"task": "map", "fault": "crash", "indices": [2], "times": 99},
        ),
        max_attempts=2,
    )

    def test_exhausted_attempts_report_the_same_error_types(self):
        docs = {}
        with service_fixture(workers=1) as client:
            client.service.register_array("d", "v", field())
            for engine in ("serial", "threaded"):
                docs[engine] = client.query(req(engine=engine, **self.CRASH))
        assert docs["serial"]["state"] == docs["threaded"]["state"] == FAILED
        assert docs["threaded"]["error_types"] == docs["serial"]["error_types"]
        assert docs["threaded"]["error_types"] == ["InjectedFaultError"]
        assert "records" not in docs["threaded"]

    @pytest.mark.parametrize("engine", ["serial", "threaded"])
    def test_deadline_still_expires_the_job(self, engine):
        hang = dict(
            fault_rules=(
                {"task": "map", "fault": "hang", "indices": [0], "times": 5},
            ),
            max_attempts=2, engine=engine,
        )
        with service_fixture(workers=1) as client:
            client.service.register_array("d", "v", field())
            failed = client.query(req(deadline=0.2, on_deadline="fail", **hang))
            partial = client.query(
                req(deadline=0.2, on_deadline="partial", **hang)
            )
        assert failed["state"] == FAILED
        assert failed["error_types"] == ["DeadlineExceededError"]
        assert partial["state"] == DONE and partial["partial"] is True
