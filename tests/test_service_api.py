"""Resident query service: request schema, clients, HTTP server.

Covers the wire-level contract (docs/SERVICE.md): QueryRequest JSON
round-trips and validation, the in-process client serving results
byte-identical to the brute-force oracle, live status documents, and a
real ``ServiceServer`` bound to an ephemeral localhost port exercised
through :class:`HttpServiceClient`.
"""

from __future__ import annotations

import asyncio
import threading
import time
from contextlib import contextmanager

import numpy as np
import pytest

from repro.service import (
    AdmissionError,
    HttpServiceClient,
    QueryRequest,
    QueryService,
    ServiceServer,
    UnknownDatasetError,
    UnknownJobError,
    oracle_for_request,
    records_to_json,
    service_fixture,
)
from repro.mapreduce.columnar import ResultBlock
from repro.service.api import (
    BLOCK_CONTENT_TYPE,
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    TERMINAL_STATES,
    decode_result_body,
    encode_result_body,
)
from repro.verify.oracle import records_digest


def small_data(seed=0, shape=(12, 10)):
    """Integer-valued float64 field: partial sums are exact, so the
    engine/oracle byte-identity contract holds regardless of reduction
    order (same convention as the fuzz case generator)."""
    rng = np.random.default_rng(seed)
    return rng.integers(-40, 40, size=shape, endpoint=True).astype(np.float64)


def mean_request(**kw):
    base = dict(
        dataset="d", variable="v", extract=(4, 5), operator="mean",
        splits=4, reduces=2, prune=False,
    )
    base.update(kw)
    return QueryRequest(**base)


HANG_MAP_0 = {"task": "map", "fault": "hang", "indices": [0]}
SLOW_MAP_0 = {"task": "map", "fault": "slow", "indices": [0]}


def assert_still_serving(client, service):
    """A well-formed query completes with the oracle's digest (dataset
    ``d`` must be open)."""
    req = mean_request()
    assert client.query(req)["digest"] == oracle_for_request(service, req)[1]


class TestQueryRequest:
    def test_json_round_trip_preserves_every_field(self):
        req = QueryRequest(
            dataset="d", variable="v", extract=[3, 2], stride=[1, 2],
            operator="filter_gt", threshold=5.0, splits=3, reduces=2,
            data_plane="columnar", engine="serial", prune=True,
            tenant="team-a", priority=7, deadline=9.0, on_deadline="partial",
            max_attempts=3, recovery="reexecute-deps",
            fault_rules=[{"task": "map", "fault": "transient", "indices": [0]}],
            fault_seed=11, speculate=True, hang_timeout=0.25,
        )
        assert QueryRequest.from_json(req.to_json()) == req
        # list inputs normalize to hashable tuples
        assert req.extract == (3, 2)
        assert req.stride == (1, 2)
        assert isinstance(req.fault_rules, tuple)

    @pytest.mark.parametrize(
        "doc,fragment",
        [
            ({"variable": "v", "extract": [2]}, "missing field"),
            ({"dataset": "d", "variable": "v", "extract": [2], "bogus": 1},
             "unknown request field"),
            ({"dataset": "d", "variable": "v", "extract": [0]},
             "invalid extraction"),
            ({"dataset": "d", "variable": "v", "extract": [2],
              "engine": "quantum"}, "unknown engine"),
            ({"dataset": "d", "variable": "v", "extract": [2],
              "data_plane": "rowful"}, "unknown data plane"),
            ({"dataset": "d", "variable": "v", "extract": [2],
              "splits": 0}, "splits/reduces"),
            ({"dataset": "d", "variable": "v", "extract": [2],
              "deadline": -1.0}, "deadline"),
            ({"dataset": "d", "variable": "v", "extract": [2],
              "operator": "nope"}, "unknown operator"),
            ({"dataset": "d", "variable": "v", "extract": [2],
              "operator": "filter_gt"}, "requires a threshold"),
            ({"dataset": "d", "variable": "v", "extract": [2],
              "operator": "mean", "threshold": 1.0}, "takes no parameters"),
            # the service serves one plane; the record plane is local
            ({"dataset": "d", "variable": "v", "extract": [2],
              "data_plane": "record"}, r"'record'.*\('columnar',\)"),
            ({"dataset": "d", "variable": "v", "extract": [2],
              "recovery": "bogus"}, "unknown recovery model 'bogus'.*persisted"),
            ({"dataset": "d", "variable": "v", "extract": [2],
              "speculate": True, "hang_timeout": 0.0}, "hang_timeout"),
            ({"dataset": "d", "variable": "v", "extract": [2],
              "fault_rules": [{"task": "nope"}]}, "rule missing 'fault'"),
            ({"dataset": "d", "variable": "v", "extract": [2],
              "fault_rules": [{"fault": "crash", "indices": ["x"]}]},
             "invalid literal"),
            # every field is checked for its JSON type
            ({"dataset": "d", "variable": "v", "extract": 7},
             "extract must be a list of integers, got 7"),
            ({"dataset": "d", "variable": "v", "extract": ["a"]},
             "extract must be a list of integers"),
            ({"dataset": "d", "variable": "v", "extract": "12"},
             "extract must be a list of integers"),
            ({"dataset": "d", "variable": "v", "extract": [2.5]},
             "extract must be a list of integers"),
            ({"dataset": "d", "variable": "v", "extract": [2], "stride": 5},
             "stride must be a list of integers or null"),
            ({"dataset": "d", "variable": "v", "extract": [2],
              "fault_rules": 5}, "fault_rules must be a list of objects"),
            ({"dataset": "d", "variable": "v", "extract": [2],
              "fault_rules": ["crash"]}, "fault_rules must be a list of objects"),
            ({"dataset": "d", "variable": "v", "extract": [2],
              "splits": "x"}, "splits must be an integer, got 'x'"),
            ({"dataset": "d", "variable": "v", "extract": [2],
              "splits": True}, "splits must be an integer, got True"),
            ({"dataset": "d", "variable": "v", "extract": [2],
              "reduces": 2.5}, "reduces must be an integer, got 2.5"),
            ({"dataset": "d", "variable": "v", "extract": [2],
              "deadline": "soon"}, "deadline must be a number or null"),
            ({"dataset": "d", "variable": "v", "extract": [2],
              "hang_timeout": None}, "hang_timeout must be a number"),
            ({"dataset": "d", "variable": "v", "extract": [2],
              "tenant": ["a"]}, "tenant must be a string"),
            ({"dataset": "d", "variable": "v", "extract": [2],
              "priority": "high"}, "priority must be an integer, got 'high'"),
            ({"dataset": "d", "variable": "v", "extract": [2],
              "prune": 1}, "prune must be a boolean, got 1"),
            ({"dataset": 5, "variable": "v", "extract": [2]},
             "dataset must be a string"),
            ({"dataset": "d", "variable": "v", "extract": [2],
              "operator": None}, "operator must be a string"),
            ({"dataset": "d", "variable": "v", "extract": [2],
              "fault_rules": [HANG_MAP_0]}, "set speculate or deadline"),
            ({"dataset": "d", "variable": "v", "extract": [2],
              "fault_rules": [HANG_MAP_0], "speculate": False},
             "set speculate or deadline"),
            ({"dataset": "d", "variable": "v", "extract": [2],
              "fault_rules": [{**SLOW_MAP_0, "delay": 1e9}]},
             "exceeds the longest result wait.*set a deadline"),
        ],
    )
    def test_invalid_documents_are_refused(self, doc, fragment):
        with pytest.raises(AdmissionError, match=fragment):
            QueryRequest.from_json(doc)

    @pytest.mark.parametrize(
        "fields",
        [
            {"fault_rules": [HANG_MAP_0], "speculate": True},
            {"fault_rules": [HANG_MAP_0], "deadline": 5.0},
            {"fault_rules": [{**SLOW_MAP_0, "delay": 600.0}]},
            {"fault_rules": [{**SLOW_MAP_0, "delay": 1e9}], "deadline": 5.0},
        ],
        ids=["hang-speculate", "hang-deadline", "slow-short", "slow-deadline"],
    )
    def test_releasable_stalls_are_admitted(self, fields):
        QueryRequest.from_json(
            {"dataset": "d", "variable": "v", "extract": [2], **fields}
        )

    def test_unset_run_options_are_not_validated(self):
        """The objects admission builds are the ones the run would: a
        hang timeout matters only to a request that speculates."""
        QueryRequest.from_json(
            {"dataset": "d", "variable": "v", "extract": [2],
             "speculate": False, "hang_timeout": 0.0}
        )

    def test_plane_defaults_to_the_one_served(self):
        doc = {"dataset": "d", "variable": "v", "extract": [2]}
        req = QueryRequest.from_json(doc)
        assert req.data_plane == "columnar"
        assert req.to_json()["data_plane"] == "columnar"
        assert QueryRequest.from_json(req.to_json()) == req

    def test_not_json_and_not_object_are_refused(self):
        with pytest.raises(AdmissionError, match="not valid JSON"):
            QueryRequest.from_json("{nope")
        with pytest.raises(AdmissionError, match="JSON object"):
            QueryRequest.from_json("[1,2]")

    def test_plan_key_covers_plan_fields_only(self):
        base = mean_request()
        # Per-submission knobs share the canonical plan key...
        assert base.plan_key() == mean_request(engine="serial").plan_key()
        assert base.plan_key() == mean_request(tenant="x", priority=5).plan_key()
        assert base.plan_key() == mean_request(max_attempts=4).plan_key()
        # ...plan-affecting fields do not.
        assert base.plan_key() != mean_request(prune=True).plan_key()
        assert base.plan_key() != mean_request(extract=(2, 5)).plan_key()
        assert base.plan_key() != mean_request(stride=(5, 5)).plan_key()
        # (stride == extract is the dense plan spelt out: the same key)
        assert base.plan_key() == mean_request(stride=(4, 5)).plan_key()
        assert base.plan_key() != mean_request(splits=2).plan_key()
        assert base.plan_key() != mean_request(reduces=1).plan_key()
        assert base.plan_key() != mean_request(
            operator="filter_gt", threshold=1.0
        ).plan_key()


class TestInProcessService:
    def test_served_result_matches_oracle_byte_identically(self):
        with service_fixture(workers=1) as client:
            svc = client.service
            svc.register_array("d", "v", small_data())
            req = mean_request()
            records, digest = oracle_for_request(svc, req)
            doc = client.query(req)
            assert doc["state"] == DONE
            assert doc["digest"] == digest
            assert doc["records"] == records_to_json(records)
            assert doc["num_records"] == len(records)

    def test_status_document_fields(self):
        with service_fixture(workers=1) as client:
            client.service.register_array("d", "v", small_data())
            job_id = client.submit(mean_request())
            doc = client.result(job_id)
            assert doc["id"] == job_id
            assert doc["state"] in TERMINAL_STATES
            assert doc["tenant"] == "default"
            assert doc["plan_cache_hit"] is False
            assert doc["plan_seconds"] >= 0.0
            assert doc["run_seconds"] >= 0.0
            assert doc["partial"] is False
            # the per-job ProgressTracker feed reached the status doc
            assert "progress" in doc
            # a second, identical submission hits the plan cache
            assert client.result(client.submit(mean_request()))[
                "plan_cache_hit"
            ] is True

    def test_finished_job_keeps_its_progress_document_not_the_tracker(
        self, monkeypatch
    ):
        """Regression: every finished job kept its ProgressTracker, and
        through it the job's event bus, for the life of the process.
        The tracker lives where the job runs, in its engine process
        (``run_in_engine`` runs that function here); the job is handed
        the tracker's last snapshot and keeps only that."""
        from repro.obs import ProgressTracker
        from repro.service import run_in_engine
        from repro.service.engine_process import RemoteProgress
        from repro.service.jobs import ServiceJob

        handed = {}
        finish = ServiceJob.finish

        def spy(job, state, **fields):
            assert isinstance(job.progress, RemoteProgress)  # a live reading
            handed[job.id] = fields["progress"]
            finish(job, state, **fields)

        monkeypatch.setattr(ServiceJob, "finish", spy)
        with service_fixture(workers=1) as client:
            client.service.register_array("d", "v", small_data())
            doc = client.query(mean_request())
            job = client.service.get_job(doc["id"])
            assert doc["progress"] == handed[job.id]
            assert doc["progress"]["state"] == "done"
            assert job.progress == handed[job.id]  # a dict, not a reading
            assert client.status(job.id)["progress"] == handed[job.id]

            trackers = []
            out = run_in_engine(
                client.service, mean_request(), watch=trackers.append
            )
        (tracker,) = trackers
        assert isinstance(tracker, ProgressTracker)
        assert out.progress["state"] == tracker.snapshot()["state"] == "done"
        assert out.progress["maps"] == tracker.snapshot()["maps"]

    def test_a_running_job_reports_its_engine_process_progress(self):
        """``status()`` of a running job asks its engine process: one
        control message, answered with the job's live snapshot."""
        with service_fixture(workers=1) as client:
            client.service.register_array("d", "v", small_data())
            job_id = client.submit(mean_request(
                fault_rules=({**SLOW_MAP_0, "delay": 0.6},),
            ))
            deadline = time.monotonic() + 10
            doc = client.status(job_id)
            while doc["state"] != RUNNING or "progress" not in doc:
                assert time.monotonic() < deadline
                time.sleep(0.01)
                doc = client.status(job_id)
            assert doc["progress"]["state"] == "running"
            assert doc["progress"]["maps"]["done"] < doc["progress"]["maps"]["total"]
            assert client.result(job_id)["progress"]["state"] == "done"

    @pytest.mark.parametrize(
        "rule", [HANG_MAP_0, {**SLOW_MAP_0, "delay": 1e9}], ids=["hang", "slow"]
    )
    def test_a_stall_with_only_a_deadline_fails_typed_and_frees_its_worker(
        self, rule
    ):
        """Regression: a hang nothing releases held its queue worker
        until restart (two of them wedged a default ``serve``), and a
        deadline did not cut a ``slow`` stall short.  Admission now
        wants a release for every stall, and the deadline is one."""
        with service_fixture(workers=1) as client:
            svc = client.service
            svc.register_array("d", "v", small_data())
            doc = client.query(
                mean_request(fault_rules=[rule], deadline=0.2), timeout=10.0
            )
            assert doc["state"] == FAILED
            assert "DeadlineExceededError" in doc["error_types"]
            assert_still_serving(client, svc)

    def test_unknown_dataset_refused_at_admission(self):
        with service_fixture(workers=1) as client:
            with pytest.raises(UnknownDatasetError):
                client.submit(mean_request(dataset="nope"))

    def test_unknown_job_raises(self):
        with service_fixture(workers=1) as client:
            with pytest.raises(UnknownJobError):
                client.status("j99999")

    @pytest.mark.parametrize(
        "fields",
        [
            dict(operator="nope"),
            dict(operator="filter_gt"),
            dict(operator="mean", threshold=1.0),
        ],
        ids=["unknown", "missing-threshold", "unwanted-threshold"],
    )
    def test_bad_operator_is_refused_at_admission(self, fields):
        """Not queued, not run, not a failed job on the tenant's
        failure budget."""
        with service_fixture(workers=1) as client:
            svc = client.service
            svc.register_array("d", "v", small_data())
            with pytest.raises(AdmissionError):
                client.submit(mean_request(tenant="t", **fields))
            assert svc.list_jobs() == []
            assert "t" not in svc.stats()["tenants"]

    def test_process_engine_is_refused_at_admission(self):
        """There is no process backend: the name is refused like any
        other unknown engine — not queued, not run, nothing billed."""
        with service_fixture(workers=1) as client:
            svc = client.service
            svc.register_array("d", "v", small_data())
            with pytest.raises(AdmissionError, match="'serial', 'threaded'"):
                client.submit(mean_request(tenant="t", engine="process"))
            assert svc.list_jobs() == []
            assert "t" not in svc.stats()["tenants"]

    def test_failed_job_reports_error_types(self):
        with service_fixture(workers=1) as client:
            client.service.register_array("d", "v", small_data())
            doc = client.query(mean_request(
                fault_rules=(
                    {"task": "map", "fault": "crash", "indices": [0]},
                ),
            ))
            assert doc["state"] == FAILED
            assert "InjectedFaultError" in doc["error_types"]
            assert "records" not in doc

    def test_submit_after_close_is_refused(self):
        service = QueryService(workers=1)
        service.register_array("d", "v", small_data())
        service.close()
        with pytest.raises(AdmissionError, match="shut down"):
            service.submit(mean_request())

    @pytest.mark.parametrize("body", ["json", "binary"])
    def test_eviction_cannot_split_records_from_their_document(self, body):
        """Regression: ``result`` read ``job.records`` and then
        ``job.status()``; an eviction landing between the two gave a
        document that said ``"evicted": true`` and carried records."""
        with service_fixture(workers=1) as client:
            svc = client.service
            svc.register_array("d", "v", small_data())
            job = svc.get_job(client.submit(mean_request()))
            assert "records" in client.result(job.id)
            lock = job.lock

            class EvictingLock:
                """Evicts as the lock is first taken: after any read
                made before it, before every read made under it."""

                def __enter__(self):
                    lock.acquire()
                    job.lock, job.records = lock, None

                def __exit__(self, *exc):
                    lock.release()

            job.lock = EvictingLock()
            if body == "json":
                doc = client.result(job.id)
            else:
                doc = decode_result_body(
                    encode_result_body(*svc.result_block(job.id))
                )
            assert job.records is None
            assert ("records" in doc) != doc.get("evicted", False)

    def test_stored_result_is_one_packed_block(self):
        """The job keeps the block and nothing beside it; the JSON rows
        are built from its columns on demand."""
        with service_fixture(workers=1) as client:
            svc = client.service
            svc.register_array("d", "v", small_data())
            req = mean_request()
            records, digest = oracle_for_request(svc, req)
            doc = client.query(req)
            stored = svc.get_job(doc["id"]).records
            assert isinstance(stored, ResultBlock)
            assert stored.to_bytes() is stored.to_bytes()
            assert not stored.key_rows.flags.writeable
            assert repr(stored.canonical_records()) == repr(records)
            assert doc["records"] == records_to_json(stored)
            assert doc["records"] == records_to_json(records)
            assert doc["digest"] == digest

    def test_result_timeout_raises(self):
        with service_fixture(workers=1, start_paused=True) as client:
            client.service.register_array("d", "v", small_data())
            job_id = client.submit(mean_request())
            with pytest.raises(TimeoutError):
                client.result(job_id, timeout=0.05)
            assert client.status(job_id)["state"] == QUEUED
            client.service.queue.resume()
            assert client.result(job_id)["state"] == DONE


@contextmanager
def running_server(tmp_path):
    """A ``ServiceServer`` over a two-worker service on an ephemeral
    localhost port, its loop on a thread of its own, with dataset file
    ``d`` written (not yet opened).  Yields ``(client, service, path,
    data, thread)``; ``thread`` ends when the server has stopped."""
    data = small_data(seed=3)
    path = tmp_path / "d.nclite"
    from repro.scidata.dataset import create_dataset

    create_dataset(path, var_name="v", data=data).close()

    service = QueryService(workers=2)
    server = ServiceServer(service)
    loop = asyncio.new_event_loop()
    started = threading.Event()
    bound = {}

    def run():
        asyncio.set_event_loop(loop)

        async def main():
            bound["addr"] = await server.start()
            started.set()
            await server.serve_until_shutdown()
            # Let connections still lingering over a refused
            # request's input end before the loop closes.
            others = asyncio.all_tasks() - {asyncio.current_task()}
            if others:
                await asyncio.wait(others, timeout=5)

        loop.run_until_complete(main())
        loop.close()

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    assert started.wait(10)
    host, port = bound["addr"]
    client = HttpServiceClient(f"http://{host}:{port}", timeout=30)
    try:
        yield client, service, str(path), data, thread
    finally:
        if thread.is_alive():
            loop.call_soon_threadsafe(server.stop)
            thread.join(timeout=10)
        client.close()
        service.close()


class TestHttpServer:
    """A real server on an ephemeral localhost port, driven by the wire
    client (tier-2 by size, but fast enough for tier-1)."""

    @pytest.fixture()
    def live_server(self, tmp_path):
        with running_server(tmp_path) as (client, service, path, data, _):
            yield client, service, path, data

    def test_full_lifecycle_over_the_wire(self, live_server):
        client, service, path, data = live_server
        assert client.healthz()["ok"] is True
        client.open_dataset("d", path)
        assert "d" in [d["name"] for d in client.stats()["datasets"]]

        req = mean_request()
        _, digest = oracle_for_request(service, req)
        doc = client.query(req)
        assert doc["state"] == DONE
        assert doc["digest"] == digest

        jobs = client.jobs()
        assert [j["id"] for j in jobs] == [doc["id"]]
        assert client.status(doc["id"])["state"] == DONE

    def test_wire_errors_map_to_http_statuses(self, live_server):
        client, service, path, data = live_server
        with pytest.raises(Exception, match="404"):
            client.status("j99999")
        with pytest.raises(Exception, match="400"):
            client._call("POST", "/query", {"dataset": "x"})
        client.open_dataset("d", path)
        with pytest.raises(Exception, match="400.*unknown operator"):
            client._call(
                "POST", "/query",
                {"dataset": "d", "variable": "v", "extract": [4, 5],
                 "operator": "nope"},
            )
        with pytest.raises(
            Exception, match="400.*unknown engine 'process'.*'serial', 'threaded'"
        ):
            client._call(
                "POST", "/query",
                {"dataset": "d", "variable": "v", "extract": [4, 5],
                 "engine": "process"},
            )
        with pytest.raises(Exception, match="404"):
            client._call("GET", "/no/such/route")

    @pytest.mark.parametrize(
        "fields,fragment",
        [
            ({"data_plane": "record"},
             r"unknown data plane 'record'.*\('columnar',\)"),
            ({"recovery": "bogus"}, "unknown recovery model 'bogus'"),
            ({"speculate": True, "hang_timeout": 0.0},
             "hang_timeout must be positive"),
            ({"fault_rules": [{"task": "nope"}]}, "rule missing 'fault'"),
            ({"extract": 7}, "extract must be a list of integers"),
            ({"extract": ["a"]}, "extract must be a list of integers"),
            ({"stride": 5}, "stride must be a list of integers"),
            ({"fault_rules": 5}, "fault_rules must be a list of objects"),
            ({"splits": "x"}, "splits must be an integer"),
            ({"deadline": "soon"}, "deadline must be a number"),
            ({"tenant": ["a"]}, "tenant must be a string"),
            ({"priority": "high"}, "priority must be an integer"),
            ({"reduces": 2.5}, "reduces must be an integer"),
            ({"fault_rules": [HANG_MAP_0]}, "set speculate or deadline"),
            ({"fault_rules": [{**SLOW_MAP_0, "delay": 1e9}]},
             "set a deadline"),
        ],
        ids=["record-plane", "recovery", "hang-timeout", "fault-rule",
             "extract-int", "extract-strings", "stride-int",
             "fault-rules-int", "splits-string", "deadline-string",
             "tenant-list", "priority-string", "reduces-float",
             "hang-unreleasable", "slow-unreleasable"],
    )
    def test_unrunnable_request_is_a_400_and_bills_nothing(
        self, live_server, caplog, fields, fragment
    ):
        """Regression: a malformed recovery model, hang timeout or fault
        rule was admitted, queued, failed and counted against the
        tenant; like the plane the service does not serve, each is now
        refused before a job exists.  A field of the wrong JSON type
        raised ``TypeError`` past the router (the client saw a dropped
        connection), and ``"priority": "high"`` failed in the queue's
        heap *after* the tenant was billed an active slot for good."""
        import logging

        client, service, path, data = live_server
        client.open_dataset("d", path)
        with caplog.at_level(logging.ERROR, logger="asyncio"):
            with pytest.raises(Exception, match=f"400.*{fragment}"):
                client._call(
                    "POST", "/query",
                    {"dataset": "d", "variable": "v", "extract": [4, 5],
                     **fields},
                )
        assert not [r for r in caplog.records if r.name == "asyncio"]
        assert client.jobs() == []
        for billed in client.stats()["tenants"].values():
            assert (
                billed["submitted"], billed["active"], billed["failures"]
            ) == (0, 0, 0)
        assert_still_serving(client, service)

    @pytest.mark.parametrize(
        "body",
        [[1, 2], {"path": "p"}, {"name": "d"}, {"name": 5, "path": "p"},
         {"name": "d", "path": ["p"]}],
        ids=["not-an-object", "no-name", "no-path", "name-int", "path-list"],
    )
    def test_malformed_dataset_document_is_a_400(
        self, live_server, caplog, body
    ):
        """Regression: ``doc["name"]`` on a list (or a non-string name
        or path) raised past the router — a dropped connection."""
        import logging

        client, service, path, data = live_server
        with caplog.at_level(logging.ERROR, logger="asyncio"):
            with pytest.raises(Exception, match="400.*name.*path"):
                client._call("POST", "/datasets", body)
        assert not [r for r in caplog.records if r.name == "asyncio"]
        assert client.stats()["datasets"] == []
        client.open_dataset("d", path)
        assert_still_serving(client, service)

    def test_server_bug_is_a_typed_500(self, live_server, caplog, monkeypatch):
        """The router's last resort: an exception nobody mapped is a 500
        naming its type (and a traceback in the server's own log), not
        a closed socket."""
        import logging

        client, service, path, data = live_server
        client.open_dataset("d", path)

        def broken():
            raise RuntimeError("boom")

        with monkeypatch.context() as m:
            m.setattr(service, "list_jobs", broken)
            with caplog.at_level(logging.ERROR):
                with pytest.raises(Exception, match="500.*RuntimeError: boom"):
                    client.jobs()
        assert not [r for r in caplog.records if r.name == "asyncio"]
        (logged,) = [
            r for r in caplog.records if r.name == "repro.service.server"
        ]
        assert logged.exc_info[0] is RuntimeError
        assert logged.getMessage() == "GET /jobs failed"
        assert_still_serving(client, service)

    @pytest.mark.parametrize("length", ["abc", "-5", "1e3"])
    def test_malformed_content_length_is_a_400(self, live_server, length):
        """Regression: ``int()``/``readexactly`` raised out of the
        connection handler, so the client saw a reset, not a response."""
        import json
        import socket

        client, *_ = live_server
        with socket.create_connection((client.host, client.port), timeout=10) as sock:
            sock.sendall(
                f"POST /query HTTP/1.1\r\nContent-Length: {length}\r\n\r\n{{}}"
                .encode("latin-1")
            )
            raw = b""
            while chunk := sock.recv(65536):
                raw += chunk
        head, _, body = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        assert "Content-Length" in json.loads(body)["error"]
        assert client.healthz()["ok"] is True  # and it keeps serving

    @pytest.mark.parametrize(
        "head",
        [
            b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n",
            b"GET /healthz HTTP/1.1\r\nX-Big: " + b"v" * 70_000 + b"\r\n\r\n",
            b"GET /healthz HTTP/1.1\r\n"
            + b"".join(b"X-H%d: v\r\n" % i for i in range(10_000))
            + b"\r\n",
        ],
        ids=["target", "header-value", "header-lines"],
    )
    def test_oversized_request_head_is_a_431(self, live_server, caplog, head):
        """Regression: past the stream reader's 64 KiB line limit
        ``readline`` raised ``ValueError`` out of the connection handler
        — an empty reply for the client, an "Unhandled exception in
        client_connected_cb" traceback in the server's log — and the
        number of header lines was not bounded at all."""
        import json
        import logging
        import socket

        client, *_ = live_server
        with caplog.at_level(logging.ERROR, logger="asyncio"):
            with socket.create_connection(
                (client.host, client.port), timeout=10
            ) as sock:
                sock.sendall(head)
                raw = b""
                while chunk := sock.recv(65536):
                    raw += chunk
            assert client.healthz()["ok"] is True  # and it keeps serving
        status_line, _, rest = raw.partition(b"\r\n")
        assert status_line == b"HTTP/1.1 431 Request Header Fields Too Large"
        assert "too large" in json.loads(rest.partition(b"\r\n\r\n")[2])["error"]
        assert not [r for r in caplog.records if r.name == "asyncio"]

    @pytest.mark.parametrize(
        "head, status, error",
        [
            (b"POST /query HTTP/1.1\r\nContent-Length: %d\r\n\r\n"
             % (9 << 20), 413, "body too large"),
            (b"BOGUS\r\nContent-Length: %d\r\n\r\n" % (9 << 20),
             400, "malformed request line"),
            (b"POST /query HTTP/1.1\r\nContent-Length: 9e6\r\n\r\n",
             400, "malformed Content-Length"),
        ],
        ids=["body-too-large", "request-line", "content-length"],
    )
    def test_a_refusal_with_a_body_is_answered_not_reset(
        self, live_server, head, status, error
    ):
        """Regression: a refused request's body was left unread, and
        closing a socket with unread input resets the connection — a
        9 MiB ``POST /query`` read ``ConnectionResetError`` instead of
        its 413.  The server swallows the rest after every refusal.
        1 MiB of body is sent: enough to be left unread at the close."""
        import json
        import socket

        client, *_ = live_server
        with socket.create_connection((client.host, client.port), timeout=10) as sock:
            sock.sendall(head + b"x" * (1 << 20))
            raw = b""
            while chunk := sock.recv(65536):
                raw += chunk
        status_line, _, rest = raw.partition(b"\r\n")
        assert status_line.startswith(b"HTTP/1.1 %d " % status)
        assert error in json.loads(rest.partition(b"\r\n\r\n")[2])["error"]
        assert client.healthz()["ok"] is True  # and it keeps serving

    def test_bad_result_timeout_is_a_400(self, live_server):
        client, service, path, data = live_server
        client.open_dataset("d", path)
        job_id = client.submit(mean_request())
        # ``nan`` used to slip through ``min(nan, 600)`` into a wait
        # that never fired; the pause proves the 400 comes unwaited.
        service.queue.pause()
        parked = client.submit(mean_request())
        for bad in ("abc", "nan", "inf", "-inf", "-1", ""):
            with pytest.raises(Exception, match="400"):
                client._call("GET", f"/jobs/{parked}/result?timeout={bad}")
        assert service.get_job(parked)._waiters == []
        service.queue.resume()
        assert client.result(job_id)["state"] == DONE

    def test_result_body_is_the_documents_json(self, live_server):
        """The result body is encoded off the event loop; it is still
        exactly ``json.dumps`` of the in-process result document."""
        import http.client
        import json

        client, service, path, data = live_server
        client.open_dataset("d", path)
        job_id = client.submit(mean_request())
        client.result(job_id)
        conn = http.client.HTTPConnection(client.host, client.port, timeout=10)
        try:
            conn.request("GET", f"/jobs/{job_id}/result")
            wire = conn.getresponse().read()
        finally:
            conn.close()
        assert wire == json.dumps(service.result(job_id)).encode("utf-8")

    @staticmethod
    def _get_result(client, job_id, accept=None):
        """``(Content-Type, body)`` of one raw ``GET .../result``."""
        import http.client

        conn = http.client.HTTPConnection(client.host, client.port, timeout=10)
        try:
            conn.request(
                "GET", f"/jobs/{job_id}/result",
                headers={} if accept is None else {"Accept": accept},
            )
            resp = conn.getresponse()
            return resp.getheader("Content-Type"), resp.read()
        finally:
            conn.close()

    @pytest.mark.parametrize(
        "operator",
        ["sum", "count", "mean", "min", "max", "stddev", "range",
         "range_exceeds", "filter_gt", "median", "sort"],
    )
    def test_negotiated_body_carries_the_same_records(self, live_server, operator):
        """Binary body ≡ JSON body ≡ oracle, per operator."""
        import hashlib
        import json
        import struct

        client, service, path, data = live_server
        client.open_dataset("d", path)
        threshold = 3.0 if operator in ("range_exceeds", "filter_gt") else None
        req = mean_request(operator=operator, threshold=threshold)
        records, digest = oracle_for_request(service, req)
        doc = client.query(req)
        block = doc.pop("records")
        assert isinstance(block, ResultBlock)
        assert not block.key_rows.flags.writeable

        ctype, body = self._get_result(client, doc["id"])
        assert ctype == "application/json"
        plain = json.loads(body)
        rows = plain.pop("records")
        assert plain == doc
        assert doc["digest"] == digest
        assert doc["num_records"] == len(block) == len(records)
        assert (
            repr(block.canonical_records())
            == repr([(tuple(key), value) for key, value in rows])
            == repr(records)
        )
        assert records_digest(block.canonical_records()) == digest
        # The digest is the bytes: SHA-256 of the block section of
        # the raw binary body, no ``repro`` decoder in between.
        ctype, raw = self._get_result(client, doc["id"], BLOCK_CONTENT_TYPE)
        assert ctype == BLOCK_CONTENT_TYPE
        (doc_bytes,) = struct.unpack_from("<Q", raw)
        assert json.loads(raw[8:8 + doc_bytes])["digest"] == digest
        assert hashlib.sha256(raw[8 + doc_bytes:]).hexdigest() == digest

    @pytest.mark.parametrize(
        "accept,binary",
        [
            (BLOCK_CONTENT_TYPE, True),
            (f"application/json;q=0.5, {BLOCK_CONTENT_TYPE.upper()} ;v=1", True),
            ("application/json", False),
            ("*/*", False),
            ("application/x-repro-blockade", False),
        ],
    )
    def test_binary_body_only_when_accept_names_it(self, live_server, accept, binary):
        client, service, path, data = live_server
        client.open_dataset("d", path)
        job_id = client.submit(mean_request())
        client.result(job_id)
        ctype, body = self._get_result(client, job_id, accept)
        assert ctype == (BLOCK_CONTENT_TYPE if binary else "application/json")
        if binary:
            assert decode_result_body(body)["records"] == service.get_job(job_id).records
        else:
            assert body == self._get_result(client, job_id)[1]

    def test_jobs_without_records_over_the_binary_path(self, live_server):
        """Failed and evicted jobs are their status document and no
        block; a partial job is its document and the partitions that
        committed — each the same as over JSON."""
        import json

        client, service, path, data = live_server
        client.open_dataset("d", path)
        hang = dict(
            fault_rules=({"task": "map", "fault": "hang", "indices": [0],
                          "times": 5},),
            max_attempts=2, deadline=0.2,
        )
        failed = client.query(mean_request(on_deadline="fail", **hang))
        partial = client.query(mean_request(on_deadline="partial", **hang))
        evicted = client.query(mean_request())
        service.get_job(evicted["id"]).evict_records()
        evicted = client.result(evicted["id"])

        assert failed["state"] == FAILED and "records" not in failed
        assert failed["error_types"] == ["DeadlineExceededError"]
        assert evicted["state"] == DONE and evicted["evicted"] is True
        assert "records" not in evicted and evicted["num_records"] > 0
        assert partial["state"] == DONE and partial["partial"] is True
        assert len(partial["records"]) == partial["num_records"]
        for doc in (failed, partial, evicted):
            ctype, body = self._get_result(client, doc["id"], BLOCK_CONTENT_TYPE)
            assert ctype == BLOCK_CONTENT_TYPE
            plain = json.loads(self._get_result(client, doc["id"])[1])
            assert ("records" in plain) == ("records" in doc)
            if "records" in doc:
                assert records_to_json(doc.pop("records")) == plain.pop("records")
            else:
                # nothing follows the document
                assert decode_result_body(body) == doc
                assert len(body) == 8 + int.from_bytes(body[:8], "little")
            assert doc == plain

    def test_partial_job_with_no_keyblock_committed(self, live_server):
        """Every map hangs, so the deadline fires before any reduce can
        start: the job is still ``done``/``partial``, and its result is
        the empty block — not the empty list the engine used to hand
        the service, which only a record-plane branch could digest."""
        import json
        import struct

        client, service, path, data = live_server
        client.open_dataset("d", path)
        doc = client.query(mean_request(
            fault_rules=({"task": "map", "fault": "hang", "times": 5},),
            max_attempts=2, deadline=0.2, on_deadline="partial",
        ))
        assert doc["state"] == DONE and doc["partial"] is True
        assert doc["num_records"] == 0
        assert doc["digest"] == records_digest([])
        block = doc.pop("records")
        assert isinstance(block, ResultBlock) and len(block) == 0
        _, raw = self._get_result(client, doc["id"], BLOCK_CONTENT_TYPE)
        (doc_bytes,) = struct.unpack_from("<Q", raw)
        assert raw[8 + doc_bytes:] == ResultBlock.empty().to_bytes()
        plain = json.loads(self._get_result(client, doc["id"])[1])
        assert plain.pop("records") == [] and plain == doc

    def test_parked_result_waiters_hold_no_thread(self, live_server):
        """Regression: each blocked ``/result`` parked one default-
        executor thread in ``job.wait``; with as many waiters as the
        executor has threads, ``POST /query`` (which then needed one)
        stalled until a job finished."""
        import json
        import os
        import socket
        import time

        client, service, path, data = live_server
        client.open_dataset("d", path)
        service.queue.pause()
        job_id = client.submit(mean_request())
        job = service.get_job(job_id)
        # asyncio's default executor: min(32, cpu_count + 4) threads
        waiters = min(32, (os.cpu_count() or 1) + 4) + 2
        socks = []
        try:
            for _ in range(waiters):
                sock = socket.create_connection(
                    (client.host, client.port), timeout=30
                )
                sock.sendall(
                    f"GET /jobs/{job_id}/result?timeout=60 HTTP/1.1\r\n"
                    "Connection: close\r\n\r\n".encode("latin-1")
                )
                socks.append(sock)
            time.sleep(0.3)  # every waiter has reached the server

            prompt = HttpServiceClient(
                f"http://{client.host}:{client.port}", timeout=5
            )
            t0 = time.monotonic()
            second = prompt.submit(mean_request(operator="max"))
            assert prompt.healthz()["ok"] is True
            assert prompt.status(second)["state"] == QUEUED
            assert time.monotonic() - t0 < 5
            prompt.close()
            assert len(job._waiters) == waiters

            service.queue.resume()
            _, digest = oracle_for_request(service, mean_request())
            for sock in socks:
                raw = b""
                while chunk := sock.recv(65536):
                    raw += chunk
                head, _, body = raw.partition(b"\r\n\r\n")
                assert head.startswith(b"HTTP/1.1 200 ")
                doc = json.loads(body)
                assert doc["state"] == DONE
                assert doc["digest"] == digest
                assert len(doc["records"]) == doc["num_records"] > 0
            assert job._waiters == []
        finally:
            for sock in socks:
                sock.close()

    def test_disconnected_waiter_leaves_no_callback_behind(self, live_server):
        import socket
        import time

        client, service, path, data = live_server
        client.open_dataset("d", path)
        service.queue.pause()
        job = service.get_job(client.submit(mean_request()))

        def wait_for(count):
            for _ in range(200):
                if len(job._waiters) == count:
                    return True
                time.sleep(0.025)
            return False

        sock = socket.create_connection((client.host, client.port), timeout=10)
        sock.sendall(
            f"GET /jobs/{job.id}/result HTTP/1.1\r\n\r\n".encode("latin-1")
        )
        assert wait_for(1)
        sock.close()
        assert wait_for(0)
        service.queue.resume()
        assert client.result(job.id)["state"] == DONE

    def test_result_wait_timeout_is_a_408(self, live_server):
        client, service, path, data = live_server
        client.open_dataset("d", path)
        service.queue.pause()
        job = service.get_job(client.submit(mean_request()))
        with pytest.raises(Exception, match=f"408.*{job.id} still 'queued'"):
            client.result(job.id, timeout=0.05)
        assert job._waiters == []
        service.queue.resume()
        assert client.result(job.id)["state"] == DONE

    def test_shutdown_endpoint_stops_the_server(self, live_server):
        client, service, path, data = live_server
        client.shutdown()
        # the accept loop exits; further calls fail at the socket level
        import time

        for _ in range(100):
            try:
                client.healthz()
            except OSError:
                break
            time.sleep(0.05)
        else:
            pytest.fail("server kept serving after POST /shutdown")
