"""Engine processes (docs/SERVICE.md, "Execution model"): each queue
worker runs its jobs in a resident process of its own.

What moves between the service and a process has to pickle — plans
included — and a job run on an unpickled plan must give the oracle's
bytes on the planned reduce.  A process that dies fails the one job it
was running, typed, bills its tenant once and is replaced before its
worker's next job, also while other threads use the service; ``close``
and ``serve``'s ``/shutdown`` leave no process behind.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import threading
import time
from multiprocessing.connection import Connection
from pathlib import Path

import numpy as np
import pytest

from repro.scidata.dataset import create_dataset
from repro.service import (
    HttpServiceClient,
    QueryRequest,
    oracle_for_request,
    service_fixture,
)
from repro.service.api import DONE, FAILED, RUNNING
from repro.service import engine_process
from repro.service.engine_process import Run, deal_cpus, run_job

SRC = Path(__file__).resolve().parents[1] / "src"


def field(shape=(56, 20, 20), seed=7):
    """Integer-valued float64, a quarter of it raised: exact sums in
    any order, and a zone map with something to prune above 49."""
    rng = np.random.default_rng(seed)
    data = rng.integers(0, 50, size=shape).astype(np.float64)
    data[: shape[0] // 4] += 50
    return data


#: The served benchmark's four request classes (``benchmarks/e2e``),
#: on a smaller grid.
CLASSES = {
    "fine_mean": dict(operator="mean", extract=(7, 5, 2)),
    "coarse_scan": dict(operator="mean", extract=(28, 10, 10)),
    "holistic_median": dict(operator="median", extract=(14, 10, 8)),
    "ragged_filter": dict(operator="filter_gt", extract=(7, 5, 2), threshold=95),
}


def request(**kw):
    base = dict(
        dataset="d", variable="v", extract=(7, 5, 2), operator="mean",
        splits=8, reduces=4, prune=True,
    )
    base.update(kw)
    return QueryRequest(**base)


def children(pid: int) -> set[int]:
    """Live processes whose parent is ``pid`` (``ps --ppid``)."""
    found = set()
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == pid and fields[0] != "Z":
            found.add(int(stat.parent.name))
    return found


def alive(pid: int) -> bool:
    return Path(f"/proc/{pid}").exists()


def wait_running(client, job_id: str) -> None:
    """Until the job runs in its engine process (its progress answers)."""
    deadline = time.monotonic() + 20
    while True:
        doc = client.status(job_id)
        if doc["state"] == RUNNING and "progress" in doc:
            return
        assert time.monotonic() < deadline, doc
        time.sleep(0.01)


SLOW = ({"task": "map", "fault": "slow", "indices": [0], "delay": 30.0},)


class TestPlansPickle:
    @pytest.mark.parametrize("cls", sorted(CLASSES))
    def test_a_cached_plan_survives_a_round_trip_and_runs_planned(self, cls):
        with service_fixture(workers=1) as client:
            svc = client.service
            svc.register_array("d", "v", field(), with_zone_map=True)
            req = request(**CLASSES[cls])
            session = svc.registry.get("d")
            (plan, _), _ = svc.plan(req, session)
            back = pickle.loads(pickle.dumps(plan))
            _, digest = oracle_for_request(svc, req)
            outs = [
                run_job(
                    name, req, session.engine_source(), p, svc.engine_config,
                    part=p.parts(1)[0],
                )
                for name, p in (("cached", plan), ("pickled", back))
            ]
            served = client.query(req)
        for out in outs:
            assert out.state == DONE
            assert hashlib.sha256(out.block).hexdigest() == digest
            # every class's every keyblock takes the ordered body
            assert out.counters["reduce.planned"] == plan.num_reduce_tasks
            assert "reduce.generic" not in out.counters
        assert served["digest"] == digest


class TestOneMessage:
    """A part crosses the pipe as one :class:`Run` in, carrying the
    plan's bytes as the plan cache keeps them, and one ``Outcome``
    out; an engine process keeps one handle per session name and
    nothing else between parts."""

    def test_what_each_part_is_sent_is_what_the_cache_counts(self, monkeypatch):
        sent = []
        send = Connection.send

        def recording(conn, obj):
            if isinstance(obj, Run):
                sent.append(obj)
            send(conn, obj)

        monkeypatch.setattr(Connection, "send", recording)
        with service_fixture(workers=2) as client:
            svc = client.service
            svc.register_array("d", "v", field())
            _, digest = oracle_for_request(svc, request())
            docs = [client.query(request()) for _ in range(3)]
            cached = svc.stats()["plan_cache"]
        assert [d["digest"] for d in docs] == [digest] * 3
        assert sum(d["parts"] for d in docs) == len(sent) > 3
        assert cached["size"] == 1
        assert {len(run.plan) for run in sent} == {cached["bytes"]}
        # pickled once, on the miss: every part of every job carries
        # the cache's own bytes
        assert all(run.plan is sent[0].plan for run in sent)

    def test_a_one_plan_cache_serves_two_alternating_queries(self):
        with service_fixture(workers=1, plan_cache_capacity=1) as client:
            svc = client.service
            svc.register_array("d", "v", field())
            reqs = [request(), request(operator="max", extract=(14, 10, 4))]
            digests = [oracle_for_request(svc, r)[1] for r in reqs]
            for _ in range(2):
                for req, digest in zip(reqs, digests):
                    doc = client.query(req)
                    assert doc["state"] == DONE and doc["digest"] == digest
                    assert doc["plan_cache_hit"] is False
            assert svc.stats()["plan_cache"]["evictions"] == 3

    def test_a_replaced_engine_runs_a_warm_plan(self):
        with service_fixture(workers=1) as client:
            svc = client.service
            svc.register_array("d", "v", field())
            _, digest = oracle_for_request(svc, request())
            assert client.query(request())["digest"] == digest
            assert client.query(request())["plan_cache_hit"] is True
            (engine,) = svc.stats()["engines"]
            os.kill(engine["pid"], signal.SIGKILL)
            deadline = time.monotonic() + 20
            while svc.stats()["engines"][0]["restarts"] == 0:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            doc = client.query(request())
            assert doc["state"] == DONE and doc["digest"] == digest
            assert doc["plan_cache_hit"] is True

    def test_re_registered_data_is_served_from_its_own_file(self):
        with service_fixture(workers=1) as client:
            svc = client.service
            old = svc.register_array("d", "v", field(seed=7))
            first = client.query(request())
            assert first["digest"] == oracle_for_request(svc, request())[1]
            fds = svc.stats()["engines"][0]["fds"]
            new = svc.register_array("d", "v", field(seed=8))
            assert new.path != old.path and not os.path.exists(old.path)
            _, digest = oracle_for_request(svc, request())
            assert digest != first["digest"]
            doc = client.query(request())
            assert doc["state"] == DONE and doc["digest"] == digest
            # the old file's handle was closed, not kept beside the new
            assert svc.stats()["engines"][0]["fds"] == fds

    def test_no_array_file_is_left_after_close(self):
        with service_fixture(workers=1) as client:
            svc = client.service
            paths = [
                svc.register_array(name, "v", field()).path for name in "ab"
            ]
            assert client.query(request(dataset="b"))["state"] == DONE
            folder = os.path.dirname(paths[0])
            assert sorted(os.listdir(folder)) == sorted(
                os.path.basename(p) for p in paths
            )
        assert not os.path.exists(folder)
        assert svc.stats()["engines"][0]["fds"] is None  # stopped

    def test_re_opening_a_name_does_not_grow_an_engines_fds(self, tmp_path):
        """One name re-opened at 6 fresh copies of its file, with one
        query each: the engine holds one handle for the name."""
        path = tmp_path / "d.nc"
        create_dataset(path, var_name="v", data=field()).close()
        with service_fixture(workers=1) as client:
            svc = client.service
            counts = []
            for i in range(6):
                copy = tmp_path / f"d{i}.nc"
                copy.write_bytes(path.read_bytes())
                svc.open_dataset("d", str(copy))
                assert client.query(request())["state"] == DONE
                counts.append(svc.stats()["engines"][0]["fds"])
        assert counts == counts[:1] * 6, counts


class TestCrashContainment:
    def test_a_killed_process_fails_its_job_typed_and_is_replaced(self):
        with service_fixture(workers=1) as client:
            svc = client.service
            svc.register_array("d", "v", field())
            _, digest = oracle_for_request(svc, request())
            (engine,) = svc.stats()["engines"]
            assert set(engine) == {
                "pid", "jobs", "restarts", "rss_kb", "cpus", "policy", "fds",
            }
            assert alive(engine["pid"]) and engine["rss_kb"] > 0
            assert engine["fds"] > 0
            assert children(os.getpid()) >= {engine["pid"]}

            job_id = client.submit(request(fault_rules=SLOW, tenant="t"))
            wait_running(client, job_id)
            os.kill(engine["pid"], signal.SIGKILL)
            doc = client.result(job_id, timeout=30)
            assert doc["state"] == FAILED
            assert doc["error_types"] == ["EngineProcessError"]
            assert f"engine process {engine['pid']}" in doc["error"]
            assert "SIGKILL" in doc["error"]
            assert "records" not in doc

            after = client.query(request(tenant="t"))
            assert after["state"] == DONE and after["digest"] == digest
            stats = svc.stats()
            assert stats["tenants"]["t"]["failures"] == 1
            (replaced,) = stats["engines"]
            assert replaced["pid"] != engine["pid"] and alive(replaced["pid"])
            assert replaced["restarts"] == 1 and replaced["jobs"] == 2
            seen = {engine["pid"], replaced["pid"]}
        assert multiprocessing.active_children() == []
        assert not any(alive(pid) for pid in seen)
        assert not children(os.getpid()) & seen

    def test_replacement_does_not_deadlock_under_concurrent_callers(self):
        """The replacement is forked while other threads hold the
        service's locks and pipes: status reads (one control message
        each), stats and submissions keep going throughout."""
        with service_fixture(workers=2) as client:
            svc = client.service
            svc.register_array("d", "v", field())
            _, digest = oracle_for_request(svc, request())
            stop = threading.Event()
            errors = []

            def hammer():
                try:
                    while not stop.is_set():
                        svc.stats()
                        for doc in svc.list_jobs()[-4:]:
                            svc.status(doc["id"])
                except Exception as exc:  # pragma: no cover - reported below
                    errors.append(exc)

            threads = [threading.Thread(target=hammer) for _ in range(2)]
            for t in threads:
                t.start()
            try:
                for _ in range(3):
                    job_id = client.submit(request(fault_rules=SLOW))
                    wait_running(client, job_id)
                    side = client.submit(request())
                    pids = [e["pid"] for e in svc.stats()["engines"]]
                    for pid in pids:
                        os.kill(pid, signal.SIGKILL)
                    assert client.result(job_id, timeout=30)["state"] == FAILED
                    client.result(side, timeout=30)  # ran, or died with its process
                    for _ in range(2):
                        doc = client.query(request(), timeout=30)
                        assert doc["state"] == DONE and doc["digest"] == digest
            finally:
                stop.set()
                for t in threads:
                    t.join(10)
            assert not errors
            # The slow job's process was replaced each round; the other
            # one when its worker next took a job.
            restarts = sum(e["restarts"] for e in svc.stats()["engines"])
            assert 3 <= restarts <= 6
        assert multiprocessing.active_children() == []


class TestPlacement:
    """Each slot runs ``SCHED_BATCH`` on its share of the service's
    CPUs (all of them when the slots outnumber the CPUs), read back
    from the OS in ``/stats``; a replacement keeps its slot's, and a
    platform that refuses the policy still serves."""

    def test_cpus_are_dealt_round_robin(self):
        assert deal_cpus({0, 1, 2, 3}, 2) == [{0, 2}, {1, 3}]
        assert deal_cpus({0, 1, 2}, 3) == [{0}, {1}, {2}]
        assert deal_cpus({0}, 2) == [{0}, {0}]
        assert deal_cpus({0, 1}, 3) == [{0, 1}] * 3
        assert deal_cpus((), 2) == [frozenset()] * 2

    def test_more_slots_than_cpus_keep_every_cpu(self):
        held = os.sched_getaffinity(0)
        with service_fixture(workers=len(held) + 1) as client:
            svc = client.service
            svc.register_array("d", "v", field())
            for cls in ("fine_mean", "coarse_scan"):
                req = request(**CLASSES[cls])
                _, digest = oracle_for_request(svc, req)
                doc = client.query(req)
                assert doc["state"] == DONE and doc["digest"] == digest
                assert doc["parts"] > 1  # parts on slots that share CPUs
            engines = svc.stats()["engines"]
        assert len(engines) == len(held) + 1
        assert all(e["cpus"] == sorted(held) for e in engines)
        assert all(e["policy"] == "batch" for e in engines)

    @pytest.mark.skipif(
        len(os.sched_getaffinity(0)) < 2, reason="needs at least 2 CPUs"
    )
    def test_two_engines_hold_disjoint_cpus(self):
        with service_fixture(workers=2) as client:
            svc = client.service
            svc.register_array("d", "v", field())
            assert client.query(request())["state"] == DONE  # both placed
            engines = svc.stats()["engines"]
        a, b = (set(e["cpus"]) for e in engines)
        assert a and b and not a & b
        assert [a, b] == deal_cpus(os.sched_getaffinity(0), 2)
        assert [e["policy"] for e in engines] == ["batch", "batch"]

    def test_a_replacement_keeps_its_slot_placement(self):
        with service_fixture(workers=2) as client:
            svc = client.service
            svc.register_array("d", "v", field())
            _, digest = oracle_for_request(svc, request())
            assert client.query(request())["state"] == DONE
            before = svc.stats()["engines"]
            job_id = client.submit(request(fault_rules=SLOW))
            wait_running(client, job_id)
            os.kill(before[0]["pid"], signal.SIGKILL)
            assert client.result(job_id, timeout=30)["state"] == FAILED
            after = client.query(request())
            assert after["state"] == DONE and after["digest"] == digest
            engines = svc.stats()["engines"]
            held = [os.sched_getaffinity(e["pid"]) for e in engines]
        assert engines[0]["pid"] != before[0]["pid"]
        assert engines[0]["restarts"] == 1
        for old, new, cpus in zip(before, engines, held):
            assert new["cpus"] == old["cpus"] == sorted(cpus)
            assert new["policy"] == "batch"

    def test_a_refused_policy_leaves_the_slot_as_it_was(self, monkeypatch):
        def refuse(*args):
            raise PermissionError("operation not permitted")

        monkeypatch.setattr(os, "sched_setscheduler", refuse)
        with service_fixture(workers=2) as client:
            svc = client.service
            svc.register_array("d", "v", field())
            for cls in ("fine_mean", "coarse_scan"):
                req = request(**CLASSES[cls])
                _, digest = oracle_for_request(svc, req)
                doc = client.query(req)
                assert doc["state"] == DONE and doc["digest"] == digest
            engines = svc.stats()["engines"]
        assert [e["policy"] for e in engines] == ["other", "other"]
        assert all(e["cpus"] for e in engines)

    def test_a_platform_without_the_calls_still_serves(self, monkeypatch):
        for name in ("sched_getaffinity", "sched_setaffinity", "SCHED_BATCH"):
            monkeypatch.delattr(os, name)
        with service_fixture(workers=2) as client:
            svc = client.service
            svc.register_array("d", "v", field())
            req = request(**CLASSES["coarse_scan"])
            _, digest = oracle_for_request(svc, req)
            doc = client.query(req)
            assert doc["state"] == DONE and doc["digest"] == digest
            engines = svc.stats()["engines"]
        assert [(e["cpus"], e["policy"]) for e in engines] == [(None, None)] * 2


class TestResultSizeCap:
    def test_an_oversized_result_fails_typed_and_the_engines_keep_serving(
        self, monkeypatch
    ):
        """The cap is read where a block is made (the engine process)
        and where parts are spliced (the service), so it is set before
        the service forks.  A ragged operator's block is known only
        once it is made (a fixed-width one's is refused at submit,
        ``test_service_api``): a whole job and a split one over it fail
        with ``ResultTooLargeError``, and so does a split job whose
        parts fit only one by one; the same engines then serve a job
        under it."""
        monkeypatch.setattr(engine_process, "MAX_RESULT_BYTES", 300)
        # 8 keys: a 136-byte block
        small = request(**CLASSES["coarse_scan"])
        # No cell passes: a row is a zero length, the width of a mean's
        # row, behind a 72-byte header, shape and run.
        ragged = dict(operator="filter_gt", threshold=1000.0, prune=False)
        with service_fixture(workers=2) as client:
            svc = client.service
            svc.register_array("d", "v", field())
            _, digest = oracle_for_request(svc, small)
            # fine_mean-shaped (320 keys, 2 632 bytes): one keyblock
            # runs whole, four split in two
            whole = client.query(request(reduces=1, **ragged))
            split = client.query(request(**ragged))
            # 32 keys: two parts of 200 bytes, 328 spliced
            summed = client.query(request(extract=(7, 10, 10), **ragged))
            after = client.query(small)
            engines = svc.stats()["engines"]
        for doc, parts in ((whole, 1), (split, 2), (summed, 2)):
            assert doc["state"] == FAILED and doc["parts"] == parts, doc
            assert doc["error_types"] == ["ResultTooLargeError"]
            assert "over the service's cap of 300" in doc["error"]
        assert "328 bytes" in summed["error"]
        assert after["state"] == DONE and after["digest"] == digest
        assert [e["restarts"] for e in engines] == [0, 0]


class TestServeLeavesNoProcess:
    def test_two_engine_children_then_none_after_shutdown(self, tmp_path):
        path = tmp_path / "d.nc"
        create_dataset(path, var_name="v", data=field()).close()
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", str(path),
             "--port", "0", "--workers", "2"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        )
        try:
            line = proc.stdout.readline()
            assert line.startswith("# serving on "), line
            client = HttpServiceClient(line.split()[-1], timeout=30)
            engines = children(proc.pid)
            assert len(engines) == 2
            assert {e["pid"] for e in client.stats()["engines"]} == engines
            doc = client.query(request(dataset="d"))
            assert doc["state"] == DONE
            client.shutdown()
            assert proc.wait(10) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        assert not any(alive(pid) for pid in engines)
