"""Concurrency harness for the resident query service (docs/SERVICE.md).

The tentpole proof: many structural queries — mixed operators and
engine modes — run *concurrently* over one shared open dataset, and
every served result is byte-identical to a brute-force oracle computed
completely outside the service path.  The admission-control paths (quotas, failure budgets, priorities,
cancellation, deadlines) are driven deterministically via the pausable
queue.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.scidata.dataset import create_dataset
from repro.service import (
    AdmissionError,
    QueryRequest,
    QueryService,
    StressDriver,
    TenantQuota,
    oracle_for_request,
    service_fixture,
)
from repro.service.api import CANCELLED, DONE, FAILED, QUEUED


def stress_data(seed=7, shape=(24, 20)):
    """Integer-valued float64 field (exact partial sums -> engine output
    is byte-identical to the oracle regardless of reduction order)."""
    rng = np.random.default_rng(seed)
    return rng.integers(-50, 50, size=shape, endpoint=True).astype(np.float64)


def req(**kw):
    base = dict(
        dataset="shared", variable="v", extract=(4, 5),
        operator="mean", splits=6, reduces=3, prune=False,
    )
    base.update(kw)
    return QueryRequest(**base)


#: 16 jobs covering {serial, threaded, threaded + speculate (the pooled
#: branch)} x all eleven operators, strides, pruning on and off, and
#: distinct split/reduce geometries — all against ONE shared dataset
#: session, on the one plane the service serves.
STRESS_MATRIX = [
    req(engine="serial", operator="sort"),
    req(engine="serial", operator="sum"),
    req(engine="threaded", operator="max"),
    req(engine="threaded"),
    req(engine="threaded", speculate=True, operator="range"),
    req(engine="serial", operator="min"),
    req(engine="threaded", operator="filter_gt", threshold=10.0, prune=True),
    req(engine="serial", operator="filter_gt", threshold=-5.0, prune=True),
    req(engine="threaded", extract=(8, 10)),
    req(engine="serial", extract=(3, 4), operator="stddev"),
    req(engine="threaded", stride=(8, 5), operator="count"),
    req(engine="threaded", speculate=True, extract=(6, 4), operator="median"),
    req(engine="threaded", splits=2, reduces=1),
    req(engine="serial", splits=12, reduces=4,
        operator="range_exceeds", threshold=40.0),
    req(engine="threaded", extract=(2, 2), stride=(3, 4), operator="median"),
    req(engine="threaded", operator="filter_gt", threshold=0.0),
]


class TestSixteenJobStress:
    def test_mixed_engine_stress_is_byte_identical_to_oracle(self, tmp_path):
        """The acceptance-criteria run: 16 concurrent mixed-engine jobs
        over one shared on-disk dataset, each byte-identical to its
        per-request brute-force oracle."""
        path = tmp_path / "shared.nclite"
        create_dataset(path, var_name="v", data=stress_data()).close()

        with QueryService(workers=4, map_workers=2, reduce_workers=2) as svc:
            session = svc.open_dataset("shared", str(path))
            # the shared session really is the PR-9 zero-copy read path
            assert session.snapshot()["mmap"] is True

            outcome = StressDriver(svc).run_batch(STRESS_MATRIX)
            assert outcome.all_done, outcome.mismatches()
            assert outcome.all_identical, outcome.mismatches()
            assert len(outcome.results) == 16
            # every job ran (no silent drops), ids all distinct
            assert len(set(outcome.job_ids)) == 16
            assert sorted(outcome.dispatch_order) == sorted(outcome.job_ids)

    def test_repeated_batch_hits_plan_cache_100_percent(self, tmp_path):
        path = tmp_path / "shared.nclite"
        create_dataset(path, var_name="v", data=stress_data()).close()
        with QueryService(workers=2, map_workers=2, reduce_workers=2) as svc:
            svc.open_dataset("shared", str(path))
            driver = StressDriver(svc)
            first = driver.run_batch(STRESS_MATRIX[:8])
            assert first.all_identical, first.mismatches()
            second = driver.run_batch(STRESS_MATRIX[:8])
            assert second.all_identical, second.mismatches()
            # identical plan keys over identical content: pure hits
            assert all(r["plan_cache_hit"] for r in second.results)
            snap = svc.plan_cache.snapshot()
            assert snap["hits"] >= 8
            assert second.results[0]["digest"] == first.results[0]["digest"]


class TestQuotas:
    def test_max_active_refuses_excess_submissions(self):
        with service_fixture(
            workers=1,
            start_paused=True,
            default_quota=TenantQuota(max_active=2),
        ) as client:
            client.service.register_array("shared", "v", stress_data())
            client.submit(req())
            client.submit(req())
            with pytest.raises(AdmissionError, match="active"):
                client.submit(req())
            # a different tenant has its own budget
            client.submit(req(tenant="other"))
            # finishing a job frees the slot
            client.service.queue.resume()
            client.service.queue.drain(timeout=60)
            client.submit(req())

    def test_max_jobs_is_a_lifetime_cap(self):
        with service_fixture(
            workers=1, default_quota=TenantQuota(max_jobs=2)
        ) as client:
            client.service.register_array("shared", "v", stress_data())
            client.result(client.submit(req()))
            client.result(client.submit(req()))
            with pytest.raises(AdmissionError, match="job quota"):
                client.submit(req())

    def test_failure_budget_locks_out_a_crashing_tenant(self):
        crash = dict(
            fault_rules=({"task": "map", "fault": "crash", "indices": [0]},),
        )
        with service_fixture(
            workers=1,
            quotas={"flaky": TenantQuota(failure_budget=2)},
        ) as client:
            client.service.register_array("shared", "v", stress_data())
            for _ in range(2):
                doc = client.query(req(tenant="flaky", **crash))
                assert doc["state"] == FAILED
            with pytest.raises(AdmissionError, match="failure budget"):
                client.submit(req(tenant="flaky"))
            # the default tenant is unaffected
            assert client.query(req())["state"] == DONE
            stats = client.stats()["tenants"]["flaky"]
            assert stats["failures"] == 2


class TestPriorityOrdering:
    def test_dispatch_order_is_priority_then_submission(self):
        """With the queue paused during submission and one worker,
        dispatch order is exactly (-priority, submission seq)."""
        with service_fixture(workers=1, start_paused=True) as client:
            svc = client.service
            svc.register_array("shared", "v", stress_data())
            low1 = client.submit(req(priority=0))
            high = client.submit(req(priority=10))
            low2 = client.submit(req(priority=0))
            mid = client.submit(req(priority=5))
            svc.queue.resume()
            for job_id in (low1, high, low2, mid):
                assert client.result(job_id)["state"] == DONE
            assert svc.queue.dispatch_order == [high, mid, low1, low2]


class TestCancellation:
    def test_cancel_queued_job(self):
        with service_fixture(workers=1, start_paused=True) as client:
            client.service.register_array("shared", "v", stress_data())
            job_id = client.submit(req())
            assert client.status(job_id)["state"] == QUEUED
            assert client.cancel(job_id) is True
            client.service.queue.resume()
            doc = client.result(job_id)
            assert doc["state"] == CANCELLED
            assert "records" not in doc
            # cancelling a terminal job is a no-op
            assert client.cancel(job_id) is False

    def test_close_cancels_still_queued_jobs(self):
        service = QueryService(workers=1, start_paused=True)
        service.register_array("shared", "v", stress_data())
        job_id = service.submit(req())
        service.close()
        assert service.status(job_id)["state"] == CANCELLED


class TestRetention:
    """A resident process is bounded by what it keeps of the past: only
    the ``RECENT_JOBS`` most recent results stay whole."""

    def test_only_the_most_recent_results_keep_their_records(self):
        RECENT_JOBS, extra = 256, 5  # service.jobs.RECENT_JOBS, spelled out
        tiny = req(extract=(2, 2), splits=1, reduces=1, engine="serial")
        with service_fixture(workers=1) as client:
            svc = client.service
            svc.register_array(
                "shared", "v", np.arange(16, dtype=np.float64).reshape(4, 4)
            )
            _, digest = oracle_for_request(svc, tiny)
            ids = [client.submit(tiny) for _ in range(RECENT_JOBS + extra)]
            assert svc.queue.drain(timeout=120)

            jobs = [svc.get_job(i) for i in ids]
            holding = [j.id for j in jobs if j.records is not None]
            assert holding == ids[extra:]

            old = client.result(ids[0])
            assert old["state"] == DONE and old["evicted"] is True
            assert "records" not in old
            assert old["digest"] == digest and old["num_records"] == 4
            new = client.result(ids[-1])
            assert "evicted" not in new and len(new["records"]) == 4

            stats = client.stats()
            assert stats["jobs"] == {DONE: RECENT_JOBS + extra}
            assert stats["queue"]["dispatched"] == RECENT_JOBS + extra
            assert svc.queue.dispatch_order == ids[extra:]


class TestDeadlines:
    """A hung map attempt against a wall-clock budget, via the service."""

    HANG = dict(
        fault_rules=({"task": "map", "fault": "hang", "indices": [0],
                      "times": 5},),
        max_attempts=2,
        engine="threaded",
    )

    def test_deadline_fail_mode_fails_the_job(self):
        with service_fixture(workers=1) as client:
            client.service.register_array("shared", "v", stress_data())
            doc = client.query(
                req(deadline=0.2, on_deadline="fail", **self.HANG),
                timeout=60,
            )
            assert doc["state"] == FAILED
            assert "DeadlineExceededError" in doc["error_types"]

    def test_deadline_partial_mode_serves_partial_flag(self):
        with service_fixture(workers=1) as client:
            client.service.register_array("shared", "v", stress_data())
            doc = client.query(
                req(deadline=0.3, on_deadline="partial", **self.HANG),
                timeout=60,
            )
            assert doc["state"] == DONE
            assert doc["partial"] is True
