"""Service-level test harness.

The pieces tier-1 tests (and the benchmark driver) build on:

* :func:`oracle_for_request` — brute-force ground truth for any
  request, computed completely outside the service path;
* :func:`run_in_engine` — a served job's engine run in the calling
  process, for tests that watch the engine's own objects;
* :class:`StressDriver` — the deterministic concurrency harness: pause
  the queue, submit a whole batch (fixing admission order), resume, and
  wait; every served result is diffed byte-identically against its
  oracle digest, and store isolation holds by construction (one
  engine, and so one ``ShuffleStore``, per job).

Determinism claim: with the queue paused during submission, dispatch
order is a pure function of ``(priority, submission index)`` — no
dependence on submission-thread timing.  The *completion* order of
concurrently running jobs still varies; the harness therefore asserts
on content (digests), never on completion order.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any

from repro.query.language import StructuralQuery
from repro.query.operators import get_operator
from repro.service.api import DONE, QueryRequest
from repro.service.client import InProcessClient
from repro.service.engine_process import Outcome, run_job
from repro.service.service import QueryService
from repro.verify.oracle import oracle_records, records_digest


@contextmanager
def service_fixture(**kwargs: Any):
    """A fresh in-process service + client, torn down on exit."""
    service = QueryService(**kwargs)
    try:
        yield InProcessClient(service)
    finally:
        service.close()


def oracle_for_request(service: QueryService, request: QueryRequest):
    """``(canonical records, digest)`` for a request — brute force over
    the session's full data, sharing no code with the service run path.
    The digest is of the list's byte form (``records_digest``), which is
    what a served job's digest — the SHA-256 of its stored block — must
    equal."""
    session = service.registry.get(request.dataset)
    query = StructuralQuery(
        variable=request.variable,
        extraction_shape=request.extract,
        operator=get_operator(request.operator, threshold=request.threshold),
        stride=request.stride,
    )
    plan = query.compile(session.metadata)
    records = oracle_records(plan, session.full_data(request.variable))
    return records, records_digest(records)


def run_in_engine(
    service: QueryService, request: QueryRequest, **kwargs: Any
) -> Outcome:
    """:func:`~repro.service.engine_process.run_job` — the one function
    an engine process runs — called here, on the service's cached plan
    (built on a miss) and its session, as a job of one part
    (``plan.parts(1)``).  What a test that spies on the engine's objects
    (its bus, its threads, its calls) reads; keyword arguments go to
    ``run_job``.  The outcome carries the part's packed block, not a
    digest: the service digests a job's assembled block."""
    session = service.registry.get(request.dataset)
    (plan, _), _ = service.plan(request, session)
    return run_job(
        "inline", request, session.engine_source(), plan,
        service.engine_config, part=plan.parts(1)[0], **kwargs,
    )


@dataclass
class StressOutcome:
    """One batch's verdict."""

    job_ids: list[str]
    results: list[dict[str, Any]]
    oracle_digests: list[str]
    dispatch_order: list[str]

    @property
    def all_done(self) -> bool:
        return all(r["state"] == DONE for r in self.results)

    @property
    def all_identical(self) -> bool:
        return all(
            r.get("digest") == d
            for r, d in zip(self.results, self.oracle_digests)
        )

    def mismatches(self) -> list[str]:
        out = []
        for r, d in zip(self.results, self.oracle_digests):
            if r["state"] != DONE:
                out.append(f"{r['id']}: state {r['state']} ({r.get('error')})")
            elif r.get("digest") != d:
                out.append(
                    f"{r['id']}: digest {r.get('digest', '?')[:12]} != "
                    f"oracle {d[:12]}"
                )
        return out


class StressDriver:
    """Deterministic batch submission over one shared service."""

    def __init__(self, service: QueryService) -> None:
        self.service = service
        self.client = InProcessClient(service)

    def run_batch(
        self, requests: list[QueryRequest], *, timeout: float = 120.0
    ) -> StressOutcome:
        """Pause, submit all, resume, wait all; oracle-diff every result."""
        oracle_digests = [
            oracle_for_request(self.service, r)[1] for r in requests
        ]
        self.service.queue.pause()
        try:
            job_ids = [self.client.submit(r) for r in requests]
        finally:
            self.service.queue.resume()
        results = [
            self.client.result(job_id, timeout=timeout) for job_id in job_ids
        ]
        return StressOutcome(
            job_ids=job_ids,
            results=results,
            oracle_digests=oracle_digests,
            dispatch_order=self.service.queue.dispatch_order,
        )
