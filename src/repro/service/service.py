"""QueryService: the resident engine behind the server and clients.

One instance owns the long-lived components a per-call CLI run rebuilds
from scratch:

* a :class:`~repro.service.sessions.SessionRegistry` of open datasets
  (headers + zone maps parsed once, mmap established once);
* a :class:`~repro.service.plancache.PlanCache` keyed on
  ``(dataset digest, canonical query)`` — identical queries skip
  ``build_plan`` entirely, and ``write_slab`` through the service
  invalidates both the plans and (via the on-disk strip + session
  reopen) the zone maps;
* a :class:`~repro.service.jobs.JobQueue` with admission control,
  priorities, and per-tenant quotas/failure budgets;
* per-job namespaced state: every job gets its own engine (and so its
  own ``ShuffleStore``), a unique job name, and its own job-tagged
  :class:`~repro.obs.live.EventBus`/:class:`~repro.obs.live.ProgressTracker`
  feeding the live status endpoint.

Jobs, not tasks, are the unit of parallelism: a job runs start to finish
on the queue worker thread that popped it, and only a request that
cannot run without a second thread gets per-job thread pools
(:func:`execution_mode`; ``docs/SERVICE.md``, "Execution model").  Jobs
of either engine run side by side over one shared dataset, all on the
columnar plane.  A finished job keeps its result as one packed
:class:`~repro.mapreduce.columnar.ResultBlock` — the bytes the binary
result body ships — and its digest is the SHA-256 of those bytes, the
verification oracle's own definition, so every consumer can check
byte-identity; the JSON rows are built from the block's columns on
demand, and a job's output never becomes a record list.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any

import numpy as np

from repro.arrays.slab import Slab
from repro.errors import ReproError
from repro.mapreduce.columnar import ResultBlock
from repro.mapreduce.engine import LocalEngine, RetryPolicy
from repro.obs import (
    EventBus,
    JobObservability,
    JsonlEventWriter,
    ProgressTracker,
)
from repro.query.language import StructuralQuery
from repro.query.splits import aligned_slice_splits
from repro.service.api import (
    DONE,
    FAILED,
    AdmissionError,
    QueryRequest,
    TenantQuota,
    TenantState,
    UnknownJobError,
)
from repro.service.jobs import RECENT_JOBS, JobQueue, ServiceJob
from repro.service.plancache import PlanCache
from repro.service.sessions import DatasetSession, SessionRegistry
from repro.sidr.planner import SIDRPlan, build_plan, derive_zone_map
from repro.verify.explorer import failure_types
from repro.verify.oracle import records_digest


def records_to_json(records: ResultBlock | list) -> list:
    """Canonical records -> JSON-safe rows (key tuples become lists);
    a block's rows are zipped from its two columns."""
    if isinstance(records, ResultBlock):
        return list(
            map(list, zip(records.key_rows.tolist(), records.value_list()))
        )
    return [[list(key), value] for key, value in records]


def digest_and_block(out: ResultBlock) -> tuple[str, ResultBlock]:
    """A served job's output (:meth:`JobResult.all_records`) as what
    the service keeps of it: one packed block and the oracle-grade
    digest, the SHA-256 of that block's buffer — pack, then hash what
    was packed.  The block is never turned into records."""
    block = out.packed()
    return records_digest(block), block


def execution_mode(engine: str, speculate: bool) -> str:
    """The :meth:`LocalEngine.run` mode a request's ``engine`` is served in.

    A served job runs on the inline executor — the queue worker's own
    thread; the queue's workers are the parallelism.  It gets thread
    pools of its own only where it cannot run without a second thread:
    ``threaded`` with ``speculate`` (a hedged backup has to race its
    primary; an explicit ``serial`` keeps the inline executor's
    cancel-and-retry in place).
    """
    if engine == "threaded" and speculate:
        return "threaded"
    return "serial"


class QueryService:
    """The resident query service (in-process API; see also
    :mod:`repro.service.server` for the HTTP front)."""

    def __init__(
        self,
        *,
        workers: int = 2,
        map_workers: int = 4,
        reduce_workers: int = 3,
        plan_cache_capacity: int = 256,
        default_quota: TenantQuota | None = None,
        quotas: dict[str, TenantQuota] | None = None,
        events_path: str | None = None,
        start_paused: bool = False,
    ) -> None:
        self.plan_cache = PlanCache(capacity=plan_cache_capacity)
        self.registry = SessionRegistry(on_invalidate=self.plan_cache.invalidate)
        #: ``workers`` jobs run at once, one queue worker thread each.
        self.queue = JobQueue(
            self._run_job, workers=workers, start_paused=start_paused
        )
        #: Pool sizes of the jobs :func:`execution_mode` pools; every
        #: other job starts no thread of its own.
        self._map_workers = map_workers
        self._reduce_workers = reduce_workers
        self._default_quota = default_quota or TenantQuota()
        self._lock = threading.Lock()
        self._tenants: dict[str, TenantState] = {}
        if quotas:
            for name, quota in quotas.items():
                self._tenants[name] = TenantState(quota=quota)
        self._jobs: dict[str, ServiceJob] = {}
        #: The finished jobs still holding their records, oldest first;
        #: at most ``RECENT_JOBS`` of them.
        self._with_records: deque[ServiceJob] = deque()
        self._seq = 0
        #: Shared audit stream: every job's events land in one JSONL
        #: file (append mode), each line stamped with its job id.
        self._events_path = events_path
        self._event_write_errors = 0
        self._started_at = time.time()
        self._closed = False

    # ------------------------------------------------------------------ #
    # Dataset management
    # ------------------------------------------------------------------ #
    def open_dataset(self, name: str, path: str) -> DatasetSession:
        return self.registry.open_file(name, path)

    def register_array(
        self,
        name: str,
        variable: str,
        data: np.ndarray,
        *,
        tile: tuple[int, ...] | None = None,
        with_zone_map: bool = False,
    ) -> DatasetSession:
        return self.registry.register_array(
            name, variable, data, tile=tile, with_zone_map=with_zone_map
        )

    def write_slab(
        self, name: str, variable: str, corner: tuple[int, ...], data: np.ndarray
    ) -> DatasetSession:
        """Write through the service: strips on-disk zone maps, reopens
        the session (new digest), and drops the dataset's cached plans."""
        slab = Slab(tuple(corner), tuple(data.shape))
        return self.registry.write_slab(name, variable, slab, data)

    # ------------------------------------------------------------------ #
    # Submission / lifecycle
    # ------------------------------------------------------------------ #
    def submit(self, request: QueryRequest) -> str:
        if self._closed:
            raise AdmissionError("service is shut down")
        request.validate()
        # Unknown datasets are refused at admission, not at run time.
        self.registry.get(request.dataset)
        with self._lock:
            tenant = self._tenants.get(request.tenant)
            if tenant is None:
                tenant = TenantState(quota=self._default_quota)
                self._tenants[request.tenant] = tenant
            tenant.check_admission(request.tenant)
            tenant.submitted += 1
            tenant.active += 1
            self._seq += 1
            job_id = f"j{self._seq:05d}"
            job = ServiceJob(job_id, request, self._seq)
            self._jobs[job_id] = job
        job.on_finish = self._note_finished
        self.queue.submit(job)
        return job_id

    def _note_finished(self, job: ServiceJob) -> None:
        evicted = None
        with self._lock:
            tenant = self._tenants.get(job.request.tenant)
            if tenant is not None:
                tenant.active -= 1
                if job.state == FAILED:
                    tenant.failures += 1
            if job.records is not None:
                self._with_records.append(job)
                if len(self._with_records) > RECENT_JOBS:
                    evicted = self._with_records.popleft()
        if evicted is not None:
            evicted.evict_records()

    def get_job(self, job_id: str) -> ServiceJob:
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise UnknownJobError(f"unknown job {job_id!r}")
        return job

    def status(self, job_id: str) -> dict[str, Any]:
        """The live status doc; once the engine has returned, with the
        run's ``counters``."""
        job = self.get_job(job_id)
        doc = job.status()
        if job.counters:
            doc["counters"] = dict(job.counters)
        return doc

    def result_block(
        self, job_id: str, timeout: float | None = None
    ) -> tuple[dict[str, Any], ResultBlock | None]:
        """Block until the job is terminal; its status doc and its
        records as the stored block — ``None`` for a job that has none
        (failed, cancelled) or has none left (older than the
        ``RECENT_JOBS`` most recent results: its doc says ``"evicted":
        true``)."""
        job = self.get_job(job_id)
        if not job.wait(timeout):
            raise TimeoutError(
                f"job {job_id} still {job.state!r} after {timeout}s"
            )
        return job.snapshot()

    def result(self, job_id: str, timeout: float | None = None) -> dict[str, Any]:
        """:meth:`result_block` as one JSON-safe document: the status
        doc, with the block's rows under ``records`` when it has one."""
        doc, block = self.result_block(job_id, timeout)
        if block is not None:
            doc["records"] = records_to_json(block)
        return doc

    def cancel(self, job_id: str) -> bool:
        return self.queue.cancel(self.get_job(job_id))

    def list_jobs(self) -> list[dict[str, Any]]:
        with self._lock:
            jobs = sorted(self._jobs.values(), key=lambda j: j.seq)
        return [j.status() for j in jobs]

    def stats(self) -> dict[str, Any]:
        with self._lock:
            tenants = {
                name: state.snapshot() for name, state in self._tenants.items()
            }
            states: dict[str, int] = {}
            for job in self._jobs.values():
                states[job.state] = states.get(job.state, 0) + 1
        return {
            "uptime": time.time() - self._started_at,
            "plan_cache": self.plan_cache.snapshot(),
            "queue": self.queue.snapshot(),
            "tenants": tenants,
            "jobs": states,
            "datasets": self.registry.snapshot(),
            # Audit-log events lost to serialization or I/O errors.
            "event_write_errors": self._event_write_errors,
        }

    def close(self) -> None:
        self._closed = True
        self.queue.shutdown()
        self.registry.close_all()

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Execution (queue worker threads land here)
    # ------------------------------------------------------------------ #
    def _build_plan(self, req: QueryRequest, session: DatasetSession) -> SIDRPlan:
        """Cold path of the plan cache: compile + slice + prune + plan,
        and every split's map geometry, so the cached plan is complete.
        Splits are cut on extraction-unit boundaries
        (:func:`~repro.query.splits.aligned_slice_splits`): no instance
        spans two maps."""
        query = StructuralQuery(
            variable=req.variable,
            extraction_shape=req.extract,
            operator=req.structural_operator(),
            stride=req.stride,
        )
        qplan = query.compile(session.metadata)
        splits = aligned_slice_splits(qplan, num_splits=req.splits)
        zone_map = None
        if req.prune:
            zone_map = derive_zone_map(qplan, session.engine_source())
        return build_plan(
            qplan, splits, req.reduces, zone_map=zone_map, prune=req.prune
        ).with_map_geometry()

    def _run_job(self, job: ServiceJob) -> None:
        req = job.request
        writer = None
        try:
            session = self.registry.get(req.dataset)
            t0 = time.perf_counter()
            plan, hit = self.plan_cache.get_or_build(
                session.name,
                session.digest,
                req.plan_key(),
                lambda: self._build_plan(req, session),
            )
            plan_seconds = time.perf_counter() - t0
            with job.lock:
                job.plan_cache_hit = hit
                job.plan_seconds = plan_seconds

            job_conf, barrier = plan.configure_job(
                session.engine_source(), name=f"svc-{job.id}"
            )
            if req.deadline is not None:
                job_conf.deadline = req.deadline
                job_conf.on_deadline = req.on_deadline

            # Per-job observability, only what a request can observe: a
            # job-tagged bus so interleaved streams stay separable, a
            # tracker for the status endpoint and the audit writer when
            # serving with ``--events`` — both read the bus's record,
            # so neither listens.  No phases, spans or metrics registry —
            # nothing would ever read them; the counters in the result
            # are the engine's finish-time reading of the same record.
            bus = EventBus(job=job.id)
            obs = JobObservability(job_conf.name, enabled=False, bus=bus)
            with job.lock:
                job.progress = ProgressTracker(bus)
            if self._events_path is not None:
                writer = JsonlEventWriter(bus, self._events_path, append=True)

            engine = LocalEngine(
                map_workers=self._map_workers,
                reduce_workers=self._reduce_workers,
                retry=RetryPolicy(max_attempts=req.max_attempts, backoff_base=0.0),
                faults=req.injection_plan(),
                recovery=req.recovery_model(),
                speculation=req.speculation_policy(),
            )
            t1 = time.perf_counter()
            res = engine.run(
                job_conf, barrier,
                mode=execution_mode(req.engine, req.speculate), obs=obs,
            )
            run_seconds = time.perf_counter() - t1
            digest, block = digest_and_block(res.all_records())
            job.finish(
                DONE,
                records=block,
                digest=digest,
                partial=res.partial,
                run_seconds=run_seconds,
                counters=dict(res.counters.as_dict()),
            )
        except ReproError as exc:
            job.finish(
                FAILED,
                error=f"{type(exc).__name__}: {exc}",
                error_types=failure_types(exc),
            )
        finally:
            if writer is not None:
                writer.close()
                with self._lock:
                    self._event_write_errors += writer.write_errors
