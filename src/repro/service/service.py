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
* one resident engine process per queue worker
  (:mod:`repro.service.engine_process`), forked here, before the queue
  starts a thread;
* per-job namespaced state: every job gets its own engine (and so its
  own ``ShuffleStore``), a unique job name, and its own job-tagged
  :class:`~repro.obs.live.EventBus`/:class:`~repro.obs.live.ProgressTracker`
  feeding the live status endpoint.

Jobs, not tasks, are the unit of parallelism: a job runs start to finish
in the engine process of the queue worker that popped it — the worker
thread looks the plan up in the cache, sends the job and waits for its
answer — and only a request that cannot run without a second thread
gets per-job thread pools
(:func:`~repro.service.engine_process.execution_mode`; ``docs/SERVICE.md``,
"Execution model").  Jobs of either engine run side by side over one
shared dataset, all on the columnar plane, each on a core of its own.
The one exception is the **lending rule**: a job dispatched while it is
the only job in the service, after a job that was the only one all its
life, borrows every idle worker's engine process and runs one of its
plan's independent keyblock ranges (:meth:`SIDRPlan.parts
<repro.sidr.planner.SIDRPlan.parts>`) on each, at the same time; a lent
engine goes back as soon as its part ends.
A finished job keeps its result as one packed
:class:`~repro.mapreduce.columnar.ResultBlock` — the bytes its engine
process packed, which the binary result body ships as they are — and
its digest is the SHA-256 of those bytes, the verification oracle's own
definition, so every consumer can check byte-identity; the JSON rows
are built from the block's columns on demand, and a job's output never
becomes a record list.
"""

from __future__ import annotations

import threading
import time
from collections import Counter, deque
from multiprocessing.connection import Connection, wait
from typing import Any

import numpy as np

from repro.arrays.slab import Slab
from repro.errors import ReproError
from repro.mapreduce.columnar import ResultBlock
from repro.query.language import StructuralQuery
from repro.query.splits import aligned_slice_splits
from repro.service.api import (
    DONE,
    FAILED,
    AdmissionError,
    EngineProcessError,
    QueryRequest,
    TenantQuota,
    TenantState,
    UnknownJobError,
)
from repro.service.engine_process import (
    EngineConfig,
    EngineProcess,
    Outcome,
    RemoteProgress,
    digest_and_block,
    failed_outcome,
    merge_progress,
)
from repro.service.jobs import RECENT_JOBS, JobQueue, ServiceJob
from repro.service.plancache import PlanCache
from repro.service.sessions import DatasetSession, SessionRegistry
from repro.sidr.planner import SIDRPlan, build_plan, derive_zone_map
from repro.verify.explorer import failure_types


def records_to_json(records: ResultBlock | list) -> list:
    """Canonical records -> JSON-safe rows (key tuples become lists);
    a block's rows are zipped from its two columns."""
    if isinstance(records, ResultBlock):
        return list(
            map(list, zip(records.key_rows.tolist(), records.value_list()))
        )
    return [[list(key), value] for key, value in records]


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
        #: One engine process per queue worker, forked while this
        #: process has no thread of the service's: a few milliseconds
        #: each, outside any request.  ``map_workers`` and
        #: ``reduce_workers`` size the jobs ``execution_mode`` pools;
        #: every other job starts no thread of its own.
        config = EngineConfig(
            map_workers=map_workers,
            reduce_workers=reduce_workers,
            events_path=events_path,
            capacity=plan_cache_capacity,
        )
        self.engine_config = config
        self._engines = [EngineProcess(config) for _ in range(workers)]
        #: ``workers`` jobs run at once, worker ``i`` in ``_engines[i]``.
        self.queue = JobQueue(
            self._run_job, workers=workers, start_paused=start_paused
        )
        self._default_quota = default_quota or TenantQuota()
        self._lock = threading.Lock()
        self._tenants: dict[str, TenantState] = {}
        if quotas:
            for name, quota in quotas.items():
                self._tenants[name] = TenantState(quota=quota)
        self._jobs: dict[str, ServiceJob] = {}
        #: The lending rule's state: jobs submitted and not finished,
        #: and whether the job that finished last was the only one
        #: submitted and not finished all its life (``job.shared``).
        self._active: set[ServiceJob] = set()
        self._alone = True
        #: The finished jobs still holding their records, oldest first;
        #: at most ``RECENT_JOBS`` of them.
        self._with_records: deque[ServiceJob] = deque()
        self._seq = 0
        #: Shared audit stream: every job's events land in one JSONL
        #: file (append mode, one write per line from whichever engine
        #: process runs the job), each line stamped with its job id.
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
            self._active.add(job)
            if len(self._active) > 1:
                for other in self._active:
                    other.shared = True
        job.on_finish = self._note_finished
        self.queue.submit(job)
        return job_id

    def _note_finished(self, job: ServiceJob) -> None:
        evicted = None
        with self._lock:
            self._active.discard(job)
            self._alone = not job.shared
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
            "engines": [engine.snapshot() for engine in self._engines],
            # The lending rule: would a job dispatched now alone borrow
            # the idle engines?
            "lending": self._alone,
        }

    def close(self) -> None:
        """Stop the queue, then stop and reap every engine process."""
        self._closed = True
        self.queue.shutdown()
        for engine in self._engines:
            engine.stop()
        self.registry.close_all()

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Execution (queue worker threads land here; the job runs in the
    # worker's engine process)
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

    def plan(
        self, req: QueryRequest, session: DatasetSession
    ) -> tuple[SIDRPlan, bool]:
        """``(plan, hit)``: the request's plan from the cache, built on
        a miss."""
        return self.plan_cache.get_or_build(
            session.name,
            session.digest,
            req.plan_key(),
            lambda: self._build_plan(req, session),
        )

    def _run_job(self, job: ServiceJob, worker: int) -> None:
        req = job.request
        try:
            session = self.registry.get(req.dataset)
            t0 = time.perf_counter()
            plan, hit = self.plan(req, session)
            plan_seconds = time.perf_counter() - t0
        except ReproError as exc:
            job.finish(
                FAILED,
                error=f"{type(exc).__name__}: {exc}",
                error_types=failure_types(exc),
            )
            return
        with self._lock:
            lend = self._alone and not job.shared
        lent = self.queue.lend() if lend else []
        parts = plan.parts(1 + len(lent)) if lent else ()
        kept = lent[:len(parts) - 1] if len(parts) > 1 else []
        for spare in lent[len(kept):]:
            self.queue.give_back(spare)
        workers = [worker, *kept]
        engines = [self._engines[w] for w in workers]
        progress = RemoteProgress(
            engines, job.id, len(plan.splits), plan.num_reduce_tasks
        )
        with job.lock:
            job.plan_cache_hit = hit
            job.plan_seconds = plan_seconds
            job.parts = len(engines)
            job.progress = progress
        outcomes: list[Outcome | None] = [None] * len(engines)
        waiting: dict[Connection, int] = {}

        def ended(i: int, out: Outcome) -> None:
            outcomes[i] = out
            progress.ended(i, out.progress)
            if i:  # a lent engine goes back as soon as its part ends
                self.queue.give_back(workers[i])

        try:
            for i, engine in enumerate(engines):
                try:
                    part = parts[i] if kept else None
                    engine.send(job.id, req, session, plan, part)
                except EngineProcessError as exc:
                    ended(i, self._lost(engine, exc))
                else:
                    waiting[engine.connection] = i
            while waiting:
                for conn in wait(list(waiting)):
                    i = waiting[conn]
                    try:
                        out = engines[i].receive()
                    except EngineProcessError as exc:
                        out = self._lost(engines[i], exc)
                    if out is not None:
                        del waiting[conn]
                        ended(i, out)
        finally:
            # An error of the service's own left parts unanswered: their
            # processes are replaced, so that no stale answer meets a
            # later job, and every lent worker goes back.
            for i in waiting.values():
                engines[i].respawn()
            for i in range(1, len(engines)):
                if outcomes[i] is None:
                    self.queue.give_back(workers[i])
        self._finish(job, plan, outcomes)

    def _lost(self, engine: EngineProcess, exc: EngineProcessError) -> Outcome:
        """A part whose engine process died: replaced before it runs
        anything else, lent or not, and the part failed typed."""
        if not self._closed:
            engine.respawn()
        return failed_outcome(exc)

    def _finish(
        self, job: ServiceJob, plan: SIDRPlan, outcomes: list[Outcome]
    ) -> None:
        """End ``job`` from its parts' outcomes, in keyblock order.  One
        part's is the job's.  Of several, the first that failed fails
        the job; else their blocks laid end to end — their bytes
        spliced, not repacked (:meth:`ResultBlock.concatenate`) — are
        its block, digested here, once: the bytes of a one-part run.  Counters
        add up, and ``run_seconds`` is the longest part's."""
        if len(outcomes) == 1:
            out = outcomes[0]
            records = None if out.block is None else ResultBlock.from_packed(out.block)
        else:
            progress = merge_progress(
                [o.progress for o in outcomes],
                len(plan.splits), plan.num_reduce_tasks,
            )
            write_errors = sum(o.event_write_errors for o in outcomes)
            out = next((o for o in outcomes if o.state != DONE), None)
            records = None
            if out is None:
                digest, records = digest_and_block(ResultBlock.concatenate(
                    [ResultBlock.from_packed(o.block) for o in outcomes]
                ))
                counters: Counter[str] = Counter()
                for o in outcomes:
                    counters.update(o.counters or {})
                out = Outcome(
                    DONE,
                    digest=digest,
                    counters=dict(counters),
                    partial=any(o.partial for o in outcomes),
                    run_seconds=max(o.run_seconds or 0.0 for o in outcomes),
                )
            out = out._replace(progress=progress, event_write_errors=write_errors)
        if out.event_write_errors:
            with self._lock:
                self._event_write_errors += out.event_write_errors
        job.finish(
            out.state,
            records=records,
            digest=out.digest,
            partial=out.partial,
            run_seconds=out.run_seconds,
            counters=out.counters or {},
            progress=out.progress,
            error=out.error,
            error_types=out.error_types,
        )
