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
* ``workers`` resident engine processes
  (:mod:`repro.service.engine_process`), the **slots**, forked here
  before the service starts its one thread, each ``SCHED_BATCH`` and,
  while there are CPUs enough, on its own share of the service's CPUs;
* per-job namespaced state: every job gets its own engine (and so its
  own ``ShuffleStore``), a unique job name, and its own job-tagged
  :class:`~repro.obs.live.EventBus`/:class:`~repro.obs.live.ProgressTracker`
  feeding the live status endpoint.

The service's one thread runs its event loop (:attr:`QueryService.loop`),
as the paper's Hadoop hands tasks to a node's slots from one scheduler.
A job is a list of **parts**, independent keyblock ranges
(:meth:`SIDRPlan.parts <repro.sidr.planner.SIDRPlan.parts>`), and an
engine process is a slot that runs one part at a time.  Dispatch
(:meth:`QueryService._dispatch`), a loop callback, plans the head of
the queue while a slot is free and sends its parts to free slots: one
part (``parts(1)``, the whole plan), or, under the **lending rule** — a
job dispatched alone, after a job that was alone all its life — as many
as its plan cuts into and slots are free.  Each slot's job pipe is a
reader of the loop, whose callback (:meth:`QueryService._answer`)
receives the part's answer and frees the slot; a job's last part
assembles and finishes it, resolving its ``done`` future, on which the
HTTP front, on the same loop, parks a ``/result``.  A part runs on its
process's one thread; only a request that cannot run without a second
thread gets thread pools
(:func:`~repro.service.engine_process.execution_mode`;
``docs/SERVICE.md``, "Execution model").  A finished job keeps its
result as one packed :class:`~repro.mapreduce.columnar.ResultBlock` —
its parts' bytes spliced, a lone part's as its engine process packed
them, which the binary result body ships as they are — and its digest
is the SHA-256 of those bytes, the verification oracle's own
definition, so every consumer can check byte-identity; the JSON rows
are built from the block's columns on demand, and a job's output never
becomes a record list.
"""

from __future__ import annotations

import asyncio
import os
import threading
import time
from collections import Counter, deque
from typing import Any, NamedTuple

import numpy as np

from repro.arrays.slab import Slab
from repro.arrays.shape import volume
from repro.errors import ReproError
from repro.mapreduce.columnar import ResultBlock, fixed_block_nbytes
from repro.query.language import QueryPlan, StructuralQuery
from repro.query.splits import aligned_slice_splits
from repro.service.api import (
    DONE,
    FAILED,
    AdmissionError,
    EngineProcessError,
    QueryRequest,
    ResultTooLargeError,
    TenantQuota,
    TenantState,
    UnknownJobError,
)
from repro.service.engine_process import (
    EngineConfig,
    EngineProcess,
    Outcome,
    check_result_size,
    deal_cpus,
    digest_and_block,
    failed_outcome,
    merge_progress,
    own_process,
)
from repro.service.jobs import RECENT_JOBS, JobQueue, ServiceJob
from repro.service.plancache import Cached, PlanCache
from repro.service.sessions import DatasetSession, SessionRegistry
from repro.sidr.planner import SIDRPlan, build_plan


def compile_request(req: QueryRequest, session: DatasetSession) -> QueryPlan:
    """``req``'s structural query compiled against ``session``'s metadata."""
    return StructuralQuery(
        variable=req.variable,
        extraction_shape=req.extract,
        operator=req.structural_operator(),
        stride=req.stride,
    ).compile(session.metadata)


def check_fixed_result_size(req: QueryRequest, session: DatasetSession) -> None:
    """Raise :class:`ResultTooLargeError` when ``req``'s block is sure
    to be over the cap: an operator whose rows are of one width has one
    per key of K'_T (:func:`fixed_block_nbytes`).  A ragged block is
    checked after its run; a request that does not compile fails at
    plan time."""
    width = req.structural_operator().value_bytes
    if width is None:
        return
    try:
        space = compile_request(req, session).intermediate_space
    except ReproError:
        return
    check_result_size(fixed_block_nbytes(volume(space), len(space), width))


def build_served_plan(req: QueryRequest, session: DatasetSession) -> SIDRPlan:
    """Cold path of the plan cache: compile + slice + prune + plan,
    and every split's map geometry, so the cached plan is complete.
    Splits are cut on extraction-unit boundaries
    (:func:`~repro.query.splits.aligned_slice_splits`): no instance
    spans two maps.  A prunable operator prunes with the zone map of
    the header the session parsed when it opened."""
    qplan = compile_request(req, session)
    splits = aligned_slice_splits(qplan, num_splits=req.splits)
    zone_map = None
    if req.prune and qplan.operator.prune_predicate() is not None:
        zone_map = session.metadata.zone_map(qplan.variable)
    return build_plan(
        qplan, splits, req.reduces, zone_map=zone_map, prune=req.prune
    ).with_map_geometry()


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
        if workers < 1:
            raise ValueError(f"service needs >= 1 worker, got {workers}")
        self.plan_cache = PlanCache(capacity=plan_cache_capacity)
        self.registry = SessionRegistry(on_invalidate=self.plan_cache.invalidate)
        #: The slots, one job part at a time each: forked before the
        #: service has a thread, a few milliseconds each.  ``map_workers``
        #: and ``reduce_workers`` size the ``execution_mode`` pools.
        config = EngineConfig(
            map_workers=map_workers,
            reduce_workers=reduce_workers,
            events_path=events_path,
        )
        self.engine_config = config
        # No CPUs to deal where the platform has no CPU affinity.
        cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else ()
        self._engines = [
            EngineProcess(config, share) for share in deal_cpus(cpus, workers)
        ]
        #: slot -> the job whose part it runs, and the part's index
        self._busy: dict[int, tuple[_Running, int]] = {}
        #: The service's loop; its one thread runs it from here on.
        self.loop = asyncio.new_event_loop()
        for slot, engine in enumerate(self._engines):
            self.loop.add_reader(engine.connection, self._answer, slot)
        self.queue = JobQueue(self.loop, self._dispatch, start_paused=start_paused)
        self._default_quota = default_quota or TenantQuota()
        self._lock = threading.Lock()
        self._tenants = {
            name: TenantState(quota=quota) for name, quota in (quotas or {}).items()
        }
        self._jobs: dict[str, ServiceJob] = {}
        #: The finished jobs still holding their records, oldest first;
        #: at most ``RECENT_JOBS`` of them.
        self._with_records: deque[ServiceJob] = deque()
        self._seq = 0
        #: Audit-log (``serve --events``) lines the engines failed to write.
        self._event_write_errors = 0
        self._started_at = time.time()
        self._closed = False
        self._thread = threading.Thread(
            target=self.loop.run_forever, name="svc-loop", daemon=True
        )
        self._thread.start()

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
        # Unknown datasets are refused at admission, not at run time;
        # so is a result that cannot be sent.
        check_fixed_result_size(request, self.registry.get(request.dataset))
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
            job = ServiceJob(job_id, request, self._seq, self.loop.create_future())
            self._jobs[job_id] = job
        job.on_finish = self._note_finished
        self.queue.submit(job)
        return job_id

    def _note_finished(self, job: ServiceJob) -> None:
        self.queue.finished(job)
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

    def uptime(self) -> float:
        """Seconds since the service started: ``/healthz``'s answer, no
        walk over jobs or engine processes."""
        return time.time() - self._started_at

    def stats(self) -> dict[str, Any]:
        with self._lock:
            tenants = {
                name: state.snapshot() for name, state in self._tenants.items()
            }
            states: dict[str, int] = {}
            for job in self._jobs.values():
                states[job.state] = states.get(job.state, 0) + 1
        return {
            "uptime": self.uptime(),
            "plan_cache": self.plan_cache.snapshot(),
            "queue": {**self.queue.snapshot(), "workers": len(self._engines)},
            "tenants": tenants,
            "jobs": states,
            "datasets": self.registry.snapshot(),
            # Audit-log events lost to serialization or I/O errors.
            "event_write_errors": self._event_write_errors,
            "engines": [engine.snapshot() for engine in self._engines],
            "process": own_process(),
            # The lending rule: would a job dispatched now, alone, run
            # in parts on the free slots?
            "lending": self.queue.lending,
        }

    def close(self) -> None:
        """Stop the service (from any thread but its own): on the loop,
        queued jobs end cancelled, running ones fail typed, every engine
        process is reaped and the rest (HTTP connections) is cancelled;
        then the loop and its thread end.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        asyncio.run_coroutine_threadsafe(self._shut_down(), self.loop).result()
        self.loop.call_soon_threadsafe(self.loop.stop)
        self._thread.join()
        self.loop.run_until_complete(self.loop.shutdown_default_executor())
        self.loop.close()
        self.registry.close_all()

    async def _shut_down(self) -> None:
        self.queue.shutdown()
        for engine in self._engines:
            self.loop.remove_reader(engine.connection)
        for slot, (running, _) in self._busy.items():
            self._engines[slot].stop(timeout=0.0)
            self._end(running.job, failed_outcome(EngineProcessError(
                "the service shut down while the job ran"
            )))
        for engine in self._engines:
            engine.stop()
        others = asyncio.all_tasks() - {asyncio.current_task()}
        for task in others:
            task.cancel()
        await asyncio.gather(*others, return_exceptions=True)

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Execution (loop callbacks; parts run in engine processes)
    # ------------------------------------------------------------------ #
    def plan(
        self, req: QueryRequest, session: DatasetSession
    ) -> tuple[Cached, bool]:
        """``(entry, hit)``: the request's plan and its pickled bytes
        from the cache, built on a miss."""
        return self.plan_cache.get_or_build(
            session.name,
            session.digest,
            req.plan_key(),
            lambda: build_served_plan(req, session),
        )

    def _dispatch(self) -> None:
        """Start the head of the queue while a slot is free: a loop
        callback, scheduled by the queue's ``submit`` and ``resume`` and
        run after every answer."""
        while len(self._busy) < len(self._engines):
            popped = self.queue.pop()
            if popped is None:
                return
            self._start(*popped)

    def _start(self, job: ServiceJob, alone: bool) -> None:
        """Plan ``job`` (a cold plan is built here, on the loop) and
        send its parts to the free slots: one part, or, when the lending
        rule holds (``alone``), as many as the plan cuts into and slots
        are free.  The job's record of its parts is its live
        ``progress``."""
        req = job.request
        try:
            session = self.registry.get(req.dataset)
            t0 = time.perf_counter()
            (plan, data), hit = self.plan(req, session)
            plan_seconds = time.perf_counter() - t0
        except Exception as exc:  # fails the job, not the service
            self._end(job, failed_outcome(exc))
            return
        free = [s for s in range(len(self._engines)) if s not in self._busy]
        parts = plan.parts(len(free) if alone else 1)
        engines = [self._engines[slot] for slot in free[:len(parts)]]
        running = _Running(job, plan, engines, [None] * len(parts))
        with job.lock:
            job.plan_cache_hit = hit
            job.plan_seconds = plan_seconds
            job.parts = len(parts)
            job.progress = running
        for i, (slot, engine, part) in enumerate(zip(free, engines, parts)):
            if not engine.alive():  # it died between jobs
                self._respawn(slot)
            try:
                engine.send(job.id, req, session, data, part)
            except EngineProcessError as exc:
                self._respawn(slot)
                self._ended(running, i, failed_outcome(exc))
            else:
                self._busy[slot] = (running, i)

    def _answer(self, slot: int) -> None:
        """The reader of ``slot``'s job pipe: its part's answer ends the
        part, frees the slot and dispatches again.  A pipe at EOF is a
        dead process, replaced here, busy or not."""
        try:
            out = self._engines[slot].receive()
        except EngineProcessError as exc:  # it died: failed typed, replaced
            self._respawn(slot)
            out = failed_outcome(exc)
        busy = self._busy.pop(slot, None)
        if busy is not None:
            self._ended(*busy, out)
        self._dispatch()

    def _respawn(self, slot: int) -> None:
        """Replace ``slot``'s process, its new pipe watched before the
        slot takes another part."""
        engine = self._engines[slot]
        self.loop.remove_reader(engine.connection)
        engine.respawn()
        self.loop.add_reader(engine.connection, self._answer, slot)

    def _ended(self, running: "_Running", part: int, out: Outcome) -> None:
        """Part ``part`` of a job ended with ``out``: the job ends with
        its last part."""
        running.outcomes[part] = out
        if any(o is None for o in running.outcomes):
            return
        try:
            records, out = _assemble(running)
        except Exception as exc:  # fails the job, not the service
            records, out = None, failed_outcome(exc)
        self._end(running.job, out, records)

    def _end(
        self, job: ServiceJob, out: Outcome, records: ResultBlock | None = None
    ) -> None:
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


class _Running(NamedTuple):
    """A dispatched job: its parts' engine processes, and an outcome per
    part, ``None`` while it runs.  Its :meth:`snapshot` is the job's
    live ``progress``."""

    job: ServiceJob
    plan: SIDRPlan
    engines: list[EngineProcess]
    outcomes: list[Outcome | None]

    def snapshot(self) -> dict[str, Any] | None:
        """The job's progress: a running part's asked of its engine
        process, an ended part's its last snapshot, merged under the
        job's task totals (:func:`merge_progress`)."""
        return merge_progress(
            [
                engine.progress(self.job.id) if out is None else out.progress
                for engine, out in zip(self.engines, self.outcomes)
            ],
            len(self.plan.splits), self.plan.num_reduce_tasks,
        )


def _assemble(running: _Running) -> tuple[ResultBlock | None, Outcome]:
    """A job's block and outcome from its parts' outcomes, in keyblock
    order, once every part has ended — one path for any number of
    parts.  The first part that failed fails the job.  Else their
    blocks laid end to end — their bytes spliced, not repacked, and a
    lone part's passed through untouched
    (:meth:`ResultBlock.concatenate`) — are its block, failed over the
    result cap (:func:`check_result_size`, on its own length) and else
    digested here, once.  Counters add up, and ``run_seconds`` is the
    longest part's."""
    outcomes = running.outcomes
    progress = running.snapshot()  # every part's last: no engine is asked
    write_errors = sum(o.event_write_errors for o in outcomes)
    out = next((o for o in outcomes if o.state != DONE), None)
    records = None
    if out is None:
        block = ResultBlock.concatenate(
            [ResultBlock.from_packed(o.block) for o in outcomes]
        )
        try:
            check_result_size(len(block.to_bytes()))
        except ResultTooLargeError as exc:
            out = failed_outcome(exc)
    if out is None:
        digest, records = digest_and_block(block)
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
    return records, out._replace(progress=progress, event_write_errors=write_errors)
