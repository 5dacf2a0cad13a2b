"""Job queue: admission, priorities, deterministic dispatch order.

The queue is deliberately simple and fully deterministic: jobs are
dispatched strictly by ``(-priority, submission sequence)`` — higher
priority first, FIFO within a priority — from a heap guarded by one
condition variable.  It starts no thread.  The service's dispatch
(:meth:`repro.service.service.QueryService._dispatch`), a callback on
the service's event loop, pops the head whenever an engine process, a
slot, is free, and the queue tells it whether the job may run in parts:
the **lending rule**, whose state — which queued or running jobs met
another, and whether the job that finished last met none — is kept
here, beside the heap and the running set it is read from.  ``submit``
and ``resume`` schedule that callback on the loop (:func:`call_soon`);
an idle service costs nothing.

``pause()``/``resume()`` exist for the deterministic concurrency
harness: tests pause the queue, submit a batch (fixing the admission
order), then resume — dispatch order is then a pure function of the
batch, independent of submission-thread timing.

Cancellation: a *queued* job is cancelled by marking it — the
dispatch observes the mark when it pops the job and retires it unsent.
A *running* job is bounded by its request deadline (the engine's
deadline watchdog cancels in-flight attempts cooperatively); the queue
does not preempt running jobs.
"""

from __future__ import annotations

import asyncio
import heapq
import itertools
import threading
import time
from collections import deque
from collections.abc import Callable
from typing import Any

from repro.mapreduce.columnar import ResultBlock
from repro.service.api import (
    CANCELLED,
    QUEUED,
    RUNNING,
    TERMINAL_STATES,
    QueryRequest,
)


#: How much of the past the service keeps whole: the most recent
#: finished jobs whose records stay fetchable (older ones keep their
#: status document and digest), and the tail of the dispatch order.
RECENT_JOBS = 256


def call_soon(loop: asyncio.AbstractEventLoop, callback: Callable[[], None]) -> None:
    """Run ``callback`` on ``loop``: ``call_soon`` on the loop's own
    thread, ``call_soon_threadsafe`` from any other."""
    try:
        here = asyncio.get_running_loop() is loop
    except RuntimeError:  # no loop runs on this thread
        here = False
    (loop.call_soon if here else loop.call_soon_threadsafe)(callback)


class ServiceJob:
    """One submission's full lifecycle record.

    State transitions (guarded by ``lock``): ``queued -> running ->
    done|failed``, or ``queued -> cancelled``, each terminal one made on
    the service's event loop.  It sets ``finished`` — :meth:`wait` is
    how a client thread blocks for a result — and resolves ``done``, a
    future of that loop, which is how a coroutine there waits without a
    thread.
    """

    def __init__(
        self, job_id: str, request: QueryRequest, seq: int, done: asyncio.Future
    ) -> None:
        self.id = job_id
        self.request = request
        self.seq = seq
        self.lock = threading.Lock()
        self.finished = threading.Event()
        self.done = done
        self.state = QUEUED
        self.cancel_requested = False
        self.submitted_at = time.time()
        self.started_at: float | None = None
        self.finished_at: float | None = None
        # Result-side fields, set by the service runner.
        #: The result, in the one form every encoder reads.
        self.records: ResultBlock | None = None
        #: Outlives ``records``, which :meth:`evict_records` drops.
        self.num_records = 0
        self.digest: str | None = None
        self.partial = False
        self.error: str | None = None
        self.error_types: tuple[str, ...] = ()
        self.plan_cache_hit: bool | None = None
        self.plan_seconds: float | None = None
        self.run_seconds: float | None = None
        self.counters: dict[str, int] = {}
        #: Parts the job ran in (``SIDRPlan.parts``), once dispatched.
        self.parts: int | None = None
        #: Live progress: while the job runs, an object whose
        #: ``snapshot()`` reads it (``status()`` embeds the snapshot,
        #: when there is one); the last snapshot alone once it has
        #: finished.
        self.progress: Any | None = None
        #: Called once with the job on every terminal transition (the
        #: service hooks tenant accounting here) — after state is set,
        #: before waiters wake.
        self.on_finish: Callable[["ServiceJob"], None] | None = None

    # ------------------------------------------------------------------ #
    def finish(self, state: str, **fields: Any) -> None:
        """Enter ``state`` (on the service's loop); a job that is
        terminal already stays as it is, so a job is finished — and its
        tenant billed — once."""
        assert state in TERMINAL_STATES
        with self.lock:
            if self.state in TERMINAL_STATES:
                return
            for k, v in fields.items():
                setattr(self, k, v)
            if self.records is not None:
                self.num_records = len(self.records)
            self.state = state
            self.finished_at = time.time()
        if self.on_finish is not None:
            self.on_finish(self)
        self.finished.set()
        self.done.set_result(None)

    def wait(self, timeout: float | None = None) -> bool:
        return self.finished.wait(timeout)

    def evict_records(self) -> None:
        """Drop the records; the status document and digest stay."""
        with self.lock:
            self.records = None

    def status(self) -> dict[str, Any]:
        return self.snapshot()[0]

    def snapshot(self) -> tuple[dict[str, Any], ResultBlock | None]:
        """The status document and the records it describes, from one
        read of the job: a finished job's document says ``"evicted"``
        exactly when the records returned with it are ``None``."""
        with self.lock:
            records = self.records
            doc: dict[str, Any] = {
                "id": self.id,
                "state": self.state,
                "tenant": self.request.tenant,
                "priority": self.request.priority,
                "dataset": self.request.dataset,
                "engine": self.request.engine,
                "submitted_at": self.submitted_at,
                "started_at": self.started_at,
                "finished_at": self.finished_at,
                "partial": self.partial,
                "plan_cache_hit": self.plan_cache_hit,
                "plan_seconds": self.plan_seconds,
                "run_seconds": self.run_seconds,
                "parts": self.parts,
            }
            if self.error is not None:
                doc["error"] = self.error
                doc["error_types"] = list(self.error_types)
            if self.digest is not None:
                doc["digest"] = self.digest
                doc["num_records"] = self.num_records
                if records is None:
                    doc["evicted"] = True
            progress = self.progress
        if progress is not None and not isinstance(progress, dict):
            progress = progress.snapshot()
        if progress is not None:
            doc["progress"] = progress
        return doc, records


class JobQueue:
    """The queued jobs and the running ones, for the service's
    ``dispatch``, a callback on ``loop``: it takes jobs with
    :meth:`pop`, and the queue schedules it when it has one to take."""

    def __init__(
        self, loop: asyncio.AbstractEventLoop, dispatch: Callable[[], None],
    ) -> None:
        self._loop = loop
        self._dispatch = dispatch
        self._cond = threading.Condition()
        self._heap: list[tuple[int, int, ServiceJob]] = []
        self._tick = itertools.count()
        self._paused = False
        self._shutdown = False
        self._running: set[ServiceJob] = set()
        self._dispatched = 0
        #: The lending rule's state: the jobs queued or running that
        #: another queued or running job met, and whether the job that
        #: finished last met none.
        self._shared: set[ServiceJob] = set()
        self._alone = True
        #: Dispatch order of the last ``RECENT_JOBS`` jobs, for tests.
        self._recent: deque[str] = deque(maxlen=RECENT_JOBS)

    # ------------------------------------------------------------------ #
    def submit(self, job: ServiceJob) -> None:
        with self._cond:
            if self._shutdown:
                raise RuntimeError("queue is shut down")
            if self._heap or self._running:
                self._shared.update(entry[2] for entry in self._heap)
                self._shared.update(self._running)
                self._shared.add(job)
            heapq.heappush(
                self._heap, (-job.request.priority, next(self._tick), job)
            )
        call_soon(self._loop, self._dispatch)

    def cancel(self, job: ServiceJob) -> bool:
        """Cancel a queued job: the dispatch retires it unsent.
        Returns False once it is running or already terminal — running
        jobs are bounded by their deadline, not preempted."""
        with job.lock:
            if job.state != QUEUED:
                return False
            job.cancel_requested = True
        return True

    def pause(self) -> None:
        with self._cond:
            self._paused = True

    def resume(self) -> None:
        with self._cond:
            self._paused = False
        call_soon(self._loop, self._dispatch)

    # ------------------------------------------------------------------ #
    def pop(self) -> tuple[ServiceJob, bool] | None:
        """The next job to dispatch, ``running`` from here on, and
        whether it may run in parts (the lending rule: it is alone in
        the service, after a job that was alone all its life); ``None``
        while the queue is empty, paused or shut down.  A job cancelled
        while queued is finished ``cancelled`` instead, and skipped."""
        while True:
            with self._cond:
                if self._shutdown or self._paused or not self._heap:
                    return None
                _, _, job = heapq.heappop(self._heap)
                self._running.add(job)
                self._dispatched += 1
                self._recent.append(job.id)
                alone = self._alone and job not in self._shared
            with job.lock:
                cancelled = job.cancel_requested
                if not cancelled:
                    job.state = RUNNING
                    job.started_at = time.time()
            if not cancelled:
                return job, alone
            job.finish(CANCELLED, error="cancelled before dispatch")

    def finished(self, job: ServiceJob) -> None:
        """``job`` is terminal (:attr:`ServiceJob.on_finish`)."""
        with self._cond:
            self._running.discard(job)
            self._alone = job not in self._shared
            self._shared.discard(job)
            self._cond.notify_all()

    # ------------------------------------------------------------------ #
    def drain(self, timeout: float) -> bool:
        """Block until the queue is empty and no job is running, or
        ``timeout`` seconds pass; whether it emptied."""
        with self._cond:
            return self._cond.wait_for(
                lambda: not (self._heap or self._running), timeout
            )

    def shutdown(self) -> None:
        """Take no job from here on; jobs still queued end as cancelled
        so no client waits forever on a job that will never run.  Runs
        on the loop, as :meth:`QueryService.close` calls it."""
        with self._cond:
            self._shutdown = True
            leftover = [job for _, _, job in self._heap]
            self._heap.clear()
        for job in leftover:
            job.finish(CANCELLED, error="service shut down")

    @property
    def lending(self) -> bool:
        """Would a job dispatched now, alone, run in parts?"""
        return self._alone

    def snapshot(self) -> dict[str, Any]:
        with self._cond:
            return {
                "queued": len(self._heap),
                "running": len(self._running),
                "paused": self._paused,
                "dispatched": self._dispatched,
            }

    @property
    def dispatch_order(self) -> list[str]:
        with self._cond:
            return list(self._recent)
