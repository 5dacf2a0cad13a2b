"""JobObservability: the per-run bundle of tracer + metrics.

One :class:`JobObservability` is created per engine run (or per
simulated job) and threaded through every task.  It owns:

* a :class:`~repro.obs.spans.SpanTracer` rooted at a single ``job`` span,
* a :class:`~repro.obs.metrics.MetricsRegistry`,
* optionally a legacy ``EngineTrace`` (duck-typed: anything with a
  ``record(kind, event, index)`` method).  The engine's historical flat
  trace is now a *bridge* over the span layer: task spans emit the
  matching start/finish events so every existing consumer — tests,
  figures, ``reduce_starts_before_last_map`` — keeps working unchanged.

``enabled=False`` turns the span/metric layer into cheap no-ops while
still feeding the legacy trace, which is what the engine's
``observability=False`` mode (and the overhead benchmark) uses.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from collections.abc import Iterator
from typing import Any

from repro.obs.live.bus import (
    EV_BARRIER_FIRE,
    EV_JOB_DEADLINE,
    EV_JOB_FINISH,
    EV_JOB_START,
    EV_RECOVERY,
    EV_TASK_CANCELLED,
    EV_TASK_FINISH,
    EV_TASK_RETRY,
    EV_TASK_SPECULATE,
    EV_TASK_START,
    EventBus,
)
from repro.obs.metrics import MetricsRegistry, TIME_BUCKETS
from repro.obs.spans import CAT_BARRIER, CAT_JOB, CAT_TASK, Span, SpanTracer


class JobObservability:
    """Tracer + metrics + legacy-trace bridge for one job run.

    When a live :class:`~repro.obs.live.bus.EventBus` is attached
    (``bus=``), the same lifecycle the spans record is also *published*
    as it happens — task start/finish/retry, barrier fire, recovery,
    job start/finish — independently of ``enabled``: the bus is its own
    opt-in (attaching one states intent to consume the stream), while
    ``enabled`` keeps gating the span/metric recording cost.
    """

    def __init__(
        self,
        job_name: str = "job",
        *,
        enabled: bool = True,
        tracer: SpanTracer | None = None,
        metrics: MetricsRegistry | None = None,
        legacy_trace: Any | None = None,
        start_at: float | None = None,
        bus: EventBus | None = None,
    ) -> None:
        self.job_name = job_name
        self.enabled = enabled
        self.tracer = tracer or SpanTracer()
        self.metrics = metrics or MetricsRegistry()
        self.trace = legacy_trace
        self.bus = bus
        self.job_span: Span | None = None
        # Resolved once: the inflight gauge sits on every task entry/exit.
        self._inflight_gauge = (
            self.metrics.gauge("obs.tasks.inflight") if enabled else None
        )
        if enabled:
            self.job_span = self.tracer.start_span(
                "job",
                category=CAT_JOB,
                track="job",
                at=start_at,
                args={"name": job_name},
            )

    # ------------------------------------------------------------------ #
    # Live stream
    # ------------------------------------------------------------------ #
    def job_started(self, num_maps: int, num_reduces: int) -> None:
        """Announce the job shape on the live stream (no-op without a
        bus).  The engine calls this once per run, before any task."""
        if self.bus is not None:
            self.bus.publish(
                EV_JOB_START,
                name=self.job_name,
                maps=num_maps,
                reduces=num_reduces,
            )

    # ------------------------------------------------------------------ #
    # Span helpers used by the engine
    # ------------------------------------------------------------------ #
    @contextmanager
    def task(self, kind: str, index: int, attempt: int = 0) -> Iterator[Span | None]:
        """A task-attempt span (``map``/``reduce``) on the task's track.

        Also drives the legacy trace: ``start`` on entry, ``finish`` on
        clean exit only — matching the historical engine behaviour where
        a failing task never recorded its finish event.  Retried tasks
        record one ``start`` per attempt; the ``task.attempt`` counter
        tallies every attempt across the job.
        """
        if self.trace is not None:
            self.trace.record(kind, "start", index)
        span = None
        if self.enabled:
            args: dict[str, Any] = {"index": index}
            if attempt:
                args["attempt"] = attempt
            self.metrics.counter("task.attempt").inc()
            span = self.tracer.start_span(
                kind,
                parent=self.job_span,
                category=CAT_TASK,
                track=f"{kind} {index}",
                args=args,
            )
        # Gauge up before the start event publishes: a listener reading
        # the gauge at task.start sees the attempt already counted.
        if self._inflight_gauge is not None:
            self._inflight_gauge.add(1)
        t0 = time.perf_counter()
        if self.bus is not None:
            self.bus.publish(
                EV_TASK_START, kind=kind, index=index, attempt=attempt
            )
        try:
            yield span
        except BaseException as exc:
            if self._inflight_gauge is not None:
                self._inflight_gauge.add(-1)
            if self.bus is not None:
                self.bus.publish(
                    EV_TASK_FINISH,
                    kind=kind,
                    index=index,
                    attempt=attempt,
                    status="failed",
                    error=type(exc).__name__,
                    seconds=round(time.perf_counter() - t0, 6),
                )
            if span is not None:
                self.tracer.end_span(span, args={"error": type(exc).__name__})
            raise
        else:
            if self._inflight_gauge is not None:
                self._inflight_gauge.add(-1)
            if self.bus is not None:
                self.bus.publish(
                    EV_TASK_FINISH,
                    kind=kind,
                    index=index,
                    attempt=attempt,
                    status="ok",
                    seconds=round(time.perf_counter() - t0, 6),
                )
            if span is not None:
                self.tracer.end_span(span)
            if self.trace is not None:
                self.trace.record(kind, "finish", index)

    @contextmanager
    def phase(
        self, name: str, parent: Span | None, **args: Any
    ) -> Iterator[Span | None]:
        """A phase span nested under a task span."""
        if not self.enabled:
            yield None
            return
        with self.tracer.span(name, parent=parent, args=args or None) as s:
            yield s

    def barrier_wait(self, partition: int, *, since: float | None = None) -> Span | None:
        """Record how long reduce ``partition`` waited on its barrier.

        The wait interval runs from ``since`` (default: job start — a
        reduce task is logically pending from the moment the job
        launches) to now; it lands on the reduce's display track so the
        wait abuts the reduce span in a trace viewer.
        """
        # The barrier.fire event publishes before the reduce is
        # submitted (the engine calls this at the firing point), so on
        # the live stream it happens-before the reduce's task.start.
        if self.bus is not None:
            self.bus.publish(EV_BARRIER_FIRE, kind="reduce", index=partition)
        if not self.enabled:
            return None
        now = self.tracer.now()
        start = since
        if start is None:
            start = self.job_span.start if self.job_span is not None else 0.0
        span = self.tracer.start_span(
            "barrier.wait",
            parent=self.job_span,
            category=CAT_BARRIER,
            track=f"reduce {partition}",
            at=start,
            args={"index": partition},
        )
        self.tracer.end_span(span, at=now)
        self.metrics.histogram("barrier.wait.seconds", TIME_BUCKETS).observe(
            now - start
        )
        return span

    def retry_backoff(
        self,
        kind: str,
        index: int,
        attempt: int,
        delay: float,
        *,
        error: str = "",
    ) -> None:
        """Record one retry decision: a ``task.retry`` instant on the
        task's track plus the backoff delay in ``task.retry.backoff``."""
        if self.bus is not None:
            self.bus.publish(
                EV_TASK_RETRY,
                kind=kind,
                index=index,
                attempt=attempt,
                backoff=delay,
                error=error,
            )
        if not self.enabled:
            return
        self.metrics.counter("task.retries").inc()
        self.metrics.histogram("task.retry.backoff", TIME_BUCKETS).observe(delay)
        self.tracer.instant(
            "task.retry",
            parent=self.job_span,
            track=f"{kind} {index}",
            args={
                "index": index,
                "attempt": attempt,
                "backoff": delay,
                "error": error,
            },
        )

    def recovery(
        self, partition: int, maps: "list[int] | tuple[int, ...]", seconds: float
    ) -> None:
        """Record a dependency-aware recovery: reduce ``partition``
        forced re-execution of ``maps`` taking ``seconds`` of work."""
        if self.bus is not None:
            self.bus.publish(
                EV_RECOVERY,
                kind="reduce",
                index=partition,
                maps=sorted(maps),
                seconds=seconds,
            )
        if not self.enabled:
            return
        self.metrics.histogram("recovery.seconds", TIME_BUCKETS).observe(seconds)
        self.tracer.instant(
            "recovery.reexecute",
            parent=self.job_span,
            track=f"reduce {partition}",
            args={
                "index": partition,
                "maps": sorted(maps),
                "seconds": seconds,
            },
        )

    def task_speculate(
        self,
        kind: str,
        index: int,
        attempt: int,
        *,
        of_attempt: int,
        priority: float,
        mode: str,
    ) -> None:
        """Record a speculation decision: a backup ``attempt`` was
        hedged against (``mode="race"``) or scheduled to replace
        (``mode="cancel-retry"``) the flagged ``of_attempt``.
        ``priority`` is the structural criticality that ordered this
        candidate (how many pending reduces the task blocks)."""
        if self.bus is not None:
            self.bus.publish(
                EV_TASK_SPECULATE,
                kind=kind,
                index=index,
                attempt=attempt,
                of=of_attempt,
                priority=round(priority, 4),
                mode=mode,
            )
        if not self.enabled:
            return
        self.metrics.counter("sched.speculations").inc()
        self.tracer.instant(
            "task.speculate",
            parent=self.job_span,
            track=f"{kind} {index}",
            args={
                "index": index,
                "attempt": attempt,
                "of": of_attempt,
                "priority": priority,
                "mode": mode,
            },
        )

    def task_cancelled(
        self, kind: str, index: int, attempt: int, reason: str
    ) -> None:
        """Record a cooperative cancellation (race lost, hang
        mitigation, or deadline) of one task attempt."""
        if self.bus is not None:
            self.bus.publish(
                EV_TASK_CANCELLED,
                kind=kind,
                index=index,
                attempt=attempt,
                reason=reason,
            )
        if not self.enabled:
            return
        self.tracer.instant(
            "task.cancelled",
            parent=self.job_span,
            track=f"{kind} {index}",
            args={"index": index, "attempt": attempt, "reason": reason},
        )

    def deadline_expired(self, deadline: float) -> None:
        """Announce that the job's wall-clock deadline passed and every
        in-flight attempt is being cancelled."""
        if self.bus is not None:
            self.bus.publish(EV_JOB_DEADLINE, deadline=deadline)

    # ------------------------------------------------------------------ #
    def finish(self, **args: Any) -> None:
        """Close the job span and record the makespan gauge."""
        if self.job_span is not None and self.job_span.end is None:
            self.tracer.end_span(self.job_span, args=args or None)
            self.metrics.gauge("job.makespan.seconds").set(self.job_span.duration)
        if self.bus is not None:
            self.bus.publish(EV_JOB_FINISH, name=self.job_name, **args)
