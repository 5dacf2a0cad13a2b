"""Span and metrics folds over the event spine.

Both derive their output from :class:`~repro.obs.live.bus.Event` fields
alone — timestamps come from ``Event.t``, never from a clock read at
delivery — so feeding a recorded stream (``read_events(path)``, or a
simulator timeline replay) through fresh instances reproduces what a
live run recorded.  :class:`~repro.obs.jobobs.JobObservability`, when
``enabled``, attaches the :class:`SpanFold` to the run's bus (task
bodies parent their phase spans under the attempt span it opens, so it
must see each ``task.start`` as it is published) and runs the
:class:`MetricsFold` once over the run's record at finish.  The run's
other readings live beside what they fill (:meth:`Counters.fold
<repro.mapreduce.counters.Counters.fold>`,
:class:`~repro.obs.trace.EngineTrace`, ``JobResult.attempts``).
"""

from __future__ import annotations

from repro.obs.live.bus import (
    EV_BARRIER_FIRE,
    EV_FETCH,
    EV_JOB_FINISH,
    EV_JOB_START,
    EV_RECOVERY,
    EV_SCHED_MAP,
    EV_SCHED_REDUCE,
    EV_SPILL_COMMIT,
    EV_TASK_CANCELLED,
    EV_TASK_FINISH,
    EV_TASK_HANG,
    EV_TASK_RETRY,
    EV_TASK_SPECULATE,
    EV_TASK_START,
    EV_TASK_STRAGGLER,
    Event,
)
from repro.obs.metrics import MetricsRegistry, TIME_BUCKETS
from repro.obs.spans import CAT_BARRIER, CAT_JOB, CAT_TASK, Span, SpanTracer


class SpanFold:
    """The ``job`` span, one task span per attempt, ``barrier.wait``,
    and an instant per decision (retry, speculate, cancel, recovery,
    straggler/hang flag, early start)."""

    def __init__(self, tracer: SpanTracer) -> None:
        self.tracer = tracer
        self.job_span: Span | None = None
        self._open: dict[tuple[str, int, int], Span] = {}
        self._handlers = {
            EV_JOB_START: self._job_start,
            EV_JOB_FINISH: self._job_finish,
            EV_TASK_START: self._task_start,
            EV_TASK_FINISH: self._task_finish,
            EV_BARRIER_FIRE: self._barrier_fire,
            **dict.fromkeys(
                (EV_TASK_RETRY, EV_RECOVERY, EV_TASK_SPECULATE,
                 EV_TASK_CANCELLED, EV_TASK_STRAGGLER, EV_TASK_HANG),
                self._instant,
            ),
        }

    def __call__(self, ev: Event) -> None:
        handler = self._handlers.get(ev.type)
        if handler is not None:
            handler(ev)

    def task_span(self, kind: str, index: int, attempt: int) -> Span | None:
        """The open span of one in-flight attempt (None when there is
        none) — what the attempt's body parents its phase spans to."""
        return self._open.get((kind, index, attempt))

    def _job_start(self, ev: Event) -> None:
        self.job_span = self.tracer.start_span(
            "job", category=CAT_JOB, track="job", at=ev.t,
            args={"name": ev.data.get("name", "")},
        )

    def _job_finish(self, ev: Event) -> None:
        if self.job_span is not None and self.job_span.end is None:
            args = {k: v for k, v in ev.data.items() if k != "name"}
            self.tracer.end_span(self.job_span, at=ev.t, args=args or None)

    def _task_start(self, ev: Event) -> None:
        args = {"index": ev.index}
        if ev.attempt:
            args["attempt"] = ev.attempt
        self._open[(ev.kind, ev.index, ev.attempt)] = self.tracer.start_span(
            ev.kind, parent=self.job_span, category=CAT_TASK,
            track=f"{ev.kind} {ev.index}", at=ev.t, args=args,
        )

    def _task_finish(self, ev: Event) -> None:
        span = self._open.pop((ev.kind, ev.index, ev.attempt), None)
        if span is not None:
            error = ev.data.get("error")
            self.tracer.end_span(
                span, at=ev.t, args={"error": error} if error else None
            )

    def _barrier_fire(self, ev: Event) -> None:
        """The wait runs from ``since`` (default: job start — a reduce
        is logically pending from launch) to the firing, on the reduce's
        track so it abuts the reduce span in a trace viewer."""
        track = f"reduce {ev.index}"
        start = ev.data.get("since")
        if start is None:
            start = self.job_span.start if self.job_span is not None else 0.0
        span = self.tracer.start_span(
            "barrier.wait", parent=self.job_span, category=CAT_BARRIER,
            track=track, at=start, args={"index": ev.index},
        )
        self.tracer.end_span(span, at=ev.t)
        if ev.data.get("early"):
            args = {"index": ev.index}
            if "maps_done" in ev.data:
                args["maps_done"] = ev.data["maps_done"]
            self.tracer.instant(
                "reduce.early_start", parent=self.job_span, track=track,
                at=ev.t, args=args,
            )

    def _instant(self, ev: Event) -> None:
        self.tracer.instant(
            ev.type, parent=self.job_span, track=f"{ev.kind} {ev.index}",
            at=ev.t,
            args={"index": ev.index, "attempt": ev.attempt, **ev.data},
        )


class MetricsFold:
    """The registry metrics that have no ``Counters`` name: shuffle
    spill/fetch and ``sched.*`` counters, the wait/backoff/recovery
    histograms, the inflight and makespan gauges.  (Lifecycle tallies
    are ``Counters`` names, exported into the registry at job finish.)"""

    def __init__(self, metrics: MetricsRegistry) -> None:
        self._m = metrics
        self._job_t0 = 0.0
        # Hot handles resolved once; the rare ones look up on use.
        self._inflight = metrics.gauge("obs.tasks.inflight")
        self._spill_files = metrics.counter("shuffle.spill.files")
        self._spill_records = metrics.counter("shuffle.spill.records")
        self._fetch_conn = metrics.counter("shuffle.fetch.connections")
        self._fetch_empty = metrics.counter("shuffle.fetch.empty")
        self._handlers = {
            EV_JOB_START: self._job_start,
            EV_JOB_FINISH: self._job_finish,
            EV_TASK_START: lambda ev: self._inflight.add(1),
            EV_TASK_FINISH: lambda ev: self._inflight.add(-1),
            EV_SPILL_COMMIT: self._spill_commit,
            EV_FETCH: self._fetch,
            EV_BARRIER_FIRE: self._barrier_fire,
            EV_TASK_RETRY: lambda ev: self._observe(
                "task.retry.backoff", ev.data["backoff"]
            ),
            EV_RECOVERY: lambda ev: self._observe(
                "recovery.seconds", ev.data["seconds"]
            ),
            EV_TASK_STRAGGLER: lambda ev: self._inc("sched.stragglers.flagged"),
            EV_TASK_HANG: lambda ev: self._inc("sched.hangs.flagged"),
            EV_SCHED_REDUCE: self._sched_reduce,
            EV_SCHED_MAP: lambda ev: self._inc("sched.map.scheduled"),
        }

    def __call__(self, ev: Event) -> None:
        handler = self._handlers.get(ev.type)
        if handler is not None:
            handler(ev)

    def _inc(self, name: str, amount: int = 1) -> None:
        self._m.counter(name).inc(amount)

    def _observe(self, name: str, seconds: float) -> None:
        self._m.histogram(name, TIME_BUCKETS).observe(seconds)

    def _job_start(self, ev: Event) -> None:
        self._job_t0 = ev.t

    def _job_finish(self, ev: Event) -> None:
        self._m.gauge("job.makespan.seconds").set(ev.t - self._job_t0)

    def _spill_commit(self, ev: Event) -> None:
        # An empty map still writes its index entry — count it, or spill
        # counters under-report jobs with empty maps.
        self._spill_files.inc(len(ev.data["partitions"]) or 1)
        self._spill_records.inc(ev.data["records"])
        if ev.data["superseded"]:
            self._inc("shuffle.spill.superseded")

    def _fetch(self, ev: Event) -> None:
        self._fetch_conn.inc()
        if ev.data["empty"]:
            self._fetch_empty.inc()

    def _barrier_fire(self, ev: Event) -> None:
        self._observe(
            "barrier.wait.seconds", ev.t - ev.data.get("since", self._job_t0)
        )

    def _sched_reduce(self, ev: Event) -> None:
        self._inc("sched.reduce.scheduled")
        self._inc("sched.maps.unlocked", len(ev.data["unlocked_maps"]))
