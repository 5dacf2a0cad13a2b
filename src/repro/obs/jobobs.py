"""JobObservability: one run's event bus, tracer and metrics registry.

Every run has a bus — the caller's (``bus=``: attaching listeners to it
beforehand is how a caller acts on the run as it happens) or a private
one — and the engine publishes each lifecycle occurrence on it exactly
once.  This object publishes the run's ``job.start`` and ``job.finish``
and so knows where the run's slice of the bus's record begins; at
finish it folds that slice into the run's readings.  When ``enabled``
it attaches the :class:`~repro.obs.folds.SpanFold` for the run's
duration and folds :class:`~repro.obs.folds.MetricsFold` into
``metrics`` at finish.  ``enabled=False`` does neither and makes
:meth:`phase` a no-op: the engine's ``observability=False`` mode.

Task bodies use two things here: :meth:`task_span` (the span the fold
opened for their attempt, to parent phases under) and :meth:`phase`.
"""

from __future__ import annotations

from contextlib import contextmanager
from collections.abc import Iterator
from typing import Any

from repro.obs.folds import MetricsFold, SpanFold
from repro.obs.live.bus import EV_JOB_FINISH, EV_JOB_START, Event, EventBus
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import Span, SpanTracer


class JobObservability:
    """Bus + tracer + metrics for one job run."""

    def __init__(
        self,
        job_name: str = "job",
        *,
        enabled: bool = True,
        metrics: MetricsRegistry | None = None,
        bus: EventBus | None = None,
    ) -> None:
        self.job_name = job_name
        self.enabled = enabled
        self.bus = bus or EventBus()
        self.tracer = SpanTracer(clock=self.bus.now)
        self.metrics = metrics or MetricsRegistry()
        self._spans = SpanFold(self.tracer) if enabled else None
        if self._spans is not None:
            self.bus.attach(self._spans)
        #: ``seq`` of the run's ``job.start``: its slice of the record
        #: begins there.
        self._start = 0

    @property
    def job_span(self) -> Span | None:
        """The run's root span (None when disabled or before
        ``job.start``)."""
        return self._spans.job_span if self._spans is not None else None

    def task_span(self, kind: str, index: int, attempt: int = 0) -> Span | None:
        """The span of the in-flight attempt (None when disabled, or
        when the body runs outside any attempt loop)."""
        if self._spans is None:
            return None
        return self._spans.task_span(kind, index, attempt)

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

    def start(self, **data: Any) -> None:
        """Publish ``job.start``: the run's slice of the record begins
        at it."""
        self._start = self.bus.publish(EV_JOB_START, name=self.job_name, **data).seq

    def finish(self, counters: Any | None = None, **args: Any) -> list[Event]:
        """Publish ``job.finish`` (the span fold closes the job span on
        it), stop the span fold, and :meth:`fold` the run's slice of the
        record, which is returned."""
        self.bus.publish(EV_JOB_FINISH, name=self.job_name, **args)
        if self._spans is not None:
            self.bus.detach(self._spans)
        return self.fold(counters)

    def fold(self, counters: Any | None = None) -> list[Event]:
        """Read the run's slice of the record once: its lifecycle
        tallies into ``counters``, and when enabled the registry metrics,
        then the whole ``Counters`` ledger under its own names and the
        bus's health — a listener that raised must show up in the run's
        metrics.  The slice runs from the run's ``job.start`` on."""
        events = self.bus.events(since=self._start)
        if counters is not None:
            counters.fold(events)
        if not self.enabled:
            return events
        metrics = MetricsFold(self.metrics)
        for ev in events:
            metrics(ev)
        if counters is not None:
            for name, value in counters.as_dict().items():
                self.metrics.counter(name).inc(value)
        self.metrics.gauge("obs.bus.listener_errors").set(self.bus.listener_errors)
        return events
