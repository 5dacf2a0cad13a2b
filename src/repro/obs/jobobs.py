"""JobObservability: one run's event bus, tracer and metrics registry.

Every run has a bus — the caller's (``bus=``: attaching consumers to it
beforehand is how a caller watches the run live) or a private one — and
the engine publishes each lifecycle occurrence on it exactly once.  This
object publishes nothing itself except ``job.finish``; when ``enabled``
it attaches the :class:`~repro.obs.folds.SpanFold` and
:class:`~repro.obs.folds.MetricsFold` that turn the stream into
``tracer`` spans and ``metrics``.  ``enabled=False`` attaches neither
and makes :meth:`phase` a no-op: the engine's ``observability=False``
mode.

Task bodies use two things here: :meth:`task_span` (the span the fold
opened for their attempt, to parent phases under) and :meth:`phase`.
"""

from __future__ import annotations

from contextlib import contextmanager
from collections.abc import Iterator
from typing import Any

from repro.obs.folds import MetricsFold, SpanFold
from repro.obs.live.bus import EV_JOB_FINISH, EventBus
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
        self._folds = (self._spans, MetricsFold(self.metrics)) if enabled else ()
        for fold in self._folds:
            self.bus.attach(fold)

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

    def finish(self, counters: Any | None = None, **args: Any) -> None:
        """Publish ``job.finish`` (the span fold closes the job span on
        it), export the run's ledger, and stop folding this bus."""
        self.bus.publish(EV_JOB_FINISH, name=self.job_name, **args)
        self.export(counters)
        for fold in self._folds:
            self.bus.detach(fold)

    def export(self, counters: Any | None) -> None:
        """Finish-time copy into the registry (when enabled): the whole
        ``Counters`` ledger under its own names, and the bus's health —
        a fold that raised, or a subscriber that lost events, must show
        up in the run's metrics."""
        if not self.enabled:
            return
        if counters is not None:
            for name, value in counters.as_dict().items():
                self.metrics.counter(name).inc(value)
        self.metrics.gauge("obs.bus.listener_errors").set(self.bus.listener_errors)
        self.metrics.gauge("obs.bus.dropped").set(self.bus.dropped)
