"""JobObservability: one run's event bus and metrics registry.

Every run has a bus — the caller's (``bus=``: attaching listeners to it
beforehand is how a caller acts on the run as it happens) or a private
one — and the engine publishes each lifecycle occurrence on it exactly
once.  This object publishes the run's ``job.start`` and ``job.finish``
and so knows where the run's slice of the bus's record begins; every
reading of the run is taken from that slice: at finish :meth:`fold`
fills ``counters`` and, when ``enabled``, ``metrics``; :meth:`spans`
derives the run's spans on demand.  Nothing listens on the bus for it.

Task bodies use one thing here: :meth:`phase`, which publishes a phase
of their attempt as one ``task.phase`` event.  ``enabled=False`` makes
it a no-op and :meth:`spans` empty: the engine's ``observability=False``
mode, and what a served job runs.
"""

from __future__ import annotations

from contextlib import AbstractContextManager, contextmanager
from collections.abc import Iterator
from typing import Any

from repro.obs.folds import MetricsFold
from repro.obs.live.bus import (
    EV_JOB_FINISH,
    EV_JOB_START,
    EV_TASK_PHASE,
    Event,
    EventBus,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import Span, spans


class JobObservability:
    """Bus + metrics for one job run."""

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
        self.metrics = metrics or MetricsRegistry()
        #: ``seq`` of the run's ``job.start``: its slice of the record
        #: begins there.
        self._start = 0

    def phase(
        self, name: str, task: tuple[str, int, int] | None, **data: Any
    ) -> AbstractContextManager[dict[str, Any]]:
        """Phase ``name`` of attempt ``task`` (its ``(kind, index,
        attempt)``, None outside any attempt), published when it closes
        as one ``task.phase`` event carrying ``start`` (the bus clock at
        open), ``error`` if the body raised, and ``data`` with whatever
        the body adds to the yielded dict.  Not ``enabled``: nothing is
        timed or published, and the context is one shared object whose
        ``with`` costs two calls."""
        if not self.enabled:
            return _UNOBSERVED
        return self._published_phase(name, task, data)

    @contextmanager
    def _published_phase(
        self, name: str, task: tuple[str, int, int] | None, data: dict[str, Any]
    ) -> Iterator[dict[str, Any]]:
        kind, index, attempt = task or ("", -1, 0)
        start = self.bus.now()
        try:
            yield data
        except BaseException as exc:
            data["error"] = type(exc).__name__
            raise
        finally:
            self.bus.publish(
                EV_TASK_PHASE, kind=kind, index=index, attempt=attempt,
                name=name, start=start, **data,
            )

    def start(self, **data: Any) -> None:
        """Publish ``job.start``: the run's slice of the record begins
        at it."""
        self._start = self.bus.publish(EV_JOB_START, name=self.job_name, **data).seq

    def finish(self, counters: Any | None = None, **args: Any) -> list[Event]:
        """Publish ``job.finish`` and :meth:`fold` the run's slice of the
        record, which is returned."""
        self.bus.publish(EV_JOB_FINISH, name=self.job_name, **args)
        return self.fold(counters)

    def spans(self) -> list[Span]:
        """The run's spans (:func:`~repro.obs.spans.spans` of its slice
        of the record, from its ``job.start`` to its ``job.finish``);
        none when not ``enabled``."""
        if not self.enabled:
            return []
        events = self.bus.events(since=self._start)
        end = next(
            (i for i, ev in enumerate(events) if ev.type == EV_JOB_FINISH),
            len(events) - 1,
        )
        return spans(events[:end + 1])

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


class _Unobserved:
    """:meth:`JobObservability.phase` when not enabled: entering yields
    a fresh dict for the body to write into, and nothing is kept."""

    __slots__ = ()

    def __enter__(self) -> dict[str, Any]:
        return {}

    def __exit__(self, *exc: object) -> None:
        return None


_UNOBSERVED = _Unobserved()
