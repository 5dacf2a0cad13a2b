"""Hierarchical, thread-safe span tracing.

A :class:`Span` is a named time interval with an explicit parent — the
observability layer's unit of "what happened when".  Spans nest
job → task → phase: the engine opens one ``job`` span per run, one
``task`` span per map/reduce task (possibly on a pool worker thread),
and ``phase`` spans inside each task (``map.read``, ``reduce.fetch``,
...).  Parenthood is *explicit* — the parent span is passed by hand —
because the engine hops threads between submission and execution, so
implicit context propagation (thread-locals) would mis-attribute spans
run on pool workers.

Timestamps are seconds relative to the tracer's epoch (its creation
time) taken from ``time.perf_counter``.  Every mutating call also
accepts an explicit ``at=`` timestamp so synthetic traces — e.g. the
discrete-event simulator replaying a :class:`~repro.sim.timeline.TaskTimeline`
— can emit the exact same span vocabulary with simulated clocks.

Each span also carries a ``track``: the display lane it belongs to
(``"job"``, ``"map 3"``, ``"reduce 1"``).  The Chrome-trace exporter
maps tracks to ``tid`` values so that phases stack correctly under
their task in Perfetto even though, in serial mode, everything ran on
one real thread.
"""

from __future__ import annotations

import itertools
import threading
import time
from contextlib import contextmanager
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from typing import Any

from repro.errors import ObservabilityError

#: Span categories (the Chrome-trace ``cat`` field).
CAT_JOB = "job"
CAT_TASK = "task"
CAT_PHASE = "phase"
CAT_BARRIER = "barrier"
CAT_INSTANT = "instant"


@dataclass
class Span:
    """One named interval.  ``end is None`` while the span is open."""

    span_id: int
    parent_id: int | None
    name: str
    category: str
    track: str
    start: float
    end: float | None = None
    args: dict[str, Any] = field(default_factory=dict)

    @property
    def finished(self) -> bool:
        return self.end is not None

    @property
    def duration(self) -> float:
        """Elapsed seconds (raises while the span is still open)."""
        if self.end is None:
            raise ObservabilityError(f"span {self.name!r} not finished")
        return self.end - self.start


class SpanTracer:
    """Append-only, thread-safe span store with an internal clock."""

    def __init__(self, clock: Callable[[], float] | None = None) -> None:
        self._lock = threading.Lock()
        self._spans: list[Span] = []
        self._ids = itertools.count()
        if clock is None:
            t0 = time.perf_counter()
            clock = lambda: time.perf_counter() - t0  # noqa: E731
        #: Seconds since the tracer epoch.  A run's tracer is handed its
        #: bus's clock, so spans folded from ``Event.t`` and phase spans
        #: timed here share one timeline.
        self.now = clock

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def start_span(
        self,
        name: str,
        *,
        parent: Span | None = None,
        category: str = CAT_PHASE,
        track: str | None = None,
        at: float | None = None,
        args: dict[str, Any] | None = None,
    ) -> Span:
        """Open a span.  ``track`` defaults to the parent's track."""
        if track is None:
            track = parent.track if parent is not None else name
        span = Span(
            span_id=-1,  # assigned under the lock
            parent_id=parent.span_id if parent is not None else None,
            name=name,
            category=category,
            track=track,
            start=self.now() if at is None else at,
            args=dict(args) if args else {},
        )
        with self._lock:
            span.span_id = next(self._ids)
            self._spans.append(span)
        return span

    def end_span(
        self,
        span: Span,
        *,
        at: float | None = None,
        args: dict[str, Any] | None = None,
    ) -> Span:
        """Close a span (idempotence is an error — spans end once)."""
        end = self.now() if at is None else at
        with self._lock:
            if span.end is not None:
                raise ObservabilityError(f"span {span.name!r} ended twice")
            span.end = max(end, span.start)
            if args:
                span.args.update(args)
        return span

    @contextmanager
    def span(
        self,
        name: str,
        *,
        parent: Span | None = None,
        category: str = CAT_PHASE,
        track: str | None = None,
        args: dict[str, Any] | None = None,
    ) -> Iterator[Span]:
        """Context-manager form; failures are noted in ``args["error"]``."""
        s = self.start_span(
            name, parent=parent, category=category, track=track, args=args
        )
        try:
            yield s
        except BaseException as exc:
            self.end_span(s, args={"error": type(exc).__name__})
            raise
        else:
            self.end_span(s)

    def instant(
        self,
        name: str,
        *,
        parent: Span | None = None,
        track: str | None = None,
        at: float | None = None,
        args: dict[str, Any] | None = None,
    ) -> Span:
        """A zero-duration marker (Chrome-trace ``ph: "i"``)."""
        t = self.now() if at is None else at
        s = self.start_span(
            name, parent=parent, category=CAT_INSTANT, track=track, at=t, args=args
        )
        return self.end_span(s, at=t)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def spans(self) -> list[Span]:
        """Snapshot of every span recorded so far (open ones included)."""
        with self._lock:
            return list(self._spans)

    def finished_spans(self) -> list[Span]:
        return [s for s in self.spans() if s.finished]

    def find(self, name: str) -> list[Span]:
        return [s for s in self.spans() if s.name == name]

    def children_of(self, span: Span) -> list[Span]:
        return [s for s in self.spans() if s.parent_id == span.span_id]

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)
