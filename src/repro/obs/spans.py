"""Spans: a reading of the run's event record.

A :class:`Span` is a named time interval with an explicit parent — the
unit a trace viewer draws.  Spans nest job → task → phase, and every one
of them is derived from :class:`~repro.obs.live.bus.Event` fields alone
by :func:`spans`: ``job.start``/``job.finish`` bound the ``job`` span,
each attempt's ``task.start``/``task.finish`` bound a ``task`` span
under it, and each ``task.phase`` (published by
:meth:`JobObservability.phase <repro.obs.jobobs.JobObservability.phase>`
when the phase closes, carrying its ``start``) is a ``phase`` span under
its attempt's.  ``barrier.fire`` adds a ``barrier.wait`` span and, when
it fired before the last map, a ``reduce.early_start`` instant; retries,
speculation, cancellations, recoveries and straggler/hang flags are
instants.  So the run's record, its ``--events`` JSONL read back with
``read_events`` and a simulator timeline replayed onto a bus all give
their spans the same way.

Each span also carries a ``track``: the display lane it belongs to
(``"job"``, ``"map 3"``, ``"reduce 1"``).  The Chrome-trace exporter
maps tracks to ``tid`` values so that phases stack correctly under
their task in Perfetto even though, in serial mode, everything ran on
one real thread.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field, replace
from typing import Any

from repro.errors import ObservabilityError
from repro.obs.live.bus import (
    EV_BARRIER_FIRE,
    EV_JOB_FINISH,
    EV_JOB_START,
    EV_RECOVERY,
    EV_TASK_CANCELLED,
    EV_TASK_FINISH,
    EV_TASK_HANG,
    EV_TASK_PHASE,
    EV_TASK_RETRY,
    EV_TASK_SPECULATE,
    EV_TASK_START,
    EV_TASK_STRAGGLER,
    Event,
)

#: Span categories (the Chrome-trace ``cat`` field).
CAT_JOB = "job"
CAT_TASK = "task"
CAT_PHASE = "phase"
CAT_BARRIER = "barrier"
CAT_INSTANT = "instant"

#: Decisions drawn as instants on their task's track.
_INSTANTS = frozenset({
    EV_TASK_RETRY, EV_RECOVERY, EV_TASK_SPECULATE,
    EV_TASK_CANCELLED, EV_TASK_STRAGGLER, EV_TASK_HANG,
})


@dataclass(frozen=True)
class Span:
    """One named interval.  ``end is None`` if the events never closed
    it (an attempt still running when the slice ends)."""

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


def spans(events: Iterable[Event]) -> list[Span]:
    """The spans of one run's events, in the order of the events that
    opened them (a span's id is its position).  An end never precedes
    its start: explicit timestamps may be skewed, durations may not."""
    out: list[Span] = []
    job: int | None = None
    #: The in-flight attempts' task spans.
    attempts: dict[tuple[str, int, int], Span] = {}

    def add(name: str, category: str, track: str, start: float,
            end: float | None, args: dict[str, Any],
            parent: int | None) -> Span:
        span = Span(len(out), parent, name, category, track, start,
                    None if end is None else max(end, start), args)
        out.append(span)
        return span

    def close(span: Span, end: float, args: dict[str, Any]) -> None:
        out[span.span_id] = replace(
            span, end=max(end, span.start), args={**span.args, **args}
        )

    for ev in events:
        data = ev.data
        if ev.type == EV_JOB_START:
            job = add("job", CAT_JOB, "job", ev.t, None,
                      {"name": data.get("name", "")}, None).span_id
        elif ev.type == EV_JOB_FINISH and job is not None:
            close(out[job], ev.t, {k: v for k, v in data.items() if k != "name"})
        elif ev.type == EV_TASK_START:
            args = {"index": ev.index}
            if ev.attempt:
                args["attempt"] = ev.attempt
            attempts[(ev.kind, ev.index, ev.attempt)] = add(
                ev.kind, CAT_TASK, f"{ev.kind} {ev.index}", ev.t, None, args, job
            )
        elif ev.type == EV_TASK_FINISH:
            span = attempts.pop((ev.kind, ev.index, ev.attempt), None)
            if span is not None:
                error = data.get("error")
                close(span, ev.t, {"error": error} if error else {})
        elif ev.type == EV_TASK_PHASE:
            task = attempts.get((ev.kind, ev.index, ev.attempt))
            name = data["name"]
            add(
                name, CAT_PHASE, task.track if task else name, data["start"],
                ev.t, {k: v for k, v in data.items() if k not in ("name", "start")},
                task.span_id if task else None,
            )
        elif ev.type == EV_BARRIER_FIRE:
            # The wait runs from ``since`` (default: job start — a reduce
            # is logically pending from launch) to the firing, on the
            # reduce's track so it abuts the reduce span in a viewer.
            track = f"reduce {ev.index}"
            since = data.get("since")
            if since is None:
                since = out[job].start if job is not None else 0.0
            add("barrier.wait", CAT_BARRIER, track, since, ev.t,
                {"index": ev.index}, job)
            if data.get("early"):
                args = {"index": ev.index}
                if "maps_done" in data:
                    args["maps_done"] = data["maps_done"]
                add("reduce.early_start", CAT_INSTANT, track, ev.t, ev.t,
                    args, job)
        elif ev.type in _INSTANTS:
            add(ev.type, CAT_INSTANT, f"{ev.kind} {ev.index}", ev.t, ev.t,
                {"index": ev.index, "attempt": ev.attempt, **data}, job)
    return out
