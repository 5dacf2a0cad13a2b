"""Crash-durable event streaming and replay.

:class:`JsonlEventWriter` drains a bus subscription on a daemon thread
and appends one JSON line per event, flushing after every write — if
the process dies mid-job, every event published up to the crash is on
disk (unlike the post-hoc trace export, which only exists after a clean
finish).

:func:`read_events` loads such a file back into :class:`Event` objects
(ready to feed through any fold), and :func:`phase_totals` /
:func:`trace_phase_totals` reduce a stream and an
:class:`~repro.mapreduce.engine.EngineTrace` to the same per-phase
totals — the acceptance check that a ``--events`` JSONL replays to
exactly what the run's trace recorded.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path
from typing import Any

from repro.obs.live.bus import (
    DEFAULT_QUEUE_SIZE,
    EV_BARRIER_FIRE,
    EV_FETCH,
    EV_RECOVERY,
    EV_SPILL_COMMIT,
    EV_TASK_CANCELLED,
    EV_TASK_FINISH,
    EV_TASK_HANG,
    EV_TASK_RETRY,
    EV_TASK_SPECULATE,
    EV_TASK_START,
    EV_TASK_STRAGGLER,
    Event,
    EventBus,
)


class JsonlEventWriter:
    """Streams every bus event to a JSONL file as it happens."""

    def __init__(
        self,
        bus: EventBus,
        path: str | Path,
        *,
        maxsize: int = DEFAULT_QUEUE_SIZE,
        append: bool = False,
    ) -> None:
        self.path = Path(path)
        # ``append`` lets several per-job writers share one stream file
        # (the resident service's audit log): each line carries the
        # publishing bus's job id, and replay filters with
        # ``read_events(path, job=...)``.  Lines are written whole under
        # a lock, so interleaving is per-line, never intra-line.
        # Opened before subscribing: an unwritable path must not leave
        # an undrained subscription behind on the bus.
        self._file = open(self.path, "a" if append else "w", encoding="utf-8")
        self._sub = bus.subscribe(maxsize=maxsize)
        self._written = 0
        #: Events that could not be serialized or written (the stream
        #: keeps draining past them), and the first such exception.
        self.write_errors = 0
        self.first_write_error: Exception | None = None
        self._wlock = threading.Lock()
        self._thread = threading.Thread(
            target=self._drain_loop, name="obs-events-writer", daemon=True
        )
        self._thread.start()

    def _drain_loop(self) -> None:
        while True:
            ev = self._sub.get(timeout=0.2)
            if ev is None:
                if self._sub._closed and not len(self._sub):
                    return
                continue
            self._write(ev)

    def _write(self, ev: Event) -> None:
        with self._wlock:
            if self._file.closed:
                return
            try:
                line = json.dumps(
                    ev.to_json(), separators=(",", ":"), default=_jsonable
                )
                self._file.write(line + "\n")
                # Flush per event: crash durability is the point of the
                # stream (post-hoc export already covers the happy path).
                self._file.flush()
            except (TypeError, ValueError, OSError) as exc:
                # One bad payload or a full disk must not kill the
                # drainer: count it and keep going.
                self._note_error(exc)
                return
            self._written += 1

    def _note_error(self, exc: Exception) -> None:
        self.write_errors += 1
        if self.first_write_error is None:
            self.first_write_error = exc

    @property
    def written(self) -> int:
        with self._wlock:
            return self._written

    @property
    def dropped(self) -> int:
        return self._sub.dropped

    def close(self) -> None:
        """Stop the subscription, drain what is queued, close the file.
        Afterwards ``write_errors`` is final: non-zero means the file is
        missing that many events (``first_write_error`` says why)."""
        self._sub.close()
        self._thread.join(timeout=5.0)
        for ev in self._sub.drain():
            self._write(ev)
        with self._wlock:
            if not self._file.closed:
                try:
                    self._file.close()
                except OSError as exc:
                    self._note_error(exc)

    def __enter__(self) -> "JsonlEventWriter":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


def _jsonable(value: Any) -> Any:
    """``json.dumps`` fallback: numpy scalars (an ``np.int64`` index in
    an event payload) become their Python value."""
    item = getattr(value, "item", None)
    if callable(item):
        return item()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def read_events(path: str | Path, *, job: str | None = None) -> list[Event]:
    """Load a ``--events`` JSONL file back into :class:`Event` objects.

    ``job`` filters an interleaved multi-job stream down to one job's
    events (file order preserved — each per-job bus assigns its own
    ``seq``, so cross-job seq comparison is meaningless, but any one
    job's subsequence is still totally ordered).
    """
    events: list[Event] = []
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            doc = json.loads(line)
            ev = Event(
                seq=doc["seq"],
                t=doc["t"],
                type=doc["type"],
                kind=doc.get("kind", ""),
                index=doc.get("index", -1),
                attempt=doc.get("attempt", 0),
                data=doc.get("data", {}),
                job=doc.get("job", ""),
            )
            if job is not None and ev.job != job:
                continue
            events.append(ev)
    return events


def phase_totals(events: "list[Event]") -> dict[str, Any]:
    """Per-phase totals of a live event stream.

    ``started`` counts task-start events (one per attempt, matching the
    legacy trace's per-attempt ``start`` records); ``finished`` counts
    clean completions only (a failing attempt never records its finish,
    in the stream and the legacy trace alike).
    """
    totals: dict[str, Any] = {
        "map": {"started": 0, "finished": 0},
        "reduce": {"started": 0, "finished": 0},
        "barriers_fired": 0,
        "spills": 0,
        "fetches": 0,
        "retries": 0,
        "recoveries": 0,
        "stragglers": 0,
        "hangs": 0,
        "speculations": 0,
        "cancelled": 0,
    }
    for ev in events:
        if ev.type == EV_TASK_START and ev.kind in totals:
            totals[ev.kind]["started"] += 1
        elif ev.type == EV_TASK_FINISH and ev.kind in totals:
            if ev.data.get("status") == "ok":
                totals[ev.kind]["finished"] += 1
        elif ev.type == EV_BARRIER_FIRE:
            totals["barriers_fired"] += 1
        elif ev.type == EV_SPILL_COMMIT:
            totals["spills"] += 1
        elif ev.type == EV_FETCH:
            totals["fetches"] += 1
        elif ev.type == EV_TASK_RETRY:
            totals["retries"] += 1
        elif ev.type == EV_RECOVERY:
            totals["recoveries"] += 1
        elif ev.type == EV_TASK_STRAGGLER:
            totals["stragglers"] += 1
        elif ev.type == EV_TASK_HANG:
            totals["hangs"] += 1
        elif ev.type == EV_TASK_SPECULATE:
            totals["speculations"] += 1
        elif ev.type == EV_TASK_CANCELLED:
            totals["cancelled"] += 1
    return totals


def trace_phase_totals(trace: Any) -> dict[str, Any]:
    """The same ``started``/``finished`` shape computed from a legacy
    :class:`~repro.mapreduce.engine.EngineTrace` — the post-hoc side of
    the replay comparison."""
    totals: dict[str, Any] = {
        "map": {"started": 0, "finished": 0},
        "reduce": {"started": 0, "finished": 0},
    }
    for ev in trace.events:
        if ev.kind in totals:
            if ev.event == "start":
                totals[ev.kind]["started"] += 1
            elif ev.event == "finish":
                totals[ev.kind]["finished"] += 1
    return totals
