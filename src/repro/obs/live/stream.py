"""Crash-durable event streaming and replay.

:class:`JsonlEventWriter` drains a bus's record on a daemon thread and
appends one JSON line per event, flushing after every write — if the
process dies mid-job, every event recorded up to the last drain is on
disk (unlike the post-hoc trace export, which only exists after a clean
finish).  It reads the record from a cursor, so it attaches nothing to
the bus and the job never waits on the file.

:func:`read_events` loads such a file back into :class:`Event` objects
(ready to feed through any fold), and :func:`phase_totals` reduces a
stream to per-phase totals.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path
from typing import Any

from repro.obs.live.bus import (
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
    """Streams a bus's recorded events to a JSONL file as they happen."""

    #: Seconds between drains of the record.
    INTERVAL = 0.05

    def __init__(
        self,
        bus: EventBus,
        path: str | Path,
        *,
        append: bool = False,
    ) -> None:
        self.path = Path(path)
        # ``append`` lets several per-job writers share one stream file
        # (the resident service's audit log): each line carries the
        # publishing bus's job id, and replay filters with
        # ``read_events(path, job=...)``.  Lines are written whole under
        # a lock, so interleaving is per-line, never intra-line.
        self._file = open(self.path, "a" if append else "w", encoding="utf-8")
        self._bus = bus
        #: ``seq`` of the first event not yet written.
        self._cursor = 0
        self._written = 0
        #: Events that could not be serialized or written (the stream
        #: keeps draining past them), and the first such exception.
        self.write_errors = 0
        self.first_write_error: Exception | None = None
        self._wlock = threading.Lock()
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._drain_loop, name="obs-events-writer", daemon=True
        )
        self._thread.start()

    def _drain_loop(self) -> None:
        while not self._stop.wait(self.INTERVAL):
            self._drain()

    def _drain(self) -> None:
        """Write everything recorded since the cursor."""
        with self._wlock:
            events = self._bus.events(since=self._cursor)
            if not events or self._file.closed:
                return
            self._cursor = events[-1].seq + 1
            for ev in events:
                self._write(ev)

    def _write(self, ev: Event) -> None:
        try:
            line = json.dumps(
                ev.to_json(), separators=(",", ":"), default=_jsonable
            )
            self._file.write(line + "\n")
            # Flush per event: crash durability is the point of the
            # stream (post-hoc export already covers the happy path).
            self._file.flush()
        except (TypeError, ValueError, OSError) as exc:
            # One bad payload or a full disk must not kill the drainer:
            # count it and keep going.
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

    def close(self) -> None:
        """Stop the drainer, write what is left, close the file.
        Afterwards ``write_errors`` is final: non-zero means the file is
        missing events (``first_write_error`` says why)."""
        self._stop.set()
        self._thread.join(timeout=5.0)
        self._drain()
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
    job's subsequence is still totally ordered; a job run in parts has
    one bus per part, told apart by :attr:`Event.part`).
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
                part=tuple(doc["part"]) if "part" in doc else None,
            )
            if job is not None and ev.job != job:
                continue
            events.append(ev)
    return events


def phase_totals(events: "list[Event]") -> dict[str, Any]:
    """Per-phase totals of a live event stream.

    ``started`` counts task-start events (one per attempt, matching
    ``EngineTrace``'s per-attempt ``start`` entries); ``finished`` counts
    clean completions only (a failing attempt's ``task.finish`` carries
    another status, and the trace records no finish for it either).
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
