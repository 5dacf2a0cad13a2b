"""The engine's flat start/finish trace (``JobResult.trace``).

Predates the span layer and is fed by it: task spans emit the matching
events via :meth:`~repro.obs.jobobs.JobObservability.task`.  Callers
import these names from :mod:`repro.mapreduce.engine`, which re-exports
them.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class TraceEvent:
    """One engine event: logical sequence + wall clock + task identity."""

    seq: int
    wall: float
    kind: str          # "map" | "reduce"
    event: str         # "start" | "finish"
    index: int


class LogicalClock:
    """Deterministic monotonic counter usable as an ``EngineTrace`` clock.

    Each call advances by ``step`` — replacing wall time with logical
    time makes trace ``wall`` fields bit-stable run-to-run, which is
    what the verification explorer's replay comparisons need.
    """

    def __init__(self, step: float = 1.0) -> None:
        self._lock = threading.Lock()
        self._now = 0.0
        self._step = step

    def __call__(self) -> float:
        with self._lock:
            self._now += self._step
            return self._now


class EngineTrace:
    """Append-only, thread-safe event log.

    Since the span layer landed (:mod:`repro.obs`) this is a
    *compatibility bridge*: the engine's task spans feed it start/finish
    events via :meth:`JobObservability.task`, so every historical
    consumer (tests, figures, ``reduce_starts_before_last_map``) keeps
    working while rich traces come from ``JobResult.obs``.

    ``clock`` defaults to wall time; passing a :class:`LogicalClock`
    (or any zero-arg float callable) makes recorded timestamps
    deterministic.
    """

    def __init__(self, clock: Callable[[], float] | None = None) -> None:
        self._lock = threading.Lock()
        self._events: list[TraceEvent] = []
        self._first_seq: dict[tuple[str, str, int], int] = {}
        self._seq = 0
        self._clock = clock or time.perf_counter
        self._t0 = self._clock()

    def record(self, kind: str, event: str, index: int) -> TraceEvent:
        with self._lock:
            ev = TraceEvent(
                seq=self._seq,
                wall=self._clock() - self._t0,
                kind=kind,
                event=event,
                index=index,
            )
            self._events.append(ev)
            self._first_seq.setdefault((kind, event, index), self._seq)
            self._seq += 1
            return ev

    @property
    def events(self) -> list[TraceEvent]:
        with self._lock:
            return list(self._events)

    def seq_of(self, kind: str, event: str, index: int) -> int:
        """Logical sequence number of the first matching event (-1 if
        absent) — an O(1) index lookup, not a scan."""
        with self._lock:
            return self._first_seq.get((kind, event, index), -1)

    def reduce_starts_before_last_map(self) -> int:
        """Number of reduce tasks that started before the final map
        finished — the early-start count Figures 9-11 are built on."""
        events = self.events
        map_finishes = [e.seq for e in events if e.kind == "map" and e.event == "finish"]
        if not map_finishes:
            return 0
        last_map = max(map_finishes)
        return sum(
            1
            for e in events
            if e.kind == "reduce" and e.event == "start" and e.seq < last_map
        )
