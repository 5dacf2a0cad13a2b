"""The engine's flat start/finish trace (``JobResult.trace``): a
reading of the run's recorded events (``task.start`` → ``start``,
``task.finish`` with ``status="ok"`` → ``finish``; a failing attempt
records no finish).  Callers import these names from
:mod:`repro.mapreduce.engine`, which re-exports them.
"""

from __future__ import annotations

import threading
from collections.abc import Iterable
from dataclasses import dataclass

from repro.obs.live.bus import EV_TASK_FINISH, EV_TASK_START, Event


@dataclass(frozen=True)
class TraceEvent:
    """One engine event: logical sequence + wall clock + task identity."""

    seq: int
    wall: float
    kind: str          # "map" | "reduce"
    event: str         # "start" | "finish"
    index: int


class LogicalClock:
    """Deterministic monotonic counter usable as an ``EventBus`` clock.

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
    """The start/finish entries of a run's events, in their order;
    entries take the events' ``seq`` and ``t``, so a deterministic bus
    clock such as :class:`LogicalClock` makes them bit-stable."""

    def __init__(self, events: Iterable[Event] = ()) -> None:
        self.events: list[TraceEvent] = []
        self._first_seq: dict[tuple[str, str, int], int] = {}
        for ev in events:
            if ev.type == EV_TASK_START:
                event = "start"
            elif ev.type == EV_TASK_FINISH and ev.data.get("status") == "ok":
                event = "finish"
            else:
                continue
            self.events.append(TraceEvent(ev.seq, ev.t, ev.kind, event, ev.index))
            self._first_seq.setdefault((ev.kind, event, ev.index), ev.seq)

    def seq_of(self, kind: str, event: str, index: int) -> int:
        """Logical sequence number of the first matching event (-1 if
        absent) — an O(1) index lookup, not a scan."""
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
