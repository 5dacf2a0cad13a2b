"""Minimal discrete-event simulation core.

A binary heap of ``(time, seq, callback)`` entries.  ``seq`` breaks time
ties in scheduling order, making every simulation fully deterministic —
a property the variance experiments rely on (all randomness comes from
an explicit seeded RNG, never from event ordering).
"""

from __future__ import annotations

import heapq
from collections.abc import Callable

from repro.errors import SimulationError

#: Events one run may process before it counts as a runaway.
MAX_EVENTS = 50_000_000


class Simulator:
    """Event loop with a monotone virtual clock."""

    def __init__(self) -> None:
        self._now = 0.0
        self._seq = 0
        self._heap: list[tuple[float, int, Callable[[], None]]] = []
        self._running = False

    @property
    def now(self) -> float:
        return self._now

    def schedule(self, delay: float, fn: Callable[[], None]) -> None:
        """Run ``fn`` at ``now + delay``."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        heapq.heappush(self._heap, (self._now + delay, self._seq, fn))
        self._seq += 1

    def schedule_at(self, when: float, fn: Callable[[], None]) -> None:
        """Run ``fn`` at absolute time ``when`` (must not be in the past)."""
        if when < self._now:
            raise SimulationError(
                f"cannot schedule at {when} before now {self._now}"
            )
        heapq.heappush(self._heap, (when, self._seq, fn))
        self._seq += 1

    def run(self) -> float:
        """Drain the event queue; returns the final clock value.  More
        than ``MAX_EVENTS`` events is a runaway simulation."""
        if self._running:
            raise SimulationError("simulator already running")
        self._running = True
        try:
            n = 0
            while self._heap:
                t, _seq, fn = heapq.heappop(self._heap)
                if t < self._now:
                    raise SimulationError(
                        f"causality violation: event at {t} after {self._now}"
                    )
                self._now = t
                fn()
                n += 1
                if n > MAX_EVENTS:
                    raise SimulationError(
                        f"exceeded {MAX_EVENTS} events; runaway simulation"
                    )
        finally:
            self._running = False
        return self._now
