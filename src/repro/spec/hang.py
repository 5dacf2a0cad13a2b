"""Hang detection: liveness, not just latency.

:class:`HangDetector` generalizes the live plane's
:class:`~repro.obs.live.stragglers.StragglerDetector`.  The straggler
rule compares an attempt's *elapsed runtime* against its peers — it can
only say "slow".  The hang rule compares the attempt's *last heartbeat*
against a fixed staleness budget — it says "silent", which is the
signal speculation actually needs: a task that stopped making progress
(deadlocked reader, blocked fault injection, wedged I/O) produces no
events for the duration rule to piggyback on and may have no completed
peers to define a threshold at all.

Both rules run from the same :meth:`check`, so one background ticker
(see :meth:`StragglerDetector.ticker`) drives both: ``task.straggler``
events for slow-but-alive attempts, ``task.hang`` for stale ones.  Each
attempt is hang-flagged at most once.
"""

from __future__ import annotations

from typing import Any

from repro.obs.live.bus import (
    EV_TASK_FINISH,
    EV_TASK_HANG,
    EV_TASK_HEARTBEAT,
    EV_TASK_START,
    Event,
    EventBus,
)
from repro.obs.live.stragglers import StragglerDetector


class HangDetector(StragglerDetector):
    """Flags in-flight attempts whose heartbeats have gone stale."""

    def __init__(
        self,
        bus: EventBus,
        *,
        hang_timeout: float = 0.5,
        rank: Any | None = None,
        **straggler_kwargs: Any,
    ) -> None:
        if hang_timeout <= 0:
            raise ValueError(
                f"hang_timeout must be positive, got {hang_timeout}"
            )
        super().__init__(bus, **straggler_kwargs)
        self.hang_timeout = hang_timeout
        #: Optional ``rank(kind, index) -> float``: when one check flags
        #: several stale attempts at once, their ``task.hang`` events
        #: publish in descending rank order — the structure-aware twist
        #: that lets the mitigation layer hedge the map blocking the
        #: most pending reduces first.
        self._rank = rank
        # (kind, index, attempt) -> bus time of the last sign of life
        # (task.start or task.heartbeat).
        self._last_seen: dict[tuple[str, int, int], float] = {}
        self._hang_flagged: set[tuple[str, int, int]] = set()

    # ------------------------------------------------------------------ #
    def on_event(self, ev: Event) -> None:
        key = (ev.kind, ev.index, ev.attempt)
        if ev.type == EV_TASK_HEARTBEAT:
            with self._lock:
                self._last_seen[key] = ev.t
            return
        if ev.type == EV_TASK_START:
            with self._lock:
                self._last_seen[key] = ev.t
        super().on_event(ev)
        if ev.type == EV_TASK_FINISH:
            with self._lock:
                self._last_seen.pop(key, None)

    def check(self, now: float | None = None) -> list[Event]:
        """Run the straggler rule, then the staleness rule."""
        if now is None:
            now = self._bus.now()
        published = super().check(now=now)
        to_flag: list[tuple[tuple[str, int, int], float]] = []
        with self._lock:
            for key, started in self._inflight.items():
                if key in self._hang_flagged:
                    continue
                last = self._last_seen.get(key, started)
                stale = now - last
                if stale > self.hang_timeout:
                    self._hang_flagged.add(key)
                    to_flag.append((key, stale))
        if self._rank is not None and len(to_flag) > 1:
            to_flag.sort(
                key=lambda item: self._rank(item[0][0], item[0][1]),
                reverse=True,
            )
        # Publish outside the lock (bus listeners may publish back).
        for (kind, index, attempt), stale in to_flag:
            published.append(
                self._bus.publish(
                    EV_TASK_HANG,
                    kind=kind,
                    index=index,
                    attempt=attempt,
                    at=now,
                    stale=round(stale, 6),
                    timeout=self.hang_timeout,
                )
            )
        return published

    # ------------------------------------------------------------------ #
    @property
    def hangs(self) -> set[tuple[str, int, int]]:
        """(kind, index, attempt) triples hang-flagged so far."""
        with self._lock:
            return set(self._hang_flagged)
