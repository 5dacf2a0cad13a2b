"""Straggler detection over the live event stream.

:class:`StragglerDetector` keeps running per-kind duration statistics
(median and MAD over *completed* attempts of the same kind) and flags
any in-flight task whose elapsed time exceeds a robust threshold::

    threshold = max(k * median,
                    median + k * 1.4826 * MAD,
                    min_seconds)

The ``k * median`` arm is the classic Hadoop speculative-execution rule;
the MAD arm keeps the detector honest when durations are tightly
clustered (a tiny median would otherwise flag everything); the
``min_seconds`` floor suppresses noise on sub-millisecond test tasks.

A flagged task produces, once per attempt, a ``task.straggler`` event
on the bus — visible to the live renderer, the JSONL stream and the
progress tracker's snapshot, and folded by the run's observability into
the ``sched.stragglers.flagged`` counter and a ``task.straggler``
instant on the task's trace track.

Checks run on every ``task.finish`` event and on the renderer's
periodic tick (:meth:`check`) — the tick matters because a genuinely
stuck task generates no events of its own to piggyback on.
"""

from __future__ import annotations

import bisect
import threading
from contextlib import contextmanager
from threading import Lock
from typing import Iterator

from repro.obs.live.bus import (
    EV_TASK_FINISH,
    EV_TASK_START,
    EV_TASK_STRAGGLER,
    Event,
    EventBus,
)


def _median(sorted_values: list[float]) -> float:
    n = len(sorted_values)
    mid = n // 2
    if n % 2:
        return sorted_values[mid]
    return (sorted_values[mid - 1] + sorted_values[mid]) / 2.0


class StragglerDetector:
    """Flags in-flight tasks running far beyond their peers."""

    def __init__(
        self,
        bus: EventBus,
        *,
        k: float = 3.0,
        min_samples: int = 3,
        min_seconds: float = 0.05,
    ) -> None:
        if k <= 1.0:
            raise ValueError(f"straggler multiplier k must be > 1, got {k}")
        self._bus = bus
        self.k = k
        self.min_samples = min_samples
        self.min_seconds = min_seconds
        self._lock = Lock()
        # (kind, index, attempt) -> start time, for every in-flight attempt.
        self._inflight: dict[tuple[str, int, int], float] = {}
        # kind -> sorted completed durations.
        self._durations: dict[str, list[float]] = {}
        self._flagged: set[tuple[str, int, int]] = set()
        self._ticker_stop = threading.Event()
        self._ticker: threading.Thread | None = None
        bus.attach(self.on_event)

    # ------------------------------------------------------------------ #
    def on_event(self, ev: Event) -> None:
        if ev.type == EV_TASK_START:
            with self._lock:
                self._inflight[(ev.kind, ev.index, ev.attempt)] = ev.t
        elif ev.type == EV_TASK_FINISH:
            with self._lock:
                started = self._inflight.pop(
                    (ev.kind, ev.index, ev.attempt), None
                )
                seconds = ev.data.get("seconds")
                if seconds is None and started is not None:
                    seconds = ev.t - started
                if seconds is not None and ev.data.get("status") == "ok":
                    bisect.insort(
                        self._durations.setdefault(ev.kind, []),
                        float(seconds),
                    )
            # A completion shifts the statistics — re-examine the field.
            self.check(now=ev.t)

    def threshold(self, kind: str) -> float | None:
        """Current flagging threshold for ``kind`` (None = not enough
        completed samples yet)."""
        with self._lock:
            return self._threshold_locked(kind)

    def _threshold_locked(self, kind: str) -> float | None:
        durations = self._durations.get(kind)
        if durations is None or len(durations) < self.min_samples:
            return None
        med = _median(durations)
        deviations = sorted(abs(d - med) for d in durations)
        mad = _median(deviations)
        return max(
            self.k * med,
            med + self.k * 1.4826 * mad,
            self.min_seconds,
        )

    def check(self, now: float | None = None) -> list[Event]:
        """Flag every in-flight task past its kind's threshold.

        Safe to call from any thread (the live renderer ticks it).
        Returns the ``task.straggler`` events published by this call.
        """
        if now is None:
            now = self._bus.now()
        to_flag: list[tuple[str, int, int, float, float, float]] = []
        with self._lock:
            thresholds: dict[str, float | None] = {}
            for (kind, index, attempt), started in self._inflight.items():
                if (kind, index, attempt) in self._flagged:
                    continue
                if kind not in thresholds:
                    thresholds[kind] = self._threshold_locked(kind)
                limit = thresholds[kind]
                if limit is None:
                    continue
                elapsed = now - started
                if elapsed > limit:
                    self._flagged.add((kind, index, attempt))
                    med = _median(self._durations[kind])
                    to_flag.append(
                        (kind, index, attempt, elapsed, limit, med)
                    )
        # Publish outside our lock: the bus will call listeners
        # synchronously (including this detector, which ignores
        # task.straggler, and the progress tracker, which records it).
        published: list[Event] = []
        for kind, index, attempt, elapsed, limit, med in to_flag:
            published.append(
                self._bus.publish(
                    EV_TASK_STRAGGLER,
                    kind=kind,
                    index=index,
                    attempt=attempt,
                    at=now,
                    elapsed=round(elapsed, 6),
                    threshold=round(limit, 6),
                    median=round(med, 6),
                )
            )
        return published

    # ------------------------------------------------------------------ #
    # Background ticker
    # ------------------------------------------------------------------ #
    def start_ticker(self, interval: float = 0.05) -> "StragglerDetector":
        """Run :meth:`check` on a daemon thread every ``interval``
        seconds.  A genuinely stuck task emits no events to piggyback a
        check on, so without a ticker (or a live renderer calling
        :meth:`check`) it would only ever be flagged in hindsight.
        """
        if self._ticker is None:
            self._ticker_stop.clear()
            self._ticker = threading.Thread(
                target=self._tick_loop,
                args=(interval,),
                name="obs-straggler-ticker",
                daemon=True,
            )
            self._ticker.start()
        return self

    def _tick_loop(self, interval: float) -> None:
        while not self._ticker_stop.wait(interval):
            self.check()

    def stop_ticker(self) -> None:
        self._ticker_stop.set()
        if self._ticker is not None:
            self._ticker.join(timeout=5.0)
            self._ticker = None

    @contextmanager
    def ticker(self, interval: float = 0.05) -> "Iterator[StragglerDetector]":
        """Exception-safe ticker scope: ``with detector.ticker(): run()``.

        The ticker thread is stopped in a ``finally`` no matter how the
        body exits, so a failed ``run_threaded`` (or a test assertion)
        can never leak a live daemon thread that keeps flagging a job
        that no longer exists.
        """
        self.start_ticker(interval)
        try:
            yield self
        finally:
            self.stop_ticker()

    def close(self) -> None:
        """Stop the ticker and detach from the bus (idempotent)."""
        self.stop_ticker()
        self._bus.detach(self.on_event)

    # ------------------------------------------------------------------ #
    @property
    def flagged(self) -> set[tuple[str, int, int]]:
        """(kind, index, attempt) triples flagged so far."""
        with self._lock:
            return set(self._flagged)

    def samples(self, kind: str) -> int:
        with self._lock:
            return len(self._durations.get(kind, ()))
