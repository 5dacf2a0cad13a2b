"""Straggler and hang detection: a reading of the run's record.

:class:`StragglerDetector` reads ``task.start``/``task.finish`` off an
:class:`~repro.obs.live.bus.EventBus`'s record from a cursor, keeps
running per-kind duration statistics (median and MAD over *completed*
attempts of the same kind) and flags any in-flight attempt whose
elapsed time exceeds a robust threshold::

    threshold = max(k * median,
                    median + k * 1.4826 * MAD,
                    min_seconds)

The ``k * median`` arm is the classic Hadoop speculative-execution rule;
the MAD arm keeps the detector honest when durations are tightly
clustered (a tiny median would otherwise flag everything); the
``min_seconds`` floor suppresses noise on sub-millisecond test tasks.

Given the run's cancel tokens, the same :meth:`StragglerDetector.check`
also applies the **hang rule**: an in-flight attempt whose token has
seen no checkpoint (:meth:`~repro.spec.CancelToken.check`) for
``hang_timeout`` seconds, counted from its ``task.start``, is silent —
deadlocked reader, blocked fault injection, wedged I/O — which the
duration rule alone cannot say: a silent task may have no completed
peers to define a threshold at all.

Each rule flags an attempt at most once, as a ``task.straggler`` or
``task.hang`` event published into the record — visible to the live
renderer, the JSONL stream and the progress snapshot, and folded into
the ``sched.stragglers.flagged`` / ``sched.hangs.flagged`` counters.
Nothing here listens: a check runs when something calls it — the
ticker (:meth:`StragglerDetector.start_ticker`), whose tick is either
the check itself or the speculation runtime's, which acts on the flags
a check returns.
"""

from __future__ import annotations

import bisect
import threading
from collections.abc import Callable, Mapping
from contextlib import contextmanager
from threading import Lock
from typing import Any, Iterator

from repro.obs.live.bus import (
    EV_TASK_FINISH,
    EV_TASK_HANG,
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
    """Flags in-flight attempts running far beyond their peers, and —
    given the run's cancel tokens — attempts that stopped checkpointing."""

    def __init__(
        self,
        bus: EventBus,
        *,
        k: float = 3.0,
        min_samples: int = 3,
        min_seconds: float = 0.05,
        hang_timeout: float = 0.5,
    ) -> None:
        if k <= 1.0:
            raise ValueError(f"straggler multiplier k must be > 1, got {k}")
        if hang_timeout <= 0:
            raise ValueError(
                f"hang_timeout must be positive, got {hang_timeout}"
            )
        self._bus = bus
        self.k = k
        self.min_samples = min_samples
        self.min_seconds = min_seconds
        self.hang_timeout = hang_timeout
        self._lock = Lock()
        #: ``seq`` of the first record event not yet read.
        self._cursor = 0
        # (kind, index, attempt) -> start time, for every in-flight attempt.
        self._inflight: dict[tuple[str, int, int], float] = {}
        # kind -> sorted completed durations.
        self._durations: dict[str, list[float]] = {}
        self._flagged: set[tuple[str, int, int]] = set()
        self._hung: set[tuple[str, int, int]] = set()
        self._ticker_stop = threading.Event()
        self._ticker: threading.Thread | None = None

    # ------------------------------------------------------------------ #
    def _read_locked(self) -> None:
        """Fold the record's attempt starts and finishes since the cursor."""
        events = self._bus.events(since=self._cursor)
        if not events:
            return
        self._cursor = events[-1].seq + 1
        for ev in events:
            key = (ev.kind, ev.index, ev.attempt)
            if ev.type == EV_TASK_START:
                self._inflight[key] = ev.t
            elif ev.type == EV_TASK_FINISH:
                started = self._inflight.pop(key, None)
                seconds = ev.data.get("seconds")
                if seconds is None and started is not None:
                    seconds = ev.t - started
                if seconds is not None and ev.data.get("status") == "ok":
                    bisect.insort(
                        self._durations.setdefault(ev.kind, []),
                        float(seconds),
                    )

    def threshold(self, kind: str) -> float | None:
        """Current flagging threshold for ``kind`` (None = not enough
        completed samples yet)."""
        with self._lock:
            self._read_locked()
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

    def check(
        self,
        now: float | None = None,
        tokens: Mapping[tuple[str, int, int], Any] | None = None,
    ) -> list[Event]:
        """Flag every in-flight attempt past its kind's threshold and,
        given ``tokens`` (the run's live cancel token per (kind, index,
        attempt)), every one idle for longer than ``hang_timeout``.

        Safe to call from any thread.  Returns the ``task.straggler``
        and ``task.hang`` events published by this call.
        """
        flags: list[tuple[str, tuple[str, int, int], dict[str, float]]] = []
        with self._lock:
            self._read_locked()
            if now is None:
                now = self._bus.now()
            thresholds: dict[str, float | None] = {}
            for key, started in self._inflight.items():
                kind = key[0]
                elapsed = now - started
                if key not in self._flagged:
                    if kind not in thresholds:
                        thresholds[kind] = self._threshold_locked(kind)
                    limit = thresholds[kind]
                    if limit is not None and elapsed > limit:
                        self._flagged.add(key)
                        flags.append((EV_TASK_STRAGGLER, key, {
                            "elapsed": round(elapsed, 6),
                            "threshold": round(limit, 6),
                            "median": round(_median(self._durations[kind]), 6),
                        }))
                token = None if tokens is None else tokens.get(key)
                if token is None or key in self._hung:
                    continue
                # The token was made before the attempt's task.start:
                # idle time counts from whichever came later.
                idle = min(elapsed, token.idle)
                if idle > self.hang_timeout:
                    self._hung.add(key)
                    flags.append((EV_TASK_HANG, key, {
                        "stale": round(idle, 6), "timeout": self.hang_timeout,
                    }))
        # Published outside the lock: a bus listener may stall.
        return [
            self._bus.publish(
                type, kind=kind, index=index, attempt=attempt, at=now, **data
            )
            for type, (kind, index, attempt), data in flags
        ]

    # ------------------------------------------------------------------ #
    # Background ticker
    # ------------------------------------------------------------------ #
    def start_ticker(
        self,
        interval: float = 0.05,
        tick: Callable[[], Any] | None = None,
    ) -> "StragglerDetector":
        """Run ``tick`` (default :meth:`check`) on a daemon thread every
        ``interval`` seconds.  A genuinely stuck task publishes nothing,
        so without a ticker it would only ever be flagged in hindsight.
        """
        if self._ticker is None:
            self._ticker_stop.clear()
            self._ticker = threading.Thread(
                target=self._tick_loop,
                args=(interval, tick or self.check),
                name="obs-straggler-ticker",
                daemon=True,
            )
            self._ticker.start()
        return self

    def _tick_loop(self, interval: float, tick: Callable[[], Any]) -> None:
        while not self._ticker_stop.wait(interval):
            tick()

    def stop_ticker(self) -> None:
        self._ticker_stop.set()
        if self._ticker is not None:
            self._ticker.join(timeout=5.0)
            self._ticker = None

    @contextmanager
    def ticker(
        self,
        interval: float = 0.05,
        tick: Callable[[], Any] | None = None,
    ) -> "Iterator[StragglerDetector]":
        """Exception-safe ticker scope: ``with detector.ticker(): run()``.

        The ticker thread is stopped in a ``finally`` no matter how the
        body exits, so a failed ``run_threaded`` (or a test assertion)
        can never leak a live daemon thread that keeps flagging a job
        that no longer exists.
        """
        self.start_ticker(interval, tick)
        try:
            yield self
        finally:
            self.stop_ticker()

    # ------------------------------------------------------------------ #
    @property
    def flagged(self) -> set[tuple[str, int, int]]:
        """(kind, index, attempt) triples straggler-flagged so far."""
        with self._lock:
            return set(self._flagged)
