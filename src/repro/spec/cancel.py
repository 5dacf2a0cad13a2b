"""Cooperative cancellation and task heartbeats.

:class:`CancelToken` is the engine's one cancellation primitive: a
latched flag plus a reason, set once by whoever cancels first (the
speculation runtime, the hang mitigator, the deadline watchdog) and
*polled* by the task body at cheap checkpoints — between records in the
record-plane readers, between batches in the columnar loop, and inside
blocking fault injections.  Cancellation is cooperative by design: a
task is never killed from outside, it raises
:class:`~repro.errors.TaskCancelledError` out of its own body at the
next checkpoint, which keeps the shuffle store's attempt accounting and
the retry machinery's bookkeeping consistent.

:class:`Heartbeat` is the liveness side of the same contract: a
rate-limited publisher of ``task.heartbeat`` events called from the
same checkpoints, so the :class:`~repro.spec.hang.HangDetector` can
tell a *hung* attempt (stale heartbeat) from a merely *slow* one
(heartbeats flowing, runtime above the straggler threshold).
"""

from __future__ import annotations

import threading
import time
from typing import Any

from repro.errors import TaskCancelledError
from repro.obs.live.bus import EV_TASK_HEARTBEAT

#: Canonical cancellation reasons.  The engine dispatches on these:
#: a superseded loser is dropped silently, a hang-mitigation cancel is
#: retried in place, a deadline cancel aborts the job.
REASON_SUPERSEDED = "superseded"
REASON_HANG = "hang-mitigation"
REASON_DEADLINE = "deadline"


class CancelToken:
    """Latched, reason-carrying cancellation flag (thread-safe).

    The first :meth:`cancel` wins; later calls are no-ops returning
    ``False``.  ``check()`` is the checkpoint primitive — a single
    ``Event.is_set()`` probe on the fast path, raising
    :class:`TaskCancelledError` once cancelled.
    """

    __slots__ = ("_event", "_lock", "_reason")

    def __init__(self) -> None:
        self._event = threading.Event()
        self._lock = threading.Lock()
        self._reason: str = ""

    def cancel(self, reason: str) -> bool:
        """Latch the token.  Returns ``True`` iff this call did it."""
        with self._lock:
            if self._event.is_set():
                return False
            self._reason = reason
            self._event.set()
            return True

    @property
    def cancelled(self) -> bool:
        return self._event.is_set()

    @property
    def reason(self) -> str:
        with self._lock:
            return self._reason

    def check(self) -> None:
        """Raise :class:`TaskCancelledError` if cancelled (else no-op)."""
        if self._event.is_set():
            reason = self.reason
            raise TaskCancelledError(
                f"attempt cancelled ({reason})", reason=reason
            )

    def wait(self, timeout: float | None = None) -> bool:
        """Block until cancelled (or ``timeout``); returns the flag."""
        return self._event.wait(timeout=timeout)


class Heartbeat:
    """Rate-limited ``task.heartbeat`` publisher for one attempt.

    ``beat()`` is called once per record/batch/group from the task
    body's inner loops, so it must stay cheap: without a bus it is a
    no-op; with one, the clock is only probed every ``every`` beats and
    a monotonic-clock gate then limits publishes to one per
    ``interval`` seconds regardless of record rate.  The cost of the
    beat gate is heartbeat granularity: a task producing fewer than
    ``every`` records per ``hang_timeout`` is indistinguishable from a
    hung one — which is safe, because acting on a false hang flag only
    races or re-runs an attempt whose correctness the shuffle store's
    commit window already guarantees.  ``progress`` is a free-running unit count
    (records consumed, batches folded) carried in the event for
    dashboards — the detector only cares that the event arrived at all.
    """

    __slots__ = ("_bus", "_kind", "_index", "_attempt", "_interval",
                 "_next", "_count", "_beats", "_every")

    def __init__(
        self,
        bus: Any | None,
        kind: str,
        index: int,
        attempt: int,
        interval: float = 0.05,
        *,
        every: int = 16,
    ) -> None:
        self._bus = bus
        self._kind = kind
        self._index = index
        self._attempt = attempt
        self._interval = interval
        self._count = 0
        self._beats = 0
        self._every = max(1, every)
        # First probe publishes immediately: a task that enters its
        # loop should announce liveness before a full interval elapses.
        self._next = 0.0

    def beat(self, units: int = 1) -> None:
        if self._bus is None:
            return
        self._count += units
        self._beats += 1
        if self._beats % self._every:
            return
        now = time.monotonic()
        if now < self._next:
            return
        self._next = now + self._interval
        self._bus.publish(
            EV_TASK_HEARTBEAT,
            kind=self._kind,
            index=self._index,
            attempt=self._attempt,
            progress=self._count,
        )

    @property
    def count(self) -> int:
        return self._count
