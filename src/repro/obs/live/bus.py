"""EventBus: thread-safe, bounded, non-blocking publish/subscribe.

The bus is the run's **event spine**: every lifecycle occurrence is
published on it exactly once, at its source (the engine's attempt loop
and barrier site, the :class:`~repro.mapreduce.shuffle.ShuffleStore`,
the detectors, the SIDR schedule policy, the simulator's timeline
replay), and everything that reports on a run — spans, registry
metrics, lifecycle ``Counters``, the flat ``EngineTrace``,
``JobResult.attempts``, progress, the JSONL audit, the verify hook log
— is a listener folding that one stream (``docs/OBSERVABILITY.md`` has
the event → source → fold table).  Publishers call
:meth:`EventBus.publish` from hot paths, so the contract is strict:

* **publish never blocks** — a subscriber whose bounded queue is full
  loses the event, and the loss is *counted* (per subscription and in
  the bus-wide ``dropped`` tally, mirrored to the ``obs.events.dropped``
  counter when a metrics registry is attached) rather than back-pressured
  into the engine;
* sequence numbers are assigned and queues appended **under one lock**,
  so every subscription observes the same total order — if event A was
  published strictly before event B (program order, or under a shared
  external lock such as the shuffle store's), A precedes B in every
  queue.  This is the ordering the happens-before tests and the JSONL
  stream rely on;
* synchronous listeners (:meth:`attach`) run *outside* that lock, so a
  listener may itself publish (the straggler detector does); listener
  exceptions are swallowed and counted (``listener_errors``, the first
  one kept as ``first_listener_error``), never propagated into the
  publishing task.  Because listeners run unlocked, two threads'
  listener calls may interleave: a fold that cares about order uses
  ``Event.seq``, never arrival order.

Event vocabulary (see ``docs/OBSERVABILITY.md``): ``job.start``,
``task.start``, ``task.heartbeat``, ``task.finish``, ``task.retry``,
``task.straggler``, ``task.hang``, ``task.speculate``,
``task.cancelled``, ``spill.commit``, ``barrier.fire``,
``reduce.start``, ``fetch``, ``recovery.reexecute``, ``sched.reduce.scheduled``,
``sched.map.scheduled``, ``job.deadline``, ``job.finish``.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any

#: Default per-subscription queue bound.  Event volume scales with task
#: count (a handful of events per attempt), so 64k covers jobs three
#: orders of magnitude beyond the test workloads before dropping.
DEFAULT_QUEUE_SIZE = 65536

#: Event type names (the shared live vocabulary).
EV_JOB_START = "job.start"
EV_JOB_FINISH = "job.finish"
EV_TASK_START = "task.start"
EV_TASK_FINISH = "task.finish"
EV_TASK_RETRY = "task.retry"
EV_TASK_STRAGGLER = "task.straggler"
EV_TASK_HEARTBEAT = "task.heartbeat"
EV_TASK_HANG = "task.hang"
EV_TASK_SPECULATE = "task.speculate"
EV_TASK_CANCELLED = "task.cancelled"
EV_JOB_DEADLINE = "job.deadline"
EV_SPILL_COMMIT = "spill.commit"
EV_BARRIER_FIRE = "barrier.fire"
#: A reduce attempt is about to check its barrier and fetch; ``data``
#: carries the completed-map set it was scheduled with (what the
#: no-early-reduce invariant reads).
EV_REDUCE_START = "reduce.start"
EV_FETCH = "fetch"
EV_RECOVERY = "recovery.reexecute"
EV_SCHED_REDUCE = "sched.reduce.scheduled"
EV_SCHED_MAP = "sched.map.scheduled"


@dataclass(frozen=True)
class Event:
    """One structured lifecycle event.

    ``seq`` is the bus-assigned total-order position; ``t`` is seconds
    since the bus epoch (or the simulated clock for replayed runs).
    ``kind``/``index``/``attempt`` identify the task for task-scoped
    events and are ``""``/``-1``/``0`` for job-scoped ones.
    """

    seq: int
    t: float
    type: str
    kind: str = ""
    index: int = -1
    attempt: int = 0
    data: dict[str, Any] = field(default_factory=dict)
    #: Owning job id for interleaved multi-job streams ("" = unscoped).
    #: Stamped by the bus (``EventBus(job=...)``), so every event a
    #: per-job bus publishes carries its job even when several jobs
    #: append to one JSONL file.
    job: str = ""

    def to_json(self) -> dict[str, Any]:
        doc: dict[str, Any] = {
            "seq": self.seq,
            "t": round(self.t, 6),
            "type": self.type,
        }
        if self.job:
            doc["job"] = self.job
        if self.kind:
            doc["kind"] = self.kind
        if self.index >= 0:
            doc["index"] = self.index
        if self.attempt:
            doc["attempt"] = self.attempt
        if self.data:
            doc["data"] = self.data
        return doc


class Subscription:
    """A bounded event queue owned by one consumer.

    Producers append via the bus; the consumer drains with
    :meth:`drain` (non-blocking snapshot) or :meth:`get` (blocking with
    timeout, for drainer threads).  When the queue is full the newest
    event is dropped and counted — consumers that fall behind lose data,
    never slow the job down.
    """

    def __init__(self, bus: "EventBus", maxsize: int) -> None:
        if maxsize < 1:
            raise ValueError(f"subscription maxsize must be >= 1, got {maxsize}")
        self._bus = bus
        self._maxsize = maxsize
        self._queue: deque[Event] = deque()
        self._cond = threading.Condition()
        self._dropped = 0
        self._closed = False

    # Called by the bus under its publish lock.
    def _offer(self, event: Event) -> bool:
        with self._cond:
            if self._closed:
                return True
            if len(self._queue) >= self._maxsize:
                self._dropped += 1
                return False
            self._queue.append(event)
            self._cond.notify()
            return True

    def get(self, timeout: float | None = None) -> Event | None:
        """Pop the next event, waiting up to ``timeout`` seconds
        (``None`` = wait forever).  Returns ``None`` on timeout or when
        the subscription is closed and drained."""
        with self._cond:
            while not self._queue:
                if self._closed:
                    return None
                if not self._cond.wait(timeout=timeout):
                    return None
            return self._queue.popleft()

    def drain(self) -> list[Event]:
        """Pop everything currently queued (non-blocking)."""
        with self._cond:
            out = list(self._queue)
            self._queue.clear()
            return out

    def close(self) -> None:
        """Stop receiving; wakes any blocked :meth:`get`."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()
        self._bus._unsubscribe(self)

    @property
    def dropped(self) -> int:
        with self._cond:
            return self._dropped

    def __len__(self) -> int:
        with self._cond:
            return len(self._queue)


class EventBus:
    """The publish side.  See the module docstring for the contract."""

    def __init__(
        self,
        *,
        clock: Callable[[], float] | None = None,
        metrics: Any | None = None,
        job: str = "",
    ) -> None:
        self._lock = threading.Lock()
        self._job = job
        self._seq = 0
        self._published = 0
        self._dropped = 0
        self._listener_errors = 0
        self._first_listener_error: BaseException | None = None
        self._subs: list[Subscription] = []
        #: Replaced, never mutated, on attach/detach: publish reads it
        #: without copying.
        self._listeners: tuple[Callable[[Event], None], ...] = ()
        if clock is None:
            t0 = time.perf_counter()
            clock = lambda: time.perf_counter() - t0  # noqa: E731
        self._clock = clock
        # Resolved once; a per-publish registry lookup would put a dict
        # probe on the hot path (same pattern as ShuffleStore).
        self._m_dropped = (
            metrics.counter("obs.events.dropped") if metrics is not None else None
        )
        self._m_published = (
            metrics.counter("obs.events.published") if metrics is not None else None
        )

    # ------------------------------------------------------------------ #
    # Consumer registration
    # ------------------------------------------------------------------ #
    def subscribe(self, maxsize: int = DEFAULT_QUEUE_SIZE) -> Subscription:
        sub = Subscription(self, maxsize)
        with self._lock:
            self._subs.append(sub)
        return sub

    def _unsubscribe(self, sub: Subscription) -> None:
        with self._lock:
            try:
                self._subs.remove(sub)
            except ValueError:
                pass

    def attach(self, listener: Callable[[Event], None]) -> None:
        """Register a synchronous listener called on every publish.

        Listeners run on the *publishing* thread, outside the bus lock;
        they must be cheap and must never block.  A listener may publish
        events of its own.
        """
        with self._lock:
            self._listeners += (listener,)

    def detach(self, listener: Callable[[Event], None]) -> None:
        with self._lock:
            kept = list(self._listeners)
            if listener in kept:
                kept.remove(listener)
                self._listeners = tuple(kept)

    # ------------------------------------------------------------------ #
    # Publish
    # ------------------------------------------------------------------ #
    def publish(
        self,
        type: str,
        *,
        kind: str = "",
        index: int = -1,
        attempt: int = 0,
        at: float | None = None,
        **data: Any,
    ) -> Event:
        """Emit one event; never blocks (see module docstring)."""
        with self._lock:
            event = Event(
                seq=self._seq,
                t=self._clock() if at is None else at,
                type=type,
                kind=kind,
                index=index,
                attempt=attempt,
                data=data,
                job=self._job,
            )
            self._seq += 1
            self._published += 1
            dropped_now = 0
            for sub in self._subs:
                if not sub._offer(event):
                    dropped_now += 1
            self._dropped += dropped_now
            listeners = self._listeners
        if self._m_published is not None:
            self._m_published.inc()
        if dropped_now and self._m_dropped is not None:
            self._m_dropped.inc(dropped_now)
        for fn in listeners:
            try:
                fn(event)
            except Exception as exc:
                with self._lock:
                    self._listener_errors += 1
                    if self._first_listener_error is None:
                        self._first_listener_error = exc
        return event

    # ------------------------------------------------------------------ #
    # Accounting
    # ------------------------------------------------------------------ #
    def now(self) -> float:
        return self._clock()

    @property
    def published(self) -> int:
        with self._lock:
            return self._published

    @property
    def dropped(self) -> int:
        """Total events lost across all subscriptions."""
        with self._lock:
            return self._dropped

    @property
    def listener_errors(self) -> int:
        with self._lock:
            return self._listener_errors

    @property
    def first_listener_error(self) -> BaseException | None:
        """The first exception a listener raised (None if none did) —
        what to look at when ``listener_errors`` is not 0."""
        with self._lock:
            return self._first_listener_error
