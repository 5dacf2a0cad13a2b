"""EventBus: the run's event record, plus synchronous listeners.

The bus is the run's **event spine**: every lifecycle occurrence is
published on it exactly once, at its source (the engine's attempt loop
and barrier site, the :class:`~repro.mapreduce.shuffle.ShuffleStore`,
the straggler detector, the simulator's timeline replay), and the bus keeps it:
:meth:`EventBus.publish` appends each event to the bus's **record**
under the same lock that assigns its ``seq``, so :meth:`EventBus.events`
is in total order by construction — if event A was published strictly
before event B (program order, or under a shared external lock such as
the shuffle store's), A precedes B in the record.  Everything that only
*reports* on a run — its spans, the registry metrics, lifecycle
``Counters``, the flat ``EngineTrace``, ``JobResult.attempts``,
progress, the JSONL audit, the verify log — is a reading of that record
(``docs/OBSERVABILITY.md`` has the event → reading table), and so is
what acts on a run without having to act on one event: the straggler
and hang detector reads it from a cursor on a ticker.

Listeners (:meth:`EventBus.attach`) are for code that must *act* the
moment an event is published, on the publishing thread — the
verifier's chaos stalls.  They run *outside* the lock, so a listener
may itself publish; listener exceptions are swallowed and counted
(``listener_errors``, the first one kept as ``first_listener_error``),
never propagated into the publishing task.  A bus with no listener
pays one lock, one :class:`Event` and one append per publish.

Event vocabulary (see ``docs/OBSERVABILITY.md``): ``job.start``,
``task.start``, ``task.phase``, ``task.finish``, ``task.retry``,
``task.straggler``, ``task.hang``, ``task.speculate``,
``task.cancelled``, ``spill.commit``, ``spill.reopen``,
``barrier.fire``, ``reduce.start``, ``fetch``, ``recovery.reexecute``,
``job.deadline``, ``job.finish``.
"""

from __future__ import annotations

import threading
import time
from bisect import bisect_left
from collections.abc import Callable
from operator import attrgetter
from typing import Any, NamedTuple

#: Event type names (the shared live vocabulary).
EV_JOB_START = "job.start"
EV_JOB_FINISH = "job.finish"
EV_TASK_START = "task.start"
EV_TASK_FINISH = "task.finish"
#: One phase of an attempt's body (``map.read``, ``reduce.fetch``, ...),
#: published when it closes; ``data`` carries its ``name`` and ``start``.
EV_TASK_PHASE = "task.phase"
EV_TASK_RETRY = "task.retry"
EV_TASK_STRAGGLER = "task.straggler"
EV_TASK_HANG = "task.hang"
EV_TASK_SPECULATE = "task.speculate"
EV_TASK_CANCELLED = "task.cancelled"
EV_JOB_DEADLINE = "job.deadline"
EV_SPILL_COMMIT = "spill.commit"
#: Recovery reopened a map's commit window: the next accepted
#: ``spill.commit`` of that map supersedes the current one.
EV_SPILL_REOPEN = "spill.reopen"
EV_BARRIER_FIRE = "barrier.fire"
#: A reduce attempt is about to check its barrier and fetch; ``data``
#: carries the completed-map set it was scheduled with (what the
#: no-early-reduce invariant reads).
EV_REDUCE_START = "reduce.start"
EV_FETCH = "fetch"
EV_RECOVERY = "recovery.reexecute"


class _EventFields(NamedTuple):
    """:class:`Event`'s fields, in order (a ``NamedTuple`` cannot
    define its own ``__new__``)."""

    seq: int
    t: float
    type: str
    kind: str = ""
    index: int = -1
    attempt: int = 0
    data: dict[str, Any] | None = None
    job: str = ""
    part: tuple[int, int] | None = None


class Event(_EventFields):
    """One structured lifecycle event: an immutable tuple of its fields.

    ``seq`` is the bus-assigned total-order position; ``t`` is seconds
    since the bus epoch (or the simulated clock for replayed runs).
    ``kind``/``index``/``attempt`` identify the task for task-scoped
    events and are ``""``/``-1``/``0`` for job-scoped ones.  ``data``
    holds the event's own fields; an event made without any gets an
    empty dict of its own.

    ``job`` is the owning job id for interleaved multi-job streams
    (``""`` = unscoped), stamped by the bus (``EventBus(job=...)``), so
    every event a per-job bus publishes carries its job even when
    several jobs append to one JSONL file.  ``part`` is the keyblock
    range ``[first, stop)`` of the job part that published it — a served
    job is always its parts, one of them ``[0, reduces)``
    (``EventBus(part=...)``): each part has a bus, and so a ``seq``
    order, of its own.

    A tuple: a run publishes about a hundred events per job, and
    building one should cost what building a tuple does.
    """

    __slots__ = ()

    def __new__(
        cls,
        seq: int,
        t: float,
        type: str,
        kind: str = "",
        index: int = -1,
        attempt: int = 0,
        data: dict[str, Any] | None = None,
        job: str = "",
        part: tuple[int, int] | None = None,
    ) -> "Event":
        return _new_tuple(
            cls,
            (seq, t, type, kind, index, attempt,
             {} if data is None else data, job, part),
        )

    def to_json(self) -> dict[str, Any]:
        doc: dict[str, Any] = {
            "seq": self.seq,
            "t": round(self.t, 6),
            "type": self.type,
        }
        if self.job:
            doc["job"] = self.job
        if self.part is not None:
            doc["part"] = list(self.part)
        if self.kind:
            doc["kind"] = self.kind
        if self.index >= 0:
            doc["index"] = self.index
        if self.attempt:
            doc["attempt"] = self.attempt
        if self.data:
            doc["data"] = self.data
        return doc


_new_tuple = tuple.__new__


_SEQ = attrgetter("seq")
_perf_counter = time.perf_counter


class EventBus:
    """The publish side and the record.  See the module docstring."""

    def __init__(
        self,
        *,
        clock: Callable[[], float] | None = None,
        metrics: Any | None = None,
        job: str = "",
        part: tuple[int, int] | None = None,
    ) -> None:
        self._lock = threading.Lock()
        self._job = job
        self._part = part
        self._seq = 0
        #: Every published event, in ``seq`` order.
        self._record: list[Event] = []
        self._listener_errors = 0
        self._first_listener_error: BaseException | None = None
        #: Replaced, never mutated, on attach: publish reads it
        #: without copying.
        self._listeners: tuple[Callable[[Event], None], ...] = ()
        #: A caller's clock; without one, publish computes
        #: ``perf_counter() - _t0`` in place, with no function between.
        self._clock = clock
        self._t0 = time.perf_counter()
        # Resolved once; a per-publish registry lookup would put a dict
        # probe on the hot path (same pattern as ShuffleStore).
        self._m_published = (
            metrics.counter("obs.events.published") if metrics is not None else None
        )

    # ------------------------------------------------------------------ #
    # Listeners: code that acts on an event the moment it is published
    # ------------------------------------------------------------------ #
    def attach(self, listener: Callable[[Event], None]) -> None:
        """Register a synchronous listener called on every publish.

        Listeners run on the *publishing* thread, outside the bus lock;
        they must be cheap and must never block.  A listener may publish
        events of its own.
        """
        with self._lock:
            self._listeners += (listener,)

    # ------------------------------------------------------------------ #
    # Publish and read
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
        """Emit one event: record it, then call the listeners.  Never
        blocks on a consumer."""
        clock = self._clock
        with self._lock:
            # Read under the lock, so ``t`` never decreases along ``seq``.
            if at is None:
                at = _perf_counter() - self._t0 if clock is None else clock()
            event = _new_tuple(Event, (
                self._seq, at, type, kind, index, attempt, data,
                self._job, self._part,
            ))
            self._seq += 1
            self._record.append(event)
            listeners = self._listeners
        if self._m_published is not None:
            self._m_published.inc()
        for fn in listeners:
            try:
                fn(event)
            except Exception as exc:
                with self._lock:
                    self._listener_errors += 1
                    if self._first_listener_error is None:
                        self._first_listener_error = exc
        return event

    def events(self, since: int = 0) -> list[Event]:
        """The record from ``seq`` ``since`` on, in ``seq`` order — a
        copy, safe to read while the run goes on publishing."""
        with self._lock:
            if not since:
                return self._record[:]
            return self._record[bisect_left(self._record, since, key=_SEQ):]

    # ------------------------------------------------------------------ #
    # Accounting
    # ------------------------------------------------------------------ #
    def now(self) -> float:
        clock = self._clock
        return _perf_counter() - self._t0 if clock is None else clock()

    @property
    def published(self) -> int:
        """Events published so far."""
        with self._lock:
            return self._seq

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
