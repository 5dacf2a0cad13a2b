"""Hadoop-style job counters.

Counters are the engine's observable accounting — tests assert on them
(e.g. map output records == reduce input records) and the benchmark
harness reports them (e.g. shuffle bytes per configuration).

``Counters`` is the one ledger, with two writers that never share a
name: task bodies add the data-volume tallies directly as they run
(each call site one locked :meth:`Counters.update`), and
:meth:`Counters.fold` adds the lifecycle tallies once, at the engine's
finish site, from the run's recorded events.  When
observability is enabled the whole ledger is then copied into the run's
``MetricsRegistry`` under the same names.
"""

from __future__ import annotations

import threading
from collections import Counter as _Counter
from collections.abc import Iterable, Mapping

from repro.obs.live.bus import (
    EV_BARRIER_FIRE,
    EV_JOB_DEADLINE,
    EV_RECOVERY,
    EV_TASK_CANCELLED,
    EV_TASK_FINISH,
    EV_TASK_RETRY,
    EV_TASK_SPECULATE,
    EV_TASK_START,
    Event,
)
from repro.spec.cancel import REASON_HANG


class Counters:
    """Thread-safe named counters grouped Hadoop-style.

    Well-known counter names used by the engine:

    * ``map.input.records`` / ``map.output.records``
    * ``combine.input.records`` / ``combine.output.records``
    * ``shuffle.segments`` / ``shuffle.records`` (records crossing the
      shuffle — what ``shuffle.bytes`` misleadingly reported before) /
      ``shuffle.bytes`` (estimated serialized payload size)
    * ``reduce.input.groups`` / ``reduce.input.records`` /
      ``reduce.output.records`` — the input records are the rows the
      reduce fetched; a key synthesized by split pruning is one group
      and one output record, so the last is the job's output count
    * ``barrier.early.starts`` — reduce tasks that began before the last
      map finished (always 0 under the global barrier)
    * ``task.attempts`` / ``task.failures`` / ``task.retries`` — one per
      task attempt started / failed / retried after a failure
    * ``task.cancelled`` / ``task.speculations`` — attempts cancelled
      (race lost, hang mitigation, deadline) / backup attempts raced
    * ``faults.injected`` — failed attempts caused by the injection plan
    * ``recovery.maps_reexecuted`` — maps re-run to regenerate a failed
      reduce's input (only its dependency set under ``REEXECUTE_DEPS``)
    * ``job.deadline.expired`` — 1 when the job's deadline fired
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._values: _Counter[str] = _Counter()

    def increment(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self._values[name] += amount

    def update(self, amounts: Mapping[str, int]) -> None:
        """:meth:`increment` each name by its amount, in ``amounts``'
        order, under one lock: a task body's tallies in one update."""
        with self._lock:
            values = self._values
            for name, amount in amounts.items():
                values[name] += amount

    def fold(self, events: Iterable[Event]) -> None:
        """Add the lifecycle tallies (see the class docstring) of a
        run's events."""
        tally: _Counter[str] = _Counter()
        for ev in events:
            kind, data = ev.type, ev.data
            if kind == EV_TASK_START:
                tally["task.attempts"] += 1
            elif kind == EV_TASK_FINISH:
                if data.get("status") == "failed":
                    tally["task.failures"] += 1
                    if data.get("error") == "InjectedFaultError":
                        tally["faults.injected"] += 1
            elif kind == EV_TASK_CANCELLED:
                tally["task.cancelled"] += 1
                if data.get("reason") == REASON_HANG:
                    # A hang-mitigation cancel is retried in place: it
                    # spends the retry budget like any failed attempt.
                    tally["task.failures"] += 1
            elif kind == EV_TASK_RETRY:
                tally["task.retries"] += 1
            elif kind == EV_TASK_SPECULATE:
                if data.get("mode") == "race":
                    tally["task.speculations"] += 1
            elif kind == EV_RECOVERY:
                tally["recovery.maps_reexecuted"] += len(data["maps"])
            elif kind == EV_BARRIER_FIRE:
                if data.get("early"):
                    tally["barrier.early.starts"] += 1
            elif kind == EV_JOB_DEADLINE:
                tally["job.deadline.expired"] += 1
        with self._lock:
            self._values.update(tally)

    def get(self, name: str) -> int:
        with self._lock:
            return self._values.get(name, 0)

    def as_dict(self) -> dict[str, int]:
        with self._lock:
            return dict(self._values)

    def merge(self, other: "Counters") -> None:
        with self._lock, other._lock:
            self._values.update(other._values)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        items = ", ".join(f"{k}={v}" for k, v in sorted(self.as_dict().items()))
        return f"Counters({items})"
