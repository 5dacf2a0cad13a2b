"""Hadoop-style job counters.

Counters are the engine's observable accounting — tests assert on them
(e.g. map output records == reduce input records) and the benchmark
harness reports them (e.g. shuffle bytes per configuration).
"""

from __future__ import annotations

import threading
from collections import Counter as _Counter

#: Counter names the observability layer also reports.  ``Counters`` is
#: the one ledger (worker processes ferry only it); the engine copies
#: these into the run's ``MetricsRegistry`` once, when the job finishes.
METRIC_MIRRORED = (
    "plane.batched.instances",
    "plane.fallback.instances",
    "pushdown.rows.masked",
    "plan.splits.pruned",
    "plan.keys.synthesized",
    "barrier.early.starts",
    "task.cancelled",
    "recovery.maps_reexecuted",
    "job.deadline.expired",
)


class Counters:
    """Thread-safe named counters grouped Hadoop-style.

    Well-known counter names used by the engine:

    * ``map.input.records`` / ``map.output.records``
    * ``combine.input.records`` / ``combine.output.records``
    * ``shuffle.segments`` / ``shuffle.records`` (records crossing the
      shuffle — what ``shuffle.bytes`` misleadingly reported before) /
      ``shuffle.bytes`` (estimated serialized payload size)
    * ``reduce.input.groups`` / ``reduce.input.records`` /
      ``reduce.output.records``
    * ``barrier.early.starts`` — reduce tasks that began before the last
      map finished (always 0 under the global barrier)
    * ``task.attempts`` / ``task.failures`` / ``task.retries`` — one per
      task attempt started / failed / retried after a failure
    * ``faults.injected`` — failed attempts caused by the injection plan
    * ``recovery.maps_reexecuted`` — maps re-run to regenerate a failed
      reduce's input (only its dependency set under ``REEXECUTE_DEPS``)
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._values: _Counter[str] = _Counter()

    def increment(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self._values[name] += amount

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
