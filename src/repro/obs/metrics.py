"""Metrics registry: counters, gauges, fixed-bucket histograms.

The registry is the numeric half of the observability layer (spans are
the temporal half).  All metric types are thread-safe and cheap enough
to update from the engine's hot paths; histograms batch with
:meth:`Histogram.observe_many` so per-group accounting costs one lock
acquisition per reduce task, not one per key group — and, handed an
array, no Python iteration per group either.

Metric names shared by the real engine and the simulator are tabled in
``docs/OBSERVABILITY.md`` ("Metric vocabulary"), with who fills each:
the metrics fold (:mod:`repro.obs.folds`), a task body, or the
finish-time export of the run's ``Counters`` ledger.
"""

from __future__ import annotations

import threading
from collections.abc import Iterable
from typing import Any

import numpy as np

from repro.errors import ObservabilityError

#: Default latency buckets (seconds): 100 µs .. 1 min, roughly log-spaced.
TIME_BUCKETS: tuple[float, ...] = (
    0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 15.0, 60.0
)
#: Count buckets (e.g. reduce group sizes): powers of two.
COUNT_BUCKETS: tuple[float, ...] = (1, 2, 4, 8, 16, 32, 64, 128, 256, 1024, 4096, 16384)
#: Rate buckets (records/second): powers of ten.
RATE_BUCKETS: tuple[float, ...] = (1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8)


class Counter:
    """Monotonically increasing integer."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ObservabilityError(f"counter {self.name!r} cannot decrease")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        with self._lock:
            return self._value


class Gauge:
    """Last-write-wins float."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def add(self, delta: float) -> float:
        """Adjust by ``delta`` (may be negative) and return the new
        value — what up/down gauges like ``obs.tasks.inflight`` use."""
        with self._lock:
            self._value += float(delta)
            return self._value

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram:
    """Fixed-bucket histogram: counts per upper bound plus an overflow
    bucket, with running count/sum/min/max."""

    def __init__(self, name: str, buckets: Iterable[float]) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(b <= a for a, b in zip(bounds, bounds[1:])):
            raise ObservabilityError(
                f"histogram {name!r} buckets must be strictly increasing"
            )
        self.name = name
        self.buckets = bounds
        self._lock = threading.Lock()
        self._counts = [0] * (len(bounds) + 1)  # last slot = overflow
        self._count = 0
        self._sum = 0.0
        self._min = float("inf")
        self._max = float("-inf")

    def _slot(self, value: float) -> int:
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                return i
        return len(self.buckets)

    def observe(self, value: float) -> None:
        self.observe_many((value,))

    def observe_many(self, values: Iterable[float] | np.ndarray) -> None:
        if isinstance(values, np.ndarray):
            self._observe_array(values.astype(np.float64, copy=False).reshape(-1))
            return
        with self._lock:
            for v in values:
                v = float(v)
                self._counts[self._slot(v)] += 1
                self._count += 1
                self._sum += v
                if v < self._min:
                    self._min = v
                if v > self._max:
                    self._max = v

    def _observe_array(self, arr: np.ndarray) -> None:
        """The loop above for a whole float64 array, to the same state:
        ``searchsorted(side="left")`` is ``_slot`` (NaN lands in the
        overflow slot in both), the running sum is accumulated in order
        rather than pairwise, and ``fmin``/``fmax`` skip NaNs as the
        ``<``/``>`` tests do."""
        if not arr.size:
            return
        slots = np.searchsorted(np.asarray(self.buckets), arr, side="left")
        binned = np.bincount(slots, minlength=len(self._counts)).tolist()
        lo = float(np.fmin.reduce(arr))
        hi = float(np.fmax.reduce(arr))
        with self._lock:
            self._counts = [c + b for c, b in zip(self._counts, binned)]
            self._count += arr.size
            self._sum = float(np.add.accumulate(np.append(self._sum, arr))[-1])
            if lo < self._min:
                self._min = lo
            if hi > self._max:
                self._max = hi

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def mean(self) -> float:
        with self._lock:
            return self._sum / self._count if self._count else 0.0

    def quantile(self, q: float) -> float:
        """Bucket-interpolated quantile estimate.

        The q-th observation is located in its bucket, then its value is
        linearly interpolated across the bucket's span — the first
        bucket's lower edge is the observed minimum, the overflow
        bucket's upper edge is the observed maximum, and the result is
        clamped to ``[min, max]``.  Exact at bucket edges, a uniform
        within-bucket estimate elsewhere (the standard Prometheus
        ``histogram_quantile`` interpolation).
        """
        with self._lock:
            return histogram_quantile(
                {
                    "buckets": self.buckets,
                    "counts": self._counts,
                    "count": self._count,
                    "min": self._min if self._count else None,
                    "max": self._max if self._count else None,
                },
                q,
            )

    def snapshot(self) -> dict[str, Any]:
        with self._lock:
            return {
                "buckets": list(self.buckets),
                "counts": list(self._counts),
                "count": self._count,
                "sum": self._sum,
                "min": self._min if self._count else None,
                "max": self._max if self._count else None,
            }


def histogram_quantile(snapshot: dict[str, Any], q: float) -> float:
    """Bucket-interpolated quantile over a histogram *snapshot* dict
    (``buckets``/``counts``/``count``/``min``/``max`` — the shape
    :meth:`Histogram.snapshot` and exported metric JSON use).

    Shared by :meth:`Histogram.quantile` and the report renderer, which
    only has snapshots to work from.
    """
    if not 0.0 <= q <= 1.0:
        raise ObservabilityError(f"quantile {q} outside [0, 1]")
    count = snapshot["count"]
    if count == 0:
        return 0.0
    buckets = snapshot["buckets"]
    counts = snapshot["counts"]
    vmin = snapshot["min"]
    vmax = snapshot["max"]
    rank = q * count
    seen = 0
    for i, c in enumerate(counts):
        if not c:
            continue
        if seen + c >= rank:
            lo = vmin if i == 0 else buckets[i - 1]
            hi = vmax if i >= len(buckets) else buckets[i]
            estimate = lo + (hi - lo) * (rank - seen) / c
            return min(max(estimate, vmin), vmax)
        seen += c
    return vmax


class MetricsRegistry:
    """Get-or-create store of named metrics.

    A name is bound to exactly one metric type; re-registering a
    histogram with different buckets is an error (silent bucket drift
    would corrupt merged snapshots).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def _check_unbound(self, name: str, want: str) -> None:
        kinds = {
            "counter": self._counters,
            "gauge": self._gauges,
            "histogram": self._histograms,
        }
        for kind, store in kinds.items():
            if kind != want and name in store:
                raise ObservabilityError(
                    f"metric {name!r} already registered as a {kind}"
                )

    def counter(self, name: str) -> Counter:
        with self._lock:
            c = self._counters.get(name)
            if c is None:
                self._check_unbound(name, "counter")
                c = self._counters[name] = Counter(name)
            return c

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            g = self._gauges.get(name)
            if g is None:
                self._check_unbound(name, "gauge")
                g = self._gauges[name] = Gauge(name)
            return g

    def histogram(
        self, name: str, buckets: Iterable[float] = TIME_BUCKETS
    ) -> Histogram:
        bounds = tuple(float(b) for b in buckets)
        with self._lock:
            h = self._histograms.get(name)
            if h is None:
                self._check_unbound(name, "histogram")
                h = self._histograms[name] = Histogram(name, bounds)
            elif h.buckets != bounds:
                raise ObservabilityError(
                    f"histogram {name!r} re-registered with different buckets"
                )
            return h

    # ------------------------------------------------------------------ #
    def snapshot(self) -> dict[str, Any]:
        """JSON-ready snapshot of every metric."""
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            hists = dict(self._histograms)
        return {
            "counters": {n: c.value for n, c in sorted(counters.items())},
            "gauges": {n: g.value for n, g in sorted(gauges.items())},
            "histograms": {n: h.snapshot() for n, h in sorted(hists.items())},
        }

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry into this one (counter sums, gauge
        last-write, histogram bucket-wise sums)."""
        snap = other.snapshot()
        for name, value in snap["counters"].items():
            self.counter(name).inc(value)
        for name, value in snap["gauges"].items():
            self.gauge(name).set(value)
        for name, h in snap["histograms"].items():
            mine = self.histogram(name, h["buckets"])
            with mine._lock:
                for i, c in enumerate(h["counts"]):
                    mine._counts[i] += c
                mine._count += h["count"]
                mine._sum += h["sum"]
                if h["min"] is not None:
                    mine._min = min(mine._min, h["min"])
                if h["max"] is not None:
                    mine._max = max(mine._max, h["max"])
