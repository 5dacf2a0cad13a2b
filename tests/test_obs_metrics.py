"""Unit tests for counters/gauges/histograms (repro.obs.metrics)."""

import threading

import numpy as np
import pytest

from repro.errors import ObservabilityError
from repro.obs import (
    COUNT_BUCKETS,
    Histogram,
    MetricsRegistry,
    TIME_BUCKETS,
)


class TestCounter:
    def test_increments(self):
        c = MetricsRegistry().counter("x")
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_negative_rejected(self):
        c = MetricsRegistry().counter("x")
        with pytest.raises(ObservabilityError):
            c.inc(-1)


class TestGauge:
    def test_last_write_wins(self):
        g = MetricsRegistry().gauge("g")
        g.set(3.0)
        g.set(1.5)
        assert g.value == 1.5

    def test_add_moves_up_and_down(self):
        g = MetricsRegistry().gauge("inflight")
        assert g.add(1) == 1.0
        assert g.add(2) == 3.0
        assert g.add(-3) == 0.0
        assert g.value == 0.0


class TestHistogram:
    def test_buckets_must_increase(self):
        with pytest.raises(ObservabilityError):
            Histogram("h", (1.0, 1.0, 2.0))
        with pytest.raises(ObservabilityError):
            Histogram("h", ())

    def test_observe_and_stats(self):
        h = Histogram("h", (1.0, 10.0, 100.0))
        h.observe_many([0.5, 5.0, 50.0, 500.0])
        assert h.count == 4
        assert h.sum == pytest.approx(555.5)
        snap = h.snapshot()
        assert snap["counts"] == [1, 1, 1, 1]  # last slot = overflow
        assert snap["min"] == 0.5
        assert snap["max"] == 500.0
        assert h.mean() == pytest.approx(555.5 / 4)

    def test_quantile_interpolates_within_bucket(self):
        h = Histogram("h", (1.0, 2.0, 4.0))
        h.observe_many([0.5] * 9 + [3.0])
        # Median lands in the first bucket: 9 observations spanning
        # [min=0.5, bound=1.0], rank 5 of 9 interpolates to 0.5 + 0.5*5/9.
        assert h.quantile(0.5) == pytest.approx(0.5 + 0.5 * 5 / 9)
        # The top quantile clamps to the observed maximum, not the
        # (looser) bucket upper bound.
        assert h.quantile(1.0) == 3.0
        h.observe(99.0)  # overflow bucket spans [last bound, max]
        assert h.quantile(1.0) == 99.0
        assert h.quantile(0.0) == 0.5  # bottom clamps to the minimum
        with pytest.raises(ObservabilityError):
            h.quantile(1.5)

    def test_quantile_exact_at_bucket_edges(self):
        h = Histogram("h", (1.0, 2.0))
        h.observe_many([1.0] * 4 + [2.0] * 4)
        assert h.quantile(0.5) == pytest.approx(1.0)
        assert h.quantile(1.0) == pytest.approx(2.0)

    def test_histogram_quantile_on_snapshot(self):
        from repro.obs import histogram_quantile

        h = Histogram("h", (1.0, 2.0, 4.0))
        h.observe_many([0.5] * 9 + [3.0])
        snap = h.snapshot()
        # The module-level helper (used by the report renderer on
        # exported snapshots) agrees with the live object.
        assert histogram_quantile(snap, 0.5) == h.quantile(0.5)
        assert histogram_quantile(snap, 0.95) == h.quantile(0.95)
        assert histogram_quantile({"count": 0}, 0.5) == 0.0

    @pytest.mark.parametrize(
        "values",
        [
            np.array([1, 2, 2, 3, 16384, 16385, 0], dtype=np.int64),
            np.array([0.1, 0.2, 0.3, 1e16, 1.0, -5.5, 4.0, 1e-9]),
            np.array([np.nan, 2.0, np.inf, -np.inf, np.nan]),
            np.array([np.nan]),
            np.array([]),
        ],
        ids=["ints", "floats", "nonfinite", "only-nan", "empty"],
    )
    def test_observe_many_array_matches_observe(self, values):
        """The bucketed array path leaves exactly the state that
        observing the same values one at a time does."""
        bounds = (1, 2, 4, 8, 16384)
        scalar, batched = Histogram("h", bounds), Histogram("h", bounds)
        for h in (scalar, batched):
            h.observe(3.0)  # a running sum/min/max to continue from
        for v in values.tolist():
            scalar.observe(v)
        batched.observe_many(values)
        assert repr(batched.snapshot()) == repr(scalar.snapshot())
        for q in (0.0, 0.25, 0.5, 0.9, 1.0):
            assert repr(batched.quantile(q)) == repr(scalar.quantile(q))

    def test_empty_snapshot(self):
        h = Histogram("h", (1.0,))
        snap = h.snapshot()
        assert snap["count"] == 0
        assert snap["min"] is None and snap["max"] is None
        assert h.quantile(0.9) == 0.0


class TestRegistry:
    def test_get_or_create_returns_same_object(self):
        m = MetricsRegistry()
        assert m.counter("a") is m.counter("a")
        assert m.histogram("h", TIME_BUCKETS) is m.histogram("h", TIME_BUCKETS)

    def test_type_clash_rejected(self):
        m = MetricsRegistry()
        m.counter("x")
        with pytest.raises(ObservabilityError):
            m.gauge("x")
        with pytest.raises(ObservabilityError):
            m.histogram("x")

    def test_bucket_mismatch_rejected(self):
        m = MetricsRegistry()
        m.histogram("h", TIME_BUCKETS)
        with pytest.raises(ObservabilityError):
            m.histogram("h", COUNT_BUCKETS)

    def test_snapshot_shape(self):
        m = MetricsRegistry()
        m.counter("c").inc(2)
        m.gauge("g").set(1.0)
        m.histogram("h", (1.0,)).observe(0.5)
        snap = m.snapshot()
        assert snap["counters"] == {"c": 2}
        assert snap["gauges"] == {"g": 1.0}
        assert snap["histograms"]["h"]["count"] == 1

    def test_merge_sums_counters_and_buckets(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("c").inc(3)
        b.counter("c").inc(4)
        a.histogram("h", (1.0, 2.0)).observe_many([0.5, 1.5])
        b.histogram("h", (1.0, 2.0)).observe_many([0.5, 9.0])
        b.gauge("g").set(7.0)
        a.merge(b)
        snap = a.snapshot()
        assert snap["counters"]["c"] == 7
        h = snap["histograms"]["h"]
        assert h["count"] == 4
        assert h["counts"] == [2, 1, 1]
        assert h["min"] == 0.5 and h["max"] == 9.0
        assert snap["gauges"]["g"] == 7.0

    def test_merge_bucket_mismatch_rejected(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.histogram("h", (1.0,)).observe(0.5)
        b.histogram("h", (2.0,)).observe(0.5)
        with pytest.raises(ObservabilityError):
            a.merge(b)


class TestThreadSafety:
    def test_concurrent_updates_lossless(self):
        m = MetricsRegistry()
        n_threads, per_thread = 8, 1000

        def work():
            c = m.counter("hits")
            h = m.histogram("lat", TIME_BUCKETS)
            for _ in range(per_thread):
                c.inc()
                h.observe(0.001)

        threads = [threading.Thread(target=work) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert m.counter("hits").value == n_threads * per_thread
        assert m.histogram("lat", TIME_BUCKETS).count == n_threads * per_thread
