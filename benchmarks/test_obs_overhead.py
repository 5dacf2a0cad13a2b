"""Tracing-overhead benchmark (acceptance: < 10%).

Runs the engine-throughput workload (weekly means over a year of
temperature data, the same geometry as ``test_engine_throughput``) with
the observability layer on and off, and asserts that spans + metrics add
less than 10% to the min-of-N wall time.  Min-of-N because scheduler
noise only ever adds time — the minimum is the cleanest estimate of the
true cost on a shared machine.
"""

import json
import time

import numpy as np
import pytest

from repro.mapreduce.engine import LocalEngine
from repro.query.language import StructuralQuery
from repro.query.operators import MeanOp
from repro.query.splits import slice_splits
from repro.scidata.generators import temperature_dataset
from repro.sidr.planner import build_sidr_job

RUNS = 3
MAX_OVERHEAD = 0.10
# The live plane (event bus + progress tracker + straggler detector +
# one draining subscription) rides on top of spans/metrics; allow a bit
# of scheduler-noise headroom over the plain tracing bound.
MAX_LIVE_OVERHEAD = 0.15


@pytest.fixture(scope="module")
def job_and_barrier():
    field = temperature_dataset(days=364, lat=40, lon=40, seed=3)
    data = field.arrays["temperature"].astype(np.float64)
    q = StructuralQuery(
        variable="temperature", extraction_shape=(7, 5, 2), operator=MeanOp()
    )
    plan = q.compile(field.metadata)
    sp = slice_splits(plan, num_splits=16)
    job, barrier, _ = build_sidr_job(plan, sp, 8, data)
    return job, barrier


def _min_time(engine, job, barrier, runs=RUNS):
    best = float("inf")
    for _ in range(runs):
        t = time.perf_counter()
        engine.run_serial(job, barrier)
        best = min(best, time.perf_counter() - t)
    return best


def test_tracing_overhead_under_10_percent(job_and_barrier, record_report):
    job, barrier = job_and_barrier
    on = LocalEngine(observability=True)
    off = LocalEngine(observability=False)
    # Interleave a warmup of each before timing so caches are equally hot.
    on.run_serial(job, barrier)
    off.run_serial(job, barrier)
    t_off = _min_time(off, job, barrier)
    t_on = _min_time(on, job, barrier)
    overhead = t_on / t_off - 1.0
    record_report(
        "obs_overhead",
        "tracing overhead (weekly-mean workload, min of "
        f"{RUNS}):\n"
        f"  observability off: {t_off * 1e3:.1f} ms\n"
        f"  observability on:  {t_on * 1e3:.1f} ms\n"
        f"  overhead:          {overhead:+.1%} (bound {MAX_OVERHEAD:.0%})\n"
        + json.dumps(
            {
                "off_ms": round(t_off * 1e3, 2),
                "on_ms": round(t_on * 1e3, 2),
                "overhead": round(overhead, 4),
            }
        ),
    )
    assert overhead < MAX_OVERHEAD, (
        f"tracing overhead {overhead:.1%} exceeds {MAX_OVERHEAD:.0%} "
        f"({t_on * 1e3:.1f} ms vs {t_off * 1e3:.1f} ms)"
    )


def test_live_bus_overhead_bounded(job_and_barrier, record_report):
    """Publishing every task/spill/fetch event into the live bus (with
    the full ``--live`` consumer stack attached) must not blow the
    hot-path budget."""
    from repro.obs import (
        EventBus,
        JobObservability,
        MetricsRegistry,
        ProgressTracker,
        StragglerDetector,
    )

    job, barrier = job_and_barrier
    off = LocalEngine(observability=False)
    live = LocalEngine(observability=True)

    def run_live():
        metrics = MetricsRegistry()
        bus = EventBus(metrics=metrics)
        obs = JobObservability(job.name, metrics=metrics, bus=bus)
        ProgressTracker(bus)
        StragglerDetector(bus)
        sub = bus.subscribe()
        live.run_serial(job, barrier, obs=obs)
        assert bus.dropped == 0
        return sub.drain()

    live.run_serial(job, barrier)  # warmup
    off.run_serial(job, barrier)
    t_off = _min_time(off, job, barrier)
    t_live = float("inf")
    events = []
    for _ in range(RUNS):
        t = time.perf_counter()
        events = run_live()
        t_live = min(t_live, time.perf_counter() - t)
    overhead = t_live / t_off - 1.0
    record_report(
        "obs_live_overhead",
        "tracing + live bus overhead (weekly-mean workload, min of "
        f"{RUNS}):\n"
        f"  observability off:    {t_off * 1e3:.1f} ms\n"
        f"  on + live bus:        {t_live * 1e3:.1f} ms\n"
        f"  events per run:       {len(events)}\n"
        f"  overhead:             {overhead:+.1%} "
        f"(bound {MAX_LIVE_OVERHEAD:.0%})\n"
        + json.dumps(
            {
                "off_ms": round(t_off * 1e3, 2),
                "live_ms": round(t_live * 1e3, 2),
                "events": len(events),
                "overhead": round(overhead, 4),
            }
        ),
    )
    assert len(events) > 0
    assert overhead < MAX_LIVE_OVERHEAD, (
        f"live-bus overhead {overhead:.1%} exceeds {MAX_LIVE_OVERHEAD:.0%} "
        f"({t_live * 1e3:.1f} ms vs {t_off * 1e3:.1f} ms)"
    )


def test_identical_output_on_and_off(job_and_barrier):
    """The run being measured must be the same computation both ways."""
    job, barrier = job_and_barrier
    a = LocalEngine(observability=True).run_serial(job, barrier)
    b = LocalEngine(observability=False).run_serial(job, barrier)
    assert a.all_records() == b.all_records()


def test_span_volume_is_bounded(job_and_barrier):
    """Span count scales with tasks, not records: the 1.1M-cell workload
    must not allocate per-record spans."""
    job, barrier = job_and_barrier
    res = LocalEngine().run_serial(job, barrier)
    n_tasks = len(job.splits) + job.num_reduce_tasks
    # job + tasks + 2 phases per task + a barrier wait and at most one
    # early-start instant per reduce; per-record spans would be thousands.
    assert len(res.obs.tracer) <= 1 + 3 * n_tasks + 2 * job.num_reduce_tasks
