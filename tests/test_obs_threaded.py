"""Observability under threaded execution (pools, races, merges).

Satellite coverage: spans keep correct parentage when tasks hop to pool
worker threads, concurrent metric updates merge losslessly, and the
``barrier.early.starts`` counter agrees with the legacy trace's
``reduce_starts_before_last_map`` under a DependencyBarrier.
"""

import threading

import pytest

from repro.mapreduce.engine import (
    DependencyBarrier,
    GlobalBarrier,
    LocalEngine,
)
from repro.mapreduce.job import JobConf
from repro.mapreduce.mapper import IdentityMapper
from repro.mapreduce.partitioner import RangePartitioner
from repro.mapreduce.reducer import FunctionReducer
from repro.obs import MetricsRegistry
from tests.test_mapreduce_engine import counting_job, make_splits, ranged_job


class TestSpanNesting:
    def test_task_spans_parent_job_across_pools(self):
        """Explicit parent propagation: a task span created on a pool
        worker still nests under the job span."""
        job, deps = ranged_job(num_splits=12, num_reduces=4)
        eng = LocalEngine(map_workers=4, reduce_workers=3)
        res = eng.run_threaded(job, DependencyBarrier(deps))
        assert res.obs.bus.listener_errors == 0
        spans = res.obs.spans()
        (job_span,) = [s for s in spans if s.name == "job"]
        tasks = [s for s in spans if s.category == "task"]
        assert len(tasks) == 12 + 4
        assert all(s.parent_id == job_span.span_id for s in tasks)
        assert all(s.finished for s in tasks)

    def test_phase_spans_parent_their_task(self):
        job, deps = ranged_job(num_splits=8, num_reduces=4)
        res = LocalEngine().run_threaded(job, DependencyBarrier(deps))
        spans = res.obs.spans()
        by_id = {s.span_id: s for s in spans}
        phases = [s for s in spans if s.category == "phase"]
        assert phases
        for p in phases:
            parent = by_id[p.parent_id]
            assert parent.category == "task"
            assert p.track == parent.track
            assert parent.start <= p.start and p.end <= parent.end

    def test_span_count_matches_serial(self):
        """Same job, same barrier: threaded and serial runs record the
        same span population (names x tracks), just different timings."""
        job, deps = ranged_job(num_splits=8, num_reduces=4)
        eng = LocalEngine()
        a = eng.run_serial(job, DependencyBarrier(deps))
        b = eng.run_threaded(job, DependencyBarrier(deps))

        def key(res):
            return sorted(
                (s.name, s.track)
                for s in res.obs.spans()
                if s.category != "instant"
            )

        assert key(a) == key(b)


class TestConcurrentMetrics:
    def test_engine_run_counts_are_exact(self):
        """Metric totals from a threaded run equal the serial run's —
        no update is lost to races."""
        job = counting_job(num_splits=8, num_reduces=4)
        eng = LocalEngine(map_workers=8, reduce_workers=4)
        serial = eng.run_serial(job, GlobalBarrier())
        threaded = eng.run_threaded(job, GlobalBarrier())
        s = serial.obs.metrics.snapshot()
        t = threaded.obs.metrics.snapshot()
        assert (
            s["counters"]["map.output.records"]
            == t["counters"]["map.output.records"]
            == serial.counters.get("map.output.records")
        )
        assert (
            s["histograms"]["reduce.group.size"]["counts"]
            == t["histograms"]["reduce.group.size"]["counts"]
        )

    def test_cross_registry_merge_lossless(self):
        """Per-worker registries merged into one lose nothing."""
        n_workers, per_worker = 6, 500
        parts = [MetricsRegistry() for _ in range(n_workers)]

        def work(m):
            for i in range(per_worker):
                m.counter("events").inc()
                m.histogram("size", (10.0, 100.0)).observe(float(i % 150))

        threads = [
            threading.Thread(target=work, args=(m,)) for m in parts
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        total = MetricsRegistry()
        for m in parts:
            total.merge(m)
        assert total.counter("events").value == n_workers * per_worker
        h = total.histogram("size", (10.0, 100.0)).snapshot()
        assert h["count"] == n_workers * per_worker
        assert sum(h["counts"]) == h["count"]


class TestEarlyStartAgreement:
    def test_counter_matches_trace_deterministically(self):
        """Under a DependencyBarrier, ``barrier.early.starts`` must equal
        ``trace.reduce_starts_before_last_map()``.

        Threading makes the raw race nondeterministic, so the run is
        coordinated: the last map's reader blocks until reduce 0 has
        started (its start validator sets an event).  That pins exactly
        one early start on both sides of the comparison.
        """
        reduce0_started = threading.Event()

        def reader(split):
            if split.index == 3:
                assert reduce0_started.wait(timeout=30), "reduce 0 never ran"
            yield ((split.index,), split.index * 10)

        class Release:
            def validate(self, partition, tally):
                if partition == 0:
                    reduce0_started.set()

        deps = {
            0: frozenset({0, 1}),
            1: frozenset({2, 3}),
        }
        boundaries = [2, 4]
        job = JobConf(
            name="coord",
            splits=make_splits(4),
            reader_factory=reader,
            mapper_factory=IdentityMapper,
            reducer_factory=lambda: FunctionReducer(
                lambda k, vals: [(k, sum(vals))]
            ),
            partitioner=RangePartitioner((4,), boundaries),
            num_reduce_tasks=2,
            contact_all_maps=False,
        )
        job.context["reduce_start_validator"] = Release()
        # One map worker serializes maps 0..3; the reduce pool runs
        # reduce 0 while map 3 is blocked in its reader.
        eng = LocalEngine(map_workers=1, reduce_workers=2)
        res = eng.run_threaded(job, DependencyBarrier(deps))
        assert dict(res.all_records()) == {(i,): i * 10 for i in range(4)}
        early = res.counters.get("barrier.early.starts")
        assert early == 1
        assert res.trace.reduce_starts_before_last_map() == early
        assert res.obs.metrics.counter("barrier.early.starts").value == early
        instants = [s for s in res.obs.spans() if s.name == "reduce.early_start"]
        assert [s.args["index"] for s in instants] == [0]

    @pytest.mark.parametrize("trial", range(3))
    def test_counter_never_exceeds_fired_reduces(self, trial):
        """Uncoordinated runs: the early-start counter is always between
        0 and the reduce count, and the metrics mirror agrees exactly."""
        job, deps = ranged_job(num_splits=12, num_reduces=4)
        res = LocalEngine(map_workers=4, reduce_workers=4).run_threaded(
            job, DependencyBarrier(deps)
        )
        early = res.counters.get("barrier.early.starts")
        assert 0 <= early <= 4
        assert res.obs.metrics.counter("barrier.early.starts").value == early
        assert early == sum(
            s.name == "reduce.early_start" for s in res.obs.spans()
        )


class TestIdenticalResults:
    def test_observability_off_gives_same_output(self):
        """Acceptance: identical results with observability on and off."""
        job, deps = ranged_job(num_splits=12, num_reduces=4)
        on = LocalEngine(observability=True)
        off = LocalEngine(observability=False)
        for runner in ("run_serial", "run_threaded"):
            a = getattr(on, runner)(job, DependencyBarrier(deps))
            b = getattr(off, runner)(job, DependencyBarrier(deps))
            assert a.all_records() == b.all_records()
            assert a.counters.as_dict() == b.counters.as_dict()

    @pytest.mark.parametrize("num_splits", [8, 24])
    def test_span_volume_is_bounded(self, num_splits):
        """Span count scales with tasks, never records: job + tasks +
        2 phases per task + a barrier wait and at most one early-start
        instant per reduce."""
        job, deps = ranged_job(num_splits=num_splits, num_reduces=4)
        res = LocalEngine().run_serial(job, DependencyBarrier(deps))
        n_tasks = len(job.splits) + job.num_reduce_tasks
        assert 0 < len(res.obs.spans()) <= (
            1 + 3 * n_tasks + 2 * job.num_reduce_tasks
        )

    def test_disabled_mode_records_no_spans_but_keeps_trace(self):
        job, deps = ranged_job()
        res = LocalEngine(observability=False).run_serial(
            job, DependencyBarrier(deps)
        )
        assert res.obs.spans() == []
        assert res.obs.metrics.snapshot()["counters"] == {}
        # The legacy trace bridge still works for old consumers.
        assert res.trace.reduce_starts_before_last_map() == 3
        assert res.counters.get("barrier.early.starts") == 3
