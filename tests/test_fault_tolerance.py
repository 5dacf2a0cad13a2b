"""Fault-injection, retry, and dependency-aware recovery tests.

Every test that executes a job runs under both engines by default; set
``REPRO_ENGINE_MODE=serial`` or ``=threaded`` to restrict the matrix
(the CI workflow runs one job per mode).
"""

import os

import numpy as np
import pytest

from repro.errors import InjectedFaultError, JobFailedError, ReproError
from repro.faults import (
    WHEN_AFTER_FETCH,
    FaultKind,
    FaultRule,
    InjectionPlan,
    RecoveryModel,
)
from repro.mapreduce.engine import (
    DependencyBarrier,
    GlobalBarrier,
    LocalEngine,
    RetryPolicy,
)
from repro.obs.live.bus import EV_SPILL_REOPEN

from tests.test_mapreduce_engine import counting_job, ranged_job

_KNOWN = ("serial", "threaded")
_env = os.environ.get("REPRO_ENGINE_MODE", "")
MODES = (_env,) if _env in _KNOWN else _KNOWN

FAST_RETRY = RetryPolicy(max_attempts=3, backoff_base=0.0)


def run(engine: LocalEngine, mode: str, job, barrier, **kwargs):
    return engine.run(job, barrier, mode=mode, **kwargs)


def crash_rule(task, indices, **kw):
    return FaultRule(
        task=task, kind=FaultKind.CRASH, indices=frozenset(indices), **kw
    )


def transient_rule(task, indices, times=1, **kw):
    return FaultRule(
        task=task,
        kind=FaultKind.TRANSIENT,
        indices=frozenset(indices),
        times=times,
        **kw,
    )


def plan_of(*rules, seed=0):
    return InjectionPlan(rules=tuple(rules), seed=seed)


def clean_records(job_factory=counting_job, **kw):
    return LocalEngine().run_serial(job_factory(**kw), GlobalBarrier()).all_records()


# --------------------------------------------------------------------- #
# Crashes fail the job
# --------------------------------------------------------------------- #
class TestCrash:
    def test_serial_map_crash_raises_raw(self):
        engine = LocalEngine(faults=plan_of(crash_rule("map", {0})))
        with pytest.raises(InjectedFaultError):
            engine.run_serial(counting_job(), GlobalBarrier())

    def test_threaded_map_crash_wraps_all_errors(self):
        engine = LocalEngine(
            map_workers=1, faults=plan_of(crash_rule("map", {0}))
        )
        with pytest.raises(JobFailedError) as ei:
            engine.run_threaded(counting_job(), GlobalBarrier())
        assert len(ei.value.errors) == 1
        assert isinstance(ei.value.errors[0], InjectedFaultError)
        assert isinstance(ei.value.__cause__, InjectedFaultError)
        assert "count" in str(ei.value)

    @pytest.mark.parametrize("mode", MODES)
    def test_reduce_crash(self, mode):
        engine = LocalEngine(faults=plan_of(crash_rule("reduce", {1})))
        expected = (
            InjectedFaultError if mode == "serial" else JobFailedError
        )
        with pytest.raises(expected):
            run(engine, mode, counting_job(), GlobalBarrier())

    def test_fail_fast_cancels_undispatched_maps(self):
        """With one map worker, a crash on map 0 must prevent the queued
        maps from ever starting."""
        engine = LocalEngine(
            map_workers=1, faults=plan_of(crash_rule("map", {0}))
        )
        with pytest.raises(JobFailedError):
            engine.run_threaded(counting_job(), GlobalBarrier())

    def test_threaded_collects_concurrent_errors(self):
        """Two maps crash while both are in flight: JobFailedError must
        carry BOTH errors, not just the first."""
        rules = (
            FaultRule(
                task="map",
                kind=FaultKind.SLOW,
                indices=frozenset({0, 1}),
                delay=0.25,
            ),
            crash_rule("map", {0, 1}),
        )
        engine = LocalEngine(map_workers=2, faults=plan_of(*rules))
        with pytest.raises(JobFailedError) as ei:
            engine.run_threaded(counting_job(), GlobalBarrier())
        assert len(ei.value.errors) == 2
        assert all(isinstance(e, InjectedFaultError) for e in ei.value.errors)

    def test_job_failed_error_is_repro_error(self):
        assert issubclass(JobFailedError, ReproError)


# --------------------------------------------------------------------- #
# Transient faults are retried to success
# --------------------------------------------------------------------- #
class TestRetry:
    @pytest.mark.parametrize("mode", MODES)
    def test_transient_map_retried_byte_identical(self, mode):
        engine = LocalEngine(
            retry=FAST_RETRY,
            faults=plan_of(transient_rule("map", {0, 3})),
        )
        res = run(engine, mode, counting_job(), GlobalBarrier())
        assert res.all_records() == clean_records()
        assert res.counters.get("task.retries") == 2
        assert res.counters.get("faults.injected") == 2

    @pytest.mark.parametrize("mode", MODES)
    def test_transient_reduce_retried(self, mode):
        engine = LocalEngine(
            retry=FAST_RETRY,
            faults=plan_of(transient_rule("reduce", {2})),
        )
        res = run(engine, mode, counting_job(), GlobalBarrier())
        assert res.all_records() == clean_records()

    @pytest.mark.parametrize("mode", MODES)
    def test_retry_exhaustion_fails_job(self, mode):
        engine = LocalEngine(
            retry=RetryPolicy(max_attempts=2, backoff_base=0.0),
            faults=plan_of(transient_rule("map", {1}, times=5)),
        )
        expected = (
            InjectedFaultError if mode == "serial" else JobFailedError
        )
        with pytest.raises(expected):
            run(engine, mode, counting_job(), GlobalBarrier())

    @pytest.mark.parametrize("mode", MODES)
    def test_corrupt_spill_detected_and_retried(self, mode):
        """A corrupted spill trips the store's sortedness validation; the
        retry produces a clean spill."""
        engine = LocalEngine(
            retry=FAST_RETRY,
            faults=plan_of(
                FaultRule(
                    task="map",
                    kind=FaultKind.CORRUPT_SPILL,
                    indices=frozenset({2}),
                )
            ),
        )
        res = run(engine, mode, counting_job(), GlobalBarrier())
        assert res.all_records() == clean_records()
        assert res.counters.get("task.retries") >= 1

    @pytest.mark.parametrize("mode", MODES)
    def test_slow_task_still_correct(self, mode):
        engine = LocalEngine(
            faults=plan_of(
                FaultRule(
                    task="map",
                    kind=FaultKind.SLOW,
                    indices=frozenset({0}),
                    delay=0.05,
                )
            )
        )
        res = run(engine, mode, counting_job(), GlobalBarrier())
        assert res.all_records() == clean_records()
        assert res.counters.get("task.retries") == 0

    def test_failure_budget_stops_retrying(self):
        engine = LocalEngine(
            retry=RetryPolicy(
                max_attempts=10, backoff_base=0.0, failure_budget=2
            ),
            faults=plan_of(transient_rule("map", {0}, times=100)),
        )
        with pytest.raises(InjectedFaultError):
            engine.run_serial(counting_job(), GlobalBarrier())
        # budget=2: attempts 1 and 2 fail, then the run stops.

    @pytest.mark.parametrize("mode", MODES)
    def test_attempt_log_records_failures(self, mode):
        engine = LocalEngine(
            retry=FAST_RETRY, faults=plan_of(transient_rule("map", {0}))
        )
        res = run(engine, mode, counting_job(), GlobalBarrier())
        map0 = [a for a in res.attempts if a.kind == "map" and a.index == 0]
        assert [a.outcome for a in map0] == ["failed", "ok"]
        assert map0[0].attempt == 0 and map0[1].attempt == 1
        assert map0[0].error == "InjectedFaultError"

    def test_backoff_deterministic_and_capped(self):
        pol = RetryPolicy(max_attempts=5, backoff_base=0.1, backoff_cap=0.3)
        d1 = pol.backoff("map", 0, 1)
        assert d1 == pol.backoff("map", 0, 1)
        assert 0.0 < d1 <= 0.2
        assert pol.backoff("map", 0, 4) <= 0.3
        assert pol.backoff("map", 1, 1) != d1


# --------------------------------------------------------------------- #
# Dependency-aware reduce recovery (paper §6)
# --------------------------------------------------------------------- #
class TestRecovery:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize(
        "model,reexec",
        [
            (RecoveryModel.PERSISTED, 0),
            (RecoveryModel.REEXECUTE_ALL, 8),
            (RecoveryModel.REEXECUTE_DEPS, 2),
        ],
    )
    def test_reduce_recovery_per_model(self, mode, model, reexec):
        """Reduce 1 fails after consuming its fetched input; recovery
        re-runs exactly the maps the model requires (its dependency set
        I_l = {2, 3} under REEXECUTE_DEPS)."""
        job, deps = ranged_job()
        engine = LocalEngine(
            retry=FAST_RETRY,
            recovery=model,
            faults=plan_of(
                transient_rule("reduce", {1}, when=WHEN_AFTER_FETCH)
            ),
        )
        res = run(engine, mode, job, DependencyBarrier(deps))
        clean_job, _ = ranged_job()
        assert res.all_records() == (
            LocalEngine().run_serial(clean_job, GlobalBarrier()).all_records()
        )
        got = res.counters.get("recovery.maps_reexecuted")
        if mode != "serial" and model is RecoveryModel.REEXECUTE_ALL:
            # Concurrent modes: re-running every map can invalidate
            # other in-flight reduces (fetch consumed their input),
            # whose recovery adds to the counter — a lower bound is the
            # stable assertion.
            assert got >= reexec
        else:
            assert got == reexec
        if model is RecoveryModel.REEXECUTE_DEPS:
            assert reexec == len(deps[1]) < job.num_map_tasks

    @pytest.mark.parametrize("mode", MODES)
    def test_every_single_failure_is_byte_identical(self, mode):
        """Property-style sweep: for EVERY task, a single transient
        failure of that task yields output byte-identical to the
        fault-free run."""
        job, deps = ranged_job()
        clean = LocalEngine().run_serial(job, GlobalBarrier()).all_records()
        cases = [("map", i, RecoveryModel.PERSISTED) for i in range(8)]
        cases += [
            ("reduce", l, RecoveryModel.REEXECUTE_DEPS) for l in range(4)
        ]
        for task, idx, model in cases:
            when = WHEN_AFTER_FETCH if task == "reduce" else "start"
            engine = LocalEngine(
                retry=FAST_RETRY,
                recovery=model,
                faults=plan_of(transient_rule(task, {idx}, when=when)),
            )
            job2, deps2 = ranged_job()
            res = run(engine, mode, job2, DependencyBarrier(deps2))
            assert res.all_records() == clean, (task, idx, model)

    @pytest.mark.parametrize("mode", MODES)
    def test_acceptance_quarter_of_maps_fail(self, mode):
        """ISSUE acceptance: transient faults on 25% of maps, retried,
        byte-identical output; under REEXECUTE_DEPS a reduce failure
        re-executes only |I_l| < num_maps maps."""
        job, deps = ranged_job()
        clean = LocalEngine().run_serial(job, GlobalBarrier()).all_records()
        engine = LocalEngine(
            retry=FAST_RETRY,
            faults=plan_of(
                FaultRule(
                    task="map", kind=FaultKind.TRANSIENT, fraction=0.25
                ),
                seed=11,
            ),
        )
        res = run(engine, mode, job, DependencyBarrier(deps))
        assert res.all_records() == clean
        assert res.counters.get("task.retries") == 2  # 25% of 8 maps

        job2, deps2 = ranged_job()
        engine2 = LocalEngine(
            retry=FAST_RETRY,
            recovery=RecoveryModel.REEXECUTE_DEPS,
            faults=plan_of(
                transient_rule("reduce", {1}, when=WHEN_AFTER_FETCH)
            ),
        )
        res2 = run(engine2, mode, job2, DependencyBarrier(deps2))
        assert res2.all_records() == clean
        assert (
            0
            < res2.counters.get("recovery.maps_reexecuted")
            < job2.num_map_tasks
        )

    def test_early_results_never_retracted(self):
        """Results delivered through on_reduce_complete before a late
        crash must be final: fired once, identical to the clean run."""
        job, deps = ranged_job()
        clean = LocalEngine().run_serial(job, GlobalBarrier()).outputs
        delivered = {}

        def deliver(p, records):
            assert p not in delivered, "partition delivered twice"
            delivered[p] = list(records)

        engine = LocalEngine(faults=plan_of(crash_rule("map", {7})))
        with pytest.raises(InjectedFaultError):
            engine.run_serial(
                job, DependencyBarrier(deps), on_reduce_complete=deliver
            )
        # Reduces 0..2 depend only on maps 0..5 and fired before map 7.
        assert set(delivered) == {0, 1, 2}
        for p, records in delivered.items():
            assert records == clean[p]

    def test_early_results_never_retracted_threaded(self):
        job, deps = ranged_job()
        clean = LocalEngine().run_serial(job, GlobalBarrier()).outputs
        seen = {}

        def deliver(p, records):
            assert p not in seen, "partition delivered twice"
            seen[p] = list(records)

        engine = LocalEngine(
            map_workers=1, faults=plan_of(crash_rule("map", {7}))
        )
        with pytest.raises(JobFailedError):
            engine.run_threaded(
                job, DependencyBarrier(deps), on_reduce_complete=deliver
            )
        for p, records in seen.items():
            assert records == clean[p]


class TestRecoveryCollision:
    """A recovery re-run and a still-running primary of the same map
    race for one commit window: the first commit wins, the other
    attempt finishes ``lost``.  (A commit that needed a higher attempt
    number used to fail the slow primary with ``ShuffleError`` and run
    the map a third time.)"""

    def test_slow_primaries_lose_to_recovery_reruns(self):
        from repro.query.language import StructuralQuery
        from repro.query.operators import MeanOp
        from repro.query.splits import aligned_slice_splits
        from repro.scidata.generators import temperature_dataset
        from repro.sidr.planner import build_sidr_job

        field = temperature_dataset(days=112, lat=10, lon=8, seed=1)
        data = field.arrays["temperature"]
        plan = StructuralQuery(
            variable="temperature", extraction_shape=(7, 5, 1),
            operator=MeanOp(),
        ).compile(field.metadata)
        splits = aligned_slice_splits(plan, num_splits=16)

        def job():
            return build_sidr_job(plan, splits, 4, data)[:2]

        expected = LocalEngine().run_serial(*job()).all_records()
        slow = frozenset(range(4, 16))
        engine = LocalEngine(
            # A worker per map: every primary is claimed before recovery.
            map_workers=16,
            retry=RetryPolicy(max_attempts=2, backoff_base=0.0),
            recovery=RecoveryModel.REEXECUTE_ALL,
            faults=plan_of(
                FaultRule(task="map", kind=FaultKind.SLOW, indices=slow,
                          attempts=frozenset({0}), delay=0.3),
                transient_rule("reduce", {0}, when=WHEN_AFTER_FETCH),
            ),
        )
        conf, barrier = job()
        assert conf.num_map_tasks == 16
        res = engine.run_threaded(conf, barrier)

        assert not [
            a for a in res.attempts
            if a.outcome == "failed" and a.error == "ShuffleError"
        ]
        assert {
            e.index for e in res.obs.bus.events() if e.type == EV_SPILL_REOPEN
        } == set(range(16))
        outcome = {
            (a.index, a.attempt): a.outcome for a in res.attempts
            if a.kind == "map"
        }
        for m in slow:
            # The stalled primary (attempt 0) lost its window to the
            # recovery re-run.
            assert outcome[(m, 0)] == "lost", m
            assert sorted(
                o for (i, _), o in outcome.items() if i == m
            ) == ["lost", "ok"], m
        assert res.all_records() == expected


# --------------------------------------------------------------------- #
# Zone-map pruning composes with retry and dependency-aware recovery
# --------------------------------------------------------------------- #
def pruned_filter_job(data_plane="record", prune=True):
    """A filter_gt job whose zone map prunes 4 of 6 splits.

    Hot rows live only in the first and last extraction instances, so
    splits 1..4 are provably all-below-threshold: their keys are
    synthesized ([]) rather than computed.  Fault indices below bind to
    the *surviving* split population (2 maps after pruning).
    """
    from repro.query.language import StructuralQuery
    from repro.query.operators import ThresholdFilterOp
    from repro.query.splits import slice_splits
    from repro.scidata.metadata import DatasetMetadata, Dimension, Variable
    from repro.scidata.zonemaps import build_zone_map
    from repro.sidr.planner import build_sidr_job

    rng = np.random.default_rng(7)
    data = rng.uniform(0.0, 1.0, size=(12, 8))
    data[1, :] = 50.0
    data[10, :] = 60.0
    meta = DatasetMetadata(
        dimensions=(Dimension("t", 12), Dimension("x", 8)),
        variables=(Variable("v", "double", ("t", "x")),),
    )
    plan = StructuralQuery(
        variable="v", extraction_shape=(2, 8), operator=ThresholdFilterOp(10.0)
    ).compile(meta)
    splits = slice_splits(plan, num_splits=6)
    zone_map = build_zone_map("v", data, tile_shape=(2, 8))
    job, barrier, sidr = build_sidr_job(
        plan, splits, 3, data,
        data_plane=data_plane, prune=prune, zone_map=zone_map,
    )
    return job, barrier, sidr


class TestPrunedPlanRecovery:
    """ISSUE satellite: pruning must compose with REEXECUTE_DEPS
    recovery — a re-executed map attempt over a pruned plan produces
    the same records (and digest) as the primary attempt."""

    def oracle_digest(self, data_plane):
        from repro.verify import canonicalize_records, records_digest

        job, barrier, _ = pruned_filter_job(data_plane, prune=False)
        res = LocalEngine().run_serial(job, barrier)
        return res.all_records(), records_digest(
            canonicalize_records(res.all_records())
        )

    @pytest.mark.parametrize("plane", ["record", "columnar"])
    @pytest.mark.parametrize("mode", MODES)
    def test_transient_map_on_pruned_plan(self, mode, plane):
        """Retried map over the pruned plan: byte-identical to the
        unpruned fault-free oracle, with synthesized keys intact."""
        from repro.verify import canonicalize_records, records_digest

        clean, digest = self.oracle_digest(plane)
        job, barrier, sidr = pruned_filter_job(plane)
        assert sidr.pruning is not None and sidr.pruning.num_pruned == 4
        assert job.num_map_tasks == 2
        engine = LocalEngine(
            retry=FAST_RETRY, faults=plan_of(transient_rule("map", {0}))
        )
        res = run(engine, mode, job, barrier)
        assert res.all_records() == clean
        assert records_digest(
            canonicalize_records(res.all_records())
        ) == digest
        assert res.counters.get("task.retries") == 1
        assert res.counters.get("plan.splits.pruned") == 4
        map0 = [a for a in res.attempts if a.kind == "map" and a.index == 0]
        assert [a.outcome for a in map0] == ["failed", "ok"]

    @pytest.mark.parametrize("plane", ["record", "columnar"])
    @pytest.mark.parametrize("mode", MODES)
    def test_reexecute_deps_on_pruned_plan(self, mode, plane):
        """A reduce that dies after consuming its input re-executes only
        its dependency set — which pruning has already shrunk to the
        surviving maps.  Partition 1 owns nothing but synthesized keys,
        so its I_l is empty; partition 0 still depends on map 0."""
        clean, _ = self.oracle_digest(plane)
        job, barrier, _ = pruned_filter_job(plane)
        assert barrier.dependencies_of(1) == frozenset()
        assert barrier.dependencies_of(0)
        engine = LocalEngine(
            retry=FAST_RETRY,
            recovery=RecoveryModel.REEXECUTE_DEPS,
            faults=plan_of(
                transient_rule("reduce", {0}, when=WHEN_AFTER_FETCH)
            ),
        )
        res = run(engine, mode, job, barrier)
        assert res.all_records() == clean
        reexec = res.counters.get("recovery.maps_reexecuted")
        assert 0 < reexec <= job.num_map_tasks
        assert reexec == len(barrier.dependencies_of(0))

    @pytest.mark.parametrize("mode", MODES)
    def test_every_single_failure_on_pruned_plan(self, mode):
        """Sweep: any one surviving task failing transiently leaves the
        pruned job's output byte-identical to the unpruned oracle."""
        clean, _ = self.oracle_digest("record")
        cases = [("map", i) for i in range(2)] + [
            ("reduce", l) for l in range(3)
        ]
        for task, idx in cases:
            when = WHEN_AFTER_FETCH if task == "reduce" else "start"
            engine = LocalEngine(
                retry=FAST_RETRY,
                recovery=RecoveryModel.REEXECUTE_DEPS,
                faults=plan_of(transient_rule(task, {idx}, when=when)),
            )
            job, barrier, _ = pruned_filter_job("record")
            res = run(engine, mode, job, barrier)
            assert res.all_records() == clean, (task, idx)


# --------------------------------------------------------------------- #
# Observability of retries
# --------------------------------------------------------------------- #
class TestRetryObservability:
    def test_retry_metrics_and_spans(self):
        engine = LocalEngine(
            retry=FAST_RETRY, faults=plan_of(transient_rule("map", {0}))
        )
        res = engine.run_serial(counting_job(), GlobalBarrier())
        m = res.obs.metrics
        assert m.counter("task.retries").value == 1
        assert m.counter("task.attempts").value == res.counters.get(
            "task.attempts"
        ) >= 1
        assert m.histogram("task.retry.backoff").count == 1
        spans = res.obs.spans()
        retry_spans = [s for s in spans if s.name == "task.retry"]
        assert len(retry_spans) == 1
        assert retry_spans[0].args["attempt"] == 0
        attempt_spans = [
            s for s in spans if s.name == "map" and s.args.get("attempt")
        ]
        assert len(attempt_spans) == 1
        assert attempt_spans[0].args["attempt"] == 1

    @pytest.mark.parametrize("mode", MODES)
    def test_recovery_metrics(self, mode):
        job, deps = ranged_job()
        engine = LocalEngine(
            retry=FAST_RETRY,
            recovery=RecoveryModel.REEXECUTE_DEPS,
            faults=plan_of(
                transient_rule("reduce", {1}, when=WHEN_AFTER_FETCH)
            ),
        )
        res = run(engine, mode, job, DependencyBarrier(deps))
        m = res.obs.metrics
        assert m.counter("recovery.maps_reexecuted").value == 2
        assert m.histogram("recovery.seconds").count == 1


class TestOneCounterLedger:
    """``Counters`` is the ledger; the whole of it is copied into the
    metrics registry once per run, under the same names, so the two
    agree in every mode."""

    @staticmethod
    def assert_mirrored(res, *, nonzero):
        exported = res.obs.metrics.snapshot()["counters"]
        for name, value in res.counters.as_dict().items():
            assert exported[name] == value, name
        for name in nonzero:
            assert res.counters.get(name) > 0, name

    @pytest.mark.parametrize("mode", _KNOWN)
    def test_pruned_columnar_recovery_run(self, mode):
        job, barrier, _ = pruned_filter_job("columnar")
        engine = LocalEngine(
            retry=FAST_RETRY,
            recovery=RecoveryModel.REEXECUTE_DEPS,
            faults=plan_of(
                transient_rule("reduce", {0}, when=WHEN_AFTER_FETCH)
            ),
        )
        res = run(engine, mode, job, barrier)
        self.assert_mirrored(
            res,
            nonzero=(
                "plane.batched.instances",
                "pushdown.rows.masked",
                "plan.splits.pruned",
                "plan.keys.synthesized",
                "barrier.early.starts",
                "recovery.maps_reexecuted",
            ),
        )

    @pytest.mark.parametrize("mode", _KNOWN)
    def test_deadline_partial_run(self, mode):
        engine = LocalEngine(
            faults=plan_of(
                FaultRule(
                    task="map", kind=FaultKind.HANG, indices=frozenset({0})
                )
            )
        )
        job = counting_job(deadline=0.2, on_deadline="partial")
        res = run(engine, mode, job, GlobalBarrier())
        assert res.partial
        self.assert_mirrored(
            res, nonzero=("task.cancelled", "job.deadline.expired")
        )
