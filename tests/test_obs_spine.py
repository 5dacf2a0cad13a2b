"""One event spine: live ≡ replay over the record, and an emission guard.

A run publishes each lifecycle occurrence once and its bus keeps it;
spans, registry metrics, lifecycle ``Counters``, the flat
``EngineTrace`` and ``JobResult.attempts`` are readings of that record.
So the ``--events`` JSONL of a run is the record event for event, and
fed through *fresh* folds it must reproduce what the run reported — in
every engine mode and on the fault paths — while nothing listens on a
run's bus unless it must act.
"""

import ast
import inspect
import json
from pathlib import Path

import pytest

import repro
from repro.errors import BarrierViolationError, JobFailedError
from repro.faults import FaultKind, FaultRule, InjectionPlan, RecoveryModel
from repro.faults.plan import WHEN_AFTER_FETCH
from repro.mapreduce.counters import Counters
from repro.mapreduce.engine import (
    DependencyBarrier,
    EngineTrace,
    GlobalBarrier,
    JobResult,
    LocalEngine,
    RetryPolicy,
    task_attempts,
)
from repro.obs import (
    EventBus,
    JobObservability,
    JsonlEventWriter,
    MetricsRegistry,
)
from repro.obs.live import read_events
from repro.obs.folds import MetricsFold
from repro.obs.spans import spans
from repro.spec import SpeculationPolicy

from tests.test_mapreduce_engine import counting_job, ranged_job
from tests.test_service_execution import watched_bus

MODES = ("serial", "threaded")
FAST_RETRY = RetryPolicy(max_attempts=3)
LIFECYCLE = (
    "task.attempts", "task.failures", "task.retries", "task.cancelled",
    "task.speculations", "faults.injected", "recovery.maps_reexecuted",
    "barrier.early.starts", "job.deadline.expired",
)


def rule(task, kind, index, **kw):
    return InjectionPlan(
        rules=(FaultRule(task=task, kind=kind, indices=frozenset({index}), **kw),)
    )


def fault_free():
    job, deps = ranged_job()
    return LocalEngine(), job, DependencyBarrier(deps)


def crash_reexecute_deps():
    job, deps = ranged_job()
    engine = LocalEngine(
        retry=FAST_RETRY,
        recovery=RecoveryModel.REEXECUTE_DEPS,
        faults=rule("reduce", FaultKind.TRANSIENT, 1, when=WHEN_AFTER_FETCH),
    )
    return engine, job, DependencyBarrier(deps)


def hang_speculate():
    engine = LocalEngine(
        speculation=SpeculationPolicy(hang_timeout=0.08),
        retry=FAST_RETRY,
        faults=rule("map", FaultKind.HANG, 1, times=1),
    )
    return engine, counting_job(num_splits=4, num_reduces=2), GlobalBarrier()


def deadline_partial():
    # The last map hangs: reduces 0..2 commit early, reduce 3 never fires.
    engine = LocalEngine(faults=rule("map", FaultKind.HANG, 7))
    job, deps = ranged_job(deadline=0.3, on_deadline="partial")
    return engine, job, DependencyBarrier(deps)


SCENARIOS = {
    "fault-free": (fault_free, ()),
    "crash+reexecute-deps": (
        crash_reexecute_deps,
        ("task.retries", "faults.injected", "recovery.maps_reexecuted"),
    ),
    "hang+speculate": (hang_speculate, ("task.cancelled",)),
    "deadline-partial": (
        deadline_partial, ("job.deadline.expired", "barrier.early.starts"),
    ),
}


def span_list(spans):
    """Every span, phases included, as the JSONL can carry it: times to
    the microsecond ``Event.to_json`` keeps, args through JSON."""
    return [
        (s.name, s.category, s.track, s.parent_id, round(s.start, 6),
         None if s.end is None else round(s.end, 6),
         json.loads(json.dumps(s.args)))
        for s in spans
    ]


class TestLiveEqualsReplay:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_every_fold(self, tmp_path, mode, scenario):
        build, nonzero = SCENARIOS[scenario]
        engine, job, barrier = build()
        bus = EventBus()
        obs = JobObservability(job.name, bus=bus)
        path = tmp_path / "events.jsonl"
        with JsonlEventWriter(bus, path) as writer:
            res = engine.run(job, barrier, mode=mode, obs=obs)
        assert writer.write_errors == 0
        assert bus.listener_errors == 0, bus.first_listener_error
        for name in nonzero:
            assert res.counters.get(name) > 0, name

        events = read_events(path)
        # The JSONL is the run's record, event for event.
        assert [e.to_json() for e in events] == [
            json.loads(json.dumps(e.to_json())) for e in bus.events()
        ]

        registry = MetricsRegistry()
        metrics = MetricsFold(registry)
        for ev in events:
            metrics(ev)
        counters = Counters()
        counters.fold(events)
        trace, attempts = EngineTrace(events), task_attempts(events)

        live = res.obs.metrics.snapshot()
        replay = registry.snapshot()
        assert replay["counters"]["shuffle.fetch.connections"] > 0
        for name, value in replay["counters"].items():
            assert live["counters"][name] == value, name
        assert "barrier.wait.seconds" in replay["histograms"]
        assert "shuffle.fetch.seconds" in replay["histograms"]
        for name, hist in replay["histograms"].items():
            assert live["histograms"][name]["count"] == hist["count"], name
        assert live["gauges"]["obs.tasks.inflight"] == 0.0
        assert replay["gauges"]["obs.tasks.inflight"] == 0.0
        assert live["gauges"]["obs.bus.listener_errors"] == 0.0

        live_spans = res.obs.spans()
        assert {s.category for s in live_spans} >= {"job", "task", "phase"}
        assert span_list(spans(events)) == span_list(live_spans)
        assert [(e.kind, e.event, e.index) for e in trace.events] == [
            (e.kind, e.event, e.index) for e in res.trace.events
        ]
        assert {n: counters.get(n) for n in LIFECYCLE} == {
            n: res.counters.get(n) for n in LIFECYCLE
        }
        # ... and the registry's finish-time export is that same ledger.
        for name, value in res.counters.as_dict().items():
            assert live["counters"][name] == value, name

        def outcomes(log):
            return [(a.kind, a.index, a.attempt, a.outcome, a.error) for a in log]

        assert outcomes(attempts) == outcomes(res.attempts)
        assert res.attempts, "no attempts recorded"


class TestAttemptBoundaries:
    """What lies inside a published attempt and what does not."""

    def test_slow_recovery_is_not_a_hung_reduce(self):
        """Dependency recovery runs ahead of the retry's ``task.start``:
        re-running maps slower than ``hang_timeout`` must neither get
        the waiting reduce flagged as hung nor land on its clock."""
        job, deps = ranged_job()
        plan = InjectionPlan(rules=(
            FaultRule(task="reduce", kind=FaultKind.TRANSIENT,
                      indices=frozenset({1}), when=WHEN_AFTER_FETCH),
            # Only the recovery re-runs (attempt 1) are slow: maps raced
            # in their first run hit ROADMAP open item 6 on re-execution.
            FaultRule(task="map", kind=FaultKind.SLOW,
                      indices=frozenset({2, 3}), attempts=frozenset({1}),
                      delay=0.3),
        ))
        engine = LocalEngine(
            retry=RetryPolicy(max_attempts=3),
            recovery=RecoveryModel.REEXECUTE_DEPS,
            speculation=SpeculationPolicy(hang_timeout=0.15),
            faults=plan,
        )
        obs = JobObservability(job.name, bus=EventBus())
        res = engine.run_threaded(job, DependencyBarrier(deps), obs=obs)
        events = obs.bus.events()

        oracle = LocalEngine().run_serial(job, DependencyBarrier(deps))
        assert res.outputs == oracle.outputs
        reduce1 = [a for a in res.attempts if (a.kind, a.index) == ("reduce", 1)]
        assert [a.outcome for a in reduce1] == ["failed", "ok"]
        # (the slow maps themselves may be flagged and raced; the reduce not)
        assert not [
            e for e in events if e.type == "task.cancelled" and e.kind == "reduce"
        ]
        assert res.counters.get("recovery.maps_reexecuted") == 2
        assert reduce1[1].seconds < 0.3  # two 0.3 s maps are not on it
        (recovered,) = [e.seq for e in events if e.type == "recovery.reexecute"]
        (restarted,) = [
            e.seq for e in events
            if (e.type, e.kind, e.index, e.attempt) == ("task.start", "reduce", 1, 1)
        ]
        assert recovered < restarted

    @pytest.mark.parametrize("mode", MODES)
    def test_non_retryable_error_finishes_failed(self, mode):
        """Every ``task.start`` has its ``task.finish``: an attempt that
        dies of a non-retryable error is a failed attempt in the ledger
        (and is not retried)."""
        class Strict:
            def validate(self, partition, tally):
                if partition == 1:
                    raise BarrierViolationError("nope")

        job, deps = ranged_job()
        job.context["reduce_start_validator"] = Strict()
        engine = LocalEngine(retry=FAST_RETRY)
        obs = JobObservability(job.name, bus=EventBus())
        with pytest.raises((BarrierViolationError, JobFailedError)):
            engine.run(job, DependencyBarrier(deps), mode=mode, obs=obs)
        log = task_attempts(obs.bus.events())
        (broken,) = [a for a in log if (a.kind, a.index) == ("reduce", 1)]
        assert (broken.outcome, broken.error) == ("failed", "BarrierViolationError")


class TestAnObservedRunListensToNothing:
    @pytest.mark.parametrize("mode", MODES)
    def test_no_listener_on_a_callers_bus(self, mode):
        """An observed run (``observability=True``, no speculation) on a
        caller's bus attaches nothing: every publish, phases included,
        sees 0 listeners, and its spans are read off the record."""
        published = []
        job, deps = ranged_job()
        obs = JobObservability(job.name, bus=watched_bus(published)())
        res = LocalEngine(observability=True).run(
            job, DependencyBarrier(deps), mode=mode, obs=obs
        )
        types = [t for t, _ in published]
        assert types.count("job.start") == types.count("job.finish") == 1
        assert types.count("task.phase") == 2 * (
            job.num_map_tasks + job.num_reduce_tasks
        )
        assert {listeners for _, listeners in published} == {0}
        assert sum(s.category == "phase" for s in res.obs.spans()) == types.count(
            "task.phase"
        )


class TestEmissionGuard:
    """Lifecycle occurrences are published, not reported by hand, and
    read back at the finish site: no engine-side module bumps a
    registry counter, calls a listener directly or attaches one — the
    speculation runtime reads the record on its ticker — and the run's
    own observability attaches nothing."""

    PACKAGES = ("mapreduce", "spec", "sidr", "sim")
    #: Engine-side modules allowed to attach a listener: none.
    ACTING = ()

    @staticmethod
    def offences(tree):
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                continue
            attr, owner = node.func.attr, node.func.value
            owner_name = getattr(owner, "attr", getattr(owner, "id", ""))
            if attr == "counter" and owner_name in ("metrics", "_metrics"):
                yield node.lineno, ".metrics.counter("
            elif attr == "on_event" and not (
                isinstance(owner, ast.Call)
                and getattr(owner.func, "id", "") == "super"
            ):
                yield node.lineno, ".on_event("
            elif attr in ("attach", "detach"):
                yield node.lineno, f".{attr}("

    def test_engine_side_modules_publish(self):
        root = Path(repro.__file__).parent
        found = []
        for package in self.PACKAGES:
            for path in sorted((root / package).rglob("*.py")):
                rel = str(path.relative_to(root))
                tree = ast.parse(path.read_text())
                found += [
                    f"{rel}:{line} {what}"
                    for line, what in self.offences(tree)
                    if not (what in (".attach(", ".detach(") and rel in self.ACTING)
                ]
        assert found == []

    def test_only_the_explorer_attaches(self):
        """The one listener in ``src/`` is the verifier's chaos hook,
        attached by the interleaving explorer."""
        root = Path(repro.__file__).parent
        attaching = sorted(
            str(path.relative_to(root))
            for path in root.rglob("*.py")
            if any(
                what == ".attach("
                for _, what in self.offences(ast.parse(path.read_text()))
            )
        )
        assert attaching == ["verify/explorer.py"]

    def test_job_observability_attaches_nothing(self):
        path = Path(repro.__file__).parent / "obs" / "jobobs.py"
        found = [
            what for _, what in self.offences(ast.parse(path.read_text()))
            if what in (".attach(", ".detach(")
        ]
        assert found == []

    def test_attempt_loop_only_publishes(self):
        source = inspect.getsource(LocalEngine._run_attempts)
        assert 'counters.increment("task.' not in source
        assert "state.record(" not in source
        assert source.count("EV_TASK_START") == 1

    def test_readings_are_taken_at_the_finish_site(self):
        """The run's trace and attempts are read off the slice
        ``obs.finish`` returns, which folds the lifecycle tallies and
        the registry metrics over the same slice: the result keeps that
        slice, and reads it the first time each is asked for."""
        run = inspect.getsource(LocalEngine._run_job)
        finish = run.index("obs.finish(")
        assert run.count("obs.finish(") == 1
        assert run.index("events=events") > finish
        for prop, reading in (
            (JobResult.trace, "EngineTrace(self._events)"),
            (JobResult.attempts, "task_attempts(self._events)"),
        ):
            assert reading in inspect.getsource(prop.func), reading
        fold = inspect.getsource(JobObservability.fold)
        assert "counters.fold(events)" in fold
        assert "MetricsFold(self.metrics)" in fold
