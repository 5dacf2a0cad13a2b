"""Interleaving explorer: the record as its log, invariant checks,
determinism."""

import pytest

from repro.errors import JobConfigError
from repro.faults import FaultKind, FaultRule, InjectionPlan, RecoveryModel
from repro.faults.plan import WHEN_AFTER_FETCH
from repro.mapreduce.engine import (
    DependencyBarrier,
    LocalEngine,
    LogicalClock,
    RetryPolicy,
)
from repro.mapreduce.job import JobConf
from repro.mapreduce.mapper import IdentityMapper
from repro.mapreduce.partitioner import RangePartitioner
from repro.mapreduce.reducer import FunctionReducer
from repro.mapreduce.splits import ByteRangeSplit
from repro.obs import Event, EventBus, JobObservability
from repro.obs.live.bus import (
    EV_BARRIER_FIRE,
    EV_FETCH,
    EV_REDUCE_START,
    EV_SPILL_COMMIT,
    EV_SPILL_REOPEN,
    EV_TASK_SPECULATE,
    EV_TASK_START,
)
from repro.verify import (
    SCHEDULING_POINTS,
    ChaosHook,
    check_interleaving_invariants,
    explore,
)
from repro.verify.hooks import _event_delay


def crafted_job():
    """3 maps / 2 reduces with disjoint dependencies: split i emits key
    (i,); reduce 0 depends on maps {0, 1}, reduce 1 on {2}."""

    def reader(split):
        yield ((split.index,), split.index * 10)
        yield ((split.index,), 1)

    job = JobConf(
        name="crafted",
        splits=[
            ByteRangeSplit(index=i, path="/f", start=i * 10, length=10)
            for i in range(3)
        ],
        reader_factory=reader,
        mapper_factory=IdentityMapper,
        reducer_factory=lambda: FunctionReducer(lambda k, vals: [(k, sum(vals))]),
        partitioner=RangePartitioner((3,), [2, 3]),
        num_reduce_tasks=2,
        contact_all_maps=False,
    )
    barrier = DependencyBarrier({0: frozenset({0, 1}), 1: frozenset({2})})
    return job, barrier


EXPECTED = {(0,): 1, (1,): 11, (2,): 21}


def types_seen(res):
    return {e.type for e in res.obs.bus.events()}


class TestHookSeam:
    def test_all_five_points_fire_threaded(self):
        job, barrier = crafted_job()
        res = LocalEngine(observability=False).run_threaded(job, barrier)
        assert dict(res.all_records()) == EXPECTED
        # speculate only fires when a backup attempt launches
        assert (
            types_seen(res) & SCHEDULING_POINTS
            == SCHEDULING_POINTS - {EV_TASK_SPECULATE}
        )
        assert res.obs.bus.listener_errors == 0

    def test_all_five_points_fire_serial(self):
        job, barrier = crafted_job()
        res = LocalEngine(observability=False).run_serial(job, barrier)
        assert (
            types_seen(res) & SCHEDULING_POINTS
            == SCHEDULING_POINTS - {EV_TASK_SPECULATE}
        )

    def test_events_carry_task_identity(self):
        job, barrier = crafted_job()
        res = LocalEngine(observability=False).run_serial(job, barrier)
        events = res.obs.bus.events()
        spills = [e for e in events if e.type == EV_SPILL_COMMIT]
        assert sorted(e.index for e in spills) == [0, 1, 2]
        fetches = [e for e in events if e.type == EV_FETCH]
        # reduce 0 fetches maps {0,1}; reduce 1 fetches {2}
        assert sorted((e.index, e.data["map"]) for e in fetches) == [
            (0, 0), (0, 1), (1, 2),
        ]

    def test_no_hook_means_no_events(self):
        """A run nobody watches attaches nothing to its bus: the record
        is the whole log."""
        job, barrier = crafted_job()
        res = LocalEngine(observability=False).run_threaded(job, barrier)
        assert dict(res.all_records()) == EXPECTED
        assert res.obs.bus._listeners == ()

    def test_chaos_delay_is_deterministic_and_order_independent(self):
        kw = dict(max_delay=0.002, density=0.6)
        a = _event_delay(3, 1, ev(0, EV_FETCH, "reduce", 0, map=1), **kw)
        # identity, not arrival: seq and t do not enter the delay
        b = _event_delay(3, 1, ev(7, EV_FETCH, "reduce", 0, map=1), **kw)
        assert a == b
        assert 0.0 <= a <= 0.002
        # different schedule → (almost surely) different perturbation
        delays_s1 = [
            _event_delay(3, 1, ev(0, EV_FETCH, "reduce", i), **kw)
            for i in range(16)
        ]
        delays_s2 = [
            _event_delay(3, 2, ev(0, EV_FETCH, "reduce", i), **kw)
            for i in range(16)
        ]
        assert delays_s1 != delays_s2


class TestExplorer:
    def test_crafted_job_explores_clean(self):
        report = explore(crafted_job, schedules=4, seed=0)
        assert report.ok, report.summary()
        assert len(report.runs) == 4
        assert report.baseline_status == "ok"
        assert all(r.digest == report.baseline_digest for r in report.runs)
        assert all(r.num_events > 0 for r in report.runs)

    def test_explore_under_fault_plan_with_supersede(self):
        # Reduce 0 dies after consuming its fetch; REEXECUTE_DEPS
        # re-runs maps {0,1}, whose re-spills supersede the originals.
        faults = InjectionPlan(
            rules=(
                FaultRule(
                    task="reduce",
                    kind=FaultKind.TRANSIENT,
                    indices=frozenset({0}),
                    times=1,
                    when=WHEN_AFTER_FETCH,
                ),
            ),
            seed=0,
        )

        def factory():
            return LocalEngine(
                observability=False,
                retry=RetryPolicy(max_attempts=4, backoff_base=0.0),
                faults=faults,
                recovery=RecoveryModel.REEXECUTE_DEPS,
            )

        report = explore(
            crafted_job, schedules=4, seed=1, engine_factory=factory
        )
        assert report.ok, report.summary()
        # the fault actually fired: some schedule recorded a supersede
        assert report.baseline_status == "ok"

    def test_a_lossy_byte_form_is_divergent(self, monkeypatch):
        """Every run decodes the bytes its digest hashes: a ``to_bytes``
        that drops a row agrees with itself on every schedule, and is
        still reported."""
        from repro.mapreduce.columnar import ResultBlock

        real = ResultBlock.to_bytes
        monkeypatch.setattr(ResultBlock, "to_bytes", lambda self: real(self[:-1]))
        report = explore(crafted_job, schedules=3, seed=0)
        assert not report.ok
        assert report.baseline_status == "diverged"
        assert report.divergent == (0, 1, 2)
        assert all(r.digest == report.baseline_digest for r in report.runs)

    def test_explorer_counts_metrics(self):
        from repro.obs.metrics import MetricsRegistry

        m = MetricsRegistry()
        report = explore(crafted_job, schedules=3, seed=0, metrics=m)
        assert report.ok
        assert m.counter("verify.explorer.schedules").value == 3
        assert m.counter("verify.explorer.violations").value == 0
        assert m.counter("verify.explorer.divergent").value == 0


def ev(seq, type, kind, index, attempt=0, **data):
    return Event(
        seq=seq, t=0.0, type=type, kind=kind, index=index, attempt=attempt,
        data=data,
    )


class TestInvariantChecks:
    """Synthetic event logs: each invariant must catch its breach."""

    BARRIER = DependencyBarrier({0: frozenset({0, 1}), 1: frozenset({2})})

    def test_clean_log_passes(self):
        events = [
            ev(0, EV_SPILL_COMMIT, "map", 0, 0, partitions=(0,)),
            ev(1, EV_SPILL_COMMIT, "map", 1, 0, partitions=(0,)),
            ev(2, EV_BARRIER_FIRE, "reduce", 0, 0, maps_done=2, early=True),
            ev(3, EV_TASK_START, "reduce", 0, 0),
            ev(4, EV_REDUCE_START, "reduce", 0, 0, completed=(0, 1)),
            ev(5, EV_FETCH, "reduce", 0, 0, map=0, map_attempt=0, empty=False),
            ev(6, EV_FETCH, "reduce", 0, 0, map=1, map_attempt=0, empty=False),
        ]
        assert (
            check_interleaving_invariants(
                events, barrier=self.BARRIER, total_maps=3
            )
            == []
        )

    def test_early_reduce_detected(self):
        events = [
            ev(0, EV_SPILL_COMMIT, "map", 0, 0, partitions=(0,)),
            ev(1, EV_BARRIER_FIRE, "reduce", 0, 0, maps_done=1, early=True),
            ev(2, EV_REDUCE_START, "reduce", 0, 0, completed=(0,)),
        ]
        found = check_interleaving_invariants(
            events, barrier=self.BARRIER, total_maps=3
        )
        assert any(v.invariant == "no-early-reduce" for v in found)

    def test_reduce_start_without_barrier_ready_detected(self):
        events = [
            ev(0, EV_SPILL_COMMIT, "map", 0, 0, partitions=(0,)),
            ev(1, EV_SPILL_COMMIT, "map", 1, 0, partitions=(0,)),
            ev(2, EV_REDUCE_START, "reduce", 0, 0, completed=(0, 1)),
        ]
        found = check_interleaving_invariants(
            events, barrier=self.BARRIER, total_maps=3
        )
        assert [v.invariant for v in found] == ["no-early-reduce"]

    def test_fetch_outside_dependency_set_detected(self):
        events = [
            ev(0, EV_SPILL_COMMIT, "map", 2, 0, partitions=(1,)),
            ev(1, EV_FETCH, "reduce", 0, 0, map=2, map_attempt=0, empty=False),
        ]
        found = check_interleaving_invariants(
            events, barrier=self.BARRIER, total_maps=3
        )
        assert any(v.invariant == "fetch-discipline" for v in found)

    def test_stale_serve_detected(self):
        events = [
            ev(0, EV_SPILL_COMMIT, "map", 0, 0, partitions=(0,)),
            ev(1, EV_SPILL_COMMIT, "map", 0, 1, partitions=(0,),
               superseded=True),
            ev(2, EV_FETCH, "reduce", 0, 0, map=0, map_attempt=0, empty=False),
        ]
        found = check_interleaving_invariants(
            events, barrier=self.BARRIER, total_maps=3
        )
        assert any(v.invariant == "no-stale-serve" for v in found)

    def test_latest_commit_is_served_whatever_its_attempt(self):
        """A reopened window may be committed by a lower attempt number
        (a stalled primary outliving a re-run's rival): the latest
        commit, not the highest attempt, is what a fetch must get."""
        log = [
            ev(0, EV_SPILL_COMMIT, "map", 0, 1, partitions=(0,)),
            ev(1, EV_SPILL_REOPEN, "map", 0, 0, window=1),
            ev(2, EV_SPILL_COMMIT, "map", 0, 0, partitions=(0,),
               superseded=True),
        ]

        def stale(served):
            fetch = ev(3, EV_FETCH, "reduce", 0, 0, map=0,
                       map_attempt=served, empty=False)
            return [
                v for v in check_interleaving_invariants(
                    log + [fetch], barrier=self.BARRIER, total_maps=3
                )
                if v.invariant == "no-stale-serve"
            ]

        assert stale(0) == []
        assert len(stale(1)) == 1

    def test_fetch_before_any_commit_detected(self):
        events = [
            ev(0, EV_FETCH, "reduce", 0, 0, map=0, map_attempt=0, empty=True),
        ]
        found = check_interleaving_invariants(
            events, barrier=self.BARRIER, total_maps=3
        )
        assert any(v.invariant == "no-stale-serve" for v in found)

    def test_supersede_observed_detected(self):
        from repro.mapreduce.engine import TaskAttempt

        events = [
            ev(0, EV_SPILL_COMMIT, "map", 0, 0, partitions=(0,)),
            ev(1, EV_SPILL_COMMIT, "map", 1, 0, partitions=(0,)),
            ev(2, EV_TASK_START, "reduce", 0, 1),
            ev(3, EV_FETCH, "reduce", 0, 0, map=0, map_attempt=0, empty=False),
            # map 0 is re-spilled (attempt 1) before the fetch phase ends
            ev(4, EV_SPILL_COMMIT, "map", 0, 1, partitions=(0,),
               superseded=True),
            ev(5, EV_FETCH, "reduce", 0, 0, map=1, map_attempt=0, empty=False),
        ]
        attempts = (
            TaskAttempt(kind="reduce", index=0, attempt=1, outcome="ok"),
        )
        found = check_interleaving_invariants(
            events, barrier=self.BARRIER, total_maps=3, attempts=attempts
        )
        assert any(v.invariant == "supersede-observed" for v in found)
        # …but if the attempt never committed, the freshness guard did
        # its job and there is no violation.
        found = check_interleaving_invariants(
            events, barrier=self.BARRIER, total_maps=3, attempts=()
        )
        assert not any(v.invariant == "supersede-observed" for v in found)

    def _reduce0_log(self, *fetches):
        return [
            ev(0, EV_SPILL_COMMIT, "map", 0, 0, partitions=(0,)),
            ev(1, EV_SPILL_COMMIT, "map", 1, 0, partitions=()),
            ev(2, EV_BARRIER_FIRE, "reduce", 0, 0, maps_done=2, early=True),
            ev(3, EV_TASK_START, "reduce", 0, 1),
            ev(4, EV_REDUCE_START, "reduce", 0, 1, completed=(0, 1)),
            *fetches,
        ]

    def _input_complete(self, events, attempts):
        found = check_interleaving_invariants(
            events, barrier=self.BARRIER, total_maps=3, attempts=attempts
        )
        return [v for v in found if v.invariant == "input-complete"]

    def test_empty_stand_in_for_produced_data_detected(self):
        from repro.mapreduce.engine import TaskAttempt

        ok = (TaskAttempt(kind="reduce", index=0, attempt=1, outcome="ok"),)
        # Attempt 0 consumed map 0's data (map 1 had none) and failed.
        consumed = [
            ev(0, EV_SPILL_COMMIT, "map", 0, 0, partitions=(0,)),
            ev(1, EV_SPILL_COMMIT, "map", 1, 0, partitions=()),
            ev(2, EV_BARRIER_FIRE, "reduce", 0, 0, maps_done=2, early=True),
            ev(3, EV_TASK_START, "reduce", 0, 0),
            ev(4, EV_REDUCE_START, "reduce", 0, 0, completed=(0, 1)),
            ev(5, EV_FETCH, "reduce", 0, 0, map=0, map_attempt=0, empty=False),
            ev(6, EV_FETCH, "reduce", 0, 0, map=1, map_attempt=0, empty=True),
            ev(7, EV_TASK_START, "reduce", 0, 1),
            ev(8, EV_REDUCE_START, "reduce", 0, 1, completed=(0, 1)),
        ]
        # The retry is served an empty stand-in for it ...
        dropped = consumed + [
            ev(9, EV_FETCH, "reduce", 0, 0, map=0, map_attempt=0, empty=True),
            ev(10, EV_FETCH, "reduce", 0, 0, map=1, map_attempt=0, empty=True),
        ]
        (violation,) = self._input_complete(dropped, ok)
        assert "empty fetch from map 0" in violation.detail
        # (an attempt that did not commit may have lost its input: the
        # one that commits is what has to be whole)
        assert self._input_complete(dropped, ()) == []
        # ... instead of the re-executed map's fresh output.
        recovered = consumed + [
            ev(9, EV_SPILL_COMMIT, "map", 0, 1, partitions=(0,),
               superseded=True),
            ev(10, EV_FETCH, "reduce", 0, 0, map=0, map_attempt=1, empty=False),
            ev(11, EV_FETCH, "reduce", 0, 0, map=1, map_attempt=0, empty=True),
        ]
        assert self._input_complete(recovered, ok) == []

    def test_unfetched_dependency_detected(self):
        from repro.mapreduce.engine import TaskAttempt

        ok = (TaskAttempt(kind="reduce", index=0, attempt=1, outcome="ok"),)
        partial = self._reduce0_log(
            ev(5, EV_FETCH, "reduce", 0, 0, map=0, map_attempt=0, empty=False),
        )
        (violation,) = self._input_complete(partial, ok)
        assert "without fetching maps [1]" in violation.detail

    def test_each_race_generation_has_its_own_winner(self):
        """A map hedged in its first run and again in its recovery
        re-run commits one attempt per commit window — not a double
        winner — while two commits inside one window still are."""
        two_races = [
            ev(0, EV_TASK_SPECULATE, "map", 0, 1, of=0, mode="race"),
            ev(1, EV_SPILL_COMMIT, "map", 0, 1, partitions=(0,)),
            ev(2, EV_SPILL_REOPEN, "map", 0, 0, window=1),
            ev(3, EV_TASK_SPECULATE, "map", 0, 3, of=2, mode="race"),
            ev(4, EV_SPILL_COMMIT, "map", 0, 3, partitions=(0,)),
        ]
        assert check_interleaving_invariants(
            two_races, barrier=self.BARRIER, total_maps=3
        ) == []
        # a second backup of the same flagged attempt races in its window
        one_race = [
            ev(0, EV_TASK_SPECULATE, "map", 0, 1, of=0, mode="race"),
            ev(1, EV_TASK_SPECULATE, "map", 0, 2, of=0, mode="race"),
            ev(2, EV_SPILL_COMMIT, "map", 0, 1, partitions=(0,)),
            ev(3, EV_SPILL_COMMIT, "map", 0, 2, partitions=(0,)),
        ]
        found = check_interleaving_invariants(
            one_race, barrier=self.BARRIER, total_maps=3
        )
        assert [v.invariant for v in found] == ["at-most-one-winner"]

    def test_unknown_partition_raises_config_error(self):
        events = [
            ev(0, EV_FETCH, "reduce", 9, 0, map=0, map_attempt=0, empty=False),
        ]
        with pytest.raises(JobConfigError):
            check_interleaving_invariants(
                events, barrier=self.BARRIER, total_maps=3
            )


class TestTraceDeterminism:
    """Satellite (c): on a bus with an injected LogicalClock the
    EngineTrace is bit-stable across repeated serial replays."""

    def run_once(self):
        job, barrier = crafted_job()
        obs = JobObservability(
            job.name, enabled=False, bus=EventBus(clock=LogicalClock())
        )
        res = LocalEngine(observability=False).run_serial(job, barrier, obs=obs)
        return dict(res.all_records()), [
            (e.seq, e.wall, e.kind, e.event, e.index)
            for e in res.trace.events
        ]

    def test_repeated_runs_identical(self):
        out1, trace1 = self.run_once()
        out2, trace2 = self.run_once()
        assert out1 == EXPECTED
        assert out1 == out2
        assert trace1, "trace recorded no events"
        assert trace1 == trace2

    def test_logical_clock_monotonic_and_threadsafe(self):
        clk = LogicalClock(step=0.5)
        vals = [clk() for _ in range(5)]
        assert vals == [0.5, 1.0, 1.5, 2.0, 2.5]

    def test_chaos_hook_rejects_bad_params(self):
        with pytest.raises(ValueError):
            ChaosHook(max_delay=-1.0)
        with pytest.raises(ValueError):
            ChaosHook(density=0.0)
