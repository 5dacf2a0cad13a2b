"""Speculative execution: hang detection, hedged races, cancellation,
deadlines — units through full engine round-trips."""

import sys
import threading
import time
from collections import Counter

import numpy as np
import pytest

from repro.errors import (
    JobConfigError,
    JobFailedError,
    TaskCancelledError,
)
from repro.faults import FaultKind, FaultRule, InjectionPlan
from repro.mapreduce.engine import LocalEngine, RetryPolicy
from repro.mapreduce.job import JobConf
from repro.mapreduce.mapper import IdentityMapper
from repro.mapreduce.partitioner import HashPartitioner
from repro.mapreduce.reducer import FunctionReducer
from repro.mapreduce.splits import ByteRangeSplit
from repro.obs import JobObservability
from repro.obs.live import StragglerDetector
from repro.obs.live.bus import (
    EV_SPILL_COMMIT,
    EV_SPILL_REOPEN,
    EV_TASK_CANCELLED,
    EV_TASK_HANG,
    EV_TASK_SPECULATE,
    EV_TASK_START,
    Event,
    EventBus,
)
from repro.query.language import StructuralQuery
from repro.query.operators import MeanOp
from repro.query.splits import slice_splits
from repro.scidata.generators import temperature_dataset
from repro.sidr.planner import build_sidr_job
from repro.spec import (
    REASON_DEADLINE,
    REASON_HANG,
    REASON_SUPERSEDED,
    CancelToken,
    SpeculationPolicy,
    SpeculationRuntime,
    structural_priority,
)
from repro.verify import (
    SCHEDULING_POINTS,
    ChaosHook,
    check_interleaving_invariants,
)
from repro.verify.cases import FuzzCase
from repro.verify.fuzz import run_case

FAST = SpeculationPolicy(hang_timeout=0.08)


def hang_plan(task="map", index=1, times=1):
    return InjectionPlan(
        rules=(
            FaultRule(
                task=task,
                kind=FaultKind.HANG,
                indices=frozenset({index}),
                times=times,
            ),
        )
    )


def counting_job(num_splits=4, num_reduces=2, **kwargs):
    def reader(split):
        for j in range(5):
            yield ((j,), 1 + split.index)

    return JobConf(
        name="count",
        splits=[
            ByteRangeSplit(index=i, path="/f", start=i * 10, length=10)
            for i in range(num_splits)
        ],
        reader_factory=reader,
        mapper_factory=IdentityMapper,
        reducer_factory=lambda: FunctionReducer(
            lambda k, vals: [(k, sum(vals))]
        ),
        partitioner=HashPartitioner(),
        num_reduce_tasks=num_reduces,
        **kwargs,
    )


def canon(res):
    return {p: sorted(v) for p, v in res.outputs.items()}


# --------------------------------------------------------------------- #
# Units: CancelToken / the hang rule / SpeculationRuntime
# --------------------------------------------------------------------- #
class TestCancelToken:
    def test_first_cancel_wins(self):
        tok = CancelToken()
        assert not tok.cancelled
        assert tok.cancel(REASON_HANG)
        assert not tok.cancel(REASON_SUPERSEDED)
        assert tok.reason == REASON_HANG
        assert tok.cancelled

    def test_check_raises_with_reason(self):
        tok = CancelToken()
        tok.check()  # no-op before cancellation
        tok.cancel(REASON_SUPERSEDED)
        with pytest.raises(TaskCancelledError) as ei:
            tok.check()
        assert ei.value.reason == REASON_SUPERSEDED

    def test_wait_releases_on_cancel(self):
        tok = CancelToken()
        assert not tok.wait(timeout=0.01)
        threading.Timer(0.02, lambda: tok.cancel(REASON_HANG)).start()
        assert tok.wait(timeout=2.0)

    def test_check_resets_idle(self):
        tok = CancelToken()
        time.sleep(0.03)
        assert tok.idle >= 0.03
        tok.check()
        assert tok.idle < 0.03

    def test_racing_cancels_one_winner_with_its_reason(self):
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(50):
                tok = CancelToken()
                start = threading.Barrier(8)
                won: dict[str, bool] = {}

                def racer(i: int) -> None:
                    start.wait(5.0)
                    won[f"reason-{i}"] = tok.cancel(f"reason-{i}")

                threads = [
                    threading.Thread(target=racer, args=(i,)) for i in range(8)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(5.0)
                assert not any(t.is_alive() for t in threads)
                winners = [reason for reason, ok in won.items() if ok]
                assert len(won) == 8 and len(winners) == 1
                assert tok.reason == winners[0] and tok.cancelled
        finally:
            sys.setswitchinterval(interval)

    def test_one_cancel_releases_every_waiter(self):
        tok = CancelToken()
        released: list[bool] = []
        waiters = [
            threading.Thread(target=lambda: released.append(tok.wait(5.0)))
            for _ in range(2)
        ]
        for t in waiters:
            t.start()
        deadline = time.monotonic() + 5.0
        while tok._event is None and time.monotonic() < deadline:
            time.sleep(0.001)  # until a waiter made the event
        time.sleep(0.02)
        t0 = time.perf_counter()
        assert tok.cancel(REASON_HANG)
        for t in waiters:
            t.join(5.0)
        assert released == [True, True]
        assert time.perf_counter() - t0 < 1.0

    def test_wait_after_cancel_returns_at_once(self):
        tok = CancelToken()
        tok.cancel(REASON_SUPERSEDED)
        t0 = time.perf_counter()
        assert tok.wait(5.0)
        assert tok.wait()
        assert time.perf_counter() - t0 < 0.5

    def test_a_token_never_waited_on_holds_no_event(self):
        tok = CancelToken()
        tok.check()
        assert tok._event is None
        tok.cancel(REASON_HANG)
        assert tok._event is None
        with pytest.raises(TaskCancelledError):
            tok.check()
        assert tok._event is None

    def test_a_cancelled_slow_fault_ends_at_the_cancel(self):
        rule = FaultRule(task="map", kind=FaultKind.SLOW, indices=frozenset({0}), delay=5.0)
        faults = InjectionPlan(rules=(rule,)).bind(1, 1)
        tok = CancelToken()
        timer = threading.Timer(0.05, tok.cancel, args=(REASON_DEADLINE,))
        t0 = time.perf_counter()
        timer.start()
        try:
            with pytest.raises(TaskCancelledError) as ei:
                faults.fire("map", 0, 0, cancel=tok)
        finally:
            timer.cancel()
        elapsed = time.perf_counter() - t0
        assert ei.value.reason == REASON_DEADLINE
        assert 0.04 <= elapsed < 1.0


class TestHangDetector:
    """The one detector's hang rule: an in-flight attempt is silent when
    its cancel token has passed no checkpoint for ``hang_timeout``,
    counted from its ``task.start``."""

    def test_flags_silent_not_beating(self):
        bus = EventBus()
        det = StragglerDetector(bus, hang_timeout=0.2)
        tokens = {("map", i, 0): CancelToken() for i in range(2)}
        for kind, index, attempt in tokens:
            bus.publish(EV_TASK_START, kind=kind, index=index, attempt=attempt)
        assert det.check(now=bus.now() + 1.0) == []  # flag-only: no tokens
        hangs = []
        deadline = time.time() + 2.0
        while not hangs and time.time() < deadline:
            tokens[("map", 1, 0)].check()
            hangs = det.check(tokens=tokens)
            time.sleep(0.01)
        assert [(e.type, e.index) for e in hangs] == [(EV_TASK_HANG, 0)]
        assert hangs[0].data["stale"] > hangs[0].data["timeout"] == 0.2
        # Once per attempt.
        time.sleep(0.25)
        assert [e.index for e in det.check(tokens=tokens)] == [1]
        assert det.check(tokens=tokens) == []

    def test_idle_counts_from_task_start(self):
        """The token is made before ``task.start`` (and recovery may
        run in between): idle time before the start does not count."""
        bus = EventBus(clock=lambda: 0.0)
        det = StragglerDetector(bus, hang_timeout=0.02)
        tokens = {("reduce", 0, 1): CancelToken()}
        time.sleep(0.03)
        bus.publish(EV_TASK_START, kind="reduce", index=0, attempt=1, at=0.0)
        assert det.check(now=0.01, tokens=tokens) == []
        (hang,) = det.check(now=1.0, tokens=tokens)
        assert (hang.type, hang.kind, hang.attempt) == (EV_TASK_HANG, "reduce", 1)
        # A finished attempt is no longer in flight.
        bus.publish("task.finish", kind="reduce", index=0, attempt=1,
                    at=1.0, status="ok", seconds=1.0)
        det = StragglerDetector(bus, hang_timeout=0.02)
        assert det.check(now=2.0, tokens=tokens) == []

    def test_ticker_context_stops_on_exception(self):
        det = StragglerDetector(EventBus(), hang_timeout=0.5)
        with pytest.raises(RuntimeError):
            with det.ticker(0.01):
                assert det._ticker is not None
                raise RuntimeError("body blew up")
        assert det._ticker is None


class TestSpeculationRuntime:
    def test_simultaneous_flags_hedged_by_priority(self):
        """Flags one check raises together are acted on most critical
        first: the map blocking the most pending reduces gets the one
        backup ``max_backups`` allows, the others are cancel-retried in
        descending priority."""
        from repro.mapreduce.engine import DependencyBarrier, _RunState

        job = counting_job(num_splits=3, num_reduces=3)
        # Map m is in the fetch sets of m + 1 pending reduces.
        barrier = DependencyBarrier(
            {0: frozenset({0, 1, 2}), 1: frozenset({1, 2}), 2: frozenset({2})}
        )
        obs = JobObservability(job.name, enabled=False)
        state = _RunState(LocalEngine(), job)
        runtime = SpeculationRuntime(
            SpeculationPolicy(hang_timeout=0.01, max_backups=1),
            state, job, barrier, obs, pending_partitions=lambda: (0, 1, 2),
        )
        launched = []
        runtime.launch_backup = lambda i, of, priority: launched.append(
            (i, of, priority)
        )
        for m in range(3):
            state.new_token("map", m, 0)
            obs.bus.publish(EV_TASK_START, kind="map", index=m, attempt=0)
        time.sleep(0.05)
        runtime.tick()
        flagged = [e.index for e in obs.bus.events() if e.type == EV_TASK_HANG]
        assert flagged == [0, 1, 2]
        assert launched == [(2, 0, 3.0)]
        hedged = [
            (e.index, e.data["mode"], e.data["priority"])
            for e in obs.bus.events() if e.type == EV_TASK_SPECULATE
        ]
        assert hedged == [(1, "cancel-retry", 2.0), (0, "cancel-retry", 1.0)]
        assert state.token_of("map", 2, 0).cancelled is False


class TestLiveness:
    """An attempt that keeps passing checkpoints is live, however slowly
    it goes: a map reading one record every 20 ms is never hang-flagged
    under a 0.1 s hang timeout."""

    @staticmethod
    def slow_records(split):
        for j in range(10):
            time.sleep(0.02)
            yield ((j,), 1 + split.index)

    @pytest.mark.parametrize("run", ["run_serial", "run_threaded"])
    def test_slow_checkpointing_attempt_is_not_hung(self, run):
        job = counting_job(num_splits=2, num_reduces=1)
        job.reader_factory = self.slow_records
        eng = LocalEngine(
            speculation=SpeculationPolicy(hang_timeout=0.1),
            retry=RetryPolicy(max_attempts=1),
        )
        res = getattr(eng, run)(job)
        assert sorted(res.all_records()) == [((j,), 3) for j in range(10)]
        types = Counter(e.type for e in res.obs.bus.events())
        assert types[EV_TASK_HANG] == 0
        assert types[EV_TASK_SPECULATE] == 0
        assert types[EV_TASK_CANCELLED] == 0


class TestStructuralPriority:
    def test_fetch_set_probe(self):
        from repro.mapreduce.engine import DependencyBarrier

        barrier = DependencyBarrier(
            {0: frozenset({0, 1}), 1: frozenset({0}), 2: frozenset({2})}
        )
        p0 = structural_priority(
            0, pending=(0, 1, 2), barrier=barrier, total_maps=3
        )
        p2 = structural_priority(
            2, pending=(0, 1, 2), barrier=barrier, total_maps=3
        )
        assert p0 == 2.0  # map 0 blocks reduces 0 and 1
        assert p2 == 1.0
        # already-fired partitions stop counting
        assert structural_priority(
            2, pending=(0, 1), barrier=barrier, total_maps=3
        ) == 0.0

    def test_default_is_one(self):
        assert structural_priority(5) == 1.0


# --------------------------------------------------------------------- #
# The HANG fault blocks until cooperatively cancelled
# --------------------------------------------------------------------- #
class TestHangFault:
    def test_blocks_until_cancel(self):
        bound = hang_plan(index=0).bind(1, 1)
        tok = CancelToken()
        state = {}

        def body():
            try:
                bound.fire("map", 0, 0, cancel=tok)
            except TaskCancelledError as exc:
                state["reason"] = exc.reason

        t = threading.Thread(target=body, daemon=True)
        t.start()
        t.join(timeout=0.1)
        assert t.is_alive()  # still blocked
        tok.cancel(REASON_HANG)
        t.join(timeout=2.0)
        assert not t.is_alive()
        assert state["reason"] == REASON_HANG

    def test_released_attempt_window(self):
        rule = hang_plan(index=0).rules[0]
        assert rule.active_on_attempt(0)
        assert not rule.active_on_attempt(1)


# --------------------------------------------------------------------- #
# Engine round-trips: hang -> speculate -> cancel -> identical output
# --------------------------------------------------------------------- #
class TestEngineSpeculation:
    def test_threaded_backup_wins_race(self):
        oracle = LocalEngine().run_serial(counting_job())
        eng = LocalEngine(
            speculation=FAST,
            retry=RetryPolicy(max_attempts=3, backoff_base=0.0),
            faults=hang_plan(index=1),
        )
        res = eng.run_threaded(counting_job())
        assert canon(res) == canon(oracle)
        assert res.counters.get("task.speculations") == 1
        assert res.counters.get("task.cancelled") == 1
        lost = [a for a in res.attempts if a.outcome == "lost"]
        assert [(a.kind, a.index) for a in lost] == [("map", 1)]

    def test_serial_cancel_retry(self):
        oracle = LocalEngine().run_serial(counting_job())
        eng = LocalEngine(
            speculation=FAST,
            retry=RetryPolicy(max_attempts=3, backoff_base=0.0),
            faults=hang_plan(index=1),
        )
        res = eng.run_serial(counting_job())
        assert canon(res) == canon(oracle)
        # serial has no pool to race on: mitigation is cancel + retry
        assert res.counters.get("task.cancelled") == 1
        cancelled = [a for a in res.attempts if a.outcome == "cancelled"]
        assert [(a.kind, a.index) for a in cancelled] == [("map", 1)]

    def test_reduce_hang_is_cancel_retried(self):
        oracle = LocalEngine().run_serial(counting_job())
        for run in ("run_serial", "run_threaded"):
            eng = LocalEngine(
                speculation=FAST,
                retry=RetryPolicy(max_attempts=3, backoff_base=0.0),
                faults=hang_plan(task="reduce", index=0),
            )
            res = getattr(eng, run)(counting_job())
            assert canon(res) == canon(oracle), run
            assert res.counters.get("task.cancelled") == 1, run

    def test_hang_exhausts_retry_budget_serial(self):
        # Serial raises the raw task error (matching crash semantics).
        eng = LocalEngine(
            speculation=SpeculationPolicy(
                hang_timeout=0.05, max_backups=0
            ),
            retry=RetryPolicy(max_attempts=2, backoff_base=0.0),
            faults=hang_plan(index=1, times=5),
        )
        with pytest.raises(TaskCancelledError):
            eng.run_serial(counting_job())

    def test_hang_exhausts_retry_budget_threaded(self):
        eng = LocalEngine(
            speculation=SpeculationPolicy(
                hang_timeout=0.05, max_backups=0
            ),
            retry=RetryPolicy(max_attempts=2, backoff_base=0.0),
            faults=hang_plan(index=1, times=5),
        )
        with pytest.raises(JobFailedError):
            eng.run_threaded(counting_job())

    def test_speculate_hook_fires(self):
        eng = LocalEngine(
            observability=False,
            speculation=FAST,
            retry=RetryPolicy(max_attempts=3, backoff_base=0.0),
            faults=hang_plan(index=1),
        )
        res = eng.run_threaded(counting_job())
        spec = [e for e in res.obs.bus.events() if e.type == EV_TASK_SPECULATE]
        assert len(spec) == 1
        assert spec[0].kind == "map" and spec[0].index == 1
        assert spec[0].data["of"] == 0 and spec[0].attempt == 1
        assert spec[0].data["mode"] == "race"
        assert EV_TASK_SPECULATE in SCHEDULING_POINTS


# --------------------------------------------------------------------- #
# Weekly-mean workload: both engines x both data planes (acceptance)
# --------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def weekly():
    field = temperature_dataset(days=364, lat=8, lon=8, seed=3)
    data = field.arrays["temperature"].astype(np.float64)
    plan = StructuralQuery(
        variable="temperature",
        extraction_shape=(7, 5, 2),
        operator=MeanOp(),
    ).compile(field.metadata)
    splits = slice_splits(plan, num_splits=8)
    return plan, splits, data


class TestWeeklyMeanRoundTrip:
    @pytest.mark.parametrize("plane", ["record", "columnar"])
    @pytest.mark.parametrize("run", ["run_serial", "run_threaded"])
    def test_byte_identical_to_no_fault_oracle(self, weekly, run, plane):
        plan, splits, data = weekly
        job, barrier, _ = build_sidr_job(
            plan, splits, 4, data, data_plane=plane
        )
        expected = LocalEngine().run_serial(job, barrier).all_records()

        eng = LocalEngine(
            speculation=FAST,
            retry=RetryPolicy(max_attempts=3, backoff_base=0.0),
            faults=hang_plan(index=2),
        )
        job, barrier, _ = build_sidr_job(
            plan, splits, 4, data, data_plane=plane
        )
        res = getattr(eng, run)(job, barrier)
        assert res.all_records() == expected


# --------------------------------------------------------------------- #
# Zone-map pruning composes with speculative execution
# --------------------------------------------------------------------- #
class TestPrunedPlanSpeculation:
    """ISSUE satellite: a hedged backup attempt over a pruned plan must
    produce the same records as the primary — synthesized keys are
    rebuilt per attempt, never double-merged by the losing attempt."""

    @pytest.mark.parametrize("plane", ["record", "columnar"])
    def test_backup_wins_race_on_pruned_plan(self, plane):
        from tests.test_fault_tolerance import pruned_filter_job

        job, barrier, _ = pruned_filter_job(plane, prune=False)
        clean = LocalEngine().run_serial(job, barrier).all_records()

        job, barrier, sidr = pruned_filter_job(plane)
        assert sidr.pruning is not None and sidr.pruning.num_pruned == 4
        eng = LocalEngine(
            speculation=FAST,
            retry=RetryPolicy(max_attempts=3, backoff_base=0.0),
            faults=hang_plan(index=1),
        )
        res = eng.run_threaded(job, barrier)
        assert res.all_records() == clean
        assert res.counters.get("task.speculations") == 1
        assert res.counters.get("task.cancelled") == 1
        assert res.counters.get("plan.splits.pruned") == 4

    @pytest.mark.parametrize("plane", ["record", "columnar"])
    def test_serial_cancel_retry_on_pruned_plan(self, plane):
        from tests.test_fault_tolerance import pruned_filter_job

        job, barrier, _ = pruned_filter_job(plane, prune=False)
        clean = LocalEngine().run_serial(job, barrier).all_records()

        job, barrier, _ = pruned_filter_job(plane)
        eng = LocalEngine(
            speculation=FAST,
            retry=RetryPolicy(max_attempts=3, backoff_base=0.0),
            faults=hang_plan(index=1),
        )
        res = eng.run_serial(job, barrier)
        assert res.all_records() == clean
        assert res.counters.get("task.cancelled") == 1


# --------------------------------------------------------------------- #
# Deadlines
# --------------------------------------------------------------------- #
class TestDeadline:
    def test_conf_validation(self):
        with pytest.raises(JobConfigError):
            counting_job(deadline=-1.0)
        with pytest.raises(JobConfigError):
            counting_job(deadline=1.0, on_deadline="shrug")

    @pytest.mark.parametrize("run", ["run_serial", "run_threaded"])
    def test_fail_mode_raises(self, run):
        eng = LocalEngine(
            retry=RetryPolicy(max_attempts=2, backoff_base=0.0),
            faults=hang_plan(index=1, times=5),
        )
        job = counting_job(deadline=0.1, on_deadline="fail")
        with pytest.raises(JobFailedError):
            getattr(eng, run)(job)

    def test_partial_mode_returns_completed_prefix(self):
        # Disjoint deps: reduce 1 only needs map 2, which never hangs.
        from repro.mapreduce.engine import DependencyBarrier
        from repro.mapreduce.partitioner import RangePartitioner

        def reader(split):
            yield ((split.index,), split.index * 10)

        def make(**kw):
            return JobConf(
                name="partial",
                splits=[
                    ByteRangeSplit(index=i, path="/f", start=i * 10, length=10)
                    for i in range(3)
                ],
                reader_factory=reader,
                mapper_factory=IdentityMapper,
                reducer_factory=lambda: FunctionReducer(
                    lambda k, vals: [(k, sum(vals))]
                ),
                partitioner=RangePartitioner((3,), [2, 3]),
                num_reduce_tasks=2,
                contact_all_maps=False,
                **kw,
            )

        barrier = DependencyBarrier(
            {0: frozenset({0, 1}), 1: frozenset({2})}
        )
        oracle = LocalEngine().run_threaded(make(), barrier)

        eng = LocalEngine(
            retry=RetryPolicy(max_attempts=2, backoff_base=0.0),
            faults=hang_plan(index=0, times=5),
        )
        res = eng.run_threaded(
            make(deadline=0.25, on_deadline="partial"), barrier
        )
        assert res.partial
        assert 1 in res.outputs  # the unblocked partition finished
        assert 0 not in res.outputs  # the hung dependency never cleared
        assert sorted(res.outputs[1]) == sorted(oracle.outputs[1])

    def test_deadline_not_hit_is_clean(self):
        res = LocalEngine().run_threaded(
            counting_job(deadline=60.0, on_deadline="partial")
        )
        assert not res.partial
        assert len(res.outputs) == 2


# --------------------------------------------------------------------- #
# Explorer: at-most-one-winner across >= 25 seeded schedules
# --------------------------------------------------------------------- #
class TestAtMostOneWinner:
    def test_chaos_schedules(self):
        oracle = canon(LocalEngine().run_serial(counting_job()))
        for schedule in range(25):
            job = counting_job()
            obs = JobObservability(job.name, enabled=False)
            obs.bus.attach(ChaosHook(
                seed=11,
                schedule=schedule,
                max_delay=0.0 if schedule == 0 else 0.0015,
            ))
            eng = LocalEngine(
                observability=False,
                speculation=FAST,
                retry=RetryPolicy(max_attempts=4, backoff_base=0.0),
                faults=hang_plan(index=1),
            )
            res = eng.run_threaded(job, obs=obs)
            assert canon(res) == oracle, f"schedule {schedule}"
            from repro.mapreduce.engine import GlobalBarrier

            violations = check_interleaving_invariants(
                obs.bus.events(),
                barrier=GlobalBarrier(),
                total_maps=job.num_map_tasks,
                contact_all_maps=True,
                attempts=res.attempts,
            )
            assert not violations, (
                f"schedule {schedule}: "
                + "; ".join(str(v) for v in violations)
            )

    def test_invariant_catches_double_winner(self):
        from repro.mapreduce.engine import GlobalBarrier

        events = [
            Event(0, 0.0, EV_TASK_SPECULATE, "map", 0, 1,
                  {"of": 0, "mode": "race"}),
            Event(1, 0.0, EV_SPILL_COMMIT, "map", 0, 0),
            Event(2, 0.0, EV_SPILL_COMMIT, "map", 0, 1),
        ]
        violations = check_interleaving_invariants(
            events, barrier=GlobalBarrier(), total_maps=1,
            contact_all_maps=True,
        )
        assert any(v.invariant == "at-most-one-winner" for v in violations)

    def test_invariant_catches_double_commit_without_speculation(self):
        """Two commits of one map with no reopen between them break the
        commit window whether or not a backup was ever launched."""
        from repro.mapreduce.engine import GlobalBarrier

        def commits(*middle):
            return [
                Event(0, 0.0, EV_SPILL_COMMIT, "map", 0, 0),
                *middle,
                Event(2, 0.0, EV_SPILL_COMMIT, "map", 0, 1),
            ]

        def winners(events):
            return [
                v for v in check_interleaving_invariants(
                    events, barrier=GlobalBarrier(), total_maps=1,
                    contact_all_maps=True,
                )
                if v.invariant == "at-most-one-winner"
            ]

        (violation,) = winners(commits())
        assert "[0, 1]" in violation.detail
        assert winners(commits(Event(1, 0.0, EV_SPILL_REOPEN, "map", 0, 0))) == []


# --------------------------------------------------------------------- #
# Recovery x speculation: a re-executed map races in its own window
# --------------------------------------------------------------------- #
class TestRecoveryRace:
    """A map raced in its first run and re-executed for a failed reduce
    once joined the *old*, resolved race, lost it at commit, and left
    the reduce retry to fetch its consumed spill as ``empty`` — exit 0,
    wrong records.  Recovery now reopens the map's commit window."""

    def test_resolved_race_is_not_reused(self):
        """A map raced in its first run and re-executed for recovery:
        the re-run commits into the reopened window — the first
        window's winner does not refuse it — and the old window's
        loser, still in flight, wins neither window."""
        from repro.mapreduce.engine import _RunState
        from repro.mapreduce.shuffle import ShuffleStore
        from repro.mapreduce.types import MapTaskId

        store = ShuffleStore()
        state = _RunState(LocalEngine(), counting_job())
        first, backup, rerun, hedge = (
            state.claim_attempt("map", 0) for _ in range(4)
        )
        tokens = {}
        for attempt in (first, backup):
            tokens[attempt] = state.new_token(
                "map", 0, attempt, store.open_window(0)
            )
        store.spill_empty(MapTaskId(0), attempt=backup, cancel=tokens[backup])
        state.release_token("map", 0, backup)
        with pytest.raises(TaskCancelledError):
            store.spill_empty(MapTaskId(0), attempt=first)
        assert store.open_window(0) is None

        # Recovery reopens the window and re-runs the map, hedged in its
        # turn, while the old loser is still in flight.
        store.reopen(0)
        for attempt in (rerun, hedge):
            tokens[attempt] = state.new_token(
                "map", 0, attempt, store.open_window(0)
            )
        # The old winner's success releases only its own window's
        # rivals; the re-run and its hedge race on.
        assert state.rivals("map", 0, backup, 0) == [tokens[first]]
        store.spill_empty(MapTaskId(0), attempt=rerun, cancel=tokens[rerun])
        assert store.attempt_of(0) == rerun
        for loser in (hedge, first):
            with pytest.raises(TaskCancelledError) as ei:
                store.spill_empty(MapTaskId(0), attempt=loser)
            assert ei.value.reason == REASON_SUPERSEDED
        assert set(state.rivals("map", 0, rerun, 1)) == {
            tokens[first], tokens[hedge]
        }

    def test_reproducer_returns_the_oracles_records(self):
        """The deterministic reproducer: every map stalls past the hang
        timeout on every attempt, reduce 1 fails once after its fetch,
        recovery re-executes only its dependencies."""
        from repro.faults import WHEN_AFTER_FETCH, RecoveryModel
        from repro.obs.live.bus import EV_RECOVERY

        field = temperature_dataset(days=28, lat=10, lon=8, seed=1)
        data = field.arrays["temperature"]
        plan = StructuralQuery(
            variable="temperature", extraction_shape=(7, 5, 2),
            operator=MeanOp(),
        ).compile(field.metadata)
        splits = slice_splits(plan, num_splits=16)

        def job():
            return build_sidr_job(plan, splits, 3, data)[:2]

        expected = LocalEngine().run_serial(*job()).all_records()
        engine = LocalEngine(
            retry=RetryPolicy(max_attempts=3),
            recovery=RecoveryModel.REEXECUTE_DEPS,
            speculation=SpeculationPolicy(hang_timeout=0.15),
            faults=InjectionPlan(rules=(
                FaultRule(task="reduce", kind=FaultKind.TRANSIENT,
                          indices=frozenset({1}), when=WHEN_AFTER_FETCH),
                FaultRule(task="map", kind=FaultKind.SLOW, fraction=1.0,
                          delay=0.3),
            )),
        )
        conf, barrier = job()
        res = engine.run_threaded(conf, barrier)
        assert res.all_records() == expected
        events = res.obs.bus.events()

        # The scenario happened: a re-executed map was hedged again ...
        reexecuted = {
            m for e in events if e.type == EV_RECOVERY
            for m in e.data["maps"]
        }
        first_runs = {
            e.index: e.seq for e in events
            if e.type == EV_SPILL_COMMIT and e.index in reexecuted
            and not e.data["superseded"]
        }
        assert reexecuted and any(
            e.type == EV_TASK_SPECULATE and e.data["mode"] == "race"
            and e.index in reexecuted and e.seq > first_runs[e.index]
            for e in events
        )
        # ... and every reduce still got the whole of its I_l.
        violations = check_interleaving_invariants(
            events, barrier=barrier, total_maps=conf.num_map_tasks,
            attempts=res.attempts,
        )
        assert not violations, "; ".join(map(str, violations))


# --------------------------------------------------------------------- #
# Differential fuzz: a speculate case through all four configurations
# --------------------------------------------------------------------- #
class TestFuzzSpeculate:
    def test_hang_case_all_configs(self):
        case = FuzzCase(
            seed=77,
            shape=(6, 4),
            extraction=(3, 2),
            stride=None,
            operator="mean",
            threshold=None,
            num_splits=3,
            reduces=2,
            fault_rules=(
                {"task": "map", "fault": "hang", "indices": [1], "times": 1},
            ),
            speculate=True,
        )
        assert FuzzCase.from_json(case.to_json()) == case
        result = run_case(case)
        assert result.ok, result.mismatch

    def test_recovery_race_case_all_configs(self):
        """The combination the generator draws for recovery x
        speculation (``_random_faults``): a map stalled past the hang
        timeout in its first run and in its recovery re-run."""
        from repro.verify.cases import SLOW_DELAY

        case = FuzzCase(
            seed=78,
            shape=(6, 4),
            extraction=(3, 2),
            stride=None,
            operator="median",
            threshold=None,
            num_splits=3,
            reduces=2,
            recovery="reexecute-deps",
            fault_rules=(
                {"task": "map", "fault": "slow", "indices": [1],
                 "attempts": [0, 2], "delay": SLOW_DELAY},
                {"task": "reduce", "fault": "transient", "indices": [0],
                 "when": "after-fetch"},
            ),
            speculate=True,
        )
        assert FuzzCase.from_json(case.to_json()) == case
        result = run_case(case)
        assert result.ok, result.mismatch


# --------------------------------------------------------------------- #
# Live plane vocabulary
# --------------------------------------------------------------------- #
class TestLiveVocabulary:
    def test_phase_totals_counts_speculation_events(self):
        from repro.obs.live.stream import phase_totals

        bus = EventBus()
        obs = JobObservability("spec", bus=bus)
        eng = LocalEngine(
            # Straggler speculation off: mitigation must come from the
            # staleness rule, so a task.hang event is guaranteed.
            speculation=SpeculationPolicy(
                hang_timeout=0.08,
                speculate_stragglers=False,
            ),
            retry=RetryPolicy(max_attempts=3, backoff_base=0.0),
            faults=hang_plan(index=1),
        )
        res = eng.run_threaded(counting_job(), obs=obs)
        totals = phase_totals(bus.events())
        assert totals["hangs"] >= 1
        assert totals["speculations"] == 1
        assert totals["cancelled"] == 1
        assert totals["map"]["finished"] == 4
        assert res.counters.get("task.speculations") == 1
