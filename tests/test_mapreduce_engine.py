"""Engine tests: semantics, barriers, traces, counters, both exec modes."""


import pytest

from repro.dfs.filesystem import SimulatedDFS
from repro.errors import BarrierViolationError, JobConfigError
from repro.mapreduce.engine import (
    DependencyBarrier,
    GlobalBarrier,
    LocalEngine,
)
from repro.mapreduce.job import JobConf
from repro.mapreduce.mapper import IdentityMapper
from repro.mapreduce.partitioner import HashPartitioner, RangePartitioner
from repro.mapreduce.reducer import FunctionReducer
from repro.mapreduce.splits import ByteRangeSplit, generate_byte_splits


def make_splits(n):
    return [
        ByteRangeSplit(index=i, path="/f", start=i * 10, length=10)
        for i in range(n)
    ]


def counting_job(num_splits=6, num_reduces=3, **kwargs):
    """Each split emits keys (0..4,) with value 1; reduces sum counts."""

    def reader(split):
        for j in range(5):
            yield ((j,), 1)

    return JobConf(
        name="count",
        splits=make_splits(num_splits),
        reader_factory=reader,
        mapper_factory=IdentityMapper,
        reducer_factory=lambda: FunctionReducer(
            lambda k, vals: [(k, sum(vals))]
        ),
        partitioner=HashPartitioner(),
        num_reduce_tasks=num_reduces,
        **kwargs,
    )


def ranged_job(num_splits=8, num_reduces=4, **kwargs):
    """Split i emits key (i,); range partitioner gives disjoint deps."""

    def reader(split):
        yield ((split.index,), split.index * 10)

    boundaries = [
        (num_splits * (i + 1)) // num_reduces for i in range(num_reduces)
    ]
    return (
        JobConf(
            name="ranged",
            splits=make_splits(num_splits),
            reader_factory=reader,
            mapper_factory=IdentityMapper,
            reducer_factory=lambda: FunctionReducer(
                lambda k, vals: [(k, sum(vals))]
            ),
            partitioner=RangePartitioner((num_splits,), boundaries),
            num_reduce_tasks=num_reduces,
            contact_all_maps=False,
            **kwargs,
        ),
        {
            i: frozenset(
                range(
                    0 if i == 0 else boundaries[i - 1],
                    boundaries[i],
                )
            )
            for i in range(num_reduces)
        },
    )


#: ``ranged_job()`` under its DependencyBarrier in serial mode.  Literal
#: on purpose: the serial order is a contract (the explorer's reference,
#: the paper's Figure 4b as a trace), so the expected value must not be
#: computed by logic that could drift with the engine's.
#: (kind, event, index) of the EngineTrace ...
SERIAL_RANGED_TRACE = [
    ("map", "start", 0), ("map", "finish", 0),
    ("map", "start", 1), ("map", "finish", 1),
    ("reduce", "start", 0), ("reduce", "finish", 0),
    ("map", "start", 2), ("map", "finish", 2),
    ("map", "start", 3), ("map", "finish", 3),
    ("reduce", "start", 1), ("reduce", "finish", 1),
    ("map", "start", 4), ("map", "finish", 4),
    ("map", "start", 5), ("map", "finish", 5),
    ("reduce", "start", 2), ("reduce", "finish", 2),
    ("map", "start", 6), ("map", "finish", 6),
    ("map", "start", 7), ("map", "finish", 7),
    ("reduce", "start", 3), ("reduce", "finish", 3),
]
#: ... and (type, kind, index) of the run's whole event log — the bus's
#: record of the run.
SERIAL_RANGED_EVENTS = [
    ("job.start", "", -1),
    ("task.start", "map", 0), ("task.phase", "map", 0),
    ("spill.commit", "map", 0), ("task.phase", "map", 0), ("task.finish", "map", 0),
    ("task.start", "map", 1), ("task.phase", "map", 1),
    ("spill.commit", "map", 1), ("task.phase", "map", 1), ("task.finish", "map", 1),
    ("barrier.fire", "reduce", 0), ("task.start", "reduce", 0),
    ("reduce.start", "reduce", 0), ("fetch", "reduce", 0), ("fetch", "reduce", 0),
    ("task.phase", "reduce", 0), ("task.phase", "reduce", 0),
    ("task.finish", "reduce", 0),
    ("task.start", "map", 2), ("task.phase", "map", 2),
    ("spill.commit", "map", 2), ("task.phase", "map", 2), ("task.finish", "map", 2),
    ("task.start", "map", 3), ("task.phase", "map", 3),
    ("spill.commit", "map", 3), ("task.phase", "map", 3), ("task.finish", "map", 3),
    ("barrier.fire", "reduce", 1), ("task.start", "reduce", 1),
    ("reduce.start", "reduce", 1), ("fetch", "reduce", 1), ("fetch", "reduce", 1),
    ("task.phase", "reduce", 1), ("task.phase", "reduce", 1),
    ("task.finish", "reduce", 1),
    ("task.start", "map", 4), ("task.phase", "map", 4),
    ("spill.commit", "map", 4), ("task.phase", "map", 4), ("task.finish", "map", 4),
    ("task.start", "map", 5), ("task.phase", "map", 5),
    ("spill.commit", "map", 5), ("task.phase", "map", 5), ("task.finish", "map", 5),
    ("barrier.fire", "reduce", 2), ("task.start", "reduce", 2),
    ("reduce.start", "reduce", 2), ("fetch", "reduce", 2), ("fetch", "reduce", 2),
    ("task.phase", "reduce", 2), ("task.phase", "reduce", 2),
    ("task.finish", "reduce", 2),
    ("task.start", "map", 6), ("task.phase", "map", 6),
    ("spill.commit", "map", 6), ("task.phase", "map", 6), ("task.finish", "map", 6),
    ("task.start", "map", 7), ("task.phase", "map", 7),
    ("spill.commit", "map", 7), ("task.phase", "map", 7), ("task.finish", "map", 7),
    ("barrier.fire", "reduce", 3), ("task.start", "reduce", 3),
    ("reduce.start", "reduce", 3), ("fetch", "reduce", 3), ("fetch", "reduce", 3),
    ("task.phase", "reduce", 3), ("task.phase", "reduce", 3),
    ("task.finish", "reduce", 3),
    ("job.finish", "", -1),
]


class TestJobConf:
    def test_empty_splits_rejected(self):
        with pytest.raises(JobConfigError):
            counting_job(num_splits=0)

    def test_bad_reduce_count(self):
        with pytest.raises(JobConfigError):
            counting_job(num_reduces=0)

    def test_split_index_mismatch(self):
        splits = make_splits(3)
        splits[1] = ByteRangeSplit(index=5, path="/f", start=0, length=1)
        with pytest.raises(JobConfigError):
            JobConf(
                name="x",
                splits=splits,
                reader_factory=lambda s: iter(()),
                mapper_factory=IdentityMapper,
                reducer_factory=lambda: FunctionReducer(lambda k, v: []),
                partitioner=HashPartitioner(),
                num_reduce_tasks=1,
            )

    @pytest.mark.parametrize("mode", ["process", "inline"])
    def test_unknown_mode_names_the_two_that_exist(self, mode):
        """There is no process backend: its name is as unknown as any."""
        with pytest.raises(JobConfigError, match=r"expected serial\|threaded$"):
            LocalEngine().run(counting_job(), mode=mode)


class TestSerialGlobal:
    def test_correct_output(self):
        job = counting_job()
        res = LocalEngine().run_serial(job, GlobalBarrier())
        got = dict(res.all_records())
        assert got == {(j,): 6 for j in range(5)}

    def test_no_early_starts(self):
        res = LocalEngine().run_serial(counting_job(), GlobalBarrier())
        assert res.counters.get("barrier.early.starts") == 0
        assert res.trace.reduce_starts_before_last_map() == 0

    def test_counters_balance(self):
        res = LocalEngine().run_serial(counting_job(), GlobalBarrier())
        c = res.counters
        assert c.get("map.input.records") == 30
        assert c.get("map.output.records") == 30
        assert c.get("reduce.input.records") == 30
        assert c.get("reduce.input.groups") == 5

    def test_contact_all_maps_connections(self):
        res = LocalEngine().run_serial(counting_job(), GlobalBarrier())
        assert res.shuffle_connections == 6 * 3


class TestSerialDependency:
    def test_early_starts_and_correctness(self):
        job, deps = ranged_job()
        res = LocalEngine().run_serial(job, DependencyBarrier(deps))
        got = dict(res.all_records())
        assert got == {(i,): i * 10 for i in range(8)}
        # Reduces 0..2 fire before the last map finishes.
        assert res.counters.get("barrier.early.starts") == 3

    def test_trace_orders_reduce_before_last_map(self):
        job, deps = ranged_job()
        res = LocalEngine().run_serial(job, DependencyBarrier(deps))
        t = res.trace
        last_map = t.seq_of("map", "finish", 7)
        first_reduce = t.seq_of("reduce", "finish", 0)
        assert -1 < first_reduce < last_map

    def test_serial_order_is_a_literal(self):
        """Determinism guard: the serial event order is part of the
        contract — maps in split order, each reduce fired (ready, then
        run to completion) right after the map that completes its I_l
        — and so is the explorer's serial baseline digest (SHA-256 of
        the output's byte form: header, the shape ``(8,)``, one run
        ``[0, 8)``, the int64 column ``[0, 10, ..., 70]``).  The digests
        pinned when that column was the JSON of the list, and when the
        keys were eight int64 rows, still hold for the same records,
        through copies of the old packers."""
        from repro.verify import explore, records_digest
        from tests.legacy_codec import json_tag_digest, rbk1_digest

        job, deps = ranged_job()
        res = LocalEngine().run_serial(job, DependencyBarrier(deps))
        events = res.obs.bus.events()
        assert [
            (e.kind, e.event, e.index) for e in res.trace.events
        ] == SERIAL_RANGED_TRACE
        assert [e.seq for e in events] == list(range(len(events)))
        assert [(e.type, e.kind, e.index) for e in events] == SERIAL_RANGED_EVENTS
        assert [e.data["name"] for e in events if e.type == "task.phase"] == (
            ["map.read", "map.spill"] * 2 + ["reduce.fetch", "reduce.reduce"]
        ) * 4
        assert [
            e.data["completed"] for e in events if e.type == "reduce.start"
        ] == [list(range(2 * p + 2)) for p in range(4)]
        assert [
            (e.data["maps_done"], e.data["early"])
            for e in events if e.type == "barrier.fire"
        ] == [(2, True), (4, True), (6, True), (8, False)]
        assert res.obs.bus.listener_errors == 0

        def make_job():
            job, deps = ranged_job()
            return job, DependencyBarrier(deps)

        report = explore(make_job, schedules=8)
        assert report.ok, report.summary()
        assert report.baseline_digest == (
            "2b78bef24334733e42191e3e614b2321a7aa562f5fd49816e665324fcc99bffa"
        )
        assert report.baseline_digest == records_digest(res.canonical_records())
        assert rbk1_digest(res.canonical_records()) == (
            "5929ead4c9825ef1225c04a254b3e6b6d1c18a20cf18e61b7a85d395fcefb5ea"
        )
        assert json_tag_digest(res.canonical_records()) == (
            "7a77ce4fec43f0d0b5ade6aea3b563b54c216dd803e476d4cce960a9f7871aa9"
        )

    def test_reduces_fired_by_one_map_run_one_at_a_time(self):
        """Several reduces becoming ready at once still go ``ready p,
        reduce p, ready q, reduce q`` serially — never all the ready
        events first."""
        res = LocalEngine().run_serial(
            counting_job(num_splits=2, num_reduces=2), GlobalBarrier()
        )
        order = [
            (e.type, e.index)
            for e in res.obs.bus.events()
            if e.type in ("barrier.fire", "reduce.start")
        ]
        assert order == [
            ("barrier.fire", 0), ("reduce.start", 0),
            ("barrier.fire", 1), ("reduce.start", 1),
        ]

    def test_reduced_connections(self):
        job, deps = ranged_job()
        res = LocalEngine().run_serial(job, DependencyBarrier(deps))
        assert res.shuffle_connections == 8  # sum |I_l|, not maps x reduces
        assert res.empty_fetches == 0

    def test_missing_dependency_detected(self):
        """An incomplete dependency map must abort, not give wrong output."""
        job, deps = ranged_job()
        broken = dict(deps)
        broken[3] = frozenset()  # claims no deps: would start too early...
        # ...and when it runs it would still produce correct output here,
        # but the barrier protocol's invariant is checked: since block 3
        # never sees its maps, it "readies" instantly, which is an early
        # start before its data exists. The count validator is what
        # catches this in SIDR jobs (tested in test_sidr_annotations);
        # at the engine level the reduce simply consumes incomplete data.
        res = LocalEngine().run_serial(job, DependencyBarrier(broken))
        got = dict(res.all_records())
        assert got[(5,)] == 50   # correctly-mapped blocks unaffected
        assert (7,) not in got   # block 3 ran with no data: silent loss

    def test_unreachable_reduce_detected(self):
        job, deps = ranged_job()
        broken = dict(deps)
        broken[2] = frozenset({999})  # waits for a map that never exists
        with pytest.raises(BarrierViolationError):
            LocalEngine().run_serial(job, DependencyBarrier(broken))


class TestThreaded:
    def test_matches_serial_global(self):
        job = counting_job()
        eng = LocalEngine(map_workers=4, reduce_workers=3)
        a = eng.run_serial(job, GlobalBarrier())
        b = eng.run_threaded(job, GlobalBarrier())
        assert a.all_records() == b.all_records()

    def test_matches_serial_dependency(self):
        job, deps = ranged_job(num_splits=12, num_reduces=4)
        eng = LocalEngine()
        a = eng.run_serial(job, DependencyBarrier(deps))
        b = eng.run_threaded(job, DependencyBarrier(deps))
        assert a.all_records() == b.all_records()

    def test_no_reduce_fetches_unfinished_map(self):
        """Threaded execution must never violate the barrier invariant —
        checked internally; run many times to give races a chance."""
        job, deps = ranged_job(num_splits=16, num_reduces=8)
        eng = LocalEngine(map_workers=8, reduce_workers=4)
        for _ in range(5):
            res = eng.run_threaded(job, DependencyBarrier(deps))
            assert len(res.outputs) == 8

    def test_combiner_applied(self):
        def reader(split):
            for j in range(4):
                yield ((j % 2,), 1)

        seen = []

        def combine(k, vals):
            seen.append(len(vals))
            return [(k, sum(vals))]

        job = JobConf(
            name="comb",
            splits=make_splits(2),
            reader_factory=reader,
            mapper_factory=IdentityMapper,
            reducer_factory=lambda: FunctionReducer(
                lambda k, vals: [(k, sum(vals))]
            ),
            combiner_factory=lambda: FunctionReducer(combine),
            partitioner=HashPartitioner(),
            num_reduce_tasks=2,
        )
        res = LocalEngine().run_serial(job, GlobalBarrier())
        got = dict(res.all_records())
        assert got == {(0,): 4, (1,): 4}
        assert res.counters.get("combine.input.records") == 8
        assert res.counters.get("combine.output.records") == 4
        # Combining shrank records but not source counts (annotation).
        assert res.counters.get("reduce.input.records") == 4


class TestValidatorHook:
    def test_validator_called_with_tally(self):
        calls = []

        class Validator:
            def validate(self, partition, tally):
                calls.append((partition, tally))

        job, deps = ranged_job()
        job.context["reduce_start_validator"] = Validator()
        LocalEngine().run_serial(job, DependencyBarrier(deps))
        assert sorted(p for p, _ in calls) == [0, 1, 2, 3]
        assert all(t == 2 for _, t in calls)  # 2 source records per block

    def test_validator_abort_propagates(self):
        class Strict:
            def validate(self, partition, tally):
                raise BarrierViolationError("nope")

        job, deps = ranged_job()
        job.context["reduce_start_validator"] = Strict()
        with pytest.raises(BarrierViolationError):
            LocalEngine().run_serial(job, DependencyBarrier(deps))


class TestBarrierFetchSet:
    """Direct DependencyBarrier.fetch_set / ready coverage."""

    DEPS = {0: frozenset({0, 1}), 1: frozenset({2, 3}), 2: frozenset()}

    def test_fetch_set_is_the_dependency_set(self):
        b = DependencyBarrier(self.DEPS)
        assert b.fetch_set(0, total_maps=4) == frozenset({0, 1})
        assert b.fetch_set(1, total_maps=4) == frozenset({2, 3})
        # total_maps does not widen a dependency fetch set
        assert b.fetch_set(0, total_maps=100) == frozenset({0, 1})

    def test_fetch_set_empty_dependency_entry(self):
        b = DependencyBarrier(self.DEPS)
        assert b.fetch_set(2, total_maps=4) == frozenset()
        assert b.ready(2, frozenset(), total_maps=4)

    def test_fetch_set_missing_partition_raises(self):
        b = DependencyBarrier(self.DEPS)
        with pytest.raises(JobConfigError):
            b.fetch_set(7, total_maps=4)
        with pytest.raises(JobConfigError):
            b.ready(7, frozenset(), total_maps=4)

    def test_empty_dependency_map_rejected(self):
        with pytest.raises(JobConfigError):
            DependencyBarrier({})

    def test_global_barrier_fetch_set_is_every_map(self):
        b = GlobalBarrier()
        assert b.fetch_set(0, total_maps=5) == frozenset(range(5))
        assert not b.ready(0, frozenset({0, 1}), total_maps=5)
        assert b.ready(0, frozenset(range(5)), total_maps=5)

    def test_ready_tracks_completion_subset(self):
        b = DependencyBarrier(self.DEPS)
        assert not b.ready(0, frozenset({0}), total_maps=4)
        assert b.ready(0, frozenset({0, 1}), total_maps=4)
        # extra completed maps don't hurt
        assert b.ready(0, frozenset({0, 1, 2, 3}), total_maps=4)


class TestShortTallyNonRetryable:
    """A short count-annotation tally is a barrier violation — a
    *non-retryable* error: re-running the reduce cannot conjure the
    missing records, so the engine must fail fast even with retries
    configured."""

    def counting_validator(self):
        from repro.sidr.annotations import CountAnnotationValidator

        calls = []

        class Tracking(CountAnnotationValidator):
            def validate(self, partition_index, tallied_source_records):
                calls.append(partition_index)
                super().validate(partition_index, tallied_source_records)

        # every block really tallies 2 source records; demand 100
        return Tracking(expected=[100, 100, 100, 100]), calls

    def test_serial_short_tally_not_retried(self):
        from repro.mapreduce.engine import RetryPolicy

        validator, calls = self.counting_validator()
        job, deps = ranged_job()
        job.context["reduce_start_validator"] = validator
        eng = LocalEngine(
            retry=RetryPolicy(max_attempts=3, backoff_base=0.0)
        )
        with pytest.raises(BarrierViolationError):
            eng.run_serial(job, DependencyBarrier(deps))
        # one validation per failing reduce attempt; with 3 retries a
        # retryable error would have validated the same partition thrice
        assert calls == [calls[0]]

    def test_threaded_short_tally_not_retried(self):
        from repro.errors import JobFailedError
        from repro.mapreduce.engine import RetryPolicy

        validator, calls = self.counting_validator()
        job, deps = ranged_job()
        job.context["reduce_start_validator"] = validator
        eng = LocalEngine(
            retry=RetryPolicy(max_attempts=3, backoff_base=0.0)
        )
        with pytest.raises(JobFailedError) as ei:
            eng.run_threaded(job, DependencyBarrier(deps))
        assert any(
            isinstance(e, BarrierViolationError) for e in ei.value.errors
        )
        # each partition validated at most once: no retry of the
        # non-retryable violation
        assert len(calls) == len(set(calls))

    def test_exact_tally_overshoot_also_aborts(self):
        from repro.sidr.annotations import CountAnnotationValidator

        job, deps = ranged_job()
        job.context["reduce_start_validator"] = CountAnnotationValidator(
            expected=[1, 1, 1, 1]
        )
        with pytest.raises(BarrierViolationError, match="misrouted"):
            LocalEngine().run_serial(job, DependencyBarrier(deps))


class TestByteSplits:
    def test_generation_matches_blocks(self):
        dfs = SimulatedDFS(num_hosts=4, block_size=128, seed=0)
        dfs.add_file("/data", 1000)
        splits = generate_byte_splits(dfs, "/data")
        assert len(splits) == 8
        assert sum(s.length for s in splits) == 1000
        assert all(s.preferred_hosts for s in splits)

    def test_custom_split_size(self):
        dfs = SimulatedDFS(num_hosts=4, block_size=128, seed=0)
        dfs.add_file("/data", 1000)
        splits = generate_byte_splits(dfs, "/data", split_size=250)
        assert [s.length for s in splits] == [250, 250, 250, 250]
