"""Unit tests for counters, mapper/reducer base classes and trace."""

import threading

import pytest

from repro.mapreduce.counters import Counters
from repro.mapreduce.engine import EngineTrace
from repro.mapreduce.mapper import IdentityMapper
from repro.mapreduce.reducer import (
    AggregateReducer,
    CombinerAdapter,
    ConcatReducer,
    FunctionReducer,
)
from repro.obs.live.bus import EV_TASK_FINISH, EV_TASK_START, EventBus
from repro.query.operators import Chunk, MeanOp


class TestCounters:
    def test_increment_and_get(self):
        c = Counters()
        c.increment("a")
        c.increment("a", 4)
        assert c.get("a") == 5
        assert c.get("missing") == 0

    def test_merge(self):
        a, b = Counters(), Counters()
        a.increment("x", 2)
        b.increment("x", 3)
        b.increment("y", 1)
        a.merge(b)
        assert a.as_dict() == {"x": 5, "y": 1}

    def test_thread_safety(self):
        c = Counters()

        def bump():
            for _ in range(1000):
                c.increment("n")

        threads = [threading.Thread(target=bump) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.get("n") == 8000


class TestMapperReducerLibrary:
    def test_identity_mapper(self):
        m = IdentityMapper()
        assert list(m.map((1,), "v")) == [((1,), "v")]
        assert list(m.cleanup()) == []

    def test_concat_reducer(self):
        r = ConcatReducer()
        assert list(r.reduce((1,), [1, 2])) == [((1,), [1, 2])]

    def test_function_reducer(self):
        r = FunctionReducer(lambda k, vals: [(k, sum(vals))])
        assert list(r.reduce((0,), [1, 2, 3])) == [((0,), 6)]

    def test_aggregate_and_combiner(self):
        op = MeanOp()
        p1 = op.map_partial(_chunk([2.0, 4.0]))
        p2 = op.map_partial(_chunk([6.0]))
        combined = list(CombinerAdapter(op).reduce((0,), [p1, p2]))
        assert len(combined) == 1
        final = list(AggregateReducer(op).reduce((0,), [combined[0][1]]))
        assert final[0][1] == pytest.approx(4.0)


def _chunk(values):
    import numpy as np

    arr = np.asarray(values, dtype=np.float64)
    return Chunk(arr, arr.size)


def _traced_bus():
    """``trace()`` — an ``EngineTrace`` read off a bus's record — plus a
    ``record`` shorthand publishing the event each trace entry derives
    from."""
    bus = EventBus()

    def record(kind, event, index):
        if event == "start":
            bus.publish(EV_TASK_START, kind=kind, index=index)
        else:
            bus.publish(EV_TASK_FINISH, kind=kind, index=index, status="ok")

    return lambda: EngineTrace(bus.events()), record


class TestEngineTrace:
    def test_sequence_monotone(self):
        t, record = _traced_bus()
        record("map", "start", 0)
        record("map", "finish", 0)
        record("reduce", "start", 0)
        seqs = [e.seq for e in t().events]
        assert seqs == [0, 1, 2]

    def test_seq_of_lookup(self):
        t, record = _traced_bus()
        record("map", "finish", 3)
        assert t().seq_of("map", "finish", 3) == 0
        assert t().seq_of("reduce", "start", 3) == -1

    def test_early_reduce_count(self):
        t, record = _traced_bus()
        record("map", "finish", 0)
        record("reduce", "start", 0)   # before last map
        record("map", "finish", 1)
        record("reduce", "start", 1)   # after last map
        assert t().reduce_starts_before_last_map() == 1

    def test_no_maps_no_early(self):
        t, record = _traced_bus()
        record("reduce", "start", 0)
        assert t().reduce_starts_before_last_map() == 0

    def test_thread_safety(self):
        t, record = _traced_bus()

        def spam(i):
            for j in range(300):
                record("map", "start", i * 1000 + j)

        threads = [threading.Thread(target=spam, args=(i,)) for i in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        events = t().events
        assert len(events) == 1200
        assert sorted(e.seq for e in events) == list(range(1200))
