"""The columnar plane's result type and its no-per-key-loop guard.

``ResultBlock`` is what a columnar reduce returns: parallel key/value
columns that read as the record list the reduce used to build.  The
guard at the bottom counts interpreter-level calls made by
``run_columnar_reduce`` and fails if they grow with the number of keys —
a per-key Python loop cannot creep back in unnoticed.
"""

import gc
import pickle
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from repro.errors import ShuffleError
from repro.mapreduce.columnar import (
    ColumnarMapOutput,
    ResultBlock,
    run_columnar_reduce,
)
from repro.mapreduce.counters import Counters
from repro.mapreduce.engine import JobResult, LocalEngine
from repro.mapreduce.types import MapTaskId
from repro.obs import JobObservability
from repro.obs.trace import EngineTrace
from repro.query.columnar import batch_operator_for
from repro.query.operators import get_operator
from repro.verify.oracle import canonicalize_records

RECORDS = [((0, 1), 1.5), ((0, 2), -2.0), ((1, 0), 0.25)]


def block_of(records):
    keys = np.asarray([k for k, _ in records], dtype=np.int64)
    return ResultBlock(keys, np.asarray([v for _, v in records]))


class TestResultBlock:
    def test_reads_as_the_record_list(self):
        block = block_of(RECORDS)
        assert len(block) == 3
        assert list(block) == RECORDS
        assert block[1] == RECORDS[1] and block[-1] == RECORDS[-1]
        assert type(block[0][0][0]) is int and type(block[0][1]) is float
        assert list(block[1:]) == RECORDS[1:]
        assert block == RECORDS and RECORDS == block
        assert block != RECORDS[:2]
        assert dict(block) == dict(RECORDS)
        with pytest.raises(IndexError):
            block[3]

    def test_records_round_trip(self):
        block = ResultBlock.from_records(RECORDS)
        assert list(block) == RECORDS
        assert list(ResultBlock.from_records(list(block))) == RECORDS
        # out-of-order input is put in key order
        assert list(ResultBlock.from_records(RECORDS[::-1])) == RECORDS

    def test_list_valued_column(self):
        records = [((0,), [1.0, 2.0]), ((1,), []), ((2,), [3.0])]
        block = ResultBlock(np.asarray([[0], [1], [2]]), [v for _, v in records])
        assert list(block) == records
        assert block.canonical_records() == canonicalize_records(records)

    def test_rank_one_keys(self):
        block = ResultBlock(np.asarray([[3], [7]]), np.asarray([1, 2]))
        assert list(block) == [((3,), 1), ((7,), 2)]
        assert type(block[0][1]) is int

    def test_empty_partition(self):
        block = ResultBlock.empty()
        assert len(block) == 0 and list(block) == []
        assert block.canonical_records() == []
        assert list(ResultBlock.from_records([])) == []
        full = block_of(RECORDS)
        assert list(ResultBlock.concatenate([block, full, block])) == RECORDS
        assert list(ResultBlock.concatenate([block, block])) == []

    def test_shape_is_validated(self):
        with pytest.raises(ShuffleError):
            ResultBlock(np.asarray([1, 2]), np.asarray([1.0, 2.0]))
        with pytest.raises(ShuffleError):
            ResultBlock(np.asarray([[1], [2]]), np.asarray([1.0]))

    def test_pickle_round_trip(self):
        for block in (
            block_of(RECORDS),
            ResultBlock(np.asarray([[0], [1]]), [[1.0], []]),
            ResultBlock.empty(),
        ):
            clone = pickle.loads(pickle.dumps(block))
            assert isinstance(clone, ResultBlock)
            assert list(clone) == list(block)
            assert clone.key_rows.dtype == np.int64

    def test_concatenate_sorts_only_when_needed(self):
        a, b = block_of(RECORDS[:2]), block_of(RECORDS[2:])
        in_order = ResultBlock.concatenate([a, b])
        assert list(in_order) == RECORDS
        assert list(ResultBlock.concatenate([b, a])) == RECORDS
        assert ResultBlock.concatenate([a]) is a

    def test_canonical_records_equal_the_generic_walk(self):
        block = block_of(RECORDS)
        assert repr(block.canonical_records()) == repr(
            canonicalize_records(list(block))
        )
        assert canonicalize_records(block) == block.canonical_records()


class TestJobResult:
    def _result(self, outputs):
        return JobResult("j", outputs, Counters(), EngineTrace(), 0, 0)

    def test_blocks_stay_a_block_in_key_order(self):
        # partition order is not key order here
        res = self._result({0: block_of(RECORDS[2:]), 1: block_of(RECORDS[:2])})
        assert isinstance(res.all_records(), ResultBlock)
        assert res.all_records() == RECORDS
        assert res.canonical_records() == RECORDS

    def test_record_lists_take_the_generic_walk(self):
        res = self._result({0: [((1,), np.float64(2.0))], 1: [((0,), [np.int64(1)])]})
        assert res.all_records() == [((0,), [1]), ((1,), 2.0)]
        assert repr(res.canonical_records()) == "[((0,), [1]), ((1,), 2.0)]"

    def test_no_outputs(self):
        assert self._result({}).canonical_records() == []


class TestSynthMerge:
    def _job(self):
        return SimpleNamespace(
            context={
                "synth_records": {0: ((0, 0), (0, 3), (2, 0))},
                "synth_value_factory": list,
            }
        )

    @pytest.mark.parametrize("as_block", [True, False], ids=["block", "list"])
    def test_keeps_key_order_and_rebuilds_values_per_attempt(self, as_block):
        records = [((0, 1), [5.0]), ((1, 0), [6.0, 7.0])]
        want = [
            ((0, 0), []), ((0, 1), [5.0]), ((0, 3), []),
            ((1, 0), [6.0, 7.0]), ((2, 0), []),
        ]
        attempts = []
        for _ in range(2):
            out = (
                ResultBlock(np.asarray([k for k, _ in records]), [v for _, v in records])
                if as_block else list(records)
            )
            merged = LocalEngine._with_synth_records(self._job(), 0, out)
            assert isinstance(merged, ResultBlock) == as_block
            assert list(merged) == want
            attempts.append(list(merged))
        # each attempt's synthesized values are its own objects
        assert attempts[0][0][1] is not attempts[1][0][1]
        assert attempts[0][0][1] is not attempts[0][2][1]

    def test_merge_into_an_empty_keyblock(self):
        merged = LocalEngine._with_synth_records(self._job(), 0, ResultBlock.empty())
        assert list(merged) == [((0, 0), []), ((0, 3), []), ((2, 0), [])]

    def test_other_partitions_pass_through(self):
        block = block_of(RECORDS)
        assert LocalEngine._with_synth_records(self._job(), 1, block) is block


# --------------------------------------------------------------------- #
# Guard: the reduce makes no interpreter-level call per key
# --------------------------------------------------------------------- #
OPERATORS = [
    "sum", "count", "mean", "min", "max", "stddev", "range",
    "range_exceeds", "filter_gt", "median", "sort",
]
#: Object-dtype state, one value array per row.
RAGGED = ("filter_gt", "median", "sort")


def _count_calls(fn):
    """``(interpreter-level calls made by fn(), its result)``: Python
    function calls plus C function/method calls (``sys.setprofile``'s
    ``call`` and ``c_call`` events; type constructors raise neither).
    The collector is off meanwhile: a finalizer of some earlier test's
    garbage running in the middle would be counted too."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event in ("call", "c_call"):
            calls += 1

    gc.collect()
    gc.disable()
    sys.setprofile(count)
    try:
        result = fn()
    finally:
        sys.setprofile(None)
        gc.enable()
    return calls, result


def _reduce_calls(name: str, groups: int) -> tuple[int, ResultBlock]:
    """Calls ``run_columnar_reduce`` makes for ``groups`` keys, each fed
    by two map outputs (so the combine has work)."""
    params = {"threshold": 0.5} if name in ("range_exceeds", "filter_gt") else {}
    bop = batch_operator_for(get_operator(name, **params))
    job = SimpleNamespace(name="guard", context={"batch_operator": bop})
    rng = np.random.default_rng(groups)
    keys = np.stack([np.arange(groups) // 7, np.arange(groups) % 7], axis=1)
    files = [
        ColumnarMapOutput(
            map_id=MapTaskId(m),
            partition=0,
            keys=keys,
            states=bop.map_batch(rng.integers(-3, 4, (groups, 5)).astype(np.float64)),
            source_counts=np.full(groups, 5, dtype=np.int64),
            source_records=5 * groups,
        )
        for m in range(2)
    ]
    obs = JobObservability(job.name)
    return _count_calls(
        lambda: run_columnar_reduce(job, files, Counters(), obs, None)
    )


class TestNoPerKeyLoop:
    @pytest.mark.parametrize("name", OPERATORS)
    def test_call_count_does_not_grow_with_keys(self, name):
        n = 500
        small, block = _reduce_calls(name, n)
        large, doubled = _reduce_calls(name, 2 * n)
        assert len(block) == n and len(doubled) == 2 * n
        if name in RAGGED:
            # ragged state: allowed at most one call per extra key
            assert large - small <= n
        else:
            assert large == small

    def test_the_counter_sees_a_per_key_loop(self):
        """What this guards against does trip it: the loop the reduce
        used to run (a finalize call and an ``append`` per key)."""

        def per_key_loop():
            out = []
            for row in np.zeros((50, 2)).tolist():
                out.append(sum(row))
            return out

        calls, _ = _count_calls(per_key_loop)
        assert calls >= 100
