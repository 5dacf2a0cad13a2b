"""The columnar plane's result type and its no-per-key-loop guard.

``ResultBlock`` is what a columnar reduce returns: parallel key/value
columns that read as the record list the reduce used to build, with one
byte form that the service stores, digests and ships.  The guard at the
bottom counts interpreter-level calls made by ``run_columnar_reduce`` —
and by digesting its block and building the binary result body from it
— and fails if they grow with the number of keys: a per-key Python loop
cannot creep back in unnoticed.  Its neighbour holds the service's
digest-and-pack step to the memory and collector behaviour of a step
that builds no records.
"""

import gc
import hashlib
import pickle
import struct
import sys
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

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
from repro.service.api import ServiceError, decode_result_body, encode_result_body
from repro.service.service import digest_and_block
from repro.verify.oracle import canonicalize_records, records_digest

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


# --------------------------------------------------------------------- #
# Byte form
# --------------------------------------------------------------------- #
_FLOATS = st.floats(allow_nan=True, allow_infinity=True, width=64)
#: One value per row, by column kind.
_COLUMNS = {
    "float": lambda n: st.lists(_FLOATS, min_size=n, max_size=n).map(np.asarray),
    "int": lambda n: st.lists(
        st.integers(-(2**63), 2**63 - 1), min_size=n, max_size=n
    ).map(lambda v: np.asarray(v, dtype=np.int64)),
    "ragged": lambda n: st.lists(
        st.lists(_FLOATS, max_size=4), min_size=n, max_size=n
    ),
    "range_exceeds": lambda n: st.lists(
        st.fixed_dictionaries({"exceeds": st.booleans(), "variation": _FLOATS}),
        min_size=n, max_size=n,
    ),
}


@st.composite
def blocks(draw, kind=None, min_rows=1):
    """A block in key order: 1-4 key columns, one of the value kinds."""
    rank = draw(st.integers(1, 4))
    rows = draw(
        st.lists(
            st.tuples(*[st.integers(-(2**63), 2**63 - 1)] * rank),
            min_size=min_rows, max_size=8, unique=True,
        )
    )
    keys = np.asarray(sorted(rows), dtype=np.int64).reshape(len(rows), rank)
    kind = kind or draw(st.sampled_from(sorted(_COLUMNS)))
    return ResultBlock(keys, draw(_COLUMNS[kind](len(rows))))


class TestByteForm:
    @given(blocks(min_rows=0))
    def test_round_trip_is_repr_identical(self, block):
        data = block.to_bytes()
        clone = ResultBlock.from_bytes(data)
        assert repr(clone.canonical_records()) == repr(block.canonical_records())
        assert clone.to_bytes() == data
        assert not clone.key_rows.flags.writeable
        if isinstance(clone.values, np.ndarray):
            assert not clone.values.flags.writeable
        # a writable buffer does not make the views writable
        again = ResultBlock.from_bytes(bytearray(data))
        assert not again.key_rows.flags.writeable
        assert again.to_bytes() == data

    def test_special_floats_keep_their_repr(self):
        column = np.asarray([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324])
        block = ResultBlock(np.arange(6).reshape(6, 1), column)
        clone = ResultBlock.from_bytes(block.to_bytes())
        assert repr(clone.canonical_records()) == repr(block.canonical_records())
        assert repr(clone[3][1]) == "-0.0" and repr(clone[0][1]) == "nan"

    def test_empty_blocks_share_one_encoding(self):
        rank0 = ResultBlock.empty()
        rank3 = ResultBlock(np.empty((0, 3), dtype=np.int64), [])
        assert rank0.to_bytes() == rank3.to_bytes()
        assert block_of(RECORDS)[:0].to_bytes() == rank0.to_bytes()
        clone = ResultBlock.from_bytes(rank3.to_bytes())
        assert len(clone) == 0 and clone.canonical_records() == []

    @given(blocks(kind="float"))
    def test_equal_canonical_records_give_equal_bytes(self, block):
        """Whatever holds the column — float array, list of floats, the
        record plane's ``from_records`` — and whichever NaN it holds."""
        data = block.to_bytes()
        as_list = ResultBlock(block.key_rows, block.values.tolist())
        assert as_list.to_bytes() == data
        assert ResultBlock.from_records(block.canonical_records()).to_bytes() == data
        flipped = np.where(np.isnan(block.values), -block.values, block.values)
        assert ResultBlock(block.key_rows, flipped).to_bytes() == data

    def test_mixed_numbers_stay_what_they_are(self):
        block = ResultBlock(np.asarray([[0], [1]]), [1, 2.0])
        clone = ResultBlock.from_bytes(block.to_bytes())
        assert repr(clone.canonical_records()) == "[((0,), 1), ((1,), 2.0)]"

    @given(blocks(), st.data())
    def test_damaged_buffers_raise(self, block, data):
        good = block.to_bytes()
        cut = data.draw(st.integers(0, len(good) - 1))
        with pytest.raises(ShuffleError):
            ResultBlock.from_bytes(good[:cut])
        extra = data.draw(st.binary(min_size=1, max_size=9))
        with pytest.raises(ShuffleError):
            ResultBlock.from_bytes(good + extra)

    def test_bad_headers_raise(self):
        good = block_of(RECORDS).to_bytes()
        assert good[4] == 0  # the value tag
        with pytest.raises(ShuffleError, match="value tag 7"):
            ResultBlock.from_bytes(good[:4] + b"\x07" + good[5:])
        with pytest.raises(ShuffleError, match="magic"):
            ResultBlock.from_bytes(b"NOPE" + good[4:])
        # a row count the buffer cannot hold is refused, not allocated
        huge = good[:8] + struct.pack("<Q", 2**62) + good[16:]
        with pytest.raises(ShuffleError):
            ResultBlock.from_bytes(huge)
        ragged = ResultBlock(np.asarray([[0], [1]]), [[1.0], []]).to_bytes()
        short = ragged.replace(b"[[1.0],[]]", b"[[1.0]]   ")
        assert len(short) == len(ragged)
        with pytest.raises(ShuffleError, match="list of 2"):
            ResultBlock.from_bytes(short)

    def test_packed_block_owns_one_buffer(self):
        source = np.arange(12.0)
        block = ResultBlock(np.arange(24).reshape(12, 2)[::2], source[::2])
        packed = block.packed()
        assert packed == block
        assert packed.to_bytes() is packed.to_bytes()
        assert packed.to_bytes() == block.to_bytes()
        for array in (packed.key_rows, packed.values):
            assert not array.flags.writeable
            assert not np.shares_memory(array, source)
        # a slice of it is its own block, not the whole buffer again
        assert ResultBlock.from_bytes(packed[1:3].to_bytes()) == list(block)[1:3]

    @given(blocks(min_rows=0))
    def test_result_body_round_trip(self, block):
        doc = {"id": "j00001", "state": "done", "num_records": len(block)}
        body = encode_result_body(doc, block)
        got = decode_result_body(body)
        records = got.pop("records")
        assert got == doc
        assert isinstance(records, ResultBlock)
        assert repr(records.canonical_records()) == repr(block.canonical_records())
        assert records.key_rows.flags.aligned
        assert decode_result_body(encode_result_body(doc, None)) == doc
        for damaged in (body[:5], body[:-1], body + b"\0", b"\xff" * 8 + body[8:]):
            with pytest.raises(ServiceError):
                decode_result_body(damaged)


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
        """No committed partition (a partial result whose deadline fired
        first) is the empty block, so the service can pack and digest it
        like any other output — it used to be an empty list."""
        out = self._result({}).all_records()
        assert isinstance(out, ResultBlock) and len(out) == 0
        assert out == [] and self._result({}).canonical_records() == []
        digest, block = digest_and_block(out)
        assert digest == records_digest([])
        assert block.to_bytes() == ResultBlock.empty().to_bytes()


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
    job = SimpleNamespace(name="guard", batch_operator=bop)
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

    @pytest.mark.parametrize("name", [n for n in OPERATORS if n not in RAGGED])
    def test_binary_body_call_count_does_not_grow_with_keys(self, name):
        """Packing the reduce output (what the service does once per
        job) and framing the body (once per fetch) visit no key."""

        def body_calls(groups):
            _, block = _reduce_calls(name, groups)
            return _count_calls(
                lambda: encode_result_body({"state": "done"}, block.packed())
            )

        n = 500
        small, body = body_calls(n)
        large, doubled = body_calls(2 * n)
        assert len(decode_result_body(body)["records"]) == n
        assert len(decode_result_body(doubled)["records"]) == 2 * n
        assert large == small

    @pytest.mark.parametrize("name", [n for n in OPERATORS if n not in RAGGED])
    def test_digest_call_count_does_not_grow_with_keys(self, name):
        """What the service does with a job's output — pack it, hash
        the buffer — visits no key either."""

        def digest_calls(groups):
            _, block = _reduce_calls(name, groups)
            return _count_calls(lambda: digest_and_block(block))

        n = 500
        small, (digest, packed) = digest_calls(n)
        large, (_, doubled) = digest_calls(2 * n)
        assert len(packed) == n and len(doubled) == 2 * n
        assert digest == hashlib.sha256(packed.to_bytes()).hexdigest()
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


class TestDigestBuildsNoRecords:
    """``digest_and_block`` on a ``fine_mean``-sized result (8 320 rows,
    rank 3, float64).  Hashing the ``repr`` of a canonical record list
    peaked at 7.8x the block's bytes and, one key tuple and one record
    tuple per row, drove a full collection every fourth or fifth job."""

    @staticmethod
    def _block():
        n = 8320
        keys = np.stack(np.unravel_index(np.arange(n), (20, 26, 16)), axis=1)
        return ResultBlock(keys, np.random.default_rng(0).random(n))

    def test_peak_memory_is_a_small_multiple_of_the_block(self):
        block = self._block()
        size = len(block.to_bytes())
        assert size == 24 + 8320 * 3 * 8 + 8320 * 8
        gc.collect()
        tracemalloc.start()
        try:
            digest, packed = digest_and_block(block)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert digest == hashlib.sha256(packed.to_bytes()).hexdigest()
        assert peak <= 3 * size

    def test_no_full_collection_is_triggered(self):
        block = self._block()
        gc.collect()
        assert gc.isenabled()
        before = gc.get_stats()[2]["collections"]
        for _ in range(50):
            digest_and_block(block)
        assert gc.get_stats()[2]["collections"] == before
