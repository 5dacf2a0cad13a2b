"""The columnar plane's result type and its no-per-key-loop guards.

``ResultBlock`` is what a columnar reduce returns: parallel key/value
columns that read as the record list the reduce used to build, with one
byte form that the service stores, digests and ships.  The guard at the
bottom counts interpreter-level calls made by ``run_columnar_reduce`` —
and by digesting its block and building the binary result body from it
— and fails if they grow with the number of keys: a per-key Python loop
cannot creep back in unnoticed.  Its neighbour holds the service's
digest-and-pack step to the memory and collector behaviour of a step
that builds no records.  The last guards hold the planned map: a served
job's call budget, a warm map that does not grow with keys, read-only
geometry, and a cached plan that runs byte-identically again.
"""

import gc
import hashlib
import math
import pickle
import struct
import sys
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.errors import ShuffleError
from repro.mapreduce.columnar import (
    ColumnarMapOutput,
    ResultBlock,
    run_columnar_map,
    run_columnar_reduce,
)
from repro.mapreduce.counters import Counters
from repro.mapreduce.engine import JobResult, LocalEngine
from repro.mapreduce.job import JobConf
from repro.mapreduce.mapper import ChunkAggregateMapper
from repro.mapreduce.partitioner import HashPartitioner, Partitioner
from repro.mapreduce.record import run_record_map, run_record_reduce
from repro.mapreduce.reducer import AggregateReducer, CombinerAdapter
from repro.mapreduce.shuffle import ShuffleStore
from repro.mapreduce.types import MapTaskId
from repro.obs import JobObservability
from repro.obs.trace import EngineTrace
from repro.query.columnar import (
    batch_operator_for,
    make_columnar_reader_factory,
    map_geometry,
)
from repro.query.language import StructuralQuery
from repro.query.operators import PRUNABLE_OPERATORS, get_operator
from repro.query.splits import aligned_slice_splits, slice_splits
from repro.scidata.metadata import simple_metadata
from repro.scidata.zonemaps import build_zone_map
from repro.service import QueryRequest, QueryService, run_in_engine
from repro.service.api import ServiceError, decode_result_body, encode_result_body
from repro.service.engine_process import digest_and_block
from repro.sidr.planner import build_plan
from repro.verify.oracle import canonicalize_records, oracle_records, records_digest

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
        # Only the seams are compared: blocks whose key ranges
        # interleave are out of order at a seam, and sort.
        c = block_of([((0, 0), 1.0), ((2, 0), 2.0)])
        d = block_of([((1, 0), 3.0), ((3, 0), 4.0)])
        assert list(ResultBlock.concatenate([c, d])) == [
            ((0, 0), 1.0), ((1, 0), 3.0), ((2, 0), 2.0), ((3, 0), 4.0),
        ]

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

    @given(
        st.sampled_from(["ragged", "range_exceeds"]).flatmap(
            lambda kind: blocks(kind=kind, min_rows=0)
        )
    )
    @example(ResultBlock(
        np.arange(5).reshape(5, 1),
        [[math.nan, math.inf, -math.inf, -0.0, 0.0], [], [-0.0],
         {"exceeds": True, "variation": -0.0},
         {"exceeds": False, "variation": math.nan}],
    ))
    def test_packed_list_column_is_the_parsed_one(self, block):
        """``packed()`` keeps a JSON-tagged block's own value list rather
        than parsing the JSON it has just written: the same records, by
        ``repr``, and the same bytes as the block read back."""
        packed = block.packed()
        parsed = ResultBlock.from_bytes(block.to_bytes())
        assert repr(packed.canonical_records()) == repr(parsed.canonical_records())
        assert packed.to_bytes() == parsed.to_bytes() == block.to_bytes()
        assert not packed.key_rows.flags.writeable

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


#: Float64 bit patterns the splice must carry: NaNs with payloads and
#: either sign (a packed block holds the one quiet NaN), and -0.0.
_SPECIAL_BITS = [0x7FF8000000000001, 0xFFF8000000000000, 0x7FF0000000000001,
                 0x8000000000000000]


@st.composite
def float_splits(draw):
    """A float64 block in key order (rank 1-4, NaN payloads, -0.0) and
    its rows cut into 2-5 contiguous, non-empty parts."""
    rank = draw(st.integers(1, 4))
    rows = draw(
        st.lists(
            st.tuples(*[st.integers(-(2**40), 2**40)] * rank),
            min_size=2, max_size=24, unique=True,
        )
    )
    keys = np.asarray(sorted(rows), dtype=np.int64).reshape(len(rows), rank)
    values = np.asarray(draw(st.lists(
        st.one_of(_FLOATS, st.sampled_from(_SPECIAL_BITS).map(
            lambda bits: np.array(bits, dtype=np.uint64).view(np.float64).item()
        )),
        min_size=len(rows), max_size=len(rows),
    )), dtype=np.float64)
    cuts = sorted(draw(st.sets(
        st.integers(1, len(rows) - 1), min_size=1, max_size=min(4, len(rows) - 1)
    )))
    bounds = [0, *cuts, len(rows)]
    block = ResultBlock(keys, values)
    return block, [block[a:b] for a, b in zip(bounds, bounds[1:])]


class TestSplice:
    """A split job's block is its parts' packed bytes spliced: byte for
    byte what concatenating the unpacked parts and packing would give,
    and only hashed after (:func:`digest_and_block`)."""

    @given(float_splits())
    def test_spliced_parts_are_the_repacked_concatenation(self, split):
        whole, parts = split
        spliced = ResultBlock.concatenate([part.packed() for part in parts])
        assert spliced._packed is not None  # no array was rebuilt
        repacked = ResultBlock.concatenate(parts).packed()
        assert spliced.to_bytes() == repacked.to_bytes() == whole.to_bytes()
        assert repr(spliced.canonical_records()) == repr(whole.canonical_records())
        digest, block = digest_and_block(spliced)
        assert block is spliced
        assert digest == hashlib.sha256(whole.to_bytes()).hexdigest()

    @given(float_splits(), st.randoms(use_true_random=False))
    def test_out_of_order_seams_take_the_sorting_path(self, split, rng):
        whole, parts = split
        order = list(range(len(parts)))
        while order == sorted(order):
            rng.shuffle(order)
        shuffled = [parts[i] for i in order]
        joined = ResultBlock.concatenate([part.packed() for part in shuffled])
        assert joined._packed is None
        assert (
            joined.packed().to_bytes()
            == ResultBlock.concatenate(shuffled).packed().to_bytes()
            == whole.to_bytes()
        )

    @given(float_splits(), st.data())
    def test_a_json_tagged_part_takes_the_old_path(self, split, data):
        whole, parts = split
        i = data.draw(st.integers(0, len(parts) - 1))
        listed = ResultBlock(parts[i].key_rows, [[v] for v in parts[i].value_list()])
        parts = [*parts[:i], listed, *parts[i + 1:]]
        packed = [part.packed() for part in parts]
        assert packed[i].to_bytes()[4] == 1  # the JSON value tag
        joined = ResultBlock.concatenate(packed)
        assert joined._packed is None
        assert (
            joined.packed().to_bytes()
            == ResultBlock.concatenate(parts).packed().to_bytes()
        )


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


class TestSynthesizedKeys:
    """A key whose every producer was pruned is a key of its keyblock
    with identity state.  Twelve one-instance splits, two of them hot:
    keyblock 0 holds a map's keys between synthesized ones, keyblock 1
    is all synthesized and fetches no file, keyblock 2 is like 0.  The
    planned columnar body, the generic one (``reduce_plan`` withheld)
    and the record plane reduce every keyblock to the oracle's bytes,
    each synthesized key to its own ``[]`` on every attempt."""

    @staticmethod
    def _plan():
        data = np.zeros((48, 6, 4))
        data[4:8] = data[40:44] = 50.0  # instances 1 and 10 pass
        qplan = _compile(data.shape, (4, 3, 2), operator="filter_gt", threshold=25.0)
        zone_map = build_zone_map("v", data, tile_shape=(4, 6, 4))
        splits = aligned_slice_splits(qplan, num_splits=12)
        plan = build_plan(qplan, splits, 3, zone_map=zone_map)
        return qplan, data, plan.with_map_geometry()

    def test_the_plan_places_them_in_its_key_grid(self):
        _, _, plan = self._plan()
        assert plan.pruning.empty_blocks == {1}
        for block in (0, 2):
            rp = plan.reduce_plan(block)
            synth = plan.pruning.synth_keys[block]
            assert len(rp.runs) == 1 and len(rp.rows) == len(rp.runs[0])
            assert 0 < rp.rows[0] and rp.rows[-1] < len(rp.keys) - 1
            assert len(rp.keys) == len(rp.rows) + len(synth)
            assert (rp.keys[rp.rows] == rp.runs[0]).all()
        empty = plan.reduce_plan(1)
        assert empty.runs == () and empty.rows.size == 0
        assert (empty.keys == plan.pruning.synth_keys[1]).all()

    @pytest.mark.parametrize("body", ["planned", "generic", "record"])
    def test_every_body_reduces_them(self, body):
        qplan, data, plan = self._plan()
        record = body == "record"
        job, _ = plan.configure_job(data, data_plane="record" if record else "columnar")
        if body == "generic":
            del job.context["reduce_plan"]
        store = ShuffleStore(persist=True)
        obs = JobObservability(job.name, enabled=False)
        for m in range(len(plan.splits)):
            (run_record_map if record else run_columnar_map)(
                job, m, store, Counters(), obs, None
            )
        reduce = run_record_reduce if record else run_columnar_reduce
        counters = Counters()
        want = ResultBlock.from_records(oracle_records(qplan, data)).to_bytes()
        synth = {
            tuple(k) for keys in plan.pruning.synth_keys.values()
            for k in keys.tolist()
        }
        values = []
        for attempt in range(2):
            records = []
            for p in range(plan.num_reduce_tasks):
                files = [
                    f for m in sorted(plan.deps.dependencies[p])
                    if (f := store.fetch(m, p)) is not None
                ]
                assert bool(files) == (p != 1)
                records += reduce(job, files, counters, obs, ("reduce", p, attempt))
            assert ResultBlock.from_records(records).to_bytes() == want
            values += [v for k, v in records if k in synth]
        assert len(values) == 2 * len(synth) and all(v == [] for v in values)
        assert len({id(v) for v in values}) == len(values)
        # A synthesized key is one group and one output record; the
        # input records are the rows fetched.
        assert counters.get("reduce.input.groups") == 2 * len(records)
        assert counters.get("reduce.output.records") == 2 * len(records)
        fetched = 2 * (len(records) - len(synth))
        assert counters.get("reduce.input.records") == fetched
        paths = tuple(counters.get(name) for name in PATHS)
        assert paths == {"planned": (6, 0), "generic": (0, 6), "record": (0, 0)}[body]


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


def _pruned_reduce_calls(lat: int, partition: int) -> tuple[int, int, ResultBlock]:
    """Calls one warm reduce attempt of a pruned ``filter_gt`` plan
    makes through the engine, fetch included: keyblock 0 holds a
    map's keys after synthesized ones, keyblock 1 is all synthesized.
    Every key count scales with ``lat``."""
    data = np.zeros((16, lat, 4))
    data[4:8] = 50.0  # instance 1 passes
    qplan = _compile(data.shape, (4, 3, 2), operator="filter_gt", threshold=25.0)
    zone_map = build_zone_map("v", data, tile_shape=(4, lat, 4))
    splits = aligned_slice_splits(qplan, num_splits=4)
    plan = build_plan(qplan, splits, 2, zone_map=zone_map).with_map_geometry()
    job, barrier = plan.configure_job(data)
    store = ShuffleStore(persist=True)
    obs = JobObservability(job.name, enabled=False)
    for m in range(len(plan.splits)):
        run_columnar_map(job, m, store, Counters(), obs, None)
    maps = frozenset(range(len(plan.splits)))

    def reduce():
        return LocalEngine()._run_reduce(
            job, partition, barrier, store, Counters(), obs, maps
        )

    reduce()  # warm: first-use caches
    calls, out = _count_calls(reduce)
    return calls, len(plan.pruning.synth_keys[partition]), out


class TestNoPerKeyLoop:
    @pytest.mark.parametrize("partition", [0, 1], ids=["mixed", "all_synthesized"])
    def test_synthesized_keys_add_no_call(self, partition):
        """A pruned keyblock's synthesized keys are rows of its key
        grid: doubling them costs the reduce no call."""
        small, keys, block = _pruned_reduce_calls(30, partition)
        large, more, doubled = _pruned_reduce_calls(60, partition)
        assert more == 2 * keys and len(doubled) == 2 * len(block)
        assert large == small

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


# --------------------------------------------------------------------- #
# Guards: the planned map
# --------------------------------------------------------------------- #
def _compile(space, extract, operator="mean", threshold=None, stride=None):
    return StructuralQuery(
        variable="v", extraction_shape=extract,
        operator=get_operator(operator, threshold=threshold), stride=stride,
    ).compile(simple_metadata("v", space))


def _geometry_arrays(plan):
    for split in plan.splits:
        geometry = plan.map_geometry(split)
        yield geometry.keys
        layout = geometry.layout
        yield from (a for a in (layout.order, layout.keys) if a is not None)
        for run in layout.runs:
            yield from (a for a in (run.starts, run.keys) if a is not None)


class TestPlannedMap:
    def test_served_fine_mean_job_call_budget(self):
        """A warm served job of the ``fine_mean`` shape — (364,40,40),
        extract (7,5,2), 16 splits, 8 reduces — plan-cache hit to packed
        block.  The geometry per split is the cached plan's, so what is
        left is read, window copy, ``map_batch``, cut, commit and the
        reduces.  With the geometry rebuilt per request over
        ``slice_splits`` the same job made ~22 000."""
        with QueryService(workers=1) as service:
            service.register_array("g", "v", np.zeros((364, 40, 40)))
            req = QueryRequest(
                dataset="g", variable="v", extract=(7, 5, 2), operator="mean",
                splits=16, reduces=8, engine="threaded",
            )
            service.result_block(service.submit(req), timeout=60)  # plans
            # What the job's engine process runs, here, where it can be
            # counted.
            calls, out = _count_calls(lambda: run_in_engine(service, req))
            assert service.plan_cache.snapshot()["hits"] == 1
        assert out.state == "done"
        assert out.counters["map.input.records"] == 8320
        assert out.counters["shuffle.segments"] == 19
        assert calls <= 11_000

    @staticmethod
    def _warm_map_calls(lat):
        qplan = _compile((56, lat, 40), (7, 5, 2))
        plan = build_plan(qplan, aligned_slice_splits(qplan, num_splits=4), 3)
        job, _ = plan.configure_job(np.zeros((56, lat, 40)))
        obs = JobObservability(job.name, enabled=False)

        def one_map():
            counters = Counters()
            run_columnar_map(job, 1, ShuffleStore(), counters, obs, None)
            return counters.get("map.input.records")

        one_map()  # computes and keeps split 1's geometry
        return _count_calls(one_map)

    def test_warm_map_calls_do_not_grow_with_keys(self):
        small, keys = self._warm_map_calls(40)
        large, more = self._warm_map_calls(160)
        assert more == 4 * keys
        assert large == small

    def test_geometry_is_read_only(self):
        """Strided (zones cut at split edges), dense, pruned-free: every
        array a plan keeps is shared by every job it serves."""
        kept = StructuralQuery(
            variable="v", extraction_shape=(7, 4, 4), operator=get_operator("sum"),
            keep_partial_instances=True,
        ).compile(simple_metadata("v", (29, 10, 6)))
        seen = set()
        for qplan, splits in (
            (_compile((29, 10, 6), (7, 5, 2)), 3),
            (_compile((29, 10, 6), (2, 3, 2), stride=(3, 4, 3)), 4),
            # clipped tail zones off dim 0: reader order is not key order
            (kept, 2),
        ):
            plan = build_plan(qplan, slice_splits(qplan, num_splits=splits), 3)
            arrays = list(_geometry_arrays(plan.with_map_geometry()))
            assert arrays and plan.nbytes > 0
            seen |= {
                "order" for s in plan.splits
                if plan.map_geometry(s).layout.order is not None
            }
            for array in arrays:
                assert not array.flags.writeable
                with pytest.raises(ValueError):
                    array[...] = 0
        assert seen == {"order"}

    def test_an_out_of_range_partition_is_refused_at_geometry_build(self):
        """The partitioner's range check runs where the layout is cut —
        at plan time for a planned split, before any row spills."""

        class Broken(Partitioner):
            def partition(self, key, n):
                return n + 5

        qplan = _compile((14, 10, 6), (7, 5, 2))
        (split,) = slice_splits(qplan, num_splits=1)
        with pytest.raises(ShuffleError, match="out-of-range partition"):
            map_geometry(qplan, split, Broken(), 2)

    @staticmethod
    def _block_bytes(job, barrier=None):
        return LocalEngine().run(job, barrier, mode="serial").all_records().to_bytes()

    @pytest.mark.parametrize("split", [slice_splits, aligned_slice_splits])
    @pytest.mark.parametrize(
        "query",
        [
            dict(extract=(3, 2, 2), stride=(4, 3, 3)),
            dict(extract=(4, 3, 2), operator="filter_gt", threshold=30.0),
        ],
        ids=["strided", "pruned"],
    )
    def test_second_run_is_the_first_and_a_fresh_plans(self, query, split):
        """A plan's cached geometry replays byte-identically: its second
        run, its first and a freshly built plan's agree, and with the
        oracle — strided (instances cut at slice edges, so combine runs)
        and pruned (re-indexed surviving splits)."""
        rng = np.random.default_rng(5)
        data = rng.integers(0, 20, size=(23, 9, 8)).astype(np.float64)
        data[12:] += 20  # only the tail can pass the filter: pruning bites
        qplan = _compile((23, 9, 8), **query)
        zone_map = build_zone_map("v", data, tile_shape=(4, 9, 8))

        def fresh():
            return build_plan(
                qplan, split(qplan, num_splits=5), 3, zone_map=zone_map
            )

        plan = fresh()
        if query.get("operator") == "filter_gt":
            assert plan.pruning is not None and plan.pruning.num_pruned
        runs = [self._block_bytes(*plan.configure_job(data)) for _ in range(2)]
        runs.append(self._block_bytes(*fresh().configure_job(data)))
        want = ResultBlock.from_records(oracle_records(qplan, data)).to_bytes()
        assert runs == [want] * 3

    def test_hash_partitioned_geometry_replays(self):
        """The same function cuts a ``HashPartitioner`` layout: kept and
        reused, recomputed every call, and the oracle agree."""
        rng = np.random.default_rng(6)
        data = rng.integers(0, 20, size=(21, 10, 6)).astype(np.float64)
        qplan = _compile((21, 10, 6), (7, 5, 2))
        splits = slice_splits(qplan, num_splits=4)
        partitioner, reduces = HashPartitioner(), 4
        op = qplan.operator
        kept = {}

        def planned(split):
            if split.index not in kept:
                kept[split.index] = map_geometry(qplan, split, partitioner, reduces)
            return kept[split.index]

        def job(geometry):
            return JobConf(
                name="hash", splits=splits,
                reader_factory=make_columnar_reader_factory(data, qplan, geometry),
                mapper_factory=lambda: ChunkAggregateMapper(op),
                reducer_factory=lambda: AggregateReducer(op),
                partitioner=partitioner, num_reduce_tasks=reduces,
                combiner_factory=lambda: CombinerAdapter(op),
                batch_operator=batch_operator_for(op),
            )

        runs = [self._block_bytes(job(planned)) for _ in range(2)]
        assert len(kept) == len(splits)
        assert all(g.layout.fits(partitioner, reduces) for g in kept.values())
        runs.append(self._block_bytes(job(None)))
        want = ResultBlock.from_records(oracle_records(qplan, data)).to_bytes()
        assert runs == [want] * 3

    def test_a_layout_cut_for_another_partitioner_is_not_used(self):
        """A SIDR job whose partitioner is swapped after ``configure_job``
        gets layouts cut for the new one, not the plan's."""
        rng = np.random.default_rng(7)
        data = rng.integers(0, 20, size=(21, 10, 6)).astype(np.float64)
        qplan = _compile((21, 10, 6), (7, 5, 2))
        plan = build_plan(qplan, aligned_slice_splits(qplan, num_splits=3), 2)
        job, _ = plan.with_map_geometry().configure_job(data)
        job.partitioner = hashed = HashPartitioner()
        job.contact_all_maps = True
        del job.context["reduce_start_validator"]  # counts are per keyblock
        res = LocalEngine().run(job, mode="serial")
        want = ResultBlock.from_records(oracle_records(qplan, data)).to_bytes()
        assert res.all_records().to_bytes() == want
        for p, block in res.outputs.items():
            assert (hashed.partition_many(block.key_rows, 2) == p).all()

    def test_keys_that_repeat_within_a_map_are_combined(self):
        """A split of two slabs that cut the same instances: its keys
        repeat, its layout's runs carry group starts, and the map-side
        combine folds them — planned or not, equal to the oracle."""
        from repro.arrays.slab import Slab
        from repro.query.splits import CoordinateSplit

        rng = np.random.default_rng(8)
        data = rng.integers(0, 20, size=(14, 10, 6)).astype(np.float64)
        for operator in ("mean", "median"):
            qplan = _compile((14, 10, 6), (7, 5, 2), operator=operator)
            splits = [
                CoordinateSplit(0, "v", (
                    Slab((0, 0, 0), (3, 10, 6)), Slab((3, 0, 0), (4, 10, 6)),
                ), 8),
                CoordinateSplit(1, "v", (Slab((7, 0, 0), (7, 10, 6)),), 8),
            ]
            plan = build_plan(qplan, splits, 2)
            layout = plan.map_geometry(plan.splits[0]).layout
            for run in layout.runs:
                assert run.starts is not None and len(run.keys) < run.end - run.start
                assert not (run.starts.flags.writeable or run.keys.flags.writeable)
            want = ResultBlock.from_records(oracle_records(qplan, data)).to_bytes()
            for _ in range(2):
                assert self._block_bytes(*plan.configure_job(data)) == want


# --------------------------------------------------------------------- #
# Guards: the planned reduce
# --------------------------------------------------------------------- #
#: Operators with a threshold, and the one every case below uses.
THRESHOLD = {"filter_gt": 25.0, "range_exceeds": 5.0}
#: The columnar reduce's path counters: the one thing the two bodies
#: may not share.
PATHS = ("reduce.planned", "reduce.generic")


def _matrix_data():
    rng = np.random.default_rng(11)
    data = rng.integers(0, 20, size=(24, 9, 8)).astype(np.float64)
    data[12:] += 20  # only the tail can pass the filter: pruning bites
    return data


def _matrix_jobs(case, operator, data):
    """``case``'s job for ``operator``, built twice: ``(job, barrier)``
    pairs that run the same maps and differ only in the reduce body the
    fetch may take — the first as configured, the second with its
    keyblocks' reduce plans withheld, so every reduce merges."""
    query = dict(extract=(4, 3, 2))
    splits, prune, hashed = aligned_slice_splits, False, False
    if case == "sliced":
        splits = slice_splits
    elif case == "hash":
        hashed = True
    elif case == "pruned":
        prune = True
    elif case == "repeating":
        # Gapped instances that the slice cuts split: their keys repeat
        # across maps.
        splits, query = slice_splits, dict(extract=(3, 2, 2), stride=(4, 3, 3))
    qplan = _compile(
        data.shape, operator=operator, threshold=THRESHOLD.get(operator), **query
    )
    zone_map = build_zone_map("v", data, tile_shape=(4, 9, 8)) if prune else None
    # 8 slices of 24 rows cut an instance inside every keyblock.
    plan = build_plan(qplan, splits(qplan, num_splits=8), 3, zone_map=zone_map)
    if prune:
        assert plan.pruning is not None and plan.pruning.synth_keys
    pairs = []
    for withheld in (False, True):
        job, barrier = plan.configure_job(data)
        if hashed:
            job.partitioner = HashPartitioner()
            job.contact_all_maps = True
            del job.context["reduce_start_validator"]
            barrier = None
        elif case == "hand_built":
            op = qplan.operator
            # The plan's splits, partitioner and map geometry, but not
            # its job: nothing names the keyblocks' reduce plans.
            job = JobConf(
                name="hand-built", splits=list(plan.splits),
                reader_factory=make_columnar_reader_factory(
                    data, qplan, plan.map_geometry
                ),
                mapper_factory=lambda: ChunkAggregateMapper(op),
                reducer_factory=lambda: AggregateReducer(op),
                partitioner=plan.partitioner,
                num_reduce_tasks=plan.num_reduce_tasks,
                combiner_factory=lambda: CombinerAdapter(op),
                batch_operator=batch_operator_for(op),
            )
            barrier = None
        if withheld:
            job.context.pop("reduce_plan", None)
        pairs.append((job, barrier))
    return qplan, pairs


def _observed(job, barrier):
    """Block bytes, counters without the path counters, the
    ``reduce.group.size`` histogram, and the path counters of one
    serial run."""
    res = LocalEngine().run(job, barrier, mode="serial")
    counters = res.counters.as_dict()
    paths = tuple(counters.pop(name, 0) for name in PATHS)
    sizes = res.obs.metrics.snapshot()["histograms"]["reduce.group.size"]
    return res.all_records().to_bytes(), counters, sizes, paths


#: Every operator on every case; only a prune predicate synthesizes keys.
MATRIX = [
    (case, operator)
    for case in ("aligned", "sliced", "hash", "pruned", "repeating", "hand_built")
    for operator in OPERATORS
    if case != "pruned" or operator in PRUNABLE_OPERATORS
]


class TestPlannedReduce:
    @pytest.mark.parametrize("case,operator", MATRIX)
    def test_planned_body_is_the_generic_body(self, case, operator):
        """Both reduce bodies, the same job: equal block bytes, equal
        counters and the same ``reduce.group.size`` histogram — the
        planned body observes one group of one row per key — and only
        the aligned plans' keyblocks take the planned body, a pruned
        plan's with synthesized keys among them included."""
        data = _matrix_data()
        qplan, (configured, withheld) = _matrix_jobs(case, operator, data)
        block, counters, sizes, (planned, generic) = _observed(*configured)
        again, generic_counters, generic_sizes, paths = _observed(*withheld)
        want = ResultBlock.from_records(oracle_records(qplan, data)).to_bytes()
        assert block == again == want
        assert counters == generic_counters
        assert sizes == generic_sizes
        assert paths == (0, planned + generic)
        if case in ("aligned", "pruned"):
            assert (planned, generic) == (3, 0)
            groups = counters["reduce.input.groups"]
            synthesized = counters.get("plan.keys.synthesized", 0)
            assert groups - synthesized == counters["reduce.input.records"]
            assert groups == counters["reduce.output.records"]
            assert sizes["count"] == sizes["sum"] == groups
        else:
            assert planned == 0 and generic

    def test_a_served_pruned_job_takes_the_planned_reduce(self):
        """The served shape of a pruned ``filter_gt`` job — aligned
        splits, the plan's map geometry, a zone map that prunes 14 of
        16 splits — reduces every keyblock on the planned body, and its
        bytes are the unpruned job's and the oracle's."""
        rng = np.random.default_rng(12)
        data = rng.integers(0, 20, size=(64, 10, 8)).astype(np.float64)
        data[20:28] += 20  # two splits can pass the filter
        qplan = _compile(data.shape, (4, 5, 2), operator="filter_gt", threshold=25.0)
        zone_map = build_zone_map("v", data, tile_shape=(4, 10, 8))

        def run(prune):
            plan = build_plan(
                qplan, aligned_slice_splits(qplan, num_splits=16), 8,
                zone_map=zone_map, prune=prune,
            ).with_map_geometry()
            res = LocalEngine().run(*plan.configure_job(data), mode="serial")
            return plan, res

        plan, pruned = run(True)
        assert plan.pruning.num_pruned == 14
        assert pruned.counters.get("reduce.planned") == plan.num_reduce_tasks
        assert "reduce.generic" not in pruned.counters.as_dict()
        block = pruned.all_records()
        assert pruned.counters.get("reduce.output.records") == len(block)
        _, full = run(False)
        want = ResultBlock.from_records(oracle_records(qplan, data)).to_bytes()
        assert block.to_bytes() == full.all_records().to_bytes() == want

    def test_a_fetch_that_is_not_the_plans_merges(self):
        """The planned body runs only on exactly the plan's runs: a
        keyblock's fetch missing a map, one map's spill replaced by an
        unplanned one with the same keys or by an empty one, takes the
        generic body — and it and the planned body agree on what they
        share."""
        data = _matrix_data()
        qplan = _compile(data.shape, (4, 3, 2))
        plan = build_plan(qplan, aligned_slice_splits(qplan, num_splits=5), 2)
        job, _ = plan.configure_job(data)
        store = ShuffleStore(persist=True)
        obs = JobObservability(job.name, enabled=False)
        for m in range(len(plan.splits)):
            run_columnar_map(job, m, store, Counters(), obs, None)
        maps = sorted(plan.deps.dependencies[0])
        files = [store.fetch(m, 0) for m in maps]
        assert len(files) > 1 and plan.reduce_plan(0).matches(files)

        def reduce(files):
            counters = Counters()
            block = run_columnar_reduce(job, files, counters, obs, None)
            return block, tuple(counters.get(name) for name in PATHS)

        whole, paths = reduce(files)
        assert paths == (1, 0)
        first = len(files[0].keys)
        # A missing spill: the rest merge, and equal the plan's tail.
        tail, paths = reduce(files[1:])
        assert paths == (0, 1)
        assert tail.to_bytes() == whole[first:].to_bytes()
        # The same rows under keys that are not the run's own array.
        f = files[0]
        copied = ColumnarMapOutput(
            f.map_id, f.partition, f.keys.copy(), f.states, f.source_counts,
            f.source_records,
        )
        same, paths = reduce([copied, *files[1:]])
        assert paths == (0, 1)
        assert same.to_bytes() == whole.to_bytes()
        # An empty spill in a map's place, and no fetch at all.
        empty = ColumnarMapOutput(
            f.map_id, f.partition, f.keys[:0],
            tuple(c[:0] for c in f.states), f.source_counts[:0], 0,
        )
        tail_again, paths = reduce([empty, *files[1:]])
        assert paths == (0, 1)
        assert tail_again.to_bytes() == tail.to_bytes()
        nothing, paths = reduce([])
        assert len(nothing) == 0 and paths == (0, 0)

    def test_a_spill_of_a_planned_run_is_not_rescanned(self, monkeypatch):
        """The layout's runs are checked once, where the geometry is
        made; a map then spills its planned runs without a per-spill
        sort scan, and a reader without a planned layout is checked per
        spill."""
        calls = []
        original = ColumnarMapOutput.check_sorted
        monkeypatch.setattr(
            ColumnarMapOutput, "check_sorted",
            lambda self: calls.append(self.map_id) or original(self),
        )
        data = _matrix_data()
        qplan = _compile(data.shape, (4, 3, 2))
        plan = build_plan(qplan, aligned_slice_splits(qplan, num_splits=5), 3)
        job, _ = plan.configure_job(data)
        obs = JobObservability(job.name, enabled=False)
        counters = Counters()
        run_columnar_map(job, 0, ShuffleStore(), counters, obs, None)
        assert counters.get("shuffle.segments") and calls == []
        job.reader_factory = make_columnar_reader_factory(data, qplan)
        run_columnar_map(job, 0, ShuffleStore(), counters, obs, None)
        assert len(calls) == counters.get("shuffle.segments") // 2
