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
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.arrays.linearize import expand_runs, index_runs
from repro.errors import ShuffleError
from repro.mapreduce.columnar import (
    ColumnarMapOutput,
    ExceedsColumn,
    Ragged,
    ResultBlock,
    fixed_block_nbytes,
    run_columnar_map,
    run_columnar_reduce,
)
from repro.mapreduce import columnar as columnar_module
from repro.mapreduce import engine as engine_module
from repro.mapreduce.counters import Counters
from repro.mapreduce.engine import GlobalBarrier, JobResult, LocalEngine
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
from repro.query.recordreader import make_reader_factory
from repro.query.splits import aligned_slice_splits, slice_splits
from repro.scidata.metadata import simple_metadata
from repro.scidata.zonemaps import build_zone_map
from repro.service import QueryRequest, QueryService, run_in_engine
from repro.service.api import ServiceError, decode_result_body, encode_result_body
from repro.service.engine_process import digest_and_block
from repro.sidr.planner import build_plan
from repro.verify.oracle import canonicalize_records, oracle_records, records_digest

RECORDS = [((0, 1), 1.5), ((0, 2), -2.0), ((1, 0), 0.25)]
#: The K'_T :func:`block_of` keys its blocks in.
SPACE = (4, 4)


def keyed(space, keys, values):
    """The block of ``keys``, increasing row-major indices in ``space``,
    and their ``values``."""
    return ResultBlock(space, index_runs(np.asarray(keys, dtype=np.int64)), values)


def block_of(records, space=SPACE):
    """The block of ``records``, in key order, in ``space``."""
    rows = np.asarray([k for k, _ in records], dtype=np.int64)
    index = np.ravel_multi_index(tuple(rows.reshape(-1, len(space)).T), space)
    return keyed(space, index, [v for _, v in records])


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

    def test_from_records_infers_the_bounding_space(self):
        """A record list's space is its keys' per-axis maximum plus
        one, its keys their row-major indices there, as runs."""
        block = ResultBlock.from_records(RECORDS[::-1])
        assert block.space == (2, 3)
        assert block.key_index.tolist() == [1, 2, 3]
        assert block.runs.tolist() == [[1, 4]]
        np.testing.assert_array_equal(block.key_rows, [k for k, _ in RECORDS])
        full = ResultBlock.from_records([((i, j), 1.0) for i, j in np.ndindex(3, 2)])
        assert full.space == (3, 2) and full.runs.tolist() == [[0, 6]]

    @pytest.mark.parametrize("keys,why", [
        ([(0, -1), (0, 0)], "negative"),
        ([(0, 1), (0, 1)], "repeat"),
        ([(0.5,), (1,)], "integer"),
        ([(0, 1), (1,)], "one rank"),
        ([(True,), (False,)], "integer"),
        ([(2**62, 2**62), (0, 0)], "bounded volume"),
    ])
    def test_from_records_refuses_bad_keys(self, keys, why):
        with pytest.raises(ShuffleError, match=why):
            ResultBlock.from_records([(k, 1.0) for k in keys])

    def test_list_valued_column(self):
        records = [((0,), [1.0, 2.0]), ((1,), []), ((2,), [3.0])]
        block = keyed((3,), [0, 1, 2], [v for _, v in records])
        assert list(block) == records
        assert block.canonical_records() == canonicalize_records(records)

    def test_rank_one_keys(self):
        block = keyed((8,), [3, 7], np.asarray([1, 2]))
        assert list(block) == [((3,), 1), ((7,), 2)]
        assert type(block[0][1]) is int
        assert block.runs.tolist() == [[3, 4], [7, 8]]

    def test_empty_partition(self):
        block = ResultBlock.empty()
        assert len(block) == 0 and list(block) == []
        assert block.canonical_records() == []
        assert list(ResultBlock.from_records([])) == []
        full = block_of(RECORDS)
        assert list(ResultBlock.concatenate([block, full, block])) == RECORDS
        assert list(ResultBlock.concatenate([block, block])) == []

    def test_shape_is_validated(self):
        with pytest.raises(ShuffleError, match=r"\(R, 2\)"):
            ResultBlock((4,), np.asarray([1, 2]), np.asarray([1.0, 2.0]))
        with pytest.raises(ShuffleError, match="mismatch"):
            ResultBlock((4,), [[1, 3]], np.asarray([1.0]))

    def test_pickle_round_trip(self):
        for block in (
            block_of(RECORDS),
            keyed((2,), [0, 1], [[1.0], []]),
            ResultBlock.empty(),
            block_of(RECORDS).packed(),
        ):
            clone = pickle.loads(pickle.dumps(block))
            assert isinstance(clone, ResultBlock)
            assert list(clone) == list(block) and clone.space == block.space
            assert clone.key_index.dtype == clone.key_rows.dtype == np.int64

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

    def test_blocks_of_different_spaces_do_not_concatenate(self):
        a, b = block_of(RECORDS[:2]), block_of(RECORDS[2:], space=(2, 3))
        with pytest.raises(ShuffleError, match="different key spaces"):
            ResultBlock.concatenate([a, b])

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
#: Float64 bit patterns a packed float must carry or canonicalize: NaNs
#: with payloads and either sign (a packed block holds the one quiet
#: NaN), and -0.0.
_SPECIAL_BITS = [0x7FF8000000000001, 0xFFF8000000000000, 0x7FF0000000000001,
                 0x8000000000000000]
_QUIET_NAN, _NEGATIVE_ZERO = 0x7FF8000000000000, 0x8000000000000000


def _float_of(bits):
    return np.array(bits, dtype=np.uint64).view(np.float64).item()


_ANY_FLOATS = st.one_of(_FLOATS, st.sampled_from(_SPECIAL_BITS).map(_float_of))
#: One value per row, by value column.
_COLUMNS = {
    "float": lambda n: st.lists(_ANY_FLOATS, min_size=n, max_size=n).map(
        lambda v: np.asarray(v, dtype=np.float64)
    ),
    "int": lambda n: st.lists(
        st.integers(-(2**63), 2**63 - 1), min_size=n, max_size=n
    ).map(lambda v: np.asarray(v, dtype=np.int64)),
    "ragged": lambda n: st.lists(
        st.lists(_ANY_FLOATS, max_size=4), min_size=n, max_size=n
    ),
    # Canonical dicts: keys in sorted order, as the oracle writes them.
    "range_exceeds": lambda n: st.lists(
        st.builds(
            lambda e, v: {"exceeds": e, "variation": v},
            st.booleans(), _ANY_FLOATS,
        ),
        min_size=n, max_size=n,
    ),
}
#: The value tag each column packs under.
_TAGS = {"float": 0, "int": 2, "ragged": 3, "range_exceeds": 4}


#: A K'_T of 1-4 axes: small extents, so keys fall into runs, or wide
#: ones, so indices reach far into int64.
_SPACES = st.lists(
    st.integers(1, 6) | st.integers(1, 2**15), min_size=1, max_size=4
).map(tuple)


@st.composite
def blocks(draw, kind=None, min_rows=1, max_rows=8):
    """A block in key order: distinct keys of a 1-4-axis space, in as
    many runs as they fall into, one of the value kinds."""
    space = draw(_SPACES.filter(lambda space: math.prod(space) >= min_rows))
    index = sorted(draw(st.sets(
        st.integers(0, math.prod(space) - 1), min_size=min_rows,
        max_size=min(max_rows, math.prod(space)),
    )))
    kind = kind or draw(st.sampled_from(sorted(_COLUMNS)))
    return keyed(space, index, draw(_COLUMNS[kind](len(index))))


def _column_arrays(values):
    """Every array a value column holds."""
    if isinstance(values, np.ndarray):
        return [values]
    return [getattr(values, name) for name in values._fields]


def _float_bits(block):
    """The uint64 bits of every float64 a packed block's value column
    carries."""
    values = ResultBlock.from_bytes(block.to_bytes()).values
    floats = {
        np.ndarray: lambda v: v, Ragged: lambda v: v.values,
        ExceedsColumn: lambda v: v.variation,
    }[type(values)](values)
    return floats.view(np.uint64).tolist()


#: Where a packed block's header keeps its run count and its value
#: bytes.
_RUNS_AT, _VALUE_BYTES_AT = 16, 24


def _ragged_bytes():
    """A packed two-row ragged block and where its lengths start: past
    the 32-byte header, the rank-1 shape and the one run."""
    block = keyed((2,), [0, 1], [[1.0, 2.0], [3.0]])
    return bytearray(block.to_bytes()), 32 + 8 + 16


class TestByteForm:
    @given(blocks(min_rows=0))
    def test_round_trip_is_repr_identical(self, block):
        data = block.to_bytes()
        clone = ResultBlock.from_bytes(data)
        assert repr(clone.canonical_records()) == repr(block.canonical_records())
        assert clone.to_bytes() == data
        assert clone.space == (block.space if len(block) else ())
        np.testing.assert_array_equal(clone.key_index, block.key_index)
        assert not clone.runs.flags.writeable
        for array in _column_arrays(clone.values):
            assert not array.flags.writeable
        # a writable buffer does not make the views writable
        again = ResultBlock.from_bytes(bytearray(data))
        assert not again.runs.flags.writeable
        for array in _column_arrays(again.values):
            assert not array.flags.writeable
        assert again.to_bytes() == data

    @given(blocks())
    def test_each_column_has_its_own_tag(self, block):
        kind = {v: k for k, v in _TAGS.items()}[block.to_bytes()[4]]
        canonical = block.canonical_records()
        if kind == "ragged":
            assert all(type(v) is list for _, v in canonical)
        elif kind == "range_exceeds":
            assert all(list(v) == ["exceeds", "variation"] for _, v in canonical)
        else:
            assert {type(v) for _, v in canonical} == {
                "float": {float}, "int": {int}
            }[kind]

    def test_special_floats_keep_their_repr(self):
        column = np.asarray([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324])
        block = keyed((6,), np.arange(6), column)
        clone = ResultBlock.from_bytes(block.to_bytes())
        assert repr(clone.canonical_records()) == repr(block.canonical_records())
        assert repr(clone[3][1]) == "-0.0" and repr(clone[0][1]) == "nan"

    @pytest.mark.parametrize("kind", ["float", "ragged", "range_exceeds"])
    def test_nans_pack_quiet_and_negative_zero_keeps_its_sign(self, kind):
        """Every NaN of every float64 a column carries — float64 values,
        a ragged row's cells, ``range_exceeds``' variations — packs as
        the one quiet NaN, whatever its payload or sign; ``-0.0`` keeps
        its sign bit."""
        special = [_float_of(bits) for bits in _SPECIAL_BITS]
        values = {
            "float": np.asarray(special),
            "ragged": [special[:2], [], special[2:]],
            "range_exceeds": [
                {"exceeds": i % 2 == 0, "variation": v}
                for i, v in enumerate(special)
            ],
        }[kind]
        block = keyed((len(values),), np.arange(len(values)), values)
        bits = _float_bits(block)
        assert bits == [_QUIET_NAN] * 3 + [_NEGATIVE_ZERO]
        clone = ResultBlock.from_bytes(block.to_bytes())
        assert repr(clone.canonical_records()) == repr(block.canonical_records())

    def test_all_empty_rows(self):
        """A ragged block whose every row is ``[]`` — a ``filter_gt``
        keyblock nothing passed — holds its lengths and no cell."""
        block = ResultBlock.from_records([((k,), []) for k in range(3)])
        assert isinstance(block.values, Ragged) and block.values.values.size == 0
        data = block.to_bytes()
        # header, shape, one run, three lengths
        assert data[4] == _TAGS["ragged"] and len(data) == 32 + 8 + 16 + 3 * 8
        clone = ResultBlock.from_bytes(data)
        assert clone.canonical_records() == [((0,), []), ((1,), []), ((2,), [])]
        assert clone.to_bytes() == data

    def test_empty_blocks_share_one_encoding(self):
        rank0 = ResultBlock.empty()
        rank3 = keyed((2, 3, 4), np.empty(0, dtype=np.int64), [])
        assert rank0.to_bytes() == rank3.to_bytes()
        assert block_of(RECORDS)[:0].to_bytes() == rank0.to_bytes()
        clone = ResultBlock.from_bytes(rank3.to_bytes())
        assert len(clone) == 0 and clone.canonical_records() == []
        ragged = keyed((1,), [0], [[1.0]])[:0]
        assert ragged.to_bytes() == rank0.to_bytes()

    @given(blocks(kind="float"))
    def test_equal_canonical_records_give_equal_bytes(self, block):
        """Whatever holds the column — float array, list of floats, the
        record plane's ``from_records`` in the block's space — and
        whichever NaN it holds."""
        data = block.to_bytes()
        as_list = keyed(block.space, block.key_index, block.values.tolist())
        assert as_list.to_bytes() == data
        records = ResultBlock.from_records(block.canonical_records())
        assert keyed(block.space, block.key_index, records.values).to_bytes() == data
        flipped = np.where(np.isnan(block.values), -block.values, block.values)
        assert keyed(block.space, block.key_index, flipped).to_bytes() == data

    @given(_SPACES.filter(lambda space: math.prod(space) <= 64), st.data())
    def test_a_complete_result_is_one_run_in_either_form(self, space, data):
        """Keys that are all of K'_T are one run, and their record
        list's bounding shape is K'_T: the block and the list give the
        same bytes — why a complete result has one digest."""
        n = math.prod(space)
        block = keyed(space, np.arange(n), data.draw(_COLUMNS["float"](n)))
        assert block.runs.tolist() == [[0, n]]
        data = block.to_bytes()
        assert ResultBlock.from_records(block.canonical_records()).to_bytes() == data
        assert len(data) == fixed_block_nbytes(n, len(space), 8)

    def test_mixed_numbers_are_refused(self):
        """``1`` and ``1.0`` stay apart: a column is all ints or all
        floats, and a list of both is no value column at all."""
        for values in ([1, 2.0], [[1.0], 2.0], [[1]], [True, False],
                       [{"variation": 1.0, "exceeds": True}], ["a"]):
            with pytest.raises(ShuffleError, match="not all floats"):
                keyed((len(values),), np.arange(len(values)), values)
        with pytest.raises(ShuffleError, match="int64 range"):
            ResultBlock.from_records([((0,), 2**63)])
        ints = keyed((2,), [0, 1], [1, 2])
        floats = keyed((2,), [0, 1], [1.0, 2.0])
        assert ints.to_bytes() != floats.to_bytes()
        assert repr(ResultBlock.from_bytes(ints.to_bytes()).canonical_records()) == (
            "[((0,), 1), ((1,), 2)]"
        )

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
        for tag in (1, 7):  # 1 named a JSON column once
            with pytest.raises(ShuffleError, match=f"value tag {tag}"):
                ResultBlock.from_bytes(good[:4] + bytes([tag]) + good[5:])
        with pytest.raises(ShuffleError, match="magic"):
            ResultBlock.from_bytes(b"NOPE" + good[4:])
        # a row or run count the buffer cannot hold is refused, not
        # allocated
        for at in (8, _RUNS_AT):
            huge = good[:at] + struct.pack("<Q", 2**62) + good[at + 8:]
            with pytest.raises(ShuffleError):
                ResultBlock.from_bytes(huge)
        exceeds = keyed(
            (1,), [0], [{"exceeds": True, "variation": 1.0}]
        ).to_bytes()
        with pytest.raises(ShuffleError, match="not 0 or 1"):
            ResultBlock.from_bytes(exceeds[:-1] + b"\x02")

    def test_malformed_ragged_columns_raise(self):
        data, at = _ragged_bytes()
        assert ResultBlock.from_bytes(bytes(data)).value_list() == [[1.0, 2.0], [3.0]]

        def patched(*lengths):
            return bytes(data[:at] + struct.pack("<2q", *lengths) + data[at + 16:])

        with pytest.raises(ShuffleError, match="outside"):
            ResultBlock.from_bytes(patched(-1, 4))  # sums to 3
        with pytest.raises(ShuffleError, match="outside"):
            ResultBlock.from_bytes(patched(4, -1))
        with pytest.raises(ShuffleError, match="4 cells, values 3"):
            ResultBlock.from_bytes(patched(2, 2))
        with pytest.raises(ShuffleError, match="0 cells, values 3"):
            ResultBlock.from_bytes(patched(0, 0))
        with pytest.raises(ShuffleError, match="outside"):  # past the cells
            ResultBlock.from_bytes(patched(4, 2**63 - 1))
        # truncated: the buffer short of its header's size, and a
        # header cut to match whose lengths then overrun the cells
        with pytest.raises(ShuffleError, match="header says"):
            ResultBlock.from_bytes(bytes(data[:-8]))
        short = bytearray(data[:-8])
        struct.pack_into(
            "<Q", short, _VALUE_BYTES_AT,
            struct.unpack_from("<Q", data, _VALUE_BYTES_AT)[0] - 8,
        )
        with pytest.raises(ShuffleError, match="3 cells, values 2"):
            ResultBlock.from_bytes(bytes(short))
        # cell bytes that are not whole float64s
        odd = bytearray(data + b"\0")
        struct.pack_into(
            "<Q", odd, _VALUE_BYTES_AT,
            struct.unpack_from("<Q", data, _VALUE_BYTES_AT)[0] + 1,
        )
        with pytest.raises(ShuffleError, match="value bytes"):
            ResultBlock.from_bytes(bytes(odd))

    def test_malformed_run_tables_raise(self):
        """A run table is outside input too: runs that descend, overlap,
        touch without joining or run past ``volume(space)``, runs whose
        lengths do not sum to the rows, and a shape the rows cannot
        have are each refused."""
        block = keyed((3, 4), [1, 2, 5, 9, 10], [1.0, 2.0, 3.0, 4.0, 5.0])
        data = block.to_bytes()
        assert block.runs.tolist() == [[1, 3], [5, 6], [9, 11]]

        def patched(runs=None, shape=None):
            out = bytearray(data)
            if runs is not None:
                struct.pack_into("<6q", out, 32 + 2 * 8, *np.ravel(runs))
            if shape is not None:
                struct.pack_into("<2q", out, 32, *shape)
            return bytes(out)

        assert ResultBlock.from_bytes(patched([[1, 3], [5, 6], [9, 11]])) == block
        for runs in ([[3, 1], [5, 6], [9, 13]],  # descending
                     [[1, 3], [6, 5], [9, 12]],
                     [[1, 3], [6, 6], [9, 12]],  # empty
                     [[1, 4], [3, 4], [9, 11]],  # overlapping
                     [[5, 6], [1, 3], [9, 11]],  # out of order
                     [[1, 3], [3, 4], [9, 11]],  # touching, not joined
                     [[1, 3], [5, 6], [11, 13]],  # past volume(space)
                     [[-1, 1], [5, 6], [9, 11]],
                     # descending, but every difference wraps positive
                     [[0, 2**63 - 1], [-2**63, -1], [0, 7]]):
            with pytest.raises(ShuffleError, match="are not increasing keys"):
                ResultBlock.from_bytes(patched(runs))
        for runs in ([[1, 3], [5, 6], [9, 10]],  # 4 keys, not 5
                     [[0, 3], [5, 6], [9, 11]]):  # 6
            with pytest.raises(ShuffleError, match="row mismatch"):
                ResultBlock.from_bytes(patched(runs))
        for shape in ((2, 4), (0, 12), (-3, -4)):  # volume 8 < 11; extents < 1
            with pytest.raises(ShuffleError, match="are not increasing keys"):
                ResultBlock.from_bytes(patched(shape=shape))
        # the header's rank counts the shape: a rank the bytes do not
        # hold fails the length check, and rank 0 has no rows
        for rank in (1, 3):
            wrong = data[:6] + struct.pack("<H", rank) + data[8:]
            with pytest.raises(ShuffleError, match="header says"):
                ResultBlock.from_bytes(wrong)
        one = keyed((1,), [0], [1.0]).to_bytes()
        rank0 = one[:6] + struct.pack("<H", 0) + one[8:32] + one[40:]
        with pytest.raises(ShuffleError, match="are not increasing keys of shape"):
            ResultBlock.from_bytes(rank0)

    def test_packed_block_owns_one_buffer(self):
        source = np.arange(12.0)
        block = keyed((24,), np.arange(24)[::4], source[::2])
        packed = block.packed()
        assert packed == block
        assert packed.to_bytes() is packed.to_bytes()
        assert packed.to_bytes() == block.to_bytes()
        for array in (packed.runs, packed.values):
            assert not array.flags.writeable
            assert not np.shares_memory(array, source)
        # a slice of it is its own block, not the whole buffer again
        assert ResultBlock.from_bytes(packed[1:3].to_bytes()) == list(block)[1:3]

    @given(
        st.sampled_from(["int", "ragged", "range_exceeds"]).flatmap(
            lambda kind: blocks(kind=kind, min_rows=0)
        )
    )
    @example(keyed(
        (3,), np.arange(3),
        [[math.nan, math.inf, -math.inf, -0.0, 0.0], [], [-0.0]],
    ))
    @example(keyed(
        (2,), np.arange(2),
        [{"exceeds": True, "variation": -0.0},
         {"exceeds": False, "variation": math.nan}],
    ))
    def test_packed_list_column_is_the_parsed_one(self, block):
        """``packed()`` of a block whose values read as lists, dicts or
        ints views its own bytes: the same records, by ``repr``, and the
        same bytes as the block read back, every array read-only and
        none of the source's."""
        packed = block.packed()
        parsed = ResultBlock.from_bytes(block.to_bytes())
        assert repr(packed.canonical_records()) == repr(parsed.canonical_records())
        assert packed.to_bytes() == parsed.to_bytes() == block.to_bytes()
        assert not packed.runs.flags.writeable
        for array, source in zip(
            _column_arrays(packed.values), _column_arrays(block.values)
        ):
            assert not array.flags.writeable
            assert not np.shares_memory(array, source)

    @given(blocks(min_rows=0))
    def test_result_body_round_trip(self, block):
        doc = {"id": "j00001", "state": "done", "num_records": len(block)}
        body = encode_result_body(doc, block)
        got = decode_result_body(body)
        records = got.pop("records")
        assert got == doc
        assert isinstance(records, ResultBlock)
        assert repr(records.canonical_records()) == repr(block.canonical_records())
        assert records.runs.flags.aligned
        for array in _column_arrays(records.values):
            assert array.flags.aligned
        assert decode_result_body(encode_result_body(doc, None)) == doc
        for damaged in (body[:5], body[:-1], body + b"\0", b"\xff" * 8 + body[8:]):
            with pytest.raises(ServiceError):
                decode_result_body(damaged)


#: Values drawn for operator-shaped blocks: small integers, the signed
#: zeros, infinities and NaNs with payloads.
_CELLS = st.one_of(
    st.integers(-3, 3).map(float),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf]),
    st.sampled_from(_SPECIAL_BITS).map(_float_of),
)


@st.composite
def operator_blocks(draw):
    """An operator and the block its batch protocol finalizes from an
    ``(n, cells)`` value block: the engine's columns as a reduce builds
    them, every value column included."""
    name = draw(st.sampled_from(OPERATORS))
    op = get_operator(name, threshold=0.5 if name in THRESHOLD else None)
    n, cells = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    values = np.asarray(draw(st.lists(_CELLS, min_size=n * cells,
                                      max_size=n * cells))).reshape(n, cells)
    bop = batch_operator_for(op)
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf, inf * inf
        column = bop.finalize_columns(bop.map_batch(values), np.full(n, cells))
    return name, keyed((n,), np.arange(n), column)


class TestEngineAndOracleBytes:
    @given(operator_blocks())
    def test_engine_block_is_the_from_records_block(self, drawn):
        """The engine's block and the block ``from_records`` makes of
        the same canonical rows — the block's own, and the generic
        per-value walk's — are byte-equal, for every value column."""
        name, block = drawn
        data = block.to_bytes()
        assert data[4] == _TAGS[{
            "count": "int", "sort": "ragged", "filter_gt": "ragged",
            "range_exceeds": "range_exceeds",
        }.get(name, "float")]
        for rows in (block.canonical_records(), canonicalize_records(list(block))):
            assert ResultBlock.from_records(rows).to_bytes() == data
        assert ResultBlock.from_records(list(block)[::-1]).to_bytes() == data
        assert records_digest(block) == records_digest(block.canonical_records())

    @pytest.mark.parametrize("name", ["count", "range_exceeds", "sort", "filter_gt"])
    def test_oracle_records_round_trip(self, name):
        """``count`` ints, ``range_exceeds`` pairs and the ragged lists
        of the oracle's canonical records come back from the bytes as
        those records, and the engine's block of the same query is
        those bytes."""
        data = np.random.default_rng(3).integers(0, 40, (12, 6, 4)).astype(float)
        qplan = _compile(data.shape, (4, 3, 2), operator=name,
                         threshold=THRESHOLD.get(name))
        want = oracle_records(qplan, data)
        block = ResultBlock.from_records(want)
        clone = ResultBlock.from_bytes(block.to_bytes())
        assert repr(clone.canonical_records()) == repr(want)
        value = want[0][1]
        if name == "count":
            assert type(value) is int and clone.values.dtype == np.int64
        elif name == "range_exceeds":
            assert list(value) == ["exceeds", "variation"]
            assert isinstance(clone.values, ExceedsColumn)
        else:
            assert isinstance(clone.values, Ragged)
        plan = build_plan(qplan, aligned_slice_splits(qplan, num_splits=3), 2)
        res = LocalEngine().run(*plan.configure_job(data), mode="serial")
        assert res.all_records().to_bytes() == block.to_bytes()


@st.composite
def splits(draw, kind=None):
    """A block in key order (rank 1-4, any value column, NaN payloads,
    -0.0, keys in one run or many) and its rows cut into 2-5
    contiguous, non-empty parts: a run may continue across a cut."""
    block = draw(blocks(kind=kind, min_rows=2, max_rows=24))
    rows = len(block)
    cuts = sorted(draw(st.sets(
        st.integers(1, rows - 1), min_size=1, max_size=min(4, rows - 1)
    )))
    bounds = [0, *cuts, rows]
    return block, [block[a:b] for a, b in zip(bounds, bounds[1:])]


class TestSplice:
    """A split job's block is its parts' packed bytes spliced: byte for
    byte what concatenating the unpacked parts and packing would give,
    and only hashed after (:func:`digest_and_block`)."""

    @given(splits())
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

    @given(splits(), st.randoms(use_true_random=False))
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

    @given(splits(kind="float"), st.data())
    def test_mixed_value_tags_are_not_spliced(self, split, data):
        """A part of another value column is not spliced, and blocks of
        two value columns do not concatenate at all: a float64 part
        beside a ragged one is a fault, not a column to convert."""
        whole, parts = split
        i = data.draw(st.integers(0, len(parts) - 1))
        listed = keyed(
            parts[i].space, parts[i].key_index, [[v] for v in parts[i].value_list()]
        )
        parts = [*parts[:i], listed, *parts[i + 1:]]
        packed = [part.packed() for part in parts]
        assert packed[i].to_bytes()[4] == _TAGS["ragged"]
        assert ResultBlock._splice(packed) is None
        with pytest.raises(ShuffleError, match="different value columns"):
            ResultBlock.concatenate(packed)
        with pytest.raises(ShuffleError, match="different value columns"):
            ResultBlock.concatenate(parts)


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

    def test_a_partial_result_is_a_run_per_stretch_of_keyblocks(self):
        """A partial result — keyblocks 0, 1 and 3 of four committed —
        is one run per contiguous stretch of committed keyblocks, in the
        true K'_T; its bytes round-trip, its parts splice to them, and
        its record list (whose bounding shape is not K'_T) digests
        differently, as docs/SERVICE.md says."""
        space = (4, 5)
        blocks = {
            b: keyed(space, np.arange(5 * b, 5 * b + 5), np.full(5, float(b)))
            for b in (0, 1, 3)
        }
        out = self._result(blocks).all_records()
        assert out.space == space and out.runs.tolist() == [[0, 10], [15, 20]]
        data = out.to_bytes()
        clone = ResultBlock.from_bytes(data)
        assert clone == out and clone.to_bytes() == data
        spliced = ResultBlock.concatenate([blocks[b].packed() for b in sorted(blocks)])
        assert spliced._packed is not None and spliced.to_bytes() == data
        digest, _ = digest_and_block(out)
        assert digest == hashlib.sha256(data).hexdigest()
        assert records_digest(out.canonical_records()) == digest
        # keyblock 3 missing: the list's bounding shape is (2, 5)
        head = self._result({b: blocks[b] for b in (0, 1)}).all_records()
        assert head.runs.tolist() == [[0, 10]]
        assert records_digest(head.canonical_records()) != records_digest(head)

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


def _coords(keys, plan):
    """``(n, rank)`` coordinates of ``plan``'s linear keys."""
    return np.stack(np.unravel_index(keys, plan.partition.space), axis=1)


def _rows_of(f, rows):
    """Spill ``f``'s rows ``rows`` (a slice), as a spill of their own."""
    counts = f.source_counts[rows]
    return ColumnarMapOutput(
        f.map_id, f.partition, index_runs(expand_runs(f.runs)[rows]), f.space,
        tuple(c[rows] for c in f.states), counts, int(counts.sum()),
    )


def _unordered(files):
    """The rows of a fetch, fetched so that their keys do not strictly
    increase — the first non-empty spill's first row moved behind the
    rest as a spill of its own — and so merge.  A fetch of fewer than
    two rows is returned as it is."""
    if sum(f.num_records for f in files) < 2:
        return files
    i = next(i for i, f in enumerate(files) if f.num_records)
    first = files[i]
    return [
        *files[:i], _rows_of(first, slice(1, None)), *files[i + 1:],
        _rows_of(first, slice(0, 1)),
    ]


class TestSynthesizedKeys:
    """A key whose every producer was pruned is a key of its keyblock
    with identity state.  Twelve one-instance splits, two of them hot:
    keyblock 0 holds a map's keys between synthesized ones, keyblock 1
    is all synthesized and fetches no file, keyblock 2 is like 0.  The
    ordered columnar body, the generic one (maps without the plan's
    geometry spill plain files) and the record plane reduce every
    keyblock to the oracle's bytes, each synthesized key to its own
    ``[]`` on every attempt.  The generic body is forced with a fetch
    whose keys do not increase (:func:`_unordered`)."""

    @staticmethod
    def _plan():
        data = np.zeros((48, 6, 4))
        data[4:8] = data[40:44] = 50.0  # instances 1 and 10 pass
        qplan = _compile(data.shape, (4, 3, 2), operator="filter_gt", threshold=25.0)
        zone_map = build_zone_map("v", data, tile_shape=(4, 6, 4))
        splits = aligned_slice_splits(qplan, num_splits=12)
        plan = build_plan(qplan, splits, 3, zone_map=zone_map)
        return qplan, data, plan.with_map_geometry()

    def test_the_ordered_body_places_them_in_key_order(self):
        """Each keyblock takes the ordered body: a mixed one's
        synthesized keys land before and after its one map's keys, an
        all-synthesized one is its synthesized keys."""
        _, data, plan = self._plan()
        assert plan.pruning.empty_blocks == {1}
        job, _ = plan.configure_job(data)
        store = ShuffleStore(persist=True)
        obs = JobObservability(job.name, enabled=False)
        for m in range(len(plan.splits)):
            run_columnar_map(job, m, store, Counters(), obs, None)
        for block in range(plan.num_reduce_tasks):
            files = [
                f for m in sorted(plan.deps.dependencies[block])
                if (f := store.fetch(m, block)) is not None
            ]
            out, paths = _paths_of(job, files, obs, block)
            assert paths == (1, 0)
            synth = expand_runs(plan.pruning.synth_keys[block])
            keys = out.key_index.tolist()
            if block == 1:
                assert files == [] and keys == synth.tolist()
                continue
            (fetched,) = files
            rows = [keys.index(k) for k in expand_runs(fetched.runs).tolist()]
            assert 0 < rows[0] and rows[-1] < len(out) - 1
            assert rows == list(range(rows[0], rows[0] + len(rows)))
            assert len(out) == len(rows) + len(synth)
            assert (np.diff(keys) > 0).all()

    @pytest.mark.parametrize("body", ["planned", "generic", "record"])
    def test_every_body_reduces_them(self, body):
        qplan, data, plan = self._plan()
        record = body == "record"
        job, _ = plan.configure_job(data, data_plane="record" if record else "columnar")
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
            tuple(k) for runs in plan.pruning.synth_keys.values()
            for k in _coords(expand_runs(runs), plan).tolist()
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
                if body == "generic":
                    files = _unordered(files)
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
        # Keyblock 1 fetches nothing: its synthesized keys are in order
        # whatever the maps spill.
        assert paths == {"planned": (6, 0), "generic": (2, 4), "record": (0, 0)}[body]


# --------------------------------------------------------------------- #
# Guard: the reduce makes no interpreter-level call per key
# --------------------------------------------------------------------- #
OPERATORS = [
    "sum", "count", "mean", "min", "max", "stddev", "range",
    "range_exceeds", "filter_gt", "median", "sort",
]


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
    files = [
        ColumnarMapOutput(
            map_id=MapTaskId(m),
            partition=0,
            runs=[[0, groups]],
            space=(groups // 7 + 1, 7),
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
    return calls, len(expand_runs(plan.pruning.synth_keys[partition])), out


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
        # Ragged state and ragged output included: no list per key.
        assert large == small

    @pytest.mark.parametrize("name", OPERATORS)
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

    @pytest.mark.parametrize("name", OPERATORS)
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
        return keyed((20, 26, 16), np.arange(n), np.random.default_rng(0).random(n))

    def test_peak_memory_is_a_small_multiple_of_the_block(self):
        block = self._block()
        size = len(block.to_bytes())
        # header, shape, one run, the values: no key section
        assert size == 32 + 3 * 8 + 16 + 8320 * 8 == 66_632
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
def _per_keyblock(job, barrier):
    """Each keyblock's fetch and reduce counters, its maps run into one
    store first: ``reduce.input.records``, ``shuffle.records`` and
    ``shuffle.bytes``, keyblock by keyblock."""
    store = ShuffleStore(persist=True)
    obs = JobObservability(job.name, enabled=False)
    run_map = run_record_map if job.batch_operator is None else run_columnar_map
    for m in range(job.num_map_tasks):
        run_map(job, m, store, Counters(), obs, None)
    maps = frozenset(range(job.num_map_tasks))
    names = ("reduce.input.records", "shuffle.records", "shuffle.bytes")
    out = []
    for p in range(job.num_reduce_tasks):
        counters = Counters()
        LocalEngine()._run_reduce(job, p, barrier, store, counters, obs, maps)
        out.append({name: counters.get(name) for name in names})
    return out


def _compile(space, extract, operator="mean", threshold=None, stride=None):
    return StructuralQuery(
        variable="v", extraction_shape=extract,
        operator=get_operator(operator, threshold=threshold), stride=stride,
    ).compile(simple_metadata("v", space))


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
        """Strided (zones cut at split edges), dense, pruned-free: a
        plan's geometry holds no array — tuples and integers, O(zones)
        per split, shared by every job it serves — and a map whose
        reader order is not key order sorts its rows."""
        kept = StructuralQuery(
            variable="v", extraction_shape=(7, 4, 4), operator=get_operator("sum"),
            keep_partial_instances=True,
        ).compile(simple_metadata("v", (29, 10, 6)))
        sorted_maps = 0
        for qplan, splits in (
            (_compile((29, 10, 6), (7, 5, 2)), 3),
            (_compile((29, 10, 6), (2, 3, 2), stride=(3, 4, 3)), 4),
            # clipped tail zones off dim 0: reader order is not key order
            (kept, 2),
        ):
            plan = build_plan(qplan, slice_splits(qplan, num_splits=splits), 3)
            plan.with_map_geometry()
            for split in plan.splits:
                geometry = plan.map_geometry(split)
                leaves = [geometry.reads, geometry.steps, geometry.space]
                kinds = set()
                while leaves:
                    leaf = leaves.pop()
                    if isinstance(leaf, tuple):
                        leaves += leaf
                    else:
                        kinds.add(type(leaf).__name__)
                assert kinds <= {"int", "slice", "Slab"}, kinds
                keys = np.concatenate([
                    expand_runs(item.runs) for item in make_columnar_reader_factory(
                        np.zeros(qplan.input_space), qplan, plan.map_geometry
                    )(split)
                ])
                sorted_maps += bool((np.diff(keys) < 0).any())
        assert sorted_maps

    def test_an_out_of_range_partition_is_refused_before_spilling(self):
        """The partitioner's range check runs where a map cuts its rows,
        before any row spills."""

        class Broken(Partitioner):
            def partition(self, key, n):
                return n + 5

        qplan = _compile((14, 10, 6), (7, 5, 2))
        plan = build_plan(qplan, slice_splits(qplan, num_splits=1), 2)
        job, _ = plan.configure_job(np.zeros((14, 10, 6)))
        job.partitioner = Broken()
        store = ShuffleStore()
        obs = JobObservability(job.name, enabled=False)
        with pytest.raises(ShuffleError, match="out-of-range partition"):
            run_columnar_map(job, 0, store, Counters(), obs, None)
        with pytest.raises(ShuffleError, match="has not spilled"):
            store.attempt_of(0)

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
        """A ``HashPartitioner`` job over kept geometry, over geometry
        recomputed every call, and the oracle agree; and each keyblock
        fetches and reduces what the record plane's does, though the
        hash cuts a map's runs key by key: the same records and shuffle
        bytes."""
        rng = np.random.default_rng(6)
        data = rng.integers(0, 20, size=(21, 10, 6)).astype(np.float64)
        qplan = _compile((21, 10, 6), (7, 5, 2))
        splits = slice_splits(qplan, num_splits=4)
        partitioner, reduces = HashPartitioner(), 4
        op = qplan.operator
        kept = {}

        def planned(split):
            if split.index not in kept:
                kept[split.index] = map_geometry(qplan, split)
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
        runs.append(self._block_bytes(job(None)))
        want = ResultBlock.from_records(oracle_records(qplan, data)).to_bytes()
        assert runs == [want] * 3
        columnar = _per_keyblock(job(planned), GlobalBarrier())
        record = job(planned)
        record.batch_operator, record.reader_factory = None, make_reader_factory(
            data, qplan
        )
        assert _per_keyblock(record, GlobalBarrier()) == columnar
        assert all(c["reduce.input.records"] for c in columnar)

    def test_a_layout_cut_for_another_partitioner_is_not_used(self):
        """A SIDR job whose partitioner is swapped after ``configure_job``
        spills by the new one, not the plan's."""
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
            # a hash partition's keys are scattered: many runs, which
            # round-trip
            assert len(block.runs) > 1
            clone = ResultBlock.from_bytes(block.to_bytes())
            assert clone == block and clone.space == block.space

    def test_keys_that_repeat_within_a_map_are_combined(self):
        """A split of two slabs that cut the same instances: its keys
        repeat, and the map-side combine folds them, equal to the
        oracle."""
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
            job, _ = plan.configure_job(data)
            counters = Counters()
            obs = JobObservability(job.name, enabled=False)
            run_columnar_map(job, 0, ShuffleStore(), counters, obs, None)
            assert counters.get("combine.output.records") < counters.get(
                "combine.input.records"
            )
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
    pairs that run the same maps, one for each of :func:`_observed`'s
    two runs."""
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
    for _ in range(2):
        job, barrier = plan.configure_job(data)
        if hashed:
            job.partitioner = HashPartitioner()
            job.contact_all_maps = True
            del job.context["reduce_start_validator"]
            barrier = None
        elif case == "hand_built":
            op = qplan.operator
            # The plan's splits and partitioner, but not its map
            # geometry: each reader computes its own.
            job = JobConf(
                name="hand-built", splits=list(plan.splits),
                reader_factory=make_columnar_reader_factory(data, qplan),
                mapper_factory=lambda: ChunkAggregateMapper(op),
                reducer_factory=lambda: AggregateReducer(op),
                partitioner=plan.partitioner,
                num_reduce_tasks=plan.num_reduce_tasks,
                combiner_factory=lambda: CombinerAdapter(op),
                batch_operator=batch_operator_for(op),
            )
            barrier = None
        pairs.append((job, barrier))
    return plan, pairs


def _observed(job, barrier, unordered=False):
    """Block bytes, counters without the path counters, the
    ``reduce.group.size`` histogram, and the path counters of one
    serial run; ``unordered``: every reduce is handed its fetch as
    :func:`_unordered` lays it out, so each that fetched two rows or
    more merges."""
    reduce = engine_module.run_columnar_reduce
    with mock.patch.object(
        engine_module, "run_columnar_reduce",
        lambda job, files, *a, **k: reduce(
            job, _unordered(files) if unordered else files, *a, **k
        ),
    ):
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


def _paths_of(job, files, obs, block=0):
    """``run_columnar_reduce`` of keyblock ``block``'s fetch ``files``,
    and the path counters it counted."""
    counters = Counters()
    out = run_columnar_reduce(job, files, counters, obs, ("reduce", block, 0))
    return out, tuple(counters.get(name) for name in PATHS)


class TestPlannedReduce:
    @pytest.mark.parametrize("case,operator", MATRIX)
    def test_planned_body_is_the_generic_body(self, case, operator):
        """Both reduce bodies, the same job: equal block bytes, equal
        counters and the same ``reduce.group.size`` histogram — the
        ordered body observes one group of one row per key.  The
        generic run is forced with fetches whose keys do not increase.
        Every keyblock of aligned splits takes the ordered body as
        configured, a pruned plan's with synthesized keys among them, a
        hash partitioner's and a hand-built job's included: each map's
        keys are an increasing run, and the maps' runs increase across
        them.  Sliced maps share keys, so they merge.  A keyblock that
        fetches nothing is its synthesized keys, in order whatever the
        maps spill."""
        data = _matrix_data()
        plan, (configured, forced) = _matrix_jobs(case, operator, data)
        qplan = plan.query_plan
        unfetched = len(plan.pruning.empty_blocks) if plan.pruning else 0
        block, counters, sizes, (planned, generic) = _observed(*configured)
        again, generic_counters, generic_sizes, paths = _observed(
            *forced, unordered=True
        )
        want = ResultBlock.from_records(oracle_records(qplan, data)).to_bytes()
        assert block == again == want
        assert counters == generic_counters
        assert sizes == generic_sizes
        assert paths == (unfetched, planned + generic - unfetched)
        if case not in ("sliced", "repeating"):
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
        """The fetch chooses the body, by its keys alone.  Spills whose
        keys, laid end to end, strictly increase — a keyblock's whole
        fetch, its fetch missing a map, a spill copied or replaced by
        an empty one — take the ordered body; the same spills out of
        map order merge — and every body agrees on what it shares."""
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
        assert len(files) > 1

        whole, paths = _paths_of(job, files, obs)
        assert paths == (1, 0)
        first = files[0].num_records
        # A missing spill: the rest are still in key order.
        tail, paths = _paths_of(job, files[1:], obs)
        assert paths == (1, 0)
        assert tail.to_bytes() == whole[first:].to_bytes()
        # The same runs out of map order: a seam decreases.
        swapped, paths = _paths_of(job, files[::-1], obs)
        assert paths == (0, 1)
        assert swapped.to_bytes() == whole.to_bytes()
        # The same rows, copied: the same fetch.
        copied = _rows_of(files[0], slice(None))
        assert copied.runs is not files[0].runs
        same, paths = _paths_of(job, [copied, *files[1:]], obs)
        assert paths == (1, 0)
        assert same.to_bytes() == whole.to_bytes()
        # An empty spill in a map's place, and no fetch at all.
        empty = _rows_of(files[0], slice(0, 0))
        tail_again, paths = _paths_of(job, [empty, *files[1:]], obs)
        assert paths == (1, 0)
        assert tail_again.to_bytes() == tail.to_bytes()
        # One map's rows fetched twice: a key repeats.
        twice, paths = _paths_of(job, [files[0], *files], obs)
        assert paths == (0, 1)
        assert len(twice) == len(whole)
        nothing, paths = _paths_of(job, [], obs)
        assert len(nothing) == 0 and paths == (0, 0)

    def test_seams_that_do_not_increase_merge(self):
        """Sliced splits cut instances, so neighbouring maps share keys:
        every keyblock's fetch is planned runs with a seam that does not
        increase, and its reduce merges, to the oracle's bytes."""
        data = _matrix_data()
        qplan = _compile(data.shape, (4, 3, 2))
        plan = build_plan(qplan, slice_splits(qplan, num_splits=8), 3)
        job, _ = plan.configure_job(data)
        store = ShuffleStore(persist=True)
        obs = JobObservability(job.name, enabled=False)
        for m in range(len(plan.splits)):
            run_columnar_map(job, m, store, Counters(), obs, None)
        records = []
        for block in range(plan.num_reduce_tasks):
            files = [store.fetch(m, block) for m in sorted(plan.deps.dependencies[block])]
            assert any(
                a.runs[-1, 1] > b.runs[0, 0] for a, b in zip(files, files[1:])
            )
            out, paths = _paths_of(job, files, obs, block)
            assert paths == (0, 1)
            records += out
        want = ResultBlock.from_records(oracle_records(qplan, data)).to_bytes()
        assert ResultBlock.from_records(records).to_bytes() == want

    def test_a_synthesized_key_that_is_also_fetched_merges(self):
        """A mixed keyblock and an all-synthesized one take the ordered
        body; a synthesized key that was also fetched (no plan makes
        one) sends its keyblock to the merge, whose bytes are the
        same."""
        _, data, plan = TestSynthesizedKeys._plan()
        job, _ = plan.configure_job(data)
        store = ShuffleStore(persist=True)
        obs = JobObservability(job.name, enabled=False)
        for m in range(len(plan.splits)):
            run_columnar_map(job, m, store, Counters(), obs, None)
        fetches = [
            [f for m in sorted(plan.deps.dependencies[b])
             if (f := store.fetch(m, b)) is not None]
            for b in range(plan.num_reduce_tasks)
        ]
        assert [len(files) for files in fetches] == [1, 0, 1]
        ordered = [_paths_of(job, files, obs, b) for b, files in enumerate(fetches)]
        assert [paths for _, paths in ordered] == [(1, 0)] * 3
        synth = expand_runs(plan.pruning.synth_keys[0])
        both = index_runs(np.sort(np.concatenate([synth, fetches[0][0].runs[0, :1]])))
        job.context["sidr_plan"] = SimpleNamespace(
            partition=plan.partition,
            pruning=SimpleNamespace(synth_keys={0: both}),
        )
        merged, paths = _paths_of(job, fetches[0], obs)
        assert paths == (0, 1)
        assert merged.to_bytes() == ordered[0][0].to_bytes()

    def test_every_spill_is_checked(self, monkeypatch):
        """No spill is trusted: each one a map makes checks its run
        table where it is made (:func:`keys_in_runs`, the result
        block's check), planned geometry or not."""
        calls = []
        original = columnar_module.keys_in_runs
        monkeypatch.setattr(
            columnar_module, "keys_in_runs",
            lambda runs, space: calls.append(len(runs)) or original(runs, space),
        )
        data = _matrix_data()
        qplan = _compile(data.shape, (4, 3, 2))
        plan = build_plan(qplan, aligned_slice_splits(qplan, num_splits=5), 3)
        job, _ = plan.with_map_geometry().configure_job(data)
        obs = JobObservability(job.name, enabled=False)
        counters = Counters()
        run_columnar_map(job, 0, ShuffleStore(), counters, obs, None)
        assert counters.get("shuffle.segments") and len(calls) == counters.get(
            "shuffle.segments"
        )


# --------------------------------------------------------------------- #
# A fixed-width block's size, known from the query
# --------------------------------------------------------------------- #
class TestFixedBlockSize:
    @pytest.mark.parametrize("name", OPERATORS)
    def test_a_fixed_width_block_is_sized_before_it_is_made(self, name):
        """Header, K'_T's shape, one run and, per key of K'_T, one
        value: what :meth:`ResultBlock.to_bytes` gives, for every
        operator whose rows are of one width (``sort`` and ``filter_gt``
        rows are not)."""
        data = _matrix_data()
        qplan = _compile(data.shape, (4, 3, 2), operator=name,
                         threshold=THRESHOLD.get(name))
        width = qplan.operator.value_bytes
        assert (width is None) == (name in ("sort", "filter_gt"))
        if width is None:
            return
        block = ResultBlock.from_records(oracle_records(qplan, data))
        keys = qplan.num_intermediate_keys
        assert len(block) == keys
        assert len(block.to_bytes()) == fixed_block_nbytes(keys, 3, width)
