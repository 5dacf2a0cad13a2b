"""Unit tests for the columnar data plane building blocks.

The end-to-end oracle comparison lives in
:mod:`tests.test_columnar_equivalence`; this module pins down the
pieces: the batch record reader, the batch operator adapters, the
columnar map-output file, and the engine/store plumbing around them.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from repro.arrays.linearize import expand_runs
from repro.arrays.slab import Slab
from repro.errors import (
    JobConfigError,
    QueryError,
    ShuffleError,
    TaskCancelledError,
)
from repro.mapreduce.columnar import (
    ChunkBatch,
    ColumnarMapOutput,
    ExceedsColumn,
    Ragged,
    _key_order,
)
from repro.mapreduce.job import JobConf
from repro.mapreduce.shuffle import ShuffleStore, payload_nbytes
from repro.mapreduce.types import MapTaskId
from repro.query.columnar import (
    ColumnarRecordReader,
    batch_operator_for,
    make_columnar_reader_factory,
    map_geometry,
    window_rows,
)
from repro.query.language import StructuralQuery
from repro.query.operators import (
    Chunk,
    CountOp,
    MaxOp,
    MeanOp,
    MedianOp,
    MinOp,
    Partial,
    RangeExceedsOp,
    RangeOp,
    SortOp,
    StdDevOp,
    StructuralOperator,
    SumOp,
    ThresholdFilterOp,
)
from repro.query.recordreader import make_reader_factory
from repro.query.splits import slice_splits
from repro.scidata.generators import temperature_dataset
from repro.scidata.metadata import simple_metadata
from repro.service.sessions import DatasetSession
from tests.test_columnar_result import _count_calls

# Fixed-width state: one numeric column per state component.
DISTRIBUTIVE = [
    SumOp(), CountOp(), MeanOp(), MinOp(), MaxOp(), StdDevOp(),
    RangeOp(), RangeExceedsOp(threshold=2.0),
]
# Ragged state: one Ragged column, the instances' values end to end plus
# their lengths — see TestFilterBatchOperator and TestRaggedOperators.
RAGGED = [ThresholdFilterOp(threshold=5.0), SortOp(), MedianOp()]


def _value_list(column):
    """A ``finalize_columns`` result as the plain values it stands for:
    every value column's ``tolist()``."""
    return column.tolist()


@pytest.fixture(scope="module")
def field():
    return temperature_dataset(days=29, lat=10, lon=6, seed=7)


@pytest.fixture(scope="module")
def data(field):
    return field.arrays["temperature"].astype(np.float32)


def _plan(field, shape, **kw):
    q = StructuralQuery(
        variable="temperature", extraction_shape=shape,
        operator=kw.pop("operator", MeanOp()), **kw,
    )
    return q.compile(field.metadata)


def _coords(item):
    """A batch's keys as ``(n, rank)`` K' coordinates."""
    return np.stack(np.unravel_index(expand_runs(item.runs), item.space), axis=1)


def _expand(reader):
    """Flatten a columnar reader's stream to per-instance records;
    every item must be a ChunkBatch.  Also returns how many batches
    held several instances and how many just one."""
    out = {}
    batches = singles = 0
    for item in reader:
        assert isinstance(item, ChunkBatch)
        if item.num_instances == 1:
            singles += 1
        else:
            batches += 1
        for i in range(item.num_instances):
            key = tuple(_coords(item)[i].tolist())
            out.setdefault(key, []).append(item.values[i])
    return out, batches, singles


def _oracle(source, plan, split):
    out = {}
    for key, chunk in make_reader_factory(source, plan)(split):
        out.setdefault(key, []).append(np.asarray(chunk.data).reshape(-1))
    return out


def _assert_same_stream(columnar, oracle):
    assert set(columnar) == set(oracle)
    for key in oracle:
        got = np.sort(np.concatenate(columnar[key]))
        want = np.sort(np.concatenate(oracle[key]))
        np.testing.assert_array_equal(got, want)


# --------------------------------------------------------------------- #
# ColumnarRecordReader vs StructuralRecordReader
# --------------------------------------------------------------------- #
class TestColumnarReader:
    @pytest.mark.parametrize("splits", [1, 4, 7])
    def test_dense_same_records_no_fallback(self, field, data, splits):
        plan = _plan(field, (7, 5, 2))
        for split in slice_splits(plan, num_splits=splits):
            cols, batches, singles = _expand(
                ColumnarRecordReader(data, plan, split)
            )
            # dense zones hold whole runs of instances
            assert batches > 0
            _assert_same_stream(cols, _oracle(data, plan, split))

    def test_strided_batches_by_zone(self, field, data):
        """A strided reader is the dense reader: per dimension a clipped
        head, a run of whole instances and a clipped tail, so a slab
        yields at most 3^rank items however many instances its edges
        cut."""
        plan = _plan(field, (2, 2, 2), stride=(3, 4, 3))
        cut = 0
        for split in slice_splits(plan, num_splits=4):
            cols, batches, singles = _expand(
                ColumnarRecordReader(data, plan, split)
            )
            assert batches + singles <= 3 ** 3 * len(split.slabs)
            cut += sum(
                row.size < plan.cells_per_instance
                for pieces in cols.values() for row in pieces
            )
            _assert_same_stream(cols, _oracle(data, plan, split))
        assert cut > 0  # slab edges really did cut instances

    def test_strided_clipped_split_is_all_batches(self, field, data):
        """Strided, clipped by the subset edge (partial instances kept)
        and cut by slab boundaries inside stride gaps: still nothing but
        ChunkBatch items, and piece for piece the record reader's
        logical records — same keys, same cells in the same order."""
        plan = _plan(field, (3, 3, 2), stride=(4, 4, 3),
                     keep_partial_instances=True)
        cell_counts = set()
        for split in slice_splits(plan, num_splits=5):
            got = []
            for item in ColumnarRecordReader(data, plan, split):
                assert isinstance(item, ChunkBatch)
                cell_counts.add(item.cells_per_instance)
                got.extend(
                    (tuple(k), row.tolist())
                    for k, row in zip(_coords(item).tolist(), item.values)
                )
            want = [
                (key, np.asarray(chunk.data).reshape(-1).tolist())
                for key, chunk in make_reader_factory(data, plan)(split)
            ]
            assert sorted(got) == sorted(want)
        assert len(cell_counts) > 1  # clipped pieces really occurred

    def test_keep_partial_instances(self, field, data):
        plan = _plan(field, (7, 4, 4), keep_partial_instances=True)
        for split in slice_splits(plan, num_splits=3):
            cols, _, _ = _expand(ColumnarRecordReader(data, plan, split))
            _assert_same_stream(cols, _oracle(data, plan, split))

    def test_subset(self, field, data):
        plan = _plan(field, (7, 5, 2),
                     subset=Slab((2, 1, 1), (26, 9, 5)))
        for split in slice_splits(plan, num_splits=3):
            cols, _, _ = _expand(ColumnarRecordReader(data, plan, split))
            _assert_same_stream(cols, _oracle(data, plan, split))

    def test_batch_rows_match_instance_flatten(self, field, data):
        """Row i of a batch is exactly instance i's C-order flatten."""
        plan = _plan(field, (7, 5, 2))
        (split,) = slice_splits(plan, num_splits=1)
        for item in ColumnarRecordReader(data, plan, split):
            assert isinstance(item, ChunkBatch)
            for i in range(item.num_instances):
                key = tuple(_coords(item)[i].tolist())
                region = plan.instance_region(key)
                want = data[region.as_slices()].reshape(-1)
                np.testing.assert_array_equal(item.values[i], want)

    @given(st.data())
    def test_zone_stream_is_the_record_stream(self, data):
        """Any rank <= 3, shape, stride >= shape, subset, either
        truncation and 1..7 splits: the zone reader emits the record
        reader's pieces — same keys, same cells in the same C order."""
        rank = data.draw(st.integers(1, 3))
        space = tuple(data.draw(st.integers(4, 9)) for _ in range(rank))
        corner = tuple(data.draw(st.integers(0, 2)) for _ in range(rank))
        subset = Slab(corner, tuple(
            data.draw(st.integers(2, s - c)) for s, c in zip(space, corner)
        ))
        shape = tuple(data.draw(st.integers(1, e)) for e in subset.shape)
        stride = data.draw(st.one_of(st.none(), st.tuples(
            *(st.integers(s, s + 2) for s in shape)
        )))
        plan = StructuralQuery(
            variable="v", extraction_shape=shape, operator=MeanOp(),
            subset=subset, stride=stride,
            keep_partial_instances=data.draw(st.booleans()),
        ).compile(simple_metadata("v", space))
        array = np.arange(np.prod(space), dtype=np.float64).reshape(space)
        for split in slice_splits(plan, num_splits=data.draw(st.integers(1, 7))):
            got = [
                (tuple(key), row.tolist())
                for item in ColumnarRecordReader(array, plan, split)
                for key, row in zip(_coords(item).tolist(), item.values)
            ]
            want = [
                (key, np.asarray(chunk.data).tolist())
                for key, chunk in make_reader_factory(array, plan)(split)
            ]
            assert sorted(got) == sorted(want)
            assert len(got) == len(set(k for k, _ in got))  # one piece per key

    def test_reader_calls_do_not_grow_with_keys(self):
        """One split's reader over a strided query makes no more
        interpreter-level calls at 4x the keys: no per-instance loop,
        cut instances included."""

        def reader_calls(lat):
            space = (20, lat, 40)
            plan = StructuralQuery(
                variable="v", extraction_shape=(5, 4, 2), operator=MeanOp(),
                stride=(7, 5, 2),
            ).compile(simple_metadata("v", space))
            array = np.zeros(space, dtype=np.float32)
            # the middle split: both of its dim-0 edges cut instances
            split = slice_splits(plan, num_splits=3)[1]
            return _count_calls(
                lambda: sum(
                    b.num_instances
                    for b in ColumnarRecordReader(array, plan, split)
                )
            )

        small, keys = reader_calls(40)
        large, more = reader_calls(160)
        assert more == 4 * keys
        assert large <= small + 10

    def test_factory_shape(self, field, data):
        plan = _plan(field, (7, 5, 2))
        factory = make_columnar_reader_factory(data, plan)
        (split,) = slice_splits(plan, num_splits=1)
        items = list(factory(split))
        assert items and all(isinstance(b, ChunkBatch) for b in items)


# --------------------------------------------------------------------- #
# window_rows: the reader's run copy
# --------------------------------------------------------------------- #
def _reshape_rows(block, exts, steps):
    """The reference: the strided window view's reshape copy."""
    windows = sliding_window_view(block, exts)[
        tuple(slice(None, None, step) for step in steps)
    ]
    return windows.reshape(math.prod(windows.shape[: block.ndim]), -1)


#: Bit patterns no arithmetic produces: NaNs with payloads, a negative
#: signalling NaN, and -0.0, per float width.
_SPECIAL_BITS = {
    8: [0x7FF800000000BEEF, 0xFFF0000000000001, 0x8000000000000000],
    4: [0x7FC0BEEF, 0xFF800001, 0x80000000],
}


def _layout(block, how):
    """``block``'s values held in memory laid out as ``how``."""
    if how == "fortran":
        return np.asfortranarray(block)
    if how == "last_axis_first":  # a transposed array's view
        return np.moveaxis(np.ascontiguousarray(np.moveaxis(block, -1, 0)), 0, -1)
    if how == "gapped":  # every other cell of a wider array
        wide = np.zeros(block.shape[:-1] + (2 * block.shape[-1],), block.dtype)
        wide[..., ::2] = block
        return wide[..., ::2]
    if how == "reversed":
        return np.ascontiguousarray(block[..., ::-1])[..., ::-1]
    return block


class TestWindowRows:
    @given(st.data())
    def test_bytes_are_the_reshape_copy(self, data):
        """Rank 1-4, five dtypes (one byte-swapped), any extents, steps
        with gaps (the last axis included), arbitrary bit patterns with
        NaN payloads and -0.0, C or not-unit-stride sources: the run
        copy is byte for byte the window view's reshape, C-contiguous,
        and read-only wherever it aliases the source."""
        rank = data.draw(st.integers(1, 4))
        shape = tuple(data.draw(st.integers(1, 6)) for _ in range(rank))
        dtype = np.dtype(data.draw(st.sampled_from(
            ["float64", "float32", "int16", "uint8", ">f8"]
        )))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        raw = rng.integers(0, 256, math.prod(shape) * dtype.itemsize, np.uint8)
        block = raw.view(dtype).reshape(shape)
        if dtype.kind == "f":
            bits = np.array(
                _SPECIAL_BITS[dtype.itemsize],
                np.dtype(f"u{dtype.itemsize}").newbyteorder(dtype.byteorder),
            ).view(dtype)
            flat = block.reshape(-1)
            for pos in data.draw(st.lists(
                st.integers(0, flat.size - 1), max_size=len(bits)
            )):
                flat[pos] = bits[pos % len(bits)]
        source = _layout(block, data.draw(st.sampled_from(
            ["c", "fortran", "last_axis_first", "gapped", "reversed"]
        )))
        exts = tuple(data.draw(st.integers(1, s)) for s in shape)
        steps = tuple(data.draw(st.integers(1, e + 2)) for e in exts)
        got = window_rows(source, exts, steps)
        want = _reshape_rows(source, exts, steps)
        assert got.dtype == want.dtype == dtype
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert got.flags.c_contiguous
        if np.shares_memory(got, source):
            assert not got.flags.writeable

    def test_one_window_reshape_view_regression(self):
        """One window along every axis: the strided runs reshape to a
        *view* whose last axis is not contiguous, which ``view`` rejects.
        The run copy makes them contiguous first."""
        block = np.arange(4 * 6 * 5, dtype=np.float64).reshape(4, 6, 5)
        exts, steps = (1, 3, 2), (4, 4, 4)
        got = window_rows(block, exts, steps)
        np.testing.assert_array_equal(got, [[0, 1, 5, 6, 10, 11]])
        assert got.tobytes() == _reshape_rows(block, exts, steps).tobytes()

    def test_clipped_strided_zones_regression(self, field, data):
        """The zones of a strided query clipped by its subset and by slab
        cuts (``test_strided_clipped_split_is_all_batches``) include
        single-window ones whose reshape is a view: each zone's rows are
        the reshape copy's bytes."""
        plan = _plan(field, (3, 3, 2), stride=(4, 4, 3),
                     keep_partial_instances=True)
        for split in slice_splits(plan, num_splits=5):
            geo = map_geometry(plan, split)
            for slab, zones in geo.reads:
                block_of = data[slab.as_slices()]
                for block, exts, _, runs in zones:
                    got = window_rows(block_of[block], exts, geo.steps)
                    want = _reshape_rows(block_of[block], exts, geo.steps)
                    rows = math.prod(count for count, _ in runs)
                    assert got.shape == (rows, math.prod(exts))
                    assert got.tobytes() == want.tobytes()

    def test_mmap_batches_never_writable_aliases(self, field, tmp_path):
        """Over an mmap-backed session, every batch's values are
        C-contiguous, carry the variable's dtype, and are read-only
        whenever they alias the file mapping."""
        field.write(tmp_path / "t.nc").close()
        session = DatasetSession("t", path=str(tmp_path / "t.nc"))
        try:
            source = session.engine_source()
            assert source is not session.path  # the mmap path is live
            dtype = session.metadata.variable("temperature").numpy_dtype
            space = session.metadata.variable_shape("temperature")
            mapped = source.read_slab("temperature", Slab((0,) * 3, space))
            assert not mapped.flags.owndata  # a view of the mapping
            aliased = copied = 0
            for shape, stride in [
                ((7, 5, 2), None),
                ((7, 10, 6), None),  # windows lie end to end
                ((3, 3, 2), (4, 4, 3)),
            ]:
                plan = _plan(field, shape, stride=stride)
                for split in slice_splits(plan, num_splits=3):
                    for batch in ColumnarRecordReader(source, plan, split):
                        values = batch.values
                        assert values.flags.c_contiguous
                        assert values.dtype == dtype
                        if np.shares_memory(values, mapped):
                            aliased += 1
                            assert not values.flags.writeable
                            with pytest.raises(ValueError):
                                values[0, 0] = 0
                        else:
                            copied += 1
            assert aliased and copied  # both branches ran
        finally:
            session.close()


# --------------------------------------------------------------------- #
# Batch operator adapters
# --------------------------------------------------------------------- #
class TestBatchOperators:
    @pytest.mark.parametrize("op", DISTRIBUTIVE + RAGGED, ids=lambda o: o.name)
    def test_adapter_exists(self, op):
        bop = batch_operator_for(op)
        assert bop is op

    def test_unknown_operator_is_a_query_error(self):
        class Mode(StructuralOperator):
            name = "mode"
            map_partial = combine = finalize = None

        with pytest.raises(QueryError, match="no columnar definition") as exc:
            batch_operator_for(Mode())
        assert 'data_plane="record"' in str(exc.value)  # the way out

    @pytest.mark.parametrize("op", DISTRIBUTIVE, ids=lambda o: o.name)
    def test_map_batch_matches_map_partial(self, op):
        rng = np.random.default_rng(5)
        values = rng.normal(10.0, 4.0, (9, 14)).astype(np.float32)
        bop = batch_operator_for(op)
        cols = bop.map_batch(values)
        assert all(c.shape == (9,) for c in cols)
        for i in range(values.shape[0]):
            want = op.map_partial(Chunk(values[i], values.shape[1]))
            row = tuple(col[i] for col in cols)
            state = want.state if isinstance(want.state, tuple) else (want.state,)
            assert row == pytest.approx(state, rel=0, abs=0)

    @pytest.mark.parametrize("op", DISTRIBUTIVE, ids=lambda o: o.name)
    def test_combine_and_finalize_match_scalar_path(self, op):
        rng = np.random.default_rng(6)
        values = rng.normal(0.0, 2.0, (6, 8))
        bop = batch_operator_for(op)
        cols = bop.map_batch(values)
        counts = np.full(6, values.shape[1], dtype=np.int64)
        # Two groups: rows [0, 4) and [4, 6).
        starts = np.array([0, 4], dtype=np.int64)
        merged = bop.combine_columns(cols, starts)
        got = _value_list(
            bop.finalize_columns(merged, np.add.reduceat(counts, starts))
        )
        for g, (lo, hi) in enumerate([(0, 4), (4, 6)]):
            partials = []
            for i in range(lo, hi):
                state = tuple(col[i].item() for col in cols)
                partials.append(Partial(
                    state if len(state) > 1 else state[0],
                    int(counts[i]),
                ))
            want = op.finalize(op.combine(partials))
            assert repr(got[g]) == repr(want)

    def test_map_record_matches_scalar(self):
        """One record on its own — the one-row batch a clipped-edge
        instance arrives as — maps to the scalar partial's state."""
        op = StdDevOp()
        chunk = Chunk(np.arange(12.0, dtype=np.float32), 12)
        cols = batch_operator_for(op).map_batch(chunk.data[None, :])
        want = op.map_partial(chunk)
        assert all(c.shape == (1,) for c in cols)
        assert tuple(c[0] for c in cols) == pytest.approx(
            want.state, rel=0, abs=0
        )


# --------------------------------------------------------------------- #
# finalize_columns == scalar finalize, row by row, value and type
# --------------------------------------------------------------------- #
_FLOATS = st.floats(allow_nan=True, allow_infinity=True, width=64)
_CELLS = st.integers(1, 2**40)
_SURVIVORS = st.lists(st.floats(allow_nan=False, width=64), max_size=6)

#: operator -> strategy for one combined state row, as the scalar
#: protocol carries it (a tuple for multi-column states).
_STATE_ROWS = {
    "sum": (SumOp(), _FLOATS),
    "count": (CountOp(), st.integers(0, 2**50)),
    "mean": (MeanOp(), st.tuples(_FLOATS, _CELLS)),
    "min": (MinOp(), _FLOATS),
    "max": (MaxOp(), _FLOATS),
    "stddev": (StdDevOp(), st.tuples(_CELLS, _FLOATS, _FLOATS)),
    "range": (RangeOp(), st.tuples(_FLOATS, _FLOATS)),
    "range_exceeds": (RangeExceedsOp(threshold=2.0), st.tuples(_FLOATS, _FLOATS)),
    "filter_gt": (ThresholdFilterOp(threshold=5.0), _SURVIVORS),
    # odd, even and single-cell segments (zero cells: see below)
    "median": (MedianOp(), st.lists(_FLOATS, min_size=1, max_size=7)),
    "sort": (SortOp(), st.lists(_FLOATS, max_size=7)),
}
_RAGGED_NAMES = ("filter_gt", "median", "sort")


def _scalar_state(name, state):
    """A drawn state row as the scalar protocol carries it."""
    if name not in _RAGGED_NAMES:
        return state
    return np.asarray(state, dtype=np.float64)


def _state_columns(bop, name, states):
    """Scalar state rows -> the columns the reduce hands finalize."""
    if not states:
        return bop.map_batch(np.zeros((0, 1)))
    if name in _RAGGED_NAMES:
        rows = [np.asarray(values, dtype=np.float64) for values in states]
        return (Ragged(np.concatenate(rows), [len(r) for r in rows]),)
    rows = [s if isinstance(s, tuple) else (s,) for s in states]
    return tuple(np.asarray(component) for component in zip(*rows))


class TestFinalizeColumns:
    @pytest.mark.parametrize("name", sorted(_STATE_ROWS))
    @given(data=st.data())
    def test_repr_identical_to_scalar_finalize(self, name, data):
        op, row = _STATE_ROWS[name]
        states = data.draw(st.lists(row, max_size=8))
        counts = data.draw(
            st.lists(
                st.integers(0, 2**40),
                min_size=len(states), max_size=len(states),
            )
        )
        want = [
            op.finalize(Partial(_scalar_state(name, s), c))
            for s, c in zip(states, counts)
        ]
        bop = batch_operator_for(op)
        got = bop.finalize_columns(
            _state_columns(bop, name, states), np.asarray(counts, dtype=np.int64)
        )
        assert repr(_value_list(got)) == repr(want)

    def test_value_types(self):
        one = np.asarray([1], dtype=np.int64)
        count = batch_operator_for(CountOp()).finalize_columns((one,), one)
        assert type(count.tolist()[0]) is int
        exceeds = batch_operator_for(RangeExceedsOp(2.0)).finalize_columns(
            (np.asarray([0.0]), np.asarray([3.0])), one
        )
        assert isinstance(exceeds, ExceedsColumn)
        assert exceeds.tolist() == [{"exceeds": True, "variation": 3.0}]
        assert type(exceeds.tolist()[0]["exceeds"]) is bool
        masked = Ragged(np.empty(0), [0])
        lists = batch_operator_for(ThresholdFilterOp(5.0)).finalize_columns(
            (masked,), one
        )
        assert isinstance(lists, Ragged) and lists.tolist() == [[]]

    def test_stddev_clamps_negative_variance(self):
        # sum-of-squares rounded below mean**2: variance comes out < 0.
        cols = (np.asarray([3]), np.asarray([0.3]), np.asarray([0.03 - 1e-12]))
        got = batch_operator_for(StdDevOp()).finalize_columns(
            cols, np.asarray([3], dtype=np.int64)
        )
        assert got.tolist() == [0.0]

    @pytest.mark.parametrize(
        "op, cols",
        [
            (MeanOp(), (np.asarray([1.0, 2.0]), np.asarray([4, 0]))),
            (
                StdDevOp(),
                (np.asarray([4, 0]), np.asarray([1.0, 2.0]), np.asarray([1.0, 4.0])),
            ),
            (MedianOp(), _state_columns(None, "median", [[1.0, 3.0], []])),
        ],
        ids=["mean", "stddev", "median"],
    )
    def test_zero_count_raises_like_scalar(self, op, cols):
        with pytest.raises(QueryError, match="zero cells"):
            batch_operator_for(op).finalize_columns(
                cols, np.asarray([4, 0], dtype=np.int64)
            )

    def test_median_middles(self):
        """Odd, even, single, NaN-holding and overflowing segments."""
        big = 1.5e308
        cols = _state_columns(None, "median", [
            [3.0, 1.0, 2.0], [4.0, 1.0, 3.0, 2.0], [7.0],
            [1.0, float("nan"), 0.0], [big, big], [big, big, big],
        ])
        got = batch_operator_for(MedianOp()).finalize_columns(
            cols, np.full(6, 1, dtype=np.int64)
        )
        assert repr(got.tolist()) == repr([2.0, 2.5, 7.0, float("nan"),
                                           float("inf"), big])

    def test_sort_of_zero_cells_is_an_empty_list(self):
        got = batch_operator_for(SortOp()).finalize_columns(
            _state_columns(None, "sort", [[], [2.0, 1.0]]),
            np.asarray([0, 2], dtype=np.int64),
        )
        assert got.tolist() == [[], [1.0, 2.0]]

    def test_negative_source_count_raises_like_partial(self):
        with pytest.raises(QueryError, match="negative source_count"):
            batch_operator_for(SumOp()).finalize_columns(
                (np.asarray([1.0]),), np.asarray([-1], dtype=np.int64)
            )


# --------------------------------------------------------------------- #
# filter_gt predicate-pushdown adapter
# --------------------------------------------------------------------- #
class TestFilterBatchOperator:
    OP = ThresholdFilterOp(threshold=5.0)

    def test_adapter_exists(self):
        bop = batch_operator_for(self.OP)
        assert bop is self.OP
        (col,) = bop.map_batch(np.array([[9.0, 1.0]]))
        assert isinstance(col, Ragged)  # the ragged family's state

    def test_map_batch_matches_map_partial(self):
        rng = np.random.default_rng(5)
        values = rng.normal(5.0, 4.0, (9, 14)).astype(np.float32)
        bop = batch_operator_for(self.OP)
        (col,) = bop.map_batch(values)
        assert len(col) == 9 and isinstance(col, Ragged)
        for i in range(values.shape[0]):
            want = self.OP.map_partial(Chunk(values[i], values.shape[1]))
            np.testing.assert_array_equal(
                np.asarray(col[i]), np.asarray(want.state)
            )

    def test_empty_after_mask_row_keeps_its_place(self):
        """An all-masked instance still occupies a row (empty survivors,
        full source count) — the §3.2.1 tally must see its cells."""
        values = np.array([[1.0, 2.0], [9.0, 1.0], [0.0, 0.0]])
        bop = batch_operator_for(self.OP)
        (col,) = bop.map_batch(values)
        assert len(col) == 3
        assert np.asarray(col[0]).size == 0
        np.testing.assert_array_equal(np.asarray(col[1]), [9.0])
        assert np.asarray(col[2]).size == 0

    def test_combine_and_finalize_match_scalar_path(self):
        rng = np.random.default_rng(6)
        values = rng.normal(5.0, 3.0, (6, 8))
        bop = batch_operator_for(self.OP)
        cols = bop.map_batch(values)
        counts = np.full(6, values.shape[1], dtype=np.int64)
        starts = np.array([0, 4], dtype=np.int64)
        merged = bop.combine_columns(cols, starts)
        got = bop.finalize_columns(merged, np.add.reduceat(counts, starts)).tolist()
        for g, (lo, hi) in enumerate([(0, 4), (4, 6)]):
            partials = [
                Partial(np.asarray(cols[0][i]), int(counts[i]))
                for i in range(lo, hi)
            ]
            want = self.OP.finalize(self.OP.combine(partials))
            assert repr(got[g]) == repr(want)

    def test_masked_cells_accounting(self):
        values = np.array([[1.0, 9.0], [0.0, 2.0], [7.0, 8.0]])
        bop = batch_operator_for(self.OP)
        cols = bop.map_batch(values)
        # 6 cells total, 3 survive (9, 7, 8) -> 3 masked.
        assert bop.masked_cells(values, cols) == 3

    def test_one_row_batch_joins_object_column(self):
        """A one-row batch's state must concatenate with a multi-row
        batch's ragged column as one more row (regression: an array
        state wrapped by np.asarray([arr]) became a (1, k) numeric
        block, silently changing shape when k == 1)."""
        bop = batch_operator_for(self.OP)
        (single,) = bop.map_batch(np.array([[1.0, 9.0, 8.0]]))
        assert len(single) == 1 and isinstance(single, Ragged)
        np.testing.assert_array_equal(single[0], [9.0, 8.0])
        (one_survivor,) = bop.map_batch(np.array([[6.0, 2.0]]))
        assert len(one_survivor) == 1 and isinstance(one_survivor, Ragged)
        (batch_col,) = bop.map_batch(np.array([[6.0, 2.0], [7.0, 8.0]]))
        joined = np.concatenate([batch_col, single, one_survivor])
        assert isinstance(joined, Ragged) and len(joined) == 4
        assert joined.lengths.tolist() == [1, 2, 2, 1]
        np.testing.assert_array_equal(joined[2], [9.0, 8.0])


# --------------------------------------------------------------------- #
# sort / median: the same ragged operator without a predicate
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("op", [SortOp(), MedianOp()], ids=lambda o: o.name)
class TestRaggedOperators:
    def test_map_batch_keeps_every_cell(self, op):
        rng = np.random.default_rng(5)
        values = rng.normal(5.0, 4.0, (9, 14)).astype(np.float32)
        bop = batch_operator_for(op)
        (col,) = bop.map_batch(values)
        assert len(col) == 9 and isinstance(col, Ragged)
        for i in range(values.shape[0]):
            want = op.map_partial(Chunk(values[i], values.shape[1]))
            # As multisets: state keeps cell order on both readings
            # now, and sorting happens once, at finalize.
            np.testing.assert_array_equal(
                np.sort(col[i]), np.sort(np.asarray(want.state))
            )
            assert col[i].dtype == np.float64
        assert bop.masked_cells(values, (col,)) == 0

    def test_combine_and_finalize_match_scalar_path(self, op):
        rng = np.random.default_rng(6)
        bop = batch_operator_for(op)
        # Pieces of different widths, as clipped zones produce them.
        blocks = [rng.normal(5.0, 3.0, (4, 8)), rng.normal(5.0, 3.0, (2, 3))]
        cols = tuple(
            np.concatenate(parts)
            for parts in zip(*(bop.map_batch(b) for b in blocks))
        )
        counts = np.array([8, 8, 8, 8, 3, 3], dtype=np.int64)
        starts = np.array([0, 3], dtype=np.int64)
        merged = bop.combine_columns(cols, starts)
        got = _value_list(
            bop.finalize_columns(merged, np.add.reduceat(counts, starts))
        )
        rows = [row for b in blocks for row in b]
        for g, (lo, hi) in enumerate([(0, 3), (3, 6)]):
            partials = [
                op.map_partial(Chunk(rows[i], rows[i].size))
                for i in range(lo, hi)
            ]
            want = op.finalize(op.combine(partials))
            assert repr(got[g]) == repr(want)


# --------------------------------------------------------------------- #
# ChunkBatch / helpers
# --------------------------------------------------------------------- #
class TestChunkBatch:
    def test_valid(self):
        b = ChunkBatch([[1, 3], [5, 6]], np.ones((3, 5)), [4, 2])
        assert b.num_instances == 3
        assert b.cells_per_instance == 5
        assert b.space == (4, 2)

    def test_rejects_runs_that_are_not_a_run_table(self):
        with pytest.raises(ShuffleError, match="runs"):
            ChunkBatch(np.zeros(3, dtype=np.int64), np.ones((3, 5)), (4, 2))

    def test_rejects_row_mismatch(self):
        with pytest.raises(ShuffleError, match="mismatch"):
            ChunkBatch([[0, 4]], np.ones((3, 5)), (4, 2))


class TestHelpers:
    def test_key_order_combines_repeated_keys(self):
        """Overlapping runs are the one case a map or a reduce spells
        keys out: rows stably sorted by key, each key's rows combined
        in input order, the distinct keys' runs rebuilt."""
        bop = batch_operator_for(SumOp())
        runs = np.array([[6, 7], [0, 2], [0, 1], [6, 7]])  # keys 6, 0, 1, 0, 6
        cols = bop.map_batch(np.array([[1.0], [2.0], [3.0], [4.0], [5.0]]))
        got, combined, counts, starts = _key_order(
            bop, runs, cols, np.ones(5, dtype=np.int64)
        )
        assert got.tolist() == [[0, 2], [6, 7]]
        assert starts.tolist() == [0, 2, 3]
        assert [c.tolist() for c in combined] == [[6.0, 3.0, 6.0]]
        assert counts.tolist() == [2, 1, 2]
        # Disjoint runs out of order are only sorted: nothing combines.
        got, combined, _, starts = _key_order(
            bop, runs[:2], bop.map_batch(np.array([[1.0], [2.0], [3.0]])),
            np.ones(3, dtype=np.int64),
        )
        assert got.tolist() == [[0, 2], [6, 7]] and starts is None
        assert [c.tolist() for c in combined] == [[2.0, 3.0, 1.0]]

    def test_ragged_row_operations(self):
        """The row operations the engine applies to a state column:
        len, a row, a slice (reversed too), a take, a concatenate."""

        def rows(col):
            return [col[i].tolist() for i in range(len(col))]

        col = Ragged(np.arange(6.0), [2, 0, 3, 1])
        assert len(col) == 4 and col.nbytes == 48
        assert rows(col) == [[0.0, 1.0], [], [2.0, 3.0, 4.0], [5.0]]
        assert col[-1].tolist() == [5.0]
        assert rows(col[1:3]) == [[], [2.0, 3.0, 4.0]]
        assert rows(col[:0]) == [] and rows(col[3:1]) == []
        assert rows(col[::-1]) == [[5.0], [2.0, 3.0, 4.0], [], [0.0, 1.0]]
        assert rows(col[np.array([2, 0])]) == [[2.0, 3.0, 4.0], [0.0, 1.0]]
        joined = np.concatenate([col[2:], col[:1]])
        assert isinstance(joined, Ragged)
        assert rows(joined) == [[2.0, 3.0, 4.0], [5.0], [0.0, 1.0]]
        with pytest.raises(IndexError):
            col[4]
        # never silently an object array
        with pytest.raises(TypeError):
            np.asarray(col)
        with pytest.raises(TypeError):
            np.concatenate([col, np.zeros(2)])
        with pytest.raises(ShuffleError, match="cells"):
            Ragged(np.zeros(3), [2, 2])


# --------------------------------------------------------------------- #
# ColumnarMapOutput
# --------------------------------------------------------------------- #
def _cmo(**kw):
    defaults = dict(
        map_id=MapTaskId(0),
        partition=1,
        # (0, 0), (0, 1), (1, 0) of a (2, 3) K'_T
        runs=np.array([[0, 2], [3, 4]], dtype=np.int64),
        space=(2, 3),
        states=(np.array([1.0, 2.0, 3.0]),),
        source_counts=np.array([4, 4, 4], dtype=np.int64),
        source_records=12,
    )
    defaults.update(kw)
    return ColumnarMapOutput(**defaults)


class TestColumnarMapOutput:
    def test_valid(self):
        f = _cmo()
        assert f.num_records == 3
        assert f.source_records == 12

    def test_unsorted_keys_rejected(self):
        # Every spill checks its run table where it is made.
        for runs in (
            [[3, 4], [0, 2]],  # out of order
            [[0, 2], [1, 2]],  # overlapping: a key twice
            [[0, 2], [2, 3]],  # touching: not maximal
            [[0, 1], [5, 7]],  # past K'_T's volume
            [[-1, 1], [3, 4]],  # negative
            [[0, 3], [4, 4]],  # empty run
        ):
            with pytest.raises(ShuffleError, match="not sorted"):
                _cmo(runs=np.array(runs, dtype=np.int64))

    def test_state_column_length_mismatch(self):
        with pytest.raises(ShuffleError, match="length"):
            _cmo(states=(np.array([1.0, 2.0]),))

    def test_counts_shape_mismatch(self):
        with pytest.raises(ShuffleError):
            _cmo(source_counts=np.array([4, 4], dtype=np.int64))

    def test_approx_bytes_is_buffer_sum(self):
        """A key is charged at the width of its coordinates: what it
        serializes to, and what the record plane charges."""
        f = _cmo()
        want = (2 * 8 * f.num_records + f.states[0].nbytes
                + f.source_counts.nbytes)
        assert f.approx_serialized_bytes == want

    def test_shuffle_store_duck_compat(self):
        """spill / fetch / supersede / consume work unchanged on
        columnar files — the store never looks inside ``records``."""
        store = ShuffleStore(persist=False)
        store.spill([_cmo()], attempt=0)
        assert store.attempt_of(0) == 0
        # A commit into the reopened window replaces the attempt
        # atomically.
        store.reopen(0)
        store.spill([_cmo(source_records=13)], attempt=1)
        assert store.attempt_of(0) == 1
        fetched = store.fetch(0, 1)
        assert isinstance(fetched, ColumnarMapOutput)
        assert fetched.source_records == 13
        # persist=False: the fetch consumed it.
        assert store.missing_inputs(1, frozenset({0})) == frozenset({0})

    def test_stale_attempt_rejected(self):
        store = ShuffleStore()
        store.spill([_cmo()], attempt=1)
        with pytest.raises(TaskCancelledError, match="already committed"):
            store.spill([_cmo()], attempt=1)


# --------------------------------------------------------------------- #
# Plumbing: JobConf, planner wiring, sizing, spill-check gate
# --------------------------------------------------------------------- #
class TestPlumbing:
    def test_jobconf_plane_is_what_it_carries(self, field, data):
        """A hand-built job is a record-plane job; the plane is derived
        from ``batch_operator`` and cannot be passed or assigned."""
        plan = _plan(field, (7, 5, 2))
        sp = slice_splits(plan, num_splits=2)
        fields = dict(
            name="hand-built",
            splits=list(sp),
            reader_factory=make_reader_factory(data, plan),
            mapper_factory=lambda: None,
            reducer_factory=lambda: None,
            partitioner=None,
            num_reduce_tasks=2,
        )
        job = JobConf(**fields)
        assert job.batch_operator is None and job.data_plane == "record"
        for plane in ("record", "columnar", "chunky"):
            with pytest.raises(TypeError, match="data_plane"):
                JobConf(**fields, data_plane=plane)
        with pytest.raises(AttributeError):
            job.data_plane = "columnar"
        job.batch_operator = batch_operator_for(MeanOp())
        assert job.data_plane == "columnar"

    def test_planner_rejects_unknown_plane(self, field, data):
        from repro.sidr.planner import build_sidr_job

        plan = _plan(field, (7, 5, 2))
        sp = slice_splits(plan, num_splits=2)
        with pytest.raises(JobConfigError, match="data plane"):
            build_sidr_job(plan, sp, 2, data, data_plane="chunky")

    @pytest.mark.parametrize("op", [MedianOp(), SortOp()], ids=lambda o: o.name)
    def test_planner_wires_holistic_columnar(self, field, data, op):
        from repro.sidr.planner import build_sidr_job

        plan = _plan(field, (7, 5, 2), operator=op)
        sp = slice_splits(plan, num_splits=2)
        job, _, _ = build_sidr_job(plan, sp, 2, data)  # columnar by default
        assert job.data_plane == "columnar"
        assert job.batch_operator is op
        assert "batch_operator" not in job.context
        record, _, _ = build_sidr_job(plan, sp, 2, data, data_plane="record")
        assert record.data_plane == "record"
        assert record.batch_operator is None

    @pytest.mark.parametrize("plane", ["record", "columnar"])
    def test_holistic_job_reduces_one_group_per_key(self, field, data, plane):
        """Every cell of a ``median`` crosses the shuffle, yet the
        reduce side sees one group per intermediate key."""
        from repro.mapreduce.engine import LocalEngine
        from repro.sidr.planner import build_sidr_job

        plan = _plan(field, (7, 5, 2), operator=MedianOp())
        sp = slice_splits(plan, num_splits=4)
        job, barrier, _ = build_sidr_job(plan, sp, 3, data, data_plane=plane)
        res = LocalEngine().run_serial(job, barrier)
        assert plan.num_intermediate_keys == 4 * 2 * 3
        assert res.counters.get("reduce.input.groups") == 4 * 2 * 3

    def test_nbytes_ndarray_is_exact(self):
        arr = np.zeros(100, dtype=np.float64)
        assert payload_nbytes(arr) == arr.nbytes
        # a ragged column is its cells, not its row lengths
        assert payload_nbytes(Ragged(np.zeros(20), [10, 10])) == 160
