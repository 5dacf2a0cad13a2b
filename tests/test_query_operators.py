"""Unit and property tests for structural operators."""

import ast
import math
import pickle
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.query.operators as operators
import repro.query.reference
from repro.errors import QueryError
from repro.mapreduce.columnar import Ragged
from repro.query.operators import (
    OPERATOR_NAMES,
    PRUNABLE_OPERATORS,
    THRESHOLD_OPERATORS,
    Chunk,
    CountOp,
    MaxOp,
    MeanOp,
    MedianOp,
    MinOp,
    Partial,
    SpecOperator,
    StdDevOp,
    SumOp,
    ThresholdFilterOp,
    get_operator,
)
from repro.query.reference import REFERENCE

ALL_OPS = [SumOp(), CountOp(), MeanOp(), MinOp(), MaxOp(), StdDevOp(), MedianOp()]

values_arrays = st.lists(
    st.floats(-100, 100, allow_nan=False), min_size=1, max_size=30
).map(lambda xs: np.asarray(xs))


def chunk_of(arr):
    arr = np.asarray(arr, dtype=np.float64).reshape(-1)
    return Chunk(arr, arr.size)


class TestChunk:
    def test_count_must_match(self):
        with pytest.raises(QueryError):
            Chunk(np.zeros(3), 2)


class TestReferenceSemantics:
    @pytest.mark.parametrize(
        "op,fn",
        [
            (SumOp(), np.sum),
            (MeanOp(), np.mean),
            (MinOp(), np.min),
            (MaxOp(), np.max),
            (MedianOp(), np.median),
        ],
    )
    def test_matches_numpy(self, op, fn):
        arr = np.array([3.0, 1.0, 4.0, 1.0, 5.0, 9.0])
        assert op.reference(arr) == pytest.approx(float(fn(arr)))

    def test_count(self):
        assert CountOp().reference(np.zeros((2, 3))) == 6

    def test_stddev_population(self):
        arr = np.array([1.0, 2.0, 3.0, 4.0])
        assert StdDevOp().reference(arr) == pytest.approx(float(np.std(arr)))

    def test_filter(self):
        op = ThresholdFilterOp(2.5)
        assert op.reference(np.array([1.0, 3.0, 2.0, 4.0])) == [3.0, 4.0]

    def test_filter_empty_result(self):
        assert ThresholdFilterOp(100.0).reference(np.array([1.0])) == []


class TestSplitInvariance:
    """The core correctness property: evaluating an instance from split
    chunks must equal evaluating it whole, regardless of how the cells
    are divided among chunks — this is what makes early reduce starts
    safe once all chunks have arrived."""

    @pytest.mark.parametrize("op", ALL_OPS, ids=lambda o: o.name)
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_any_partition_of_cells(self, op, data):
        arr = data.draw(values_arrays)
        n = len(arr)
        n_cuts = data.draw(st.integers(0, min(4, n - 1)))
        cuts = (
            sorted(
                data.draw(
                    st.lists(
                        st.integers(1, n - 1),
                        min_size=n_cuts,
                        max_size=n_cuts,
                        unique=True,
                    )
                )
            )
            if n > 1
            else []
        )
        pieces = np.split(arr, cuts)
        partials = [op.map_partial(chunk_of(p)) for p in pieces if p.size]
        combined = op.combine(partials)
        assert combined.source_count == n
        got = op.finalize(combined)
        want = op.reference(arr)
        assert got == pytest.approx(want)

    @pytest.mark.parametrize("op", ALL_OPS, ids=lambda o: o.name)
    def test_combine_associative_two_ways(self, op):
        a, b, c = (chunk_of([1.0, 2.0]), chunk_of([3.0]), chunk_of([4.0, 5.0]))
        pa, pb, pc = (op.map_partial(x) for x in (a, b, c))
        left = op.combine([op.combine([pa, pb]), pc])
        right = op.combine([pa, op.combine([pb, pc])])
        assert op.finalize(left) == pytest.approx(op.finalize(right))
        assert left.source_count == right.source_count == 5


class TestSourceCounts:
    @pytest.mark.parametrize("op", ALL_OPS, ids=lambda o: o.name)
    def test_counts_add_up(self, op):
        p1 = op.map_partial(chunk_of([1.0, 2.0, 3.0]))
        p2 = op.map_partial(chunk_of([4.0]))
        assert op.combine([p1, p2]).source_count == 4

    def test_filter_preserves_source_count(self):
        """Filtered-out cells still count as sources — essential for the
        §3.2.1 annotation (an empty result is not missing data)."""
        op = ThresholdFilterOp(1e9)
        p = op.map_partial(chunk_of([1.0, 2.0]))
        assert p.source_count == 2
        assert op.finalize(p) == []

    def test_filter_empty_after_mask_partial_combines(self):
        """An empty-after-mask partial must still be a real Partial —
        empty state, full source count — and combining it with a
        non-empty one keeps both the values and the tally."""
        op = ThresholdFilterOp(5.0)
        empty = op.map_partial(chunk_of([1.0, 2.0, 3.0]))
        assert np.asarray(empty.state).size == 0
        assert empty.source_count == 3
        full = op.map_partial(chunk_of([9.0, 4.0]))
        combined = op.combine([empty, full])
        assert combined.source_count == 5
        assert op.finalize(combined) == [9.0]
        # Order of combination is irrelevant after the finalize sort.
        assert op.finalize(op.combine([full, empty])) == [9.0]


def _prunable(name):
    return get_operator(name, 5.0 if name in THRESHOLD_OPERATORS else None)


class TestPrunePredicates:
    def test_filter_gt_region_prunable_iff_max_below_threshold(self):
        pred = ThresholdFilterOp(5.0).prune_predicate()
        assert pred is not None
        assert pred.region_prunable(-10.0, 5.0)      # hi == t: nothing > t
        assert pred.region_prunable(-10.0, 4.9)
        assert not pred.region_prunable(-10.0, 5.1)  # some cell may match

    @pytest.mark.parametrize("name", PRUNABLE_OPERATORS)
    def test_pruned_keys_finalize_to_fresh_lists(self, name):
        """A key whose every producer was pruned has the operator's map
        of zero cells as its state; finalizing n of them gives n empty
        lists, none shared (synthesized records must not share state)."""
        op = _prunable(name)
        columns = op.map_batch(np.empty((3, 0)))
        out = op.finalize_columns(columns, np.zeros(3, dtype=np.int64)).tolist()
        assert out == [[], [], []]
        assert len({id(v) for v in out}) == 3

    @pytest.mark.parametrize("name", PRUNABLE_OPERATORS)
    def test_prunable_state_is_ragged(self, name):
        """The table property the planned reduce relies on: a pruned
        key's row is a zero-length row of a ragged column."""
        assert operators._SPECS[name].combine is None
        columns = _prunable(name).map_batch(np.empty((2, 0)))
        assert all(isinstance(c, Ragged) for c in columns)
        assert all(c.lengths.tolist() == [0, 0] for c in columns)

    def test_range_exceeds_is_not_prunable(self):
        """range_exceeds outputs a data-dependent variation for every
        key, so no region's contribution is a combine identity."""
        from repro.query.operators import RangeExceedsOp

        assert RangeExceedsOp(threshold=3.0).prune_predicate() is None

    def test_default_operators_have_no_predicate(self):
        for op in ALL_OPS:
            assert op.prune_predicate() is None


class TestErrors:
    def test_combine_empty_raises(self):
        with pytest.raises(QueryError):
            MeanOp().combine([])

    def test_median_of_nothing(self):
        with pytest.raises(QueryError):
            MedianOp().finalize(Partial(np.array([]), 0))


def _operator(name, threshold=5.0):
    return get_operator(
        name, threshold=threshold if name in THRESHOLD_OPERATORS else None
    )


def _finalize_one(op, columns, count):
    (value,) = op.finalize_columns(columns, np.array([count])).tolist()
    return value


def _whole_batch(op, cells):
    """One instance through the batch protocol, as the columnar plane
    runs it."""
    return _finalize_one(op, op.map_batch(cells[None, :]), cells.size)


def _cut_scalar(op, pieces):
    return op.finalize(
        op.combine([op.map_partial(Chunk(p, p.size)) for p in pieces])
    )


def _cut_batch(op, pieces):
    """The pieces as rows of one key, combined by the columnar fold."""
    columns = tuple(
        np.concatenate(parts)
        for parts in zip(*(op.map_batch(p[None, :]) for p in pieces))
    )
    merged = op.combine_columns(columns, np.array([0]))
    return _finalize_one(op, merged, sum(p.size for p in pieces))


_ADVERSARIAL = st.one_of(
    st.sampled_from([
        math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
        2.2250738585072014e-308, 1e308, -1e308,
    ]),
    st.floats(allow_nan=True, allow_infinity=True, width=64),
    st.integers(-40, 40).map(float),
)
#: Results that do not depend on the order cells are folded in.
_ORDER_FREE = (
    "min", "max", "count", "range", "range_exceeds", "median", "sort",
    "filter_gt",
)


@st.composite
def _cells_and_cuts(draw, elements):
    values = draw(st.lists(elements, min_size=1, max_size=40))
    cells = np.array(values, dtype=np.float64)
    if draw(st.booleans()):
        with np.errstate(over="ignore"):
            cells = cells.astype(np.float32)
    cuts = draw(st.lists(st.integers(1, cells.size), max_size=3, unique=True))
    pieces = [p for p in np.split(cells, sorted(cuts)) if p.size]
    return cells, pieces


class TestOneDefinition:
    """The three readings of an operator — the oracle's table, the
    table row read one instance at a time (record plane) and read as
    columns (columnar plane) — return the same bytes, on the values the
    integer-valued fuzz data never draws too."""

    @pytest.mark.parametrize("name", OPERATOR_NAMES)
    @given(draw=_cells_and_cuts(_ADVERSARIAL))
    def test_adversarial_floats(self, name, draw):
        cells, pieces = draw
        op = _operator(name)
        with np.errstate(all="ignore"):
            want = repr(REFERENCE[name](cells, op.threshold))
            assert repr(op.finalize(op.map_partial(Chunk(cells, cells.size)))) == want
            assert repr(_whole_batch(op, cells)) == want
            if name not in _ORDER_FREE:
                return
            cut = repr(_cut_scalar(op, pieces))
            assert repr(_cut_batch(op, pieces)) == cut
        # The sign of a zero extreme over zeros of both signs is numpy's
        # reduction order (``np.min`` of the whole run and a fold of its
        # pieces differ on ~5 % of all-zero arrays): both planes fold
        # alike, the oracle sees the instance whole.
        zeros = np.signbit(cells[cells == 0])
        if name in ("median", "sort", "filter_gt", "count") or (
            zeros.all() or not zeros.any()
        ):
            assert cut == want

    @pytest.mark.parametrize("name", ["sum", "mean", "stddev"])
    @given(draw=_cells_and_cuts(st.integers(-40, 40).map(float)))
    def test_order_sensitive_sums_on_integer_valued_cells(self, name, draw):
        cells, pieces = draw
        op = _operator(name)
        want = repr(REFERENCE[name](cells, None))
        assert repr(_cut_scalar(op, pieces)) == want
        assert repr(_cut_batch(op, pieces)) == want

    @pytest.mark.parametrize(
        "name, cells, want",
        [
            # The old oracle: Python ``sorted`` does not order NaN.
            ("sort", [2.0, math.nan, 1.0, 0.5], [0.5, 1.0, 2.0, math.nan]),
            # The old record plane: ``np.sort`` is unstable on ties...
            ("sort", [1.0, 1.0, 0.0, -0.0], [0.0, -0.0, 1.0, 1.0]),
            # ...and ``np.median``'s mean starts from +0.0.
            ("median", [-0.0, 1.0, -0.0], -0.0),
            # The old record plane's combine: ``min(1.0, nan)`` is 1.0.
            ("min", [1.0, math.nan], math.nan),
        ],
    )
    def test_where_the_three_copies_disagreed(self, name, cells, want):
        cells = np.array(cells)
        op = _operator(name)
        pieces = [cells[:1], cells[1:]]
        for got in (
            REFERENCE[name](cells, None),
            op.reference(cells),
            op.finalize(op.map_partial(Chunk(cells, cells.size))),
            _whole_batch(op, cells),
            _cut_scalar(op, pieces),
            _cut_batch(op, pieces),
        ):
            assert repr(got) == repr(want)

    def test_the_oracle_imports_nothing_of_ours(self):
        tree = ast.parse(Path(repro.query.reference.__file__).read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                assert node.level == 0  # no relative imports either
                imported.add(node.module)
        assert imported == {"math", "numpy", "typing"}

    def test_every_row_has_an_oracle_entry(self):
        assert tuple(REFERENCE) == OPERATOR_NAMES


#: Cells that make rows holding both signs of zero common.
_ZERO_HEAVY = st.one_of(st.sampled_from([0.0, -0.0]), _ADVERSARIAL)


@st.composite
def _keyblock_rows(draw):
    """One keyblock's rows of cells: all of one length or of mixed
    lengths (one-cell rows included), each row drawn zero-heavy or not,
    so that only some rows hold both signs of zero."""
    n = draw(st.integers(1, 6))
    if draw(st.booleans()):
        sizes = [draw(st.integers(1, 40))] * n
    else:
        sizes = draw(st.lists(st.integers(1, 40), min_size=n, max_size=n))
    return [
        draw(st.lists(
            draw(st.sampled_from([_ADVERSARIAL, _ZERO_HEAVY])),
            min_size=size, max_size=size,
        ))
        for size in sizes
    ]


def _keyblock_columns(op, rows):
    """The state column a reduce hands ``finalize_columns`` for
    ``rows``: one ``map_batch`` of the block when the rows share a
    length, one per row laid end to end otherwise."""
    if len({len(row) for row in rows}) == 1:
        return op.map_batch(np.array(rows, dtype=np.float64))
    return tuple(
        np.concatenate(parts)
        for parts in zip(*(op.map_batch(np.array([row])) for row in rows))
    )


def _finalized_rows(op, rows):
    out = op.finalize_columns(
        _keyblock_columns(op, rows), np.array([len(row) for row in rows])
    )
    return out.tolist()


class TestRaggedKeyblocks:
    """``median``, ``sort`` and ``filter_gt`` finalize a keyblock of
    many rows at once: rows of one length as a row sort (unstable, with
    the rows holding both signs of zero sorted again stably), mixed
    lengths as one segmented stable sort.  Every row is the oracle's."""

    @pytest.mark.parametrize("name", ["median", "sort", "filter_gt"])
    @given(rows=_keyblock_rows(), threshold=st.sampled_from([-1.0, 5.0, 50.0]))
    def test_rows_equal_the_oracle(self, name, rows, threshold):
        op = get_operator(
            name, threshold if name in THRESHOLD_OPERATORS else None
        )
        want = [REFERENCE[name](np.array(row), op.threshold) for row in rows]
        with np.errstate(all="ignore"):
            got = _finalized_rows(op, rows)
        assert [repr(g) for g in got] == [repr(w) for w in want]

    @pytest.mark.parametrize(
        "name, threshold, rows, calls",
        [
            # one length, no row with both zeros: the row sort alone
            ("median", None, [[1.0, 2.0, 3.0], [3.0, -0.0, 1.0]], []),
            ("sort", None, [[2.0, 1.0], [0.0, 0.0]], []),
            # the two rows holding both signs are sorted again, stably
            ("median", None,
             [[0.0, -0.0, 1.0], [0.0, 0.0, 1.0], [-0.0, 2.0, 0.0]],
             [("_stable_rows", 2)]),
            ("sort", None, [[0.0, -0.0], [1.0, 2.0]], [("_stable_rows", 1)]),
            # mixed lengths: one segmented sort of the whole block
            ("sort", None, [[1.0], [2.0, 1.0]], [("_segment_sort", 2)]),
            ("median", None, [[-0.0, 0.0], [1.0, 2.0, 3.0]],
             [("_segment_sort", 2)]),
            # a mask that empties rows unevenly makes lengths mixed...
            ("filter_gt", 1.5, [[1.0, 2.0], [3.0, 4.0]], [("_segment_sort", 2)]),
            # ...one that empties every row leaves one length, 0
            ("filter_gt", 9.0, [[1.0, 2.0], [3.0, 4.0]], []),
            ("filter_gt", -1.0, [[-0.0, 0.0], [3.0, 4.0]], [("_stable_rows", 1)]),
        ],
    )
    def test_each_keyblock_takes_its_path(
        self, monkeypatch, name, threshold, rows, calls
    ):
        seen = []
        for helper in ("_stable_rows", "_segment_sort"):
            real = getattr(operators, helper)
            monkeypatch.setattr(
                operators, helper,
                lambda arg, real=real, helper=helper: (
                    seen.append((helper, len(arg))) or real(arg)
                ),
            )
        op = get_operator(name, threshold)
        got = _finalized_rows(op, rows)
        assert seen == calls
        want = [REFERENCE[name](np.array(row), threshold) for row in rows]
        assert repr(got) == repr(want)


class TestRegistry:
    def test_lookup_all(self):
        assert len(OPERATOR_NAMES) == 11
        for name in OPERATOR_NAMES:
            assert _operator(name).name == name

    def test_constructor_lookup_and_row_are_one_operator(self):
        chunk = chunk_of([3.0, 1.0, 2.0])
        for op in (MeanOp(), get_operator("mean"), SpecOperator("mean")):
            assert (op.name, op.distributive) == ("mean", True)
            assert op.map_partial(chunk) == Partial((6.0, 3), 3)
        assert (MeanOp.name, MedianOp.name) == ("mean", "median")
        assert ThresholdFilterOp(threshold=2).threshold == 2.0

    @pytest.mark.parametrize("name", OPERATOR_NAMES)
    def test_an_operator_pickles_as_its_row_name_and_parameter(self, name):
        """A row's column functions are lambdas; the operator travels
        (to an engine process) as ``get_operator(name, threshold)``."""
        op = _prunable(name)
        back = pickle.loads(pickle.dumps(op))
        assert back == op and hash(back) == hash(op)
        assert (back.name, back.threshold) == (op.name, op.threshold)
        values = np.arange(12.0).reshape(2, 6)
        assert repr(back.finalize_columns(
            back.map_batch(values), np.full(2, 6)
        ).tolist()) == repr(
            op.finalize_columns(op.map_batch(values), np.full(2, 6)).tolist()
        )
        other = "sum" if name == "count" else "count"
        assert op != get_operator(other) and op != name

    def test_filter_requires_threshold(self):
        with pytest.raises(QueryError):
            get_operator("filter_gt")
        with pytest.raises(QueryError, match="requires a threshold"):
            ThresholdFilterOp()
        assert get_operator("filter_gt", threshold=2.0).threshold == 2.0

    def test_unknown(self):
        with pytest.raises(QueryError) as exc:
            get_operator("mode")
        assert all(name in str(exc.value) for name in OPERATOR_NAMES)

    def test_unexpected_params(self):
        with pytest.raises(QueryError):
            get_operator("mean", threshold=1.0)
        with pytest.raises(QueryError, match="takes no parameters"):
            MeanOp(threshold=1)
        with pytest.raises(TypeError):  # nothing is dropped silently
            get_operator("filter_gt", threshold=1, bogus=2)

    def test_distributive_flags(self):
        assert MeanOp.distributive
        assert not MedianOp.distributive
