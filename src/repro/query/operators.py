"""Structural operators: the functions applied per extraction-shape
instance — one table row per operator, read two ways.

A row (:class:`_Spec`) is an operator's whole definition, written as
column functions over many instances at once: ``map_batch`` folds an
``(n, cells)`` block into state columns, ``combine`` names how same-key
rows merge, ``finalize`` turns combined columns into the output column.
:class:`SpecOperator` reads a row through both of the engine's protocols:

* the **batch protocol** of the columnar plane (``map_batch`` /
  ``combine_columns`` / ``finalize_columns`` / ``masked_cells``): the
  row applied to whole columns;
* the **scalar protocol** of :class:`StructuralOperator`, which the
  record plane runs: the same row one instance at a time.
  ``map_partial(chunk)`` (map side) is ``map_batch`` on a one-row block,
  ``finalize(partial)`` (reduce side) the row's ``finalize`` on one-row
  columns, and ``combine(partials)`` (combiner / reduce side) a
  left-to-right Python fold with the row's ufunc — written on its own,
  **not** with :func:`_segmented_fold`, so the one stage where float
  order matters has two implementations the tests hold against each
  other.

The planes therefore cannot disagree about what an operator *is*; what
both are judged against is :mod:`repro.query.reference`, which shares no
code with this module.  A user-defined operator subclasses
:class:`StructuralOperator` directly and runs on the record plane.

*Fixed-width* rows keep one number per state column and finalize with
IEEE operations that round the same in numpy and in Python floats
(``+ - * /``, ``sqrt``, comparisons); *ragged* rows (filter_gt, sort,
median) keep an instance's surviving values, in cell order, in one
:class:`~repro.mapreduce.columnar.Ragged` column — a flat float64 value
array plus per-row lengths, no Python object per row — so combining a
key's rows moves no value, and sort each row at finalize into the bytes
a stable sort gives it: rows of one length as the rows of a 2-D block,
mixed lengths in one segmented ``lexsort`` (:func:`_row_sort` states
when an unstable sort is allowed).  ``sort`` and ``filter_gt`` output
that sorted column as it is, a result block's ragged value column; no
Python list is built per row.  A ragged ``Partial.state`` is its row: a
float64 array.

``holistic`` rows carry every raw value in their partials (median,
sort); the rest are ``distributive``.  The paper uses the distinction
twice: HOP-style early aggregation only works for distributive operators
(§5), and combiners shrink shuffle volume only for them.  Every
:class:`Partial` carries ``source_count`` — the number of input cells it
represents — the §3.2.1 (approach 2) annotation the engine and SIDR's
validator rely on.
"""

from __future__ import annotations

import functools
from abc import ABC, abstractmethod
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from typing import Any, NamedTuple

import numpy as np

from repro.errors import QueryError
from repro.mapreduce.columnar import ExceedsColumn, Ragged, ValueColumn
from repro.mapreduce.mapper import Chunk
from repro.query.reference import REFERENCE


@dataclass(frozen=True)
class Partial:
    """Operator partial state plus the source-record annotation."""

    state: Any
    source_count: int

    def __post_init__(self) -> None:
        if self.source_count < 0:
            raise QueryError("negative source_count")


class PrunePredicate(ABC):
    """Zone-map predicate allowing whole input regions to be skipped.

    An operator may expose one (see
    :meth:`StructuralOperator.prune_predicate`) when two facts hold for
    regions its :meth:`region_prunable` accepts:

    1. provably **no cell** in the region satisfies the operator's
       selection, given only a conservative ``[lo, hi]`` value envelope;
    2. the region's exact contribution to every overlapping key is the
       operator's combine identity, so dropping it cannot change any
       key's finalized output.

    Both are needed: pruning must be invisible in the output bytes, not
    just "approximately right".  Point 2 holds by construction for a
    key *all* of whose input was pruned: the reduce takes it with the
    operator's map of zero cells as its state, and the operator's own
    ``finalize`` gives its value, like any other key's.
    """

    @abstractmethod
    def region_prunable(self, lo: float, hi: float) -> bool:
        """May a region whose values all lie in ``[lo, hi]`` be skipped?"""


class _GreaterThanPrune(PrunePredicate):
    """filter_gt: a region with max <= threshold contributes only empty
    passing-lists (the combine identity)."""

    def __init__(self, threshold: float) -> None:
        self.threshold = float(threshold)

    def region_prunable(self, lo: float, hi: float) -> bool:
        return hi <= self.threshold


class StructuralOperator(ABC):
    """Base class for per-instance operators."""

    #: Stable name used by the query language and benchmarks.
    name: str = "abstract"
    #: Partials are bounded-size and merge associatively.
    distributive: bool = True

    @abstractmethod
    def map_partial(self, chunk: Chunk) -> Partial: ...

    @abstractmethod
    def combine(self, partials: Sequence[Partial]) -> Partial: ...

    @abstractmethod
    def finalize(self, partial: Partial) -> Any: ...

    def prune_predicate(self) -> PrunePredicate | None:
        """Zone-map pruning predicate, or None when the operator's
        output depends on every cell (the common case: any aggregate
        whose value changes with non-matching data)."""
        return None

    def reference(self, values: np.ndarray) -> Any:
        """Direct evaluation over all of an instance's cells — the serial
        oracle tests compare MapReduce output against."""
        chunk = Chunk(np.asarray(values).reshape(-1), int(np.asarray(values).size))
        return self.finalize(self.map_partial(chunk))


# Column functions: what the table's rows are written with ------------ #


def _f64(values: np.ndarray) -> np.ndarray:
    return values.astype(np.float64, copy=False)


def _segmented_fold(
    uf: np.ufunc, col: np.ndarray, starts: np.ndarray
) -> np.ndarray:
    """Left-to-right fold of each segment, bit-exact vs the scalar path.

    ``np.ufunc.reduceat`` may associate pairwise (observably different
    float sums for segments of >= 4), while the scalar ``combine`` folds
    a key's states one after the other — strictly sequential.  This
    fold is sequential *within* each segment but vectorized *across*
    segments: one pass per position-in-segment, so the loop count is the
    longest segment (the number of map fragments feeding one key — a
    handful), not the record count.
    """
    col = np.asarray(col)
    n = col.shape[0]
    if starts.size == 0:
        return col[:0].copy()
    ends = np.append(starts[1:], n)
    out = col[starts].copy()
    longest = int((ends - starts).max())
    for j in range(1, longest):
        idx = starts + j
        live = idx < ends
        out[live] = uf(out[live], col[idx[live]])
    return out


def _counts_column(values: np.ndarray) -> np.ndarray:
    return np.full(values.shape[0], values.shape[1], dtype=np.int64)


def _require_cells(count: np.ndarray, what: str) -> None:
    if count.size and not count.all():
        raise QueryError(f"{what} of zero cells")


# Fixed-width state --------------------------------------------------- #


def _state_itself(col: np.ndarray, t: None) -> np.ndarray:
    return _f64(col)


def _mean(total: np.ndarray, count: np.ndarray, t: None) -> np.ndarray:
    _require_cells(count, "mean")
    return total / count


def _moments(v: np.ndarray, t: None) -> tuple[np.ndarray, ...]:
    w = _f64(v)
    return (_counts_column(v), w.sum(axis=1), np.square(w).sum(axis=1))


def _stddev(n: np.ndarray, s: np.ndarray, ss: np.ndarray, t: None) -> np.ndarray:
    _require_cells(n, "stddev")
    mean = s / n
    # ``mean * mean``, not ``mean ** 2``: multiplication is an IEEE
    # operation that rounds identically everywhere (the oracle computes
    # this in Python floats), whereas ``** 2`` goes through libm ``pow``
    # — last-ulp different for ~0.1 % of inputs.
    var = ss / n - mean * mean
    # ``where(var > 0)`` is the oracle's ``max(0.0, var)`` exactly: a
    # NaN or negative-zero variance clamps to +0.0 in both.
    return np.sqrt(np.where(var > 0.0, var, 0.0))


def _minmax(v: np.ndarray, t: float | None) -> tuple[np.ndarray, ...]:
    w = _f64(v)
    return (w.min(axis=1), w.max(axis=1))


def _exceeds(lo: np.ndarray, hi: np.ndarray, t: float) -> ExceedsColumn:
    variation = hi - lo
    return ExceedsColumn(variation > t, variation)


# Ragged state -------------------------------------------------------- #


def _survivors(v: np.ndarray, t: float | None) -> tuple[Ragged]:
    """Each instance's cells passing ``> t`` (all of them without a
    threshold), in cell order.

    One boolean mask per batch, not one ``arr[arr > t]`` per instance
    — the batch-path half of split skipping: splits the zone map could
    not prune entirely still do a single vectorized compare.  ``w[mask]``
    is every row's survivors end to end and ``mask.sum(axis=1)`` their
    lengths, so the column is built without a loop over rows.  An
    all-masked row keeps its place: length 0, with the row's full source
    count travelling beside it (§2.4.2 allows empty per-instance results
    and the §3.2.1 count annotation still needs the cells tallied).
    """
    w = _f64(v)
    if t is None:
        return (Ragged(w.reshape(-1), _counts_column(w)),)
    mask = w > t
    return (Ragged(w[mask], mask.sum(axis=1)),)


def _concat_segments(col: Ragged, starts: np.ndarray) -> Ragged:
    """Ragged combine.  Rows of one key are adjacent and in map order,
    so a key's combined row is those rows where they already lie in
    ``values`` — the order the scalar ``combine`` concatenates them in.
    No value moves; only the lengths add up."""
    if starts.size == len(col):
        return col  # every row its own key: nothing to merge
    return Ragged(col.values, np.add.reduceat(col.lengths, starts))


def _both_zero_signs(rows: np.ndarray) -> np.ndarray:
    """Which rows of an ``(n, L)`` block hold both ``0.0`` and ``-0.0``."""
    zero = rows == 0.0
    if not zero.any():
        return np.zeros(rows.shape[0], dtype=bool)
    negative = np.signbit(rows)
    return (zero & negative).any(axis=1) & (zero & ~negative).any(axis=1)


def _stable_rows(rows: np.ndarray) -> np.ndarray:
    return np.sort(rows, axis=1, kind="stable")


def _row_sort(rows: np.ndarray) -> np.ndarray:
    """The rows of an ``(n, L)`` block each sorted, in the bytes a
    stable sort gives it.

    The byte-identity rule: an unstable sort may order equal values
    differently from a stable one, and the only equal floats with
    different bytes are ``0.0`` and ``-0.0`` — NaNs sort last either
    way, and every NaN finalizes to the one NaN.  So the unstable sort
    stands for every row but those holding both signs of zero, which
    are sorted again, stably.  (``np.partition`` at the two middle
    ranks would do for ``median``, but with two ranks it measured 4x
    slower than the whole sort.)
    """
    out = np.sort(rows, axis=1)
    both = _both_zero_signs(rows)
    if both.any():
        out[both] = _stable_rows(rows[both])
    return out


def _segment_sort(col: Ragged) -> np.ndarray:
    """Every row of ``col`` sorted stably, the rows end to end: one
    ``lexsort((values, segment))`` over the whole column."""
    segment = np.repeat(np.arange(len(col)), col.lengths)
    return col.values[np.lexsort((col.values, segment))]


def _sorted_rows(col: Ragged) -> np.ndarray:
    """Every row of ``col`` in the bytes a stable sort gives it, the
    rows end to end: as the rows of a 2-D block when they share one
    length (every key of an aligned, unpruned dense plan), else by one
    segmented sort."""
    lengths = col.lengths
    if lengths.size and (lengths == lengths[0]).all():
        rows = col.values.reshape(lengths.size, int(lengths[0]))
        return _row_sort(rows).reshape(-1)
    return _segment_sort(col)


def _sorted(col: Ragged, t: float | None) -> Ragged:
    return Ragged(_sorted_rows(col), col.lengths)


def _medians(col: Ragged, t: None) -> np.ndarray:
    """``np.median`` of every row at once: the middle element of an odd
    count, ``(a + b) / 2`` of the middle two of an even one, NaN for a
    row holding one (they sort last)."""
    lengths = col.lengths
    _require_cells(lengths, "median")
    values, first = _sorted_rows(col), col.offsets[:-1]
    a = values[first + (lengths - 1) // 2]
    b = values[first + lengths // 2]
    middle = np.where(lengths % 2 == 1, a, (a + b) / 2)
    return np.where(np.isnan(values[col.offsets[1:] - 1]), np.nan, middle)


# The table ----------------------------------------------------------- #


class _Spec(NamedTuple):
    """One operator's whole definition.  ``map_batch`` and ``finalize``
    take the operator's threshold last (None for operators without
    one)."""

    #: ``(n, cells)`` value block -> one state column per component of
    #: ``Partial.state``.
    map_batch: Callable[..., tuple[np.ndarray | Ragged, ...]]
    #: Per-column combine ufuncs, or None for ragged state (concatenate).
    combine: tuple[np.ufunc, ...] | None
    #: Combined state columns -> the output column.
    finalize: Callable[..., ValueColumn]
    #: Partials carry every raw value (§5: no early aggregation).
    holistic: bool = False
    takes_threshold: bool = False
    #: Has a zone-map prune predicate (:class:`PrunePredicate`); ragged only.
    prunable: bool = False
    #: Bytes of one output row's value in a result block; None when the
    #: output rows differ in length (a ragged value column).
    value_bytes: int | None = 8


#: Row order is the order :func:`repro.verify.cases.generate_case`
#: draws from: reordering renumbers every seeded fuzz case.
_SPECS: dict[str, _Spec] = {
    "sum": _Spec(lambda v, t: (_f64(v.sum(axis=1)),), (np.add,), _state_itself),
    "count": _Spec(
        lambda v, t: (_counts_column(v),),
        (np.add,),
        lambda c, t: np.asarray(c, dtype=np.int64),
    ),
    "mean": _Spec(
        lambda v, t: (_f64(v).sum(axis=1), _counts_column(v)),
        (np.add, np.add),
        _mean,
    ),
    "min": _Spec(
        lambda v, t: (_f64(v.min(axis=1)),), (np.minimum,), _state_itself
    ),
    "max": _Spec(
        lambda v, t: (_f64(v.max(axis=1)),), (np.maximum,), _state_itself
    ),
    # Population, via (count, sum, sum of squares): algebraic.
    "stddev": _Spec(_moments, (np.add, np.add, np.add), _stddev),
    # Query 1's operator (§2.2).
    "median": _Spec(_survivors, None, _medians, holistic=True),
    # max - min per instance: §2.2 query 2's building block.
    "range": _Spec(
        _minmax, (np.minimum, np.maximum), lambda lo, hi, t: hi - lo
    ),
    # §2.2 query 3: "sort the data points for each day by temperature".
    "sort": _Spec(_survivors, None, _sorted, holistic=True, value_bytes=None),
    # Query 2 as run in §4.1: "a list of all values greater than the
    # threshold", possibly empty (§2.4.2); partials are the passing few.
    "filter_gt": _Spec(
        _survivors, None, _sorted, takes_threshold=True, prunable=True,
        value_bytes=None,
    ),
    # §2.2 query 2 exactly.  The output carries the data-dependent
    # ``variation`` either way, so no region's contribution is a combine
    # identity: not prunable (docs/PERFORMANCE.md).
    "range_exceeds": _Spec(
        _minmax, (np.minimum, np.maximum), _exceeds, takes_threshold=True,
        value_bytes=9,
    ),
}

OPERATOR_NAMES: tuple[str, ...] = tuple(_SPECS)
THRESHOLD_OPERATORS = tuple(n for n, s in _SPECS.items() if s.takes_threshold)
PRUNABLE_OPERATORS = tuple(n for n, s in _SPECS.items() if s.prunable)


class SpecOperator(StructuralOperator):
    """The built-in operator ``name``: its :data:`_SPECS` row, read
    through the scalar and the batch protocol (module docstring)."""

    def __init__(self, name: str, threshold: float | None = None) -> None:
        try:
            spec = _SPECS[name]
        except KeyError:
            raise QueryError(
                f"unknown operator {name!r}; known: {sorted(_SPECS)}"
            ) from None
        if spec.takes_threshold and threshold is None:
            raise QueryError(f"{name} requires a threshold parameter")
        if threshold is not None and not spec.takes_threshold:
            raise QueryError(f"operator {name!r} takes no parameters")
        self.name = name
        self.distributive = not spec.holistic
        self.threshold = None if threshold is None else float(threshold)
        #: Bytes of one output row's value in a result block (None:
        #: ``sort`` and ``filter_gt`` rows differ in length).
        self.value_bytes = spec.value_bytes
        self._spec = spec

    def __reduce__(self) -> tuple[Any, ...]:
        # A row's column functions are lambdas, which do not pickle: an
        # operator travels as its row's name and parameter.
        return (get_operator, (self.name, self.threshold))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SpecOperator):
            return NotImplemented
        return (self.name, self.threshold) == (other.name, other.threshold)

    def __hash__(self) -> int:
        return hash((self.name, self.threshold))

    def prune_predicate(self) -> PrunePredicate | None:
        return _GreaterThanPrune(self.threshold) if self._spec.prunable else None

    def reference(self, values: np.ndarray) -> Any:
        """The oracle's value: :mod:`repro.query.reference`, not this row."""
        return REFERENCE[self.name](values, self.threshold)

    # Batch protocol -------------------------------------------------- #

    def map_batch(self, values: np.ndarray) -> tuple[np.ndarray | Ragged, ...]:
        return self._spec.map_batch(values, self.threshold)

    def combine_columns(
        self, columns: tuple[np.ndarray | Ragged, ...], starts: np.ndarray
    ) -> tuple[np.ndarray | Ragged, ...]:
        if self._spec.combine is None:
            return (_concat_segments(columns[0], starts),)
        return tuple(
            _segmented_fold(uf, col, starts)
            for uf, col in zip(self._spec.combine, columns)
        )

    def finalize_columns(
        self, columns: tuple[np.ndarray | Ragged, ...], source_counts: np.ndarray
    ) -> ValueColumn:
        # The one invariant ``Partial`` enforces per row.
        if source_counts.size and int(source_counts.min()) < 0:
            raise QueryError("negative source_count")
        # Python floats overflow to inf and turn inf - inf into NaN
        # silently; so must the columns.
        with np.errstate(over="ignore", invalid="ignore"):
            return self._spec.finalize(*columns, self.threshold)

    def masked_cells(
        self, values: np.ndarray, columns: tuple[np.ndarray | Ragged, ...]
    ) -> int:
        """Cells a pushdown mask dropped from this batch (the engine's
        ``pushdown.rows.masked`` counter): what a ragged state under a
        threshold did not keep, nothing for any other operator."""
        if self._spec.combine is not None or self.threshold is None:
            return 0
        return int(values.size) - columns[0].values.size

    # Scalar protocol.  ``Partial.state`` is the instance's row of the
    # state columns: the bare value for one column, a tuple for several;
    # a ragged column's row is its float64 array.

    def map_partial(self, chunk: Chunk) -> Partial:
        columns = self.map_batch(np.asarray(chunk.data).reshape(1, -1))
        row = tuple(
            col[0] if isinstance(col, Ragged) else col[0].item()
            for col in columns
        )
        return Partial(row if len(row) > 1 else row[0], chunk.source_count)

    def combine(self, partials: Sequence[Partial]) -> Partial:
        if not partials:
            raise QueryError("combine() of zero partials")
        if len(partials) == 1:  # a fold of one row is that row
            return partials[0]
        rows = zip(*(_row(p.state) for p in partials))
        row = tuple(map(_fold, self._spec.combine or (None,), rows))
        count = sum(p.source_count for p in partials)
        return Partial(row if len(row) > 1 else row[0], count)

    def finalize(self, partial: Partial) -> Any:
        if self._spec.combine is None:
            values = np.asarray(partial.state, dtype=np.float64).reshape(-1)
            columns = (Ragged(values, [values.size]),)
        else:
            columns = tuple(np.array([x]) for x in _row(partial.state))
        out = self.finalize_columns(columns, np.array([partial.source_count]))
        return out.tolist()[0]


def _row(state: Any) -> tuple:
    return state if isinstance(state, tuple) else (state,)


def _fold(uf: np.ufunc | None, values: Iterable[Any]) -> Any:
    """Left-to-right fold of one key's values (``uf`` None: ragged
    state, laid end to end).  The ufunc, not the builtin it resembles:
    ``min(1.0, nan)`` is 1.0 and ``sum([-0.0])`` is 0.0, where the
    columns and the oracle give NaN and -0.0."""
    if uf is None:
        return np.concatenate([np.asarray(v).reshape(-1) for v in values])
    return functools.reduce(lambda a, b: uf(a, b).item(), values)


def _constructor(name: str) -> Callable[..., SpecOperator]:
    """``SpecOperator`` bound to one row, with the ``name`` and
    ``distributive`` attributes a class would have."""
    ctor = functools.partial(SpecOperator, name)
    ctor.name, ctor.distributive = name, not _SPECS[name].holistic
    return ctor


SumOp = _constructor("sum")
CountOp = _constructor("count")
MeanOp = _constructor("mean")
MinOp = _constructor("min")
MaxOp = _constructor("max")
StdDevOp = _constructor("stddev")
MedianOp = _constructor("median")
RangeOp = _constructor("range")
SortOp = _constructor("sort")
ThresholdFilterOp = _constructor("filter_gt")
RangeExceedsOp = _constructor("range_exceeds")


def get_operator(name: str, threshold: float | None = None) -> SpecOperator:
    """The built-in operator ``name`` (``filter_gt`` and
    ``range_exceeds`` take ``threshold``, the others must not)."""
    return SpecOperator(name, threshold)
