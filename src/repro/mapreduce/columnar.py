"""Columnar data plane: batched map/shuffle/reduce over parallel arrays.

The record plane moves one Python object per intermediate record through
reader → mapper → sort → spill → merge → group → reduce.  For structural
queries that is pure interpretation overhead: SIDR's deterministic K→K'
translation means every record in a batch obeys the same arithmetic, so
the whole data plane can run as numpy array operations instead.  A key
is its row-major index in K'_T, and keys travel from reader to result as
``(R, 2)`` int64 tables of ``[start, stop)`` runs: Area 3's keyblocks are
contiguous row-major ranges of K'_T, so a map's keys for one keyblock
are a few runs, usually one.  A key is spelt out only where rows that
share it combine, and where a hash partitioner hashes it.  This module
is the engine half of that plane:

* :class:`ChunkBatch` — the one item type a columnar record reader
  emits: a run table plus an ``(n, cells)`` value block, one row per
  extraction-shape instance piece present in this split's slab, and
  K'_T's shape.
* :class:`Ragged` — a state column whose rows differ in length: flat
  float64 values plus per-row lengths, which every stage below slices,
  permutes and concatenates like a numeric column.
* :class:`ColumnarMapOutput` — the spill-file variant whose records live
  as parallel arrays: a run table of distinct keys in order (checked by
  :func:`keys_in_runs` where it is made), one array per operator
  state column, and the per-row §3.2.1 source counts.  It is
  duck-compatible with :class:`~repro.mapreduce.shuffle.MapOutputFile`
  (``map_id`` / ``partition`` / ``num_records`` / ``source_records``),
  so the attempt-aware :class:`~repro.mapreduce.shuffle.ShuffleStore`
  works unchanged in both planes.
* :class:`ResultBlock` — what a columnar reduce returns: one keyblock's
  finalized output as K'_T's shape, its key runs and a value column —
  float64, int64, :class:`Ragged` rows or an :class:`ExceedsColumn` —
  with one binary byte form.  It is a read-only ``Sequence`` of ``(key,
  value)`` records, but records exist as Python objects only once
  somebody indexes or iterates; the service, the verifier and the dense
  output writer read the arrays.
* :func:`run_columnar_map` / :func:`run_columnar_reduce` — the task
  bodies the engine dispatches to when the job carries a
  ``JobConf.batch_operator``.  A map puts its runs in key order,
  combining only where they overlap, and the partitioner cuts them
  (``Partitioner.partition_runs``).  A reduce whose fetched runs
  increase across every seam concatenates and finalizes; any other
  fetch is put in key order and combined where keys repeat.

The operator arithmetic itself lives behind the :class:`BatchOperator`
protocol (implemented for every operator in :mod:`repro.query.columnar`),
keeping this package independent of the query layer.  Outputs are
byte-identical to the record plane: the segmented fold applies the same
left-to-right combine order as the scalar combine implementations, and
finalization is one array expression per operator that rounds as the
scalar one does.
"""

from __future__ import annotations

import math
import struct
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from itertools import chain
from typing import Any, ClassVar, Protocol

import numpy as np

from repro.arrays.linearize import expand_runs, index_runs
from repro.errors import InjectedFaultError, ShuffleError
from repro.mapreduce.counters import Counters
from repro.mapreduce.shuffle import ShuffleStore, payload_nbytes
from repro.mapreduce.types import KeyValue, MapTaskId
from repro.obs import COUNT_BUCKETS, JobObservability


class BatchOperator(Protocol):
    """Vectorized face of a structural operator.

    State travels as parallel columns (one array per component of the
    scalar ``Partial.state``; a :class:`Ragged` column where a row's
    state is a variable-length array); the implementations guarantee the
    column arithmetic reproduces the scalar protocol bit for bit.
    """

    def map_batch(self, values: np.ndarray) -> tuple[np.ndarray, ...]:
        """Fold an ``(n, cells)`` value block into per-row state columns
        with one whole-block operation per column."""
        ...

    def masked_cells(
        self, values: np.ndarray, columns: tuple[np.ndarray, ...]
    ) -> int:
        """Cells of ``values`` a pushdown predicate kept out of
        ``columns`` (0 for operators without one)."""
        ...

    def combine_columns(
        self, columns: tuple[np.ndarray, ...], starts: np.ndarray
    ) -> tuple[np.ndarray, ...]:
        """Segmented combine: reduce each column over the groups that
        begin at ``starts`` (``ufunc.reduceat`` semantics)."""
        ...

    def finalize_columns(
        self, columns: tuple[np.ndarray, ...], source_counts: np.ndarray
    ) -> "ValueColumn":
        """Reduce-side finalization of every combined state row at once:
        a result value column — a float64 or int64 array, a
        :class:`Ragged` column or an :class:`ExceedsColumn`."""
        ...


@dataclass(frozen=True)
class ChunkBatch:
    """A batch of whole extraction-shape instances from one split slab.

    ``runs`` is an ``(R, 2)`` int64 table of ``[start, stop)`` runs of
    row-major indices in ``space`` (K'_T); ``values[i]`` is the cells,
    flattened in C order, of the ``i``-th key the runs cover — the same
    order the record plane's per-instance slice-and-flatten produces.
    All rows carry the same cell count, so the §3.2.1 source count per
    row is ``values.shape[1]``.
    """

    runs: np.ndarray
    values: np.ndarray
    space: tuple[int, ...]

    def __post_init__(self) -> None:
        runs = np.asarray(self.runs, dtype=np.int64)
        values = np.asarray(self.values)
        if runs.ndim != 2 or runs.shape[1] != 2:
            raise ShuffleError(f"batch runs must be (R, 2), got {runs.shape}")
        if values.ndim != 2:
            raise ShuffleError(f"batch values must be (n, cells), got {values.shape}")
        n = int(np.add.reduce(runs[:, 1] - runs[:, 0]))
        if n != values.shape[0]:
            raise ShuffleError(
                f"batch key/value row mismatch: {n} != {values.shape[0]}"
            )
        object.__setattr__(self, "runs", runs)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "space", tuple(self.space))

    @property
    def num_instances(self) -> int:
        return self.values.shape[0]

    @property
    def cells_per_instance(self) -> int:
        return self.values.shape[1]


class _FieldColumn:
    """A column held as parallel arrays, its ``_fields``.
    ``np.concatenate`` of such columns is their rows end to end, field
    by field, so the engine concatenates a column the same way whatever
    it holds; every other numpy function refuses one, and
    ``np.asarray`` of one is an error rather than an object array."""

    _fields: ClassVar[tuple[str, ...]]

    def __array_function__(self, func, types, args, kwargs):
        if func is not np.concatenate or kwargs or not all(
            issubclass(t, type(self)) for t in types
        ):
            return NotImplemented
        parts = args[0]
        return type(self)(*(
            np.concatenate([getattr(p, name) for p in parts])
            for name in self._fields
        ))

    def __array__(self, *args: Any, **kwargs: Any) -> np.ndarray:
        raise TypeError(
            f"a {type(self).__name__} column is not an array: read "
            + " and ".join(f".{name}" for name in self._fields)
        )


class Ragged(_FieldColumn):
    """A state column whose rows differ in length (the holistic and
    filtering operators' surviving cells): ``values``, one flat float64
    array holding the rows end to end in order, and ``lengths``, the
    ``(n,)`` int64 row lengths.  Row ``i`` is
    ``values[offsets[i]:offsets[i + 1]]``.

    It supports exactly the row operations the engine applies to a state
    column, so a map, a spill and a reduce treat it like any numeric
    one: ``len``; indexing by a row (a float64 view), by a slice (a
    reversed one included) or by an index array; and ``np.concatenate``
    of ragged columns.  ``nbytes`` is its cells' bytes — what crosses
    the shuffle, the record plane's size of the same rows.  There is no
    Python object per row, and ``np.asarray`` of it is an error rather
    than an object array.  Finalized (each row sorted), it is also the
    value column of a ``sort`` or ``filter_gt`` :class:`ResultBlock`,
    whose :meth:`tolist` gives the rows as lists.
    """

    _fields = ("values", "lengths")

    def __init__(self, values: np.ndarray, lengths: np.ndarray) -> None:
        values = np.asarray(values, dtype=np.float64)
        lengths = np.asarray(lengths, dtype=np.int64)
        if values.ndim != 1 or lengths.ndim != 1:
            raise ShuffleError("ragged values and lengths must be 1-D")
        if lengths.size and int(lengths.min()) < 0:
            raise ShuffleError("negative ragged row length")
        #: ``(n + 1,)``: where each row begins, then where the last ends.
        self.offsets = np.zeros(lengths.size + 1, dtype=np.int64)
        lengths.cumsum(out=self.offsets[1:])
        if values.size != self.offsets[-1]:
            raise ShuffleError(
                f"ragged rows hold {self.offsets[-1]} cells, values {values.size}"
            )
        self.values = values
        self.lengths = lengths

    @property
    def nbytes(self) -> int:
        return int(self.values.nbytes)

    def __len__(self) -> int:
        return self.lengths.size

    def __getitem__(self, index: Any) -> "np.ndarray | Ragged":
        if isinstance(index, (int, np.integer)):
            i = range(len(self))[index]
            return self.values[self.offsets[i]:self.offsets[i + 1]]
        if isinstance(index, slice):
            start, stop, step = index.indices(len(self))
            if step == 1:
                stop = max(start, stop)
                cells = slice(self.offsets[start], self.offsets[stop])
                return Ragged(self.values[cells], self.lengths[start:stop])
            index = np.arange(start, stop, step)
        return self.take(index)

    def take(self, rows: np.ndarray) -> "Ragged":
        """The rows at ``rows`` (an index array), in that order."""
        lengths = self.lengths[rows]
        shift = self.offsets[:-1][rows] - (np.cumsum(lengths) - lengths)
        cells = np.repeat(shift, lengths) + np.arange(int(lengths.sum()))
        return Ragged(self.values[cells], lengths)

    def tolist(self) -> list[list[float]]:
        """The rows as lists of plain floats."""
        values, ends = self.values.tolist(), self.offsets.tolist()
        return [values[a:b] for a, b in zip(ends, ends[1:])]

    def __repr__(self) -> str:
        return f"Ragged({len(self)} rows, {self.values.size} cells)"


class ExceedsColumn(_FieldColumn):
    """``range_exceeds``' output column: per row, whether the variation
    passed the threshold and the variation itself, as two fixed-width
    arrays — ``exceeds`` (bool) and ``variation`` (float64).  A row
    reads as ``{"exceeds": bool, "variation": float}`` (:meth:`tolist`);
    like :class:`Ragged` it slices, takes and concatenates as a column."""

    _fields = ("exceeds", "variation")

    def __init__(self, exceeds: np.ndarray, variation: np.ndarray) -> None:
        exceeds = np.asarray(exceeds, dtype=np.bool_)
        variation = np.asarray(variation, dtype=np.float64)
        if exceeds.ndim != 1 or exceeds.shape != variation.shape:
            raise ShuffleError("exceeds and variation must be 1-D, one per row")
        self.exceeds = exceeds
        self.variation = variation

    def __len__(self) -> int:
        return self.exceeds.size

    def __getitem__(self, index: Any) -> "ExceedsColumn":
        return ExceedsColumn(self.exceeds[index], self.variation[index])

    def tolist(self) -> list[dict[str, Any]]:
        """The rows as ``{"exceeds": bool, "variation": float}`` dicts."""
        return [
            {"exceeds": e, "variation": v}
            for e, v in zip(self.exceeds.tolist(), self.variation.tolist())
        ]

    def __repr__(self) -> str:
        return f"ExceedsColumn({len(self)} rows)"


def keys_in_runs(runs: np.ndarray, space: Sequence[int]) -> int | None:
    """The keys an ``(R, 2)`` run table covers if its bounds strictly
    increase inside ``[0, volume(space)]`` (runs non-empty, disjoint, not
    touching: no sum can wrap), else ``None``: the one check of a spill's
    and a result block's keys."""
    bounds = runs.ravel()
    if not bounds.size:
        return 0
    # Compared, not subtracted: a difference of int64 bounds can wrap.
    if (bounds[0] < 0 or int(bounds[-1]) > math.prod(space)
            or not (bounds[1:] > bounds[:-1]).all()):
        return None
    return int(np.add.reduce(bounds[1::2] - bounds[::2]))


@dataclass(frozen=True)
class ColumnarMapOutput:
    """Sorted columnar run for one (map task, keyblock).

    The same contract as :class:`~repro.mapreduce.shuffle.MapOutputFile`
    — key-sorted records plus the §3.2.1 ``source_records`` annotation —
    with records decomposed into parallel arrays: ``runs`` (an ``(R,
    2)`` int64 table of ``[start, stop)`` row-major indices into
    ``space``, K'_T, each key once and in order: checked by
    :func:`keys_in_runs` where the spill is made), ``states`` (one
    array per operator state column) and ``source_counts`` (``(n,)``
    int64), one row per key the runs cover.  ``approx_serialized_bytes``
    reads the buffers' ``nbytes`` instead of walking Python objects (a
    :class:`Ragged` column's are its cells').
    """

    map_id: MapTaskId
    partition: int
    runs: np.ndarray
    space: tuple[int, ...]
    states: tuple[np.ndarray, ...] = field(repr=False)
    source_counts: np.ndarray = field(repr=False)
    source_records: int = 0

    def __post_init__(self) -> None:
        if self.partition < 0:
            raise ShuffleError(f"negative partition {self.partition}")
        if self.source_records < 0:
            raise ShuffleError("negative source record count")
        runs = np.asarray(self.runs, dtype=np.int64)
        if runs.ndim != 2 or runs.shape[1] != 2:
            raise ShuffleError(f"columnar runs must be (R, 2), got {runs.shape}")
        space = tuple(self.space)
        n = keys_in_runs(runs, space)
        if n is None:
            raise ShuffleError(
                f"map output file {self.map_id}/{self.partition} not sorted: "
                f"its runs are not increasing keys of {space}"
            )
        counts = np.asarray(self.source_counts, dtype=np.int64)
        if counts.shape != (n,):
            raise ShuffleError(
                f"source_counts shape {counts.shape} != ({n},)"
            )
        for col in self.states:
            if len(col) != n:
                raise ShuffleError("state column length mismatch")
        object.__setattr__(self, "runs", runs)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "source_counts", counts)

    @property
    def num_records(self) -> int:
        return self.source_counts.shape[0]

    @property
    def approx_serialized_bytes(self) -> int:
        """Wire-size estimate: the parallel buffers are the payload —
        each key at the width of the coordinates it serializes to — and
        a ragged state column's is its rows' cells: the record plane's
        estimate of the same records.  A few ``nbytes`` reads, read once
        per fetch: not worth a cache."""
        return (
            self.source_counts.nbytes * len(self.space)
            + sum(map(payload_nbytes, self.states))
            + self.source_counts.nbytes
        )


#: :meth:`ResultBlock.to_bytes` header, little-endian: magic, value tag,
#: pad byte, rank of K'_T, row count, run count, byte length of the
#: value column.  K'_T's shape, the runs and the value column follow.
_BLOCK_HEADER = struct.Struct("<4sBxHQQQ")
_BLOCK_MAGIC = b"RBK2"
#: Value tags, one per value column (``docs/SERVICE.md``, "Wire
#: format").  Tag 1 is unused: it named a JSON column once.
_FLOAT64, _INT64, _RAGGED, _EXCEEDS = 0, 2, 3, 4
#: Each value tag's name, as the docs and reports print it.
VALUE_TAG_NAMES = {
    _FLOAT64: "float64", _INT64: "int64", _RAGGED: "ragged",
    _EXCEEDS: "range_exceeds",
}
#: The value column a result block holds.
ValueColumn = np.ndarray | Ragged | ExceedsColumn


def fixed_block_nbytes(rows: int, rank: int, value_bytes: int) -> int:
    """Length of :meth:`ResultBlock.to_bytes` for a complete result
    (every key of a rank-``rank`` K'_T of ``rows`` keys: one run) of
    ``value_bytes`` per row: known before any row exists."""
    return _BLOCK_HEADER.size + 8 * rank + 16 + rows * value_bytes


def _value_column(values: Any) -> ValueColumn:
    """``values`` as one of the four value columns: a float64 or an
    int64 array, a :class:`Ragged` column of float64 rows, or an
    :class:`ExceedsColumn`.  A list maps by its values' types — all
    floats, all ints, all lists of floats, all ``{"exceeds": bool,
    "variation": float}`` dicts (an empty list is a float64 column) —
    so a canonical record list and the engine's columns give the same
    block.  Any other value raises :class:`ShuffleError`."""
    if isinstance(values, (Ragged, ExceedsColumn)):
        return values
    if isinstance(values, np.ndarray):
        if values.dtype.kind == "f":
            return values.astype(np.float64, copy=False)
        if values.dtype.kind in "iu" and np.can_cast(values.dtype, np.int64):
            return values.astype(np.int64, copy=False)
        raise ShuffleError(f"no result value column holds dtype {values.dtype}")
    values = list(values)
    kinds = set(map(type, values))
    if kinds <= {float}:
        return np.array(values, dtype=np.float64)
    if kinds == {int}:
        try:
            return np.array(values, dtype=np.int64)
        except OverflowError as exc:
            raise ShuffleError(f"result integer out of int64 range: {exc}") from None
    if kinds == {list}:
        cells = list(chain.from_iterable(values))
        if set(map(type, cells)) <= {float}:
            return Ragged(
                np.array(cells, dtype=np.float64),
                np.fromiter(map(len, values), np.int64, len(values)),
            )
    elif kinds == {dict} and set(map(tuple, values)) == {ExceedsColumn._fields}:
        flags = [v["exceeds"] for v in values]
        variation = [v["variation"] for v in values]
        if set(map(type, flags)) == {bool} and set(map(type, variation)) == {float}:
            return ExceedsColumn(flags, variation)
    raise ShuffleError(
        "result values are not all floats, all ints, all lists of floats "
        "or all range_exceeds pairs"
    )


def _value_tag(values: ValueColumn) -> int:
    if isinstance(values, Ragged):
        return _RAGGED
    if isinstance(values, ExceedsColumn):
        return _EXCEEDS
    return _FLOAT64 if values.dtype.kind == "f" else _INT64


def _float_bytes(values: np.ndarray) -> bytes:
    """Little-endian float64 bytes, every NaN the one quiet NaN (every
    NaN has the same ``repr``); every other value keeps its bits."""
    floats = np.asarray(values, dtype="<f8")
    nan = np.isnan(floats)
    if nan.any():
        floats = floats.copy()
        floats[nan] = np.nan
    return floats.tobytes()


def _column_sections(values: ValueColumn) -> tuple[bytes, ...]:
    """The value column's byte form, section by section: the float64 or
    int64 values; a ragged column's int64 row lengths, then its float64
    cells; ``range_exceeds``' float64 variations, then its 0/1 flags."""
    if isinstance(values, Ragged):
        lengths = values.lengths.astype("<i8", copy=False)
        return lengths.tobytes(), _float_bytes(values.values)
    if isinstance(values, ExceedsColumn):
        return _float_bytes(values.variation), values.exceeds.tobytes()
    if values.dtype.kind == "f":
        return (_float_bytes(values),)
    return (values.astype("<i8", copy=False).tobytes(),)


def _section_sizes(tag: int, n: int, column_bytes: int) -> tuple[int, ...]:
    """Byte length of each of a tag's value column sections."""
    if tag == _RAGGED:
        return 8 * n, column_bytes - 8 * n
    if tag == _EXCEEDS:
        return 8 * n, n
    return (8 * n,)


def _read_only_view(
    view: memoryview, dtype: str, count: int, offset: int
) -> np.ndarray:
    array = np.frombuffer(view, dtype=dtype, count=count, offset=offset)
    array.flags.writeable = False
    return array


def _joined_runs(runs: np.ndarray) -> np.ndarray:
    """An ``(R, 2)`` run table in key order with each run that starts
    where the one before it stops joined to that one."""
    if runs.shape[0] < 2:
        return runs
    flat = runs.ravel()
    # (stop, next start) between consecutive runs: equal ones join.
    seams = flat[1:-1].reshape(-1, 2)
    seams = seams[seams[:, 0] != seams[:, 1]]
    return np.concatenate((flat[:1], seams.ravel(), flat[-1:])).reshape(-1, 2)


class ResultBlock(Sequence):
    """One keyblock's finalized reduce output as parallel columns.

    ``space`` is K'_T's 0-based shape; ``runs`` are the keys, their
    increasing row-major indices in it, as an ``(R, 2)`` int64 table of
    maximal ``[start, stop)`` runs: one for a complete result (SIDR's
    output is K'_T, dense and contiguous), one per contiguous stretch of
    keyblocks for a part or a partial result.  ``values`` holds row
    ``i``'s output in one of four value
    columns: float64 (the scalar operators), int64 (``count``), a
    :class:`Ragged` column of sorted float64 rows (``sort``,
    ``filter_gt``) or an :class:`ExceedsColumn` (``range_exceeds``).
    Anything else given as ``values`` — a list of plain Python values
    above all — is mapped to one of those or refused
    (:func:`_value_column`).  As a ``Sequence`` the block reads as the
    ``[(key_tuple, value), ...]`` list a reduce used to return; those
    records, the index column ``key_index`` (not ``keys``: ``dict(block)``
    would take the block for a mapping) and the ``(n, rank)``
    ``key_rows`` are computed on access, never stored.

    Lists and dicts exist only in :meth:`value_list` (the JSON body, the
    CLI, :meth:`canonical_records`): every column's ``tolist()`` gives
    plain ints, floats, lists and dicts, so :meth:`canonical_records` is
    two ``tolist()`` calls, not a walk over every value; the verify
    fuzzer holds it against the generic walk on every case.

    :meth:`to_bytes` / :meth:`from_bytes` are the block's one byte form
    (``docs/SERVICE.md``, "Wire format"): equal records of one K'_T
    give equal bytes, whichever plane or operator produced the columns,
    and the SHA-256 of those bytes is the result's digest
    (:func:`repro.verify.oracle.records_digest`).
    """

    __slots__ = ("space", "runs", "values", "_packed")

    def __init__(self, space: Sequence[int], runs: Any, values: Any) -> None:
        """The block of the keys ``runs`` holds (:func:`index_runs` of a
        key index column) and their ``values``."""
        runs = np.asarray(runs, dtype=np.int64)
        if runs.ndim != 2 or runs.shape[1] != 2:
            raise ShuffleError(f"result key runs must be (R, 2), got {runs.shape}")
        values = _value_column(values)
        n = int(np.add.reduce(runs[:, 1] - runs[:, 0]))
        if len(values) != n:
            raise ShuffleError(f"result key/value row mismatch: {n} != {len(values)}")
        self.space = tuple(map(int, space))
        self.runs = runs
        self.values: ValueColumn = values
        #: The bytes this block's arrays view, when :meth:`packed` built it.
        self._packed: bytes | None = None

    @property
    def key_index(self) -> np.ndarray:
        """The keys' row-major indices in ``space``, strictly increasing."""
        return expand_runs(self.runs)

    @property
    def key_rows(self) -> np.ndarray:
        """The keys as ``(n, rank)`` int64 coordinates in ``space``."""
        if not len(self):
            return np.empty((0, len(self.space)), dtype=np.int64)
        return np.stack(np.unravel_index(self.key_index, self.space), axis=1)

    @classmethod
    def empty(cls) -> "ResultBlock":
        return cls((), np.empty((0, 2), dtype=np.int64), np.empty(0))

    @classmethod
    def from_records(cls, records: Iterable[KeyValue]) -> "ResultBlock":
        """Block holding canonical ``records``, their values in the
        column they map to (:func:`_value_column`), so the oracle's
        records and the engine's columns give the same bytes, in the
        keys' bounding shape: K'_T itself for a complete result.  Keys
        that are not distinct, non-negative integer coordinate tuples
        of one rank raise: a cast would make ``(1.5,)``, ``1`` and
        ``(1,)`` the same row."""
        records = list(records)
        if not records:
            return cls.empty()
        try:
            rows = np.asarray([key for key, _ in records])
            if rows.ndim != 2 or rows.dtype.kind != "i":
                raise ValueError("not integer tuples of one rank")
            space = tuple((rows.max(axis=0) + 1).tolist())
            # negative coordinates and spaces past int64 raise here
            index = np.ravel_multi_index(tuple(rows.T), space)
        except ValueError as exc:
            raise ShuffleError(
                f"record keys are not non-negative integer coordinate tuples "
                f"of one rank and bounded volume: {exc}"
            ) from None
        values = _value_column([v for _, v in records])
        order = np.argsort(index, kind="stable")
        index = index[order]
        if (index[1:] == index[:-1]).any():
            raise ShuffleError("records repeat a key")
        return cls(space, index_runs(index), values[order])

    @classmethod
    def concatenate(cls, blocks: Sequence["ResultBlock"]) -> "ResultBlock":
        """All rows of ``blocks`` in key order: laid end to end, runs
        joined, and sorted (one stable ``argsort`` of the run starts,
        rows gathered run by run) only when a seam between blocks is
        out of order.  Packed blocks in key order are spliced
        (:meth:`_splice`): no array is rebuilt.  Blocks of different
        spaces or value columns raise :class:`ShuffleError`."""
        blocks = [b for b in blocks if len(b)]
        if not blocks:
            return cls.empty()
        if len(blocks) == 1:
            return blocks[0]
        space = blocks[0].space
        if {b.space for b in blocks} != {space}:
            raise ShuffleError("cannot concatenate blocks of different key spaces")
        seams = all(a.runs[-1, 1] <= b.runs[0, 0] for a, b in zip(blocks, blocks[1:]))
        if seams and all(b._packed is not None for b in blocks):
            spliced = cls._splice(blocks)
            if spliced is not None:
                return spliced
        if len({_value_tag(b.values) for b in blocks}) > 1:
            raise ShuffleError("cannot concatenate blocks of different value columns")
        values = np.concatenate([b.values for b in blocks])
        runs = np.concatenate([b.runs for b in blocks])
        if not seams:
            order = runs[:, 0].argsort(kind="stable")
            runs, values = runs[order], values[_run_rows(runs, order)]
        return cls(space, _joined_runs(runs), values)

    @classmethod
    def _splice(cls, blocks: list["ResultBlock"]) -> "ResultBlock | None":
        """The packed block of ``blocks`` laid end to end — packed
        blocks of one space and one value tag, in key order across
        their seams — built from their buffers alone: a header, the
        shape, their runs joined, then section by section every block's
        value column (:func:`_column_sections`), in one join.  The bytes are
        :meth:`to_bytes` of the concatenated rows (each part's NaNs are
        already the one quiet NaN).  ``None`` for mixed tags."""
        tag = blocks[0]._packed[4]  # the value tag
        if any(b._packed[4] != tag for b in blocks):
            return None
        n = column = 0
        tables, pieces = [], []  # per block: its runs, its value sections
        for block in blocks:
            view = memoryview(block._packed)
            _, _, rank, rows, runs, column_bytes = _BLOCK_HEADER.unpack_from(view)
            n, column = n + rows, column + column_bytes
            runs_at = _BLOCK_HEADER.size + 8 * rank
            tables.append(np.frombuffer(view, "<i8", 2 * runs, runs_at))
            bounds = [runs_at + 16 * runs]
            for size in _section_sizes(tag, rows, column_bytes):
                bounds.append(bounds[-1] + size)
            pieces.append([view[a:b] for a, b in zip(bounds, bounds[1:])])
        space = blocks[0].space
        runs = _joined_runs(np.concatenate(tables).reshape(-1, 2))
        return cls.from_packed(b"".join([
            _BLOCK_HEADER.pack(_BLOCK_MAGIC, tag, len(space), n, len(runs), column),
            np.asarray(space, dtype="<i8").tobytes(),
            runs.astype("<i8", copy=False).tobytes(),
            *chain.from_iterable(zip(*pieces)),
        ]))

    def value_list(self) -> list:
        """The value column as a list of plain Python values: floats,
        ints, lists of floats or ``range_exceeds`` dicts."""
        return self.values.tolist()

    def canonical_records(self) -> list[KeyValue]:
        """Canonical ``[(key_tuple, value), ...]`` in key order — what
        :func:`repro.verify.oracle.canonicalize_records` computes for a
        record list, without visiting each value."""
        return list(zip(map(tuple, self.key_rows.tolist()), self.value_list()))

    def to_bytes(self) -> bytes:
        """The block's byte form: header, K'_T's shape and the key runs
        as little-endian int64, then the value column's sections
        (:func:`_column_sections`; NaNs as the one quiet NaN, since
        every NaN has the same ``repr``).  An empty block is the bare
        float64-tagged header of rank 0, whatever space and column it
        carries."""
        if self._packed is not None:
            return self._packed
        n = len(self)
        if n == 0:
            return _BLOCK_HEADER.pack(_BLOCK_MAGIC, _FLOAT64, 0, 0, 0, 0)
        sections = _column_sections(self.values)
        header = _BLOCK_HEADER.pack(
            _BLOCK_MAGIC, _value_tag(self.values), len(self.space), n,
            len(self.runs), sum(map(len, sections)),
        )
        shape = np.asarray(self.space, dtype="<i8").tobytes()
        return b"".join((header, shape, self.runs.astype("<i8").tobytes(), *sections))

    @classmethod
    def from_bytes(cls, data: bytes | bytearray | memoryview) -> "ResultBlock":
        """The block :meth:`to_bytes` wrote.  Its arrays are read-only
        views of ``data`` (no copy); a buffer that is not exactly one
        well-formed block raises :class:`ShuffleError` — its shape and
        runs, and a ragged column's lengths included: none negative,
        summing to its cells."""
        view = memoryview(data)
        if view.nbytes < _BLOCK_HEADER.size:
            raise ShuffleError(
                f"result block truncated: {view.nbytes} bytes, header needs "
                f"{_BLOCK_HEADER.size}"
            )
        magic, tag, rank, n, nruns, column_bytes = _BLOCK_HEADER.unpack_from(view)
        if magic != _BLOCK_MAGIC:
            raise ShuffleError(f"not a result block (magic {magic!r})")
        if tag not in VALUE_TAG_NAMES:
            raise ShuffleError(f"unknown result block value tag {tag}")
        runs_at = _BLOCK_HEADER.size + 8 * rank
        column_at = runs_at + 16 * nruns
        cell_bytes = column_bytes - 8 * n
        if tag == _RAGGED:
            malformed = cell_bytes < 0 or cell_bytes % 8
        else:
            malformed = column_bytes != sum(_section_sizes(tag, n, column_bytes))
        if malformed:
            raise ShuffleError(
                f"result block holds {column_bytes} value bytes for {n} rows "
                f"of value tag {tag}"
            )
        if view.nbytes != column_at + column_bytes:
            raise ShuffleError(
                f"result block is {view.nbytes} bytes, its header says "
                f"{column_at + column_bytes}"
            )
        space = tuple(_read_only_view(view, "<i8", rank, _BLOCK_HEADER.size).tolist())
        runs = _read_only_view(view, "<i8", 2 * nruns, runs_at).reshape(nruns, 2)
        if (
            (n and not space) or min(space, default=1) < 1
            or keys_in_runs(runs, space) is None
        ):
            raise ShuffleError(
                f"result block runs for {n} rows are not increasing keys of "
                f"shape {space}"
            )
        if tag in (_FLOAT64, _INT64):
            values = _read_only_view(
                view, "<f8" if tag == _FLOAT64 else "<i8", n, column_at
            )
        elif tag == _RAGGED:
            lengths = _read_only_view(view, "<i8", n, column_at)
            cells = cell_bytes // 8
            # Each length in [0, cells]: their int64 sum cannot wrap
            # round to ``cells`` in any buffer this process could hold.
            if n and (int(lengths.min()) < 0 or int(lengths.max()) > cells):
                raise ShuffleError(
                    f"ragged row length outside [0, {cells}] in a result block"
                )
            values = Ragged(
                _read_only_view(view, "<f8", cells, column_at + 8 * n), lengths
            )
        else:
            flags = _read_only_view(view, "u1", n, column_at + 8 * n)
            if n and int(flags.max()) > 1:
                raise ShuffleError("range_exceeds flag that is not 0 or 1")
            values = ExceedsColumn(
                flags.view(np.bool_), _read_only_view(view, "<f8", n, column_at)
            )
        return cls(space, runs, values)

    def packed(self) -> "ResultBlock":
        """This block rebuilt over its own byte form: arrays that are
        read-only views of one ``bytes`` the block owns — nothing of the
        engine's buffers stays referenced — and a :meth:`to_bytes` that
        returns that buffer as is.  A block that is packed already is
        returned as it is."""
        if self._packed is not None:
            return self
        return ResultBlock.from_packed(self.to_bytes())

    @classmethod
    def from_packed(cls, data: bytes) -> "ResultBlock":
        """:meth:`from_bytes` over the buffer of a :meth:`packed` block
        (an engine process's result): its :meth:`to_bytes` is ``data``
        itself, so what is served is what was hashed, never a
        re-encoding."""
        block = cls.from_bytes(data)
        block._packed = data
        return block

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, index: Any) -> Any:
        if isinstance(index, slice):
            runs = index_runs(self.key_index[index])
            return ResultBlock(self.space, runs, self.values[index])
        i = range(len(self))[index]
        # The run row i falls in, and its index there.
        ends = np.cumsum(self.runs[:, 1] - self.runs[:, 0])
        r = ends.searchsorted(i, side="right")
        key = np.unravel_index(self.runs[r, 1] - (ends[r] - i), self.space)
        return tuple(map(int, key)), self.values[i:i + 1].tolist()[0]

    def __iter__(self) -> Iterator[KeyValue]:
        return iter(self.canonical_records())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence) or isinstance(other, (str, bytes)):
            return NotImplemented
        return self.canonical_records() == list(other)

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"ResultBlock({len(self)} records, {len(self.runs)} runs, {self.space})"


def _end_to_end(parts: list[tuple[Any, ...]]) -> tuple[Any, ...]:
    """``(runs, state columns, counts)`` parts laid end to end; one part
    as it is, uncopied."""
    if len(parts) == 1:
        return parts[0]
    runs, states, counts = zip(*parts)
    cols = tuple([np.concatenate(c) for c in zip(*states)])
    return np.concatenate(runs), cols, np.concatenate(counts)


def _run_rows(runs: np.ndarray, order: np.ndarray) -> np.ndarray:
    """The rows of ``runs[order]``, run by run, where row ``i`` of a run
    table is the ``i``-th key its runs cover."""
    lengths = runs[:, 1] - runs[:, 0]
    ends = np.cumsum(lengths)
    return expand_runs(np.stack((ends - lengths, ends), axis=1)[order])


def _key_order(
    bop: BatchOperator,
    runs: np.ndarray,
    cols: tuple[np.ndarray, ...],
    counts: np.ndarray,
) -> tuple[np.ndarray, tuple[np.ndarray, ...], np.ndarray, np.ndarray | None]:
    """Rows in key order, each key once.  ``runs``, run tables laid end
    to end (row ``i`` is the ``i``-th key they cover), come back
    increasing, disjoint and maximal, ``cols`` and ``counts`` in their
    order, with where each combined group of rows began (``None`` when
    no key repeats).  Runs in order are used as they are; disjoint runs
    out of order are sorted by start and their rows gathered run by
    run.  Only overlapping runs are expanded to keys, stably sorted
    (ties keep input order, as ``heapq.merge`` does) and combined, one
    segmented fold per state column."""
    starts = None
    if runs.shape[0] > 1 and (runs[1:, 0] < runs[:-1, 1]).any():
        order = runs[:, 0].argsort(kind="stable")
        if (runs[order[1:], 0] >= runs[order[:-1], 1]).all():
            rows = _run_rows(runs, order)
            runs = runs[order]
        else:
            keys = expand_runs(runs)
            rows = keys.argsort(kind="stable")
            keys, starts = np.unique(keys[rows], return_index=True)
            runs = index_runs(keys)
        cols = tuple([c[rows] for c in cols])
        counts = counts[rows]
        if starts is not None:
            cols = bop.combine_columns(cols, starts)
            counts = np.add.reduceat(counts, starts)
    return _joined_runs(runs), cols, counts, starts


def run_columnar_map(
    job: Any,
    split_index: int,
    store: ShuffleStore,
    counters: Counters,
    obs: JobObservability,
    task: tuple[str, int, int] | None,
    *,
    attempt: int = 0,
    corrupt: bool = False,
    cancel: Any | None = None,
) -> None:
    """Columnar map-task body (reader → batch partials → cut spill runs).

    Every reader item is a :class:`ChunkBatch`.  The map lays its
    batches' run tables end to end and puts them in key order, combining
    only where runs overlap (:func:`_key_order`), so every spill holds
    each key once, in order.  The partitioner cuts the runs
    (``Partitioner.partition_runs``); runs whose partitions do not
    arrive in order are gathered by partition, and each partition's
    rows are one slice.  A partition id outside ``[0, num_partitions)``
    is a :class:`ShuffleError` before any row is spilled.  Counter
    semantics match the record plane record for record;
    ``plane.batched.instances`` additionally counts the instances
    mapped as batch rows — all of them, so it equals
    ``map.input.records``.  Under ``corrupt`` (an injected torn spill)
    each spill's run table is reversed, and the spill's rejection is
    re-raised as the :class:`InjectedFaultError` it was.
    """
    bop: BatchOperator = job.batch_operator
    n = job.num_reduce_tasks
    reader = job.reader_factory(job.splits[split_index])
    batches: list[tuple[np.ndarray, tuple[np.ndarray, ...], np.ndarray]] = []
    space: tuple[int, ...] = ()
    records_in = 0
    masked = 0
    # The attempt's tallies, added in one update, failed or not, as far
    # as it got.
    tally: dict[str, int] = {}
    try:
        with obs.phase("map.read", task) as read:
            for item in reader:
                # Batch-granular cancellation/liveness checkpoint:
                # batches are big, so the per-item cost is noise while a
                # cancelled attempt still exits within one batch.
                if cancel is not None:
                    cancel.check()
                values = item.values
                rows = values.shape[0]
                if rows == 0:
                    continue
                records_in += rows
                space = item.space
                cols = bop.map_batch(values)
                masked += bop.masked_cells(values, cols)
                counts = np.full(rows, values.shape[1], dtype=np.int64)
                batches.append((item.runs, cols, counts))
            read["records"] = records_in
        tally["map.input.records"] = records_in
        tally["map.output.records"] = records_in
        tally["plane.batched.instances"] = records_in
        if masked:
            tally["pushdown.rows.masked"] = masked

        with obs.phase("map.spill", task):
            files: list[ColumnarMapOutput] = []
            if records_in:
                runs, cols, counts = _end_to_end(batches)
                if runs.shape[0] > 1:
                    runs, cols, counts, _ = _key_order(bop, runs, cols, counts)
                tally["combine.input.records"] = records_in
                tally["combine.output.records"] = counts.shape[0]
                runs, parts = job.partitioner.partition_runs(runs, space, n)
                if parts.shape[0] > 1 and (parts[1:] < parts[:-1]).any():
                    order = parts.argsort(kind="stable")
                    take = _run_rows(runs, order)
                    runs, parts, counts = runs[order], parts[order], counts[take]
                    cols = tuple([c[take] for c in cols])
                # bounds[p]: the first run of partition p or above.
                bounds = parts.searchsorted(np.arange(n + 1))
                if bounds[0] or bounds[-1] != runs.shape[0]:
                    raise ShuffleError(
                        f"partitioner returned out-of-range partition for "
                        f"{n} reduce tasks"
                    )
                bounds = bounds.tolist()
                # rows_at[r]: the first row of run r.
                rows_at = [0, *np.add.accumulate(runs[:, 1] - runs[:, 0]).tolist()]
                map_id = MapTaskId(split_index)
                for p in range(n):
                    a, b = bounds[p], bounds[p + 1]
                    if a == b:
                        continue
                    lo, hi = rows_at[a], rows_at[b]
                    pc = counts[lo:hi]
                    # Injected torn spill: the table and each run
                    # reversed fails ColumnarMapOutput's check.
                    pr = runs[a:b][::-1, ::-1] if corrupt else runs[a:b]
                    try:
                        files.append(ColumnarMapOutput(
                            map_id=map_id,
                            partition=p,
                            runs=pr,
                            space=space,
                            states=tuple([c[lo:hi] for c in cols]),
                            source_counts=pc,
                            source_records=int(pc.sum()),
                        ))
                    except ShuffleError as exc:
                        if not corrupt:
                            raise
                        raise InjectedFaultError(
                            f"injected corrupt-spill fault in map {split_index} "
                            f"(attempt {attempt}): {exc}"
                        ) from exc
            if corrupt:
                # No row to spill, so none to tear; surface the
                # injected corruption directly.
                raise InjectedFaultError(
                    f"injected corrupt-spill fault in map {split_index} "
                    f"(attempt {attempt})"
                )
            if files:
                store.spill(files, attempt=attempt, cancel=cancel)
            else:
                store.spill_empty(
                    MapTaskId(split_index), attempt=attempt, cancel=cancel
                )
        tally["shuffle.segments"] = len(files)
    finally:
        counters.update(tally)


def synthesized_keys(job: Any, partition: int | None) -> np.ndarray | None:
    """Keyblock ``partition``'s keys whose every producer the job's
    SIDR plan pruned (``job.context["sidr_plan"]``), as an ``(R, 2)``
    table of ``[start, stop)`` row-major runs in K'_T, or ``None``."""
    pruning = getattr(getattr(job, "context", {}).get("sidr_plan"), "pruning", None)
    return None if pruning is None else pruning.synth_keys.get(partition)


def run_columnar_reduce(
    job: Any,
    files: list[Any],
    counters: Counters,
    obs: JobObservability,
    task: tuple[str, int, int] | None,
    *,
    cancel: Any | None = None,
) -> ResultBlock:
    """Columnar reduce-task body (concatenate → order → finalize).

    ``files`` are the partition's (``task``'s) fetched columnar spill
    files in map order; the fetch itself chooses the body.  When their
    run tables, laid end to end, increase across every seam (one
    comparison of run bounds), each key arrives once and already in
    order: the body is *concatenate → finalize*, the block's runs are
    the fetched runs joined, and it counts ``reduce.planned``.  The
    keyblock's synthesized runs enter ahead of the fetch, as the
    operator's map of zero cells, and are placed among the fetched runs
    by sorting the run starts (:func:`_key_order`); a keyblock fetching
    nothing is its synthesized runs.  Any other fetch, and one that
    fetched a synthesized key, is put in key order and combined where
    keys repeat; that counts ``reduce.generic``.  Both give the same
    block.  Nothing here runs once per key, so the
    cancellation/liveness checkpoint is task-granular, like the map
    side's per-batch one.
    """
    bop: BatchOperator = job.batch_operator
    partition = task[1] if task else files[0].partition if files else None
    synth = synthesized_keys(job, partition)
    sizes: np.ndarray | None = None
    tally: dict[str, int] = {}
    try:
        with obs.phase("reduce.reduce", task):
            if cancel is not None:
                cancel.check()
            parts = [(f.runs, f.states, f.source_counts) for f in files]
            k = 0  # runs ahead of the fetch: the synthesized ones
            if synth is not None:
                k, n = synth.shape[0], int(np.add.reduce(synth[:, 1] - synth[:, 0]))
                zero = (bop.map_batch(np.empty((n, 0))), np.zeros(n, dtype=np.int64))
                parts = [(synth, *zero), *parts]
            runs, cols, count = _end_to_end(parts) if parts else (None, (), np.empty(0))
            if count.shape[0]:
                space = (
                    files[0].space if files
                    else job.context["sidr_plan"].partition.space
                )
                # The fetch's own seams choose the body.
                ordered = runs.shape[0] - k < 2 or bool(
                    (runs[k + 1:, 0] >= runs[k:-1, 1]).all()
                )
                if ordered and (synth is None or not files):
                    runs = _joined_runs(runs)
                else:
                    rows = count.shape[0]
                    runs, cols, count, starts = _key_order(bop, runs, cols, count)
                    if starts is not None:  # a key repeated
                        ordered, sizes = False, np.diff(np.append(starts, rows))
                tally["reduce.planned" if ordered else "reduce.generic"] = 1
                block = ResultBlock(space, runs, bop.finalize_columns(cols, count))
            else:
                block = ResultBlock.empty()
        groups = len(block)
        tally["reduce.input.groups"] = groups
        tally["reduce.input.records"] = sum([f.source_counts.shape[0] for f in files])
        tally["reduce.output.records"] = groups
    finally:
        counters.update(tally)
    if obs.enabled and groups:
        if sizes is None:  # no key repeated: one row per group
            sizes = np.ones(groups, dtype=np.int64)
        obs.metrics.histogram("reduce.group.size", COUNT_BUCKETS).observe_many(
            sizes
        )
    return block
