"""Columnar data plane: batched map/shuffle/reduce over parallel arrays.

The record plane moves one Python object per intermediate record through
reader → mapper → sort → spill → merge → group → reduce.  For structural
queries that is pure interpretation overhead: SIDR's deterministic K→K'
translation means every record in a batch obeys the same arithmetic, so
the whole data plane can run as numpy array operations instead.  This
module is the engine half of that plane:

* :class:`ChunkBatch` — the one item type a columnar record reader
  emits: ``(n, rank)`` int64 keys plus an ``(n, cells)`` value block,
  one row per extraction-shape instance piece present in this split's
  slab (``n`` is 1 for pieces whose geometry is their own).
* :class:`Ragged` — a state column whose rows differ in length: flat
  float64 values plus per-row lengths, which every stage below slices,
  permutes and concatenates like a numeric column.
* :class:`ColumnarMapOutput` — the spill-file variant whose records live
  as parallel arrays: lexsorted keys, one array per operator state
  column, and the per-row §3.2.1 source counts.  It is duck-compatible
  with :class:`~repro.mapreduce.shuffle.MapOutputFile` (``map_id`` /
  ``partition`` / ``num_records`` / ``source_records``), so the
  attempt-aware :class:`~repro.mapreduce.shuffle.ShuffleStore` —
  supersede-on-respill, consume-on-fetch, missing-input tracking — works
  unchanged in both planes.
* :class:`ResultBlock` — what a columnar reduce returns: one
  keyblock's finalized output as lexsorted ``(n, rank)`` int64 keys plus
  a value column.  It is a read-only ``Sequence`` of ``(key, value)``
  records, so every consumer of a reduce's record list keeps working,
  but records exist as Python objects only once somebody indexes or
  iterates; the service, the verifier and the dense output writer read
  the arrays.
* :class:`SpillLayout` / :func:`spill_layout` — where a map's rows go:
  one ``partition_many``, one stable ``np.lexsort`` by (partition, key),
  and each partition's cut, group starts and keys.  It depends on the
  keys alone, so a planned split computes it once and keeps it
  (:func:`repro.query.columnar.map_geometry`).
* :func:`run_columnar_map` / :func:`run_columnar_reduce` — the task
  bodies the engine dispatches to when the job carries a
  ``JobConf.batch_operator``.  A map permutes its state columns by the
  layout (if at all) and slices them at its cuts; same-key merging is a
  segmented fold instead of ``group_sorted``'s per-record loop.

The operator arithmetic itself lives behind the :class:`BatchOperator`
protocol (implemented for every operator in :mod:`repro.query.columnar`),
keeping this package independent of the query layer.  The plane stands
on its own: no item, operator or instance takes a per-record side path.
Outputs are byte-identical to the record plane: the segmented fold
applies the same left-to-right combine order as the scalar combine
implementations, and finalization is one array expression per operator
that rounds as the scalar one does.
"""

from __future__ import annotations

import json
import struct
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, ClassVar, Protocol

import numpy as np

from repro.errors import InjectedFaultError, ShuffleError
from repro.mapreduce.counters import Counters
from repro.mapreduce.shuffle import (
    SPILL_CHECKS_ENABLED,
    ShuffleStore,
    payload_nbytes,
)
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
    ) -> np.ndarray | list:
        """Reduce-side finalization of every combined state row at once:
        a numeric array, or a list of plain Python values (lists, dicts)
        for operators whose output is not a scalar."""
        ...


@dataclass(frozen=True)
class ChunkBatch:
    """A batch of whole extraction-shape instances from one split slab.

    ``keys[i]`` is the K' coordinate of instance ``i``; ``values[i]`` is
    its cells flattened in C order — the same order the record plane's
    per-instance slice-and-flatten produces.  All rows carry the same
    cell count, so the §3.2.1 source count per row is ``values.shape[1]``.
    """

    keys: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        keys = np.asarray(self.keys, dtype=np.int64)
        values = np.asarray(self.values)
        if keys.ndim != 2:
            raise ShuffleError(f"batch keys must be (n, rank), got {keys.shape}")
        if values.ndim != 2:
            raise ShuffleError(f"batch values must be (n, cells), got {values.shape}")
        if keys.shape[0] != values.shape[0]:
            raise ShuffleError(
                f"batch key/value row mismatch: {keys.shape[0]} != {values.shape[0]}"
            )
        object.__setattr__(self, "keys", keys)
        object.__setattr__(self, "values", values)

    @property
    def num_instances(self) -> int:
        return self.keys.shape[0]

    @property
    def cells_per_instance(self) -> int:
        return self.values.shape[1]


def lexsorted_rows(keys: np.ndarray, *, strict: bool = False) -> bool:
    """True when the rows of an ``(n, rank)`` array are in non-descending
    lexicographic order — the vectorized counterpart of the record
    plane's adjacent-pair key scan; ``strict``: increasing, no row
    repeated."""
    if keys.shape[0] < 2:
        return True
    a, b = keys[:-1], keys[1:]
    neq = a != b
    rows = np.flatnonzero(neq.any(axis=1))
    if strict and rows.size < a.shape[0]:
        return False
    if rows.size == 0:
        return True
    first = neq[rows].argmax(axis=1)
    return bool((b[rows, first] >= a[rows, first]).all())


def group_starts(keys: np.ndarray) -> np.ndarray:
    """Start offsets of each equal-key run in a lexsorted key array."""
    n = keys.shape[0]
    if n == 0:
        return np.empty(0, dtype=np.int64)
    change = np.any(keys[1:] != keys[:-1], axis=1)
    return np.flatnonzero(np.concatenate(([True], change))).astype(np.int64)


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


class Ragged:
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
    than an object array.
    """

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

    def __array_function__(self, func, types, args, kwargs):
        # ``np.concatenate`` of ragged columns is their rows end to end,
        # so the engine concatenates a column the same way whatever it
        # holds; every other numpy function refuses one.
        if func is not np.concatenate or kwargs or not all(
            issubclass(t, Ragged) for t in types
        ):
            return NotImplemented
        parts = args[0]
        return Ragged(
            np.concatenate([p.values for p in parts]),
            np.concatenate([p.lengths for p in parts]),
        )

    def __array__(self, *args: Any, **kwargs: Any) -> np.ndarray:
        raise TypeError(
            "a Ragged column is not an array: read .values and .lengths"
        )

    def __repr__(self) -> str:
        return f"Ragged({len(self)} rows, {self.values.size} cells)"


@dataclass(frozen=True)
class SpillRun:
    """One partition's rows, ``[start, end)`` of a map's spill order."""

    partition: int
    start: int
    end: int
    #: Offsets into the run where each equal-key group begins; ``None``
    #: when no key repeats, so a combine has nothing to fold.
    starts: np.ndarray | None
    #: The run's distinct keys in order: a view of
    #: :attr:`SpillLayout.keys` when no key repeats.
    keys: np.ndarray


@dataclass(frozen=True)
class SpillLayout:
    """Where a map task's rows go: a pure function of their keys, the
    partitioner and the reduce count (:func:`spill_layout`).

    The spill sorts rows stably by ``(partition, key)`` — ``order``,
    ``None`` when they arrive in that order — and cuts the sorted rows
    into one :class:`SpillRun` per partition that receives any.  Every
    array is read-only: a layout may be shared by every run of a plan.
    """

    partitioner: Any
    num_partitions: int
    order: np.ndarray | None
    #: The rows' keys in spill order.
    keys: np.ndarray
    runs: tuple[SpillRun, ...]

    def fits(self, partitioner: Any, num_partitions: int) -> bool:
        """Was this layout cut for ``partitioner`` and this many reduces?"""
        return (
            partitioner is self.partitioner
            and num_partitions == self.num_partitions
        )

    @property
    def nbytes(self) -> int:
        """Bytes of the arrays this layout owns (views excluded)."""
        arrays = [self.order, self.keys]
        for run in self.runs:
            arrays += [run.starts, run.keys]
        return sum(a.nbytes for a in arrays if a is not None and a.base is None)

    def check_sorted(self) -> None:
        """Validate every run's lexsort invariant once, where the layout
        is made: a spill whose keys are a run's own array is then not
        rescanned (:class:`ColumnarMapOutput`)."""
        for run in self.runs:
            if not lexsorted_rows(run.keys, strict=True):
                raise ShuffleError(f"spill layout run {run.partition} not sorted")


def spill_layout(
    keys: np.ndarray, partitioner: Any, num_partitions: int
) -> SpillLayout:
    """The :class:`SpillLayout` of map rows keyed ``keys`` (``(n, rank)``
    int64, in reader order): one ``partition_many``, one stable
    ``lexsort`` by ``(partition, key)``, and per partition its cut,
    group starts and distinct keys.  A partition id outside
    ``[0, num_partitions)`` is a :class:`ShuffleError` here, before
    any row is spilled."""
    n = keys.shape[0]
    parts = partitioner.partition_many(keys, num_partitions)
    if n and (int(parts.min()) < 0 or int(parts.max()) >= num_partitions):
        raise ShuffleError(
            f"partitioner returned out-of-range partition for "
            f"{num_partitions} reduce tasks"
        )
    order: np.ndarray | None = np.lexsort(np.vstack([keys.T[::-1], parts]))
    if (order == np.arange(n)).all():
        # Shared with the caller, never written through.
        order, keys = None, _read_only(keys.view())
    else:
        keys, parts = _read_only(keys[order]), parts[order]
        _read_only(order)
    cuts = np.flatnonzero(parts[1:] != parts[:-1]) + 1
    bounds = [0, *cuts.tolist(), n] if n else []
    runs = []
    for start, end in zip(bounds, bounds[1:]):
        run_keys = keys[start:end]
        starts: np.ndarray | None = group_starts(run_keys)
        if len(starts) == end - start:
            starts = None
        else:
            run_keys = _read_only(run_keys[starts])
            _read_only(starts)
        runs.append(
            SpillRun(int(parts[start]), start, end, starts, run_keys)
        )
    return SpillLayout(partitioner, num_partitions, order, keys, tuple(runs))


@dataclass(frozen=True)
class ReducePlan:
    """One keyblock's reduce, when its plan fixes it: the maps that feed
    it in map order, the run each spills to it, and the keyblock's key
    grid — those runs laid end to end, its synthesized keys among them
    (:func:`reduce_plan`).

    A reduce whose fetched files are exactly these runs (same maps, in
    order, each file's keys the run's own array) has nothing to merge:
    every key comes from one map, in key order already, so its output is
    ``finalize`` of the state columns laid end to end (a synthesized
    key's row empty), on :attr:`keys`.
    """

    map_ids: tuple[int, ...]
    #: Each map's run keys, the arrays its spill files carry.
    runs: tuple[np.ndarray, ...]
    #: ``(n, rank)`` int64, strictly increasing, read-only.
    keys: np.ndarray
    #: Where the runs' rows, end to end, land in :attr:`keys`
    #: (increasing, read-only); ``None`` when they tile it.
    rows: np.ndarray | None = None

    def matches(self, files: Sequence[Any]) -> bool:
        """Are ``files`` (one partition's fetch, in map order) this
        plan's runs?"""
        return len(files) == len(self.runs) and all(
            f.map_id.index == m and f.keys is keys
            for f, m, keys in zip(files, self.map_ids, self.runs)
        )


def reduce_plan(
    runs: Sequence[tuple[int, SpillRun]], synthesized: np.ndarray | None = None
) -> ReducePlan | None:
    """The :class:`ReducePlan` of a keyblock fed by ``runs`` —
    ``(map id, run)`` pairs in map order — that also owns the lexsorted
    ``synthesized`` keys; ``None`` when a key repeats, within a run or
    across maps, and the reduce must merge."""
    fed = tuple(run.keys for _, run in runs)
    parts = fed if synthesized is None else (*fed, synthesized)
    if not parts or any(run.starts is not None for _, run in runs):
        return None
    keys, rows = np.concatenate(parts), None
    if synthesized is not None:
        order = np.lexsort(keys.T[::-1])
        keys = keys[order]
        rows = _read_only(np.argsort(order)[: len(keys) - len(synthesized)])
        if (np.diff(rows) <= 0).any():  # the runs are not in key order
            return None
    if not lexsorted_rows(keys, strict=True):
        return None
    return ReducePlan(tuple(m for m, _ in runs), fed, _read_only(keys), rows)


@dataclass(frozen=True)
class ColumnarMapOutput:
    """Sorted columnar run for one (map task, keyblock).

    The same contract as :class:`~repro.mapreduce.shuffle.MapOutputFile`
    — key-sorted records plus the §3.2.1 ``source_records`` annotation —
    with records decomposed into parallel arrays: ``keys`` (lexsorted
    ``(n, rank)`` int64), ``states`` (one array of length ``n`` per
    operator state column), ``source_counts`` (``(n,)`` int64).
    ``approx_serialized_bytes`` reads the buffers' ``nbytes`` instead of
    walking Python objects (a :class:`Ragged` column's are its cells').
    """

    map_id: MapTaskId
    partition: int
    keys: np.ndarray
    states: tuple[np.ndarray, ...] = field(repr=False)
    source_counts: np.ndarray = field(repr=False)
    source_records: int = 0
    #: Keys already proven sorted where they were made: not rescanned.
    _checked: ClassVar[bool] = False

    def __post_init__(self) -> None:
        if self.partition < 0:
            raise ShuffleError(f"negative partition {self.partition}")
        if self.source_records < 0:
            raise ShuffleError("negative source record count")
        keys = self.keys
        # An int64 array stays the object it is: a planned run's keys
        # are matched by identity (:meth:`ReducePlan.matches`), and
        # ``asarray`` re-views an unpickled plan's arrays, whose dtype
        # is an equal but distinct instance.
        if not (isinstance(keys, np.ndarray) and keys.dtype == np.int64):
            keys = np.asarray(keys, dtype=np.int64)
        if keys.ndim != 2:
            raise ShuffleError(f"columnar keys must be (n, rank), got {keys.shape}")
        counts = np.asarray(self.source_counts, dtype=np.int64)
        n = keys.shape[0]
        if counts.shape != (n,):
            raise ShuffleError(
                f"source_counts shape {counts.shape} != ({n},)"
            )
        for col in self.states:
            if len(col) != n:
                raise ShuffleError("state column length mismatch")
        object.__setattr__(self, "keys", keys)
        object.__setattr__(self, "source_counts", counts)
        if SPILL_CHECKS_ENABLED and not self._checked:
            self.check_sorted()

    def check_sorted(self) -> None:
        """Validate the lexsort invariant (same gate as MapOutputFile)."""
        if not lexsorted_rows(self.keys):
            raise ShuffleError(
                f"map output file {self.map_id}/{self.partition} not sorted"
            )

    @property
    def num_records(self) -> int:
        return self.keys.shape[0]

    @cached_property
    def approx_serialized_bytes(self) -> int:
        """Wire-size estimate: the parallel buffers are the payload,
        and a ragged state column's is its rows' cells — the record
        plane's estimate of the same records."""
        return (
            self.keys.nbytes
            + sum(map(payload_nbytes, self.states))
            + self.source_counts.nbytes
        )


class _PlannedRunOutput(ColumnarMapOutput):
    """A spill whose keys are a planned :class:`SpillRun`'s own array:
    checked once, when its layout was made
    (:meth:`SpillLayout.check_sorted`), not once per spill."""

    _checked = True


#: :meth:`ResultBlock.to_bytes` header, little-endian: magic, value tag,
#: pad byte, key rank, row count, byte length of the value column.
_BLOCK_HEADER = struct.Struct("<4sBxHQQ")
_BLOCK_MAGIC = b"RBK1"
#: Value tags: the column is ``n`` float64, or the JSON of a list.
_FLOAT64, _JSON = 0, 1


class ResultBlock(Sequence):
    """One keyblock's finalized reduce output as parallel columns.

    ``key_rows`` is an ``(n, rank)`` int64 array in lexicographic order
    (not named ``keys``: ``dict(block)`` would take the block for a
    mapping); ``values`` holds row ``i``'s output — a numeric array for
    scalar operators, a list of plain Python values (``filter_gt``'s
    lists, ``range_exceeds``' dicts) otherwise.  As a ``Sequence`` it
    reads as the ``[(key_tuple, value), ...]`` list a reduce used to
    return; those records are materialized on access, never stored.

    The columns are in canonical form by construction: ``tolist()``
    turns numeric arrays into plain ints/floats, and list-valued columns
    are built from ``tolist()`` output by ``finalize_columns``.  So
    :meth:`canonical_records` is two ``tolist()`` calls, not a walk over
    every value; the verify fuzzer holds it against the generic walk on
    every case.

    :meth:`to_bytes` / :meth:`from_bytes` are the block's one byte form
    (``docs/SERVICE.md``, "Wire format"): equal canonical records give
    equal bytes, whichever plane or operator produced the columns, and
    the SHA-256 of those bytes is the result's digest
    (:func:`repro.verify.oracle.records_digest`).
    """

    __slots__ = ("key_rows", "_values", "_packed")

    def __init__(self, keys: np.ndarray, values: np.ndarray | list) -> None:
        keys = np.asarray(keys, dtype=np.int64)
        if keys.ndim != 2:
            raise ShuffleError(f"result keys must be (n, rank), got {keys.shape}")
        if len(values) != keys.shape[0]:
            raise ShuffleError(
                f"result key/value row mismatch: {keys.shape[0]} != {len(values)}"
            )
        self.key_rows = keys
        self._values: np.ndarray | list | None = values
        #: The bytes this block's arrays view, when :meth:`packed` built it.
        self._packed: bytes | None = None

    @property
    def values(self) -> np.ndarray | list:
        if self._values is None:
            # A JSON column :meth:`from_packed` left in its bytes.
            assert self._packed is not None
            n, rank = self.key_rows.shape
            self._values = json.loads(self._packed[_BLOCK_HEADER.size + n * rank * 8:])
        return self._values

    @classmethod
    def empty(cls) -> "ResultBlock":
        return cls(np.empty((0, 0), dtype=np.int64), np.empty(0))

    @classmethod
    def from_records(cls, records: Iterable[KeyValue]) -> "ResultBlock":
        """Block holding ``records``, their values kept as given.  Keys
        that are not integer coordinate tuples of one rank raise: a
        cast would make ``(1.5,)``, ``1`` and ``(1,)`` the same row."""
        records = list(records)
        if not records:
            return cls.empty()
        try:
            keys = np.asarray([key for key, _ in records])
        except ValueError:  # ragged: numpy refuses mixed ranks
            keys = None
        if keys is None or keys.ndim != 2 or keys.dtype.kind != "i":
            raise ShuffleError(
                "record keys must be integer coordinate tuples of one rank"
            )
        return cls(keys, [v for _, v in records])._in_key_order()

    @classmethod
    def concatenate(cls, blocks: Sequence["ResultBlock"]) -> "ResultBlock":
        """All rows of ``blocks`` in key order: laid end to end, and
        sorted only when that is not already key order.  Each block is
        in key order, so only the seams between blocks are compared.
        Packed float64 blocks in key order are spliced
        (:meth:`_splice`): their bytes are the result's, no array is
        rebuilt."""
        blocks = [b for b in blocks if len(b)]
        if not blocks:
            return cls.empty()
        if len(blocks) == 1:
            return blocks[0]
        seams = all(
            a.key_rows[-1].tolist() <= b.key_rows[0].tolist()
            for a, b in zip(blocks, blocks[1:])
        )
        if seams and all(b._packed is not None for b in blocks):
            spliced = cls._splice(blocks)
            if spliced is not None:
                return spliced
        keys = np.concatenate([b.key_rows for b in blocks])
        if all(isinstance(b.values, np.ndarray) for b in blocks):
            values = np.concatenate([b.values for b in blocks])
        else:
            values = [v for b in blocks for v in b.value_list()]
        block = cls(keys, values)
        return block if seams else block._in_key_order()

    @classmethod
    def _splice(cls, blocks: list["ResultBlock"]) -> "ResultBlock | None":
        """The packed block of ``blocks`` laid end to end — packed
        float64 blocks of one rank, in key order across their seams —
        built from their buffers alone: a header, every block's key
        column, then every block's value column, in one join.  The
        bytes are :meth:`to_bytes` of the concatenated rows (each part's
        NaNs are already the one quiet NaN).  ``None`` for any other
        input (a JSON column, mixed ranks)."""
        rank = blocks[0].key_rows.shape[1]
        if any(
            b._packed[4] != _FLOAT64 or b.key_rows.shape[1] != rank  # value tag
            for b in blocks
        ):
            return None
        n = sum(len(b) for b in blocks)
        views = [memoryview(b._packed) for b in blocks]
        ends = [_BLOCK_HEADER.size + len(b) * rank * 8 for b in blocks]
        return cls.from_packed(b"".join([
            _BLOCK_HEADER.pack(_BLOCK_MAGIC, _FLOAT64, rank, n, n * 8),
            *(view[_BLOCK_HEADER.size:end] for view, end in zip(views, ends)),
            *(view[end:] for view, end in zip(views, ends)),
        ]))

    def _in_key_order(self) -> "ResultBlock":
        if lexsorted_rows(self.key_rows):
            return self
        order = np.lexsort(self.key_rows.T[::-1])
        if isinstance(self.values, np.ndarray):
            values = self.values[order]
        else:
            values = [self.values[i] for i in order.tolist()]
        return ResultBlock(self.key_rows[order], values)

    def value_list(self) -> list:
        """The value column as a list of plain Python values."""
        if isinstance(self.values, np.ndarray):
            return self.values.tolist()
        return self.values

    def canonical_records(self) -> list[KeyValue]:
        """Canonical ``[(key_tuple, value), ...]`` in key order — what
        :func:`repro.verify.oracle.canonicalize_records` computes for a
        record list, without visiting each value."""
        return list(zip(map(tuple, self.key_rows.tolist()), self.value_list()))

    def to_bytes(self) -> bytes:
        """The block's byte form: header, ``key_rows`` as little-endian
        int64 in C order, then the value column — little-endian float64
        when every value is a float (NaNs as the one quiet NaN, since
        every NaN has the same ``repr``), otherwise the compact UTF-8
        JSON of :meth:`value_list`.  An empty block is the bare header,
        whatever rank and dtype its arrays carry."""
        if self._packed is not None:
            return self._packed
        n = len(self)
        if n == 0:
            return _BLOCK_HEADER.pack(_BLOCK_MAGIC, _FLOAT64, 0, 0, 0)
        values = self.values
        if isinstance(values, np.ndarray):
            all_floats = values.dtype.kind == "f"
        else:
            all_floats = all(type(v) is float for v in values)
        if all_floats:
            floats = np.array(values, dtype="<f8")
            floats[np.isnan(floats)] = np.nan
            tag, column = _FLOAT64, floats.tobytes()
        else:
            tag = _JSON
            column = json.dumps(
                self.value_list(), separators=(",", ":")
            ).encode("utf-8")
        header = _BLOCK_HEADER.pack(
            _BLOCK_MAGIC, tag, self.key_rows.shape[1], n, len(column)
        )
        keys = self.key_rows.astype("<i8", copy=False).tobytes()
        return b"".join((header, keys, column))

    @classmethod
    def from_bytes(cls, data: bytes | bytearray | memoryview) -> "ResultBlock":
        """The block :meth:`to_bytes` wrote.  Its arrays are read-only
        views of ``data`` (no copy); a buffer that is not exactly one
        well-formed block raises :class:`ShuffleError`."""
        view = memoryview(data)
        if view.nbytes < _BLOCK_HEADER.size:
            raise ShuffleError(
                f"result block truncated: {view.nbytes} bytes, header needs "
                f"{_BLOCK_HEADER.size}"
            )
        magic, tag, rank, n, column_bytes = _BLOCK_HEADER.unpack_from(view)
        if magic != _BLOCK_MAGIC:
            raise ShuffleError(f"not a result block (magic {magic!r})")
        if tag not in (_FLOAT64, _JSON):
            raise ShuffleError(f"unknown result block value tag {tag}")
        column_at = _BLOCK_HEADER.size + n * rank * 8
        if tag == _FLOAT64 and column_bytes != n * 8:
            raise ShuffleError(
                f"result block holds {column_bytes} value bytes for {n} floats"
            )
        if view.nbytes != column_at + column_bytes:
            raise ShuffleError(
                f"result block is {view.nbytes} bytes, its header says "
                f"{column_at + column_bytes}"
            )
        keys = np.frombuffer(
            view, dtype="<i8", count=n * rank, offset=_BLOCK_HEADER.size
        ).reshape(n, rank)
        if tag == _FLOAT64:
            values = np.frombuffer(view, dtype="<f8", count=n, offset=column_at)
            values.flags.writeable = False
        else:
            try:
                values = json.loads(view[column_at:].tobytes())
            except ValueError as exc:
                raise ShuffleError(
                    f"result block values are not JSON: {exc}"
                ) from exc
            if not isinstance(values, list) or len(values) != n:
                raise ShuffleError(f"result block values are not a list of {n}")
        block = cls(keys, values)
        block.key_rows.flags.writeable = False
        return block

    def packed(self) -> "ResultBlock":
        """This block rebuilt over its own byte form: arrays that are
        read-only views of one ``bytes`` the block owns — nothing of the
        engine's buffers stays referenced — and a :meth:`to_bytes` that
        returns that buffer as is.  A list column written as JSON is kept
        as it is, beside key rows viewing the buffer: it is canonical by
        construction (class docstring), so parsing the JSON back would
        only rebuild an equal list.  A block that is packed already is
        returned as it is."""
        if self._packed is not None:
            return self
        data = self.to_bytes()
        if isinstance(self.values, list) and data[4] == _JSON:  # value tag
            n, rank = self.key_rows.shape
            keys = np.frombuffer(
                data, dtype="<i8", count=n * rank, offset=_BLOCK_HEADER.size
            ).reshape(n, rank)
            block = ResultBlock(keys, self.values)
            block._packed = data
            return block
        return ResultBlock.from_packed(data)

    @classmethod
    def from_packed(cls, data: bytes) -> "ResultBlock":
        """:meth:`from_bytes` over the buffer of a :meth:`packed` block
        (an engine process's result): its :meth:`to_bytes` is ``data``
        itself, so what is served is what was hashed, never a
        re-encoding.  A JSON value column stays in ``data`` until
        :attr:`values` is first read — the binary body never reads it."""
        if data[4] != _JSON:  # value tag
            block = cls.from_bytes(data)
        else:
            _, _, rank, n, _ = _BLOCK_HEADER.unpack_from(data)
            keys = np.frombuffer(
                data, dtype="<i8", count=n * rank, offset=_BLOCK_HEADER.size
            ).reshape(n, rank)
            keys.flags.writeable = False
            block = cls.__new__(cls)
            block.key_rows, block._values = keys, None
        block._packed = data
        return block

    def __len__(self) -> int:
        return self.key_rows.shape[0]

    def __getitem__(self, index: Any) -> Any:
        if isinstance(index, slice):
            return ResultBlock(self.key_rows[index], self.values[index])
        value = self.values[index]
        if isinstance(value, np.generic):
            value = value.item()
        return tuple(self.key_rows[index].tolist()), value

    def __iter__(self) -> Iterator[KeyValue]:
        return iter(self.canonical_records())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence) or isinstance(other, (str, bytes)):
            return NotImplemented
        return self.canonical_records() == list(other)

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"ResultBlock({len(self)} records, keys {self.key_rows.shape})"


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

    Every reader item is a :class:`ChunkBatch`.  Where the rows go is the
    :class:`SpillLayout` of their keys: the reader's own when it carries
    one cut for this job's partitioner (a planned split's geometry,
    :func:`repro.query.columnar.map_geometry`), else
    :func:`spill_layout` of the keys it emitted.  Either way the spill
    permutes the state columns once (if at all), slices them at the
    runs' cuts and combines only where a run's keys repeat.  Counter
    semantics match the record plane record for record;
    ``plane.batched.instances`` additionally counts the instances mapped
    as batch rows — all of them, so it equals ``map.input.records``.
    """
    bop: BatchOperator = job.batch_operator
    n = job.num_reduce_tasks
    reader = job.reader_factory(job.splits[split_index])
    layout: SpillLayout | None = getattr(reader, "layout", None)
    if layout is not None and not layout.fits(job.partitioner, n):
        layout = None
    # A reader's layout was checked where it was made: a spill carrying
    # one of its runs' keys as they are is not rescanned.
    planned = layout is not None
    key_parts: list[np.ndarray] = []
    col_parts: list[tuple[np.ndarray, ...]] = []
    count_parts: list[np.ndarray] = []
    records_in = 0
    masked = 0
    with obs.phase("map.read", task) as read:
        for item in reader:
            # Batch-granular cancellation/liveness checkpoint: batches
            # are big, so the per-item cost is noise while a cancelled
            # attempt still exits within one batch.
            if cancel is not None:
                cancel.check()
            if item.num_instances == 0:
                continue
            records_in += item.num_instances
            key_parts.append(item.keys)
            cols = bop.map_batch(item.values)
            col_parts.append(cols)
            masked += bop.masked_cells(item.values, cols)
            count_parts.append(
                np.full(item.num_instances, item.cells_per_instance, dtype=np.int64)
            )
        read["records"] = records_in
    counters.increment("map.input.records", records_in)
    counters.increment("map.output.records", records_in)
    counters.increment("plane.batched.instances", records_in)
    if masked:
        counters.increment("pushdown.rows.masked", masked)

    with obs.phase("map.spill", task):
        files: list[ColumnarMapOutput] = []
        if records_in:
            cols = tuple(
                np.concatenate([part[i] for part in col_parts])
                for i in range(len(col_parts[0]))
            )
            counts = np.concatenate(count_parts)
            if layout is None:
                layout = spill_layout(
                    np.concatenate(key_parts), job.partitioner, n
                )
            if layout.order is not None:
                cols = tuple(c[layout.order] for c in cols)
                counts = counts[layout.order]
            for run in layout.runs:
                cut = slice(run.start, run.end)
                # No key repeats: the run's keys are its rows' keys.
                pk = layout.keys[cut] if run.starts is not None else run.keys
                pcols = tuple(c[cut] for c in cols)
                pc = counts[cut]
                src = int(pc.sum())
                if job.combiner_factory is not None:
                    counters.increment("combine.input.records", len(pk))
                    if run.starts is not None:
                        pcols = bop.combine_columns(pcols, run.starts)
                        pc = np.add.reduceat(pc, run.starts)
                        pk = run.keys
                    counters.increment("combine.output.records", len(pk))
                checked = planned and pk is run.keys
                if corrupt:
                    # Injected torn spill: reversing the lexsorted run
                    # breaks key order, so ColumnarMapOutput validation
                    # rejects the commit and the attempt fails here.
                    pk = pk[::-1]
                    pcols = tuple(c[::-1] for c in pcols)
                    pc = pc[::-1]
                files.append(
                    (_PlannedRunOutput if checked else ColumnarMapOutput)(
                        map_id=MapTaskId(split_index),
                        partition=run.partition,
                        keys=pk,
                        states=pcols,
                        source_counts=pc,
                        source_records=src,
                    )
                )
        if corrupt:
            # Every run was too uniform for the reversal to break
            # ordering; surface the injected corruption directly.
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
    counters.increment("shuffle.segments", len(files))


def synthesized_keys(job: Any, partition: int | None) -> np.ndarray | None:
    """Keyblock ``partition``'s keys whose every producer the job's
    SIDR plan pruned (``job.context["sidr_plan"]``), or ``None``."""
    pruning = getattr(getattr(job, "context", {}).get("sidr_plan"), "pruning", None)
    return None if pruning is None else pruning.synth_keys.get(partition)


def _planned(job: Any, partition: int | None, files: list[Any]) -> ReducePlan | None:
    """Keyblock ``partition``'s :class:`ReducePlan`, when ``files`` are its runs."""
    lookup = getattr(job, "context", {}).get("reduce_plan")
    if partition is None or lookup is None:
        return None
    plan = lookup(partition)
    return plan if plan is not None and plan.matches(files) else None


def run_columnar_reduce(
    job: Any,
    files: list[Any],
    counters: Counters,
    obs: JobObservability,
    task: tuple[str, int, int] | None,
    *,
    cancel: Any | None = None,
) -> ResultBlock:
    """Columnar reduce-task body (concatenate → lexsort → fold → finalize).

    ``files`` are the partition's (``task``'s) fetched columnar spill
    files in map order.  When they are exactly the runs of the
    keyblock's :class:`ReducePlan` (``job.context["reduce_plan"]``),
    every key arrives once and already in order: the body is
    *concatenate → finalize* on the plan's key grid, a synthesized
    key's row empty, and counts ``reduce.planned``.  Otherwise the
    synthesized keys enter first, as the operator's map of zero cells;
    one stable lexsort over the concatenated key columns replaces the
    heap merge (ties keep input order, matching ``heapq.merge``),
    same-key groups combine with one segmented fold per state column,
    and one ``finalize_columns`` call turns the combined columns into
    the keyblock's output; that counts ``reduce.generic``.  Both give
    the same block.  Nothing here runs once per key, so the
    cancellation/liveness checkpoint is task-granular, like the map
    side's per-batch one.
    """
    bop: BatchOperator = job.batch_operator
    partition = task[1] if task else files[0].partition if files else None
    plan = _planned(job, partition, files)
    inputs = [(f.keys, f.states, f.source_counts) for f in files]
    synth = synthesized_keys(job, partition)
    if synth is not None and (plan is None or not files):
        n = len(synth)
        identity = bop.map_batch(np.empty((n, 0)))
        inputs.insert(0, (synth, identity, np.zeros(n, dtype=np.int64)))
    block = ResultBlock.empty()
    sizes: np.ndarray | None = None
    with obs.phase("reduce.reduce", task):
        if cancel is not None:
            cancel.check()
        if inputs:
            keys, states, counts = zip(*inputs)
            cols = tuple(np.concatenate(list(parts)) for parts in zip(*states))
            count = np.concatenate(counts)
        if plan is not None:
            size = len(plan.keys)
            if plan.rows is not None and files:
                # Ragged lengths and counts scatter; no value moves.
                lengths = np.zeros((len(cols) + 1, size), dtype=np.int64)
                lengths[:, plan.rows] = [c.lengths for c in cols] + [count]
                cols = tuple(Ragged(c.values, ln) for c, ln in zip(cols, lengths))
                count = lengths[-1]
            sizes = np.ones(size, dtype=np.int64)
            block = ResultBlock(plan.keys, bop.finalize_columns(cols, count))
            counters.increment("reduce.planned")
        elif inputs:
            counters.increment("reduce.generic")
            grid = np.concatenate(keys)
            order = np.lexsort(grid.T[::-1])
            grid = grid[order]
            cols = tuple(c[order] for c in cols)
            count = count[order]
            starts = group_starts(grid)
            merged = bop.combine_columns(cols, starts)
            merged_counts = np.add.reduceat(count, starts)
            sizes = np.diff(np.append(starts, grid.shape[0]))
            block = ResultBlock(
                grid[starts], bop.finalize_columns(merged, merged_counts)
            )
    counters.increment("reduce.input.groups", len(block))
    counters.increment("reduce.input.records", sum(len(f.keys) for f in files))
    counters.increment("reduce.output.records", len(block))
    if obs.enabled and sizes is not None and sizes.size:
        obs.metrics.histogram("reduce.group.size", COUNT_BUCKETS).observe_many(
            sizes
        )
    return block
