"""Shuffle: map-side spill, reduce-side fetch.

Each map task spills one :class:`MapOutputFile` per keyblock it produced
data for.  Files carry the §3.2.1 (approach 2) annotation: "a field ...
that indicates how many ⟨k,v⟩ are represented by the set of all ⟨k',v'⟩
in that file", letting a reduce task tally source records "without having
to read and parse those files".

The :class:`ShuffleStore` plays the role of the TaskTracker map-output
servers: reduce tasks fetch their keyblock's files from it, and every
fetch from a distinct map task counts as one network connection — the
quantity Table 3 reports.  Stock Hadoop "requires that every Reduce task
contact every completed Map task" (§4.6), even those holding no data for
it; SIDR contacts only the maps in its dependency set.  Both behaviours
are implemented here and selected by the engine.
"""

from __future__ import annotations

import dataclasses
import sys
import threading
from dataclasses import dataclass
from functools import cached_property
from typing import Any

import numpy as np

from repro.errors import ShuffleError, StaleFetchError, TaskCancelledError
from repro.mapreduce.types import KeyValue, MapTaskId
from repro.obs.live.bus import EV_FETCH, EV_SPILL_COMMIT, EV_SPILL_REOPEN
from repro.spec.cancel import REASON_SUPERSEDED, CancelToken


def estimate_serialized_bytes(records: tuple[KeyValue, ...]) -> int:
    """Approximate wire size of a record run, as Hadoop's Writable
    serialization would see it.

    Keys are coordinate tuples (8 bytes per component), numeric values
    are 8 bytes, strings/bytes their length, containers the sum of their
    elements, a dataclass (an operator's ``Partial``) the sum of its
    fields; anything else falls back to ``sys.getsizeof``.  This is an
    *estimate* — the point is that ``shuffle.bytes`` scales with payload
    size rather than merely counting records (which ``shuffle.records``
    reports) — and it is the columnar plane's estimate of the same
    records (:func:`payload_nbytes` sizes both).
    """
    return sum(payload_nbytes(k) + payload_nbytes(v) for k, v in records)


def payload_nbytes(obj: Any) -> int:
    """Payload size of one shuffled value: see
    :func:`estimate_serialized_bytes`."""
    if isinstance(obj, (int, float, bool)) or obj is None:
        return 8
    if isinstance(obj, np.ndarray):
        # Sized before the container branches: the buffer is the wire
        # payload, whatever the shape.
        return int(obj.nbytes)
    if isinstance(obj, (str, bytes)):
        return len(obj)
    if isinstance(obj, (tuple, list, frozenset, set)):
        return sum(map(payload_nbytes, obj))
    if isinstance(obj, dict):
        return sum(payload_nbytes(k) + payload_nbytes(v) for k, v in obj.items())
    if dataclasses.is_dataclass(obj):
        return sum(
            payload_nbytes(getattr(obj, f.name)) for f in dataclasses.fields(obj)
        )
    # numpy scalars; a columnar plane's Ragged state column (its cells)
    nb = getattr(obj, "nbytes", None)
    if isinstance(nb, int):
        return nb
    return sys.getsizeof(obj)


@dataclass(frozen=True)
class MapOutputFile:
    """Sorted run of intermediate records for one (map task, keyblock).

    ``source_records`` is the count annotation: how many *input* (k, v)
    records were consumed to produce these records.  With a combiner the
    record count shrinks but ``source_records`` does not — that is the
    whole point of the annotation (§3.2.1: "the Reduce task does not know
    how many ⟨k,v⟩ were combined to produce a given ⟨k',v'⟩").
    """

    map_id: MapTaskId
    partition: int
    records: tuple[KeyValue, ...]
    source_records: int

    def __post_init__(self) -> None:
        if self.partition < 0:
            raise ShuffleError(f"negative partition {self.partition}")
        if self.source_records < 0:
            raise ShuffleError("negative source record count")
        self.check_sorted()

    def check_sorted(self) -> None:
        """O(n) validation that the record run is key-sorted, run at
        construction: every spill is checked where it is made."""
        keys = [k for k, _ in self.records]
        if any(b < a for a, b in zip(keys, keys[1:])):
            raise ShuffleError(
                f"map output file {self.map_id}/{self.partition} not sorted"
            )

    @property
    def num_records(self) -> int:
        return len(self.records)

    @cached_property
    def approx_serialized_bytes(self) -> int:
        """Estimated wire size of this file (cached; the records tuple
        is immutable so the estimate cannot go stale)."""
        return estimate_serialized_bytes(self.records)


@dataclass
class MapOutputIndex:
    """Per-map summary: which partitions it produced data for.

    This is what SIDR's planner predicts ahead of time; tests compare the
    prediction against this ground truth (the routing-correctness
    invariant).
    """

    map_id: MapTaskId
    partitions: frozenset[int]
    records_per_partition: dict[int, int]
    source_per_partition: dict[int, int]


class ShuffleStore:
    """Thread-safe store of spilled map output, with fetch accounting.

    Given a ``bus`` (:class:`~repro.obs.live.bus.EventBus`), every
    commit publishes ``spill.commit``, every reopen ``spill.reopen`` and
    every fetch ``fetch`` — once, *while the store lock is held*, so the
    event stream linearizes commits, reopens and fetches (the
    ``shuffle.spill.*`` / ``shuffle.fetch.*`` metrics and the verify
    invariants are folds over those events).
    Bus listeners therefore must never call back into the store.

    The store is the one arbiter of which attempt's spill is a map's
    output.  Each map has a **commit window**: it starts open, the first
    accepted commit closes it, and :meth:`reopen` (recovery, before it
    re-executes the map) opens it again.  :meth:`spill` /
    :meth:`spill_empty` accept a commit only while the window is open
    and the committing attempt's own cancel token is not cancelled; any
    other commit is refused as superseded
    (:class:`~repro.errors.TaskCancelledError`, reason
    ``"superseded"``), so at most one attempt commits per window, and a
    commit into a reopened window atomically replaces the previous
    attempt's files.  The store records which attempt every reduce
    fetched from, so the engine can detect a reduce that consumed a
    now-superseded attempt (:meth:`check_fetch_fresh`) and retry it.

    ``persist=False`` models the paper's §6 no-persistence proposal: a
    fetch *consumes* the spill file (map output is streamed, not kept),
    so a reduce that fails after fetching has genuinely lost its input
    and the engine must re-execute the producing maps
    (:meth:`missing_inputs` reports which).
    """

    def __init__(self, *, persist: bool = True, bus: Any | None = None) -> None:
        self._lock = threading.Lock()
        self._bus = bus
        self._files: dict[tuple[int, int], MapOutputFile] = {}
        self._indexes: dict[int, MapOutputIndex] = {}
        self._attempts: dict[int, int] = {}
        #: map index -> reopens so far: the number of its current window.
        self._windows: dict[int, int] = {}
        #: Maps whose current commit window a commit has closed.
        self._closed: set[int] = set()
        #: partition -> {map index: attempt fetched from}
        self._fetched: dict[int, dict[int, int]] = {}
        self._persist = persist
        self._connections = 0
        self._empty_fetches = 0

    # ------------------------------------------------------------------ #
    # Map side
    # ------------------------------------------------------------------ #
    def _commit(
        self,
        map_id: MapTaskId,
        files: list[MapOutputFile],
        attempt: int,
        cancel: CancelToken | None,
    ) -> None:
        if attempt < 0:
            raise ShuffleError(f"negative attempt {attempt}")
        with self._lock:
            # Decided under the lock, so the accepted commit of a window
            # linearizes with every rival's refusal and every fetch.
            if cancel is not None:
                cancel.check()
            if map_id.index in self._closed:
                raise TaskCancelledError(
                    f"map task {map_id} attempt {attempt} superseded: "
                    f"attempt {self._attempts[map_id.index]} already "
                    "committed its window",
                    reason=REASON_SUPERSEDED,
                )
            previous = self._indexes.get(map_id.index)
            if previous is not None:
                # Commit into a reopened window: drop the old attempt's
                # files in the same critical section so no fetch can
                # observe a mix.
                for p in previous.records_per_partition:
                    self._files.pop((map_id.index, p), None)
            # One pass over the files: this runs once per map commit.
            partitions: list[int] = []
            produced: list[int] = []
            records: dict[int, int] = {}
            sources: dict[int, int] = {}
            total = 0
            for f in files:
                p, n = f.partition, f.num_records
                self._files[(map_id.index, p)] = f
                partitions.append(p)
                if n > 0:
                    produced.append(p)
                records[p] = n
                sources[p] = f.source_records
                total += n
            self._indexes[map_id.index] = MapOutputIndex(
                map_id=map_id,
                partitions=frozenset(produced),
                records_per_partition=records,
                source_per_partition=sources,
            )
            self._attempts[map_id.index] = attempt
            self._closed.add(map_id.index)
            if self._bus is not None:
                partitions.sort()
                self._bus.publish(
                    EV_SPILL_COMMIT,
                    kind="map",
                    index=map_id.index,
                    attempt=attempt,
                    partitions=partitions,
                    records=total,
                    superseded=previous is not None,
                )

    def spill(
        self,
        files: list[MapOutputFile],
        *,
        attempt: int = 0,
        cancel: CancelToken | None = None,
    ) -> None:
        """Commit one map task attempt's output atomically (Hadoop
        commits task output atomically, §2.3) — if its window is open
        and ``cancel`` (the attempt's token) is not cancelled."""
        if not files:
            raise ShuffleError("map task must spill at least an index entry")
        map_id = files[0].map_id
        for f in files:
            if f.map_id is not map_id and f.map_id != map_id:
                raise ShuffleError("spill mixes files from different map tasks")
        self._commit(map_id, files, attempt, cancel)

    def spill_empty(
        self,
        map_id: MapTaskId,
        *,
        attempt: int = 0,
        cancel: CancelToken | None = None,
    ) -> None:
        """Record a map task attempt that produced no output at all
        (committed like :meth:`spill`)."""
        self._commit(map_id, [], attempt, cancel)

    def reopen(self, map_index: int) -> None:
        """Open map ``map_index``'s commit window again: its next
        accepted commit supersedes the current one.  Recovery calls this
        before re-executing the map; the committed files keep serving
        fetches until then."""
        with self._lock:
            window = self._windows.get(map_index, 0) + 1
            self._windows[map_index] = window
            self._closed.discard(map_index)
            if self._bus is not None:
                self._bus.publish(
                    EV_SPILL_REOPEN, kind="map", index=map_index, window=window
                )

    def open_window(self, map_index: int) -> int | None:
        """The number of map ``map_index``'s current commit window (0
        until its first :meth:`reopen`), or None once a commit has
        closed it."""
        with self._lock:
            if map_index in self._closed:
                return None
            return self._windows.get(map_index, 0)

    def attempt_of(self, map_index: int) -> int:
        """Currently committed attempt number for a map task."""
        with self._lock:
            try:
                return self._attempts[map_index]
            except KeyError:
                raise ShuffleError(f"map {map_index} has not spilled") from None

    # ------------------------------------------------------------------ #
    # Reduce side
    # ------------------------------------------------------------------ #
    def fetch(self, map_index: int, partition: int) -> MapOutputFile | None:
        """Fetch one map's output for one partition.

        Counts one connection whether or not data exists — contacting a
        map that produced nothing for you is precisely the waste stock
        Hadoop incurs (§4.6).  The attempt served is recorded for
        :meth:`check_fetch_fresh`; without persistence the fetch also
        consumes the file.
        """
        with self._lock:
            if map_index not in self._indexes:
                raise ShuffleError(
                    f"fetch from map {map_index} before it completed"
                )
            self._connections += 1
            f = self._files.get((map_index, partition))
            self._fetched.setdefault(partition, {})[map_index] = (
                self._attempts[map_index]
            )
            empty = f is None or f.num_records == 0
            if empty:
                self._empty_fetches += 1
            elif not self._persist:
                # Streamed shuffle: the map side keeps nothing once the
                # reduce has copied the file (§6 no-persist mode).
                del self._files[(map_index, partition)]
            if self._bus is not None:
                self._bus.publish(
                    EV_FETCH,
                    kind="reduce",
                    index=partition,
                    map=map_index,
                    map_attempt=self._attempts[map_index],
                    empty=empty,
                )
            return f

    def begin_reduce_attempt(self, partition: int) -> None:
        """Forget which attempts ``partition`` fetched from — called by
        the engine at the start of every reduce attempt."""
        with self._lock:
            self._fetched.pop(partition, None)

    def check_fetch_fresh(self, partition: int) -> None:
        """Raise :class:`StaleFetchError` if any map output ``partition``
        fetched this attempt has since been superseded by a retry."""
        with self._lock:
            fetched = self._fetched.get(partition, {})
            stale = sorted(
                m for m, a in fetched.items() if self._attempts.get(m) != a
            )
        if stale:
            raise StaleFetchError(
                f"reduce {partition} consumed superseded output from "
                f"maps {stale}"
            )

    def missing_inputs(
        self, partition: int, map_indexes: frozenset[int]
    ) -> frozenset[int]:
        """Maps among ``map_indexes`` whose output for ``partition`` is
        gone (consumed by a failed reduce attempt) and must re-execute."""
        with self._lock:
            out = set()
            for m in map_indexes:
                idx = self._indexes.get(m)
                if idx is None:
                    out.add(m)
                elif (
                    idx.records_per_partition.get(partition, 0) > 0
                    and (m, partition) not in self._files
                ):
                    out.add(m)
            return frozenset(out)

    def index_of(self, map_index: int) -> MapOutputIndex:
        with self._lock:
            try:
                return self._indexes[map_index]
            except KeyError:
                raise ShuffleError(f"map {map_index} has not spilled") from None

    def completed_maps(self) -> frozenset[int]:
        with self._lock:
            return frozenset(self._indexes)

    # ------------------------------------------------------------------ #
    # Accounting
    # ------------------------------------------------------------------ #
    @property
    def connections(self) -> int:
        with self._lock:
            return self._connections

    @property
    def empty_fetches(self) -> int:
        with self._lock:
            return self._empty_fetches

    def total_source_records(self, map_indexes: frozenset[int] | None, partition: int) -> int:
        """Sum of count annotations destined for ``partition`` across the
        given maps (all completed maps when ``None``) — the reduce-side
        tally of §3.2.1 approach 2."""
        with self._lock:
            maps = self._indexes.keys() if map_indexes is None else map_indexes
            total = 0
            for m in maps:
                idx = self._indexes.get(m)
                if idx is None:
                    raise ShuffleError(f"map {m} has not completed")
                total += idx.source_per_partition.get(partition, 0)
            return total
