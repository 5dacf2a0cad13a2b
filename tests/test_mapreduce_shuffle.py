"""Unit tests for the shuffle store and count annotations."""

import pytest

from repro.errors import ShuffleError, TaskCancelledError
from repro.mapreduce.shuffle import MapOutputFile, ShuffleStore
from repro.mapreduce.types import MapTaskId


def mk_file(map_idx, part, records, source=None):
    return MapOutputFile(
        map_id=MapTaskId(map_idx),
        partition=part,
        records=tuple(records),
        source_records=len(records) if source is None else source,
    )


class TestMapOutputFile:
    def test_sorted_required(self):
        with pytest.raises(ShuffleError):
            mk_file(0, 0, [((2,), 1), ((1,), 1)])

    def test_negative_source_rejected(self):
        with pytest.raises(ShuffleError):
            mk_file(0, 0, [((1,), 1)], source=-1)

    def test_negative_partition_rejected(self):
        with pytest.raises(ShuffleError):
            mk_file(0, -1, [])

    def test_annotation_survives_combining(self):
        """A combined file has fewer records than source records — the
        §3.2.1 ambiguity the annotation resolves."""
        f = mk_file(0, 0, [((1,), [10, 20])], source=2)
        assert f.num_records == 1
        assert f.source_records == 2


class TestShuffleStore:
    def test_spill_and_fetch(self):
        store = ShuffleStore()
        store.spill([mk_file(0, 1, [((1,), "a")])])
        got = store.fetch(0, 1)
        assert got.records == (((1,), "a"),)

    def test_double_spill_rejected(self):
        store = ShuffleStore()
        store.spill([mk_file(0, 0, [])])
        with pytest.raises(TaskCancelledError) as ei:
            store.spill([mk_file(0, 1, [])])
        assert ei.value.reason == "superseded"

    def test_mixed_map_spill_rejected(self):
        store = ShuffleStore()
        with pytest.raises(ShuffleError):
            store.spill([mk_file(0, 0, []), mk_file(1, 0, [])])

    def test_fetch_before_completion_rejected(self):
        store = ShuffleStore()
        with pytest.raises(ShuffleError):
            store.fetch(0, 0)

    def test_connection_counting_includes_empty(self):
        """Fetching from a map with no data for you still costs a
        connection — the waste §4.6 quantifies."""
        store = ShuffleStore()
        store.spill([mk_file(0, 0, [((1,), 1)])])
        store.spill_empty(MapTaskId(1))
        store.fetch(0, 0)
        store.fetch(0, 5)   # wrong partition: empty fetch
        store.fetch(1, 0)   # empty map: empty fetch
        assert store.connections == 3
        assert store.empty_fetches == 2

    def test_index_tracks_nonempty_partitions(self):
        store = ShuffleStore()
        store.spill(
            [mk_file(2, 0, [((1,), 1)]), mk_file(2, 3, [])]
        )
        idx = store.index_of(2)
        assert idx.partitions == frozenset({0})
        assert idx.records_per_partition == {0: 1, 3: 0}

    def test_completed_maps(self):
        store = ShuffleStore()
        store.spill_empty(MapTaskId(4))
        assert store.completed_maps() == frozenset({4})

    def test_source_record_tally(self):
        """The reduce-side running tally of §3.2.1 approach 2."""
        store = ShuffleStore()
        store.spill([mk_file(0, 0, [((1,), "x")], source=4)])
        store.spill([mk_file(1, 0, [((1,), "y")], source=3)])
        store.spill([mk_file(2, 1, [((2,), "z")], source=9)])
        assert store.total_source_records(frozenset({0, 1}), 0) == 7
        assert store.total_source_records(None, 0) == 7
        assert store.total_source_records(None, 1) == 9

    def test_tally_requires_completed_maps(self):
        store = ShuffleStore()
        with pytest.raises(ShuffleError):
            store.total_source_records(frozenset({0}), 0)


class TestAttemptAwareStore:
    """Commit windows, attempt-aware fetches, consume-on-fetch
    (no-persist mode)."""

    def test_higher_attempt_supersedes(self):
        store = ShuffleStore()
        store.spill([mk_file(0, 0, [((1,), "old")])])
        store.reopen(0)
        store.spill([mk_file(0, 0, [((1,), "new")])], attempt=1)
        assert store.attempt_of(0) == 1
        assert store.fetch(0, 0).records == (((1,), "new"),)

    def test_supersede_drops_stale_partitions(self):
        """A retry that emits fewer partitions must not leave the old
        attempt's files behind for the missing ones."""
        store = ShuffleStore()
        store.spill([mk_file(0, 0, [((1,), "a")]), mk_file(0, 1, [((2,), "b")])])
        store.reopen(0)
        store.spill([mk_file(0, 0, [((1,), "a2")])], attempt=1)
        assert store.fetch(0, 1) is None  # old partition-1 file is gone

    def test_same_attempt_respill_rejected(self):
        """A closed window refuses every commit, whatever its attempt
        number; a reopened one takes the first, whatever its number."""
        store = ShuffleStore()
        store.spill([mk_file(0, 0, [])], attempt=2)
        for attempt in (2, 1, 3):
            with pytest.raises(TaskCancelledError):
                store.spill([mk_file(0, 0, [])], attempt=attempt)
        assert store.attempt_of(0) == 2
        store.reopen(0)
        store.spill([mk_file(0, 0, [])], attempt=1)
        assert store.attempt_of(0) == 1

    def test_commit_window_numbers(self):
        from repro.obs import EventBus

        bus = EventBus()
        store = ShuffleStore(bus=bus)
        assert store.open_window(0) == 0
        store.spill_empty(MapTaskId(0))
        assert store.open_window(0) is None
        store.reopen(0)
        store.reopen(0)  # reopening an open window starts the next one
        assert store.open_window(0) == 2
        assert store.open_window(1) == 0
        assert [(ev.type, ev.data.get("window")) for ev in bus.events()] == [
            ("spill.commit", None), ("spill.reopen", 1), ("spill.reopen", 2),
        ]

    def test_cancelled_attempt_never_commits(self):
        from repro.spec.cancel import REASON_HANG, CancelToken

        store = ShuffleStore()
        tok = CancelToken()
        tok.cancel(REASON_HANG)
        with pytest.raises(TaskCancelledError) as ei:
            store.spill([mk_file(0, 0, [((1,), "x")])], cancel=tok)
        assert ei.value.reason == REASON_HANG
        assert store.completed_maps() == frozenset()
        assert store.open_window(0) == 0

    def test_consume_on_fetch_when_not_persisted(self):
        store = ShuffleStore(persist=False)
        store.spill([mk_file(0, 0, [((1,), "x")])])
        assert store.fetch(0, 0).records == (((1,), "x"),)
        assert store.missing_inputs(0, frozenset({0})) == frozenset({0})

    def test_persisted_fetch_is_repeatable(self):
        store = ShuffleStore()
        store.spill([mk_file(0, 0, [((1,), "x")])])
        store.fetch(0, 0)
        assert store.fetch(0, 0).records == (((1,), "x"),)
        assert store.missing_inputs(0, frozenset({0})) == frozenset()

    def test_stale_fetch_detected(self):
        from repro.errors import StaleFetchError

        store = ShuffleStore()
        store.spill([mk_file(0, 0, [((1,), "v0")])])
        store.begin_reduce_attempt(0)
        store.fetch(0, 0)
        store.check_fetch_fresh(0)  # fresh so far
        store.reopen(0)
        store.spill([mk_file(0, 0, [((1,), "v1")])], attempt=1)
        with pytest.raises(StaleFetchError):
            store.check_fetch_fresh(0)
        # A new attempt re-fetches the superseded map and is fresh again.
        store.begin_reduce_attempt(0)
        store.fetch(0, 0)
        store.check_fetch_fresh(0)

    def test_missing_inputs_ignores_empty_partitions(self):
        """A map that produced nothing for this partition never needs
        re-execution, consumed or not."""
        store = ShuffleStore(persist=False)
        store.spill([mk_file(0, 1, [((1,), "x")])])  # nothing for part 0
        assert store.missing_inputs(0, frozenset({0})) == frozenset()


def _folded_store():
    """A store publishing onto a bus, and ``m()``: the metrics fold read
    over the bus's record so far, into a fresh registry."""
    from repro.obs import EventBus, MetricsRegistry
    from repro.obs.folds import MetricsFold

    bus = EventBus()

    def m():
        registry = MetricsRegistry()
        fold = MetricsFold(registry)
        for ev in bus.events():
            fold(ev)
        return registry

    return m, ShuffleStore(bus=bus)


class TestSpillMetrics:
    def test_spill_empty_counts_index_file(self):
        """Regression: ``spill_empty`` used to bypass the
        ``shuffle.spill.files`` counter entirely."""
        m, store = _folded_store()
        store.spill_empty(MapTaskId(0))
        assert m().counter("shuffle.spill.files").value == 1
        store.spill([mk_file(1, 0, [((1,), 1)]), mk_file(1, 1, [])])
        assert m().counter("shuffle.spill.files").value == 3

    def test_superseded_spills_counted(self):
        m, store = _folded_store()
        store.spill([mk_file(0, 0, [])])
        store.reopen(0)
        store.spill([mk_file(0, 0, [])], attempt=1)
        assert m().counter("shuffle.spill.superseded").value == 1
