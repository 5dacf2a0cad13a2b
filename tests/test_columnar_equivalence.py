"""Oracle equivalence suite for the columnar data plane.

The record plane is the oracle: for every operator, every reader
geometry, and every engine, the columnar plane must produce
**byte-identical** output — not approximately equal.  The cell-level
reference reader is also compared where its accumulation order is
exactly the chunked path's (see the sum note below).

Set ``REPRO_ENGINE_MODE=serial`` or ``=threaded`` to restrict the
engine matrix, as in :mod:`tests.test_fault_tolerance`.
"""

import os

import numpy as np
import pytest

from repro.errors import InjectedFaultError, ShuffleError
from repro.faults import (
    WHEN_AFTER_FETCH,
    FaultKind,
    FaultRule,
    InjectionPlan,
    RecoveryModel,
)
from repro.mapreduce.columnar import run_columnar_map
from repro.mapreduce.counters import Counters
from repro.mapreduce.engine import LocalEngine, RetryPolicy
from repro.mapreduce.shuffle import ShuffleStore
from repro.obs import JobObservability
from repro.query.language import StructuralQuery
from repro.query.operators import (
    CountOp,
    MaxOp,
    MeanOp,
    MedianOp,
    MinOp,
    RangeExceedsOp,
    RangeOp,
    SortOp,
    StdDevOp,
    SumOp,
    ThresholdFilterOp,
)
from repro.query.recordreader import CellRecordReader, CellToChunkMapper
from repro.query.splits import aligned_slice_splits, slice_splits
from repro.scidata.generators import temperature_dataset, windspeed_dataset
from repro.sidr.planner import build_plan, build_sidr_job
from repro.verify.oracle import (
    canonicalize_records,
    oracle_records,
    records_digest,
)

_KNOWN = ("serial", "threaded")
_env = os.environ.get("REPRO_ENGINE_MODE", "")
MODES = (_env,) if _env in _KNOWN else _KNOWN

FAST_RETRY = RetryPolicy(max_attempts=3)

OPERATORS = [
    SumOp(),
    CountOp(),
    MeanOp(),
    MinOp(),
    MaxOp(),
    StdDevOp(),
    RangeOp(),
    RangeExceedsOp(threshold=5.0),
    MedianOp(),
    SortOp(),
    ThresholdFilterOp(threshold=40.0),
]
#: Operators whose chunked-path accumulation is order/dtype-insensitive,
#: so the per-cell reference reader is byte-identical too.  SumOp is the
#: exception: its map_partial reduces the chunk in the *source* dtype
#: (e.g. float32) before widening, while the cell path feeds one
#: float64 chunk per cell — mathematically equal, not bit-equal.
CELL_EXACT = ("count", "min", "max", "median", "sort", "filter_gt")


def run(engine, mode, job, barrier, **kw):
    return engine.run(job, barrier, mode=mode, **kw)


def _plan(field, extraction_shape, op, **query_kw):
    q = StructuralQuery(
        variable=next(iter(field.arrays)),
        extraction_shape=extraction_shape,
        operator=op,
        **query_kw,
    )
    return q.compile(field.metadata)


def _records(plan, data, op, *, data_plane, num_splits=4, reduces=3,
             mode="serial", cell_level=False):
    sp = slice_splits(plan, num_splits=num_splits)
    # prune=False: both planes run every split, so their counters agree.
    job, barrier, _ = build_sidr_job(plan, sp, reduces, data,
                                     data_plane=data_plane, prune=False)
    assert job.data_plane == data_plane
    if cell_level:
        assert data_plane == "record"
        job.reader_factory = lambda split: iter(CellRecordReader(data, plan, split))
        job.mapper_factory = lambda: CellToChunkMapper(plan)
    engine = LocalEngine(map_workers=4, reduce_workers=3)
    return run(engine, mode, job, barrier), job


def _assert_all_batched(res):
    """Every instance went through ``map_batch``: none took another path."""
    batched = res.counters.get("plane.batched.instances")
    assert batched == res.counters.get("map.input.records") > 0


@pytest.fixture(scope="module")
def temp32():
    """float32 source — the dtype where accumulation-order bugs show."""
    field = temperature_dataset(days=29, lat=10, lon=6, seed=11)
    return field, field.arrays["temperature"].astype(np.float32)


def _served_job(plan, data, reduces=3):
    """``plan``'s job as the service builds it: aligned splits, every
    map's geometry computed up front."""
    splits = aligned_slice_splits(plan, num_splits=4)
    return build_plan(plan, splits, reduces).with_map_geometry().configure_job(data)


@pytest.fixture(scope="module")
def wind():
    field = windspeed_dataset(time=12, lat=12, lon=6, elevation=10, seed=3)
    return field, field.arrays["windspeed"]


# --------------------------------------------------------------------- #
# Every operator, byte-identical, both engines
# --------------------------------------------------------------------- #
class TestOperatorIdentity:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("op", OPERATORS, ids=lambda o: o.name)
    def test_columnar_matches_record(self, temp32, op, mode):
        field, data = temp32
        plan = _plan(field, (7, 5, 2), op)
        oracle, _ = _records(plan, data, op, data_plane="record", mode=mode)
        res, job = _records(plan, data, op, data_plane="columnar", mode=mode)
        assert repr(res.canonical_records()) == repr(oracle.canonical_records())
        _assert_all_batched(res)
        # ... and counted like the record plane, record for record.
        for name in ("map.input.records", "combine.input.records",
                     "combine.output.records", "reduce.output.records"):
            assert res.counters.get(name) == oracle.counters.get(name), name

    @pytest.mark.parametrize("op", OPERATORS, ids=lambda o: o.name)
    def test_cell_reference_reader(self, temp32, op):
        """The per-cell reference path agrees with both chunked planes
        (bit-exact where its accumulation order matches, see CELL_EXACT)."""
        field, data = temp32
        plan = _plan(field, (7, 5, 2), op)
        oracle, _ = _records(plan, data, op, data_plane="record")
        cell, _ = _records(plan, data, op, data_plane="record",
                           cell_level=True)
        a, b = oracle.all_records(), cell.all_records()
        if op.name in CELL_EXACT:
            assert a == b
        else:
            assert [k for k, _ in a] == [k for k, _ in b]
            for (_, va), (_, vb) in zip(a, b):
                assert va == pytest.approx(vb, rel=1e-6)


# --------------------------------------------------------------------- #
# Geometry edge cases
# --------------------------------------------------------------------- #
class TestGeometryIdentity:
    @pytest.mark.parametrize("splits", [1, 4, 7])
    def test_unaligned_splits(self, temp32, splits):
        field, data = temp32
        plan = _plan(field, (7, 5, 2), MeanOp())
        oracle, _ = _records(plan, data, MeanOp(), data_plane="record",
                             num_splits=splits)
        res, _ = _records(plan, data, MeanOp(), data_plane="columnar",
                          num_splits=splits)
        assert res.all_records() == oracle.all_records()

    @pytest.mark.parametrize("stride", [(3, 2, 2), (5, 4, 3)])
    def test_strided_extraction(self, temp32, stride):
        field, data = temp32
        plan = _plan(field, (2, 2, 2), SumOp(), stride=stride)
        oracle, _ = _records(plan, data, SumOp(), data_plane="record")
        res, _ = _records(plan, data, SumOp(), data_plane="columnar")
        assert res.all_records() == oracle.all_records()
        # Stride gaps cut edge instances: they arrive as one-row batches.
        _assert_all_batched(res)

    def test_truncate_false_ragged_edges(self, temp32):
        field, data = temp32
        plan = _plan(field, (7, 4, 4), StdDevOp(), keep_partial_instances=True)
        oracle, _ = _records(plan, data, StdDevOp(), data_plane="record")
        res, _ = _records(plan, data, StdDevOp(), data_plane="columnar")
        assert res.all_records() == oracle.all_records()

    def test_strided_keep_partial(self, temp32):
        self._strided_keep_partial(temp32, MaxOp())

    def test_strided_keep_partial_ragged(self, temp32):
        """Clipped one-row batches joining the full box's ragged column."""
        self._strided_keep_partial(temp32, MedianOp())

    @staticmethod
    def _strided_keep_partial(temp32, op):
        field, data = temp32
        plan = _plan(field, (3, 3, 2), op, stride=(4, 4, 3),
                     keep_partial_instances=True)
        oracle, _ = _records(plan, data, op, data_plane="record")
        res, _ = _records(plan, data, op, data_plane="columnar")
        assert res.all_records() == oracle.all_records()
        _assert_all_batched(res)

    def test_many_partials_per_key(self, temp32):
        """Instances spanning all 7 splits give 7 partials per key —
        the regime where pairwise vs sequential summation diverges, so
        this pins the segmented combine to the scalar fold order."""
        field, data = temp32
        plan = _plan(field, (29, 5, 2), SumOp())
        oracle, _ = _records(plan, data, SumOp(), data_plane="record",
                             num_splits=7)
        res, _ = _records(plan, data, SumOp(), data_plane="columnar",
                          num_splits=7)
        assert res.all_records() == oracle.all_records()

    def test_4d_wind(self, wind):
        field, data = wind
        plan = _plan(field, (2, 6, 3, 5), MeanOp())
        oracle, _ = _records(plan, data, MeanOp(), data_plane="record")
        res, _ = _records(plan, data, MeanOp(), data_plane="columnar")
        assert res.all_records() == oracle.all_records()

    def test_reference_output_agrees(self, temp32):
        """Both planes match the QueryPlan's direct numpy oracle."""
        field, data = temp32
        plan = _plan(field, (7, 5, 2), MeanOp())
        ref = plan.reference_output(data)
        res, _ = _records(plan, data, MeanOp(), data_plane="columnar")
        for key, value in res.all_records():
            assert value == pytest.approx(ref[key], rel=1e-12)


    @pytest.mark.parametrize("op", [SortOp(), MedianOp()], ids=lambda o: o.name)
    def test_both_zeros_and_a_nan_end_to_end(self, op):
        """Values the integer-valued fuzz data never holds: zeros of
        both signs (ties a stable sort must leave in cell order; a
        median that is ``-0.0``) and a NaN (sorts last; poisons its
        instance's median).  Three splits cut every instance; the planes
        return equal digests, and records ``repr``-identical to the
        oracle's."""
        field = temperature_dataset(days=6, lat=4, lon=3, seed=5)
        data = np.ones((6, 4, 3))
        data[:, 0, :] = -0.0
        data[:2, 1, :] = 0.0
        data[4, 2, 1] = np.nan
        plan = _plan(field, (6, 2, 3), op)
        want = oracle_records(plan, data)
        assert any("-0.0" in repr(v) for _, v in want)
        assert any("nan" in repr(v) for _, v in want)
        digests = set()
        for plane in ("record", "columnar"):
            res, _ = _records(plan, data, op, data_plane=plane, num_splits=3,
                              reduces=2)
            assert repr(canonicalize_records(res.all_records())) == repr(want)
            digests.add(records_digest(res.all_records()))
        assert digests == {records_digest(want)}


# --------------------------------------------------------------------- #
# Fault tolerance on the columnar plane
# --------------------------------------------------------------------- #
class TestColumnarFaultTolerance:
    @pytest.mark.parametrize("mode", MODES)
    def test_map_retry_supersedes_corrupt_columnar_spill(self, temp32, mode):
        """A corrupted columnar spill must fail the attempt and the retry
        must supersede it, leaving clean-record-plane output — on sliced
        splits, and on a served plan (aligned splits, every map's
        geometry precomputed), whose torn planned run fails the attempt
        before anything is spilled."""
        field, data = temp32
        plan = _plan(field, (7, 5, 2), MeanOp())
        oracle, _ = _records(plan, data, MeanOp(), data_plane="record")
        sp = slice_splits(plan, num_splits=4)
        sliced = build_sidr_job(plan, sp, 3, data, data_plane="columnar")[:2]
        for job, barrier in (sliced, _served_job(plan, data)):
            faults = InjectionPlan(rules=(
                FaultRule(task="map", kind=FaultKind.CORRUPT_SPILL,
                          indices=frozenset({1}), times=1),
            ))
            engine = LocalEngine(map_workers=4, reduce_workers=3,
                                 retry=FAST_RETRY, faults=faults)
            res = run(engine, mode, job, barrier)
            assert res.all_records() == oracle.all_records()
            assert res.counters.get("faults.injected") == 1
        assert res.counters.get("reduce.planned") == 3
        # The torn spill's own rejection is the injected fault's cause.
        obs = JobObservability(job.name, enabled=False)
        with pytest.raises(InjectedFaultError) as torn:
            run_columnar_map(
                job, 1, ShuffleStore(), Counters(), obs, None, corrupt=True
            )
        assert isinstance(torn.value.__cause__, ShuffleError)
        assert "not sorted" in str(torn.value.__cause__)

    @pytest.mark.parametrize("mode", MODES)
    def test_reduce_transient_after_fetch(self, temp32, mode):
        """Transient reduce failure after fetch under REEXECUTE_DEPS:
        consumed columnar outputs are regenerated, output unchanged."""
        field, data = temp32
        plan = _plan(field, (7, 5, 2), SumOp())
        oracle, _ = _records(plan, data, SumOp(), data_plane="record")
        sp = slice_splits(plan, num_splits=4)
        job, barrier, _ = build_sidr_job(plan, sp, 3, data,
                                         data_plane="columnar")
        faults = InjectionPlan(rules=(
            FaultRule(task="reduce", kind=FaultKind.TRANSIENT,
                      indices=frozenset({1}), times=1,
                      when=WHEN_AFTER_FETCH),
        ))
        engine = LocalEngine(
            map_workers=4, reduce_workers=3, retry=FAST_RETRY,
            faults=faults, recovery=RecoveryModel.REEXECUTE_DEPS,
        )
        res = run(engine, mode, job, barrier)
        assert res.all_records() == oracle.all_records()
        # A served plan: the re-executed maps spill their planned runs
        # again, so the retried reduce's fetch is the plan's.
        res = run(engine, mode, *_served_job(plan, data))
        assert res.all_records() == oracle.all_records()
        assert res.counters.get("recovery.maps_reexecuted") > 0
        assert res.counters.get("reduce.planned") == 3
        assert res.counters.get("reduce.generic") == 0

    def test_threaded_equals_serial(self, temp32):
        field, data = temp32
        plan = _plan(field, (7, 5, 2), StdDevOp())
        a, _ = _records(plan, data, StdDevOp(), data_plane="columnar",
                        mode="serial")
        b, _ = _records(plan, data, StdDevOp(), data_plane="columnar",
                        mode="threaded")
        assert a.all_records() == b.all_records()


# --------------------------------------------------------------------- #
# shuffle.bytes measures the payload, the same on both planes
# --------------------------------------------------------------------- #
class TestShuffleBytes:
    """``shuffle.bytes`` sizes what crosses the shuffle: a record-plane
    ``Partial`` by its state and count (not the 56 bytes of the object
    holding them), a ragged columnar state column by its cells (not its
    row pointers)."""

    @staticmethod
    def shuffled(op, extraction, data_plane):
        from repro.query.splits import aligned_slice_splits

        field = temperature_dataset(days=28, lat=20, lon=16, seed=2)
        plan = _plan(field, extraction, op)
        splits = aligned_slice_splits(plan, num_splits=4)
        job, barrier, _ = build_sidr_job(
            plan, splits, 3, field.arrays["temperature"],
            data_plane=data_plane, prune=False,
        )
        counters = LocalEngine().run_serial(job, barrier).counters
        return counters.get("shuffle.bytes"), counters.get("shuffle.records")

    @pytest.mark.parametrize("op", OPERATORS, ids=lambda op: op.name)
    def test_both_planes_report_the_same_bytes(self, op):
        record = self.shuffled(op, (7, 5, 4), "record")
        columnar = self.shuffled(op, (7, 5, 4), "columnar")
        assert record == columnar
        assert record[1] == 64

    def test_holistic_bytes_grow_with_the_extraction(self):
        per_record = {}
        for extraction in ((7, 5, 2), (7, 5, 4)):
            nbytes, records = self.shuffled(MedianOp(), extraction, "columnar")
            per_record[extraction] = nbytes / records
            # every cell of every instance crosses: 8 bytes each
            assert per_record[extraction] > 8 * np.prod(extraction)
        assert per_record[(7, 5, 4)] > per_record[(7, 5, 2)]
