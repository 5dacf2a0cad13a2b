"""Unit and property tests for the coordinate-based Dataset API."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arrays.slab import Slab
from repro.errors import DatasetError
from repro.scidata.dataset import create_dataset, open_dataset
from repro.scidata.metadata import simple_metadata


@pytest.fixture
def small_ds(tmp_path):
    data = np.arange(5 * 6 * 7, dtype=np.float64).reshape(5, 6, 7)
    ds = create_dataset(tmp_path / "d.nc", var_name="v", data=data, mode="r+")
    yield ds, data
    ds.close()


class TestRead:
    def test_read_all(self, small_ds):
        ds, data = small_ds
        assert np.array_equal(ds.read_all("v"), data)

    def test_read_slab(self, small_ds):
        ds, data = small_ds
        slab = Slab((1, 2, 3), (2, 3, 2))
        assert np.array_equal(ds.read_slab("v", slab), data[slab.as_slices()])

    def test_read_out_of_bounds(self, small_ds):
        ds, _ = small_ds
        with pytest.raises(DatasetError):
            ds.read_slab("v", Slab((4, 0, 0), (2, 1, 1)))

    def test_read_unknown_variable(self, small_ds):
        ds, _ = small_ds
        with pytest.raises(DatasetError):
            ds.read_slab("w", Slab((0, 0, 0), (1, 1, 1)))

    def test_rank_mismatch(self, small_ds):
        ds, _ = small_ds
        with pytest.raises(DatasetError):
            ds.read_slab("v", Slab((0, 0), (1, 1)))

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_arbitrary_slab_matches_numpy(self, tmp_path_factory, data):
        arr = np.arange(4 * 5 * 6, dtype=np.float32).reshape(4, 5, 6)
        root = tmp_path_factory.mktemp("hyp")
        path = root / "d.nc"
        if not path.exists():
            create_dataset(path, var_name="v", data=arr).close()
        corner = tuple(data.draw(st.integers(0, s - 1)) for s in arr.shape)
        shape = tuple(
            data.draw(st.integers(1, s - c)) for s, c in zip(arr.shape, corner)
        )
        with open_dataset(path) as ds:
            got = ds.read_slab("v", Slab(corner, shape))
        assert np.array_equal(got, arr[Slab(corner, shape).as_slices()])


class TestWrite:
    def test_write_then_read(self, small_ds):
        ds, _ = small_ds
        slab = Slab((0, 0, 0), (2, 2, 2))
        block = np.full((2, 2, 2), -1.0)
        ds.write_slab("v", slab, block)
        assert np.array_equal(ds.read_slab("v", slab), block)

    def test_write_preserves_rest(self, small_ds):
        ds, data = small_ds
        slab = Slab((2, 2, 2), (1, 2, 3))
        ds.write_slab("v", slab, np.zeros(slab.shape))
        expected = data.copy()
        expected[slab.as_slices()] = 0
        assert np.array_equal(ds.read_all("v"), expected)

    def test_write_readonly_raises(self, tmp_path):
        data = np.zeros((2, 2))
        ds = create_dataset(tmp_path / "ro.nc", var_name="v", data=data)
        with pytest.raises(DatasetError):
            ds.write_slab("v", Slab((0, 0), (1, 1)), np.zeros((1, 1)))
        ds.close()

    def test_write_shape_mismatch(self, small_ds):
        ds, _ = small_ds
        with pytest.raises(DatasetError):
            ds.write_slab("v", Slab((0, 0, 0), (2, 2, 2)), np.zeros((2, 2)))


class TestIOStats:
    def test_contiguous_read_one_seek(self, small_ds):
        ds, _ = small_ds
        ds.io_stats.reset()
        ds.read_slab("v", Slab((2, 0, 0), (2, 6, 7)))
        assert ds.io_stats.seeks == 1

    def test_scattered_read_many_seeks(self, small_ds):
        ds, _ = small_ds
        ds.io_stats.reset()
        ds.read_slab("v", Slab((0, 0, 3), (5, 6, 1)))
        assert ds.io_stats.seeks == 30  # one per (dim0, dim1) row

    def test_write_runs_estimate(self, small_ds):
        ds, _ = small_ds
        assert ds.write_runs_estimate("v", Slab((2, 0, 0), (2, 6, 7))) == 1
        assert ds.write_runs_estimate("v", Slab((0, 0, 3), (5, 6, 1))) == 30

    def test_bytes_accounted(self, small_ds):
        ds, _ = small_ds
        ds.io_stats.reset()
        ds.read_slab("v", Slab((0, 0, 0), (1, 1, 7)))
        assert ds.io_stats.bytes_read == 7 * 8


class TestCreate:
    def test_needs_metadata_or_quick_form(self, tmp_path):
        with pytest.raises(DatasetError):
            create_dataset(tmp_path / "x.nc")

    def test_full_form_with_fill(self, tmp_path):
        meta = simple_metadata("v", (3, 3))
        ds = create_dataset(tmp_path / "f.nc", meta, fill=2.5)
        assert np.all(ds.read_all("v") == 2.5)
        ds.close()

    def test_bad_mode(self, tmp_path):
        data = np.zeros((2,))
        create_dataset(tmp_path / "m.nc", var_name="v", data=data).close()
        with pytest.raises(DatasetError):
            open_dataset(tmp_path / "m.nc", mode="w")

    def test_context_manager(self, tmp_path):
        data = np.zeros((2,))
        with create_dataset(tmp_path / "c.nc", var_name="v", data=data) as ds:
            assert ds.variable_shape("v") == (2,)


class TestMmapReadPath:
    """Read-only datasets serve slabs from an mmap (zero-copy views for
    contiguous runs); writable datasets keep buffered reads.  Both paths
    must agree on data *and* on the physical-IO accounting."""

    @pytest.fixture()
    def ro_ds(self, tmp_path):
        data = np.arange(5 * 6 * 7, dtype=np.float64).reshape(5, 6, 7)
        create_dataset(tmp_path / "ro.nc", var_name="v", data=data).close()
        ds = open_dataset(tmp_path / "ro.nc")  # mode="r" -> mmap path
        yield ds, data
        ds.close()

    def test_values_match_buffered_path(self, ro_ds, tmp_path):
        ds, data = ro_ds
        rw = open_dataset(ds.path, mode="r+")
        for slab in (
            Slab((0, 0, 0), (5, 6, 7)),
            Slab((2, 0, 0), (2, 6, 7)),
            Slab((0, 0, 3), (5, 6, 1)),
            Slab((1, 2, 3), (2, 2, 2)),
        ):
            assert np.array_equal(ds.read_slab("v", slab),
                                  rw.read_slab("v", slab))
        rw.close()

    def test_contiguous_run_is_zero_copy_view(self, ro_ds):
        ds, data = ro_ds
        out = ds.read_slab("v", Slab((2, 0, 0), (2, 6, 7)))
        assert out.base is not None  # a view of the mapping, not a copy
        assert not out.flags.writeable
        assert np.array_equal(out, data[2:4])

    def test_io_stats_identical_to_buffered_path(self, ro_ds):
        ds, _ = ro_ds
        rw = open_dataset(ds.path, mode="r+")
        for slab in (Slab((2, 0, 0), (2, 6, 7)), Slab((0, 0, 3), (5, 6, 1))):
            ds.io_stats.reset()
            rw.io_stats.reset()
            ds.read_slab("v", slab)
            rw.read_slab("v", slab)
            assert ds.io_stats.seeks == rw.io_stats.seeks
            assert ds.io_stats.read_calls == rw.io_stats.read_calls
            assert ds.io_stats.bytes_read == rw.io_stats.bytes_read
        rw.close()

    def test_multi_run_slab_is_fresh_writable_gather(self, ro_ds):
        ds, data = ro_ds
        out = ds.read_slab("v", Slab((0, 0, 3), (5, 6, 1)))
        out[0, 0, 0] = -1.0  # gathers are owned, safe to mutate
        assert np.array_equal(
            ds.read_slab("v", Slab((0, 0, 3), (5, 6, 1))),
            data[:, :, 3:4],
        )

    def test_close_with_live_view_keeps_view_valid(self, tmp_path):
        data = np.arange(12, dtype=np.float64).reshape(3, 4)
        create_dataset(tmp_path / "cv.nc", var_name="v", data=data).close()
        ds = open_dataset(tmp_path / "cv.nc")
        view = ds.read_slab("v", Slab((1, 0), (1, 4)))
        ds.close()  # BufferError suppressed; fd closed, map GC'd later
        assert np.array_equal(view, data[1:2])
        ds.close()  # idempotent

    def test_writable_dataset_never_maps(self, small_ds):
        ds, _ = small_ds
        ds.read_slab("v", Slab((0, 0, 0), (1, 1, 7)))
        assert ds._mm is None


class TestReadPlans:
    """A read-only handle validates each ``(variable, slab)`` once and
    keeps its byte runs; a read is then the views, the short-read
    check and the ``IOStats`` counts, which stay one per run."""

    SLABS = (
        Slab((0, 0, 0), (5, 6, 7)),
        Slab((2, 0, 0), (2, 6, 7)),
        Slab((0, 0, 3), (5, 6, 1)),
        Slab((1, 2, 3), (2, 2, 2)),
    )

    @pytest.fixture()
    def paths(self, tmp_path):
        data = np.arange(5 * 6 * 7, dtype=np.float64).reshape(5, 6, 7)
        create_dataset(tmp_path / "p.nc", var_name="v", data=data).close()
        return tmp_path / "p.nc", data

    def test_a_kept_plan_reads_and_counts_as_a_fresh_one(self, paths):
        path, data = paths
        with open_dataset(path) as ds, open_dataset(path, mode="r+") as rw:
            for slab in self.SLABS:
                for _ in range(2):  # validated, then kept
                    for handle in (ds, rw):
                        handle.io_stats.reset()
                        got = handle.read_slab("v", slab)
                        assert np.array_equal(got, data[slab.as_slices()])
                    assert ds.io_stats == rw.io_stats
            assert len(ds._plans) == len(self.SLABS)
            assert rw._plans == {}  # a writable header can change

    def test_a_kept_plan_still_rejects_a_bad_slab(self, paths):
        path, _ = paths
        with open_dataset(path) as ds:
            with pytest.raises(DatasetError):
                ds.read_slab("v", Slab((4, 0, 0), (2, 6, 7)))
            with pytest.raises(DatasetError):
                ds.read_slab("w", self.SLABS[0])
            assert ds._plans == {}

    def test_the_plans_are_bounded(self, paths, monkeypatch):
        import repro.scidata.dataset as dataset_module

        monkeypatch.setattr(dataset_module, "READ_PLAN_CAPACITY", 2)
        path, data = paths
        with open_dataset(path) as ds:
            for slab in self.SLABS * 2:
                assert np.array_equal(
                    ds.read_slab("v", slab), data[slab.as_slices()]
                )
                assert len(ds._plans) <= 2

    def test_a_reopened_session_starts_with_no_plans(self, paths):
        from repro.service.sessions import DatasetSession

        path, data = paths
        session = DatasetSession("p", path=str(path))
        try:
            source = session.engine_source()
            source.read_slab("v", self.SLABS[0])
            assert source._plans
            session.write_slab("v", Slab((0, 0, 0), (1, 6, 7)), -data[:1])
            reopened = session.engine_source()
            assert reopened is not source and reopened._plans == {}
            got = reopened.read_slab("v", self.SLABS[0])
            assert np.array_equal(got[0], -data[0])
        finally:
            session.close()
