"""Unit tests for synthetic dataset generators."""

import numpy as np
import pytest

from repro.errors import DatasetError
from repro.scidata.generators import (
    normal_dataset,
    normal_field,
    planar_wave_field,
    temperature_dataset,
    windspeed_dataset,
)


class TestPlanarWave:
    def test_shape(self):
        f = planar_wave_field((4, 5, 6))
        assert f.shape == (4, 5, 6)

    def test_deterministic(self):
        a = planar_wave_field((5, 5), seed=3)
        b = planar_wave_field((5, 5), seed=3)
        assert np.array_equal(a, b)

    def test_seed_changes_field(self):
        a = planar_wave_field((5, 5), seed=3)
        b = planar_wave_field((5, 5), seed=4)
        assert not np.array_equal(a, b)

    def test_offset_amplitude(self):
        f = planar_wave_field((50, 50), noise=0.0, offset=100.0, amplitude=1.0)
        assert 99 < f.mean() < 101

    def test_period_rank_mismatch(self):
        with pytest.raises(DatasetError):
            planar_wave_field((4, 4), periods=(1.0,))


class TestTemperature:
    def test_paper_default_dimensions(self):
        # Metadata matches Figure 1 exactly (no payload check at 365 size:
        # use small extents for that).
        f = temperature_dataset(days=8, lat=4, lon=4)
        cdl = f.metadata.to_cdl()
        assert "float temperature(time, lat, lon);" in cdl
        assert f.arrays["temperature"].shape == (8, 4, 4)

    def test_latitude_gradient(self):
        f = temperature_dataset(days=4, lat=50, lon=4, seed=1)
        t = f.arrays["temperature"].astype(np.float64)
        south = t[:, :5, :].mean()
        north = t[:, -5:, :].mean()
        assert south > north  # warmer toward lower latitude index

    def test_write_roundtrip(self, tmp_path):
        f = temperature_dataset(days=5, lat=4, lon=3)
        with f.write(tmp_path / "t.nc") as ds:
            assert np.allclose(ds.read_all("temperature"), f.arrays["temperature"])


class TestWindspeed:
    def test_metadata_only_paper_scale(self):
        f = windspeed_dataset(generate_payload=False)
        assert f.metadata.variable_shape("windspeed") == (7200, 360, 720, 50)
        assert f.arrays == {}

    def test_refuses_huge_payload(self):
        with pytest.raises(DatasetError):
            windspeed_dataset()  # paper scale with payload

    def test_small_payload_nonnegative(self):
        f = windspeed_dataset(time=4, lat=4, lon=4, elevation=4)
        assert (f.arrays["windspeed"] >= 0).all()


class TestNormal:
    def test_three_sigma_selectivity(self):
        f = normal_dataset((50, 50, 40), seed=5)
        arr = f.arrays["reading"].astype(np.float64)
        frac = float((arr > 3.0).mean())
        # ~0.135% for a one-sided 3-sigma threshold (paper says ~0.1%).
        assert 0.0005 < frac < 0.003

    def test_mean_std_controls(self):
        f = normal_field((100, 100), seed=1)
        assert -0.1 < f.mean() < 0.1
        assert 0.95 < f.std() < 1.05
