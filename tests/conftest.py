"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

# Wall-clock deadlines make property tests flaky on loaded CI machines;
# example counts already bound the work.
settings.register_profile(
    "repro",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")

from repro.query.language import StructuralQuery
from repro.query.operators import MeanOp, MedianOp
from repro.scidata.generators import temperature_dataset, windspeed_dataset


@pytest.fixture(scope="session")
def temp_field():
    """Small temperature dataset (29 days -> 4 whole weeks truncated)."""
    return temperature_dataset(days=29, lat=10, lon=6)


@pytest.fixture(scope="session")
def temp_data(temp_field):
    return temp_field.arrays["temperature"].astype(np.float64)


@pytest.fixture(scope="session")
def weekly_mean_plan(temp_field):
    """Weekly mean, 5x lat down-sample — the paper's running example."""
    q = StructuralQuery(
        variable="temperature",
        extraction_shape=(7, 5, 1),
        operator=MeanOp(),
    )
    return q.compile(temp_field.metadata)


@pytest.fixture(scope="session")
def wind_field():
    """Small 4-d windspeed dataset (Query 1 shape, laptop scale)."""
    return windspeed_dataset(time=12, lat=12, lon=6, elevation=10, seed=3)


@pytest.fixture(scope="session")
def wind_median_plan(wind_field):
    q = StructuralQuery(
        variable="windspeed",
        extraction_shape=(2, 6, 3, 5),
        operator=MedianOp(),
    )
    return q.compile(wind_field.metadata)
