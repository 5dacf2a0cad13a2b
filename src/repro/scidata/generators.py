"""Synthetic dataset generators reproducing the paper's workloads.

The paper's datasets are not distributable (348 GB of climate/windspeed
measurements), so we generate statistically equivalent synthetic fields:

* :func:`temperature_dataset` — the running example of Figures 1/2: daily
  temperature measurements over a lat/lon grid, with diurnal/seasonal
  structure so down-sampling queries have meaningful answers.
* :func:`windspeed_dataset` — Query 1's 4-d hourly windspeed field
  {time, lat, lon, elevation}; laptop-scale shapes by default, the
  paper-scale shape is used metadata-only by the simulator.
* :func:`normal_dataset` — Query 2's normally distributed values where a
  3-sigma filter selects ~0.1% of cells, the paper's stated selectivity.

All generators are deterministic given a seed: reproducibility of the
benchmark harness depends on it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from repro.arrays.shape import Shape
from repro.errors import DatasetError
from repro.scidata.dataset import Dataset, create_dataset
from repro.scidata.metadata import (
    Attribute,
    DatasetMetadata,
    Dimension,
    Variable,
)


@dataclass(frozen=True)
class SyntheticField:
    """A generated array plus the metadata describing it."""

    metadata: DatasetMetadata
    arrays: dict[str, np.ndarray]

    @property
    def variable(self) -> str:
        return self.metadata.variables[0].name

    def write(self, path: str | os.PathLike) -> Dataset:
        return create_dataset(path, self.metadata, self.arrays)


def _grids(shape: Shape) -> list[np.ndarray]:
    """Broadcastable normalized [0,1) coordinate grids per dimension."""
    grids = []
    for d, n in enumerate(shape):
        g = np.arange(n, dtype=np.float64) / max(n, 1)
        expand = [1] * len(shape)
        expand[d] = n
        grids.append(g.reshape(expand))
    return grids


def planar_wave_field(
    shape: Shape,
    *,
    periods: tuple[float, ...] | None = None,
    noise: float = 0.1,
    offset: float = 0.0,
    amplitude: float = 1.0,
    seed: int = 0,
) -> np.ndarray:
    """Smooth multi-frequency field plus Gaussian noise.

    Separable sinusoids per axis give the field spatial/temporal structure
    (so windowed medians and averages vary across the output) while the
    noise keeps per-cell values distinct.
    """
    if periods is None:
        periods = tuple(2.0 + i for i in range(len(shape)))
    if len(periods) != len(shape):
        raise DatasetError("periods rank mismatch")
    rng = np.random.default_rng(seed)
    field = np.zeros(shape, dtype=np.float64)
    for g, p in zip(_grids(shape), periods):
        field = field + np.sin(2.0 * np.pi * p * g)
    field *= amplitude / max(len(shape), 1)
    if noise > 0:
        field = field + rng.normal(0.0, noise, size=shape)
    return field + offset


def normal_field(shape: Shape, *, seed: int = 0) -> np.ndarray:
    """IID standard normal field (Query 2's value distribution)."""
    rng = np.random.default_rng(seed)
    return rng.normal(0.0, 1.0, size=shape)


def temperature_dataset(
    days: int = 365,
    lat: int = 250,
    lon: int = 200,
    *,
    seed: int = 7,
) -> SyntheticField:
    """The paper's Figure 1/2 dataset: ``temperature(time, lat, lon)``,
    as 32-bit floats.

    Defaults to the exact paper dimensions {365, 250, 200}; pass smaller
    values for laptop-scale runs.  Temperatures carry an annual cycle in
    time and a latitude gradient so weekly-average queries produce
    structured output.
    """
    shape = (days, lat, lon)
    base = planar_wave_field(
        shape, periods=(1.0, 0.5, 0.5), noise=1.5, amplitude=20.0, seed=seed
    )
    t_grid, lat_grid, _ = _grids(shape)
    field = 50.0 + base + 15.0 * np.sin(2 * np.pi * t_grid) - 20.0 * lat_grid
    meta = DatasetMetadata(
        dimensions=(
            Dimension("time", days),
            Dimension("lat", lat),
            Dimension("lon", lon),
        ),
        variables=(
            Variable(
                "temperature",
                "float",
                ("time", "lat", "lon"),
                attributes=(Attribute("units", "degF"),),
            ),
        ),
        attributes=(Attribute("source", "repro synthetic temperature"),),
    )
    return SyntheticField(meta, {"temperature": field.astype(np.float32)})


def windspeed_dataset(
    time: int = 7200,
    lat: int = 360,
    lon: int = 720,
    elevation: int = 50,
    *,
    seed: int = 11,
    generate_payload: bool = True,
) -> SyntheticField:
    """Query 1's dataset: ``windspeed(time, lat, lon, elevation)``, as
    32-bit floats.

    The paper-scale shape {7200, 360, 720, 50} is 93.3e9 cells; keep the
    defaults only with ``generate_payload=False`` (metadata-only, for the
    simulator) and pass small extents for real-execution runs.
    """
    shape = (time, lat, lon, elevation)
    meta = DatasetMetadata(
        dimensions=(
            Dimension("time", time),
            Dimension("lat", lat),
            Dimension("lon", lon),
            Dimension("elevation", elevation),
        ),
        variables=(
            Variable(
                "windspeed",
                "float",
                ("time", "lat", "lon", "elevation"),
                attributes=(Attribute("units", "m/s"),),
            ),
        ),
        attributes=(Attribute("source", "repro synthetic windspeed"),),
    )
    if not generate_payload:
        return SyntheticField(meta, {})
    cells = 1
    for e in shape:
        cells *= e
    if cells > 50_000_000:
        raise DatasetError(
            f"refusing to materialize {cells} cells; pass smaller extents "
            "or generate_payload=False"
        )
    field = np.abs(
        planar_wave_field(
            shape, periods=(3.0, 1.0, 1.0, 0.5), noise=1.0, amplitude=8.0,
            offset=10.0, seed=seed,
        )
    )
    return SyntheticField(meta, {"windspeed": field.astype(np.float32)})


def normal_dataset(
    shape: Shape,
    *,
    var_name: str = "reading",
    seed: int = 13,
) -> SyntheticField:
    """Query 2's dataset: IID normal values where a mean+3*std threshold
    filter passes ~0.135% of cells (the paper reports ~0.1%)."""
    from repro.scidata.metadata import simple_metadata

    field = normal_field(shape, seed=seed)
    meta = simple_metadata(var_name, shape, dtype="float")
    return SyntheticField(meta, {var_name: field.astype(np.float32)})
