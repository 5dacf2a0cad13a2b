"""Unit tests for dataset metadata."""

import numpy as np
import pytest

from repro.errors import DatasetError, FormatError
from repro.scidata.metadata import (
    Attribute,
    DatasetMetadata,
    Dimension,
    Variable,
    dtype_name,
    simple_metadata,
)


def sample_meta() -> DatasetMetadata:
    return DatasetMetadata(
        dimensions=(
            Dimension("time", 365),
            Dimension("lat", 250),
            Dimension("lon", 200),
        ),
        variables=(
            Variable(
                "temperature",
                "int",
                ("time", "lat", "lon"),
                attributes=(Attribute("units", "degF"),),
            ),
        ),
        attributes=(Attribute("source", "test"),),
    )


class TestDimension:
    def test_valid(self):
        assert Dimension("time", 10).length == 10

    def test_bad_name(self):
        with pytest.raises(DatasetError):
            Dimension("2bad", 10)

    def test_nonpositive_length(self):
        with pytest.raises(DatasetError):
            Dimension("x", 0)


class TestVariable:
    def test_unknown_dtype(self):
        with pytest.raises(DatasetError):
            Variable("v", "complex", ("x",))

    def test_no_dimensions(self):
        with pytest.raises(DatasetError):
            Variable("v", "int", ())

    def test_numpy_dtype(self):
        assert Variable("v", "double", ("x",)).numpy_dtype == np.dtype("float64")


class TestMetadata:
    def test_duplicate_dimension(self):
        with pytest.raises(DatasetError):
            DatasetMetadata(
                dimensions=(Dimension("x", 1), Dimension("x", 2)),
                variables=(),
            )

    def test_duplicate_variable(self):
        with pytest.raises(DatasetError):
            DatasetMetadata(
                dimensions=(Dimension("x", 2),),
                variables=(Variable("v", "int", ("x",)), Variable("v", "int", ("x",))),
            )

    def test_unknown_dimension_reference(self):
        with pytest.raises(DatasetError):
            DatasetMetadata(
                dimensions=(Dimension("x", 2),),
                variables=(Variable("v", "int", ("y",)),),
            )

    def test_variable_shape(self):
        assert sample_meta().variable_shape("temperature") == (365, 250, 200)

    def test_variable_cells_and_bytes(self):
        m = sample_meta()
        assert m.variable_cells("temperature") == 365 * 250 * 200
        assert m.variable_nbytes("temperature") == 365 * 250 * 200 * 4

    def test_unknown_lookups(self):
        m = sample_meta()
        with pytest.raises(DatasetError):
            m.variable("nope")
        with pytest.raises(DatasetError):
            m.dimension("nope")


class TestCdl:
    def test_matches_paper_figure1_style(self):
        cdl = sample_meta().to_cdl("example")
        assert "time = 365;" in cdl
        assert "lat = 250;" in cdl
        assert "lon = 200;" in cdl
        assert "int temperature(time, lat, lon);" in cdl

    def test_attributes_rendered(self):
        cdl = sample_meta().to_cdl()
        assert 'temperature:units = "degF";' in cdl
        assert ':source = "test";' in cdl


class TestRoundTrip:
    def test_dict_roundtrip(self):
        m = sample_meta()
        assert DatasetMetadata.from_dict(m.to_dict()) == m

    def test_malformed_dict(self):
        with pytest.raises(FormatError):
            DatasetMetadata.from_dict({"dimensions": "nope"})


class TestHelpers:
    def test_simple_metadata(self):
        m = simple_metadata("v", (2, 3), dtype="float")
        assert m.variable_shape("v") == (2, 3)
        assert m.variables[0].dimensions == ("dim0", "dim1")

    def test_dtype_name_roundtrip(self):
        assert dtype_name(np.dtype("float32")) == "float"
        with pytest.raises(FormatError):
            dtype_name(np.dtype("complex128"))
