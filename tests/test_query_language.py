"""Unit tests for the structural query language and compiled plans."""

import numpy as np
import pytest

from repro.arrays.slab import Slab
from repro.errors import QueryError
from repro.query.language import StructuralQuery
from repro.query.operators import MeanOp, SumOp


class TestCompile:
    def test_paper_weekly_example(self, temp_field):
        q = StructuralQuery(
            variable="temperature",
            extraction_shape=(7, 5, 1),
            operator=MeanOp(),
        )
        # 29 days -> 4 whole weeks; 10 lats -> 2 bands; 6 lons.
        plan = q.compile(temp_field.metadata)
        assert plan.intermediate_space == (4, 2, 6)
        assert plan.covered == Slab((0, 0, 0), (28, 10, 6))
        assert plan.num_intermediate_keys == 48
        assert plan.cells_per_instance == 35

    def test_unknown_variable(self, temp_field):
        q = StructuralQuery(
            variable="nope", extraction_shape=(1, 1, 1), operator=MeanOp()
        )
        with pytest.raises(Exception):
            q.compile(temp_field.metadata)

    def test_rank_mismatch(self, temp_field):
        q = StructuralQuery(
            variable="temperature", extraction_shape=(7, 5), operator=MeanOp()
        )
        with pytest.raises(QueryError):
            q.compile(temp_field.metadata)

    def test_extraction_too_large(self, temp_field):
        q = StructuralQuery(
            variable="temperature",
            extraction_shape=(30, 5, 1),
            operator=MeanOp(),
        )
        with pytest.raises(QueryError):
            q.compile(temp_field.metadata)

    def test_strided_plan(self, temp_field):
        q = StructuralQuery(
            variable="temperature",
            extraction_shape=(2, 5, 1),
            operator=MeanOp(),
            stride=(7, 5, 1),
        )
        plan = q.compile(temp_field.metadata)
        # 29 days with 2-day instances every 7 days: days 0-1, 7-8, 14-15,
        # 21-22, 28-?29 incomplete -> 4
        assert plan.intermediate_space[0] == 4


class TestKeyTranslation:
    def test_key_of_none_outside_truncated_space(self, weekly_mean_plan):
        # Day 28 belongs to the dropped 5th partial week.
        assert weekly_mean_plan.key_of((28, 0, 0)) is None

    def test_instance_region(self, weekly_mean_plan):
        r = weekly_mean_plan.instance_region((1, 1, 2))
        assert r == Slab((7, 5, 2), (7, 5, 1))

    def test_expected_cells(self, weekly_mean_plan):
        cells = weekly_mean_plan.instance_cells()
        assert cells.shape == weekly_mean_plan.intermediate_space
        assert (cells == 35).all()

    def test_image_of(self, weekly_mean_plan):
        img = weekly_mean_plan.image_of(Slab((0, 0, 0), (8, 10, 6)))
        assert img == Slab((0, 0, 0), (2, 2, 6))


class TestOracle:
    def test_reference_output_weekly_mean(self, weekly_mean_plan, temp_data):
        out = weekly_mean_plan.reference_output(temp_data)
        assert len(out) == 48
        # Spot-check one instance against direct numpy.
        want = temp_data[7:14, 5:10, 2:3].mean()
        assert out[(1, 1, 2)] == pytest.approx(want)

    def test_oracle_shape_check(self, weekly_mean_plan):
        with pytest.raises(QueryError):
            weekly_mean_plan.reference_output(np.zeros((5, 5, 5)))

    def test_describe_mentions_pieces(self, weekly_mean_plan):
        text = weekly_mean_plan.describe()
        assert "mean" in text and "temperature" in text
        assert "[4, 2, 6]" in text


class TestPartialInstances:
    def test_keep_partial_instances(self, temp_field):
        q = StructuralQuery(
            variable="temperature",
            extraction_shape=(7, 5, 1),
            operator=SumOp(),
            keep_partial_instances=True,
        )
        plan = q.compile(temp_field.metadata)
        # ceil(29/7)=5 weeks, the last clipped to 1 day.
        assert plan.intermediate_space == (5, 2, 6)
        cells = plan.instance_cells()
        assert cells[4, 0, 0] == 1 * 5 * 1
        assert cells.sum() == plan.whole.volume

    def test_partial_oracle_consistent(self, temp_field, temp_data):
        q = StructuralQuery(
            variable="temperature",
            extraction_shape=(7, 5, 1),
            operator=SumOp(),
            keep_partial_instances=True,
        )
        plan = q.compile(temp_field.metadata)
        out = plan.reference_output(temp_data)
        want = temp_data[28:29, 0:5, 0:1].sum()
        assert out[(4, 0, 0)] == pytest.approx(float(want))
