"""Unit tests for coordinate/shape arithmetic."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.arrays.shape import (
    as_coord,
    ceil_div,
    coord_add,
    coord_floordiv,
    coord_max,
    coord_min,
    coord_mod,
    coord_mul,
    coord_sub,
    volume,
)
from repro.errors import GeometryError, RankMismatchError

coords = st.lists(st.integers(-50, 50), min_size=1, max_size=5)
pos_coords = st.lists(st.integers(1, 50), min_size=1, max_size=5)


class TestAsCoord:
    def test_plain_ints(self):
        assert as_coord([1, 2, 3]) == (1, 2, 3)

    def test_numpy_ints(self):
        assert as_coord(np.array([4, 5], dtype=np.int32)) == (4, 5)

    def test_rejects_floats(self):
        with pytest.raises(GeometryError):
            as_coord([1.0, 2])

    def test_rejects_bool(self):
        with pytest.raises(GeometryError):
            as_coord([True, 2])

    def test_empty_ok(self):
        assert as_coord([]) == ()

    def test_a_tuple_of_ints_is_returned_as_is(self):
        coord = (1, 2, 3)
        assert as_coord(coord) is coord

    @pytest.mark.parametrize("bad", [(1.0, 2), (True, 2), (1, "2")])
    def test_a_tuple_is_checked_like_a_list(self, bad):
        with pytest.raises(GeometryError):
            as_coord(bad)

    def test_a_tuple_of_numpy_ints_becomes_ints(self):
        out = as_coord((np.int64(4), 5))
        assert out == (4, 5) and {type(v) for v in out} == {int}


class TestArithmetic:
    def test_add(self):
        assert coord_add((1, 2), (3, 4)) == (4, 6)

    def test_sub(self):
        assert coord_sub((5, 5), (2, 7)) == (3, -2)

    def test_mul(self):
        assert coord_mul((2, 3), (4, 5)) == (8, 15)

    def test_floordiv(self):
        assert coord_floordiv((7, 9), (2, 4)) == (3, 2)

    def test_floordiv_zero_raises(self):
        with pytest.raises(GeometryError):
            coord_floordiv((1, 2), (1, 0))

    def test_mod(self):
        assert coord_mod((7, 9), (2, 4)) == (1, 1)

    def test_min_max(self):
        assert coord_min((1, 5), (3, 2)) == (1, 2)
        assert coord_max((1, 5), (3, 2)) == (3, 5)

    def test_rank_mismatch(self):
        with pytest.raises(RankMismatchError):
            coord_add((1,), (1, 2))

    @given(coords, coords)
    def test_add_sub_roundtrip(self, a, b):
        if len(a) != len(b):
            a = a[: min(len(a), len(b))] or [0]
            b = b[: len(a)]
        a, b = tuple(a), tuple(b)
        assert coord_sub(coord_add(a, b), b) == a

    @given(coords, pos_coords)
    def test_divmod_identity(self, a, d):
        n = min(len(a), len(d))
        a, d = tuple(x for x in a[:n] if True) or (0,), tuple(d[:n]) or (1,)
        if len(a) != len(d):
            return
        q = coord_floordiv(a, d)
        r = coord_mod(a, d)
        assert coord_add(coord_mul(q, d), r) == a


class TestCeilDiv:
    @pytest.mark.parametrize(
        "a,b,want", [(0, 3, 0), (1, 3, 1), (3, 3, 1), (4, 3, 2), (9, 3, 3)]
    )
    def test_values(self, a, b, want):
        assert ceil_div(a, b) == want

    def test_nonpositive_divisor(self):
        with pytest.raises(GeometryError):
            ceil_div(4, 0)

    @given(st.integers(0, 10_000), st.integers(1, 100))
    def test_matches_math(self, a, b):
        import math

        assert ceil_div(a, b) == math.ceil(a / b)


class TestVolume:
    def test_basic(self):
        assert volume((2, 3, 4)) == 24

    def test_rank_zero(self):
        assert volume(()) == 1

    def test_zero_extent(self):
        assert volume((5, 0, 3)) == 0

    def test_negative_raises(self):
        with pytest.raises(GeometryError):
            volume((2, -1))
