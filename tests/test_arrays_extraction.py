"""Unit and property tests for extraction shapes (K -> K' translation)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arrays.extraction import ExtractionShape
from repro.arrays.slab import Slab
from repro.errors import GeometryError, QueryError, RankMismatchError


class TestPaperExamples:
    """The worked examples from paper §3."""

    def test_weekly_downsample_key(self):
        # "an arbitrary key in K, say {157, 34, 82}, maps to {22, 6, 82}"
        ex = ExtractionShape((7, 5, 1))
        assert ex.translate((157, 34, 82)) == (22, 6, 82)

    def test_weekly_downsample_space(self):
        # {365, 250, 200} with {7, 5, 1} -> {52, 50, 200}, day 365 dropped
        ex = ExtractionShape((7, 5, 1))
        assert ex.intermediate_space((365, 250, 200)) == (52, 50, 200)

    def test_query1_space(self):
        # {7200, 360, 720, 50} with {2, 36, 36, 10} -> {3600, 10, 20, 5}
        ex = ExtractionShape((2, 36, 36, 10))
        assert ex.intermediate_space((7200, 360, 720, 50)) == (3600, 10, 20, 5)

    def test_query2_space(self):
        ex = ExtractionShape((2, 40, 40, 10))
        assert ex.intermediate_space((7200, 360, 720, 50)) == (3600, 9, 18, 5)


class TestConstruction:
    def test_nonpositive_shape_rejected(self):
        with pytest.raises(GeometryError):
            ExtractionShape((0, 1))

    def test_origin_rank_mismatch(self):
        with pytest.raises(RankMismatchError):
            ExtractionShape((2, 2), origin=(0,))

    def test_cells_per_key(self):
        assert ExtractionShape((2, 3, 4)).cells_per_key == 24


class TestTranslate:
    def test_with_origin(self):
        ex = ExtractionShape((2, 2), origin=(10, 10))
        assert ex.translate((10, 10)) == (0, 0)
        assert ex.translate((13, 11)) == (1, 0)

    def test_before_origin_raises(self):
        ex = ExtractionShape((2, 2), origin=(10, 10))
        with pytest.raises(GeometryError):
            ex.translate((9, 10))

    @given(st.data())
    @settings(max_examples=150)
    def test_preimage_roundtrip(self, data):
        rank = data.draw(st.integers(1, 4))
        shape = tuple(data.draw(st.integers(1, 5)) for _ in range(rank))
        ex = ExtractionShape(shape)
        key = tuple(data.draw(st.integers(0, 8)) for _ in range(rank))
        pre = ex.preimage(key)
        # Every cell in the preimage translates back to the key.
        for c in pre.iter_coords():
            assert ex.translate(c) == key


class TestImage:
    def test_single_instance(self):
        ex = ExtractionShape((2, 2))
        img = ex.image(Slab((0, 0), (2, 2)))
        assert img == Slab((0, 0), (1, 1))

    def test_straddling_region(self):
        ex = ExtractionShape((2, 2))
        img = ex.image(Slab((1, 1), (2, 2)))
        assert img == Slab((0, 0), (2, 2))

    def test_clipped_to_intermediate_space(self):
        ex = ExtractionShape((2,))
        img = ex.image(Slab((4,), (3,)), intermediate_space=(3,))
        assert img == Slab((2,), (1,))

    def test_empty_region(self):
        ex = ExtractionShape((2, 2))
        assert ex.image(Slab((0, 0), (0, 2))).is_empty

    @given(st.data())
    @settings(max_examples=150)
    def test_image_is_exact(self, data):
        """Every key in the image has a preimage cell in the region and
        every region cell's key is in the image."""
        rank = data.draw(st.integers(1, 3))
        shape = tuple(data.draw(st.integers(1, 4)) for _ in range(rank))
        ex = ExtractionShape(shape)
        corner = tuple(data.draw(st.integers(0, 6)) for _ in range(rank))
        extent = tuple(data.draw(st.integers(1, 5)) for _ in range(rank))
        region = Slab(corner, extent)
        img = ex.image(region)
        for c in region.iter_coords():
            assert img.contains(ex.translate(c))
        for k in img.iter_coords():
            assert ex.preimage(k).overlaps(region)


class TestIntermediateSpace:
    def test_truncate_vs_keep(self):
        assert ExtractionShape((3,)).intermediate_space((10,)) == (3,)
        assert ExtractionShape((3,), truncate=False).intermediate_space((10,)) == (4,)

    def test_too_large_extraction_raises(self):
        with pytest.raises(QueryError):
            ExtractionShape((5, 5)).intermediate_space((4, 10))

    def test_covered_box(self):
        """First instance's corner to last instance's end — what
        ``QueryPlan.covered`` is built from."""
        ex = ExtractionShape((7, 5, 1))
        inter = ex.intermediate_space((365, 250, 200))
        last = ex.preimage(tuple(e - 1 for e in inter))
        assert Slab.from_extent(ex.origin, last.end) == Slab(
            (0, 0, 0), (364, 250, 200)
        )


class TestStrided:
    def test_stride_must_dominate_shape(self):
        with pytest.raises(GeometryError):
            ExtractionShape((3,), stride=(2,))

    def test_stride_rank_mismatch(self):
        with pytest.raises(RankMismatchError):
            ExtractionShape((3, 3), stride=(4,))

    def test_positional_arguments_still_construct(self):
        ex = ExtractionShape((2, 2), (10, 10), False)
        assert (ex.origin, ex.truncate, ex.stride) == ((10, 10), False, (2, 2))
        assert ex == ExtractionShape((2, 2), (10, 10), False, (2, 2))

    def test_translate_in_instance(self):
        ex = ExtractionShape((2,), stride=(4,))
        assert ex.translate((0,)) == (0,)
        assert ex.translate((1,)) == (0,)
        assert ex.translate((4,)) == (1,)

    def test_translate_in_gap(self):
        ex = ExtractionShape((2,), stride=(4,))
        assert ex.translate((2,)) is None
        assert ex.translate((3,)) is None

    def test_intermediate_space_truncate(self):
        # instances at 0..1, 4..5, 8..9 fit in 10 cells -> 3
        assert ExtractionShape((2,), stride=(4,)).intermediate_space((10,)) == (3,)
        # 9 cells: instance at 8..9 does not complete -> 2
        assert ExtractionShape((2,), stride=(4,)).intermediate_space((9,)) == (2,)

    def test_preimage(self):
        ex = ExtractionShape((2, 1), stride=(4, 2))
        assert ex.preimage((1, 2)) == Slab((4, 4), (2, 1))

    @given(st.data())
    @settings(max_examples=120)
    def test_image_superset_of_produced_keys(self, data):
        """Exact in both directions, as ``TestImage::test_image_is_exact``
        is for dense: every produced key is in the image, and every key
        in the image has a cell in the region."""
        rank = data.draw(st.integers(1, 2))
        shape = tuple(data.draw(st.integers(1, 3)) for _ in range(rank))
        stride = tuple(
            data.draw(st.integers(s, s + 3)) for s in shape
        )
        ex = ExtractionShape(shape, stride=stride)
        corner = tuple(data.draw(st.integers(0, 5)) for _ in range(rank))
        extent = tuple(data.draw(st.integers(1, 6)) for _ in range(rank))
        region = Slab(corner, extent)
        img = ex.image(region)
        for c in region.iter_coords():
            k = ex.translate(c)
            if k is not None:
                assert img.contains(k), (c, k, img)
        for k in img.iter_coords():
            assert ex.preimage(k).overlaps(region), (k, img)

    @given(st.data())
    @settings(max_examples=120)
    def test_gap_cells_have_no_key(self, data):
        shape = (data.draw(st.integers(1, 3)),)
        stride = (shape[0] + data.draw(st.integers(1, 3)),)
        ex = ExtractionShape(shape, stride=stride)
        x = data.draw(st.integers(0, 30))
        k = ex.translate((x,))
        phase = x % stride[0]
        if phase < shape[0]:
            assert k == (x // stride[0],)
        else:
            assert k is None

    @given(st.data())
    @settings(max_examples=150)
    def test_no_stride_is_stride_equal_to_shape(self, data):
        """``stride=None`` and ``stride=shape`` are one geometry, and it
        is the paper's dense arithmetic (§3: divide by the extraction
        shape), for both ``truncate`` settings."""
        rank = data.draw(st.integers(1, 3))
        shape = tuple(data.draw(st.integers(1, 4)) for _ in range(rank))
        origin = tuple(data.draw(st.integers(0, 3)) for _ in range(rank))
        truncate = data.draw(st.booleans())
        extent = tuple(data.draw(st.integers(s, s + 9)) for s in shape)
        corner = tuple(o + data.draw(st.integers(0, 6)) for o in origin)
        region = Slab(corner, tuple(data.draw(st.integers(1, 5)) for _ in shape))
        key = tuple(data.draw(st.integers(0, 8)) for _ in range(rank))

        space = tuple(
            d // s if truncate else -(-d // s) for d, s in zip(extent, shape)
        )
        image = Slab.from_extent(
            tuple((c - o) // s for c, o, s in zip(region.corner, origin, shape)),
            tuple(-(-(e - o) // s) for e, o, s in zip(region.end, origin, shape)),
        )
        dense = ExtractionShape(shape, origin, truncate)
        strided = ExtractionShape(shape, origin, truncate, stride=shape)
        assert dense == strided
        for ex in (dense, strided):
            assert ex.intermediate_space(extent) == space
            assert ex.image(region) == image
            assert ex.image(region, space) == image.intersect(Slab.whole(space))
            for c in region.iter_coords():
                assert ex.translate(c) == tuple(
                    (x - o) // s for x, o, s in zip(c, origin, shape)
                )
            assert ex.preimage(key) == Slab(
                tuple(o + k * s for o, k, s in zip(origin, key, shape)), shape
            )
