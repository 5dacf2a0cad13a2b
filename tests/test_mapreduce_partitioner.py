"""Unit and property tests for partition functions — including the §4.3
skew pathology."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PartitionError
from repro.mapreduce.partitioner import HashPartitioner, RangePartitioner


class TestJavaHash:
    def test_deterministic(self):
        h = HashPartitioner()
        assert h.hash_key((3, 4, 5)) == h.hash_key((3, 4, 5))

    def test_scalar_int_keys(self):
        h = HashPartitioner()
        assert h.hash_key(7) == h.hash_key((7,))

    def test_non_negative(self):
        h = HashPartitioner()
        assert h.hash_key((2**31 - 1, 2**31 - 1)) >= 0

    def test_vectorized_matches_scalar(self):
        h = HashPartitioner()
        keys = np.array([[0, 0], [1, 2], [1000, 2000], [7, 7]])
        got = h.hash_many(keys)
        assert got.tolist() == [h.hash_key(tuple(k)) for k in keys]

    def test_even_keys_constant_parity(self):
        """The §4.3 pathology: all-even key components give hashes of one
        parity, so modulo an even reducer count only half the reducers
        receive data."""
        h = HashPartitioner()
        parities = {
            h.hash_key((2 * a, 2 * b, 2 * c)) % 2
            for a in range(5)
            for b in range(5)
            for c in range(5)
        }
        assert len(parities) == 1

    @given(st.lists(st.integers(0, 1000), min_size=1, max_size=4))
    def test_vectorized_agrees(self, key):
        h = HashPartitioner()
        arr = np.array([key])
        assert h.hash_many(arr)[0] == h.hash_key(tuple(key))


class TestHashPartitioner:
    def test_range(self):
        p = HashPartitioner()
        for k in [(0,), (5, 5), (123, 456, 789)]:
            assert 0 <= p.partition(k, 7) < 7

    def test_skew_on_even_keys(self):
        """Figure 13's setup: patterned (all-even) keys starve half the
        reduce tasks under Hadoop's partitioner."""
        p = HashPartitioner()
        targets = {
            p.partition((2 * a, 2 * b), 22) for a in range(40) for b in range(40)
        }
        # Only one parity class of the 22 partitions is ever hit.
        assert len(targets) <= 11

    def test_dense_keys_spread(self):
        """Un-patterned keys spread over all partitions."""
        p = HashPartitioner()
        targets = {p.partition((a, b), 8) for a in range(20) for b in range(20)}
        assert len(targets) == 8

    def test_invalid_partition_count(self):
        with pytest.raises(PartitionError):
            HashPartitioner().partition((1,), 0)

    def test_partition_many_matches_scalar(self):
        p = HashPartitioner()
        keys = np.array([[i, j] for i in range(10) for j in range(10)])
        got = p.partition_many(keys, 5)
        want = [p.partition(tuple(k), 5) for k in keys]
        assert got.tolist() == want


class TestRangePartitioner:
    def test_boundaries_validation(self):
        with pytest.raises(PartitionError):
            RangePartitioner((10,), [])
        with pytest.raises(PartitionError):
            RangePartitioner((10,), [5, 9])  # last != volume
        with pytest.raises(PartitionError):
            RangePartitioner((10,), [5, 5, 10])  # not strictly increasing
        with pytest.raises(PartitionError):
            RangePartitioner((10,), [0, 10])  # empty first partition

    def test_partition_lookup(self):
        p = RangePartitioner((10,), [4, 8, 10])
        assert p.partition((0,), 3) == 0
        assert p.partition((3,), 3) == 0
        assert p.partition((4,), 3) == 1
        assert p.partition((9,), 3) == 2

    def test_wrong_count_rejected(self):
        p = RangePartitioner((10,), [4, 8, 10])
        with pytest.raises(PartitionError):
            p.partition((0,), 4)

    def test_partition_many_matches_scalar(self):
        p = RangePartitioner((4, 5), [7, 14, 20])
        keys = np.array([[i, j] for i in range(4) for j in range(5)])
        got = p.partition_many(keys, 3)
        want = [p.partition(tuple(k), 3) for k in keys]
        assert got.tolist() == want

    @given(st.data())
    @settings(max_examples=80)
    def test_contiguous_and_total(self, data):
        """Every key lands in exactly one partition and partitions are
        contiguous in row-major order."""
        space = tuple(
            data.draw(st.integers(1, 5))
            for _ in range(data.draw(st.integers(1, 3)))
        )
        from repro.arrays.shape import volume

        vol = volume(space)
        n = data.draw(st.integers(1, min(4, vol)))
        if n > 1:
            cuts = sorted(
                data.draw(
                    st.lists(
                        st.integers(1, vol - 1),
                        min_size=n - 1,
                        max_size=n - 1,
                        unique=True,
                    )
                )
            ) + [vol]
        else:
            cuts = [vol]
        p = RangePartitioner(space, cuts)
        from repro.arrays.slab import Slab

        last = 0
        for c in Slab.whole(space).iter_coords():
            part = p.partition(c, n)
            assert part >= last  # monotone in row-major order
            last = part
