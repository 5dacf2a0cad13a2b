"""Partition functions: intermediate key -> keyblock index.

Hadoop's default "assigns intermediate key/value pairs to keyblocks by
taking the modulo value of the key's binary representation by the number
of Reduce tasks" (§3.1).  For coordinate keys we reproduce Hadoop's
semantics with a Java-style 32-bit rolling hash over the key components
(`h = 31*h + x`, Java ``Arrays.hashCode``), masked to the positive int
range and taken modulo the reducer count.

This hash also reproduces §4.3's pathology: when every key component is
even (e.g. keys expressed as extraction-instance *corners* with an even
extraction shape), ``h`` has constant parity, so with an even reducer
count half the reduce tasks receive no data and the other half receive
double — Figure 13's workload.

:class:`RangePartitioner` partitions by contiguous row-major linear-index
ranges; it is the engine-facing shape of SIDR's partition+ (the planner
in :mod:`repro.sidr.partition_plus` constructs one from keyblocks).

All partitioners are vectorizable (``partition_many``) because the
paper's §4.5 micro-benchmark times partitioning millions of keys;
``partition_runs`` takes the columnar plane's keys as they travel,
``[start, stop)`` runs of row-major indices into K'_T, which only the
range partitioner cuts without spelling a key out.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any

import numpy as np

from repro.arrays.linearize import coord_to_index, coords_to_indices, expand_runs
from repro.arrays.shape import Shape, volume
from repro.errors import PartitionError

_MASK32 = 0xFFFFFFFF
_MAX_INT = 0x7FFFFFFF


class KeyHash(ABC):
    """Hash of an intermediate key to a non-negative integer."""

    @abstractmethod
    def hash_key(self, key: Any) -> int: ...

    @abstractmethod
    def hash_many(self, keys: np.ndarray) -> np.ndarray:
        """Vectorized hash of an (n, rank) int coordinate array."""


class JavaStyleKeyHash(KeyHash):
    """Java ``Arrays.hashCode`` over key components with 32-bit overflow.

    This is the "binary representation" hash of §3.1/§4.3: patterned key
    components produce patterned hashes.
    """

    def hash_key(self, key: Any) -> int:
        if isinstance(key, int):
            components = (key,)
        else:
            components = tuple(key)
        h = 1
        for x in components:
            h = (31 * h + int(x)) & _MASK32
        return h & _MAX_INT

    def hash_many(self, keys: np.ndarray) -> np.ndarray:
        keys = np.asarray(keys, dtype=np.int64)
        if keys.ndim == 1:
            keys = keys[:, None]
        h = np.ones(keys.shape[0], dtype=np.int64)
        for c in range(keys.shape[1]):
            h = (31 * h + keys[:, c]) & _MASK32
        return h & _MAX_INT


class LinearIndexHash(KeyHash):
    """Hash a coordinate key by its row-major linear index in a space.

    The densest possible hash for in-bounds coordinate keys; useful as a
    contrast case in tests and ablations.
    """

    def __init__(self, space: Shape) -> None:
        if volume(space) <= 0:
            raise PartitionError(f"invalid key space {space!r}")
        self.space = tuple(space)

    def hash_key(self, key: Any) -> int:
        return coord_to_index(tuple(key), self.space)

    def hash_many(self, keys: np.ndarray) -> np.ndarray:
        return coords_to_indices(np.asarray(keys, dtype=np.int64), self.space)


class Partitioner(ABC):
    """Deterministic assignment of intermediate keys to keyblocks."""

    @abstractmethod
    def partition(self, key: Any, num_partitions: int) -> int: ...

    def partition_many(self, keys: np.ndarray, num_partitions: int) -> np.ndarray:
        """Vectorized partition; default falls back to the scalar path."""
        return np.fromiter(
            (self.partition(tuple(k), num_partitions) for k in np.asarray(keys)),
            dtype=np.int64,
            count=len(keys),
        )

    def partition_runs(
        self, runs: np.ndarray, space: Shape, num_partitions: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Increasing, disjoint ``[start, stop)`` runs of row-major
        indices into ``space``, cut so that each lies in one partition,
        and each one's partition.  This default partitions every key."""
        keys = expand_runs(runs)
        coords = np.stack(np.unravel_index(keys, space), axis=1)
        parts = self.partition_many(coords, num_partitions)
        ends = np.flatnonzero((keys[1:] != keys[:-1] + 1) | (parts[1:] != parts[:-1]))
        firsts, stops = np.append(0, ends + 1), np.append(keys[ends], keys[-1]) + 1
        return np.stack((keys[firsts], stops), axis=1), parts[firsts]


class HashPartitioner(Partitioner):
    """Hadoop's default: ``(hash(key) & MAX_INT) % numReduceTasks``."""

    def __init__(self, key_hash: KeyHash | None = None) -> None:
        self.key_hash = key_hash or JavaStyleKeyHash()

    def partition(self, key: Any, num_partitions: int) -> int:
        if num_partitions <= 0:
            raise PartitionError("num_partitions must be positive")
        return self.key_hash.hash_key(key) % num_partitions

    def partition_many(self, keys: np.ndarray, num_partitions: int) -> np.ndarray:
        if num_partitions <= 0:
            raise PartitionError("num_partitions must be positive")
        return self.key_hash.hash_many(keys) % num_partitions


class RangePartitioner(Partitioner):
    """Contiguous row-major linear-index ranges over a known key space.

    ``boundaries`` holds the exclusive upper linear index of each
    partition; partition ``i`` owns indices ``[boundaries[i-1],
    boundaries[i])``.  SIDR's partition+ produces these boundaries so
    that each partition is a whole number of unit-shape instances
    (paper §3.1, Figure 7).
    """

    def __init__(self, space: Shape, boundaries: list[int]) -> None:
        vol = volume(space)
        if not boundaries:
            raise PartitionError("empty boundary list")
        if boundaries[-1] != vol:
            raise PartitionError(
                f"last boundary {boundaries[-1]} must equal key-space volume {vol}"
            )
        if any(b <= a for a, b in zip(boundaries, boundaries[1:])):
            raise PartitionError(f"boundaries not strictly increasing: {boundaries}")
        if boundaries[0] <= 0:
            raise PartitionError("first boundary must be positive")
        self.space = tuple(space)
        self.boundaries = np.asarray(boundaries, dtype=np.int64)

    @property
    def num_partitions(self) -> int:
        return len(self.boundaries)

    def partition(self, key: Any, num_partitions: int) -> int:
        self._check_n(num_partitions)
        idx = coord_to_index(tuple(key), self.space)
        return int(np.searchsorted(self.boundaries, idx, side="right"))

    def partition_many(self, keys: np.ndarray, num_partitions: int) -> np.ndarray:
        self._check_n(num_partitions)
        idx = coords_to_indices(np.asarray(keys, dtype=np.int64), self.space)
        return np.searchsorted(self.boundaries, idx, side="right").astype(np.int64)

    def partition_runs(
        self, runs: np.ndarray, space: Shape, num_partitions: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """No key spelt out: a run's partition is its start's, and a run
        past its partition's bound is split at the boundaries inside it."""
        if tuple(space) != self.space:
            return super().partition_runs(runs, space, num_partitions)
        self._check_n(num_partitions)
        b = self.boundaries
        parts = b.searchsorted(runs[:, 0], side="right")
        if (runs[:, 1] > b[parts]).any():
            # Inside a run: an odd number of run bounds below and up to it.
            flat = runs.ravel()
            odd = flat.searchsorted(b) & flat.searchsorted(b, side="right") & 1
            inside = b[odd == 1]
            runs = np.sort(np.concatenate((flat, inside, inside))).reshape(-1, 2)
            parts = b.searchsorted(runs[:, 0], side="right")
        return runs, parts

    def _check_n(self, num_partitions: int) -> None:
        if num_partitions != self.num_partitions:
            raise PartitionError(
                f"RangePartitioner built for {self.num_partitions} partitions, "
                f"asked for {num_partitions}"
            )
