"""Mapper interface and a library of structural-query mappers.

A mapper consumes the (k, v) records a record reader emits for its split
and yields intermediate (k', v') records.  The generator style (yield
rather than an emit callback) keeps user code simple while preserving
Hadoop's streaming contract: the engine may consume output incrementally.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Iterator
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.errors import QueryError
from repro.mapreduce.types import KeyValue


class Mapper(ABC):
    """User map function: one input record in, zero or more out."""

    @abstractmethod
    def map(self, key: Any, value: Any) -> Iterator[KeyValue]:
        """Yield intermediate (k', v') records for one input record."""

    def setup(self) -> None:
        """Called once per map task before the first record."""

    def cleanup(self) -> Iterator[KeyValue]:
        """Called once after the last record; may yield trailing records."""
        return iter(())


class IdentityMapper(Mapper):
    """Pass records through unchanged."""

    def map(self, key: Any, value: Any) -> Iterator[KeyValue]:
        yield (key, value)


@dataclass(frozen=True)
class Chunk:
    """Cells of one extraction-shape instance present in one split.

    ``data`` is the flattened cell values; ``source_count`` equals
    ``data.size`` (kept explicit so record readers can assert it and the
    engine can tally it without touching the payload).
    """

    data: np.ndarray
    source_count: int

    def __post_init__(self) -> None:
        if self.source_count != np.asarray(self.data).size:
            raise QueryError(
                f"chunk source_count {self.source_count} != data size "
                f"{np.asarray(self.data).size}"
            )


class ChunkAggregateMapper(Mapper):
    """Structural-query mapper for chunked records.

    The scientific record reader emits ``(k', chunk)`` records where the
    key is already translated to K' and the chunk holds the cells of one
    extraction-shape instance present in this split (an instance may span
    splits, so the chunk can be partial).  This mapper applies a partial
    aggregation where the operator allows (distributive/algebraic
    operators), or forwards raw cells for holistic ones (median) — the
    per-operator choice is delegated to the operator object.
    """

    def __init__(self, operator: "Any") -> None:
        # `operator` is a repro.query.operators.StructuralOperator; typed
        # loosely to keep the mapreduce package independent of query.
        self._op = operator

    def map(self, key: Any, value: Any) -> Iterator[KeyValue]:
        yield (key, self._op.map_partial(value))
