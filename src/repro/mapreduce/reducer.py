"""Reducer interface and library reducers.

A reducer receives one key together with *all* of its values (guarantee 2
of §2.3 — the engine's sort-merge shuffle enforces it) and yields output
records.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Iterator, Sequence
from typing import Any, Callable

from repro.mapreduce.types import KeyValue


class Reducer(ABC):
    """User reduce function: one (key, values) group in, records out.

    The same interface serves as the combiner (Hadoop reuses the Reducer
    class for combiners); combiners must be semantically safe to apply
    zero or more times, which the engine does not verify — just like
    Hadoop.
    """

    @abstractmethod
    def reduce(self, key: Any, values: Sequence[Any]) -> Iterator[KeyValue]:
        """Yield output (k'', v'') records for one key group."""

    def setup(self) -> None:
        """Called once per reduce task before the first group."""

    def cleanup(self) -> Iterator[KeyValue]:
        """Called after the last group; may yield trailing records."""
        return iter(())


class ConcatReducer(Reducer):
    """Emit (key, list-of-values) — the raw grouped view."""

    def reduce(self, key: Any, values: Sequence[Any]) -> Iterator[KeyValue]:
        yield (key, list(values))


class FunctionReducer(Reducer):
    """Adapter for a plain function ``f(key, values) -> iterable``."""

    def __init__(self, fn: Callable[[Any, Sequence[Any]], Any]) -> None:
        self._fn = fn

    def reduce(self, key: Any, values: Sequence[Any]) -> Iterator[KeyValue]:
        yield from self._fn(key, values)


class AggregateReducer(Reducer):
    """Structural-query reducer: merge operator partials and finalize.

    Works with :class:`repro.mapreduce.mapper.ChunkAggregateMapper`: the
    grouped values are operator partials (one per contributing split, or
    fewer after combining); the operator merges them and produces the
    output cell value.
    """

    def __init__(self, operator: Any) -> None:
        self._op = operator

    def reduce(self, key: Any, values: Sequence[Any]) -> Iterator[KeyValue]:
        yield (key, self._op.finalize(self._op.combine(values)))


class CombinerAdapter(Reducer):
    """The :class:`AggregateReducer` that never finalizes — the combiner
    role: merge partials within one map task's output to cut shuffle
    volume (§3.2.1 explains why this is what makes early reduce starts
    need the count annotation)."""

    def __init__(self, operator: Any) -> None:
        self._op = operator

    def reduce(self, key: Any, values: Sequence[Any]) -> Iterator[KeyValue]:
        yield (key, self._op.combine(values))
