"""Structural operators: the functions applied per extraction-shape
instance.

Each operator implements a three-stage protocol mirroring how a
MapReduce job evaluates it:

* ``map_partial(chunk)`` — map side: fold one chunk (the cells of one
  instance present in one split) into a partial state;
* ``combine(partials)`` — combiner/reduce side: merge partial states of
  the same intermediate key;
* ``finalize(partial)`` — reduce side: produce the output cell value.

``distributive`` marks operators whose partials are bounded-size
(mean/min/max/sum/count/stddev); holistic operators (median) carry all
raw values in their partials.  The distinction matters twice in the
paper: HOP-style early aggregation only works for distributive operators
(§5), and combiners shrink shuffle volume only for them.

Every :class:`Partial` carries ``source_count`` — the number of input
cells it represents — which is the §3.2.1 (approach 2) annotation the
engine and SIDR's validator rely on.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.errors import QueryError


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


@dataclass(frozen=True)
class Partial:
    """Operator partial state plus the source-record annotation."""

    state: Any
    source_count: int

    def __post_init__(self) -> None:
        if self.source_count < 0:
            raise QueryError("negative source_count")


class PrunePredicate(ABC):
    """Zone-map predicate allowing whole input regions to be skipped.

    An operator may expose one (see
    :meth:`StructuralOperator.prune_predicate`) when two facts hold for
    regions its :meth:`region_prunable` accepts:

    1. provably **no cell** in the region satisfies the operator's
       selection, given only a conservative ``[lo, hi]`` value envelope;
    2. the region's exact contribution to every overlapping key is the
       operator's combine identity, so dropping it cannot change any
       key's finalized output — and a key *all* of whose input was
       pruned finalizes to the constant :meth:`pruned_key_value`.

    Both are needed: pruning must be invisible in the output bytes, not
    just "approximately right".
    """

    @abstractmethod
    def region_prunable(self, lo: float, hi: float) -> bool:
        """May a region whose values all lie in ``[lo, hi]`` be skipped?"""

    @abstractmethod
    def pruned_key_value(self) -> Any:
        """Finalized output of a key whose entire input was pruned."""


class _GreaterThanPrune(PrunePredicate):
    """filter_gt: a region with max <= threshold contributes only empty
    passing-lists (the combine identity), and a fully-pruned key's
    output is the empty list."""

    def __init__(self, threshold: float) -> None:
        self.threshold = float(threshold)

    def region_prunable(self, lo: float, hi: float) -> bool:
        return hi <= self.threshold

    def pruned_key_value(self) -> list[float]:
        return []


class StructuralOperator(ABC):
    """Base class for per-instance operators."""

    #: Stable name used by the query language and benchmarks.
    name: str = "abstract"
    #: Partials are bounded-size and merge associatively.
    distributive: bool = True

    @abstractmethod
    def map_partial(self, chunk: Chunk) -> Partial: ...

    @abstractmethod
    def combine(self, partials: Sequence[Partial]) -> Partial: ...

    @abstractmethod
    def finalize(self, partial: Partial) -> Any: ...

    def prune_predicate(self) -> PrunePredicate | None:
        """Zone-map pruning predicate, or None when the operator's
        output depends on every cell (the common case: any aggregate
        whose value changes with non-matching data)."""
        return None

    def reference(self, values: np.ndarray) -> Any:
        """Direct evaluation over all of an instance's cells — the serial
        oracle tests compare MapReduce output against."""
        chunk = Chunk(np.asarray(values).reshape(-1), int(np.asarray(values).size))
        return self.finalize(self.map_partial(chunk))


def _require_partials(partials: Sequence[Partial]) -> None:
    if not partials:
        raise QueryError("combine() of zero partials")


class SumOp(StructuralOperator):
    name = "sum"

    def map_partial(self, chunk: Chunk) -> Partial:
        return Partial(float(np.sum(chunk.data)), chunk.source_count)

    def combine(self, partials: Sequence[Partial]) -> Partial:
        _require_partials(partials)
        return Partial(
            float(sum(p.state for p in partials)),
            sum(p.source_count for p in partials),
        )

    def finalize(self, partial: Partial) -> float:
        return float(partial.state)


class CountOp(StructuralOperator):
    name = "count"

    def map_partial(self, chunk: Chunk) -> Partial:
        return Partial(int(np.asarray(chunk.data).size), chunk.source_count)

    def combine(self, partials: Sequence[Partial]) -> Partial:
        _require_partials(partials)
        return Partial(
            int(sum(p.state for p in partials)),
            sum(p.source_count for p in partials),
        )

    def finalize(self, partial: Partial) -> int:
        return int(partial.state)


class MeanOp(StructuralOperator):
    name = "mean"

    def map_partial(self, chunk: Chunk) -> Partial:
        arr = np.asarray(chunk.data, dtype=np.float64)
        return Partial((float(arr.sum()), int(arr.size)), chunk.source_count)

    def combine(self, partials: Sequence[Partial]) -> Partial:
        _require_partials(partials)
        total = sum(p.state[0] for p in partials)
        count = sum(p.state[1] for p in partials)
        return Partial((total, count), sum(p.source_count for p in partials))

    def finalize(self, partial: Partial) -> float:
        total, count = partial.state
        if count == 0:
            raise QueryError("mean of zero cells")
        return total / count


class MinOp(StructuralOperator):
    name = "min"

    def map_partial(self, chunk: Chunk) -> Partial:
        return Partial(float(np.min(chunk.data)), chunk.source_count)

    def combine(self, partials: Sequence[Partial]) -> Partial:
        _require_partials(partials)
        return Partial(
            min(p.state for p in partials),
            sum(p.source_count for p in partials),
        )

    def finalize(self, partial: Partial) -> float:
        return float(partial.state)


class MaxOp(StructuralOperator):
    name = "max"

    def map_partial(self, chunk: Chunk) -> Partial:
        return Partial(float(np.max(chunk.data)), chunk.source_count)

    def combine(self, partials: Sequence[Partial]) -> Partial:
        _require_partials(partials)
        return Partial(
            max(p.state for p in partials),
            sum(p.source_count for p in partials),
        )

    def finalize(self, partial: Partial) -> float:
        return float(partial.state)


class StdDevOp(StructuralOperator):
    """Population standard deviation via (count, sum, sum-of-squares) —
    algebraic, so distributive in the combiner sense."""

    name = "stddev"

    def map_partial(self, chunk: Chunk) -> Partial:
        arr = np.asarray(chunk.data, dtype=np.float64)
        return Partial(
            (int(arr.size), float(arr.sum()), float(np.square(arr).sum())),
            chunk.source_count,
        )

    def combine(self, partials: Sequence[Partial]) -> Partial:
        _require_partials(partials)
        n = sum(p.state[0] for p in partials)
        s = sum(p.state[1] for p in partials)
        ss = sum(p.state[2] for p in partials)
        return Partial((n, s, ss), sum(p.source_count for p in partials))

    def finalize(self, partial: Partial) -> float:
        n, s, ss = partial.state
        if n == 0:
            raise QueryError("stddev of zero cells")
        mean = s / n
        # ``mean * mean``, not ``mean ** 2``: multiplication is an IEEE
        # operation that rounds identically everywhere (so the columnar
        # plane's array expression is byte-identical), whereas ``** 2``
        # goes through libm ``pow`` — last-ulp different for ~0.1 % of
        # inputs, and an OverflowError where multiplication gives inf.
        var = max(0.0, ss / n - mean * mean)
        return float(np.sqrt(var))


class MedianOp(StructuralOperator):
    """Query 1's operator.  Holistic: the median needs every cell, so
    partials carry raw values and only concatenate when combined."""

    name = "median"
    distributive = False

    def map_partial(self, chunk: Chunk) -> Partial:
        arr = np.asarray(chunk.data, dtype=np.float64).reshape(-1)
        return Partial(arr, chunk.source_count)

    def combine(self, partials: Sequence[Partial]) -> Partial:
        _require_partials(partials)
        state = np.concatenate([np.asarray(p.state).reshape(-1) for p in partials])
        return Partial(state, sum(p.source_count for p in partials))

    def finalize(self, partial: Partial) -> float:
        arr = np.asarray(partial.state)
        if arr.size == 0:
            raise QueryError("median of zero cells")
        return float(np.median(arr))


class ThresholdFilterOp(StructuralOperator):
    """Query 2's operator: per instance, the list of values exceeding a
    threshold ("results will contain a list of all values greater than
    the threshold", §4.1) — possibly empty (§2.4.2: "a list of zero or
    more results may be produced")."""

    name = "filter_gt"
    distributive = True  # partials are the (usually tiny) passing subsets

    def __init__(self, threshold: float) -> None:
        self.threshold = float(threshold)

    def map_partial(self, chunk: Chunk) -> Partial:
        arr = np.asarray(chunk.data, dtype=np.float64).reshape(-1)
        return Partial(arr[arr > self.threshold], chunk.source_count)

    def combine(self, partials: Sequence[Partial]) -> Partial:
        _require_partials(partials)
        state = np.concatenate([np.asarray(p.state).reshape(-1) for p in partials])
        return Partial(state, sum(p.source_count for p in partials))

    def finalize(self, partial: Partial) -> list[float]:
        return sorted(float(x) for x in np.asarray(partial.state).reshape(-1))

    def prune_predicate(self) -> PrunePredicate:
        return _GreaterThanPrune(self.threshold)


class RangeOp(StructuralOperator):
    """max - min per instance — the paper's §2.2 query 2 building block
    ("find all locations where the 24-hour temperature variations exceed
    X" is a range computation followed by a threshold).  Algebraic:
    partials carry (min, max)."""

    name = "range"

    def map_partial(self, chunk: Chunk) -> Partial:
        arr = np.asarray(chunk.data, dtype=np.float64)
        return Partial((float(arr.min()), float(arr.max())), chunk.source_count)

    def combine(self, partials: Sequence[Partial]) -> Partial:
        _require_partials(partials)
        lo = min(p.state[0] for p in partials)
        hi = max(p.state[1] for p in partials)
        return Partial((lo, hi), sum(p.source_count for p in partials))

    def finalize(self, partial: Partial) -> float:
        lo, hi = partial.state
        return hi - lo


class RangeExceedsOp(StructuralOperator):
    """§2.2 query 2 exactly: does the per-instance variation (max - min)
    exceed a threshold?  Output is the boolean flag plus the variation —
    enough for the "find all locations where..." selection downstream.

    Deliberately *not* split-prunable: even an instance that provably
    cannot exceed the threshold still outputs its data-dependent
    ``variation``, so no region's contribution is a combine identity
    (``prune_predicate`` stays None; see docs/PERFORMANCE.md)."""

    name = "range_exceeds"

    def __init__(self, threshold: float) -> None:
        self.threshold = float(threshold)

    def map_partial(self, chunk: Chunk) -> Partial:
        arr = np.asarray(chunk.data, dtype=np.float64)
        return Partial((float(arr.min()), float(arr.max())), chunk.source_count)

    def combine(self, partials: Sequence[Partial]) -> Partial:
        _require_partials(partials)
        lo = min(p.state[0] for p in partials)
        hi = max(p.state[1] for p in partials)
        return Partial((lo, hi), sum(p.source_count for p in partials))

    def finalize(self, partial: Partial) -> dict:
        lo, hi = partial.state
        variation = hi - lo
        return {"exceeds": variation > self.threshold, "variation": variation}


class SortOp(StructuralOperator):
    """§2.2 query 3: "sort the data points for each day by temperature".
    Holistic; the output per instance is its cells in sorted order."""

    name = "sort"
    distributive = False

    def map_partial(self, chunk: Chunk) -> Partial:
        arr = np.asarray(chunk.data, dtype=np.float64).reshape(-1)
        return Partial(np.sort(arr), chunk.source_count)

    def combine(self, partials: Sequence[Partial]) -> Partial:
        _require_partials(partials)
        # Merge of sorted runs; concatenate+sort is O(n log n) but the
        # runs are small per instance.
        state = np.sort(
            np.concatenate([np.asarray(p.state).reshape(-1) for p in partials])
        )
        return Partial(state, sum(p.source_count for p in partials))

    def finalize(self, partial: Partial) -> list[float]:
        return [float(x) for x in np.asarray(partial.state).reshape(-1)]

    def reference(self, values: np.ndarray) -> list[float]:
        return sorted(float(x) for x in np.asarray(values).reshape(-1))


_REGISTRY: dict[str, type[StructuralOperator]] = {
    op.name: op
    for op in (
        SumOp, CountOp, MeanOp, MinOp, MaxOp, StdDevOp, MedianOp, RangeOp,
        SortOp,
    )
}


def get_operator(name: str, **params: Any) -> StructuralOperator:
    """Instantiate an operator by name (``filter_gt`` and
    ``range_exceeds`` take ``threshold``)."""
    if name == ThresholdFilterOp.name:
        if "threshold" not in params:
            raise QueryError("filter_gt requires a threshold parameter")
        return ThresholdFilterOp(params["threshold"])
    if name == RangeExceedsOp.name:
        if "threshold" not in params:
            raise QueryError("range_exceeds requires a threshold parameter")
        return RangeExceedsOp(params["threshold"])
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise QueryError(
            f"unknown operator {name!r}; known: "
            f"{sorted(_REGISTRY) + [ThresholdFilterOp.name, RangeExceedsOp.name]}"
        ) from None
    if params:
        raise QueryError(f"operator {name!r} takes no parameters")
    return cls()
