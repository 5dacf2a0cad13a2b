"""The structural query language and its compiled plan.

A :class:`StructuralQuery` is SciHadoop's "simple, array-based query
language including an extraction shape" (§2.4): a variable, the
extraction shape (optionally strided), and the operator; a query reads
the whole variable.  Compiling it against dataset metadata yields a
:class:`QueryPlan` exposing everything SIDR derives "solely from
information found in, or derived from, the query specification combined
with the input metadata" (§3.1) — the plan keeps what it derived, not
the metadata:

* ``input_space``     — K_T, the variable's full space
* ``covered``         — the K region actually consumed after truncation
* ``intermediate_space`` — the exact K'_T shape
* key translation in both directions.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Any

import numpy as np

from repro.arrays.extraction import ExtractionShape
from repro.arrays.shape import Coord, Shape, volume
from repro.arrays.slab import Slab
from repro.errors import QueryError
from repro.query.operators import StructuralOperator


@dataclass(frozen=True)
class StructuralQuery:
    """User-facing query specification."""

    variable: str
    extraction_shape: Shape
    operator: StructuralOperator
    stride: Shape | None = None
    #: Keep clipped trailing instances instead of dropping them.
    keep_partial_instances: bool = False

    def compile(self, metadata: Any) -> "QueryPlan":
        """Validate against dataset metadata (a ``DatasetMetadata``: the
        variable's shape and dtype are all it reads) and build the plan."""
        var_shape = metadata.variable_shape(self.variable)
        rank = len(var_shape)
        if len(self.extraction_shape) != rank:
            raise QueryError(
                f"extraction shape rank {len(self.extraction_shape)} != "
                f"variable {self.variable!r} rank {rank}"
            )
        extraction = ExtractionShape(
            shape=self.extraction_shape,
            truncate=not self.keep_partial_instances,
            stride=self.stride,
        )
        inter = extraction.intermediate_space(var_shape)
        return QueryPlan(
            query=self,
            item_bytes=metadata.variable(self.variable).numpy_dtype.itemsize,
            input_space=var_shape,
            extraction=extraction,
            intermediate_space=inter,
        )


@dataclass(frozen=True)
class QueryPlan:
    """Compiled query: the variable's geometry and item size, read from
    the metadata at compile time, with everything derived from them.
    It holds nothing else of the dataset, so two datasets that agree on
    the variable's shape and dtype compile a query to equal plans."""

    query: StructuralQuery
    item_bytes: int
    input_space: Shape
    extraction: ExtractionShape
    intermediate_space: Shape

    # ------------------------------------------------------------------ #
    @property
    def variable(self) -> str:
        return self.query.variable

    @property
    def operator(self) -> StructuralOperator:
        return self.query.operator

    @cached_property
    def whole(self) -> Slab:
        """K_T as a slab: every instance is clipped to it."""
        return Slab.whole(self.input_space)

    @cached_property
    def covered(self) -> Slab:
        """The box of K actually consumed (truncation drops the rest):
        from the origin to the last instance's end, clipped to K_T — a
        kept partial instance ends where the variable does, not where
        its extraction shape would.  Under a stride the instances' union
        is not a slab; the box includes the gaps between them."""
        last = tuple(e - 1 for e in self.intermediate_space)
        return Slab.from_extent(
            self.whole.corner, self.extraction.preimage(last).end
        ).intersect(self.whole)

    @property
    def num_intermediate_keys(self) -> int:
        """|K'_T| — the exact, bounded intermediate key count (§3.1)."""
        return volume(self.intermediate_space)

    @property
    def cells_per_instance(self) -> int:
        return self.extraction.cells_per_key

    # ------------------------------------------------------------------ #
    # Key translation
    # ------------------------------------------------------------------ #
    def key_of(self, input_key: Coord) -> Coord | None:
        """Intermediate key for an input cell; None for stride gaps or
        truncated cells."""
        k = self.extraction.translate(input_key)
        if k is None:
            return None
        if any(not (0 <= x < e) for x, e in zip(k, self.intermediate_space)):
            return None
        return k

    def instance_region(self, key: Coord) -> Slab:
        """K region (instance) feeding intermediate key ``key``, clipped
        to K_T (edge instances clip when keep_partial_instances)."""
        slab = self.extraction.preimage(key)
        return slab.intersect(self.whole)

    def instance_cells(self, boxes: Iterable[Slab] | None = None) -> np.ndarray:
        """Source cells per key: an int64 array of shape K'_T holding
        each key's instance ∩ K_T cells, or with ``boxes`` (disjoint,
        e.g. splits' slabs) those of them inside the boxes — the ground
        truth behind the §3.2.1 count annotation.

        A box intersection's volume is the product of its 1-D overlaps,
        so each box adds the outer product of one overlap vector per
        axis, over the run of instances it meets: strides and clipped
        edge instances enter only through those vectors."""
        ex = self.extraction
        starts = [
            st * np.arange(n, dtype=np.int64)
            for st, n in zip(ex.stride, self.intermediate_space)
        ]
        out = np.zeros(self.intermediate_space, dtype=np.int64)
        for box in (self.whole,) if boxes is None else boxes:
            region = box.intersect(self.whole)
            index, vectors = [], []
            for start, sh, lo, hi in zip(starts, ex.shape, region.corner, region.end):
                overlap = np.minimum(start + sh, hi) - np.maximum(start, lo)
                # The instances an interval meets are a contiguous run.
                met = np.flatnonzero(overlap > 0)
                if not len(met):
                    break
                first, last = int(met[0]), int(met[-1]) + 1
                index.append(slice(first, last))
                vectors.append(overlap[first:last])
            else:
                out[tuple(index)] += reduce(np.multiply.outer, vectors)
        return out

    def image_of(self, region: Slab) -> Slab:
        """K' region a K region produces keys in (clipped to K'_T)."""
        return self.extraction.image(region, self.intermediate_space)

    # ------------------------------------------------------------------ #
    # Oracle
    # ------------------------------------------------------------------ #
    def reference_output(self, data: np.ndarray) -> dict[Coord, Any]:
        """Direct serial evaluation over an in-memory array — the oracle
        every engine configuration is compared against in tests.

        ``data`` must be the full variable array (global origin).
        """
        if tuple(data.shape) != self.input_space:
            raise QueryError(
                f"oracle data shape {data.shape} != variable space "
                f"{self.input_space}"
            )
        out: dict[Coord, Any] = {}
        for key in Slab.whole(self.intermediate_space).iter_coords():
            region = self.instance_region(key)
            cells = data[region.as_slices()]
            out[key] = self.operator.reference(cells)
        return out

    def describe(self) -> str:
        """Human-readable one-paragraph plan summary."""
        ex = self.extraction
        stride = f", stride={list(ex.stride)}" if ex.stride != ex.shape else ""
        return (
            f"{self.operator.name}({self.variable}) over "
            f"{list(self.input_space)} with extraction shape {list(ex.shape)}{stride}; "
            f"K'_T = {list(self.intermediate_space)} "
            f"({self.num_intermediate_keys} keys)"
        )
