#!/usr/bin/env python3
"""Extending SIDR with a user-defined structural operator.

The operator protocol is three methods (map-side fold, associative
combine, reduce-side finalize) plus the source-count bookkeeping that
keeps the §3.2.1 validation working.  A user-defined operator
subclasses ``StructuralOperator``, runs on the record plane
(``data_plane="record"``: only the built-in operators, rows of one
table, have a columnar reading), and its ``reference`` is its own — the
oracle has no independent definition of it.  This example builds **ArgMaxOp**:
for each extraction-shape instance, the *global coordinate* of its
hottest cell — e.g. "where exactly was the weekly temperature peak in
each latitude band?"

The interesting wrinkle: chunks arrive as flattened cells of a *split's
portion* of an instance, so the operator cannot recover coordinates from
the chunk alone.  The solution mirrors how real SciHadoop operators
work: the mapper wraps chunks with their region geometry before folding
(a RegionChunk), which the chunked record reader supports via a custom
mapper.

Run:  python examples/custom_operator.py
"""

from dataclasses import dataclass
from typing import Any, Iterator, Sequence

import numpy as np

from repro import LocalEngine, StructuralQuery, slice_splits, temperature_dataset
from repro.arrays.slab import Slab
from repro.mapreduce.mapper import Mapper
from repro.mapreduce.types import KeyValue
from repro.query.operators import Chunk, Partial, StructuralOperator
from repro.query.recordreader import StructuralRecordReader
from repro.sidr.planner import build_sidr_job


class ArgMaxOp(StructuralOperator):
    """Per instance: (max value, global coordinate of that value).

    Partial state is ``(value, coord)``; combining keeps the larger —
    associative and commutative, so combiner-safe.  Ties break toward
    the smaller coordinate for determinism.
    """

    name = "argmax"

    def map_partial(self, chunk: Chunk) -> Partial:
        # Expects a region-annotated chunk (see RegionMapper below).
        region: Slab = chunk.region  # type: ignore[attr-defined]
        data = np.asarray(chunk.data).reshape(region.shape)
        flat_idx = int(np.argmax(data))
        rel = np.unravel_index(flat_idx, region.shape)
        coord = tuple(int(c + o) for c, o in zip(rel, region.corner))
        return Partial((float(data.reshape(-1)[flat_idx]), coord),
                       chunk.source_count)

    def combine(self, partials: Sequence[Partial]) -> Partial:
        best = max(
            (p.state for p in partials),
            key=lambda s: (s[0], tuple(-c for c in s[1])),
        )
        return Partial(best, sum(p.source_count for p in partials))

    def finalize(self, partial: Partial) -> dict:
        value, coord = partial.state
        return {"value": value, "at": coord}

    def reference(self, values: np.ndarray) -> Any:  # oracle for tests
        raise NotImplementedError(
            "argmax needs coordinates; use the explicit oracle below"
        )


@dataclass(frozen=True)
class RegionChunk(Chunk):
    """A chunk that remembers where its cells came from."""

    region: Slab = None  # type: ignore[assignment]


class RegionMapper(Mapper):
    """Re-reads each instance region's geometry and folds with ArgMaxOp.

    The stock ``StructuralRecordReader`` flattens chunks; this mapper
    variant keeps the geometry by re-deriving each emitted chunk's region
    from the plan (instance ∩ split), then applies ``map_partial``.
    """

    def __init__(self, plan, split, op):
        self._plan = plan
        self._split = split
        self._op = op

    def map(self, key: Any, value: Any) -> Iterator[KeyValue]:
        # `value` is the reader's flat Chunk; recover its region.
        region = self._plan.instance_region(key)
        for slab in self._split.slabs:
            part = region.intersect(slab.intersect(self._plan.covered))
            if part.is_empty or part.volume != value.source_count:
                continue
            rc = RegionChunk(value.data, value.source_count, region=part)
            yield (key, self._op.map_partial(rc))
            return
        raise RuntimeError("could not locate chunk region")


def main() -> None:
    field = temperature_dataset(days=364, lat=30, lon=20, seed=33)
    data = field.arrays["temperature"].astype(np.float64)

    op = ArgMaxOp()
    query = StructuralQuery(
        variable="temperature",
        extraction_shape=(7, 10, 20),   # weekly, per 10-lat band, all lons
        operator=op,
    )
    plan = query.compile(field.metadata)
    print("== Custom-operator query ==")
    print(plan.describe())

    splits = slice_splits(plan, num_splits=12)
    # A user-defined operator has no columnar definition: it runs on the
    # record plane, the engine of Mapper/Reducer objects.
    job, barrier, sidr = build_sidr_job(
        plan, splits, 4, data, data_plane="record"
    )
    # Swap in the region-aware mapper (reader stays stock).
    split_by_index = {sp.index: sp for sp in splits}
    original_reader = job.reader_factory

    class _PerSplitMapper(Mapper):
        """The engine builds one mapper per task but doesn't tell it the
        split; thread it through the reader wrapper instead."""

        def map(self, key, value):
            yield (key, value)

    def reader_with_mapping(split):
        mapper = RegionMapper(plan, split, op)
        for k, v in original_reader(split):
            yield from mapper.map(k, v)

    job.reader_factory = reader_with_mapping
    job.mapper_factory = _PerSplitMapper

    res = LocalEngine().run_serial(job, barrier)
    got = dict(res.all_records())

    # Explicit oracle (argmax needs coordinates, so reference_output
    # can't be used directly).
    mismatches = 0
    for key in got:
        region = plan.instance_region(key)
        cells = data[region.as_slices()]
        idx = np.unravel_index(int(np.argmax(cells)), cells.shape)
        coord = tuple(int(c + o) for c, o in zip(idx, region.corner))
        want = {"value": float(cells.max()), "at": coord}
        if got[key] != want:
            mismatches += 1
    print(f"\nmatched the explicit oracle on {len(got) - mismatches}/"
          f"{len(got)} instances")
    assert mismatches == 0

    hottest = max(got.items(), key=lambda kv: kv[1]["value"])
    print(f"hottest weekly reading: {hottest[1]['value']:.1f} degF at "
          f"(day, lat, lon) = {hottest[1]['at']} "
          f"(week {hottest[0][0]}, band {hottest[0][1]})")
    print(f"count-annotation validation passed for all "
          f"{sidr.num_reduce_tasks} reduce tasks")


if __name__ == "__main__":
    main()
