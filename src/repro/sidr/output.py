"""Output committing: from reduce records to on-disk scientific output.

Completes the §4.4 story as a production feature.  A SIDR job's reduce
task owns a contiguous keyblock; the committer turns each keyblock's
records into one dense :class:`~repro.scidata.sparse.ContiguousWriter`
file ("coordinates of individual points are relative to the origin of
that dense array"), and the assembler reconstructs the full output space
from any directory of parts.

For hash-partitioned (stock) jobs — whose keys are scattered — the
committer falls back to the sentinel-file strategy, making the Table 2
cost difference a one-flag experiment on real jobs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.arrays.shape import Shape
from repro.arrays.slab import Slab
from repro.errors import DatasetError, QueryError, ShuffleError
from repro.mapreduce.columnar import ResultBlock
from repro.mapreduce.engine import JobResult
from repro.scidata.sparse import (
    ContiguousWriter,
    SentinelFileWriter,
    read_contiguous_output,
)
from repro.sidr.planner import SIDRPlan


@dataclass(frozen=True)
class CommitReport:
    """Outcome of committing one job's output."""

    strategy: str
    files: tuple[str, ...]
    total_bytes: int
    total_seconds: float
    total_seeks: int


def commit_sidr_output(
    plan: SIDRPlan,
    result: JobResult,
    out_dir: str | os.PathLike,
    *,
    dtype: np.dtype = np.dtype("float64"),
) -> CommitReport:
    """Write each keyblock's output as a dense contiguous part file.

    Part files are named ``part-<reduce>-<n>.nc``; regions with
    non-scalar outputs (filter lists) are rejected — those use the
    coordinate/value layout instead (§4.4).  A keyblock's records are
    scattered into the dense array column-wise (a columnar job's
    :class:`ResultBlock` arrays as they are; a record list via one).
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    space = plan.query_plan.intermediate_space
    writer = ContiguousWriter(space, dtype=dtype)
    files: list[str] = []
    seconds = 0.0
    total = 0
    for l in sorted(result.outputs):
        out = result.outputs[l]
        try:
            block = (
                out if isinstance(out, ResultBlock) else ResultBlock.from_records(out)
            )
            values = np.asarray(block.values, dtype=np.float64)
        except (TypeError, ValueError, ShuffleError):
            # a ragged or range_exceeds column, or values no column holds
            values = None
        if values is None or values.ndim != 1:
            raise QueryError(
                "contiguous commit requires scalar outputs; use the "
                "coordinate/value layout for list-valued queries"
            )
        for n, region in enumerate(plan.output_region(l)):
            rel = block.key_rows.reshape(len(block), region.rank) - np.asarray(
                region.corner, dtype=np.int64
            )
            inside = ((rel >= 0) & (rel < np.asarray(region.shape))).all(axis=1)
            cells = tuple(rel[inside].T)
            covered = np.zeros(region.shape, dtype=bool)
            covered[cells] = True
            if not covered.all():
                gap = np.argwhere(~covered)[0] + np.asarray(region.corner)
                raise DatasetError(
                    f"reduce {l} missing output for key {tuple(gap.tolist())}"
                )
            dense = np.empty(region.shape, dtype=np.float64)
            dense[cells] = values[inside]
            path = out_dir / f"part-{l:05d}-{n}.nc"
            rep = writer.write(path, region, dense)
            files.append(str(path))
            seconds += rep.seconds
            total += rep.bytes_written
    return CommitReport(
        strategy="contiguous",
        files=tuple(files),
        total_bytes=total,
        total_seconds=seconds,
        total_seeks=0,
    )


def commit_stock_output(
    output_space: Shape,
    result: JobResult,
    out_dir: str | os.PathLike,
    *,
    sentinel: float = np.nan,
) -> CommitReport:
    """Sentinel-file commit for hash-partitioned jobs (§4.4): each reduce
    task writes a file the size of the entire output space with its
    scattered cells filled in."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    writer = SentinelFileWriter(output_space, sentinel=sentinel)
    files: list[str] = []
    seconds = 0.0
    total = 0
    seeks = 0
    for l in sorted(result.outputs):
        cells = [
            (Slab(k, tuple(1 for _ in k)), np.asarray([float(v)]))
            for k, v in result.outputs[l]
        ]
        path = out_dir / f"part-{l:05d}.nc"
        rep = writer.write(path, cells)
        files.append(str(path))
        seconds += rep.seconds
        total += rep.bytes_written
        seeks += rep.seeks
    return CommitReport(
        strategy="sentinel",
        files=tuple(files),
        total_bytes=total,
        total_seconds=seconds,
        total_seeks=seeks,
    )


def assemble_output(
    out_dir: str | os.PathLike, space: Shape
) -> np.ndarray:
    """Reconstruct the full output array from contiguous part files.

    Every cell must be covered exactly once; gaps raise (a silent NaN in
    scientific output is a corrupted result).
    """
    out_dir = Path(out_dir)
    parts = sorted(out_dir.glob("part-*.nc"))
    if not parts:
        raise DatasetError(f"no part files in {out_dir}")
    out = np.full(space, np.nan)
    for p in parts:
        block, values = read_contiguous_output(p)
        if not Slab.whole(space).contains_slab(block):
            raise DatasetError(f"{p} lies outside the output space {space}")
        region = out[block.as_slices()]
        if not np.isnan(region).all():
            raise DatasetError(f"{p} overlaps previously assembled output")
        out[block.as_slices()] = values
    if np.isnan(out).any():
        missing = int(np.isnan(out).sum())
        raise DatasetError(
            f"assembled output has {missing} uncovered cells"
        )
    return out
