"""Record data plane: the per-record map and reduce task bodies.

The counterpart of :mod:`repro.mapreduce.columnar` — one key/value at a
time through ``Mapper``/``Reducer`` objects, sorted runs through a
k-way merge.  The attempt loop, fault injection and fetch plumbing
around the bodies belong to :mod:`repro.mapreduce.engine`.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.arrays.linearize import expand_runs
from repro.errors import InjectedFaultError, ShuffleError
from repro.mapreduce.columnar import synthesized_keys
from repro.mapreduce.counters import Counters
from repro.mapreduce.job import JobConf
from repro.mapreduce.mapper import Chunk
from repro.mapreduce.shuffle import MapOutputFile, ShuffleStore
from repro.mapreduce.sortmerge import group_sorted, merge_segments, sort_records
from repro.mapreduce.types import KeyValue, MapTaskId
from repro.obs import COUNT_BUCKETS, JobObservability
from repro.spec import CancelToken


def run_record_map(
    job: JobConf,
    split_index: int,
    store: ShuffleStore,
    counters: Counters,
    obs: JobObservability,
    task: tuple[str, int, int] | None,
    *,
    attempt: int = 0,
    corrupt: bool = False,
    cancel: CancelToken | None = None,
) -> None:
    """Record-plane map-task body (read → partition → combine → spill).

    Mirrors :func:`run_columnar_map`; the engine's ``_run_map`` wraps
    it in fault injection.
    """
    split = job.splits[split_index]
    mapper = job.mapper_factory()
    mapper.setup()
    # Partition intermediate records as they are produced — Hadoop
    # partitions in-line with map execution (§4.5).
    buckets: dict[int, list[KeyValue]] = {}
    n = job.num_reduce_tasks
    records_in = 0
    records_out = 0

    def consume(kv_iter) -> None:
        nonlocal records_out
        for k2, v2 in kv_iter:
            p = job.partitioner.partition(k2, n)
            if not (0 <= p < n):
                raise ShuffleError(
                    f"partitioner returned {p} for {n} reduce tasks"
                )
            buckets.setdefault(p, []).append((k2, v2))
            records_out += 1

    # The reader streams into the mapper, so reading and mapping
    # share one phase (see docs/OBSERVABILITY.md).
    with obs.phase("map.read", task) as read:
        for k, v in job.reader_factory(split):
            # Per-record cancellation/liveness checkpoint: a clock
            # read plus a flag probe, cheap enough for the record hot
            # path.
            if cancel is not None:
                cancel.check()
            records_in += 1
            consume(mapper.map(k, v))
        consume(mapper.cleanup())
        read["records"] = records_out
    counters.update({
        "map.input.records": records_in,
        "map.output.records": records_out,
    })

    # Source-count annotation: before combining, every intermediate
    # record represents exactly one source record of this map.  (For
    # chunked structural readers each record already aggregates a
    # chunk; the reader is responsible for emitting per-record source
    # counts via the value's `source_count` attribute/key.)
    with obs.phase("map.spill", task):
        files: list[MapOutputFile] = []
        for p, recs in buckets.items():
            src = 0
            for _k, v in recs:
                src += _source_count_of(v)
            if job.combiner_factory is not None:
                combiner = job.combiner_factory()
                counters.increment("combine.input.records", len(recs))
                combined: list[KeyValue] = []
                for k2, vals in group_sorted(sort_records(recs)):
                    combined.extend(combiner.reduce(k2, vals))
                recs = combined
                counters.increment("combine.output.records", len(recs))
            run = tuple(sort_records(recs))
            if corrupt:
                # Injected torn spill: reversing the sorted run
                # breaks key order, so MapOutputFile validation
                # rejects the commit and the attempt fails here.
                run = tuple(reversed(run))
            try:
                files.append(
                    MapOutputFile(
                        map_id=MapTaskId(split_index),
                        partition=p,
                        records=run,
                        source_records=src,
                    )
                )
            except ShuffleError as exc:
                if not corrupt:
                    raise
                raise InjectedFaultError(
                    f"injected corrupt-spill fault in map {split_index} "
                    f"(attempt {attempt}): {exc}"
                ) from exc
        if corrupt:
            # Every run was too uniform for the reversal to break
            # ordering; surface the injected corruption directly.
            raise InjectedFaultError(
                f"injected corrupt-spill fault in map {split_index} "
                f"(attempt {attempt})"
            )
        if files:
            store.spill(files, attempt=attempt, cancel=cancel)
        else:
            store.spill_empty(
                MapTaskId(split_index), attempt=attempt, cancel=cancel
            )
    counters.increment("shuffle.segments", len(files))


def run_record_reduce(
    job: JobConf,
    files: list[MapOutputFile],
    counters: Counters,
    obs: JobObservability,
    task: tuple[str, int, int] | None,
    *,
    cancel: CancelToken | None = None,
) -> list[KeyValue]:
    """Record-plane reduce-task body (merge → group → reduce).

    ``files`` are the partition's fetched spill files in map order
    (mirroring :func:`run_columnar_reduce`), after the synthesized keys:
    each with what the job's mapper emits for a chunk of zero cells.
    """
    segments = [f.records for f in files]
    partition = task[1] if task else files[0].partition if files else None
    synth = synthesized_keys(job, partition)
    if synth is not None:
        # One identity row: nothing writes a row's state.
        ((_, identity),) = job.mapper_factory().map(None, Chunk(np.empty(0), 0))
        space = job.context["sidr_plan"].partition.space
        keys = np.unravel_index(expand_runs(synth), space)
        coords = zip(*[c.tolist() for c in keys])
        segments.insert(0, [(k, identity) for k in coords])
    reducer = job.reducer_factory()
    reducer.setup()
    out: list[KeyValue] = []
    groups = 0
    group_sizes: list[int] | None = [] if obs.enabled else None
    # Merging streams into the reducer, so merge + reduce share
    # one phase; group sizes land in the skew histogram.
    with obs.phase("reduce.reduce", task):
        for key, values in group_sorted(merge_segments(segments)):
            if cancel is not None:
                cancel.check()
            groups += 1
            if group_sizes is not None:
                group_sizes.append(len(values))
            out.extend(reducer.reduce(key, values))
        out.extend(reducer.cleanup())
    counters.update({
        "reduce.input.groups": groups,
        "reduce.input.records": sum(f.num_records for f in files),
        "reduce.output.records": len(out),
    })
    if group_sizes:
        obs.metrics.histogram(
            "reduce.group.size", COUNT_BUCKETS
        ).observe_many(group_sizes)
    return out


def _source_count_of(value: Any) -> int:
    """Source-record count carried by an intermediate value.

    Structural record readers attach the number of input cells a chunk
    represents (``source_count`` attribute or dict key); plain values
    count as one source record each.
    """
    if isinstance(value, dict) and "source_count" in value:
        return int(value["source_count"])
    sc = getattr(value, "source_count", None)
    if sc is not None:
        return int(sc)
    return 1
