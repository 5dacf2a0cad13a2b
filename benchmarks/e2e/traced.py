"""Traced run: the benchmark's own spans around each layer's public
functions, in the benchmark process, for one request class at a time.

``src/`` has no request-scoped tracing yet, so the layer table is built
outside-in: each span below wraps one call (or one loop of calls) into
a layer, the same calls ``QueryService._run_job`` and ``LocalEngine``
make for a served request.  What these spans cannot see — the server's
event loop, its executor hand-offs, two engines sharing one GIL — is
what ``unattributed_ms`` and ``service.engine_inflation`` report.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator

from repro.faults import RecoveryModel
from repro.mapreduce.columnar import run_columnar_map, run_columnar_reduce
from repro.mapreduce.counters import Counters
from repro.mapreduce.engine import (
    LocalEngine,
    RetryPolicy,
    run_record_map,
    run_record_reduce,
)
from repro.mapreduce.shuffle import ShuffleStore
from repro.obs import EventBus, JobObservability, MetricsRegistry, ProgressTracker
from repro.query.splits import slice_splits
from repro.scidata.dataset import Dataset, open_dataset
from repro.service import InProcessClient, PlanCache, QueryRequest, QueryService
from repro.service.service import records_to_json
from repro.service.sessions import DatasetSession
from repro.sidr.planner import build_plan, derive_zone_map
from repro.verify.oracle import canonicalize_records, records_digest

from harness import Inputs, median, structural_query

#: Same pool sizes as ``repro.cli serve``'s defaults.
MAP_WORKERS, REDUCE_WORKERS = 4, 3


class Tracer:
    """Spans kept in memory: name, start, end, parent, request id."""

    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []
        self._stack: list[int] = []
        self.request: str | None = None

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        span = {
            "id": len(self.spans),
            "name": name,
            "request": self.request,
            "parent": self._stack[-1] if self._stack else None,
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        span["start"] = time.perf_counter()
        try:
            yield
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()

    def total_ms(self, name: str, request: str) -> float:
        """Time under ``name`` spans of one request."""
        return 1e3 * sum(
            s["end"] - s["start"]
            for s in self.spans
            if s["name"] == name and s["request"] == request
        )


def _engine(**kwargs: Any) -> LocalEngine:
    return LocalEngine(
        map_workers=MAP_WORKERS, reduce_workers=REDUCE_WORKERS, **kwargs
    )


def _trace_once(
    tracer: Tracer,
    request: QueryRequest,
    session: DatasetSession,
    dataset: Dataset,
    digest: str,
) -> dict[str, float]:
    """One request's worth of layer calls under spans; returns the
    exact counts that run produced."""
    span = tracer.span
    source = session.engine_source()
    wire = json.dumps(request.to_json()).encode("utf-8")

    with span("request"):
        with span("service.parse"):
            req = QueryRequest.from_json(wire.decode("utf-8"))

        with span("sidr.plan_cold"):
            with span("query.compile"):
                qplan = structural_query(
                    req.operator, req.extract, req.threshold
                ).compile(session.metadata)
            with span("query.slice_splits"):
                splits = slice_splits(qplan, num_splits=req.splits)
            with span("sidr.derive_zone_map"):
                zone_map = derive_zone_map(qplan, source)
            with span("sidr.build_plan"):
                plan = build_plan(
                    qplan, splits, req.reduces, zone_map=zone_map, prune=True
                )

        cache = PlanCache()
        key = (session.name, session.digest, req.plan_key())
        cache.insert(key, plan)
        with span("service.plan_cached"):
            _, hit = cache.get_or_build(*key, lambda: plan)
        assert hit

        def configure():
            return plan.configure_job(
                source, name="e2e-traced", data_plane=req.data_plane
            )

        with span("sidr.configure"):
            job, barrier = configure()
        columnar = job.data_plane == "columnar"
        run_map = run_columnar_map if columnar else run_record_map
        run_reduce = run_columnar_reduce if columnar else run_record_reduce
        quiet = JobObservability(job.name, enabled=False)

        read_before = dataset.io_stats.bytes_read
        for split in plan.splits:
            with span("scidata.read"):
                for slab in split.slabs:
                    dataset.read_slab(req.variable, slab)
        read_bytes = dataset.io_stats.bytes_read - read_before

        for split in plan.splits:
            with span("query.reader"):
                for _ in job.reader_factory(split):
                    pass

        store, counters = ShuffleStore(), Counters()
        for index in range(job.num_map_tasks):
            with span("mapreduce.map"):
                run_map(job, index, store, counters, quiet, None)
        fetched = []
        for partition in range(job.num_reduce_tasks):
            with span("mapreduce.fetch"):
                files = [
                    store.fetch(m, partition)
                    for m in sorted(barrier.fetch_set(partition, job.num_map_tasks))
                ]
            fetched.append([f for f in files if f is not None and f.num_records])
        for files in fetched:
            with span("mapreduce.reduce"):
                run_reduce(job, files, counters, quiet, None)

        job, barrier = configure()
        with span("mapreduce.engine_serial"):
            serial = _engine(observability=False).run(job, barrier, mode="serial")
        job, barrier = configure()
        with span("mapreduce.engine_threaded"):
            result = _engine(observability=False).run(job, barrier, mode="threaded")

        # Wired as QueryService._run_job wires a served job.
        job, barrier = configure()
        with span("mapreduce.engine_observed"):
            metrics = MetricsRegistry()
            bus = EventBus(metrics=metrics, job="e2e-traced")
            obs = JobObservability(job.name, metrics=metrics, bus=bus)
            ProgressTracker(bus)
            _engine(
                retry=RetryPolicy(max_attempts=1, backoff_base=0.0),
                recovery=RecoveryModel.parse("persisted"),
            ).run(job, barrier, mode="threaded", obs=obs)

        with span("verify.canonicalize"):
            records = canonicalize_records(result.all_records())
        with span("verify.digest"):
            got = records_digest(records)
        if got != digest:
            raise RuntimeError("traced engine run differs from the oracle's")
        with span("service.encode"):
            with span("service.records_to_json"):
                rows = records_to_json(records)
            body = json.dumps({"records": rows}).encode("utf-8")
        with span("service.decode"):
            json.loads(body)

    c = serial.counters.as_dict()
    batched = c.get("plane.batched.instances", 0)
    instances = batched + c.get("plane.fallback.instances", 0)
    pruning = plan.pruning
    return {
        "scidata.read_bytes": read_bytes,
        "mapreduce.map_input_records": c["map.input.records"],
        "mapreduce.shuffle_records": c["shuffle.records"],
        "mapreduce.shuffle_connections": serial.shuffle_connections,
        "mapreduce.replication_rate": (
            c["reduce.input.records"] / c["combine.output.records"]
        ),
        "mapreduce.partials_per_key": (
            c["reduce.input.records"] / c["reduce.output.records"]
        ),
        "sidr.splits_pruned": pruning.num_pruned if pruning else 0,
        "sidr.keys_synthesized": pruning.num_synth_keys if pruning else 0,
        "query.batched_share": batched / instances if instances else 0.0,
    }


#: metric -> the span whose per-request total it reports.
_SPAN_METRICS = {
    "service.parse_ms": "service.parse",
    "sidr.plan_cold_ms": "sidr.plan_cold",
    "service.plan_cached_ms": "service.plan_cached",
    "sidr.configure_ms": "sidr.configure",
    "scidata.read_ms": "scidata.read",
    "query.reader_ms": "query.reader",
    "mapreduce.map_ms": "mapreduce.map",
    "mapreduce.fetch_ms": "mapreduce.fetch",
    "mapreduce.reduce_ms": "mapreduce.reduce",
    "mapreduce.engine_serial_ms": "mapreduce.engine_serial",
    "mapreduce.engine_threaded_ms": "mapreduce.engine_threaded",
    "verify.canonicalize_ms": "verify.canonicalize",
    "verify.digest_ms": "verify.digest",
    "service.encode_ms": "service.encode",
    "service.decode_ms": "service.decode",
}

#: What a served request pays besides its engine run and the wire.
SERVED_LAYERS = (
    "service.parse_ms", "service.plan_cached_ms", "sidr.configure_ms",
    "verify.canonicalize_ms", "verify.digest_ms",
    "service.encode_ms", "service.decode_ms",
)
#: The spans that cover what ``InProcessClient.query`` does, no more.
_INPROC_SPANS = (
    "service.plan_cached", "sidr.configure", "mapreduce.engine_observed",
    "verify.canonicalize", "verify.digest", "service.records_to_json",
)


#: Untraced ``InProcessClient.query`` calls after each traced request.
INPROC_CALLS = 2


def trace_class(
    cls: str, inputs: Inputs, tracer: Tracer, reps: int
) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics of one request class: the median over ``reps``
    traced requests, and the same class through ``InProcessClient`` (no
    sockets, no spans).  The two alternate, so that a slow minute of
    the machine lands on both sides of ``trace.overhead_pct`` alike."""
    request = inputs.request(cls)
    path = str(inputs.paths[request.dataset])
    counts, inproc_ms, inproc_engine_ms = [], [], []
    with QueryService(
        workers=2, map_workers=MAP_WORKERS, reduce_workers=REDUCE_WORKERS
    ) as service:
        session = service.open_dataset(request.dataset, path)
        client = InProcessClient(service)
        client.query(request)  # untimed: builds the plan
        # A read handle of the benchmark's own, mapped as a session's is.
        with open_dataset(path, mode="r") as dataset:
            dataset.ensure_mapped()
            for rep in range(reps):
                tracer.request = f"{cls}/{rep}"
                counts.append(
                    _trace_once(
                        tracer, request, session, dataset, inputs.digests[cls]
                    )
                )
                for _ in range(INPROC_CALLS):
                    doc = None  # free the last result outside the timing
                    t0 = time.perf_counter()
                    doc = client.query(request)
                    inproc_ms.append((time.perf_counter() - t0) * 1e3)
                    inproc_engine_ms.append(doc["run_seconds"] * 1e3)
                    if doc.get("digest") != inputs.digests[cls]:
                        raise RuntimeError(
                            f"{cls}: in-process result differs from the oracle's"
                        )
    problems = []
    if any(c != counts[0] for c in counts):
        problems.append(f"{cls}: traced counts differ between repetitions")
    if counts[0]["mapreduce.replication_rate"] != 1.0:
        problems.append(
            f"{cls}: replication rate {counts[0]['mapreduce.replication_rate']} != 1"
        )

    def layer(span_name: str) -> float:
        return median(
            [tracer.total_ms(span_name, f"{cls}/{rep}") for rep in range(reps)]
        )

    out = dict(counts[0])
    out.update({metric: layer(name) for metric, name in _SPAN_METRICS.items()})
    out["mapreduce.orchestration_ms"] = out["mapreduce.engine_serial_ms"] - (
        out["mapreduce.map_ms"] + out["mapreduce.fetch_ms"]
        + out["mapreduce.reduce_ms"]
    )
    out["obs.overhead_ms"] = (
        layer("mapreduce.engine_observed") - out["mapreduce.engine_threaded_ms"]
    )
    out["service.inproc_ms"] = median(inproc_ms)
    out["inproc_engine_ms"] = median(inproc_engine_ms)
    traced_sum = sum(layer(name) for name in _INPROC_SPANS)
    out["trace.overhead_pct"] = (
        100.0 * (traced_sum - out["service.inproc_ms"]) / out["service.inproc_ms"]
    )
    return out, problems


def write_spans(tracer: Tracer, path: Path) -> None:
    with path.open("w") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")
