"""Cold plans: what a plan-cache miss costs the server process.

The protocol behind "Cold plans in closed form" in
``docs/PERFORMANCE.md``.  In this process, with no socket and no engine
process, on the e2e harness's seeded datasets
(``benchmarks/e2e/harness.py``):

* ``build`` — p50 of a cold ``build_served_plan`` (compile, aligned
  splits, zone-map pruning, partition+, dependencies, expected counts,
  every split's map geometry), what a queue worker thread of the server
  runs on a plan-cache miss, for each served class, for ``grid_filter``
  (``filter_gt`` over ``(7, 5, 2)`` on ``grid_mid``), for ``grid_fine``
  (``mean`` over ``(1, 2, 2)`` on ``grid_mid``: 1 310 400 keys) and for
  ``threshold_sweep`` (``ragged_filter`` with a fresh threshold per
  build: the threshold is part of the plan key, so each new one is a
  miss);
* ``plan bytes`` — what each case's last plan pickles to: what it costs
  the plan cache and every engine process it is sent to.  Over
  :data:`MAX_PLAN_BYTES` for any case the run exits non-zero;
* ``configure`` — p50 of ``configure_job`` of a cached
  ``keep_partial_instances`` ``(7, 5, 2)`` mean plan on ``grid_mid``,
  what every served job of a cached plan runs.

Builds of the cases alternate, in reversed order on odd runs.  Every
plan on ``grid_small`` has its per-keyblock expected source cells
checked against a walk, key by key, of the cells its splits read; a
mismatch aborts the run.

``--live`` also starts ``repro.cli serve`` on both grids and submits,
one at a time, each served class's first job (what a benchmark round's
priming does) and then a cold ``grid_filter`` job.  While each runs, a
second connection calls ``/healthz`` every 10 ms; each job's
``plan_seconds`` (its status document) and those round trips are
printed.

    PYTHONPATH=src python benchmarks/plan_cold.py --runs 20 [--live]

``--smoke`` is 3 runs: it checks that the internals this script
imports still fit together.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import statistics
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent / "e2e"))

from harness import CLASSES, COMMON, TIMEOUT, Inputs, served  # noqa: E402

from repro.query.language import StructuralQuery  # noqa: E402
from repro.query.operators import get_operator  # noqa: E402
from repro.query.splits import aligned_slice_splits  # noqa: E402
from repro.service import HttpServiceClient, QueryRequest  # noqa: E402
from repro.service.service import build_served_plan  # noqa: E402
from repro.service.sessions import DatasetSession  # noqa: E402
from repro.sidr.planner import SIDRPlan, build_plan  # noqa: E402

#: Cold-plan cases beyond the served classes.
GRID_FILTER = dict(
    dataset="grid_mid", operator="filter_gt", extract=(7, 5, 2), threshold=95
)
GRID_FINE = dict(dataset="grid_mid", operator="mean", extract=(1, 2, 2))
SWEEP = "threshold_sweep"
#: Every case's plan pickles to at most this many bytes: a plan holds no
#: per-key array, a pruned one its synthesized keys as runs.
#: ``grid_fine``'s was 94 367 025 while a plan held each split's keys
#: and spill layout, and ``grid_filter``'s 426 911 while it held one
#: int64 per synthesized key.
MAX_PLAN_BYTES = 32 << 10


def sweep_threshold(i: int) -> float:
    """The ``i``-th build's threshold: distinct for every ``i``, spread
    over 50..99, where every split outside the harness data's hot band
    (values 0..49) prunes and those in it (50..99) start to."""
    return 50 + (37 * i) % 50 + 0.5 + i / 1000


def walked_counts(plan: SIDRPlan) -> tuple[int, ...]:
    """Per keyblock, the input cells its keys' instances hold that the
    plan's splits read: a cell mask of the split slabs, summed over each
    key's instance one key at a time."""
    qp = plan.query_plan
    read = np.zeros(qp.input_space, dtype=bool)
    for split in plan.splits:
        for slab in split.slabs:
            read[slab.intersect(qp.subset).as_slices()] = True
    return tuple(
        sum(
            int(read[qp.instance_region(key).as_slices()].sum())
            for s in block.slabs
            for key in s.iter_coords()
        )
        for block in plan.partition.blocks
    )


def check(name: str, plan: SIDRPlan) -> None:
    got = tuple(plan.validator().expected)
    want = walked_counts(plan)
    if got != want:
        raise SystemExit(f"{name}: expected counts {got} != walked {want}")


def time_configure(session: DatasetSession, runs: int) -> list[float]:
    """``configure_job`` times of one cached ``keep_partial_instances``
    plan, after a first call."""
    qplan = StructuralQuery(
        variable="v", extraction_shape=(7, 5, 2),
        operator=get_operator("mean"), keep_partial_instances=True,
    ).compile(session.metadata)
    plan = build_plan(
        qplan, aligned_slice_splits(qplan, num_splits=16), 8
    ).with_map_geometry()
    source = session.engine_source()
    plan.configure_job(source)
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        plan.configure_job(source)
        times.append((time.perf_counter() - t0) * 1e3)
    return times


class Poller:
    """``/healthz`` round trips, every 10 ms from a connection of its
    own, for as long as the ``with`` block runs."""

    def __init__(self, url: str) -> None:
        self.client = HttpServiceClient(url, timeout=TIMEOUT)
        self.rtts: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._poll)

    def _poll(self) -> None:
        while not self._stop.wait(0.01):
            t0 = time.perf_counter()
            self.client.healthz()
            self.rtts.append((time.perf_counter() - t0) * 1e3)

    def __enter__(self) -> list[float]:
        self._thread.start()
        return self.rtts

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()


def live(inputs: Inputs, workdir: Path) -> dict[str, dict[str, float]]:
    """Each served class's first job, then a cold ``grid_filter`` job,
    in a live server: ``plan_seconds`` and ``/healthz`` while it ran."""
    jobs = [(cls, inputs.request(cls)) for cls in CLASSES]
    jobs.append(("grid_filter", QueryRequest(**GRID_FILTER, **COMMON)))
    out = {}
    with served(list(inputs.paths.values()), workdir) as (_, url):
        client = HttpServiceClient(url, timeout=TIMEOUT)
        for name, req in jobs:
            with Poller(url) as rtts:
                doc = client.result(client.submit(req), timeout=TIMEOUT)
            if doc.get("state") != "done" or (
                name in inputs.digests and doc["digest"] != inputs.digests[name]
            ):
                raise SystemExit(f"{name}: {doc.get('state')} {doc.get('error')}")
            out[name] = {
                "plan_ms": doc["plan_seconds"] * 1e3,
                "healthz_calls": len(rtts),
                "healthz_p50_ms": statistics.median(rtts) if rtts else 0.0,
                "healthz_max_ms": max(rtts, default=0.0),
            }
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--runs", type=int, default=20, help="builds per case")
    ap.add_argument("--smoke", action="store_true", help="3 runs")
    ap.add_argument("--live", action="store_true", help="also in a live serve")
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)
    if args.smoke:
        args.runs = 3

    with tempfile.TemporaryDirectory(prefix="plan-cold-") as workdir:
        inputs = Inputs(args.seed, Path(workdir))
        inputs.prepare(tuple(CLASSES))
        sessions = {
            name: DatasetSession(name, path=str(path))
            for name, path in inputs.paths.items()
        }
        requests = {cls: inputs.request(cls) for cls in CLASSES}
        requests["grid_filter"] = QueryRequest(**GRID_FILTER, **COMMON)
        requests["grid_fine"] = QueryRequest(**GRID_FINE, **COMMON)
        cases = [*requests, SWEEP]
        build_ms: dict[str, list[float]] = {name: [] for name in cases}
        pruned: dict[str, list[int]] = {name: [] for name in cases}
        plan_bytes: dict[str, int] = {}
        try:
            for i in range(args.runs):
                for name in cases if i % 2 == 0 else cases[::-1]:
                    if name == SWEEP:
                        req = QueryRequest(**{
                            **CLASSES["ragged_filter"], **COMMON,
                            "threshold": sweep_threshold(i),
                        })
                    else:
                        req = requests[name]
                    session = sessions[req.dataset]
                    t0 = time.perf_counter()
                    plan = build_served_plan(req, session)
                    build_ms[name].append((time.perf_counter() - t0) * 1e3)
                    pruned[name].append(
                        plan.pruning.num_pruned if plan.pruning else 0
                    )
                    plan_bytes[name] = len(pickle.dumps(plan))
                    if req.dataset == "grid_small" and (name == SWEEP or i == 0):
                        check(f"{name} run {i}", plan)
            configure_ms = time_configure(sessions["grid_mid"], args.runs)
        finally:
            for session in sessions.values():
                session.close()
        served_jobs = live(inputs, Path(workdir)) if args.live else {}

    print(f"seed {args.seed}, {args.runs} cold builds per case, "
          f"cpu_count {os.cpu_count()}, Python {sys.version.split()[0]}")
    print(f"  {'case':16s} {'build p50':>10s} {'min':>9s} {'max':>9s} "
          f"{'pruned':>7s} {'plan bytes':>11s}")
    report = {}
    for name in cases:
        times = build_ms[name]
        p50 = statistics.median(times)
        print(f"  {name:16s} {p50:8.2f}ms {min(times):7.2f}ms "
              f"{max(times):7.2f}ms {statistics.median(pruned[name]):7.1f} "
              f"{plan_bytes[name]:11d}")
        report[name] = {
            "build_p50_ms": round(p50, 3),
            "build_ms": [round(t, 3) for t in times],
            "splits_pruned": pruned[name],
            "plan_bytes": plan_bytes[name],
        }
    p50 = statistics.median(configure_ms)
    print(f"  configure_job of a cached keep_partial_instances plan on "
          f"grid_mid: p50 {p50:.3f}ms")
    report["configure_partial"] = {
        "p50_ms": round(p50, 3), "ms": [round(t, 3) for t in configure_ms],
    }
    for name, doc in served_jobs.items():
        print(f"  served {name:16s} plan {doc['plan_ms']:8.2f}ms, /healthz "
              f"p50 {doc['healthz_p50_ms']:.2f}ms max "
              f"{doc['healthz_max_ms']:.2f}ms ({doc['healthz_calls']} calls)")
    report["served"] = served_jobs
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"seed": args.seed, "cases": report}, fh, indent=1)
    over = {name: n for name, n in plan_bytes.items() if n > MAX_PLAN_BYTES}
    for name, n in over.items():
        print(f"{name}'s plan pickles to {n} bytes, over {MAX_PLAN_BYTES}",
              file=sys.stderr)
    return 1 if over else 0


if __name__ == "__main__":
    raise SystemExit(main())
