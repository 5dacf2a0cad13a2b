"""Engine-level executor sizing: one ``LocalEngine`` run per configuration.

The protocol behind the "Executors" table in ``docs/PERFORMANCE.md`` and
behind ROADMAP item 2(c)'s keep-or-delete decision: weekly-window
``(7,5,2)`` extraction over ``temperature_dataset(days=D, lat=40, lon=40,
seed=3)``, 16 splits, 8 reduces, ``observability=False``; every round
runs every configuration once and the order is reversed each round, so a
box that changes speed mid-run hits all configurations alike.  A
configuration is ``MODE`` or ``MODE:M+R`` (engine mode, map + reduce
workers); the mode name is handed to ``LocalEngine.run`` as is.

    PYTHONPATH=src python benchmarks/executor_sizing.py \
        --operator mean --days 3669 --rounds 10 \
        --configs serial,threaded:2+2,threaded:4+3 --out sizing.json

Prints the median per configuration and writes every run to ``--out``.
Engine-level only: what a served request costs is ``benchmarks/e2e``'s
question, not this script's.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import time

import numpy as np

from repro.mapreduce.engine import LocalEngine
from repro.query.language import StructuralQuery
from repro.query.operators import get_operator
from repro.query.splits import slice_splits
from repro.scidata.generators import temperature_dataset
from repro.sidr.planner import build_sidr_job
from repro.verify.oracle import records_digest


def _parse_config(text: str) -> tuple[str, str, dict[str, int]]:
    mode, _, workers = text.partition(":")
    if not workers:
        return text, mode, {}
    maps, _, reduces = workers.partition("+")
    return text, mode, {"map_workers": int(maps), "reduce_workers": int(reduces)}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--operator", default="mean",
                    help="a parameterless operator name, e.g. mean or median")
    ap.add_argument("--days", type=int, default=364)
    ap.add_argument("--plane", choices=("record", "columnar"), default="columnar")
    ap.add_argument("--rounds", type=int, default=10)
    ap.add_argument("--configs", default="serial,threaded:2+2,threaded:4+3")
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)

    field = temperature_dataset(days=args.days, lat=40, lon=40, seed=3)
    data = field.arrays["temperature"].astype(np.float64)
    query = StructuralQuery(
        variable="temperature", extraction_shape=(7, 5, 2),
        operator=get_operator(args.operator),
    )
    plan = query.compile(field.metadata)
    job, barrier, _ = build_sidr_job(
        plan, slice_splits(plan, num_splits=16), 8, data, data_plane=args.plane
    )

    configs = [_parse_config(c) for c in args.configs.split(",")]
    runs: dict[str, list[float]] = {label: [] for label, _, _ in configs}
    digests = set()
    # Round 0 is the warm-up (and the check that every configuration
    # computes the same output); it is not recorded.
    for rnd in range(args.rounds + 1):
        for label, mode, workers in configs if rnd % 2 == 0 else configs[::-1]:
            engine = LocalEngine(observability=False, **workers)
            t0 = time.perf_counter()
            result = engine.run(job, barrier, mode=mode)
            ms = (time.perf_counter() - t0) * 1e3
            if rnd == 0:
                digests.add(records_digest(result.all_records()))
            else:
                runs[label].append(round(ms, 1))
    if len(digests) != 1:
        raise SystemExit(f"configurations disagree on the output: {digests}")

    medians = {k: round(statistics.median(v), 1) for k, v in runs.items()}
    print(f"{args.operator} {args.plane} {data.size} cells, "
          f"{args.rounds} rounds, cpu_count {os.cpu_count()}")
    for label, times in runs.items():
        print(f"  {label:14s} median {medians[label]:8.1f} ms   "
              + " ".join(f"{t:.1f}" for t in times))
    if args.out:
        report = {
            "operator": args.operator,
            "plane": args.plane,
            "cells": int(data.size),
            "rounds": args.rounds,
            "cpu_count": os.cpu_count(),
            "median_ms": medians,
            "runs_ms": runs,
        }
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
