"""Part overlap: do a split job's parts run at the same time?

A job dispatched alone runs as its parts, one per free engine process
(``docs/SERVICE.md``, "Engine processes"), and is done when its last
part is.  This probe wraps ``engine_process.run_job`` before an
in-process ``QueryService(workers=2)`` forks, so each engine process
appends ``(job, part, t0, t1)`` of every part it runs to one file;
``time.perf_counter`` is CLOCK_MONOTONIC, so the times compare across
processes.  The service's ``_start`` (plan the job, write each part's
``Run``) is timed in this process.  Inputs are the e2e harness's
(``benchmarks/e2e/harness.py``): seeded datasets and oracle digests.

It runs ``--requests`` sequential ``fine_mean`` jobs, then as many
``coarse_scan`` jobs, after one cold and ``--warmup`` warm ones each,
every digest checked against the oracle, and prints per class, over
the split jobs:

* part-start skew: the last part's ``run_job`` start minus the first's;
* dispatch: ``_start`` entered → the last part's ``Run`` written;
* the share of jobs whose parts' windows overlap less than half the
  shorter window.

    PYTHONPATH=src python benchmarks/part_overlap.py --requests 200
    PYTHONPATH=src python benchmarks/part_overlap.py --smoke

A digest that differs from the oracle's, or a class none of whose
jobs split, aborts the run.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent / "e2e"))

from harness import Inputs  # noqa: E402

from repro.service import QueryService, engine_process  # noqa: E402

CLASSES = ("fine_mean", "coarse_scan")


def _logged(run_job, path: Path):
    """``run_job``, appending ``[job, first keyblock, t0, t1]`` to
    ``path`` once the part has run (one line, one write)."""

    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return run_job(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            line = json.dumps([args[0], kwargs["part"].reduces.start, t0, t1])
            with open(path, "a") as log:
                log.write(line + "\n")

    return wrapper


class _Timed(QueryService):
    """The service, recording ``(job, entered, returned)`` of each
    ``_start``: it returns once the job's last ``Run`` is written."""

    def __init__(self, **kwargs) -> None:
        self.dispatches: dict[str, tuple[float, float]] = {}
        super().__init__(**kwargs)

    def _start(self, job, alone: bool) -> None:
        t0 = time.perf_counter()
        super()._start(job, alone)
        self.dispatches[job.id] = (t0, time.perf_counter())


def _percentiles(values: list[float]) -> dict[str, float]:
    ms = np.asarray(values) * 1e3
    return {
        "p50": float(np.percentile(ms, 50)),
        "p90": float(np.percentile(ms, 90)),
        "max": float(ms.max()),
    }


def summarize(parts: dict[str, list[tuple[float, float]]],
              dispatches: dict[str, tuple[float, float]],
              jobs: list[str]) -> dict:
    """One class's numbers from its timed ``jobs``: ``parts`` maps a
    job to its parts' ``(t0, t1)`` windows, ``dispatches`` to its
    ``_start`` window."""
    split = [j for j in jobs if len(parts.get(j, ())) > 1]
    skew, dispatch, poor = [], [], 0
    for job in split:
        windows = parts[job]
        starts = [t0 for t0, _ in windows]
        skew.append(max(starts) - min(starts))
        t0, t1 = dispatches[job]
        dispatch.append(t1 - t0)
        overlap = min(t1 for _, t1 in windows) - max(starts)
        shorter = min(t1 - t0 for t0, t1 in windows)
        poor += overlap < shorter / 2
    return {
        "jobs": len(jobs),
        "split": len(split),
        "skew_ms": _percentiles(skew) if split else None,
        "dispatch_ms": _percentiles(dispatch) if split else None,
        "overlap_under_half": poor / len(split) if split else None,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--requests", type=int, default=200,
                    help="timed sequential jobs per class")
    ap.add_argument("--warmup", type=int, default=10)
    ap.add_argument("--smoke", action="store_true",
                    help="a few jobs per class (CI)")
    ap.add_argument("--out", default=None,
                    help="write every part window and the summary as JSON")
    args = ap.parse_args(argv)
    if args.smoke:
        args.requests, args.warmup = 8, 2

    with tempfile.TemporaryDirectory(prefix="part-overlap-") as tmp:
        inputs = Inputs(args.seed, Path(tmp))
        inputs.prepare(CLASSES)
        log = Path(tmp) / "parts.jsonl"
        engine_process.run_job = _logged(engine_process.run_job, log)
        timed: dict[str, list[str]] = {}
        with _Timed(workers=2) as service:
            for name, path in inputs.paths.items():
                service.open_dataset(name, str(path))
            for cls in CLASSES:
                for i in range(1 + args.warmup + args.requests):
                    job = service.submit(inputs.request(cls))
                    doc, _ = service.result_block(job, timeout=60.0)
                    if doc.get("digest") != inputs.digests[cls]:
                        raise SystemExit(
                            f"{cls}: {doc.get('state')} {doc.get('error', '')}"
                        )
                    if i > args.warmup:
                        timed.setdefault(cls, []).append(job)
            dispatches = dict(service.dispatches)
        rows = [json.loads(line) for line in log.read_text().splitlines()]

    parts: dict[str, list[tuple[float, float]]] = {}
    for job, _, t0, t1 in sorted(rows, key=lambda r: (r[0], r[1])):
        parts.setdefault(job, []).append((t0, t1))
    summary = {cls: summarize(parts, dispatches, timed[cls]) for cls in CLASSES}
    for cls, s in summary.items():
        if not s["split"]:
            raise SystemExit(f"{cls}: none of {s['jobs']} jobs ran in parts")
        skew, dispatch = s["skew_ms"], s["dispatch_ms"]
        print(
            f"{cls:12s} {s['split']:4d}/{s['jobs']} split  "
            f"skew p50 {skew['p50']:6.2f}  p90 {skew['p90']:6.2f}  "
            f"max {skew['max']:6.2f} ms  "
            f"dispatch p50 {dispatch['p50']:5.2f}  p90 {dispatch['p90']:5.2f}  "
            f"max {dispatch['max']:6.2f} ms  "
            f"overlap < 1/2: {100 * s['overlap_under_half']:4.1f} %"
        )
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"summary": summary, "parts": rows, "dispatches": dispatches},
            indent=1,
        ))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
