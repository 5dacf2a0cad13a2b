"""e2e: served structural queries over the real socket path.

    python benchmarks/e2e/run.py --seed 7 [--out DIR]        every workload
    python benchmarks/e2e/run.py --workload fine_mean --seed 7 --seconds 24 --trace 0

Metric names, units and workload names are read from the
``BENCHMARK.json`` at the root of the checkout; README.md defines them.
The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import sys
import tempfile
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parents[2]
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"error: {ROOT / 'src' / 'repro'} not found; run from a full checkout")
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from harness import (  # noqa: E402
    FULL_SECONDS,
    WORKLOADS,
    Inputs,
    class_weights,
    median,
    percentile,
    requests_per_client,
    run_round,
    workload_classes,
)
from traced import SERVED_LAYERS, Tracer, trace_class, write_spans  # noqa: E402

ROUNDS = 3
WARMUP = 8
TRACE_REPS = 5


def summarize(
    workload: str, rounds: list[dict[str, Any]], inputs: Inputs
) -> tuple[dict[str, float], dict[str, float], list[str]]:
    """Pool the rounds of one workload into its end-to-end metrics and
    the per-layer metrics the served run yields by itself."""
    samples = [s for r in rounds for s in r["samples"]]
    ok = [s for s in samples if s["ok"]]
    problems = [p for r in rounds for p in r["problems"]]
    problems += [f"request failed: {s['error']}" for s in samples if not s["ok"]]
    if not ok:
        return {}, {}, problems + [f"{workload}: no request succeeded"]

    def p50(field: str) -> float:
        return median([s[field] for s in ok])

    def over_rounds(field: str) -> float:
        return median([r[field] for r in rounds])

    latencies = [s["latency_ms"] for s in ok]
    end_to_end = {
        "latency_p50_ms": median(latencies),
        "throughput_rps": len(ok) / sum(r["wall_s"] for r in rounds),
        "setup_s": inputs.setup_seconds(workload) + over_rounds("setup_s"),
    }

    classes = workload_classes(workload)
    for cls in classes:
        counts = {r["primed"][cls]["result_records"] for r in rounds}
        if len(counts) != 1:
            problems.append(f"{cls}: result records differ by round: {counts}")
    if {r["plan_cache_misses"] for r in rounds} != {len(classes)}:
        problems.append("plan cache misses differ from one per request class")
    if len({r["plan_cache_hit_rate"] for r in rounds}) != 1:
        problems.append("plan cache hit rate differs by round")

    layers = {
        "latency_p90_ms": percentile(latencies, 90),
        "wire.submit_ms": p50("submit_ms"),
        "wire.result_ms": p50("result_ms"),
        "wire.tail_ms": p50("tail_ms"),
        "wire.healthz_rtt_ms": over_rounds("healthz_rtt_ms"),
        "service.queue_wait_ms": p50("queue_wait_ms"),
        "service.plan_ms": p50("plan_ms"),
        "service.engine_ms": p50("engine_ms"),
        "service.post_engine_ms": p50("post_engine_ms"),
        "service.cpu_ms_per_req": over_rounds("cpu_ms_per_req"),
        "service.rss_peak_mb": over_rounds("rss_peak_mb"),
        "service.rss_kb_per_req": over_rounds("rss_kb_per_req"),
        "service.open_fds_end": over_rounds("open_fds_end"),
        "service.threads_end": over_rounds("threads_end"),
        "service.plan_cache_hit_rate": over_rounds("plan_cache_hit_rate"),
    }
    return end_to_end, layers, problems


def add_class_layers(
    workload: str,
    rounds: list[dict[str, Any]],
    end_to_end: dict[str, float],
    layers: dict[str, float],
    traced: dict[str, dict[str, float]],
) -> None:
    """Fold in what belongs to a request class: what its priming
    responses held and, after a traced run, its traced layers and the
    numbers that set them against the served run.  For a mix of classes
    each becomes the mean per request over one cycle of the mix.
    Nothing is clamped: a negative remainder is a finding."""
    weights = class_weights(workload)
    per_class = {
        cls: {
            "wire.response_bytes": median(
                [r["primed"][cls]["response_bytes"] for r in rounds]
            ),
            "service.result_records": rounds[0]["primed"][cls]["result_records"],
            **traced.get(cls, {}),
        }
        for cls in weights
    }
    layers.update({
        name: sum(w * per_class[cls][name] for cls, w in weights.items())
        for name in next(iter(per_class.values()))
    })
    if not traced:
        return
    inproc_engine_ms = layers.pop("inproc_engine_ms")
    layers["service.engine_inflation"] = layers["service.engine_ms"] / inproc_engine_ms
    p50 = end_to_end["latency_p50_ms"]
    attributed = (
        sum(layers[n] for n in SERVED_LAYERS)
        + layers["service.engine_ms"]
        + 2 * layers["wire.healthz_rtt_ms"]
    )
    layers["unattributed_ms"] = p50 - attributed
    layers["unattributed_share"] = (p50 - attributed) / p50


def print_report(
    workload: str,
    spec: dict[str, Any],
    values: dict[str, float],
    samples: list[dict[str, Any]],
) -> None:
    attempted = len(samples)
    failed = sum(not s["ok"] for s in samples)
    print(f"\n== {workload} ==  {attempted} timed requests")
    print(f"  {'error_rate':<34}{failed / attempted:>14.4f}  ratio")
    for kind in ("end_to_end", "per_layer"):
        for metric in spec[kind]:
            if metric["name"] in values:
                print(
                    f"  {metric['name']:<34}{values[metric['name']]:>14.4f}"
                    f"  {metric['unit']}"
                )


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run one workload (default: all five, rounds interleaved)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float,
                        help="scales the fixed request counts: 18 is full scale "
                        "(default: 18, or BENCHMARK.json's run_seconds with --workload)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1,
                        help="1 adds the traced run and the per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="1 round of 5 requests per client, 2 traced repetitions")
    parser.add_argument("--out", type=Path,
                        help="keep samples.jsonl and spans.jsonl here")
    args = parser.parse_args(argv)

    # The full report runs every workload; BENCHMARK.json names the
    # three the benchmark driver runs one at a time.
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    if args.seconds is None:
        args.seconds = spec["run_seconds"] if args.workload else FULL_SECONDS
    rounds, warmup, reps = ROUNDS, WARMUP, TRACE_REPS
    requests = {w: requests_per_client(w, args.seconds, rounds) for w in workloads}
    if args.smoke:
        rounds, warmup, reps = 1, 1, 2
        requests = dict.fromkeys(workloads, 5)
    print(
        f"# e2e seed={args.seed} cpu_count={os.cpu_count()} "
        f"loadavg={os.getloadavg()[0]:.2f} python={platform.python_version()} "
        f"numpy={np.__version__} rounds={rounds} requests/client/round={requests}"
    )

    # A terminated run unwinds like any other: servers reaped, work
    # directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # Inside the checkout, and removed: datasets, spill root, server TMPDIR.
    workdir = Path(tempfile.mkdtemp(prefix=".e2e-work-", dir=ROOT))
    try:
        inputs = Inputs(args.seed, workdir)
        classes = sorted({c for w in workloads for c in workload_classes(w)})
        inputs.prepare(tuple(classes))
        by_workload: dict[str, list[dict[str, Any]]] = {w: [] for w in workloads}
        # Rounds interleave across workloads (A B C, A B C, ...) so slow
        # machine drift lands on every workload alike.
        for index in range(rounds):
            for workload in workloads:
                by_workload[workload].append(
                    run_round(
                        workload, index, inputs,
                        requests=requests[workload], warmup=warmup,
                    )
                )
        tracer = Tracer()
        traced, problems = {}, []
        if args.trace:
            for cls in classes:
                traced[cls], found = trace_class(cls, inputs, tracer, reps)
                problems += found
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # One workload: the kind the driver asked for.  The full report: both.
    kinds = ["per_layer"] if args.trace else ["end_to_end"]
    if args.trace and not args.workload:
        kinds.insert(0, "end_to_end")
    metrics, attempted, failed = {}, 0, 0
    for workload in workloads:
        end_to_end, layers, found = summarize(workload, by_workload[workload], inputs)
        problems += found
        samples = [s for r in by_workload[workload] for s in r["samples"]]
        attempted += len(samples)
        failed += sum(not s["ok"] for s in samples)
        if not end_to_end:
            continue
        # The full report leaves a mix of classes without the layers
        # that belong to one class; the driver wants every metric from
        # every workload, so for it they are folded in as means.
        if args.workload or len(workload_classes(workload)) == 1:
            add_class_layers(
                workload, by_workload[workload], end_to_end, layers, traced
            )
        values = {**end_to_end, **layers}
        print_report(workload, spec, values, samples)
        metrics[workload] = {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for kind in kinds
            for m in spec[kind]
            if m["name"] in values
        }

    if args.out:
        args.out.mkdir(parents=True, exist_ok=True)
        with (args.out / "samples.jsonl").open("w") as fh:
            for workload in workloads:
                for r in by_workload[workload]:
                    for sample in r["samples"]:
                        fh.write(json.dumps(sample) + "\n")
        write_spans(tracer, args.out / "spans.jsonl")

    for problem in problems[:20]:
        print(f"# FAILED: {problem}", file=sys.stderr)
    correct = not problems and failed == 0 and len(metrics) == len(workloads)
    if not metrics:
        return 1
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics[args.workload] if args.workload else metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
