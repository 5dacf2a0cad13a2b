#!/usr/bin/env python3
"""Regenerate every paper table/figure report in one pass.

A plain script (no pytest) for readers who just want the artifacts:

    python benchmarks/runall.py [--scale N] [--out DIR]

At scale 1 (the paper's geometry) the full pass takes a couple of
minutes; ``--scale 10`` gives a quick look.  Reports land in
``benchmarks/results/`` (or ``--out``), alongside a machine-readable
``BENCH_obs.json`` with per-section wall times, the figure summary
numbers, and a tracing-overhead measurement.
"""

from __future__ import annotations

import argparse
import json
import tempfile
import time
from pathlib import Path


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--scale", type=int, default=1)
    ap.add_argument(
        "--out", default=str(Path(__file__).parent / "results")
    )
    args = ap.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    scale = args.scale

    from repro.bench import figures, tables
    from repro.bench.report import format_series, format_table

    bench: dict = {
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "scale": scale,
        "sections": {},
    }
    section_start = [time.time()]

    def save(name: str, text: str, data: dict | None = None) -> None:
        now = time.time()
        section = {"seconds": round(now - section_start[0], 3)}
        if data:
            section.update(data)
        bench["sections"][name] = section
        section_start[0] = now
        (out / f"{name}.txt").write_text(text + "\n")
        print(f"== {name} ==")
        print(text)
        print()

    t0 = time.time()

    # Figures ----------------------------------------------------------
    fig9 = figures.fig09_task_completion(scale=scale)
    save(
        "fig09_completion",
        format_table(
            ["system", "first(s)", "total(s)", "connections"],
            [
                [k, s["first_result"], s["makespan"], int(s["connections"])]
                for k, s in fig9.summaries.items()
            ],
            title="Figure 9 — Query 1, 22 reduce tasks",
        )
        + "\n\n"
        + format_series(
            {k: c for k, c in fig9.curves.items() if "Reduce" in k},
            title="output availability",
        ),
        data={"summaries": fig9.summaries, "notes": fig9.notes},
    )

    counts = (22, 66, 176, 528) if scale == 1 else (22, 66, 176)
    fig10 = figures.fig10_reduce_scaling(sidr_reduce_counts=counts, scale=scale)
    save(
        "fig10_reduce_scaling",
        format_table(
            ["config", "first(s)", "total(s)"],
            [
                [k, s["first_result"], s["makespan"]]
                for k, s in fig10.summaries.items()
            ],
            title=(
                "Figure 10 — SIDR reduce scaling "
                f"(best vs SciHadoop {fig10.notes['sidr_best_vs_scihadoop']:.2f}x)"
            ),
        ),
        data={"summaries": fig10.summaries, "notes": fig10.notes},
    )

    fig11 = figures.fig11_filter_query(scale=scale)
    save(
        "fig11_filter_query",
        format_table(
            ["config", "first(s)", "total(s)"],
            [
                [k, s["first_result"], s["makespan"]]
                for k, s in fig11.summaries.items()
            ],
            title="Figure 11 — Query 2 (filter)",
        ),
        data={"summaries": fig11.summaries, "notes": fig11.notes},
    )

    fig12 = figures.fig12_variance(scale=scale, runs=10)
    save(
        "fig12_variance",
        format_table(
            ["config", "mean total(s)", "std total(s)", "max pointwise std"],
            [
                [k, s["mean_makespan"], s["std_makespan"], s["max_pointwise_std"]]
                for k, s in fig12.summaries.items()
            ],
            title="Figure 12 — variance over 10 jittered runs",
        ),
        data={"summaries": fig12.summaries, "notes": fig12.notes},
    )

    fig13 = figures.fig13_skew(scale=scale)
    save(
        "fig13_skew",
        format_table(
            ["config", "total(s)"],
            [[k, s["makespan"]] for k, s in fig13.summaries.items()],
            title=(
                f"Figure 13 — key skew (SIDR {fig13.notes['speedup'] - 1:.0%} "
                "faster; paper 42%)"
            ),
        ),
        data={"summaries": fig13.summaries, "notes": fig13.notes},
    )

    # Tables -----------------------------------------------------------
    t3 = tables.table3_network_connections()
    save(
        "tab03_network_connections",
        format_table(
            ["maps/reduces", "Hadoop", "SIDR"],
            [
                [f"{r.num_maps}/{r.num_reduces}", r.hadoop_connections, r.sidr_connections]
                for r in t3
            ],
            title="Table 3 — network connections",
        ),
        data={
            "rows": [
                {
                    "maps": r.num_maps,
                    "reduces": r.num_reduces,
                    "hadoop": r.hadoop_connections,
                    "sidr": r.sidr_connections,
                }
                for r in t3
            ]
        },
    )

    with tempfile.TemporaryDirectory() as d:
        t2 = tables.table2_reduce_write_scaling(
            d, cells_per_task=262_144, runs=3
        )
    save(
        "tab02_contiguous_output",
        format_table(
            ["strategy", "reduces", "time(s)", "size(MB)", "seeks"],
            [
                [r.strategy, r.total_reduces, r.seconds_mean,
                 r.file_size_bytes / (1 << 20), r.seeks]
                for r in t2
            ],
            title="Table 2 — reduce write scaling",
        ),
        data={
            "rows": [
                {
                    "strategy": r.strategy,
                    "reduces": r.total_reduces,
                    "seconds": r.seconds_mean,
                    "bytes": r.file_size_bytes,
                    "seeks": r.seeks,
                }
                for r in t2
            ]
        },
    )

    micro = tables.sec45_partition_micro()
    save(
        "sec45_partition_micro",
        format_table(
            ["function", "ms"],
            [
                ["default hash", micro.default_seconds * 1e3],
                ["partition+", micro.partition_plus_seconds * 1e3],
            ],
            title=f"§4.5 — 6.48M keys (slowdown {micro.slowdown:.2f}x)",
        ),
        data={
            "default_seconds": micro.default_seconds,
            "partition_plus_seconds": micro.partition_plus_seconds,
            "slowdown": micro.slowdown,
        },
    )

    # Observability overhead ------------------------------------------
    overhead = _measure_tracing_overhead()
    save(
        "obs_overhead",
        "observability overhead (columnar weekly-mean job, threaded "
        f"engine, median of {overhead['rounds']} alternating rounds):\n"
        f"  observability off:        {overhead['off_ms']:.1f} ms "
        f"(IQR {overhead['off_iqr_ms']:.1f})\n"
        f"  observability on:         {overhead['on_ms']:.1f} ms  "
        f"{overhead['overhead_ms']:+.1f} ms  {overhead['overhead']:+.1%}\n"
        f"  live, wired as served:    {overhead['live_ms']:.1f} ms  "
        f"{overhead['live_overhead_ms']:+.1f} ms  "
        f"{overhead['live_overhead']:+.1%}\n"
        "  <= 5% on the columnar plane (ROADMAP 3b): "
        f"{'met' if overhead['columnar_5pct_met'] else 'NOT met'}",
        data=overhead,
    )

    # Data-plane throughput (record vs columnar) ----------------------
    throughput = _measure_throughput()
    save(
        "throughput",
        "engine throughput (weekly-mean workload, "
        f"{throughput['cells']:,} cells, min of {throughput['runs']}):\n"
        f"  record plane:   {throughput['record']['seconds']:.3f} s  "
        f"{throughput['record']['cells_per_sec'] / 1e6:.2f} Mcells/s\n"
        f"  columnar plane: {throughput['columnar']['seconds']:.3f} s  "
        f"{throughput['columnar']['cells_per_sec'] / 1e6:.2f} Mcells/s\n"
        f"  speedup:        {throughput['speedup']:.1f}x  "
        f"(byte-identical: {'yes' if throughput['identical'] else 'NO'})",
        data=throughput,
    )
    (out / "BENCH_throughput.json").write_text(
        json.dumps(throughput, indent=1, sort_keys=True) + "\n"
    )

    # Failure recovery: measured vs analytical (§6) -------------------
    recovery = _measure_recovery()
    save(
        "recovery",
        format_table(
            ["model", "maps re-run", "predicted", "measured (s)",
             "predicted (s)", "output ok"],
            [
                [r["model"], r["maps_reexecuted"],
                 r["predicted_maps_reexecuted"],
                 f"{r['measured_seconds']:.4f}",
                 f"{r['predicted_seconds']:.4f}",
                 "yes" if r["output_ok"] else "NO"]
                for r in recovery["models"]
            ],
            title=(
                "single reduce failure — measured engine recovery vs "
                "sim/failure.py prediction"
            ),
        ),
        data=recovery,
    )
    (out / "BENCH_recovery.json").write_text(
        json.dumps(recovery, indent=1, sort_keys=True) + "\n"
    )

    # Speculative execution: one map hang, hedged backup (§6 extension)
    speculation = _measure_speculation()
    save(
        "speculation",
        "one injected map hang under speculative execution "
        f"(hang_timeout={speculation['hang_timeout']}s, min of "
        f"{speculation['runs']}):\n"
        f"  fault-free makespan:   {speculation['fault_free_seconds']:.3f} s\n"
        f"  with hang + backup:    "
        f"{speculation['hang_speculation_seconds']:.3f} s\n"
        f"  ratio:                 {speculation['ratio']:.2f}x  "
        f"(within 2x: {'yes' if speculation['within_2x'] else 'NO'})\n"
        f"  measured delay:        "
        f"{speculation['measured_delay_seconds']:.3f} s\n"
        f"  predicted delay bound: "
        f"{speculation['predicted_delay_seconds']:.3f} s\n"
        f"  speculative launches:  {speculation['speculations']}  "
        f"(byte-identical: {'yes' if speculation['output_ok'] else 'NO'})",
        data=speculation,
    )
    (out / "BENCH_speculation.json").write_text(
        json.dumps(speculation, indent=1, sort_keys=True) + "\n"
    )

    # Zone-map pruning: split skipping across a selectivity sweep -----
    pruning = _measure_pruning()
    low = pruning["sweep"][0]
    save(
        "pruning",
        "zone-map split skipping (clustered filter_gt workload, "
        f"{pruning['cells']:,} cells, {pruning['num_splits']} splits, "
        f"min of {pruning['runs']}):\n"
        + "\n".join(
            f"  sel {row['selectivity']:>8.5%}  "
            f"pruned {row['splits_pruned']:>2}/{pruning['num_splits']}  "
            f"record {row['record']['speedup']:5.1f}x  "
            f"columnar {row['columnar']['speedup']:5.1f}x"
            for row in pruning["sweep"]
        )
        + f"\n  low-selectivity floor (>=5x): "
        f"{'yes' if pruning['speedup_ok'] else 'NO'}  "
        f"(byte-identical: {'yes' if pruning['identical'] else 'NO'})",
        data={
            "speedup_ok": pruning["speedup_ok"],
            "identical": pruning["identical"],
            "low_record_speedup": low["record"]["speedup"],
        },
    )
    (out / "BENCH_pruning.json").write_text(
        json.dumps(pruning, indent=1, sort_keys=True) + "\n"
    )

    bench["total_seconds"] = round(time.time() - t0, 3)
    (out / "BENCH_obs.json").write_text(
        json.dumps(bench, indent=1, sort_keys=True) + "\n"
    )
    print(
        f"all reports regenerated in {time.time() - t0:.0f}s -> {out} "
        f"(machine-readable: {out / 'BENCH_obs.json'})"
    )
    return 0


def _measure_tracing_overhead(rounds: int = 11) -> dict:
    """Observability cost on the fast path: the columnar weekly-mean job
    on the threaded engine, spans/metrics off vs on vs *live* — wired
    the way ``QueryService._run_job`` wires a served job (job-tagged
    bus, ``ProgressTracker``, spans/metrics off).

    The three configurations alternate within each round (order rotated
    round to round, so a slow phase of a shared box lands on all three)
    and the median of ``rounds`` is reported, with absolute ``*_ms``
    beside the ratios: a per-task fixed cost is a far larger share of a
    ~45 ms columnar run than of the ~440 ms record run this used to
    time.  ``columnar_5pct_met`` is ROADMAP 3(b)'s "≤ 5 % on the
    columnar plane", reported rather than tuned for.
    """
    import statistics

    import numpy as np

    from repro.mapreduce.engine import LocalEngine
    from repro.obs import EventBus, JobObservability, ProgressTracker
    from repro.query.language import StructuralQuery
    from repro.query.operators import MeanOp
    from repro.query.splits import slice_splits
    from repro.scidata.generators import temperature_dataset
    from repro.sidr.planner import build_sidr_job

    field = temperature_dataset(days=364, lat=40, lon=40, seed=3)
    data = field.arrays["temperature"].astype(np.float64)
    plan = StructuralQuery(
        variable="temperature", extraction_shape=(7, 5, 2), operator=MeanOp()
    ).compile(field.metadata)
    job, barrier, _ = build_sidr_job(
        plan, slice_splits(plan, num_splits=16), 8, data,
        data_plane="columnar",
    )
    engine_off = LocalEngine(observability=False)
    engine_on = LocalEngine(observability=True)

    def live_obs():
        bus = EventBus(job="bench")
        ProgressTracker(bus)
        return JobObservability(job.name, enabled=False, bus=bus)

    configs = {
        "off": lambda: engine_off.run_threaded(job, barrier),
        "on": lambda: engine_on.run_threaded(job, barrier),
        "live": lambda: engine_on.run_threaded(job, barrier, obs=live_obs()),
    }
    for run in configs.values():  # warmup
        run()
    names = list(configs)
    samples: dict[str, list[float]] = {name: [] for name in names}
    for i in range(rounds):
        for name in names[i % 3:] + names[:i % 3]:
            s = time.perf_counter()
            configs[name]()
            samples[name].append((time.perf_counter() - s) * 1e3)

    med = {name: statistics.median(ms) for name, ms in samples.items()}

    def iqr(ms: list[float]) -> float:
        q = statistics.quantiles(ms, n=4)
        return q[2] - q[0]

    return {
        "rounds": rounds,
        "plane": "columnar",
        "mode": "threaded",
        "off_ms": round(med["off"], 2),
        "on_ms": round(med["on"], 2),
        "live_ms": round(med["live"], 2),
        "off_iqr_ms": round(iqr(samples["off"]), 2),
        "overhead_ms": round(med["on"] - med["off"], 2),
        "live_overhead_ms": round(med["live"] - med["off"], 2),
        "overhead": round(med["on"] / med["off"] - 1.0, 4),
        "live_overhead": round(med["live"] / med["off"] - 1.0, 4),
        "columnar_5pct_met": med["live"] / med["off"] - 1.0 <= 0.05,
    }


def _measure_throughput(runs: int = 3) -> dict:
    """Record vs columnar data plane on the weekly-mean workload
    (``BENCH_throughput.json``).  Byte-identity is checked on the same
    runs that are timed."""
    import numpy as np

    from repro.mapreduce.engine import LocalEngine
    from repro.query.language import StructuralQuery
    from repro.query.operators import MeanOp
    from repro.query.splits import slice_splits
    from repro.sidr.planner import build_sidr_job
    from repro.scidata.generators import temperature_dataset

    field = temperature_dataset(days=364, lat=40, lon=40, seed=3)
    data = field.arrays["temperature"].astype(np.float64)
    plan = StructuralQuery(
        variable="temperature", extraction_shape=(7, 5, 2), operator=MeanOp()
    ).compile(field.metadata)
    sp = slice_splits(plan, num_splits=16)
    engine = LocalEngine(observability=False)

    def best(plane: str):
        job, barrier, _ = build_sidr_job(
            plan, sp, 8, data, data_plane=plane
        )
        res = engine.run_serial(job, barrier)  # warmup + output capture
        t = float("inf")
        for _ in range(runs):
            s = time.perf_counter()
            res = engine.run_serial(job, barrier)
            t = min(t, time.perf_counter() - s)
        return t, res.all_records()

    t_rec, out_rec = best("record")
    t_col, out_col = best("columnar")
    cells = int(data.size)
    return {
        "runs": runs,
        "cells": cells,
        "identical": out_rec == out_col,
        "record": {
            "seconds": round(t_rec, 4),
            "cells_per_sec": int(cells / t_rec),
        },
        "columnar": {
            "seconds": round(t_col, 4),
            "cells_per_sec": int(cells / t_col),
        },
        "speedup": round(t_rec / t_col, 2),
    }


def _measure_recovery(fail_reduce: int = 1) -> dict:
    """Inject one after-fetch reduce failure and measure the recovery
    work of each §6 design on the real engine, next to the analytical
    single-failure prediction (``BENCH_recovery.json``)."""
    import numpy as np

    from repro.bench.workloads import sim_spec_from_plan
    from repro.faults import (
        WHEN_AFTER_FETCH,
        FaultKind,
        FaultRule,
        InjectionPlan,
        RecoveryModel,
    )
    from repro.mapreduce.engine import LocalEngine, RetryPolicy
    from repro.query.language import StructuralQuery
    from repro.query.operators import MeanOp
    from repro.query.splits import slice_splits
    from repro.scidata.generators import temperature_dataset
    from repro.sidr.planner import build_sidr_job
    from repro.sim.failure import predict_single_failure

    field = temperature_dataset(days=364, lat=40, lon=40, seed=3)
    data = field.arrays["temperature"].astype(np.float64)
    plan = StructuralQuery(
        variable="temperature", extraction_shape=(7, 5, 2), operator=MeanOp()
    ).compile(field.metadata)
    splits = slice_splits(plan, num_splits=16)

    def run(engine):
        job, barrier, sidr = build_sidr_job(plan, splits, 8, data)
        return engine.run_serial(job, barrier), sidr

    baseline, sidr = run(LocalEngine())
    expected = baseline.all_records()
    spec = sim_spec_from_plan(sidr)
    fault = InjectionPlan(
        rules=(
            FaultRule(
                task="reduce",
                kind=FaultKind.TRANSIENT,
                indices=frozenset({fail_reduce}),
                times=1,
                when=WHEN_AFTER_FETCH,
            ),
        )
    )
    models = []
    for model in RecoveryModel:
        res, _ = run(
            LocalEngine(
                retry=RetryPolicy(max_attempts=3, backoff_base=0.0),
                faults=fault,
                recovery=model,
            )
        )
        measured = 0.0
        if res.obs is not None:
            measured = res.obs.metrics.histogram("recovery.seconds").sum
        pred = predict_single_failure(spec, model, fail_reduce)
        models.append(
            {
                "model": model.value,
                "maps_reexecuted": res.counters.get(
                    "recovery.maps_reexecuted"
                ),
                "predicted_maps_reexecuted": pred.maps_reexecuted,
                "measured_seconds": round(measured, 6),
                "predicted_seconds": round(pred.recovery_seconds, 6),
                "output_ok": res.all_records() == expected,
            }
        )
    return {
        "fail_reduce": fail_reduce,
        "num_maps": len(splits),
        "num_reduces": 8,
        "models": models,
    }


def _measure_speculation(
    hang_map: int = 1, hang_timeout: float = 0.15, runs: int = 3
) -> dict:
    """Inject one forever-hanging map and let speculative execution
    rescue it with a hedged backup attempt; the makespan must stay well
    under 2x the fault-free run, and the mitigation delay is compared
    against the analytical ``predict_speculation`` upper bound
    (``BENCH_speculation.json``)."""
    import numpy as np

    from repro.bench.workloads import sim_spec_from_plan
    from repro.faults import FaultKind, FaultRule, InjectionPlan
    from repro.mapreduce.engine import LocalEngine, RetryPolicy
    from repro.query.language import StructuralQuery
    from repro.query.operators import MeanOp
    from repro.query.splits import slice_splits
    from repro.scidata.generators import temperature_dataset
    from repro.sidr.planner import build_sidr_job
    from repro.sim.failure import predict_speculation
    from repro.spec import SpeculationPolicy

    field = temperature_dataset(days=364, lat=40, lon=40, seed=3)
    data = field.arrays["temperature"].astype(np.float64)
    plan = StructuralQuery(
        variable="temperature", extraction_shape=(7, 5, 2), operator=MeanOp()
    ).compile(field.metadata)
    splits = slice_splits(plan, num_splits=16)

    def run(engine):
        job, barrier, sidr = build_sidr_job(plan, splits, 8, data)
        s = time.perf_counter()
        res = engine.run_threaded(job, barrier)
        return time.perf_counter() - s, res, sidr

    _, base_res, sidr = run(LocalEngine())  # warmup
    expected = base_res.all_records()
    base_seconds = min(run(LocalEngine())[0] for _ in range(runs))

    def hang_engine() -> LocalEngine:
        # Fresh engine per run: the bound fault plan's `times=1` state
        # must reset so every run injects exactly one hang.
        fault = InjectionPlan(
            rules=(
                FaultRule(
                    task="map",
                    kind=FaultKind.HANG,
                    indices=frozenset({hang_map}),
                    times=1,
                ),
            )
        )
        return LocalEngine(
            retry=RetryPolicy(max_attempts=3, backoff_base=0.0),
            faults=fault,
            speculation=SpeculationPolicy(
                hang_timeout=hang_timeout,
                heartbeat_interval=0.02,
                # Hang-flag path only: keeps `speculations` deterministic
                # (exactly one backup) for the regression baseline.
                speculate_stragglers=False,
            ),
        )

    hang_seconds = float("inf")
    speculations = cancelled = 0
    output_ok = True
    for _ in range(runs):
        t, res, _ = run(hang_engine())
        hang_seconds = min(hang_seconds, t)
        speculations = res.counters.get("task.speculations")
        cancelled = res.counters.get("task.cancelled")
        output_ok = output_ok and res.all_records() == expected
    pred = predict_speculation(
        sim_spec_from_plan(sidr), hang_map, hang_timeout=hang_timeout
    )
    return {
        "runs": runs,
        "hang_map": hang_map,
        "hang_timeout": hang_timeout,
        "fault_free_seconds": round(base_seconds, 4),
        "hang_speculation_seconds": round(hang_seconds, 4),
        "ratio": round(hang_seconds / base_seconds, 3),
        "within_2x": bool(hang_seconds < 2.0 * base_seconds),
        "measured_delay_seconds": round(
            max(0.0, hang_seconds - base_seconds), 4
        ),
        "predicted_delay_seconds": round(pred.delay_seconds, 4),
        "speculations": speculations,
        "cancelled": cancelled,
        "output_ok": output_ok,
    }


def _measure_pruning(runs: int = 3) -> dict:
    """Selectivity sweep for zone-map split pruning on a spatially
    clustered filter_gt workload (``BENCH_pruning.json``).

    Hot cells pack a contiguous prefix of the array, so dropping the
    selectivity concentrates them in fewer extraction instances and
    zone maps prune more splits.  Each point times prune off vs on for
    both data planes and checks byte-identity on the same runs; the
    acceptance gate is >=5x on the record plane at <=0.1% selectivity.
    """
    import numpy as np

    from repro.mapreduce.engine import LocalEngine
    from repro.query.language import StructuralQuery
    from repro.query.operators import ThresholdFilterOp
    from repro.query.splits import slice_splits
    from repro.scidata.metadata import DatasetMetadata, Dimension, Variable
    from repro.scidata.zonemaps import build_zone_map
    from repro.sidr.planner import build_sidr_job

    shape, extraction, num_splits, reduces = (250, 40, 40), (5, 40, 40), 50, 8
    selectivities = (1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0)
    meta = DatasetMetadata(
        dimensions=(
            Dimension("t", shape[0]),
            Dimension("y", shape[1]),
            Dimension("x", shape[2]),
        ),
        variables=(Variable("v", "double", ("t", "y", "x")),),
    )
    plan = StructuralQuery(
        variable="v", extraction_shape=extraction,
        operator=ThresholdFilterOp(500.0),
    ).compile(meta)
    splits = slice_splits(plan, num_splits=num_splits)
    engine = LocalEngine(observability=False)

    def best(data, plane, prune):
        zone_map = (
            build_zone_map("v", data, tile_shape=extraction) if prune
            else None
        )
        job, barrier, sidr = build_sidr_job(
            plan, splits, reduces, data,
            data_plane=plane, prune=prune, zone_map=zone_map,
        )
        res = engine.run_serial(job, barrier)  # warmup + output capture
        t = float("inf")
        for _ in range(runs):
            s = time.perf_counter()
            res = engine.run_serial(job, barrier)
            t = min(t, time.perf_counter() - s)
        pruned = sidr.pruning.num_pruned if sidr.pruning is not None else 0
        return t, res.all_records(), pruned

    sweep = []
    identical = True
    for sel in selectivities:
        rng = np.random.default_rng(11)
        data = rng.uniform(0.0, 1.0, shape)
        data.reshape(-1)[: max(1, round(sel * data.size))] = 1000.0
        point: dict = {"selectivity": sel}
        for plane in ("record", "columnar"):
            t_full, out_full, _ = best(data, plane, False)
            t_pruned, out_pruned, pruned = best(data, plane, True)
            identical = identical and out_full == out_pruned
            point["splits_pruned"] = pruned
            point[plane] = {
                "seconds_full": round(t_full, 4),
                "seconds_pruned": round(t_pruned, 4),
                "speedup": round(t_full / t_pruned, 2),
            }
        sweep.append(point)
    speedup_ok = all(
        p["record"]["speedup"] >= 5.0
        for p in sweep
        if p["selectivity"] <= 1e-3
    )
    return {
        "runs": runs,
        "cells": int(np.prod(shape)),
        "num_splits": num_splits,
        "threshold": 500.0,
        "sweep": sweep,
        "identical": identical,
        "speedup_ok": speedup_ok,
    }


if __name__ == "__main__":
    raise SystemExit(main())
