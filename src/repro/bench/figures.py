"""Series producers for the paper's figures (§4.1-§4.3).

Each function runs the necessary simulations and returns a
:class:`FigureResult`: labeled completion curves plus the summary
numbers the paper quotes in its prose, ready for
:func:`repro.bench.report.format_series`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.bench.workloads import (
    SystemVariant,
    Workload,
    query1_workload,
    query2_workload,
    sim_spec,
    skew_workload,
)
from repro.sidr.early_results import CompletionCurve
from repro.sim.costmodel import CostModel
from repro.sim.jobsim import ExecutionMode, simulate_job
from repro.sim.timeline import TaskTimeline


@dataclass
class FigureResult:
    """Curves plus quoted statistics for one paper figure."""

    figure: str
    curves: dict[str, CompletionCurve]
    summaries: dict[str, dict[str, float]]
    notes: dict[str, float] = field(default_factory=dict)
    #: Raw timelines behind the curves, keyed like ``summaries`` — kept
    #: so the CLI can export simulated runs as observability traces.
    timelines: dict[str, TaskTimeline] = field(default_factory=dict)


def _mode(variant: SystemVariant) -> ExecutionMode:
    return (
        ExecutionMode.SIDR
        if variant is SystemVariant.SIDR
        else ExecutionMode.STOCK
    )


def _run(
    workload: Workload,
    variant: SystemVariant,
    r: int,
    *,
    cost: CostModel | None = None,
    skewed: bool = False,
) -> TaskTimeline:
    spec = sim_spec(workload, variant, r, skewed=skewed)
    return simulate_job(spec, None, cost, mode=_mode(variant))


# --------------------------------------------------------------------- #
# Figure 9: Query 1, Hadoop vs SciHadoop vs SIDR, 22 reduce tasks
# --------------------------------------------------------------------- #
def fig09_task_completion(
    *, num_reduces: int = 22, scale: int = 1
) -> FigureResult:
    """Map and reduce completion over time for the three systems.

    Paper: SIDR's first result at ~625 s vs SciHadoop ~1,132 s vs Hadoop
    ~2,797 s; SIDR completes at 1,264 s vs SciHadoop's 1,250 s (slightly
    slower — its last reduce serially ingests the final 1/22nd of map
    output); Hadoop ~2.5x slower overall.
    """
    wl = query1_workload(scale=scale)
    curves: dict[str, CompletionCurve] = {}
    summaries: dict[str, dict[str, float]] = {}
    timelines: dict[str, TaskTimeline] = {}
    for variant, label in [
        (SystemVariant.HADOOP, "H"),
        (SystemVariant.SCIHADOOP, "SH"),
        (SystemVariant.SIDR, "SS"),
    ]:
        tl = _run(wl, variant, num_reduces)
        curves[f"Map({label})"] = tl.map_completion_curve()
        curves[f"Reduce({label})"] = tl.reduce_completion_curve()
        summaries[label] = tl.summary()
        timelines[label] = tl
    return FigureResult("Figure 9", curves, summaries, timelines=timelines)


# --------------------------------------------------------------------- #
# Figure 10: Query 1, SIDR at 22/66/176/528 reduces vs SciHadoop 22
# --------------------------------------------------------------------- #
def fig10_reduce_scaling(
    *,
    sidr_reduce_counts: tuple[int, ...] = (22, 66, 176, 528),
    scale: int = 1,
) -> FigureResult:
    """Reduce completion as the SIDR reduce count scales.

    Paper: time to first result and total time both fall as r grows; at
    528 reduce tasks SIDR finishes ~29% faster than SciHadoop and the
    reduce curve hugs the map curve; SciHadoop gains nothing from more
    reduce tasks (global barrier).
    """
    wl = query1_workload(scale=scale)
    curves: dict[str, CompletionCurve] = {}
    summaries: dict[str, dict[str, float]] = {}
    timelines: dict[str, TaskTimeline] = {}
    tl_sh = _run(wl, SystemVariant.SCIHADOOP, 22)
    curves["Map(SH,22)"] = tl_sh.map_completion_curve()
    curves["Reduce(SH,22)"] = tl_sh.reduce_completion_curve()
    summaries["SH-22"] = tl_sh.summary()
    timelines["SH-22"] = tl_sh
    for r in sidr_reduce_counts:
        tl = _run(wl, SystemVariant.SIDR, r)
        curves[f"Reduce(SS,{r})"] = tl.reduce_completion_curve()
        summaries[f"SS-{r}"] = tl.summary()
        timelines[f"SS-{r}"] = tl
    best = min(
        summaries[k]["makespan"] for k in summaries if k.startswith("SS-")
    )
    notes = {
        "sidr_best_vs_scihadoop": summaries["SH-22"]["makespan"] / best,
    }
    return FigureResult("Figure 10", curves, summaries, notes, timelines=timelines)


# --------------------------------------------------------------------- #
# Figure 11: Query 2 (filter), SciHadoop 22 vs SIDR 22/66/176
# --------------------------------------------------------------------- #
def fig11_filter_query(
    *,
    sidr_reduce_counts: tuple[int, ...] = (22, 66, 176),
    scale: int = 1,
) -> FigureResult:
    """Query 2's reduce completion.

    Paper: reduce tasks carry almost no data, so curves approach optimal
    with fewer tasks than Query 1 and the total-time improvement over
    SciHadoop is small — the query's nature bounds SIDR's opportunity.
    """
    wl = query2_workload(scale=scale)
    curves: dict[str, CompletionCurve] = {}
    summaries: dict[str, dict[str, float]] = {}
    timelines: dict[str, TaskTimeline] = {}
    tl_sh = _run(wl, SystemVariant.SCIHADOOP, 22)
    curves["Map(SH,22)"] = tl_sh.map_completion_curve()
    curves["Reduce(SH,22)"] = tl_sh.reduce_completion_curve()
    summaries["SH-22"] = tl_sh.summary()
    timelines["SH-22"] = tl_sh
    for r in sidr_reduce_counts:
        tl = _run(wl, SystemVariant.SIDR, r)
        curves[f"Reduce(SS,{r})"] = tl.reduce_completion_curve()
        summaries[f"SS-{r}"] = tl.summary()
        timelines[f"SS-{r}"] = tl
    return FigureResult("Figure 11", curves, summaries, timelines=timelines)


# --------------------------------------------------------------------- #
# Figure 12: variance across 10 runs, SIDR 22 vs 88 reduces
# --------------------------------------------------------------------- #
def fig12_variance(
    *,
    reduce_counts: tuple[int, ...] = (22, 88),
    runs: int = 10,
    scale: int = 1,
) -> FigureResult:
    """Mean ± std of completion over repeated runs with task jitter.

    Paper: with dependency barriers, reduce tasks inherit at least the
    variance of the maps they depend on; more reduce tasks shrink each
    dependency set and with it the spread.
    """
    wl = query1_workload(scale=scale)
    cost = CostModel(jitter_sigma=0.12)
    curves: dict[str, CompletionCurve] = {}
    summaries: dict[str, dict[str, float]] = {}
    notes: dict[str, float] = {}
    kept: dict[str, TaskTimeline] = {}
    # Map curve (averaged) for reference, from the first reduce count.
    for r in reduce_counts:
        timelines = [
            simulate_job(
                sim_spec(wl, SystemVariant.SIDR, r, seed=s),
                None,
                cost,
                mode=ExecutionMode.SIDR,
                seed=s,
            )
            for s in range(runs)
        ]
        t_max = max(tl.makespan for tl in timelines)
        ts = np.linspace(0.0, t_max, 40)
        mat = np.vstack([tl.sampled_reduce_curve(ts) for tl in timelines])
        mean = mat.mean(axis=0)
        std = mat.std(axis=0)
        curves[f"Reduce(SS,{r},mean)"] = CompletionCurve(
            tuple(float(t) for t in ts), tuple(float(f) for f in mean)
        )
        summaries[f"SS-{r}"] = {
            "mean_makespan": float(np.mean([tl.makespan for tl in timelines])),
            "std_makespan": float(np.std([tl.makespan for tl in timelines])),
            "mean_first": float(
                np.mean([tl.first_result_time for tl in timelines])
            ),
            "max_pointwise_std": float(std.max()),
        }
        notes[f"max_std_{r}"] = float(std.max())
        # Representative timeline (seed 0) per reduce count; exporting
        # all seeds would bloat traces without adding structure.
        kept[f"SS-{r}"] = timelines[0]
        if r == reduce_counts[0]:
            map_mat = np.vstack(
                [
                    [
                        tl.map_completion_curve().fraction_at(float(t))
                        for t in ts
                    ]
                    for tl in timelines
                ]
            )
            curves["Map(mean)"] = CompletionCurve(
                tuple(float(t) for t in ts),
                tuple(float(f) for f in map_mat.mean(axis=0)),
            )
    return FigureResult("Figure 12", curves, summaries, notes, timelines=kept)


# --------------------------------------------------------------------- #
# Figure 13: intermediate key skew
# --------------------------------------------------------------------- #
def fig13_skew(*, num_reduces: int = 22, scale: int = 1) -> FigureResult:
    """Patterned keys under Hadoop's partitioner vs partition+.

    Paper: the stock run assigns all data to one parity class of reduce
    tasks — the idle half finish instantly, the loaded half take twice as
    long; SIDR distributes evenly and completes ~42% faster.

    The paper's skew query (unnamed, Figure 13) is reduce-heavy — its
    completion is dominated by reduce-side work, which is what makes a 2x
    per-reducer load a ~42% total slowdown.  Both arms therefore run with
    a reduce-heavy cost model (20 MB/s effective merge, i.e. a holistic
    operator spilling to external merge passes).
    """
    from repro.sim.costmodel import MB

    cost = CostModel(merge_rate=20.0 * MB)
    wl = skew_workload(scale=scale)
    curves: dict[str, CompletionCurve] = {}
    summaries: dict[str, dict[str, float]] = {}
    timelines: dict[str, TaskTimeline] = {}
    tl_stock = _run(
        wl, SystemVariant.SCIHADOOP, num_reduces, skewed=True, cost=cost
    )
    curves[f"Reduce(stock,{num_reduces})"] = tl_stock.reduce_completion_curve()
    curves["Map(stock)"] = tl_stock.map_completion_curve()
    summaries["stock"] = tl_stock.summary()
    timelines["stock"] = tl_stock
    tl_sidr = _run(wl, SystemVariant.SIDR, num_reduces, cost=cost)
    curves[f"Reduce(SIDR,{num_reduces})"] = tl_sidr.reduce_completion_curve()
    summaries["SIDR"] = tl_sidr.summary()
    timelines["SIDR"] = tl_sidr
    notes = {
        "speedup": summaries["stock"]["makespan"]
        / summaries["SIDR"]["makespan"],
    }
    return FigureResult("Figure 13", curves, summaries, notes, timelines=timelines)
