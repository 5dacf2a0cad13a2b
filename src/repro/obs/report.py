"""Human-readable job reports from traces.

Turns a normalized run (live :class:`~repro.obs.jobobs.JobObservability`
via :func:`repro.obs.export.normalized_runs`, or a file loaded with
:func:`repro.obs.export.load_trace`) into the text report behind
``python -m repro.cli report``: per-phase time breakdown, per-reduce
barrier waits, the early-start timeline the paper's figures hinge on,
and a reduce-skew summary.
"""

from __future__ import annotations

import statistics
from typing import Any

from repro.obs.metrics import histogram_quantile


def _fmt_s(seconds: float) -> str:
    if seconds >= 100:
        return f"{seconds:.0f}s"
    if seconds >= 1:
        return f"{seconds:.2f}s"
    return f"{seconds * 1e3:.2f}ms"


def _table(headers: list[str], rows: list[list[str]]) -> list[str]:
    widths = [
        max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
        for i, h in enumerate(headers)
    ]
    fmt = "  ".join(f"{{:<{w}}}" for w in widths)
    lines = [fmt.format(*headers), fmt.format(*("-" * w for w in widths))]
    lines.extend(fmt.format(*row) for row in rows)
    return lines


def _index_of(span: dict[str, Any]) -> int:
    try:
        return int(span.get("args", {}).get("index", -1))
    except (TypeError, ValueError):
        return -1


#: Early-starting reduces a report lists by name.
_TOP = 5


def format_run_report(run: dict[str, Any]) -> str:
    """Report for one run: phases, barrier waits, early starts, skew."""
    spans = run.get("spans", [])
    lines: list[str] = []
    jobs = [s for s in spans if s["category"] == "job"]
    makespan = max((s["start"] + s["dur"] for s in spans), default=0.0)
    t0 = min((s["start"] for s in spans), default=0.0)
    title = run.get("label", "job")
    if jobs:
        makespan = jobs[0]["start"] + jobs[0]["dur"]
        t0 = jobs[0]["start"]
    lines.append(f"== {title} ==")
    lines.append(f"spans: {len(spans)}   makespan: {_fmt_s(makespan - t0)}")

    # ----------------------------------------------------------------- #
    # Per-phase totals
    # ----------------------------------------------------------------- #
    by_name: dict[str, list[float]] = {}
    for s in spans:
        if s["category"] == "instant":
            continue
        by_name.setdefault(s["name"], []).append(s["dur"])
    rows = []
    for name in sorted(by_name, key=lambda n: -sum(by_name[n])):
        durs = by_name[name]
        rows.append(
            [
                name,
                str(len(durs)),
                _fmt_s(sum(durs)),
                _fmt_s(sum(durs) / len(durs)),
                _fmt_s(max(durs)),
            ]
        )
    lines.append("")
    lines.append("per-phase totals:")
    lines.extend(_table(["span", "count", "total", "mean", "max"], rows))

    # ----------------------------------------------------------------- #
    # Barrier-wait breakdown
    # ----------------------------------------------------------------- #
    waits = sorted(
        (s for s in spans if s["name"] == "barrier.wait"), key=_index_of
    )
    if waits:
        span_total = makespan - t0
        lines.append("")
        lines.append("barrier waits (per reduce):")
        rows = [
            [
                f"reduce {_index_of(s)}",
                _fmt_s(s["dur"]),
                f"{100 * s['dur'] / span_total:.0f}%" if span_total else "-",
            ]
            for s in waits
        ]
        lines.extend(_table(["task", "wait", "% of job"], rows))
        durs = [s["dur"] for s in waits]
        lines.append(
            f"wait total {_fmt_s(sum(durs))}, mean {_fmt_s(sum(durs) / len(durs))}, "
            f"max {_fmt_s(max(durs))}"
        )

    # ----------------------------------------------------------------- #
    # Early-start timeline
    # ----------------------------------------------------------------- #
    map_spans = [s for s in spans if s["name"] == "map" and s["category"] == "task"]
    reduce_spans = sorted(
        (s for s in spans if s["name"] == "reduce" and s["category"] == "task"),
        key=lambda s: s["start"],
    )
    if map_spans and reduce_spans:
        last_map_end = max(s["start"] + s["dur"] for s in map_spans)
        early = [s for s in reduce_spans if s["start"] < last_map_end]
        lines.append("")
        lines.append(
            f"early starts: {len(early)} of {len(reduce_spans)} reduces began "
            f"before the last map finished (t={_fmt_s(last_map_end - t0)})"
        )
        for s in early[:_TOP]:
            done = sum(
                1 for m in map_spans if m["start"] + m["dur"] <= s["start"]
            )
            lines.append(
                f"  t={_fmt_s(s['start'] - t0)}  reduce {_index_of(s)} started "
                f"({done}/{len(map_spans)} maps done)"
            )
        if len(early) > _TOP:
            lines.append(f"  ... ({len(early) - _TOP} more)")

    # ----------------------------------------------------------------- #
    # Skew summary
    # ----------------------------------------------------------------- #
    if len(reduce_spans) >= 2:
        durs = sorted(s["dur"] for s in reduce_spans)
        med = statistics.median(durs)
        ratio = durs[-1] / med if med > 0 else float("inf")
        slowest = max(reduce_spans, key=lambda s: s["dur"])
        lines.append("")
        lines.append(
            "reduce skew: min/median/max = "
            f"{_fmt_s(durs[0])}/{_fmt_s(med)}/{_fmt_s(durs[-1])} "
            f"(max/median {ratio:.2f}x; slowest reduce {_index_of(slowest)})"
        )

    # ----------------------------------------------------------------- #
    # Latency percentiles (interpolated from histogram buckets)
    # ----------------------------------------------------------------- #
    metrics = run.get("metrics") or {}
    latency_rows = []
    for name, snap in sorted((metrics.get("histograms") or {}).items()):
        if not name.endswith(".seconds") or not snap.get("count"):
            continue
        latency_rows.append(
            [
                name,
                str(snap["count"]),
                _fmt_s(histogram_quantile(snap, 0.5)),
                _fmt_s(histogram_quantile(snap, 0.95)),
                _fmt_s(snap["max"]),
            ]
        )
    if latency_rows:
        lines.append("")
        lines.append("latency percentiles (bucket-interpolated):")
        lines.extend(
            _table(["histogram", "count", "p50", "p95", "max"], latency_rows)
        )

    # ----------------------------------------------------------------- #
    # Key metric callouts
    # ----------------------------------------------------------------- #
    hist = (metrics.get("histograms") or {}).get("reduce.group.size")
    if hist and hist.get("count"):
        lines.append(
            f"reduce group sizes: {hist['count']} groups, "
            f"mean {hist['sum'] / hist['count']:.1f}, "
            f"min {hist['min']:.0f}, max {hist['max']:.0f}"
        )
    counters = metrics.get("counters") or {}
    interesting = [
        (k, v)
        for k, v in sorted(counters.items())
        if k.startswith(("shuffle.", "barrier.", "sched."))
    ]
    if interesting:
        lines.append("counters: " + ", ".join(f"{k}={v}" for k, v in interesting))
    return "\n".join(lines)


def format_report(runs: list[dict[str, Any]]) -> str:
    """Report for a whole trace file (one section per run)."""
    return "\n\n".join(format_run_report(r) for r in runs)
