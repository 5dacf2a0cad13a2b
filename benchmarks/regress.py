#!/usr/bin/env python3
"""Benchmark regression tracking against committed baselines.

Compares a fresh ``benchmarks/runall.py`` output directory against the
JSON baselines committed under ``benchmarks/baselines/``::

    python benchmarks/runall.py --out /tmp/bench
    python benchmarks/regress.py --results /tmp/bench [--update]

Each tracked metric carries its own tolerance band:

* **exact** — semantic invariants (maps re-executed, byte-identical
  outputs).  Any drift is a regression, full stop.
* **relative** — wall-clock and throughput numbers.  Bands are wide
  (machine noise dwarfs real regressions at this workload size) but
  catch order-of-magnitude cliffs: an accidental per-record span, a
  lock on the spill path, a quadratic fetch.
* **absolute** — ratios already near zero (tracing overhead), where a
  relative band would be meaningless.

Exit status is 0 when every metric is inside its band, 1 otherwise —
but the CI step that runs this is **non-gating**: the comparison table
is uploaded as an artifact so a human can tell noise from a cliff
before the baseline is ever tightened.

``--update`` rewrites the baselines from the fresh results and appends
a row to ``benchmarks/baselines/trajectory.json`` so the numbers'
history survives baseline refreshes.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BASELINE_DIR = Path(__file__).parent / "baselines"
RESULT_FILES = ("BENCH_throughput.json", "BENCH_recovery.json",
                "BENCH_speculation.json", "BENCH_pruning.json",
                "BENCH_obs.json")


@dataclass(frozen=True)
class Check:
    """One tracked metric: where it lives and how far it may drift."""

    file: str          # which BENCH_*.json
    path: str          # dotted path into the JSON, [i] indexes lists
    mode: str          # "exact" | "relative" | "absolute"
    tol: float = 0.0   # band width (relative fraction or absolute delta)


# Wall-clock bands are deliberately generous: these benchmarks run in
# hundreds of milliseconds, where CI-runner noise of 30-40% is routine.
# The point is catching 2-10x cliffs, not 5% wobbles.
CHECKS: tuple[Check, ...] = (
    # Data-plane throughput: semantics exact, speed within a wide band.
    Check("BENCH_throughput.json", "identical", "exact"),
    Check("BENCH_throughput.json", "cells", "exact"),
    Check("BENCH_throughput.json", "record.cells_per_sec", "relative", 0.60),
    Check("BENCH_throughput.json", "columnar.cells_per_sec", "relative", 0.60),
    Check("BENCH_throughput.json", "speedup", "relative", 0.60),
    # Recovery: re-execution counts are structural invariants of the
    # SIDR routing; the analytical model must keep predicting them.
    Check("BENCH_recovery.json", "models[0].maps_reexecuted", "exact"),
    Check("BENCH_recovery.json", "models[1].maps_reexecuted", "exact"),
    Check("BENCH_recovery.json", "models[2].maps_reexecuted", "exact"),
    Check("BENCH_recovery.json", "models[0].predicted_maps_reexecuted",
          "exact"),
    Check("BENCH_recovery.json", "models[1].predicted_maps_reexecuted",
          "exact"),
    Check("BENCH_recovery.json", "models[2].predicted_maps_reexecuted",
          "exact"),
    Check("BENCH_recovery.json", "models[0].output_ok", "exact"),
    Check("BENCH_recovery.json", "models[1].output_ok", "exact"),
    Check("BENCH_recovery.json", "models[2].output_ok", "exact"),
    # models[0] (persisted) recovers in ~0s — too degenerate to band.
    Check("BENCH_recovery.json", "models[2].measured_seconds", "relative",
          0.60),
    # Speculation: the hedge must rescue the hang (exact semantics) and
    # the rescued makespan must stay inside the acceptance envelope —
    # within_2x is the gate; the raw seconds get the usual wide band.
    Check("BENCH_speculation.json", "output_ok", "exact"),
    Check("BENCH_speculation.json", "within_2x", "exact"),
    Check("BENCH_speculation.json", "speculations", "exact"),
    Check("BENCH_speculation.json", "hang_speculation_seconds", "relative",
          0.60),
    # Zone-map pruning: byte-identity and split counts are structural
    # invariants; the low-selectivity speedup gate (>=5x) is exact as a
    # boolean, with the raw ratio in a wide band (the pruned runs are
    # milliseconds, so runner noise shows up amplified in the ratio).
    Check("BENCH_pruning.json", "identical", "exact"),
    Check("BENCH_pruning.json", "speedup_ok", "exact"),
    Check("BENCH_pruning.json", "sweep[0].splits_pruned", "exact"),
    Check("BENCH_pruning.json", "sweep[5].splits_pruned", "exact"),
    Check("BENCH_pruning.json", "sweep[0].record.speedup", "relative", 0.75),
    Check("BENCH_pruning.json", "sweep[5].record.seconds_full", "relative",
          0.60),
    # Observability, measured on the columnar plane / threaded engine
    # (exact: a baseline taken on another plane is not comparable).
    # The off run is ~70 ms with an IQR of 10-25 ms on a shared 2-core
    # box, so median-of-11 ratios wander by ~0.05 and the absolute cost
    # by a few ms: band both absolutely — baseline 0.09 vs fresh 0.14 is
    # noise; 0.25 (or +20 ms) is not.  ``columnar_5pct_met`` is reported,
    # not gated: at this spread it can flip on noise alone.
    Check("BENCH_obs.json", "sections.obs_overhead.plane", "exact"),
    Check("BENCH_obs.json", "sections.obs_overhead.mode", "exact"),
    Check("BENCH_obs.json", "sections.obs_overhead.overhead", "absolute",
          0.10),
    Check("BENCH_obs.json", "sections.obs_overhead.live_overhead",
          "absolute", 0.10),
    Check("BENCH_obs.json", "sections.obs_overhead.live_overhead_ms",
          "absolute", 12.0),
    Check("BENCH_obs.json", "sections.obs_overhead.on_ms", "relative", 0.60),
    Check("BENCH_obs.json", "sections.obs_overhead.live_ms", "relative",
          0.60),
    Check("BENCH_obs.json", "total_seconds", "relative", 0.60),
)

# Figure-summary sections are only comparable at matching --scale; the
# exact check below guards against silently comparing apples to pears.
SCALE_CHECK = Check("BENCH_obs.json", "scale", "exact")


def lookup(doc: object, path: str) -> object:
    """Resolve a dotted path with [i] list indexing into ``doc``."""
    cur = doc
    for part in path.split("."):
        while "[" in part:
            name, _, rest = part.partition("[")
            idx, _, part = rest.partition("]")
            if name:
                cur = cur[name]  # type: ignore[index]
            cur = cur[int(idx)]  # type: ignore[index]
            if not part:
                break
            part = part.lstrip(".")
        if part:
            cur = cur[part]  # type: ignore[index]
    return cur


def compare(check: Check, base: object, fresh: object) -> tuple[bool, str]:
    """Return (ok, human-readable delta)."""
    if check.mode == "exact":
        return base == fresh, "=" if base == fresh else "MISMATCH"
    b, f = float(base), float(fresh)  # type: ignore[arg-type]
    if check.mode == "absolute":
        delta = f - b
        return abs(delta) <= check.tol, f"{delta:+.4f} (±{check.tol:.2f})"
    # relative
    if b == 0.0:
        return f == 0.0, "baseline is zero"
    rel = f / b - 1.0
    return abs(rel) <= check.tol, f"{rel:+.1%} (±{check.tol:.0%})"


def load(directory: Path) -> dict[str, dict]:
    docs = {}
    for name in RESULT_FILES:
        p = directory / name
        if not p.exists():
            raise FileNotFoundError(f"missing {p}")
        docs[name] = json.loads(p.read_text())
    return docs


def run_comparison(baselines: dict, results: dict) -> tuple[list[list], int]:
    rows: list[list] = []
    failures = 0
    checks: list[Check] = [SCALE_CHECK, *CHECKS]
    scale_ok = True
    for check in checks:
        try:
            base = lookup(baselines[check.file], check.path)
            fresh = lookup(results[check.file], check.path)
        except (KeyError, IndexError, TypeError):
            rows.append([f"{check.file}:{check.path}", check.mode,
                         "?", "?", "MISSING", "FAIL"])
            failures += 1
            continue
        ok, delta = compare(check, base, fresh)
        if check is SCALE_CHECK:
            scale_ok = ok
        if not ok:
            failures += 1
        rows.append([
            f"{check.file}:{check.path}",
            check.mode,
            _fmt(base),
            _fmt(fresh),
            delta,
            "ok" if ok else "FAIL",
        ])
    if not scale_ok:
        rows.append(["(scale mismatch: wall-clock rows unreliable)",
                     "", "", "", "", ""])
    return rows, failures


def _fmt(v: object) -> str:
    if isinstance(v, bool):
        return "yes" if v else "no"
    if isinstance(v, float):
        return f"{v:.4g}"
    return str(v)


def format_table(rows: list[list]) -> str:
    headers = ["metric", "mode", "baseline", "fresh", "delta", "status"]
    widths = [
        max(len(headers[i]), *(len(str(r[i])) for r in rows)) if rows
        else len(headers[i])
        for i in range(len(headers))
    ]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for r in rows:
        lines.append("  ".join(str(c).ljust(w) for c, w in zip(r, widths)))
    return "\n".join(lines)


def trajectory_row(results: dict) -> dict:
    """The numbers worth plotting across PRs."""
    obs = results["BENCH_obs.json"]
    thr = results["BENCH_throughput.json"]
    rec = results["BENCH_recovery.json"]
    spec = results.get("BENCH_speculation.json", {})
    prune = results.get("BENCH_pruning.json", {})
    overhead = obs["sections"].get("obs_overhead", {})
    return {
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "scale": obs.get("scale"),
        "record_mcells_per_sec": round(
            thr["record"]["cells_per_sec"] / 1e6, 3),
        "columnar_mcells_per_sec": round(
            thr["columnar"]["cells_per_sec"] / 1e6, 3),
        "columnar_speedup": round(thr["speedup"], 2),
        "tracing_overhead": overhead.get("overhead"),
        "live_bus_overhead": overhead.get("live_overhead"),
        "recovery_maps_reexecuted": [
            m["maps_reexecuted"] for m in rec["models"]
        ],
        "speculation_hang_ratio": spec.get("ratio"),
        "pruning_low_speedup": (
            prune["sweep"][0]["record"]["speedup"]
            if prune.get("sweep") else None
        ),
        "runall_total_seconds": obs.get("total_seconds"),
    }


def update_baselines(results_dir: Path) -> None:
    BASELINE_DIR.mkdir(parents=True, exist_ok=True)
    results = load(results_dir)
    for name, doc in results.items():
        (BASELINE_DIR / name).write_text(
            json.dumps(doc, indent=1, sort_keys=True) + "\n"
        )
    traj_path = BASELINE_DIR / "trajectory.json"
    history = (
        json.loads(traj_path.read_text()) if traj_path.exists() else []
    )
    history.append(trajectory_row(results))
    traj_path.write_text(json.dumps(history, indent=1) + "\n")
    print(f"baselines updated from {results_dir} "
          f"({len(history)} trajectory rows)")


def format_trajectory() -> str:
    traj_path = BASELINE_DIR / "trajectory.json"
    if not traj_path.exists():
        return "(no trajectory history yet)"
    history = json.loads(traj_path.read_text())
    rows = [
        [
            h.get("recorded_at", "?"),
            h.get("scale", "?"),
            h.get("record_mcells_per_sec", "?"),
            h.get("columnar_mcells_per_sec", "?"),
            h.get("columnar_speedup", "?"),
            f"{h['tracing_overhead']:+.1%}"
            if h.get("tracing_overhead") is not None else "?",
            f"{h['live_bus_overhead']:+.1%}"
            if h.get("live_bus_overhead") is not None else "?",
        ]
        for h in history
    ]
    headers = ["recorded", "scale", "rec Mc/s", "col Mc/s", "speedup",
               "trace ovh", "live ovh"]
    widths = [
        max(len(headers[i]), *(len(str(r[i])) for r in rows))
        for i in range(len(headers))
    ]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for r in rows:
        lines.append("  ".join(str(c).ljust(w) for c, w in zip(r, widths)))
    return "\n".join(lines)


def main() -> int:
    ap = argparse.ArgumentParser(
        description="compare fresh benchmark JSONs against baselines"
    )
    ap.add_argument(
        "--results",
        default=str(Path(__file__).parent / "results"),
        help="directory holding fresh BENCH_*.json (runall.py --out)",
    )
    ap.add_argument(
        "--update",
        action="store_true",
        help="rewrite baselines from --results and append to trajectory",
    )
    ap.add_argument(
        "--report",
        default=None,
        help="also write the comparison table to this file",
    )
    args = ap.parse_args()
    results_dir = Path(args.results)

    if args.update:
        update_baselines(results_dir)
        print()
        print(format_trajectory())
        return 0

    if not BASELINE_DIR.exists():
        print(f"no baselines at {BASELINE_DIR}; run with --update first",
              file=sys.stderr)
        return 1
    baselines = load(BASELINE_DIR)
    results = load(results_dir)
    rows, failures = run_comparison(baselines, results)
    table = format_table(rows)
    report = (
        f"benchmark regression check — {len(rows)} metrics, "
        f"{failures} outside tolerance\n\n{table}\n\n"
        f"trajectory:\n{format_trajectory()}\n"
    )
    print(report)
    if args.report:
        Path(args.report).write_text(report)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
