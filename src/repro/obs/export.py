"""Trace export: Chrome ``trace_event`` JSON, and loading for ``report``.

The Chrome format (one JSON object with a ``traceEvents`` array) loads
directly in Perfetto (https://ui.perfetto.dev) and ``chrome://tracing``.
Every finished span becomes a complete event (``ph: "X"``) with
microsecond ``ts``/``dur``; instants become ``ph: "i"``.  Display
tracks map to ``tid`` values with ``thread_name``/``thread_sort_index``
metadata so phases stack under their task lane, and multiple runs
(e.g. the simulator's Hadoop-vs-SIDR arms) export as separate ``pid``
processes in one file.

The one line format is the ``--events`` JSONL, the run's record event
for event (:class:`~repro.obs.live.stream.JsonlEventWriter`).
``load_trace`` reads either a Chrome trace or such a file — its spans
and metrics replayed from the events — into the normalized run
structure that :mod:`repro.obs.report` consumes:

    {"label": str,
     "spans": [{"name", "category", "track", "start", "dur", "args"}],
     "metrics": {...} | None}
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.errors import ObservabilityError
from repro.obs.folds import MetricsFold
from repro.obs.jobobs import JobObservability
from repro.obs.live.bus import EV_JOB_START, Event
from repro.obs.live.stream import read_events
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import Span, spans

Run = tuple[str, JobObservability]


def _as_runs(
    runs: JobObservability | Run | list[Run],
) -> list[Run]:
    if isinstance(runs, JobObservability):
        return [(runs.job_name, runs)]
    if isinstance(runs, tuple):
        return [runs]
    return list(runs)


def _track_order(track: str) -> tuple[int, float, str]:
    """Display order: job lane, then maps by index, then reduces."""
    kind, _, idx = track.partition(" ")
    try:
        n = float(idx)
    except ValueError:
        n = 0.0
    ranks = {"job": 0, "map": 1, "reduce": 2}
    return (ranks.get(kind, 3), n, track)


# --------------------------------------------------------------------- #
# Chrome trace_event
# --------------------------------------------------------------------- #
def _meta(name: str, pid: int, tid: int, args: dict[str, Any]) -> dict[str, Any]:
    return {"ph": "M", "name": name, "pid": pid, "tid": tid, "ts": 0, "args": args}


def chrome_trace_doc(
    runs: JobObservability | Run | list[Run],
) -> dict[str, Any]:
    """Build a Chrome ``trace_event`` document from one or more runs."""
    events: list[dict[str, Any]] = []
    metrics: dict[str, Any] = {}
    for pid, (label, obs) in enumerate(_as_runs(runs), start=1):
        events.append(_meta("process_name", pid, 0, {"name": label}))
        run_spans = [s for s in obs.spans() if s.finished]
        tracks = sorted({s.track for s in run_spans}, key=_track_order)
        tids = {t: i for i, t in enumerate(tracks, start=1)}
        for track, tid in tids.items():
            events.append(_meta("thread_name", pid, tid, {"name": track}))
            events.append(_meta("thread_sort_index", pid, tid, {"sort_index": tid}))
        for s in run_spans:
            args = {**s.args, "span_id": s.span_id}
            if s.parent_id is not None:
                args["parent_id"] = s.parent_id
            ev: dict[str, Any] = {
                "name": s.name,
                "cat": s.category,
                "pid": pid,
                "tid": tids[s.track],
                "ts": round(s.start * 1e6, 3),
                "args": args,
            }
            if s.category == "instant":
                ev["ph"] = "i"
                ev["s"] = "t"
                ev["dur"] = 0.0
            else:
                ev["ph"] = "X"
                ev["dur"] = round(s.duration * 1e6, 3)
            events.append(ev)
        metrics[label] = obs.metrics.snapshot()
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"metrics": metrics},
    }


def write_chrome_trace(
    path: str | Path, runs: JobObservability | Run | list[Run]
) -> Path:
    path = Path(path)
    path.write_text(json.dumps(chrome_trace_doc(runs), indent=1) + "\n")
    return path


def write_metrics(
    path: str | Path,
    runs: JobObservability | Run | list[Run],
    *,
    extra: dict[str, Any] | None = None,
) -> Path:
    """Write the metric snapshots of one or more runs as JSON."""
    doc: dict[str, Any] = {
        label: obs.metrics.snapshot() for label, obs in _as_runs(runs)
    }
    if extra:
        doc.update(extra)
    path = Path(path)
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return path


# --------------------------------------------------------------------- #
# Loading (for `repro.cli report`)
# --------------------------------------------------------------------- #
def normalized_runs(
    runs: JobObservability | Run | list[Run],
) -> list[dict[str, Any]]:
    """Normalize live observability objects without a disk round-trip."""
    return [
        {
            "label": label,
            "spans": _normalized(obs.spans()),
            "metrics": obs.metrics.snapshot(),
        }
        for label, obs in _as_runs(runs)
    ]


def _normalized(run_spans: list[Span]) -> list[dict[str, Any]]:
    """The finished spans as ``format_report`` reads them."""
    return [
        {
            "name": s.name,
            "category": s.category,
            "track": s.track,
            "start": s.start,
            "dur": s.duration,
            "args": dict(s.args),
        }
        for s in run_spans
        if s.finished
    ]


def _runs_from_chrome(doc: dict[str, Any]) -> list[dict[str, Any]]:
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        raise ObservabilityError("not a Chrome trace: traceEvents is not a list")
    labels: dict[int, str] = {}
    threads: dict[tuple[int, int], str] = {}
    by_pid: dict[int, list[dict[str, Any]]] = {}
    for ev in events:
        pid = ev.get("pid", 1)
        if ev.get("ph") == "M":
            if ev.get("name") == "process_name":
                labels[pid] = ev.get("args", {}).get("name", f"pid {pid}")
            elif ev.get("name") == "thread_name":
                threads[(pid, ev.get("tid", 0))] = ev.get("args", {}).get(
                    "name", ""
                )
        elif ev.get("ph") in ("X", "i"):
            by_pid.setdefault(pid, []).append(ev)
    metrics = doc.get("otherData", {}).get("metrics", {})
    runs = []
    for pid in sorted(by_pid):
        label = labels.get(pid, f"pid {pid}")
        runs.append(
            {
                "label": label,
                "spans": [
                    {
                        "name": ev.get("name", "?"),
                        "category": ev.get("cat", "phase"),
                        "track": threads.get(
                            (pid, ev.get("tid", 0)), str(ev.get("tid", 0))
                        ),
                        "start": float(ev.get("ts", 0.0)) / 1e6,
                        "dur": float(ev.get("dur", 0.0)) / 1e6,
                        "args": ev.get("args", {}),
                    }
                    for ev in by_pid[pid]
                ],
                "metrics": metrics.get(label),
            }
        )
    return runs


def _runs_from_events(events: list[Event]) -> list[dict[str, Any]]:
    """One run per ``job`` id, labelled by its ``job.start`` name, its
    spans and registry metrics read off its events."""
    by_job: dict[str, list[Event]] = {}
    for ev in events:
        by_job.setdefault(ev.job, []).append(ev)
    runs = []
    for job, run_events in by_job.items():
        registry = MetricsRegistry()
        fold = MetricsFold(registry)
        label = job or "job"
        for ev in run_events:
            fold(ev)
            if ev.type == EV_JOB_START:
                label = ev.data.get("name", label)
        runs.append(
            {
                "label": label,
                "spans": _normalized(spans(run_events)),
                "metrics": registry.snapshot(),
            }
        )
    return runs


def load_trace(path: str | Path) -> list[dict[str, Any]]:
    """Load a saved trace into normalized runs, deciding the format by
    content: a JSON document with ``traceEvents`` is a Chrome trace,
    anything else must be an ``--events`` JSONL."""
    text = Path(path).read_text()
    if not text.strip():
        raise ObservabilityError(f"empty trace file {path}")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        doc = None
    if isinstance(doc, dict) and "traceEvents" in doc:
        return _runs_from_chrome(doc)
    try:
        events = read_events(path)
    except (ValueError, KeyError, TypeError):
        events = []
    if not events:
        raise ObservabilityError(
            f"{path} is neither a Chrome trace nor an --events JSONL"
        )
    return _runs_from_events(events)
