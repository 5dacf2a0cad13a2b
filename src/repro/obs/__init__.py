"""Unified observability: the event record and its readings.

The one vocabulary shared by the real engine
(:mod:`repro.mapreduce.engine`), the shuffle layer, the SIDR schedule
policy, and the discrete-event simulator: each publishes events on the
run's :class:`EventBus`, which keeps them as the run's record, and
spans, metrics, trace export and job reports are readings of that
record — so a Perfetto trace of a real threaded run, of a simulated
cluster run and of an ``--events`` JSONL read the same way.  See
``docs/OBSERVABILITY.md`` for the event, span and metric name reference.
"""

from repro.obs.jobobs import JobObservability
from repro.obs.live import (
    CostModelEta,
    Event,
    EventBus,
    JsonlEventWriter,
    LiveRenderer,
    ProgressTracker,
    StragglerDetector,
)
from repro.obs.metrics import (
    COUNT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    RATE_BUCKETS,
    TIME_BUCKETS,
    histogram_quantile,
)
from repro.obs.spans import (
    CAT_BARRIER,
    CAT_INSTANT,
    CAT_JOB,
    CAT_PHASE,
    CAT_TASK,
    Span,
)
from repro.obs.export import (
    chrome_trace_doc,
    load_trace,
    normalized_runs,
    write_chrome_trace,
    write_metrics,
)
from repro.obs.report import format_report, format_run_report

__all__ = [
    "CAT_BARRIER",
    "CAT_INSTANT",
    "CAT_JOB",
    "CAT_PHASE",
    "CAT_TASK",
    "COUNT_BUCKETS",
    "CostModelEta",
    "Counter",
    "Event",
    "EventBus",
    "Gauge",
    "Histogram",
    "JobObservability",
    "JsonlEventWriter",
    "LiveRenderer",
    "MetricsRegistry",
    "ProgressTracker",
    "RATE_BUCKETS",
    "Span",
    "StragglerDetector",
    "TIME_BUCKETS",
    "chrome_trace_doc",
    "format_report",
    "format_run_report",
    "histogram_quantile",
    "load_trace",
    "normalized_runs",
    "write_chrome_trace",
    "write_metrics",
]
