"""The metrics fold over the event spine.

:class:`MetricsFold` derives its output from
:class:`~repro.obs.live.bus.Event` fields alone — timestamps come from
``Event.t``, never from a clock read at delivery — so feeding a recorded
stream (``read_events(path)``, or a simulator timeline replay) through a
fresh instance reproduces what a live run recorded.
:class:`~repro.obs.jobobs.JobObservability`, when ``enabled``, runs it
once over the run's record at finish.  The run's other readings live
beside what they fill (:func:`~repro.obs.spans.spans`,
:meth:`Counters.fold <repro.mapreduce.counters.Counters.fold>`,
:class:`~repro.obs.trace.EngineTrace`, ``JobResult.attempts``).
"""

from __future__ import annotations

from repro.obs.live.bus import (
    EV_BARRIER_FIRE,
    EV_FETCH,
    EV_JOB_FINISH,
    EV_JOB_START,
    EV_RECOVERY,
    EV_SPILL_COMMIT,
    EV_TASK_FINISH,
    EV_TASK_HANG,
    EV_TASK_PHASE,
    EV_TASK_RETRY,
    EV_TASK_START,
    EV_TASK_STRAGGLER,
    Event,
)
from repro.obs.metrics import MetricsRegistry, RATE_BUCKETS, TIME_BUCKETS


class MetricsFold:
    """The registry metrics that have no ``Counters`` name: shuffle
    spill/fetch and straggler/hang counters, the wait/backoff/recovery/fetch
    histograms, the map emit rate, the inflight and makespan gauges.
    (Lifecycle tallies are ``Counters`` names, exported into the
    registry at job finish.)"""

    def __init__(self, metrics: MetricsRegistry) -> None:
        self._m = metrics
        self._job_t0 = 0.0
        # Hot handles resolved once; the rare ones look up on use.
        self._inflight = metrics.gauge("obs.tasks.inflight")
        self._spill_files = metrics.counter("shuffle.spill.files")
        self._spill_records = metrics.counter("shuffle.spill.records")
        self._fetch_conn = metrics.counter("shuffle.fetch.connections")
        self._fetch_empty = metrics.counter("shuffle.fetch.empty")
        self._handlers = {
            EV_JOB_START: self._job_start,
            EV_JOB_FINISH: self._job_finish,
            EV_TASK_START: lambda ev: self._inflight.add(1),
            EV_TASK_FINISH: lambda ev: self._inflight.add(-1),
            EV_TASK_PHASE: self._phase,
            EV_SPILL_COMMIT: self._spill_commit,
            EV_FETCH: self._fetch,
            EV_BARRIER_FIRE: self._barrier_fire,
            EV_TASK_RETRY: lambda ev: self._observe(
                "task.retry.backoff", ev.data["backoff"]
            ),
            EV_RECOVERY: lambda ev: self._observe(
                "recovery.seconds", ev.data["seconds"]
            ),
            EV_TASK_STRAGGLER: lambda ev: self._inc("sched.stragglers.flagged"),
            EV_TASK_HANG: lambda ev: self._inc("sched.hangs.flagged"),
        }

    def __call__(self, ev: Event) -> None:
        handler = self._handlers.get(ev.type)
        if handler is not None:
            handler(ev)

    def _inc(self, name: str, amount: int = 1) -> None:
        self._m.counter(name).inc(amount)

    def _observe(self, name: str, seconds: float) -> None:
        self._m.histogram(name, TIME_BUCKETS).observe(seconds)

    def _job_start(self, ev: Event) -> None:
        self._job_t0 = ev.t

    def _job_finish(self, ev: Event) -> None:
        self._m.gauge("job.makespan.seconds").set(ev.t - self._job_t0)

    def _spill_commit(self, ev: Event) -> None:
        # An empty map still writes its index entry — count it, or spill
        # counters under-report jobs with empty maps.
        self._spill_files.inc(len(ev.data["partitions"]) or 1)
        self._spill_records.inc(ev.data["records"])
        if ev.data["superseded"]:
            self._inc("shuffle.spill.superseded")

    def _fetch(self, ev: Event) -> None:
        self._fetch_conn.inc()
        if ev.data["empty"]:
            self._fetch_empty.inc()

    def _phase(self, ev: Event) -> None:
        """A phase that completed: a ``reduce.fetch``'s seconds, a
        ``map.read``'s records emitted per second."""
        if "error" in ev.data:
            return
        name, seconds = ev.data["name"], ev.t - ev.data["start"]
        if name == "reduce.fetch":
            self._observe("shuffle.fetch.seconds", seconds)
        elif name == "map.read" and seconds > 0 and ev.data.get("records"):
            self._m.histogram("map.emit.records_per_sec", RATE_BUCKETS).observe(
                ev.data["records"] / seconds
            )

    def _barrier_fire(self, ev: Event) -> None:
        self._observe(
            "barrier.wait.seconds", ev.t - ev.data.get("since", self._job_t0)
        )
