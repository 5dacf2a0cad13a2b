"""Task timelines: the simulator's output.

A :class:`TaskTimeline` records, for every task, when it was scheduled,
when it began processing, and when it finished.  The bench harness turns
timelines into the paper's plots: "Fraction of Total Output Available"
over time (Figures 9-11, 13), per-task variance (Figure 12), and
first-result / completion summary statistics quoted in the text.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import SimulationError
from repro.sidr.early_results import CompletionCurve


@dataclass
class TaskTimeline:
    """Per-task timing plus run-level accounting."""

    mode: str
    num_maps: int
    num_reduces: int
    map_start: list[float] = field(default_factory=list)
    map_finish: list[float] = field(default_factory=list)
    reduce_scheduled: list[float] = field(default_factory=list)
    reduce_processing_start: list[float] = field(default_factory=list)
    reduce_finish: list[float] = field(default_factory=list)
    #: When each reduce's barrier became satisfied (its last dependency
    #: map finished, or its schedule time if maps were already done).
    #: May be empty on timelines built before this field existed.
    reduce_barrier_ready: list[float] = field(default_factory=list)
    #: Output-share weight of each reduce task (sums to 1).
    reduce_weights: list[float] = field(default_factory=list)
    shuffle_connections: int = 0

    def validate(self) -> None:
        if len(self.map_finish) != self.num_maps:
            raise SimulationError("missing map completions")
        if len(self.reduce_finish) != self.num_reduces:
            raise SimulationError("missing reduce completions")
        for s, f in zip(self.map_start, self.map_finish):
            if f < s:
                raise SimulationError("map finished before start")
        for s, p, f in zip(
            self.reduce_scheduled, self.reduce_processing_start, self.reduce_finish
        ):
            if not (s <= p <= f):
                raise SimulationError("reduce phase times out of order")

    # ------------------------------------------------------------------ #
    # Summary statistics
    # ------------------------------------------------------------------ #
    @property
    def makespan(self) -> float:
        return max(max(self.map_finish, default=0.0), max(self.reduce_finish, default=0.0))

    @property
    def last_map_finish(self) -> float:
        return max(self.map_finish, default=0.0)

    @property
    def first_result_time(self) -> float:
        """Time of the first committed reduce output — the paper's
        "first result" metric (§4.1)."""
        return min(self.reduce_finish, default=float("inf"))

    def reduces_finished_before_last_map(self) -> int:
        last = self.last_map_finish
        return sum(1 for f in self.reduce_finish if f < last)

    # ------------------------------------------------------------------ #
    # Curves
    # ------------------------------------------------------------------ #
    def map_completion_curve(self) -> CompletionCurve:
        ts = sorted(self.map_finish)
        n = len(ts)
        return CompletionCurve(
            tuple(ts), tuple((i + 1) / n for i in range(n))
        )

    def reduce_completion_curve(self) -> CompletionCurve:
        """Output availability weighted by each reduce's output share.

        A job with zero reduce tasks has an empty curve (not a crash):
        map-only jobs and degenerate simulator configs are legal.
        """
        if self.num_reduces == 0 or not self.reduce_finish:
            return CompletionCurve((), ())
        order = np.argsort(self.reduce_finish, kind="stable")
        w = np.asarray(self.reduce_weights, dtype=np.float64)
        if w.size == 0:
            w = np.full(self.num_reduces, 1.0 / self.num_reduces)
        fr = np.cumsum(w[order])
        if fr[-1] > 0:
            fr /= fr[-1]
        ts = np.asarray(self.reduce_finish)[order]
        return CompletionCurve(tuple(float(t) for t in ts), tuple(float(f) for f in fr))

    def fraction_done_at(self, t: float) -> float:
        return self.reduce_completion_curve().fraction_at(t)

    def sampled_reduce_curve(self, times: np.ndarray) -> np.ndarray:
        """Reduce-availability fractions at the given times (for averaging
        across runs in the Figure 12 variance analysis)."""
        curve = self.reduce_completion_curve()
        if not curve.times:
            return np.zeros(len(np.atleast_1d(np.asarray(times))))
        ct = np.asarray(curve.times)
        cf = np.asarray(curve.fractions)
        idx = np.searchsorted(ct, np.asarray(times), side="right")
        out = np.where(idx > 0, cf[np.maximum(idx - 1, 0)], 0.0)
        return out

    def summary(self) -> dict[str, float]:
        return {
            "makespan": self.makespan,
            "last_map_finish": self.last_map_finish,
            "first_result": self.first_result_time,
            "early_reduces": float(self.reduces_finished_before_last_map()),
            "connections": float(self.shuffle_connections),
        }

    # ------------------------------------------------------------------ #
    # Observability bridge
    # ------------------------------------------------------------------ #
    def to_observability(self, job_name: str | None = None):
        """This timeline as a :class:`~repro.obs.JobObservability`, built
        the way a real run's is: :meth:`replay_events` onto its bus, then
        the same finish-time reading of the record — metrics and
        lifecycle counters — so a simulated run exports to the same
        Perfetto trace and metrics vocabulary as a
        :class:`~repro.mapreduce.engine.LocalEngine` run.
        """
        from repro.mapreduce.counters import Counters
        from repro.obs import JobObservability

        obs = JobObservability(job_name or f"sim-{self.mode}")
        counters = Counters()
        self.replay_events(obs.bus, obs.job_name)
        # The simulator prices connections in aggregate: there are no
        # per-fetch events to fold, only the run's total.
        counters.increment("shuffle.fetch.connections", self.shuffle_connections)
        obs.fold(counters)
        return obs

    def replay_events(self, bus, job_name: str | None = None) -> int:
        """Replay this timeline onto a live event bus in simulated-time
        order, using the engine's exact live vocabulary (``job.start``,
        ``task.start``/``task.finish``, ``barrier.fire`` — carrying
        ``since`` (when the reduce was scheduled) and ``early`` (fired
        before the last map finished) — each reduce's ``reduce.fetch``
        and ``reduce.reduce`` as ``task.phase`` events, and
        ``job.finish``).

        The same consumers that watch a real run — progress tracker,
        straggler detector, JSONL writer — can therefore watch a
        simulated one; event ``t`` fields carry *simulated* seconds.
        Returns the number of events published.
        """
        from repro.obs.live.bus import (
            EV_BARRIER_FIRE,
            EV_JOB_FINISH,
            EV_JOB_START,
            EV_TASK_FINISH,
            EV_TASK_PHASE,
            EV_TASK_START,
        )

        name = job_name or f"sim-{self.mode}"
        # (simulated time, tie-break rank, publish thunk): barrier fires
        # sort ahead of the task starts they precede at equal times, and
        # a task's phases between its start and its finish.
        sequence: list[tuple[float, int, str, dict]] = []
        sequence.append(
            (
                0.0,
                0,
                EV_JOB_START,
                {"name": name, "maps": self.num_maps, "reduces": self.num_reduces},
            )
        )
        for m in range(self.num_maps):
            sequence.append(
                (self.map_start[m], 2, EV_TASK_START, {"kind": "map", "index": m})
            )
            sequence.append(
                (
                    self.map_finish[m],
                    4,
                    EV_TASK_FINISH,
                    {
                        "kind": "map",
                        "index": m,
                        "status": "ok",
                        "seconds": self.map_finish[m] - self.map_start[m],
                    },
                )
            )
        last_map = self.last_map_finish
        for l in range(self.num_reduces):
            ready = (
                self.reduce_barrier_ready[l]
                if l < len(self.reduce_barrier_ready)
                else self.reduce_processing_start[l]
            )
            ready = min(
                max(ready, self.reduce_scheduled[l]), self.reduce_finish[l]
            )
            sequence.append(
                (
                    ready,
                    1,
                    EV_BARRIER_FIRE,
                    {
                        "kind": "reduce",
                        "index": l,
                        "since": self.reduce_scheduled[l],
                        "early": ready < last_map,
                    },
                )
            )
            sequence.append(
                (ready, 2, EV_TASK_START, {"kind": "reduce", "index": l})
            )
            # Inside the reduce, the copy then the merge — the phases a
            # real reduce publishes with ``obs.phase``.
            copy_end = max(self.reduce_processing_start[l], ready)
            for phase, start, end in (
                ("reduce.fetch", ready, copy_end),
                ("reduce.reduce", copy_end, self.reduce_finish[l]),
            ):
                sequence.append(
                    (
                        end,
                        3,
                        EV_TASK_PHASE,
                        {"kind": "reduce", "index": l, "name": phase, "start": start},
                    )
                )
            sequence.append(
                (
                    self.reduce_finish[l],
                    4,
                    EV_TASK_FINISH,
                    {
                        "kind": "reduce",
                        "index": l,
                        "status": "ok",
                        "seconds": self.reduce_finish[l] - ready,
                    },
                )
            )
        sequence.append((self.makespan, 5, EV_JOB_FINISH, {"name": name}))
        sequence.sort(key=lambda item: (item[0], item[1]))
        for t, _rank, ev_type, payload in sequence:
            kind = payload.pop("kind", "")
            index = payload.pop("index", -1)
            bus.publish(ev_type, kind=kind, index=index, at=t, **payload)
        return len(sequence)
