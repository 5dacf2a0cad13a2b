"""Live progress tracking and cost-model ETA.

:class:`ProgressTracker` reads a job's in-flight view off an
:class:`~repro.obs.live.bus.EventBus`'s record whenever it is asked:
per-phase completion fractions (maps done / reduces fired / reduces
done), the reduce-completion curve, in-flight attempt counts (a
primary and its racing backup are two), and an ETA.
It attaches nothing to the bus, so watching a job costs the job
nothing.  Its :meth:`ProgressTracker.snapshot` returns the JSON status
document (schema in ``docs/OBSERVABILITY.md``) that the resident
service's per-job status endpoint serves.

:class:`CostModelEta` is the first bridge between the simulator's
:class:`~repro.sim.costmodel.CostModel` and measured traces: it prices
every map and reduce task of a real job from its
:class:`~repro.sidr.planner.SIDRPlan` (via
:func:`~repro.bench.workloads.sim_spec_from_plan`), and the tracker
continuously *calibrates* those predictions against measured task
durations — the model supplies the relative shape of the remaining
work, the measurements supply the machine's actual speed.
"""

from __future__ import annotations

import random
from typing import Any

from repro.obs.live.bus import (
    EV_BARRIER_FIRE,
    EV_JOB_FINISH,
    EV_JOB_START,
    EV_TASK_CANCELLED,
    EV_TASK_FINISH,
    EV_TASK_RETRY,
    EV_TASK_START,
    EV_TASK_STRAGGLER,
    Event,
    EventBus,
)
from repro.spec.cancel import REASON_HANG


class CostModelEta:
    """Per-task predicted seconds for a real job, from the sim cost model.

    Predictions use the cost model's deterministic path (jitter off,
    full locality — the real engine reads from memory, so only the
    *relative* cost across tasks matters; the tracker's calibration
    scale absorbs the absolute units).
    """

    def __init__(
        self,
        sidr_plan: Any,
        *,
        map_workers: int = 4,
        reduce_workers: int = 3,
    ) -> None:
        from repro.bench.workloads import sim_spec_from_plan
        from repro.sim.costmodel import CostModel

        spec = sim_spec_from_plan(sidr_plan)
        cm = CostModel(jitter_sigma=0.0)
        rng = random.Random(0)
        self.map_workers = max(1, map_workers)
        self.reduce_workers = max(1, reduce_workers)
        self.map_seconds: tuple[float, ...] = tuple(
            cm.map_duration(
                read_bytes=sp.read_bytes,
                cells=sp.cells,
                output_bytes=sp.output_bytes,
                local_fraction=1.0,
                rng=rng,
            )
            for sp in spec.splits
        )
        dist = spec.distribution
        reduce_secs: list[float] = []
        for l in range(spec.num_reduces):
            input_bytes = sum(
                int(sp.output_bytes * dist.share(sp.index, l))
                for sp in spec.splits
            )
            reduce_secs.append(
                cm.fetch_time(input_bytes)
                + cm.reduce_processing_time(
                    input_bytes=input_bytes,
                    output_bytes=spec.reduce_output_bytes[l],
                    dense_output=spec.dense_output,
                    rng=rng,
                )
            )
        self.reduce_seconds: tuple[float, ...] = tuple(reduce_secs)

    def predicted_seconds(self, kind: str, index: int) -> float:
        table = self.map_seconds if kind == "map" else self.reduce_seconds
        if 0 <= index < len(table):
            return table[index]
        return 0.0

    def predicted_makespan(self) -> float:
        """Pool-width-normalized total: map work over the map pool plus
        the reduce tail over the reduce pool (an upper bound — with
        dependency barriers the phases overlap)."""
        return (
            sum(self.map_seconds) / self.map_workers
            + sum(self.reduce_seconds) / self.reduce_workers
        )


class _Progress:
    """One reading of the record: phase sets, in-flight attempts, the
    reduce curve and the calibration sums.  ``failures`` counts as
    ``Counters.fold``'s ``task.failures`` does: failed attempts plus
    hang-mitigation cancels."""

    def __init__(self, estimator: CostModelEta | None, events: list[Event]) -> None:
        self.job_name = "job"
        self.num_maps: int | None = None
        self.num_reduces: int | None = None
        self.maps_done: set[int] = set()
        self.reduces_fired: set[int] = set()
        self.reduces_done: set[int] = set()
        self.inflight: dict[tuple[str, int, int], float] = {}
        self.curve: list[tuple[float, float]] = []
        self.retries = 0
        self.failures = 0
        self.stragglers: dict[tuple[str, int], dict[str, Any]] = {}
        self.started_at: float | None = None
        self.finished_at: float | None = None
        # Calibration accumulators: measured vs predicted seconds over
        # *completed* tasks (the same task set on both sides, so the
        # ratio is a unit conversion, not an extrapolation).
        self.measured_done = 0.0
        self.predicted_done = 0.0
        for ev in events:
            if ev.type == EV_JOB_START:
                self.job_name = ev.data.get("name", self.job_name)
                self.num_maps = int(ev.data.get("maps", 0))
                self.num_reduces = int(ev.data.get("reduces", 0))
                self.started_at = ev.t
            elif ev.type == EV_TASK_START:
                self.inflight[(ev.kind, ev.index, ev.attempt)] = ev.t
            elif ev.type == EV_TASK_FINISH:
                self.inflight.pop((ev.kind, ev.index, ev.attempt), None)
                status = ev.data.get("status")
                if status == "ok":
                    if ev.kind == "map":
                        self.maps_done.add(ev.index)
                    elif ev.kind == "reduce":
                        self.reduces_done.add(ev.index)
                        total = self.num_reduces or 0
                        frac = len(self.reduces_done) / total if total else 0.0
                        self.curve.append((ev.t, frac))
                    self.stragglers.pop((ev.kind, ev.index), None)
                    if estimator is not None:
                        self.measured_done += float(ev.data.get("seconds", 0.0))
                        self.predicted_done += estimator.predicted_seconds(
                            ev.kind, ev.index
                        )
                elif status == "failed":
                    self.failures += 1
            elif ev.type == EV_TASK_CANCELLED:
                if ev.data.get("reason") == REASON_HANG:
                    self.failures += 1
            elif ev.type == EV_BARRIER_FIRE:
                self.reduces_fired.add(ev.index)
            elif ev.type == EV_TASK_RETRY:
                self.retries += 1
            elif ev.type == EV_TASK_STRAGGLER:
                self.stragglers[(ev.kind, ev.index)] = {
                    "kind": ev.kind,
                    "index": ev.index,
                    "elapsed": ev.data.get("elapsed"),
                    "threshold": ev.data.get("threshold"),
                    "median": ev.data.get("median"),
                }
            elif ev.type == EV_JOB_FINISH:
                self.finished_at = ev.t

    def fractions(self) -> tuple[float, float, float]:
        m = len(self.maps_done) / self.num_maps if self.num_maps else 0.0
        if not self.num_reduces:
            return m, 0.0, 0.0
        return (
            m,
            len(self.reduces_fired) / self.num_reduces,
            len(self.reduces_done) / self.num_reduces,
        )

    def all_done(self) -> bool:
        return (
            self.num_maps is not None
            and len(self.maps_done) == self.num_maps
            and self.num_reduces is not None
            and len(self.reduces_done) == self.num_reduces
        )


class ProgressTracker:
    """Progress fractions and an ETA, read off a bus's record whenever
    they are asked for (it attaches nothing to the bus)."""

    def __init__(
        self,
        bus: EventBus,
        *,
        estimator: CostModelEta | None = None,
    ) -> None:
        self._bus = bus
        self.estimator = estimator

    def _read(self) -> _Progress:
        return _Progress(self.estimator, self._bus.events())

    # ------------------------------------------------------------------ #
    # Derived state
    # ------------------------------------------------------------------ #
    def _overall_fraction(self, p: _Progress) -> float:
        """Work-weighted overall completion.

        With an estimator, weights are predicted phase totals; without,
        maps and reduces weigh equally.
        """
        m, _rf, rd = p.fractions()
        if self.estimator is not None:
            wm = sum(self.estimator.map_seconds)
            wr = sum(self.estimator.reduce_seconds)
            if wm + wr > 0:
                return (m * wm + rd * wr) / (wm + wr)
        return (m + rd) / 2.0

    def _eta(self, p: _Progress, now: float) -> float | None:
        """Remaining seconds; None while nothing is known yet."""
        if p.finished_at is not None:
            return 0.0
        est = self.estimator
        if est is not None and p.predicted_done > 0:
            scale = p.measured_done / p.predicted_done
            rem_map = sum(
                est.map_seconds[i]
                for i in range(len(est.map_seconds))
                if i not in p.maps_done
            ) / est.map_workers
            rem_reduce = sum(
                est.reduce_seconds[l]
                for l in range(len(est.reduce_seconds))
                if l not in p.reduces_done
            ) / est.reduce_workers
            # Dependency barriers overlap the phases: the longer phase
            # dominates the remaining wall clock.
            return max(rem_map, rem_reduce) * scale
        # Rate extrapolation fallback: elapsed / fraction so far.
        frac = self._overall_fraction(p)
        if p.started_at is None or frac <= 0.0:
            return None
        elapsed = now - p.started_at
        return max(0.0, elapsed * (1.0 - frac) / frac)

    def eta_seconds(self, now: float | None = None) -> float | None:
        return self._eta(self._read(), self._bus.now() if now is None else now)

    @property
    def inflight(self) -> int:
        return len(self._read().inflight)

    @property
    def done(self) -> bool:
        return self._read().finished_at is not None

    def reduce_completion_curve(self) -> list[tuple[float, float]]:
        """(t, fraction-of-reduces-done) points, in completion order."""
        return self._read().curve

    # ------------------------------------------------------------------ #
    # The status document
    # ------------------------------------------------------------------ #
    def snapshot(self, now: float | None = None) -> dict[str, Any]:
        """JSON status document — the payload a per-job status endpoint
        serves.  Schema documented in ``docs/OBSERVABILITY.md``."""
        if now is None:
            now = self._bus.now()
        p = self._read()
        m, rf, rd = p.fractions()
        if p.finished_at is not None:
            state = "done" if p.all_done() else "failed"
            elapsed = p.finished_at - (p.started_at or 0.0)
        elif p.started_at is not None:
            state = "running"
            elapsed = now - p.started_at
        else:
            state = "pending"
            elapsed = 0.0
        eta = self._eta(p, now)
        inflight_maps = sum(1 for k, _, _ in p.inflight if k == "map")
        inflight_reduces = sum(1 for k, _, _ in p.inflight if k == "reduce")
        return {
            "job": p.job_name,
            "state": state,
            "elapsed": round(elapsed, 6),
            "eta": round(eta, 6) if eta is not None else None,
            "progress": round(self._overall_fraction(p), 6),
            "maps": {
                "total": p.num_maps or 0,
                "done": len(p.maps_done),
                "inflight": inflight_maps,
                "fraction": round(m, 6),
            },
            "reduces": {
                "total": p.num_reduces or 0,
                "fired": len(p.reduces_fired),
                "done": len(p.reduces_done),
                "inflight": inflight_reduces,
                "fraction_fired": round(rf, 6),
                "fraction": round(rd, 6),
            },
            "tasks_inflight": len(p.inflight),
            "attempts": {"retries": p.retries, "failures": p.failures},
            "stragglers": sorted(
                p.stragglers.values(), key=lambda s: (s["kind"], s["index"])
            ),
            "reduce_curve": [[round(t, 6), round(f, 6)] for t, f in p.curve],
            "events": {"published": self._bus.published},
        }
