"""Deterministic interleaving explorer.

Replays one job under ``schedules`` systematically permuted thread
interleavings (a :class:`~repro.verify.hooks.ChaosHook` attached to
each run's bus; schedule 0 is the unperturbed baseline) and checks, for
every explored interleaving:

* the barrier/shuffle invariants of :mod:`repro.verify.invariants`
  hold on the run's record (``obs.bus.events()``),
* no bus listener raised (a listener acts on the run — the chaos
  hook — so one that raised means the run was not the one explored),
  and
* the run's outcome is byte-identical (canonical digest) to a serial
  reference run — including *failure* outcomes: a job that fails
  serially must fail under every interleaving too — and the byte form
  the digest hashes decodes back to the run's own records (a run where
  it does not reads ``diverged`` and counts as divergent).

Fault plans compose naturally: pass an ``engine_factory`` that builds
engines with faults/retry/recovery, and the explorer verifies that
recovery re-execution, supersede, and stale-fetch invalidation behave
identically under every schedule.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

from repro.errors import JobFailedError, ReproError
from repro.mapreduce.engine import BarrierPolicy, LocalEngine
from repro.mapreduce.job import JobConf
from repro.obs import JobObservability
from repro.verify.hooks import ChaosHook
from repro.verify.invariants import Violation, check_interleaving_invariants
from repro.verify.oracle import checked_digest

#: make_job() must return a fresh (job, barrier) pair per call — jobs
#: carry mutable context and must not be shared across runs.
MakeJob = Callable[[], tuple[JobConf, BarrierPolicy]]
EngineFactory = Callable[[], LocalEngine]


def failure_types(exc: BaseException) -> tuple[str, ...]:
    """Sorted error type names a run failed with (JobFailedError is
    flattened to its collected task errors)."""
    if isinstance(exc, JobFailedError) and exc.errors:
        return tuple(sorted({type(e).__name__ for e in exc.errors}))
    return (type(exc).__name__,)


@dataclass(frozen=True)
class ScheduleRun:
    """Outcome of one explored interleaving."""

    schedule: int
    status: str                          # "ok" | "failed" | "diverged"
    error_types: tuple[str, ...]
    digest: str | None                   # canonical output digest when ok
    num_events: int
    violations: tuple[Violation, ...]


@dataclass(frozen=True)
class ExplorationReport:
    """Everything one exploration produced."""

    job_name: str
    seed: int
    baseline_status: str
    baseline_digest: str | None
    runs: tuple[ScheduleRun, ...]
    #: Schedules whose (status, digest) differ from the serial baseline.
    divergent: tuple[int, ...]
    #: Bus listeners that raised, over the baseline and every schedule.
    listener_errors: int = 0

    @property
    def violations(self) -> tuple[Violation, ...]:
        return tuple(v for r in self.runs for v in r.violations)

    @property
    def ok(self) -> bool:
        return (
            not self.divergent
            and not self.violations
            and not self.listener_errors
        )

    def summary(self) -> str:
        state = "OK" if self.ok else "FAIL"
        return (
            f"{state} {self.job_name}: {len(self.runs)} schedules, "
            f"{len(self.violations)} invariant violations, "
            f"{len(self.divergent)} divergent outputs, "
            f"{self.listener_errors} listener errors "
            f"(baseline {self.baseline_status})"
        )


def _default_engine_factory() -> LocalEngine:
    return LocalEngine(observability=False)


def explore(
    make_job: MakeJob,
    *,
    schedules: int = 8,
    seed: int = 0,
    engine_factory: EngineFactory | None = None,
    max_delay: float = 0.0015,
    metrics: Any | None = None,
) -> ExplorationReport:
    """Run the job serially once (reference), then under ``schedules``
    perturbed threaded interleavings, checking invariants and output
    identity on every run."""
    factory = engine_factory or _default_engine_factory

    job, barrier = make_job()
    baseline_status, baseline_digest, _, _, listener_errors = _run(
        factory(), job, barrier, mode="serial"
    )

    runs: list[ScheduleRun] = []
    divergent: list[int] = []
    for k in range(schedules):
        job, barrier = make_job()
        hook = ChaosHook(
            seed=seed, schedule=k, max_delay=0.0 if k == 0 else max_delay
        )
        status, digest, events, attempts, errors = _run(
            factory(), job, barrier, mode="threaded", hook=hook
        )
        listener_errors += errors
        violations = tuple(
            check_interleaving_invariants(
                events,
                barrier=barrier,
                total_maps=job.num_map_tasks,
                contact_all_maps=job.contact_all_maps,
                attempts=attempts,
            )
        )
        run = ScheduleRun(
            schedule=k,
            status=status[0],
            error_types=status[1],
            digest=digest,
            num_events=len(events),
            violations=violations,
        )
        runs.append(run)
        if run.status == "diverged" or (run.status, run.digest) != (
            baseline_status[0], baseline_digest
        ):
            divergent.append(k)
        if metrics is not None:
            metrics.counter("verify.explorer.schedules").inc()
            if violations:
                metrics.counter("verify.explorer.violations").inc(len(violations))

    if metrics is not None and divergent:
        metrics.counter("verify.explorer.divergent").inc(len(divergent))
    return ExplorationReport(
        job_name=job.name,
        seed=seed,
        baseline_status=baseline_status[0],
        baseline_digest=baseline_digest,
        runs=tuple(runs),
        divergent=tuple(divergent),
        listener_errors=listener_errors,
    )


def _run(
    engine: LocalEngine,
    job: JobConf,
    barrier: BarrierPolicy,
    *,
    mode: str,
    hook: ChaosHook | None = None,
) -> tuple[tuple[str, tuple[str, ...]], str | None, list, tuple, int]:
    """One engine run, with ``hook`` on its bus → ((status, error
    types), digest, the bus's record, attempts, listener errors)."""
    obs = JobObservability(job.name, enabled=False)
    if hook is not None:
        obs.bus.attach(hook)
    try:
        res = engine.run(job, barrier, mode=mode, obs=obs)
    except ReproError as exc:
        status, digest, attempts = ("failed", failure_types(exc)), None, ()
    else:
        digest, consistent = checked_digest(res.all_records())
        status = ("ok" if consistent else "diverged", ())
        attempts = res.attempts
    return status, digest, obs.bus.events(), attempts, obs.bus.listener_errors
