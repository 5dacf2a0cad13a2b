"""Per-run mitigation machinery: the speculation runtime and the
deadline watchdog.

Both are driven by one engine run (:mod:`repro.mapreduce.engine` builds
them per job and stops them when the run ends) but own no scheduling:
the runtime ticks its detector, and turns the hang/straggler flags each
check returns into cancels and backup launches through callbacks the
run installs; the watchdog is a one-shot timer.
"""

from __future__ import annotations

import threading
from operator import itemgetter
from typing import TYPE_CHECKING, Callable

from repro.obs.live.bus import EV_TASK_HANG, EV_TASK_SPECULATE, Event
from repro.obs.live.stragglers import StragglerDetector
from repro.spec.cancel import REASON_HANG
from repro.spec.policy import SpeculationPolicy, structural_priority

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mapreduce.engine import BarrierPolicy, _RunState
    from repro.mapreduce.job import JobConf
    from repro.obs import JobObservability


class SpeculationRuntime:
    """Per-run mitigation brain: turns hang/straggler flags into action.

    Each :meth:`tick` (on the detector's ticker thread) checks the run's
    record and live cancel tokens, then acts on the flags the check
    returned in descending structural criticality — how many pending
    reduces' I_l sets the flagged task blocks.  For a flagged **map**
    with a backup launcher available (threaded runs), it hedges:
    submits a backup attempt that races the flagged one for the map's
    commit window, until ``max_backups`` are spent.  For everything
    else — serial runs, reduce tasks, or a blown backup budget — a
    *hang* is mitigated by cancelling the flagged attempt so the retry
    loop re-runs it in place, while a mere straggler is left alone (it
    is still making progress; cancelling it would lose work).
    """

    def __init__(
        self,
        policy: SpeculationPolicy,
        state: _RunState,
        job: JobConf,
        barrier: BarrierPolicy,
        obs: JobObservability,
        *,
        pending_partitions: Callable[[], tuple[int, ...]],
    ) -> None:
        self.policy = policy
        self.state = state
        self.obs = obs
        self.barrier = barrier
        self.total_maps = job.num_map_tasks
        plan = job.context.get("sidr_plan")
        self.deps = getattr(plan, "deps", None)
        #: ``launch_backup(index, of_attempt, priority)`` submits a
        #: racing backup map attempt.  Installed by a run whose executor
        #: has a pool to race on; None = cancel-retry only.
        self.launch_backup: Callable[[int, int, float], None] | None = None
        #: Thread-safe snapshot of still-pending reduce partitions
        #: (drives structural priority).
        self.pending_partitions = pending_partitions
        self._lock = threading.Lock()
        self._backups = 0
        self._active_backup: set[int] = set()
        self.detector = StragglerDetector(obs.bus, hang_timeout=policy.hang_timeout)

    def priority_of(self, kind: str, index: int) -> float:
        """Structural criticality of a flagged task (maps only)."""
        if kind != "map":
            return 0.0
        return structural_priority(
            index,
            pending=self.pending_partitions(),
            deps=self.deps,
            barrier=self.barrier,
            total_maps=self.total_maps,
        )

    def tick(self) -> None:
        """One detector check, then mitigation of what it flagged —
        most critical first, so a blocking map gets the backup budget.
        Acted on: every hang, and stragglers when
        ``speculate_stragglers``."""
        flags = self.detector.check(tokens=self.state.live_tokens())
        ranked = sorted(
            (
                (self.priority_of(ev.kind, ev.index), ev)
                for ev in flags
                if ev.type == EV_TASK_HANG or self.policy.speculate_stragglers
            ),
            key=itemgetter(0),
            reverse=True,
        )
        for priority, ev in ranked:
            self._mitigate(ev, priority)

    def _mitigate(self, ev: Event, priority: float) -> None:
        kind, index, attempt = ev.kind, ev.index, ev.attempt
        tok = self.state.token_of(kind, index, attempt)
        if tok is None or tok.cancelled:
            return  # attempt already finished, or already being handled
        if kind == "map" and self.launch_backup is not None:
            with self._lock:
                in_budget = (
                    index not in self._active_backup
                    and (
                        self.policy.max_backups is None
                        or self._backups < self.policy.max_backups
                    )
                )
                if in_budget:
                    self._backups += 1
                    self._active_backup.add(index)
                elif index in self._active_backup:
                    return  # one racing backup per task at a time
            if in_budget:
                self.launch_backup(index, attempt, priority)
                return
            # Backup budget blown: hangs still need releasing below.
        if ev.type != EV_TASK_HANG:
            return  # slow but alive — leave it running
        if tok.cancel(REASON_HANG):
            self.obs.bus.publish(
                EV_TASK_SPECULATE, kind=kind, index=index, attempt=attempt,
                of=attempt, priority=round(priority, 4), mode="cancel-retry",
            )

    def backup_done(self, index: int, *, failed: bool = False) -> None:
        with self._lock:
            self._active_backup.discard(index)
        if failed:
            # The backup died without committing the map; release any
            # still-blocked primary so the retry loop re-runs it in
            # place (otherwise a hung primary would wait forever on a
            # backup that no longer exists).
            for a in self.state.active_attempts("map", index):
                tok = self.state.token_of("map", index, a)
                if tok is not None:
                    tok.cancel(REASON_HANG)


class DeadlineWatchdog:
    """Daemon timer firing ``on_expire`` once the job's wall-clock
    budget elapses (unless stopped first)."""

    def __init__(self, seconds: float, on_expire: Callable[[], None]) -> None:
        self._stop = threading.Event()
        self._seconds = seconds
        self._on_expire = on_expire
        self._thread = threading.Thread(
            target=self._run, name="job-deadline", daemon=True
        )

    def start(self) -> "DeadlineWatchdog":
        self._thread.start()
        return self

    def _run(self) -> None:
        if not self._stop.wait(self._seconds):
            self._on_expire()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)
