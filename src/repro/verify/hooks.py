"""Scheduler hooks: perturb the engine's interleavings.

A hook is a listener attached to the bus a run is given
(``obs.bus.attach(hook)``); the run's log is the bus's record
(``obs.bus.events()``).  ``spill.commit`` and ``fetch`` are published
while the shuffle store's lock is held, so their ``seq`` numbers
linearize commits against fetches — which is what makes the freshness
invariants in :mod:`repro.verify.invariants` checkable from the log
alone.

:class:`ChaosHook` stalls the publishing thread at the
:data:`SCHEDULING_POINTS` by a delay derived *purely* from (seed,
schedule, event identity).  Because the delay is a function of the
event and not of arrival order, schedule ``k`` applies the same
perturbation pattern no matter how the OS happens to interleave threads
— the "systematically permuted schedule" the interleaving explorer
replays.  Schedule 0 conventionally runs with ``max_delay=0`` as the
unperturbed baseline.

Hooks must never call back into the engine or the store (the store
events publish under its lock).
"""

from __future__ import annotations

import random
import time

from repro.obs.live.bus import (
    EV_BARRIER_FIRE,
    EV_FETCH,
    EV_REDUCE_START,
    EV_SPILL_COMMIT,
    EV_TASK_SPECULATE,
    EV_TASK_START,
    Event,
)

#: Where a stall reorders threads: an attempt is claimed, a spill
#: commits, a barrier fires, a reduce attempt starts, a fetch is served,
#: a backup attempt enters its race.
SCHEDULING_POINTS = frozenset({
    EV_TASK_START,
    EV_SPILL_COMMIT,
    EV_BARRIER_FIRE,
    EV_REDUCE_START,
    EV_FETCH,
    EV_TASK_SPECULATE,
})


def _event_delay(
    seed: int, schedule: int, ev: Event, *, max_delay: float, density: float
) -> float:
    """Deterministic per-event-identity stall.

    A string seed hashes identically across processes (tuple hashes do
    not under ``PYTHONHASHSEED`` randomization), so a given (seed,
    schedule) perturbs a given event the same way in every run.  The
    payloads of the scheduling points are all structural (no timings).
    """
    key = (
        f"{seed}:{schedule}:{ev.type}:{ev.kind}:{ev.index}:{ev.attempt}:"
        f"{sorted(ev.data.items())!r}"
    )
    r = random.Random(key).random()
    if r >= density:
        return 0.0
    return (r / density) * max_delay


#: The fraction of event identities that stall at all, and the longest
#: stall, in seconds.
DENSITY = 0.6
MAX_DELAY = 0.0015


class ChaosHook:
    """Bus listener that deterministically perturbs the schedule.

    ``DENSITY`` of the event identities stall, uniformly in ``(0,
    max_delay]``.  Delays this small are enough to reorder pool threads
    across claim/spill/fetch boundaries without making exploration slow.
    """

    def __init__(
        self,
        *,
        seed: int = 0,
        schedule: int = 0,
        max_delay: float = MAX_DELAY,
    ) -> None:
        if max_delay < 0:
            raise ValueError(f"negative max_delay {max_delay}")
        self.seed = seed
        self.schedule = schedule
        self.max_delay = max_delay

    def __call__(self, ev: Event) -> None:
        if self.max_delay <= 0 or ev.type not in SCHEDULING_POINTS:
            return
        delay = _event_delay(
            self.seed, self.schedule, ev,
            max_delay=self.max_delay, density=DENSITY,
        )
        if delay > 0:
            time.sleep(delay)
