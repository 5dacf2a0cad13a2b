"""SIDR scheduling policy (paper §3.3, §3.4).

"SIDR inverts this process by scheduling Reduce tasks first with Map
tasks only becoming eligible to be scheduled if at least one Reduce task
that depends on it is already running.  Whenever a Reduce task is
scheduled, the same tree structure is crawled and all Map tasks that
contribute to the Reduce task are marked as schedulable."

This module is the *policy* object a SIDR plan hands out
(:meth:`~repro.sidr.planner.SIDRPlan.schedule_policy`): it tracks which
maps are eligible, orders reduce tasks (by user priority, then index —
§3.4's output-space prioritization), and answers readiness queries.  The
discrete-event simulator does not use it: :mod:`repro.sim.jobsim` keeps
its own reduce order and map eligibility, alongside the mechanics of
slots and time, and never imports this module.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.errors import SchedulerError
from repro.obs.live.bus import EV_SCHED_MAP, EV_SCHED_REDUCE
from repro.sidr.dependencies import DependencyMap


@dataclass
class SidrSchedulePolicy:
    """Mutable scheduling state for one job."""

    deps: DependencyMap
    #: Lower value = schedule earlier; defaults to all-equal (index order).
    priorities: Sequence[float] | None = None
    #: Optional event bus (:class:`~repro.obs.live.bus.EventBus`):
    #: scheduling decisions publish ``sched.reduce.scheduled`` /
    #: ``sched.map.scheduled``, which the run's
    #: :class:`~repro.obs.folds.MetricsFold` reads off the bus's record
    #: as the ``sched.*`` metrics (see docs/OBSERVABILITY.md).
    bus: object | None = None

    _eligible_maps: set[int] = field(default_factory=set, repr=False)
    _scheduled_reduces: set[int] = field(default_factory=set, repr=False)
    _scheduled_maps: set[int] = field(default_factory=set, repr=False)

    def __post_init__(self) -> None:
        if self.priorities is not None and len(self.priorities) != self.deps.num_blocks:
            raise SchedulerError(
                f"priorities length {len(self.priorities)} != "
                f"{self.deps.num_blocks} keyblocks"
            )

    # ------------------------------------------------------------------ #
    # Reduce side
    # ------------------------------------------------------------------ #
    def reduce_schedule_order(self) -> list[int]:
        """Keyblock indices in scheduling order: priority, then index.

        With no priorities this is plain index order; §3.4's steering and
        burst-buffer scenarios supply priorities that pull chosen output
        regions forward.
        """
        indices = list(range(self.deps.num_blocks))
        if self.priorities is None:
            return indices
        return sorted(indices, key=lambda l: (self.priorities[l], l))

    def on_reduce_scheduled(self, block: int) -> frozenset[int]:
        """Record a reduce task starting; returns the map tasks that just
        became eligible ("2 pointer dereferences per Map / Reduce
        dependency" — here a set difference)."""
        if block in self._scheduled_reduces:
            raise SchedulerError(f"reduce {block} scheduled twice")
        if not (0 <= block < self.deps.num_blocks):
            raise SchedulerError(f"unknown keyblock {block}")
        self._scheduled_reduces.add(block)
        newly = self.deps.dependencies[block] - self._eligible_maps
        self._eligible_maps |= newly
        if self.bus is not None:
            self.bus.publish(
                EV_SCHED_REDUCE,
                kind="reduce",
                index=block,
                unlocked_maps=sorted(newly),
            )
        return frozenset(newly)

    # ------------------------------------------------------------------ #
    # Map side
    # ------------------------------------------------------------------ #
    def is_map_eligible(self, split_index: int) -> bool:
        """A map may run only when a scheduled reduce depends on it."""
        return split_index in self._eligible_maps

    def eligible_unscheduled_maps(self) -> frozenset[int]:
        return frozenset(self._eligible_maps - self._scheduled_maps)

    def on_map_scheduled(self, split_index: int) -> None:
        if split_index in self._scheduled_maps:
            raise SchedulerError(f"map {split_index} scheduled twice")
        if split_index not in self._eligible_maps:
            raise SchedulerError(
                f"map {split_index} scheduled while ineligible — no running "
                "reduce depends on it"
            )
        self._scheduled_maps.add(split_index)
        if self.bus is not None:
            self.bus.publish(EV_SCHED_MAP, kind="map", index=split_index)

    # ------------------------------------------------------------------ #
    @property
    def scheduled_reduces(self) -> frozenset[int]:
        return frozenset(self._scheduled_reduces)

    @property
    def scheduled_maps(self) -> frozenset[int]:
        return frozenset(self._scheduled_maps)
