"""Speculation policy: when to hedge, and what to hedge first.

:class:`SpeculationPolicy` is the engine-facing knob bundle — passing
one to :class:`~repro.mapreduce.engine.LocalEngine` turns the flag-only
straggler/hang plane into an *acting* mitigation layer.  The engine
wires it up per run: a :class:`~repro.spec.SpeculationRuntime` ticks
its detector every ``effective_tick`` and acts on the ``task.hang``
(always) and ``task.straggler`` (when ``speculate_stragglers``) flags
each check returns.

:func:`structural_priority` is the SIDR twist on classic speculative
execution: instead of hedging the *oldest* straggler first (stock
Hadoop), candidates are ranked by how many pending reduces' I_l sets
the task blocks — computed from the dependency map when the job carries
one, or from the barrier's fetch sets otherwise.  A map feeding five
unfinished keyblocks gates five reduces (and five early results); its
backup launches before that of a map feeding one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from repro.errors import JobConfigError


@dataclass(frozen=True)
class SpeculationPolicy:
    """Knobs for hedged attempts, hang mitigation and cancellation.

    ``hang_timeout`` — seconds an in-flight attempt may pass no
    checkpoint (:meth:`~repro.spec.CancelToken.check`) before it is
    hang-flagged; it must exceed the longest gap between an attempt's
    checkpoints.  ``max_backups`` — job-wide cap on racing backup
    attempts (None = unlimited); candidates past the cap fall back to
    cancel-and-retry mitigation.  ``speculate_stragglers`` — also act
    on duration-based ``task.straggler`` flags (classic speculative
    execution), not just hangs; the straggler rule is
    :class:`~repro.obs.StragglerDetector`'s, at its defaults.  A
    :class:`~repro.service.QueryRequest` sets ``hang_timeout`` alone.
    """

    hang_timeout: float = 0.5
    max_backups: int | None = None
    speculate_stragglers: bool = True

    def __post_init__(self) -> None:
        if self.hang_timeout <= 0:
            raise JobConfigError(
                f"hang_timeout must be positive, got {self.hang_timeout}"
            )
        if self.max_backups is not None and self.max_backups < 0:
            raise JobConfigError(
                f"max_backups must be non-negative, got {self.max_backups}"
            )

    @property
    def effective_tick(self) -> float:
        """Detector check period: hang_timeout/5 clamped to [5ms, 50ms],
        so detection latency stays a small fraction of the hang budget
        without burning a core."""
        return max(0.005, min(0.05, self.hang_timeout / 5.0))


def structural_priority(
    index: int,
    *,
    pending: Sequence[int] | None = None,
    deps: Any | None = None,
    barrier: Any | None = None,
    total_maps: int = 0,
) -> float:
    """Structural criticality of map ``index``: pending reduces blocked.

    ``deps`` (anything with a
    :meth:`~repro.sidr.dependencies.DependencyMap.criticality` method —
    the SIDR dependency map) gives the exact producer-side count.
    Without one, the barrier's fetch sets are probed per pending
    partition (under a
    :class:`~repro.mapreduce.engine.GlobalBarrier` every map blocks
    every pending reduce, so all priorities tie — stock-Hadoop
    behaviour).  Returns 1.0 when nothing is known.
    """
    if deps is not None:
        return deps.criticality(index, pending_blocks=pending)
    if barrier is not None and total_maps > 0 and pending is not None:
        score = 0.0
        for p in pending:
            if index in barrier.fetch_set(p, total_maps):
                score += 1.0
        return score
    return 1.0
