"""Structure-aware speculative execution (hedging + mitigation).

The speculation subsystem turns the live observability plane's
flag-only straggler detection into an acting mitigation layer:

* :class:`CancelToken` — cooperative cancellation threaded through
  every task body; its ``check()`` is the one checkpoint, and the time
  since the last one is the attempt's liveness
  (:mod:`repro.spec.cancel`);
* :class:`SpeculationPolicy` / :func:`structural_priority` — when to
  hedge and which candidate first, ranked by how many pending reduces'
  I_l sets a task blocks (:mod:`repro.spec.policy`);
* :class:`SpeculationRuntime` / :class:`DeadlineWatchdog` — the per-run
  mitigation brain, which ticks the one
  :class:`~repro.obs.live.stragglers.StragglerDetector` (straggler and
  hang rules over the run's record and tokens) and acts on its flags,
  and the deadline timer (:mod:`repro.spec.runtime`).

What stays in :mod:`repro.mapreduce.engine` is the scheduling those act
on: backup submission, the retry loop; the shuffle store's commit
window decides which attempt's output a map keeps.
The lifecycle is documented in ``docs/FAULT_TOLERANCE.md``.
"""

from repro.spec.cancel import (
    REASON_DEADLINE,
    REASON_HANG,
    REASON_SUPERSEDED,
    CancelToken,
)
from repro.spec.policy import SpeculationPolicy, structural_priority
from repro.spec.runtime import DeadlineWatchdog, SpeculationRuntime

__all__ = [
    "CancelToken",
    "DeadlineWatchdog",
    "REASON_DEADLINE",
    "REASON_HANG",
    "REASON_SUPERSEDED",
    "SpeculationPolicy",
    "SpeculationRuntime",
    "structural_priority",
]
