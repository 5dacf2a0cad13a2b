"""Structure-aware speculative execution (hedging + mitigation).

The speculation subsystem turns the live observability plane's
flag-only straggler detection into an acting mitigation layer:

* :class:`CancelToken` / :class:`Heartbeat` — cooperative cancellation
  and liveness reporting, threaded through every task body
  (:mod:`repro.spec.cancel`);
* :class:`HangDetector` — stale-heartbeat detection generalizing the
  straggler rule (:mod:`repro.spec.hang`);
* :class:`SpeculationPolicy` / :func:`structural_priority` — when to
  hedge and which candidate first, ranked by how many pending reduces'
  I_l sets a task blocks (:mod:`repro.spec.policy`);
* :class:`SpeculationRuntime` / :class:`DeadlineWatchdog` — the per-run
  mitigation brain and the deadline timer (:mod:`repro.spec.runtime`).

What stays in :mod:`repro.mapreduce.engine` is the scheduling those act
on: backup submission, first-commit-wins arbitration, the retry loop.
The lifecycle is documented in ``docs/FAULT_TOLERANCE.md``.
"""

from repro.spec.cancel import (
    REASON_DEADLINE,
    REASON_HANG,
    REASON_SUPERSEDED,
    CancelToken,
    Heartbeat,
)
from repro.spec.hang import HangDetector
from repro.spec.policy import SpeculationPolicy, structural_priority
from repro.spec.runtime import DeadlineWatchdog, SpeculationRuntime

__all__ = [
    "CancelToken",
    "DeadlineWatchdog",
    "HangDetector",
    "Heartbeat",
    "REASON_DEADLINE",
    "REASON_HANG",
    "REASON_SUPERSEDED",
    "SpeculationPolicy",
    "SpeculationRuntime",
    "structural_priority",
]
