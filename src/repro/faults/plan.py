"""Deterministic fault injection for the real engine.

An :class:`InjectionPlan` is a declarative list of :class:`FaultRule`
entries — *which* tasks fail, *how*, and on *which attempts* — plus a
seed.  Binding the plan to a job's task counts
(:meth:`InjectionPlan.bind`) resolves fraction-based selectors into
concrete task indices with a seeded RNG, so a given (plan, seed, job
shape) always injects exactly the same faults: tests and benchmarks are
reproducible run-to-run and serial-vs-threaded.

Fault kinds
-----------

* ``crash`` — raise :class:`~repro.errors.InjectedFaultError` on every
  matching attempt (the task can never succeed; exercises retry
  exhaustion and job fail-fast).
* ``transient`` — raise on the first ``times`` attempts, succeed after
  (exercises retry/backoff; the default ``times=1`` fails only the
  first attempt).
* ``slow`` — stall ``delay`` seconds at task start (a straggler; the
  task still succeeds, unless its attempt is cancelled meanwhile, which
  ends the stall).
* ``corrupt-spill`` — scramble the map task's spill order on the first
  ``times`` attempts so the shuffle layer's sortedness validation
  rejects the commit (a torn/corrupt spill file; map-side only).
* ``hang`` — block the first ``times`` attempts on their cancel token
  *forever*: the attempt never self-completes, never times out on its
  own, and is only released by cooperative cancellation (a speculation
  race lost, hang mitigation, or a job deadline).  This is the fault
  that demonstrably exercises the speculation machinery — without a
  :class:`~repro.spec.SpeculationPolicy` (or a deadline) a hung task
  blocks its engine run indefinitely.

``when`` selects the injection point: ``start`` (default, task entry)
or ``after-fetch`` (reduce only — the task fails *after* consuming its
shuffle input, which is what forces dependency-aware recovery in the
no-persist modes).

JSON schema (see ``docs/FAULT_TOLERANCE.md``)::

    {
      "seed": 7,
      "rules": [
        {"task": "map", "fault": "transient", "fraction": 0.25, "times": 1},
        {"task": "reduce", "fault": "crash", "indices": [3],
         "when": "after-fetch"}
      ]
    }
"""

from __future__ import annotations

import enum
import json
import random
import threading
import time
from dataclasses import dataclass
from typing import Any

from repro.errors import FaultPlanError, InjectedFaultError


class FaultKind(enum.Enum):
    CRASH = "crash"
    TRANSIENT = "transient"
    SLOW = "slow"
    CORRUPT_SPILL = "corrupt-spill"
    HANG = "hang"


#: Injection points a rule may target.
WHEN_START = "start"
WHEN_AFTER_FETCH = "after-fetch"


@dataclass(frozen=True)
class FaultRule:
    """One declarative fault: kind + task selector + attempt window."""

    task: str                              # "map" | "reduce"
    kind: FaultKind
    #: Explicit task indices; mutually exclusive with ``fraction``.
    indices: frozenset[int] | None = None
    #: Seeded random fraction of the task population (0, 1].
    fraction: float | None = None
    #: transient / corrupt-spill: fail the first ``times`` attempts.
    times: int = 1
    #: Explicit attempt numbers (overrides the per-kind default window).
    attempts: frozenset[int] | None = None
    #: slow: seconds to stall at task start.
    delay: float = 0.05
    when: str = WHEN_START
    message: str = ""

    def __post_init__(self) -> None:
        if self.task not in ("map", "reduce"):
            raise FaultPlanError(f"rule task must be map|reduce, got {self.task!r}")
        if self.when not in (WHEN_START, WHEN_AFTER_FETCH):
            raise FaultPlanError(f"unknown injection point {self.when!r}")
        if self.when == WHEN_AFTER_FETCH and self.task != "reduce":
            raise FaultPlanError("after-fetch injection is reduce-only")
        if self.kind is FaultKind.CORRUPT_SPILL and self.task != "map":
            raise FaultPlanError("corrupt-spill is map-only")
        if self.indices is not None and self.fraction is not None:
            raise FaultPlanError("rule may set indices or fraction, not both")
        if self.fraction is not None and not (0.0 < self.fraction <= 1.0):
            raise FaultPlanError(f"fraction must be in (0, 1], got {self.fraction}")
        if self.indices is not None and any(i < 0 for i in self.indices):
            raise FaultPlanError("negative task index in rule")
        if self.times < 1:
            raise FaultPlanError(f"times must be >= 1, got {self.times}")
        if self.delay < 0:
            raise FaultPlanError(f"negative delay {self.delay}")

    def active_on_attempt(self, attempt: int) -> bool:
        """Does this rule fire on the given attempt number?"""
        if self.attempts is not None:
            return attempt in self.attempts
        if self.kind in (
            FaultKind.TRANSIENT, FaultKind.CORRUPT_SPILL, FaultKind.HANG
        ):
            return attempt < self.times
        return True  # crash / slow: every attempt

    def to_json(self) -> dict[str, Any]:
        doc: dict[str, Any] = {"task": self.task, "fault": self.kind.value}
        if self.indices is not None:
            doc["indices"] = sorted(self.indices)
        if self.fraction is not None:
            doc["fraction"] = self.fraction
        if self.attempts is not None:
            doc["attempts"] = sorted(self.attempts)
        if self.times != 1:
            doc["times"] = self.times
        if self.kind is FaultKind.SLOW:
            doc["delay"] = self.delay
        if self.when != WHEN_START:
            doc["when"] = self.when
        if self.message:
            doc["message"] = self.message
        return doc

    @classmethod
    def from_json(cls, doc: dict[str, Any]) -> "FaultRule":
        if not isinstance(doc, dict):
            raise FaultPlanError(f"rule must be an object, got {type(doc).__name__}")
        known = {
            "task", "fault", "kind", "indices", "fraction", "times",
            "attempts", "delay", "when", "message",
        }
        unknown = set(doc) - known
        if unknown:
            raise FaultPlanError(f"unknown rule field(s) {sorted(unknown)}")
        kind_text = doc.get("fault", doc.get("kind"))
        if kind_text is None:
            raise FaultPlanError("rule missing 'fault'")
        try:
            kind = FaultKind(str(kind_text).replace("_", "-"))
        except ValueError:
            raise FaultPlanError(
                f"unknown fault kind {kind_text!r}; pick from "
                f"{[k.value for k in FaultKind]}"
            ) from None
        return cls(
            task=doc.get("task", "map"),
            kind=kind,
            indices=(
                frozenset(int(i) for i in doc["indices"])
                if "indices" in doc else None
            ),
            fraction=(
                float(doc["fraction"]) if "fraction" in doc else None
            ),
            times=int(doc.get("times", 1)),
            attempts=(
                frozenset(int(a) for a in doc["attempts"])
                if "attempts" in doc else None
            ),
            delay=float(doc.get("delay", 0.05)),
            when=doc.get("when", WHEN_START),
            message=doc.get("message", ""),
        )


@dataclass(frozen=True)
class InjectionPlan:
    """A seedable, serializable set of fault rules."""

    rules: tuple[FaultRule, ...]
    seed: int = 0

    def to_json(self) -> dict[str, Any]:
        return {"seed": self.seed, "rules": [r.to_json() for r in self.rules]}

    @classmethod
    def from_json(cls, doc: dict[str, Any] | str) -> "InjectionPlan":
        if isinstance(doc, str):
            try:
                doc = json.loads(doc)
            except json.JSONDecodeError as exc:
                raise FaultPlanError(f"invalid plan JSON: {exc}") from None
        if not isinstance(doc, dict):
            raise FaultPlanError("plan must be a JSON object")
        rules = doc.get("rules", [])
        if not isinstance(rules, list):
            raise FaultPlanError("plan 'rules' must be a list")
        try:
            return cls(
                rules=tuple(FaultRule.from_json(r) for r in rules),
                seed=int(doc.get("seed", 0)),
            )
        except (TypeError, ValueError) as exc:  # a value of the wrong type
            raise FaultPlanError(f"malformed plan: {exc}") from None

    def bind(self, num_maps: int, num_reduces: int) -> "BoundFaults":
        """Resolve selectors against a concrete job shape.

        Fraction selectors sample ``max(1, round(fraction * n))`` task
        indices with an RNG seeded from (plan seed, rule position), so
        the same plan bound to the same shape always picks the same
        tasks — in serial and threaded runs alike.
        """
        bound: list[tuple[FaultRule, frozenset[int]]] = []
        for pos, rule in enumerate(self.rules):
            n = num_maps if rule.task == "map" else num_reduces
            if rule.indices is not None:
                idx = frozenset(i for i in rule.indices if i < n)
            elif rule.fraction is not None:
                k = min(n, max(1, round(rule.fraction * n)))
                rng = random.Random(f"{self.seed}:{pos}:{rule.task}")
                idx = frozenset(rng.sample(range(n), k))
            else:
                idx = frozenset(range(n))
            bound.append((rule, idx))
        return BoundFaults(tuple(bound))


class BoundFaults:
    """An injection plan resolved to concrete task indices.

    The engine calls :meth:`fire` at each injection point and
    :meth:`should_corrupt` when building spill files; everything is
    pure-functional over (task, index, attempt), so concurrent task
    threads share one instance safely.
    """

    def __init__(self, bound: tuple[tuple[FaultRule, frozenset[int]], ...]) -> None:
        self._bound = bound

    def _matching(self, task: str, index: int, attempt: int, when: str):
        for rule, idx in self._bound:
            if (
                rule.task == task
                and rule.when == when
                and index in idx
                and rule.active_on_attempt(attempt)
            ):
                yield rule

    def fire(
        self,
        task: str,
        index: int,
        attempt: int,
        when: str = WHEN_START,
        *,
        cancel: Any | None = None,
    ) -> None:
        """Apply every matching fault at this injection point.

        Slow faults stall (until ``cancel`` fires, if that is sooner);
        crash/transient faults raise :class:`InjectedFaultError`
        (corrupt-spill is handled separately at spill-build time via
        :meth:`should_corrupt`).  Hang faults
        block on ``cancel`` (the attempt's
        :class:`~repro.spec.CancelToken`) until cancellation releases
        them as :class:`~repro.errors.TaskCancelledError`; with no token
        they block forever — deliberately, since "only cancellation
        releases a hang" is the property under test.
        """
        for rule in self._matching(task, index, attempt, when):
            if rule.kind is FaultKind.SLOW:
                # Stall on the token, so a deadline or a lost race ends
                # the stall instead of waiting it out.
                if cancel is None:
                    time.sleep(rule.delay)
                elif cancel.wait(rule.delay):
                    cancel.check()
            elif rule.kind is FaultKind.HANG:
                if cancel is not None:
                    cancel.wait()
                    cancel.check()
                else:
                    threading.Event().wait()
            elif rule.kind in (FaultKind.CRASH, FaultKind.TRANSIENT):
                raise InjectedFaultError(
                    rule.message
                    or f"injected {rule.kind.value} fault in {task} {index} "
                    f"(attempt {attempt})"
                )

    def should_corrupt(self, task: str, index: int, attempt: int) -> bool:
        return any(
            rule.kind is FaultKind.CORRUPT_SPILL
            for rule in self._matching(task, index, attempt, WHEN_START)
        )

    def selected(self, rule_position: int) -> frozenset[int]:
        """Task indices rule ``rule_position`` resolved to (for tests)."""
        return self._bound[rule_position][1]
