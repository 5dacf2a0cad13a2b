"""Barrier/shuffle invariants checked against a recorded event log.

Independent of the engine's own runtime guards: the engine *raises*
when it catches a violation mid-run, while these checks re-derive the
invariants from the run's :class:`~repro.obs.live.bus.Event` stream (the
bus's record, ``obs.bus.events()``, or a ``--events`` JSONL read back),
ordered by ``seq``, after the run.  A bug that silently
disabled an engine guard would still be caught here.

Checked invariants (paper §4-§6):

* **no-early-reduce** — every ``reduce.start`` snapshot of completed
  maps covers the partition's fetch set I_l; a ``barrier.fire`` event
  precedes the first ``reduce.start`` of each partition.
* **fetch-discipline** — every fetch targets a map inside the
  partition's fetch set (dependency routing never widens).
* **no-stale-serve** — every fetch served exactly the attempt whose
  commit was the map's latest at fetch time (``spill.commit``,
  ``spill.reopen`` and ``fetch`` events are linearized by the store
  lock, so this is decidable from sequence numbers).
* **supersede-observed** — if a map attempt consumed by a reduce was
  superseded before that reduce attempt finished fetching, the attempt
  must NOT have committed: the engine's freshness check has to have
  failed it (:class:`~repro.errors.StaleFetchError`) so a retry re-reads
  fresh input.
* **at-most-one-winner** — at most one ``spill.commit`` per map between
  consecutive ``spill.reopen`` events of that map (the store's commit
  window), whichever attempts raced for it: primaries, retries,
  speculative backups and recovery re-runs alike.  A losing attempt is
  *refused at commit*, never committed and then superseded; only
  recovery's reopen lets a later commit replace the output.
* **input-complete** — a reduce attempt that committed fetched from
  every map of its I_l (the reduce's *actual* data dependencies, §1),
  and no fetch handed it an ``empty`` stand-in for data the served map
  attempt produced — data an earlier fetch of the same (partition, map
  attempt) was served: under the no-persistence recovery modes that is
  a spill a failed attempt consumed and recovery did not regenerate,
  i.e. silently dropped input.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from repro.mapreduce.engine import BarrierPolicy, TaskAttempt
from repro.obs.live.bus import (
    EV_BARRIER_FIRE,
    EV_FETCH,
    EV_REDUCE_START,
    EV_SPILL_COMMIT,
    EV_SPILL_REOPEN,
    EV_TASK_START,
    Event,
)


@dataclass(frozen=True)
class Violation:
    """One invariant breach found in an event log."""

    invariant: str
    detail: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.invariant}] {self.detail}"


def _fetch_set(
    barrier: BarrierPolicy, partition: int, total_maps: int, contact_all: bool
) -> frozenset[int]:
    if contact_all:
        return frozenset(range(total_maps))
    return barrier.fetch_set(partition, total_maps)


def check_interleaving_invariants(
    events: Sequence[Event],
    *,
    barrier: BarrierPolicy,
    total_maps: int,
    contact_all_maps: bool = False,
    attempts: Iterable[TaskAttempt] = (),
) -> list[Violation]:
    """Validate one run's event log, in ``seq`` order (the bus's record
    and a per-job JSONL both are); returns all violations found.

    ``attempts`` is the run's :attr:`JobResult.attempts` log when the
    run succeeded — it identifies which reduce attempt committed, which
    the supersede-observed invariant needs.  For failed runs pass the
    default: the commit-dependent check is vacuous then.
    """
    violations: list[Violation] = []

    # Per-map commit history [(seq, attempt)], in seq order.
    spills: dict[int, list[tuple[int, int]]] = {}
    for e in events:
        if e.type == EV_SPILL_COMMIT:
            spills.setdefault(e.index, []).append((e.seq, e.attempt))

    # ---------------- no-early-reduce ---------------- #
    first_ready: dict[int, int] = {}
    for e in events:
        if e.type == EV_BARRIER_FIRE and e.index not in first_ready:
            first_ready[e.index] = e.seq
    for e in events:
        if e.type != EV_REDUCE_START:
            continue
        p = e.index
        completed = frozenset(e.data.get("completed", ()))
        fs = _fetch_set(barrier, p, total_maps, contact_all_maps)
        missing = fs - completed
        if missing:
            violations.append(
                Violation(
                    "no-early-reduce",
                    f"reduce {p} attempt {e.attempt} started with maps "
                    f"{sorted(missing)} of its dependency set incomplete",
                )
            )
        if not barrier.ready(p, completed, total_maps):
            violations.append(
                Violation(
                    "no-early-reduce",
                    f"reduce {p} attempt {e.attempt} started while its "
                    f"barrier predicate was unsatisfied",
                )
            )
        ready_seq = first_ready.get(p)
        if ready_seq is None or ready_seq > e.seq:
            violations.append(
                Violation(
                    "no-early-reduce",
                    f"reduce {p} started (seq {e.seq}) without a prior "
                    f"barrier.fire event",
                )
            )

    # ---------------- fetch-discipline & no-stale-serve ---------------- #
    for e in events:
        if e.type != EV_FETCH:
            continue
        p = e.index
        m = int(e.data["map"])
        served = int(e.data["map_attempt"])
        fs = _fetch_set(barrier, p, total_maps, contact_all_maps)
        if m not in fs:
            violations.append(
                Violation(
                    "fetch-discipline",
                    f"reduce {p} fetched from map {m} outside its "
                    f"dependency set {sorted(fs)}",
                )
            )
        history = [a for seq, a in spills.get(m, []) if seq < e.seq]
        if not history:
            violations.append(
                Violation(
                    "no-stale-serve",
                    f"reduce {p} fetched map {m} before any spill.commit",
                )
            )
        elif served != history[-1]:
            violations.append(
                Violation(
                    "no-stale-serve",
                    f"reduce {p} was served map {m} attempt {served} while "
                    f"attempt {history[-1]} was already committed",
                )
            )

    # ---------------- supersede-observed ---------------- #
    # Correlate each fetch with the reduce attempt that issued it: the
    # latest preceding task.start of the same partition (attempts of one
    # partition are sequential, and the claim strictly precedes the
    # attempt's fetches in program order).
    current_attempt: dict[int, int] = {}
    fetches_by_attempt: dict[tuple[int, int], list[Event]] = {}
    for e in events:
        if e.type == EV_TASK_START and e.kind == "reduce":
            current_attempt[e.index] = e.attempt
        elif e.type == EV_FETCH:
            a = current_attempt.get(e.index, 0)
            fetches_by_attempt.setdefault((e.index, a), []).append(e)

    committed = {
        (t.index, t.attempt)
        for t in attempts
        if t.kind == "reduce" and t.outcome == "ok"
    }
    for (p, a), evs in fetches_by_attempt.items():
        if (p, a) not in committed:
            continue
        last_fetch_seq = max(e.seq for e in evs)
        for e in evs:
            m = int(e.data["map"])
            served = int(e.data["map_attempt"])
            superseded = [
                (seq, att)
                for seq, att in spills.get(m, [])
                if e.seq < seq < last_fetch_seq
            ]
            if superseded:
                violations.append(
                    Violation(
                        "supersede-observed",
                        f"reduce {p} attempt {a} committed although map "
                        f"{m} attempt {served} was superseded (attempt "
                        f"{superseded[0][1]}) before its fetch phase ended",
                    )
                )

    # ---------------- input-complete ---------------- #
    # (partition, map, map attempt) -> seq of the first fetch that was
    # served data: proof the segment existed, whoever consumed it.
    served_data: dict[tuple[int, int, int], int] = {}
    for e in events:
        if e.type == EV_FETCH and not e.data["empty"]:
            served_data.setdefault(
                (e.index, int(e.data["map"]), int(e.data["map_attempt"])),
                e.seq,
            )
    for (p, a), evs in fetches_by_attempt.items():
        if (p, a) not in committed:
            continue
        fs = _fetch_set(barrier, p, total_maps, contact_all_maps)
        unfetched = fs - {int(e.data["map"]) for e in evs}
        if unfetched:
            violations.append(
                Violation(
                    "input-complete",
                    f"reduce {p} attempt {a} committed without fetching "
                    f"maps {sorted(unfetched)} of its dependency set",
                )
            )
        for e in evs:
            m = int(e.data["map"])
            served = int(e.data["map_attempt"])
            first = served_data.get((p, m, served))
            if e.data["empty"] and first is not None and first < e.seq:
                violations.append(
                    Violation(
                        "input-complete",
                        f"reduce {p} attempt {a} committed over an empty "
                        f"fetch from map {m} attempt {served}, whose data "
                        f"for it an earlier fetch had consumed",
                    )
                )

    # ---------------- at-most-one-winner ---------------- #
    # Each map's commits, one list per commit window: a reopen starts
    # the map's next window.
    windows: list[tuple[int, list[int]]] = []
    current: dict[int, list[int]] = {}
    for e in events:
        if e.type == EV_SPILL_REOPEN:
            current.pop(e.index, None)
        elif e.type == EV_SPILL_COMMIT:
            if e.index not in current:
                current[e.index] = []
                windows.append((e.index, current[e.index]))
            current[e.index].append(e.attempt)
    for m, commits in windows:
        if len(commits) > 1:
            violations.append(
                Violation(
                    "at-most-one-winner",
                    f"map {m} committed attempts {commits} in one commit "
                    "window; expected at most one",
                )
            )
    return violations
