"""LocalEngine: executes MapReduce jobs for real, with pluggable barriers.

There is **one orchestration loop** (:meth:`LocalEngine._run_job`): it
submits every map, and each time a map commits it fires — outside the
run lock — every reduce whose barrier is now satisfied (paper Fig. 4b).
A mode name selects the only thing that differs between runs — the
**executor**, where the loop's task callables run:

========  ================
mode      executor
========  ================
serial    inline executor
threaded  thread pools
========  ================

The inline executor runs each callable on the submitting thread, so
maps execute in split order and a fired reduce runs to completion
before the next map starts: the deterministic *serial* mode, whose trace
shows exactly which reduces fired before which maps.  A map pool plus a
reduce pool of threads (4 + 3 workers by default, the paper's slot
counts) give genuine wall-clock overlap of reduces with still-running
maps.  An attempt's body runs in one place whichever executor called
it: :meth:`LocalEngine._run_map` / :meth:`LocalEngine._run_reduce`, on
the calling thread.

Every run has one event bus (``obs.bus``: the caller's, else a private
one) and publishes each lifecycle occurrence on it exactly once —
``task.start``/``task.finish``/``task.retry``/``task.cancelled`` from
:meth:`LocalEngine._run_attempts`, the one place every attempt of every
mode crosses; ``barrier.fire`` where a reduce is fired; ``reduce.start``
before a reduce attempt's barrier checks; ``spill.commit``/
``spill.reopen``/``fetch`` from the shuffle store.  The bus keeps them
as the run's record, and ``JobResult.counters``' lifecycle tallies and
the metrics in ``.obs`` are readings of it, taken once at the run's
single finish site; ``.trace`` and ``.attempts`` are readings of the
same slice, taken when first read (``docs/OBSERVABILITY.md``).  The
engine attaches no listener: under speculation the runtime's ticker
reads the record and the attempts' cancel tokens; a caller that wants
to act on the run attaches to the bus it passes in through ``obs``.

Barriers, retries, recovery, speculation, deadlines and result
assembly are the loop's and therefore identical in every mode; outputs
are byte-identical (the verify fuzzer holds both against the
brute-force oracle).  Two things follow from the executor alone:
the inline executor has no pool to race a backup attempt on, and it
surfaces a failing task's own exception where the thread pools raise
:class:`~repro.errors.JobFailedError` with every collected error.

The engine enforces, not merely assumes, the barrier: a reduce task's
fetch set is checked against completed maps and a
:class:`~repro.errors.BarrierViolationError` is raised if execution would
consume an incomplete key group.  When the job carries a count-annotation
validator (§3.2.1 approach 2), every reduce start is additionally
validated against the expected source-record tally.

Fault tolerance (paper §6): every logical task runs as a sequence of
**attempts** governed by a :class:`RetryPolicy` (per-task cap,
exponential backoff with deterministic jitter, job-level failure
budget).  Faults can be injected deterministically via an
:class:`~repro.faults.InjectionPlan`.  Under the no-persistence recovery
modes (:class:`~repro.faults.RecoveryModel`), a reduce failure after
fetch triggers re-execution of the producing maps — *only* its
dependency set I_l under ``REEXECUTE_DEPS``, which is the paper's §6
proposal running for real.  A failing run cancels undispatched work.
See ``docs/FAULT_TOLERANCE.md``.

Speculative execution (structure-aware): constructing the engine with a
:class:`~repro.spec.SpeculationPolicy` gives every run a mitigation
runtime that ticks a detector over the run's record and its attempts'
cancel tokens — an attempt is live while it passes checkpoints
(:meth:`~repro.spec.CancelToken.check`).  Hang-flagged (no checkpoint
for ``hang_timeout``) and straggler-flagged attempts are
hedged with a racing backup attempt (maps on a pooled executor) or
cooperatively cancelled and retried in place (inline executor, reduce
tasks).  The shuffle store is the one arbiter of a map's output: its
commit window accepts one commit until recovery reopens it, so a losing
attempt's spill can never serve a fetch.  Backup
candidates are ranked by structural criticality — how many pending
reduces' I_l sets the task blocks (``SIDRPlan.deps``).  A
``JobConf.deadline`` arms a watchdog that cancels every in-flight
attempt at expiry and either fails the job or returns the partial
results committed so far (``JobConf.on_deadline``).
"""

from __future__ import annotations

import random
import threading
import time
from abc import ABC, abstractmethod
from collections.abc import Iterable, Sequence
from concurrent.futures import Executor, Future, ThreadPoolExecutor, wait
from contextlib import ExitStack
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Any, Callable, NamedTuple

from repro.errors import (
    BarrierViolationError,
    DeadlineExceededError,
    JobConfigError,
    JobFailedError,
    ShuffleError,
    TaskCancelledError,
)
from repro.faults import BoundFaults, InjectionPlan, RecoveryModel, WHEN_AFTER_FETCH
from repro.mapreduce.columnar import (
    ResultBlock,
    run_columnar_map,
    run_columnar_reduce,
)
from repro.mapreduce.counters import Counters
from repro.mapreduce.job import JobConf
from repro.mapreduce.record import run_record_map, run_record_reduce
from repro.mapreduce.shuffle import ShuffleStore
from repro.mapreduce.types import KeyValue
from repro.obs import JobObservability
from repro.obs.live.bus import (
    EV_BARRIER_FIRE,
    EV_JOB_DEADLINE,
    EV_RECOVERY,
    EV_REDUCE_START,
    EV_TASK_CANCELLED,
    EV_TASK_FINISH,
    EV_TASK_RETRY,
    EV_TASK_SPECULATE,
    EV_TASK_START,
    Event,
)
from repro.obs.trace import (  # noqa: F401  (re-exported)
    EngineTrace,
    LogicalClock,
    TraceEvent,
)
from repro.spec import (
    REASON_DEADLINE,
    REASON_SUPERSEDED,
    CancelToken,
    DeadlineWatchdog,
    SpeculationPolicy,
    SpeculationRuntime,
)

#: Errors that retrying can never fix: the job itself is misconfigured
#: (or the barrier's core invariant was violated), so attempts stop
#: immediately regardless of the retry policy.
_NON_RETRYABLE = (JobConfigError, BarrierViolationError)

#: ``on_reduce_complete(partition, records)``.
ReduceCallback = Callable[[int, Sequence[KeyValue]], None]


class Part(NamedTuple):
    """One independent piece of a job (:meth:`SIDRPlan.parts
    <repro.sidr.planner.SIDRPlan.parts>`): a contiguous range of its
    reduces and every map they read, which no other part's reduces
    read.  Indices are the job's own, so a part runs its tasks under
    the names fault rules and barriers already use."""

    #: Position among the job's parts, in keyblock order.
    index: int
    reduces: range
    maps: tuple[int, ...]


# --------------------------------------------------------------------- #
# Barrier policies
# --------------------------------------------------------------------- #
class BarrierPolicy(ABC):
    """Decides when a reduce task may run and which maps it fetches from."""

    @abstractmethod
    def ready(self, partition: int, completed_maps: frozenset[int], total_maps: int) -> bool:
        """May reduce task ``partition`` begin processing now?"""

    @abstractmethod
    def fetch_set(self, partition: int, total_maps: int) -> frozenset[int]:
        """Map tasks this reduce task must fetch from."""

    def describe(self) -> str:  # pragma: no cover - cosmetic
        return type(self).__name__


class GlobalBarrier(BarrierPolicy):
    """Stock MapReduce: no reduce runs until every map has finished
    (Figure 4 left), and every reduce contacts every map (§4.6)."""

    def ready(self, partition: int, completed_maps: frozenset[int], total_maps: int) -> bool:
        return len(completed_maps) == total_maps

    def fetch_set(self, partition: int, total_maps: int) -> frozenset[int]:
        return frozenset(range(total_maps))


class DependencyBarrier(BarrierPolicy):
    """SIDR: reduce task ``l`` waits only for its dependency set I_l
    (Figure 4 right) and fetches only from those maps."""

    def __init__(self, dependencies: dict[int, frozenset[int]]) -> None:
        if not dependencies:
            raise JobConfigError("empty dependency map")
        self._deps = {int(p): frozenset(m) for p, m in dependencies.items()}

    def dependencies_of(self, partition: int) -> frozenset[int]:
        try:
            return self._deps[partition]
        except KeyError:
            raise JobConfigError(
                f"no dependency entry for partition {partition}"
            ) from None

    def ready(self, partition: int, completed_maps: frozenset[int], total_maps: int) -> bool:
        # Asked for every pending reduce after every map: one call, and
        # ``dependencies_of`` only to raise for a missing entry.
        deps = self._deps.get(partition)
        if deps is None:
            deps = self.dependencies_of(partition)
        return deps <= completed_maps

    def fetch_set(self, partition: int, total_maps: int) -> frozenset[int]:
        return self.dependencies_of(partition)


# --------------------------------------------------------------------- #
# Retry policy & attempt bookkeeping
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class RetryPolicy:
    """How the engine retries failing task attempts.

    Backoff for attempt ``n`` is ``min(base * 2**n, cap)`` shrunk by up
    to ``jitter`` of itself; the jitter RNG is seeded from (seed, task,
    attempt) so a given configuration backs off identically every run.
    ``failure_budget`` caps *total* failed attempts across the whole job
    (None = unlimited): once exceeded, the failing task stops retrying
    and the job fails fast.
    """

    max_attempts: int = 1
    backoff_base: float = 0.01
    backoff_cap: float = 1.0
    jitter: float = 0.5
    failure_budget: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise JobConfigError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.backoff_base < 0 or self.backoff_cap < 0:
            raise JobConfigError("backoff delays must be non-negative")
        if not (0.0 <= self.jitter <= 1.0):
            raise JobConfigError(f"jitter must be in [0, 1], got {self.jitter}")
        if self.failure_budget is not None and self.failure_budget < 0:
            raise JobConfigError("failure_budget must be non-negative")

    def backoff(self, kind: str, index: int, attempt: int) -> float:
        base = min(self.backoff_base * (2 ** attempt), self.backoff_cap)
        if base <= 0 or self.jitter == 0:
            return base
        # String seeds hash deterministically across processes (unlike
        # tuple hashes under PYTHONHASHSEED randomization).
        rng = random.Random(f"{self.seed}:{kind}:{index}:{attempt}")
        return base * (1.0 - self.jitter * rng.random())


@dataclass(frozen=True)
class TaskAttempt:
    """One attempt of one logical task, as the engine saw it."""

    kind: str          # "map" | "reduce"
    index: int
    attempt: int       # 0-based, global across retries and recoveries
    #: "ok" | "failed" | "cancelled" (hang mitigation / deadline) |
    #: "lost": another attempt committed the map's output in this
    #: attempt's commit window, so the map is done without it
    outcome: str
    error: str = ""    # exception type name when failed
    seconds: float = 0.0


def task_attempts(events: Iterable[Event]) -> tuple[TaskAttempt, ...]:
    """``JobResult.attempts`` read off a run's events: one
    :class:`TaskAttempt` per ``task.finish``, in their order."""
    return tuple(
        TaskAttempt(
            ev.kind, ev.index, ev.attempt, ev.data["status"],
            ev.data.get("error", ""), ev.data.get("seconds", 0.0),
        )
        for ev in events
        if ev.type == EV_TASK_FINISH
    )


class _RunState:
    """Per-run mutable state shared by every task thread."""

    def __init__(
        self, engine: "LocalEngine", job: JobConf,
        maps: Sequence[int] | None = None,
    ) -> None:
        self.lock = threading.Lock()
        #: The maps this run executes: the job's, or one part's.
        self.maps: Sequence[int] = (
            range(job.num_map_tasks) if maps is None else maps
        )
        #: Global attempt counter per logical task — recovery re-runs of
        #: a map continue its numbering, so injection plans keyed by
        #: attempt stay unambiguous.
        self.next_attempt: dict[tuple[str, int], int] = {}
        self.failures = 0
        #: Live cancel token per in-flight attempt.  An entry exists
        #: exactly while the attempt body runs; mitigation and the
        #: deadline watchdog cancel through these.
        self.tokens: dict[tuple[str, int, int], CancelToken] = {}
        #: The commit window each in-flight attempt was claimed in.
        self.windows: dict[tuple[str, int, int], int] = {}
        self.deadline_expired = False
        self.faults: BoundFaults | None = None
        if engine.faults is not None:
            self.faults = engine.faults.bind(
                job.num_map_tasks, job.num_reduce_tasks
            )

    def claim_attempt(self, kind: str, index: int) -> int:
        with self.lock:
            n = self.next_attempt.get((kind, index), 0)
            self.next_attempt[(kind, index)] = n + 1
            return n

    def count_failure(self, budget: int | None) -> bool:
        """Register one failed attempt; True when the budget is blown."""
        with self.lock:
            self.failures += 1
            return budget is not None and self.failures > budget

    # -------------------------- cancel tokens ------------------------- #
    def new_token(
        self, kind: str, index: int, attempt: int, window: int = 0
    ) -> CancelToken:
        tok = CancelToken()
        with self.lock:
            self.tokens[(kind, index, attempt)] = tok
            self.windows[(kind, index, attempt)] = window
            expired = self.deadline_expired
        if expired:
            # The watchdog already fired; don't let a late attempt start
            # doing work the job can no longer use.
            tok.cancel(REASON_DEADLINE)
        return tok

    def release_token(self, kind: str, index: int, attempt: int) -> None:
        with self.lock:
            self.tokens.pop((kind, index, attempt), None)
            self.windows.pop((kind, index, attempt), None)

    def live_tokens(self) -> dict[tuple[str, int, int], CancelToken]:
        """A copy of every in-flight attempt's token (the hang rule's
        input)."""
        with self.lock:
            return dict(self.tokens)

    def token_of(self, kind: str, index: int, attempt: int) -> CancelToken | None:
        with self.lock:
            return self.tokens.get((kind, index, attempt))

    def active_attempts(self, kind: str, index: int) -> list[int]:
        with self.lock:
            return [a for (k, i, a) in self.tokens if k == kind and i == index]

    def rivals(
        self, kind: str, index: int, attempt: int, window: int
    ) -> list[CancelToken]:
        """Tokens of the task's other live attempts claimed in
        ``window`` or an earlier one: once ``attempt`` has committed,
        none of them can (a re-run claimed after a reopen still can)."""
        with self.lock:
            return [
                tok
                for key, tok in self.tokens.items()
                if key[:2] == (kind, index) and key[2] != attempt
                and self.windows[key] <= window
            ]

    # ----------------------------- deadline --------------------------- #
    def expire_deadline(self) -> list[CancelToken] | None:
        """Latch deadline expiry.  Returns the tokens of every in-flight
        attempt to cancel (None if the deadline had already expired)."""
        with self.lock:
            if self.deadline_expired:
                return None
            self.deadline_expired = True
            return list(self.tokens.values())


# --------------------------------------------------------------------- #
# Result
# --------------------------------------------------------------------- #
class JobResult:
    """Everything a completed job produced.

    ``trace`` (the flat :class:`EngineTrace`) and ``attempts`` are
    readings of the run's events, taken the first time each is read —
    a served job reads neither — and the same readings an eager one
    gives: the events are the run's record, which does not change.
    """

    def __init__(
        self,
        job_name: str,
        outputs: dict[int, Sequence[KeyValue]],
        counters: Counters,
        trace: EngineTrace | None = None,
        shuffle_connections: int = 0,
        empty_fetches: int = 0,
        obs: JobObservability | None = None,
        attempts: tuple[TaskAttempt, ...] | None = None,
        partial: bool = False,
        *,
        events: Sequence[Event] = (),
    ) -> None:
        self.job_name = job_name
        #: Per partition, key-sorted: a record list (record plane) or a
        #: :class:`ResultBlock` (columnar plane).
        self.outputs = outputs
        self.counters = counters
        self.shuffle_connections = shuffle_connections
        self.empty_fetches = empty_fetches
        #: Span tracer + metrics registry for this run (None only when a
        #: caller supplied a pre-built result without observability).
        self.obs = obs
        #: True when the job's deadline expired under ``on_deadline=
        #: "partial"``: ``outputs`` holds only the partitions that
        #: committed before expiry (each one complete and correct on
        #: its own).
        self.partial = partial
        #: The run's slice of its bus's record, ``trace`` and
        #: ``attempts`` are read from.
        self._events = events
        # Given readings shadow the cached properties below.
        if trace is not None:
            self.trace = trace
        if attempts is not None:
            self.attempts = attempts

    @cached_property
    def trace(self) -> EngineTrace:
        """The run's task start/finish entries (:class:`EngineTrace`)."""
        return EngineTrace(self._events)

    @cached_property
    def attempts(self) -> tuple[TaskAttempt, ...]:
        """Every task attempt in the order its ``task.finish`` was
        published — retries and recovery re-executions included."""
        return task_attempts(self._events)

    def all_records(self) -> Sequence[KeyValue]:
        """All output records across partitions, sorted by key — the
        form tests compare across engine configurations.  Columnar
        outputs stay one :class:`ResultBlock` (sorted only if partition
        order is not key order), and so does no output at all (a
        partial result whose deadline fired before any partition
        committed); record-plane outputs are a list."""
        parts = [self.outputs[p] for p in sorted(self.outputs)]
        if all(isinstance(part, ResultBlock) for part in parts):
            return ResultBlock.concatenate(parts)
        records: list[KeyValue] = []
        for part in parts:
            records.extend(part)
        return sorted(records, key=itemgetter(0))

    def canonical_records(self) -> list[KeyValue]:
        """The job's output in the verifier's canonical form (plain
        Python values, key order) — the records whose byte form is
        digested and served.  A block's columns convert with two
        ``tolist()`` calls; record lists take the generic per-value
        walk."""
        # Imported here: ``repro.verify`` imports this module.
        from repro.verify.oracle import canonicalize_records

        return canonicalize_records(self.all_records())


# --------------------------------------------------------------------- #
# Engine
# --------------------------------------------------------------------- #
class LocalEngine:
    """Executes a :class:`JobConf` with a given barrier policy."""

    def __init__(
        self,
        *,
        map_workers: int = 4,
        reduce_workers: int = 3,
        observability: bool = True,
        retry: RetryPolicy | None = None,
        faults: InjectionPlan | None = None,
        recovery: RecoveryModel = RecoveryModel.PERSISTED,
        speculation: SpeculationPolicy | None = None,
    ) -> None:
        if map_workers <= 0 or reduce_workers <= 0:
            raise JobConfigError("worker counts must be positive")
        self.map_workers = map_workers
        self.reduce_workers = reduce_workers
        #: When False, a run made without an ``obs=`` publishes no
        #: phases and gets neither spans nor the metrics fold (events
        #: still flow and are kept: counters, the flat trace and the
        #: attempts are read off them).
        self.observability = observability
        #: Attempt/backoff policy; the default (max_attempts=1) matches
        #: the historical die-on-first-failure behaviour.
        self.retry = retry or RetryPolicy()
        #: Declarative fault plan, bound to the job shape per run.
        self.faults = faults
        #: Intermediate-data lifecycle: PERSISTED keeps spills for the
        #: whole job; the re-execute modes stream them (fetch consumes)
        #: and recover reduce failures by re-running maps.
        self.recovery = recovery
        #: Speculation knobs; None keeps the engine's historical
        #: flag-only behaviour (stragglers observed, never mitigated).
        self.speculation = speculation

    # ------------------------------------------------------------------ #
    # Map task
    # ------------------------------------------------------------------ #
    def _run_map(
        self,
        job: JobConf,
        split_index: int,
        store: ShuffleStore,
        counters: Counters,
        obs: JobObservability,
        *,
        attempt: int = 0,
        faults: BoundFaults | None = None,
        cancel: CancelToken | None = None,
    ) -> None:
        """One map attempt, start to commit, on the calling thread."""
        if faults is not None:
            faults.fire("map", split_index, attempt, cancel=cancel)
        corrupt = faults is not None and faults.should_corrupt(
            "map", split_index, attempt
        )
        body = run_record_map if job.batch_operator is None else run_columnar_map
        body(
            job, split_index, store, counters, obs, ("map", split_index, attempt),
            attempt=attempt, corrupt=corrupt,
            cancel=cancel,
        )

    # ------------------------------------------------------------------ #
    # Reduce task
    # ------------------------------------------------------------------ #
    @staticmethod
    def _seed_prune_counters(job: JobConf, counters: Counters) -> None:
        """Surface the planner's pruning decision once per run (not per
        reduce attempt, so retries cannot inflate the counts)."""
        pruning = getattr(job.context.get("sidr_plan"), "pruning", None)
        if pruning is None:
            return
        counters.update({
            "plan.splits.pruned": pruning.num_pruned,
            "plan.keys.synthesized": pruning.num_synth_keys,
        })

    def _fetch_reduce_inputs(
        self,
        job: JobConf,
        partition: int,
        barrier: BarrierPolicy,
        store: ShuffleStore,
        counters: Counters,
        obs: JobObservability,
        completed_at_start: frozenset[int],
        *,
        attempt: int,
        faults: BoundFaults | None,
        cancel: CancelToken | None,
    ) -> list:
        """Everything a reduce attempt does before its body: the
        ``reduce.start`` event, barrier enforcement, the
        count-annotation validator, the fetch loop, and both fault
        points.  Returns the non-empty fetched spills in map order."""
        obs.bus.publish(
            EV_REDUCE_START, kind="reduce", index=partition, attempt=attempt,
            completed=sorted(completed_at_start),
        )
        if faults is not None:
            faults.fire("reduce", partition, attempt, cancel=cancel)
        total = job.num_map_tasks
        if not barrier.ready(partition, completed_at_start, total):
            raise BarrierViolationError(
                f"reduce {partition} scheduled before barrier satisfied"
            )
        fetch_from = barrier.fetch_set(partition, total)
        if job.contact_all_maps:
            fetch_from = frozenset(range(total))
        missing = fetch_from - completed_at_start
        if missing:
            raise BarrierViolationError(
                f"reduce {partition} would fetch from unfinished maps {sorted(missing)}"
            )
        with obs.phase("reduce.fetch", ("reduce", partition, attempt)):
            validator = job.context.get("reduce_start_validator")
            if validator is not None:
                tally = store.total_source_records(
                    barrier.fetch_set(partition, total), partition
                )
                validator.validate(partition, tally)

            files = []
            shuffled_records = 0
            shuffled_bytes = 0
            for m in sorted(fetch_from):
                # Per-fetch checkpoint: fetches are the reduce's
                # longest pre-merge stretch.
                if cancel is not None:
                    cancel.check()
                f = store.fetch(m, partition)
                if f is not None:
                    n = f.num_records
                    if n:
                        files.append(f)
                        shuffled_records += n
                        shuffled_bytes += f.approx_serialized_bytes
        # ``shuffle.records`` is the record count this counter
        # historically (and misleadingly) reported as "bytes";
        # ``shuffle.bytes`` is now a real serialized-size estimate.
        counters.update({
            "shuffle.records": shuffled_records,
            "shuffle.bytes": shuffled_bytes,
        })
        if faults is not None:
            # Post-fetch injection point: the attempt has consumed
            # its shuffle input, so failing here is what forces the
            # no-persist modes to re-execute producing maps.
            faults.fire(
                "reduce", partition, attempt, WHEN_AFTER_FETCH,
                cancel=cancel,
            )
        return files

    def _run_reduce(
        self,
        job: JobConf,
        partition: int,
        barrier: BarrierPolicy,
        store: ShuffleStore,
        counters: Counters,
        obs: JobObservability,
        completed_at_start: frozenset[int],
        *,
        attempt: int = 0,
        faults: BoundFaults | None = None,
        cancel: CancelToken | None = None,
    ) -> Sequence[KeyValue]:
        """One reduce attempt, fetch to output, on the calling thread."""
        files = self._fetch_reduce_inputs(
            job, partition, barrier, store, counters, obs, completed_at_start,
            attempt=attempt, faults=faults, cancel=cancel,
        )
        body = (
            run_record_reduce if job.batch_operator is None
            else run_columnar_reduce
        )
        return body(
            job, files, counters, obs, ("reduce", partition, attempt),
            cancel=cancel,
        )

    # ------------------------------------------------------------------ #
    # Attempt-based retry & dependency-aware recovery
    # ------------------------------------------------------------------ #
    def _run_attempts(
        self,
        kind: str,
        index: int,
        state: _RunState,
        obs: JobObservability,
        body: Callable[[int, CancelToken], Any],
        before_retry: Callable[[], None] | None = None,
        open_window: Callable[[], int | None] | None = None,
    ) -> Any:
        """Run ``body(attempt, cancel)`` until success, retry
        exhaustion, a blown failure budget, cancellation, or the job
        deadline.  Attempt numbers are global per logical task (recovery
        re-runs keep counting up); the per-invocation retry cap is
        ``self.retry.max_attempts``.

        Every attempt of every mode passes through here, so this is
        where an attempt's life is published: ``task.start`` at the
        claim, ``task.finish`` at the outcome (``status`` ``ok`` |
        ``failed`` | ``cancelled`` | ``lost``), plus ``task.cancelled``
        and ``task.retry`` for those decisions.  Every raising attempt
        finishes ``failed`` — non-retryable errors included — so each
        ``task.start`` has its ``task.finish``.

        ``before_retry()`` (dependency recovery) runs ahead of each
        retry's ``task.start``: the attempt is claimed but not yet
        published, so it is neither in flight for the hang rule nor on
        the attempt's clock while it runs.  If it raises, the attempt
        is published as started and failed on the spot.

        ``open_window()`` (maps: the shuffle store's
        :meth:`~repro.mapreduce.shuffle.ShuffleStore.open_window`) is
        read at each claim.  An attempt claimed on a closed window
        finishes ``lost`` without running ``body``; one that succeeds
        cancels the task's live attempts claimed in its window or an
        earlier one, as superseded.

        Cancellation outcomes: a superseded attempt finishes ``lost``
        and returns None — the map's output is committed, just not by
        this attempt; a deadline cancel raises
        :class:`DeadlineExceededError`; a hang-mitigation cancel retries
        in place without backoff (the attempt already sat out the hang
        timeout)."""
        policy = self.retry
        bus = obs.bus
        tries = 0
        while True:
            if state.deadline_expired:
                raise DeadlineExceededError(
                    f"{kind} {index} not attempted: job deadline expired"
                )
            attempt = state.claim_attempt(kind, index)
            tries += 1
            window = 0 if open_window is None else open_window()
            # Token before the event: a tick that flags this attempt must
            # find something to cancel.
            cancel = state.new_token(kind, index, attempt, window or 0)
            ident = {"kind": kind, "index": index, "attempt": attempt}
            unrecovered = None
            if before_retry is not None and tries > 1:
                try:
                    before_retry()
                except BaseException as exc:
                    unrecovered = exc
            bus.publish(EV_TASK_START, **ident)
            t0 = time.perf_counter()
            try:
                if unrecovered is not None:
                    raise unrecovered
                if window is None:
                    raise TaskCancelledError(
                        f"{kind} {index} attempt {attempt} not run: its "
                        "output is already committed",
                        reason=REASON_SUPERSEDED,
                    )
                out = body(attempt, cancel)
            except BaseException as exc:
                state.release_token(kind, index, attempt)
                error = type(exc).__name__
                status, reason = "failed", ""
                if isinstance(exc, TaskCancelledError):
                    reason = exc.reason or cancel.reason
                    if reason != REASON_SUPERSEDED and state.deadline_expired:
                        reason = REASON_DEADLINE
                    status = "lost" if reason == REASON_SUPERSEDED else "cancelled"
                bus.publish(
                    EV_TASK_FINISH, **ident, status=status, error=error,
                    seconds=round(time.perf_counter() - t0, 6),
                )
                if not isinstance(exc, Exception) or isinstance(exc, _NON_RETRYABLE):
                    raise
                delay = 0.0
                if status == "failed":
                    delay = policy.backoff(kind, index, attempt)
                else:
                    bus.publish(EV_TASK_CANCELLED, **ident, reason=reason)
                    if reason == REASON_SUPERSEDED:
                        return None
                    if reason == REASON_DEADLINE:
                        raise DeadlineExceededError(
                            f"{kind} {index} attempt {attempt} cancelled: "
                            "job deadline expired"
                        ) from exc
                    # Hang mitigation: retry in place, no backoff.
                over_budget = state.count_failure(policy.failure_budget)
                if tries >= policy.max_attempts or over_budget:
                    raise
                bus.publish(EV_TASK_RETRY, **ident, backoff=delay, error=error)
                if delay > 0 and not state.deadline_expired:
                    time.sleep(delay)
            else:
                state.release_token(kind, index, attempt)
                bus.publish(
                    EV_TASK_FINISH, **ident, status="ok",
                    seconds=round(time.perf_counter() - t0, 6),
                )
                # Our output is committed: the rivals of our window can
                # no longer commit, so release them now.
                for tok in state.rivals(kind, index, attempt, window or 0):
                    tok.cancel(REASON_SUPERSEDED)
                return out

    def _map_attempts(
        self,
        job: JobConf,
        i: int,
        store: ShuffleStore,
        counters: Counters,
        obs: JobObservability,
        state: _RunState,
        *,
        backup_of: tuple[int, float] | None = None,
    ) -> None:
        """Attempts of map ``i`` until its output is committed — by one
        of them, or by a rival (they finish ``lost``).  ``backup_of``
        ``(flagged attempt, priority)`` makes this a speculative backup
        racing the flagged attempt for the same commit window."""

        def body(attempt: int, cancel: CancelToken) -> None:
            if backup_of is not None:
                of_attempt, priority = backup_of
                obs.bus.publish(
                    EV_TASK_SPECULATE, kind="map", index=i, attempt=attempt,
                    of=of_attempt, priority=round(priority, 4), mode="race",
                )
            self._run_map(
                job, i, store, counters, obs,
                attempt=attempt, faults=state.faults, cancel=cancel,
            )

        self._run_attempts(
            "map", i, state, obs, body,
            open_window=lambda: store.open_window(i),
        )

    def _reduce_with_recovery(
        self,
        job: JobConf,
        p: int,
        barrier: BarrierPolicy,
        store: ShuffleStore,
        counters: Counters,
        obs: JobObservability,
        state: _RunState,
        snapshot: frozenset[int],
    ) -> Sequence[KeyValue]:
        """One reduce task with retry; on retry under a no-persistence
        recovery mode, first regenerate whatever input the failed
        attempt consumed by re-executing the producing maps."""

        def body(attempt: int, cancel: CancelToken) -> Sequence[KeyValue]:
            store.begin_reduce_attempt(p)
            out = self._run_reduce(
                job, p, barrier, store, counters, obs, snapshot,
                attempt=attempt, faults=state.faults, cancel=cancel,
            )
            # Attempt-aware invalidation: if any map we fetched from was
            # re-executed while we ran, our input is superseded — raise
            # (retryably) instead of committing possibly-stale output.
            store.check_fetch_fresh(p)
            return out

        return self._run_attempts(
            "reduce", p, state, obs, body,
            before_retry=lambda: self._recover_reduce_inputs(
                job, p, barrier, store, counters, obs, state
            ),
        )

    def _recover_reduce_inputs(
        self,
        job: JobConf,
        p: int,
        barrier: BarrierPolicy,
        store: ShuffleStore,
        counters: Counters,
        obs: JobObservability,
        state: _RunState,
    ) -> None:
        """Regenerate reduce ``p``'s lost input before its retry.

        * ``PERSISTED`` — spills survive; nothing to do.
        * ``REEXECUTE_ALL`` — no dependency knowledge: conservatively
          re-execute every map task the run executes.
        * ``REEXECUTE_DEPS`` — re-execute only the maps in I_p whose
          output for ``p`` the failed attempt actually consumed (a
          subset of I_p; never more).
        """
        if self.recovery is RecoveryModel.PERSISTED:
            return
        total = job.num_map_tasks
        if self.recovery is RecoveryModel.REEXECUTE_ALL:
            targets = list(state.maps)
        else:
            fetch_from = (
                frozenset(range(total))
                if job.contact_all_maps
                else barrier.fetch_set(p, total)
            )
            targets = sorted(store.missing_inputs(p, fetch_from))
        if not targets:
            return
        t0 = time.perf_counter()
        for m in targets:
            store.reopen(m)
            self._map_attempts(job, m, store, counters, obs, state)
        obs.bus.publish(
            EV_RECOVERY, kind="reduce", index=p, maps=targets,
            seconds=time.perf_counter() - t0,
        )
        still_missing = store.missing_inputs(p, frozenset(targets))
        if still_missing:
            # Retryable: the next retry recovers again, and an exhausted
            # budget fails the job typed instead of reducing over an
            # ``empty`` stand-in for data a map produced.
            raise ShuffleError(
                f"reduce {p}: input from maps {sorted(still_missing)} is "
                "still missing after recovery re-execution"
            )

    def _expire_deadline(
        self,
        job: JobConf,
        state: _RunState,
        obs: JobObservability,
    ) -> None:
        """Watchdog callback: latch expiry and cancel every in-flight
        attempt (idempotent)."""
        tokens = state.expire_deadline()
        if tokens is None:
            return
        obs.bus.publish(EV_JOB_DEADLINE, deadline=job.deadline or 0.0)
        for tok in tokens:
            tok.cancel(REASON_DEADLINE)

    # ------------------------------------------------------------------ #
    # Running a job: mode name -> executor pair -> the one loop
    # ------------------------------------------------------------------ #
    def run(
        self,
        job: JobConf,
        barrier: BarrierPolicy | None = None,
        *,
        mode: str = "threaded",
        on_reduce_complete: ReduceCallback | None = None,
        obs: JobObservability | None = None,
        part: Part | None = None,
    ) -> JobResult:
        """Run ``job`` under ``barrier`` (default: the global barrier) in
        the named mode — ``serial`` or ``threaded``; see the module
        docstring for what each name selects.

        ``part`` runs one :class:`Part` of the job: its maps and its
        reduces only, under their job-global indices, so ``outputs``
        holds its reduces' blocks.  The planner's job-level counters
        (``plan.*``) are seeded by part 0 alone, so a job's parts' counters
        sum to a whole run's.

        ``on_reduce_complete(partition, records)`` fires the moment a
        reduce task commits — *during* the run, on the thread that ran
        the reduce, possibly before later maps execute.  Pipelined
        consumers start downstream work on early results through it
        (paper §6); results delivered this way are never retracted.

        A task that exhausts its retries (or the failure budget) fails
        the run fast: undispatched work is cancelled, no further reduce
        fires, in-flight tasks drain.  ``serial`` then raises the task's
        own exception; ``threaded`` raises :class:`JobFailedError`
        carrying **all** collected task errors.
        """
        try:
            executors = _MODES[mode]
        except KeyError:
            raise JobConfigError(
                f"unknown engine mode {mode!r}; expected {'|'.join(_MODES)}"
            ) from None
        return self._run_job(
            job, barrier or GlobalBarrier(), executors, on_reduce_complete, obs,
            part,
        )

    def run_serial(
        self, job: JobConf, barrier: BarrierPolicy | None = None, *,
        on_reduce_complete: ReduceCallback | None = None,
        obs: JobObservability | None = None,
    ) -> JobResult:
        """:meth:`run` with ``mode="serial"``."""
        return self.run(
            job, barrier, mode="serial",
            on_reduce_complete=on_reduce_complete, obs=obs,
        )

    def run_threaded(
        self, job: JobConf, barrier: BarrierPolicy | None = None, *,
        on_reduce_complete: ReduceCallback | None = None,
        obs: JobObservability | None = None,
    ) -> JobResult:
        """:meth:`run` with ``mode="threaded"``."""
        return self.run(
            job, barrier, mode="threaded",
            on_reduce_complete=on_reduce_complete, obs=obs,
        )

    def _run_job(
        self,
        job: JobConf,
        barrier: BarrierPolicy,
        executors: Callable[["LocalEngine"], tuple[Executor, Executor]],
        on_reduce_complete: ReduceCallback | None,
        obs: JobObservability | None,
        part: Part | None = None,
    ) -> JobResult:
        """The orchestration loop — the only one.

        Locking rule: nothing is submitted while ``lock`` is held — the
        inline executor runs the submitted task, which takes ``lock``
        itself, before ``submit`` returns.  (``launch_backup`` may: it
        is only ever installed over a thread pool.)  Events publish
        outside it too, so a stalled listener stalls one thread, not
        the run.
        """
        if obs is None:
            obs = JobObservability(job.name, enabled=self.observability)
        bus = obs.bus
        counters = Counters()
        if part is None:
            maps: Sequence[int] = range(job.num_map_tasks)
            reduces: Sequence[int] = range(job.num_reduce_tasks)
        else:
            maps, reduces = part.maps, part.reduces
        obs.start(maps=len(maps), reduces=len(reduces))
        state = _RunState(self, job, maps)
        store = ShuffleStore(
            persist=self.recovery is RecoveryModel.PERSISTED, bus=bus
        )
        if part is None or part.index == 0:
            self._seed_prune_counters(job, counters)
        total_maps = job.num_map_tasks
        # A part cannot see the other parts' maps: they count as still
        # outstanding, unless it holds the job's last map (a whole run's
        # last to commit, in split order), so a reduce is early exactly
        # when it would be in a whole serial run.
        others_pending = part is not None and total_maps - 1 not in maps
        outputs: dict[int, Sequence[KeyValue]] = {}
        lock = threading.Lock()
        abort = threading.Event()
        completed: set[int] = set()
        pending = set(reduces)
        errors: list[BaseException] = []
        deadline_errors: list[BaseException] = []
        map_futures: list[Future] = []
        reduce_futures: list[Future] = []

        def record_error(exc: BaseException) -> None:
            """Collect the error and fail fast: cancel undispatched work.
            Deadline expiry is not a task failure — it is collected
            apart so fail/partial semantics apply at the end."""
            expired = isinstance(exc, DeadlineExceededError)
            with lock:
                (deadline_errors if expired else errors).append(exc)
                abort.set()
                for f in map_futures + reduce_futures:
                    f.cancel()

        def pending_snapshot() -> tuple[int, ...]:
            with lock:
                return tuple(pending)

        with ExitStack() as stack:
            spec_rt = None
            if self.speculation is not None:
                spec_rt = SpeculationRuntime(
                    self.speculation, state, job, barrier, obs,
                    pending_partitions=pending_snapshot,
                )
            if job.deadline is not None:
                watchdog = DeadlineWatchdog(
                    job.deadline,
                    lambda: self._expire_deadline(job, state, obs),
                ).start()
                stack.callback(watchdog.stop)

            map_pool, reduce_pool = executors(self)
            inline = isinstance(map_pool, _InlineExecutor)
            with map_pool, reduce_pool:

                def reduce_job(p: int, snapshot: frozenset[int]) -> None:
                    if abort.is_set():
                        return
                    try:
                        out = self._reduce_with_recovery(
                            job, p, barrier, store, counters, obs, state, snapshot
                        )
                        with lock:
                            outputs[p] = out
                        if on_reduce_complete is not None:
                            on_reduce_complete(p, out)
                    except BaseException as exc:  # propagate to caller
                        record_error(exc)

                def on_map_done(i: int) -> None:
                    """Map ``i`` committed: fire every reduce whose
                    barrier that satisfies (paper Fig. 4b).  Idempotent:
                    every attempt chain of the map reports, won or lost."""
                    with lock:
                        if abort.is_set():
                            return
                        completed.add(i)
                        snapshot = frozenset(completed)
                        fired = [
                            p
                            for p in sorted(pending)
                            if barrier.ready(p, snapshot, total_maps)
                        ]
                        pending.difference_update(fired)
                    for p in fired:
                        if abort.is_set():
                            return  # an earlier fired reduce failed the job
                        # ``early``: fired while maps are still
                        # outstanding (Figure 4b).
                        bus.publish(
                            EV_BARRIER_FIRE, kind="reduce", index=p,
                            maps_done=len(snapshot),
                            early=others_pending or len(snapshot) < len(maps),
                        )
                        future = reduce_pool.submit(reduce_job, p, snapshot)
                        with lock:
                            reduce_futures.append(future)

                def map_job(i: int) -> None:
                    if abort.is_set():
                        return
                    try:
                        # Won or lost, the map's output is committed.
                        self._map_attempts(job, i, store, counters, obs, state)
                        on_map_done(i)
                    except BaseException as exc:
                        record_error(exc)

                def backup_job(i: int, of_attempt: int, priority: float) -> None:
                    try:
                        self._map_attempts(
                            job, i, store, counters, obs, state,
                            backup_of=(of_attempt, priority),
                        )
                    except DeadlineExceededError as exc:
                        spec_rt.backup_done(i)
                        record_error(exc)
                    except BaseException:
                        # A failed backup must not fail the job — the
                        # primary may still win (backup_done revives it
                        # if it is blocked in a hang).
                        counters.increment("task.speculation.failed")
                        spec_rt.backup_done(i, failed=True)
                    else:
                        spec_rt.backup_done(i)
                        on_map_done(i)

                def launch_backup(i: int, of_attempt: int, priority: float) -> None:
                    with lock:
                        if abort.is_set():
                            return
                        map_futures.append(
                            map_pool.submit(backup_job, i, of_attempt, priority)
                        )

                if spec_rt is not None:
                    if not inline:
                        # The inline executor has no pool to race a
                        # backup on: hangs are cancelled and retried in
                        # place instead.
                        spec_rt.launch_backup = launch_backup
                    stack.enter_context(
                        spec_rt.detector.ticker(
                            self.speculation.effective_tick, spec_rt.tick
                        )
                    )

                for i in maps:
                    future = map_pool.submit(map_job, i)
                    with lock:
                        map_futures.append(future)
                # Speculative backups append to map_futures while we
                # wait, so re-wait until the list stops growing.
                while True:
                    with lock:
                        fs = list(map_futures)
                    wait(fs)
                    with lock:
                        if len(map_futures) == len(fs):
                            break
                with lock:
                    if pending and not abort.is_set():
                        errors.append(
                            BarrierViolationError(
                                f"reduces {sorted(pending)} never became "
                                "ready; dependency map must be incomplete"
                            )
                        )
                    # No new reduce submissions can happen past this
                    # point (every map callable has returned), so the
                    # snapshot is final.
                    reduce_snapshot = list(reduce_futures)
                wait(reduce_snapshot)

        # The single finish site: every outcome — success, task failure,
        # deadline — publishes ``job.finish`` (ending the run's slice) and
        # reads the run's record once: lifecycle tallies and, when
        # enabled, the registry metrics.  The result keeps the slice for
        # its trace and attempts.
        expired = bool(deadline_errors) and not errors
        events = obs.finish(
            counters, **({"deadline": "expired"} if expired else {})
        )
        if errors and inline:
            # The inline executor stopped at the first error, so there
            # is exactly one: surface it as the task raised it.
            raise errors[0]
        if errors:
            raise JobFailedError.from_errors(job.name, errors)
        if expired and job.on_deadline != "partial":
            raise JobFailedError.from_errors(job.name, deadline_errors)
        return JobResult(
            job_name=job.name,
            outputs=outputs,
            counters=counters,
            shuffle_connections=store.connections,
            empty_fetches=store.empty_fetches,
            obs=obs,
            partial=expired,
            events=events,
        )


# --------------------------------------------------------------------- #
# Executors: the one thing a mode name selects
# --------------------------------------------------------------------- #
class _InlineExecutor(Executor):
    """Runs each submitted callable on the submitting thread and returns
    an already-finished future.  The orchestration loop on this executor
    *is* the deterministic serial mode.

    The loop's callables report through the run's shared state and
    return nothing, so a callable that returns hands back one shared
    finished future instead of a new one per task; only one that raises
    gets a future of its own, holding the exception."""

    def submit(self, fn, /, *args, **kwargs) -> Future:
        try:
            fn(*args, **kwargs)
        except BaseException as exc:
            future: Future = Future()
            future.set_exception(exc)
            return future
        return _FINISHED


#: What :meth:`_InlineExecutor.submit` returns for a callable that
#: returned: finished, cancelling it is a no-op, waiting on it returns.
_FINISHED: Future = Future()
_FINISHED.set_result(None)


def _inline_executors(engine: LocalEngine) -> tuple[Executor, Executor]:
    executor = _InlineExecutor()
    return executor, executor


def _thread_pools(engine: LocalEngine) -> tuple[Executor, Executor]:
    return (
        ThreadPoolExecutor(max_workers=engine.map_workers),
        ThreadPoolExecutor(max_workers=engine.reduce_workers),
    )


#: mode name -> executor pair factory.
_MODES = {"serial": _inline_executors, "threaded": _thread_pools}
