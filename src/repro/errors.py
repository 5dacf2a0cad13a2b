"""Exception hierarchy for the SIDR reproduction.

Every subsystem raises subclasses of :class:`ReproError` so that callers can
catch library errors without also swallowing programming mistakes such as
``TypeError``.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class GeometryError(ReproError):
    """Invalid n-dimensional geometry (negative extents, rank mismatch...)."""


class RankMismatchError(GeometryError):
    """Two coordinate objects of different rank were combined."""


class FormatError(ReproError):
    """A scientific data file is malformed or truncated."""


class DatasetError(ReproError):
    """Logical misuse of a dataset (unknown variable, out-of-bounds slab...)."""


class DfsError(ReproError):
    """Simulated distributed filesystem error."""


class JobConfigError(ReproError):
    """A MapReduce job was configured inconsistently."""


class ShuffleError(ReproError):
    """Intermediate data routing violated an invariant."""


class StaleFetchError(ShuffleError):
    """A reduce task consumed map output that was superseded mid-flight.

    Raised when the attempt a reduce fetched from is no longer the
    current committed attempt (the map was re-executed while the reduce
    ran).  The engine treats this as retryable: the reduce is re-run
    against the fresh attempt.
    """


class BarrierViolationError(ShuffleError):
    """A reduce task attempted to run before its data dependencies were met.

    This is the error that guards SIDR's central correctness claim: with
    dependency barriers (rather than the global barrier) a reduce task must
    never observe an incomplete key group.
    """


class QueryError(ReproError):
    """A structural query is invalid for the dataset it targets."""


class PartitionError(ReproError):
    """partition+ could not produce a valid keyblock decomposition."""


class SchedulerError(ReproError):
    """Task scheduling invariant violated (slot overflow, double schedule...)."""


class SimulationError(ReproError):
    """Discrete-event simulation internal error (causality, resource misuse)."""


class ObservabilityError(ReproError):
    """Misuse of the tracing/metrics layer (open span's duration, bucket
    clash, unreadable trace file...)."""


class FaultPlanError(ReproError):
    """A fault-injection plan is malformed (unknown kind, bad selector...)."""


class InjectedFaultError(ReproError):
    """A deliberately injected task fault (crash or transient).

    Raised by the fault-injection layer inside a task body; the engine's
    retry machinery treats it like any other task failure.
    """


class TaskCancelledError(ReproError):
    """A task attempt was cooperatively cancelled mid-flight.

    Raised from a :class:`~repro.spec.CancelToken` checkpoint inside a
    task body.  ``reason`` says why — ``"superseded"`` (a speculative
    backup attempt committed first), ``"hang-mitigation"`` (the
    speculation runtime cancelled an attempt that passed no checkpoint
    for its hang timeout, so the retry machinery can re-run it), or ``"deadline"`` (the job's wall-clock deadline expired).  The
    engine routes each reason differently; see
    ``docs/FAULT_TOLERANCE.md``.
    """

    def __init__(self, message: str, *, reason: str = "") -> None:
        super().__init__(message)
        self.reason = reason


class DeadlineExceededError(ReproError):
    """The job's wall-clock deadline expired before it completed.

    Under ``on_deadline="fail"`` this surfaces inside a
    :class:`JobFailedError`; under ``"partial"`` the engine swallows it
    and returns the early results committed so far."""


class JobFailedError(ReproError):
    """A job failed after retries were exhausted.

    ExceptionGroup-style: ``errors`` carries *every* task error observed
    during the run (a threaded run can fail in several tasks at once),
    not just the first one.  ``__cause__`` is set to the first error so
    tracebacks chain naturally.
    """

    def __init__(self, message: str, errors: "tuple | list" = ()) -> None:
        super().__init__(message)
        self.errors: tuple[BaseException, ...] = tuple(errors)

    @classmethod
    def from_errors(
        cls, job_name: str, errors: "list[BaseException]"
    ) -> "JobFailedError":
        shown = "; ".join(f"{type(e).__name__}: {e}" for e in errors[:3])
        more = f" (+{len(errors) - 3} more)" if len(errors) > 3 else ""
        err = cls(
            f"job {job_name!r} failed with {len(errors)} task error(s): "
            f"{shown}{more}",
            errors,
        )
        if errors:
            err.__cause__ = errors[0]
        return err
