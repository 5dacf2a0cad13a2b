"""Wire-level schema of the resident query service.

:class:`QueryRequest` is the one submission document: it names a
registered dataset and a structural query, plus the execution knobs the
CLI exposes per invocation (engine mode, data plane, retries, faults,
speculation, deadline) and the multi-tenant scheduling fields (tenant,
priority).  It round-trips through JSON, so the in-process client and
the HTTP server share one schema, and every front end runs it on one
engine (:meth:`QueryRequest.local_engine`): a served job's part, a
local ``repro.cli query`` and the fuzzer's engine legs alike.

The service serves one data plane, ``columnar``: :data:`DATA_PLANES`
has that single value, and ``data_plane`` stays in the schema only as a
name existing clients send (``docs/SERVICE.md``, "Why the service has
one plane").  The per-record plane is the reference engine of
``repro.cli verify`` and of local ``repro.cli query --data-plane
record`` runs; a request naming it is refused at admission.

``engine`` does not say how many threads a job gets: ``serial`` and
``threaded`` jobs both execute on the one thread of the engine process
that runs them (the engine processes, the slots, are the service's
parallelism).  Only a ``threaded`` + ``speculate`` job gets thread
pools of its own (:func:`repro.service.engine_process.execution_mode`).

The request also defines the **canonical query** half of the plan-cache
key (:meth:`QueryRequest.plan_key`): exactly the fields
:func:`repro.sidr.planner.build_plan` consumes.  Two requests with equal
plan keys over the same dataset content produce the *same*
:class:`~repro.sidr.planner.SIDRPlan` — partition+ keyspaces, keyblock
partitions, and dependency maps ``I_l`` are pure functions of (dataset
metadata, query) — so ``engine`` deliberately does NOT participate: it
only affects how the per-submission job is executed, and repeated
shapes reuse keyblock partitions across engines.  ``prune`` DOES
participate: it changes the surviving split set and dependency map,
i.e. the plan itself.

The result has two bodies (``docs/SERVICE.md``, "Wire format"): JSON,
and — for a client whose ``Accept`` header names
:data:`BLOCK_CONTENT_TYPE` — the status document followed by the
records as one :class:`~repro.mapreduce.columnar.ResultBlock` byte
form (:func:`encode_result_body` / :func:`decode_result_body`).
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict, dataclass
from typing import Any

from repro.errors import ReproError, ShuffleError
from repro.faults import FaultKind, InjectionPlan, RecoveryModel
from repro.mapreduce.columnar import ResultBlock
from repro.mapreduce.engine import LocalEngine, RetryPolicy
from repro.query.operators import StructuralOperator, get_operator
from repro.spec import SpeculationPolicy

ENGINES = ("serial", "threaded")
DATA_PLANES = ("columnar",)
ON_DEADLINE = ("fail", "partial")
#: Cap on a result wait (a client that hangs up is dropped at once; this
#: bounds the ones that stay connected and silent) — and so the longest
#: a served job may be asked to stall without a deadline of its own.
MAX_RESULT_WAIT = 600.0

#: Job lifecycle states, in order of progress.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"
#: States a job can never leave.
TERMINAL_STATES = (DONE, FAILED, CANCELLED)


class ServiceError(ReproError):
    """Base class for resident-service errors."""


class AdmissionError(ServiceError):
    """Submission refused by admission control (quota/budget/validation)."""


class UnknownDatasetError(ServiceError):
    """Request names a dataset the registry has not opened."""


class UnknownJobError(ServiceError):
    """No job with that id (never submitted, or a different service)."""


class EngineProcessError(ServiceError):
    """The engine process running a job died under it (a signal, an
    exit, a pipe that closed): the job fails, the process is replaced."""


class ResultTooLargeError(ServiceError):
    """A job's packed result block is over the service's cap
    (:data:`repro.service.engine_process.MAX_RESULT_BYTES`): the job
    fails, and nothing of the block is kept or served.  A request whose
    operator's rows are of one width is refused at submit instead (a
    413 over HTTP): its block's length is known from the query."""


#: Media type of the binary result body.
BLOCK_CONTENT_TYPE = "application/x-repro-block"
_DOCUMENT_LENGTH = struct.Struct("<Q")


def encode_result_body(doc: dict[str, Any], block: ResultBlock | None) -> bytes:
    """The binary result body: the status document's JSON behind its
    byte length, then ``block``'s bytes (none for a job without
    records).  The JSON is space-padded to a multiple of 8 bytes, so
    the arrays a client views over the body are aligned."""
    head = json.dumps(doc).encode("utf-8")
    head += b" " * (-len(head) % 8)
    return b"".join((
        _DOCUMENT_LENGTH.pack(len(head)),
        head,
        b"" if block is None else block.to_bytes(),
    ))


def decode_result_body(body: bytes) -> dict[str, Any]:
    """The document :func:`encode_result_body` framed; its ``records``,
    when the body carries a block, are a read-only
    :class:`~repro.mapreduce.columnar.ResultBlock` viewing ``body``."""
    start = _DOCUMENT_LENGTH.size
    if len(body) < start:
        raise ServiceError(f"result body truncated at {len(body)} bytes")
    end = start + _DOCUMENT_LENGTH.unpack_from(body)[0]
    if end > len(body):
        raise ServiceError(
            f"result body is {len(body)} bytes, its document alone {end}"
        )
    try:
        doc = json.loads(body[start:end])
        if not isinstance(doc, dict):
            raise ValueError("the status document is not a JSON object")
        if end < len(body):
            doc["records"] = ResultBlock.from_bytes(memoryview(body)[end:])
    except (ValueError, ShuffleError) as exc:
        raise ServiceError(f"malformed result body: {exc}") from exc
    return doc


def _is_int(v: Any) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_real(v: Any) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_list_of(item_ok: Any) -> Any:
    return lambda v: isinstance(v, (list, tuple)) and all(map(item_ok, v))


def _or_null(kind: tuple[str, Any]) -> tuple[str, Any]:
    what, ok = kind
    return f"{what} or null", lambda v: v is None or ok(v)


_STR = ("a string", lambda v: isinstance(v, str))
_INT = ("an integer", _is_int)
_NUM = ("a number", _is_real)
_BOOL = ("a boolean", lambda v: isinstance(v, bool))
_INTS = ("a list of integers", _is_list_of(_is_int))
_OBJS = ("a list of objects", _is_list_of(lambda r: isinstance(r, dict)))
#: The JSON type of every request field.
_FIELD_TYPES = {
    "dataset": _STR, "variable": _STR, "extract": _INTS, "operator": _STR,
    "threshold": _or_null(_NUM), "stride": _or_null(_INTS),
    "splits": _INT, "reduces": _INT, "data_plane": _STR, "engine": _STR,
    "prune": _BOOL, "tenant": _STR, "priority": _INT,
    "deadline": _or_null(_NUM), "on_deadline": _STR,
    "max_attempts": _INT, "recovery": _STR, "fault_rules": _OBJS,
    "fault_seed": _INT, "speculate": _BOOL, "hang_timeout": _NUM,
}


@dataclass(frozen=True)
class QueryRequest:
    """One structural-query submission.

    Plan-affecting fields (the canonical-query key): ``variable``,
    ``extract``, ``stride``, ``operator``, ``threshold``, ``splits``,
    ``reduces``, ``prune``.  Everything else configures the individual
    run.
    """

    dataset: str
    variable: str
    extract: tuple[int, ...]
    operator: str = "mean"
    threshold: float | None = None
    stride: tuple[int, ...] | None = None
    splits: int = 16
    reduces: int = 4
    data_plane: str = "columnar"
    engine: str = "threaded"
    prune: bool = True
    tenant: str = "default"
    priority: int = 0
    deadline: float | None = None
    on_deadline: str = "fail"
    max_attempts: int = 1
    recovery: str = "persisted"
    #: FaultRule JSON documents (schema: docs/FAULT_TOLERANCE.md).
    fault_rules: tuple[dict, ...] = ()
    fault_seed: int = 0
    speculate: bool = False
    hang_timeout: float = 0.5

    def __post_init__(self) -> None:
        # A wrongly typed field is refused here, before anything
        # compares, hashes or heap-orders it.
        for name, (what, ok) in _FIELD_TYPES.items():
            value = getattr(self, name)
            if not ok(value):
                raise TypeError(f"{name} must be {what}, got {value!r}")
        # Normalize list-typed JSON input into the hashable tuple forms.
        object.__setattr__(self, "extract", tuple(int(x) for x in self.extract))
        if self.stride is not None:
            object.__setattr__(
                self, "stride", tuple(int(x) for x in self.stride)
            )
        object.__setattr__(self, "fault_rules", tuple(self.fault_rules))

    # ------------------------------------------------------------------ #
    # Validation
    # ------------------------------------------------------------------ #
    def validate(self) -> None:
        if not self.dataset:
            raise AdmissionError("request missing dataset name")
        if not self.variable:
            raise AdmissionError("request missing variable name")
        if not self.extract or any(e < 1 for e in self.extract):
            raise AdmissionError(f"invalid extraction shape {self.extract!r}")
        if self.engine not in ENGINES:
            raise AdmissionError(
                f"unknown engine {self.engine!r}; expected one of {ENGINES}"
            )
        if self.data_plane not in DATA_PLANES:
            raise AdmissionError(
                f"unknown data plane {self.data_plane!r}; "
                f"expected one of {DATA_PLANES}"
            )
        if self.on_deadline not in ON_DEADLINE:
            raise AdmissionError(
                f"unknown on_deadline {self.on_deadline!r}; "
                f"expected one of {ON_DEADLINE}"
            )
        if self.splits < 1 or self.reduces < 1:
            raise AdmissionError(
                f"splits/reduces must be >= 1, got {self.splits}/{self.reduces}"
            )
        if self.max_attempts < 1:
            raise AdmissionError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.deadline is not None and self.deadline <= 0:
            raise AdmissionError(f"deadline must be positive, got {self.deadline}")
        if self.speculate and self.engine == "serial" and self.max_attempts < 2:
            raise AdmissionError(
                "speculate on engine 'serial' retries a hung attempt in place; "
                "set max_attempts >= 2 (or engine 'threaded', which hedges)"
            )
        try:
            self.structural_operator()
            self.recovery_model()
            self.speculation_policy()
            faults = self.injection_plan()
        except (ReproError, ValueError, TypeError) as exc:
            # What the run would be built from cannot be built — an
            # unknown operator, recovery model or fault rule, a
            # threshold missing/unwanted, a hang timeout that is not a
            # positive number: a request error, not a job to queue, fail
            # and bill the tenant's failure budget for.
            raise AdmissionError(str(exc)) from exc
        # A fault nothing would ever release holds its engine slot for
        # the life of the server (a running job cannot be cancelled).
        for rule in faults.rules if faults is not None else ():
            if rule.kind is FaultKind.HANG and not (
                self.speculate or self.deadline is not None
            ):
                raise AdmissionError(
                    "a hang fault is released only by speculation or a "
                    "deadline; set speculate or deadline"
                )
            if (
                rule.kind is FaultKind.SLOW
                and rule.delay > MAX_RESULT_WAIT
                and self.deadline is None
            ):
                raise AdmissionError(
                    f"slow fault delay {rule.delay} exceeds the longest "
                    f"result wait ({MAX_RESULT_WAIT} s); set a deadline"
                )

    # ------------------------------------------------------------------ #
    # What the run is built from (validated at admission, built again
    # by whatever runs it: an engine process, a local ``query``, the
    # fuzzer's engine legs)
    # ------------------------------------------------------------------ #
    def local_engine(
        self, map_workers: int = 4, reduce_workers: int = 3
    ) -> LocalEngine:
        """The engine a run of this request executes on: its retries
        (with no backoff), faults, recovery and speculation, and pools
        of ``map_workers`` and ``reduce_workers`` for a pooled mode.
        It observes nothing of its own — a caller that observes passes
        ``obs=`` to :meth:`~LocalEngine.run` — and the request's
        deadline is the caller's to set on the job."""
        return LocalEngine(
            map_workers=map_workers,
            reduce_workers=reduce_workers,
            observability=False,
            retry=RetryPolicy(max_attempts=self.max_attempts),
            faults=self.injection_plan(),
            recovery=self.recovery_model(),
            speculation=self.speculation_policy(),
        )

    def structural_operator(self) -> StructuralOperator:
        """The operator this request names, with its threshold."""
        return get_operator(self.operator, threshold=self.threshold)

    def recovery_model(self) -> RecoveryModel:
        """The §6 recovery design ``recovery`` names."""
        return RecoveryModel.parse(self.recovery)

    def speculation_policy(self) -> SpeculationPolicy | None:
        """Hedging knobs when the request asks to ``speculate``."""
        if not self.speculate:
            return None
        return SpeculationPolicy(hang_timeout=self.hang_timeout)

    def injection_plan(self) -> InjectionPlan | None:
        """The fault plan of ``fault_rules`` under ``fault_seed``."""
        if not self.fault_rules:
            return None
        return InjectionPlan.from_json(
            {"seed": self.fault_seed, "rules": list(self.fault_rules)}
        )

    # ------------------------------------------------------------------ #
    # Plan-cache key
    # ------------------------------------------------------------------ #
    def plan_key(self) -> str:
        """Canonical JSON of exactly the plan-affecting fields."""
        return json.dumps(
            {
                "variable": self.variable,
                "extract": list(self.extract),
                # ``stride == extract`` is the dense plan spelt out.
                "stride": (
                    list(self.stride)
                    if self.stride and self.stride != self.extract
                    else None
                ),
                "operator": self.operator,
                "threshold": self.threshold,
                "splits": self.splits,
                "reduces": self.reduces,
                "prune": self.prune,
            },
            sort_keys=True,
            separators=(",", ":"),
        )

    # ------------------------------------------------------------------ #
    # JSON round-trip
    # ------------------------------------------------------------------ #
    def to_json(self) -> dict[str, Any]:
        doc = asdict(self)
        doc["extract"] = list(self.extract)
        doc["stride"] = list(self.stride) if self.stride else None
        doc["fault_rules"] = [dict(r) for r in self.fault_rules]
        return doc

    @classmethod
    def from_json(cls, doc: dict[str, Any] | str) -> "QueryRequest":
        if isinstance(doc, str):
            try:
                doc = json.loads(doc)
            except json.JSONDecodeError as exc:
                raise AdmissionError(f"request is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise AdmissionError(
                f"request must be a JSON object, got {type(doc).__name__}"
            )
        known = {f for f in cls.__dataclass_fields__}  # noqa: C416
        unknown = set(doc) - known
        if unknown:
            raise AdmissionError(f"unknown request field(s) {sorted(unknown)}")
        missing = {"dataset", "variable", "extract"} - set(doc)
        if missing:
            raise AdmissionError(f"request missing field(s) {sorted(missing)}")
        try:
            req = cls(**doc)
        except (TypeError, ValueError) as exc:
            raise AdmissionError(f"malformed request: {exc}") from exc
        req.validate()
        return req


@dataclass(frozen=True)
class TenantQuota:
    """Admission limits, the same for every tenant.

    ``max_active`` bounds a tenant's queued+running jobs at once;
    ``failure_budget``: after that many of a tenant's jobs have *failed*,
    its further submissions are refused for the life of the process.
    ``None`` = unlimited.
    """

    max_active: int | None = None
    failure_budget: int | None = None


@dataclass
class TenantState:
    """Mutable accounting the service keeps per tenant (guarded by the
    service lock).  A tenant with nothing active and no failed job
    admits as a fresh one would, so the service does not keep it."""

    active: int = 0
    failures: int = 0

    def check_admission(self, tenant: str, q: TenantQuota) -> None:
        if q.failure_budget is not None and self.failures >= q.failure_budget:
            raise AdmissionError(
                f"tenant {tenant!r} failure budget exhausted "
                f"({self.failures}/{q.failure_budget} failed jobs)"
            )
        if q.max_active is not None and self.active >= q.max_active:
            raise AdmissionError(
                f"tenant {tenant!r} has {self.active} active jobs "
                f"(max {q.max_active}); retry after one finishes"
            )

    def snapshot(self) -> dict[str, Any]:
        return {"active": self.active, "failures": self.failures}
