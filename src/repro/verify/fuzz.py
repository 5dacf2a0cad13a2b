"""Cross-engine differential fuzzing with automatic shrinking.

Every :class:`~repro.verify.cases.FuzzCase` is executed through four
engine configurations — {serial, threaded} × {record, columnar} — and
compared, by the digest of its output's byte form,
against the brute-force :mod:`~repro.verify.oracle`.  Every leg (and
the oracle) also decodes its own bytes back and reads ``diverged``
unless the records come out ``repr``-identical, so the codec that
defines the digest is shown lossless on each compared output.
Expected-failure cases (crash faults) must instead fail in *every*
configuration.  Every leg runs the case as one request
(:meth:`~repro.verify.cases.FuzzCase.request`): the engine legs and
the explorer on its :meth:`~repro.service.QueryRequest.local_engine`,
the engine a served job runs on.  The engine legs cut a case's splits
with its own split function (:attr:`~repro.verify.cases.FuzzCase.aligned`,
about half the cases): aligned splits are what is served, and ``slice_splits``' cut
instances are what keeps combine and the reduce-side merge covered.

Prunable fault-free cases (``filter_gt``) additionally run a **predicate
leg**: the same configurations with zone-map split skipping forced
on (a zone map built from the case data at the case's tile shape), so
every fuzzed threshold query proves pruned plans byte-identical to
unpruned ones.  Fault cases keep pruning off — their rules target split
indices, which pruning renumbers.

Listing ``service`` in ``REPRO_VERIFY_ENGINES`` adds the **service
leg** (and its prune twin): the same case submitted to a fresh resident
query service through the in-process client (admission → plan cache →
shared session → served digest), so the whole serving path joins the
differential ladder.  Because legs are selected by environment, a
shrunk repro re-runs the service path automatically.

A mismatching case is **shrunk**: candidate simplifications (drop
faults, unstride, collapse reduces/splits, halve geometry) are applied
greedily while the mismatch persists, and the minimal failing case —
plus the original and the observed disagreement — is written to a JSON
repro file that :func:`load_repro` (and ``repro.cli verify --repro``)
can replay exactly.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any

from repro.errors import JobConfigError, ReproError
from repro.mapreduce.columnar import ResultBlock
from repro.query.operators import PRUNABLE_OPERATORS
from repro.scidata.zonemaps import build_zone_map
from repro.sidr.planner import build_sidr_job
from repro.verify.cases import FuzzCase, generate_case
from repro.verify.explorer import (
    ExplorationReport,
    explore,
    failure_types,
)
from repro.verify.oracle import checked_digest, oracle_records, records_digest

#: Engine configurations every case is pushed through.  The serial
#: legs anchor the ladder (closest to the oracle); threaded must match
#: them byte-for-byte.  ``REPRO_VERIFY_ENGINES`` (comma-separated
#: modes) narrows the matrix, e.g. a CI leg that fuzzes one engine.
_ALL_ENGINE_CONFIGS: tuple[tuple[str, str], ...] = (
    ("serial", "record"),
    ("threaded", "record"),
    ("serial", "columnar"),
    ("threaded", "columnar"),
)

#: The opt-in leg that routes the case through the resident query
#: service (in-process client, docs/SERVICE.md) instead of a bare engine
#: — enabled by listing ``service`` in ``REPRO_VERIFY_ENGINES``.  It
#: fuzzes the whole service path — admission, plan cache, shared dataset
#: session, per-job observability, canonical result serving — on the one
#: plane the service serves.
_SERVICE_CONFIGS: tuple[tuple[str, str], ...] = (("service", "columnar"),)


def _engine_configs() -> tuple[tuple[str, str], ...]:
    """The legs ``REPRO_VERIFY_ENGINES`` selects; every engine leg when
    it is unset or empty.  A token that names no leg is an error, not a
    leg left out: a run pinned to a misspelt or removed engine must not
    pass by checking something else."""
    allow = os.environ.get("REPRO_VERIFY_ENGINES", "")
    modes = {m.strip() for m in allow.split(",") if m.strip()}
    if not modes:
        return _ALL_ENGINE_CONFIGS
    selectable = _ALL_ENGINE_CONFIGS + _SERVICE_CONFIGS
    known = dict.fromkeys(mode for mode, _ in selectable)
    unknown = sorted(modes - known.keys())
    if unknown:
        raise JobConfigError(
            f"REPRO_VERIFY_ENGINES: unknown engine leg(s) "
            f"{', '.join(map(repr, unknown))}; expected a comma-separated "
            f"subset of {', '.join(known)}"
        )
    return tuple(c for c in selectable if c[0] in modes)


ENGINE_CONFIGS = _ALL_ENGINE_CONFIGS


def _make_job(case: FuzzCase, data_plane: str, prune: bool = False):
    plan, data = case.build()
    splits = case.splits(plan)
    zone_map = None
    if prune:
        zone_map = build_zone_map("v", data, tile_shape=case.tile)
    job, barrier, _ = build_sidr_job(
        plan, splits, case.reduces, data,
        data_plane=data_plane, prune=prune, zone_map=zone_map,
    )
    return job, barrier


def _run_service_leg(case: FuzzCase, plane: str, *, prune: bool = False) -> "ConfigOutcome":
    """Run one case end-to-end through the resident query service.

    The service cuts its own splits — on extraction-unit boundaries,
    whatever the case's :attr:`~FuzzCase.aligned` says — so this leg
    runs the serving split function on every case.  A fresh
    two-worker :class:`~repro.service.QueryService` per leg, whose one
    job runs alone and so in parts wherever its plan cuts
    (``SIDRPlan.parts``): the case data registered as an array, which
    the service writes to a file of its own (with a zone map at the
    case's tile for the pruning legs), submitted
    via the in-process client path, and the *served* digest folded into
    the differential ladder.  Expected-failure cases must come back
    ``failed`` here too.  The job's block also crosses the wire codec, and the leg reads
    ``diverged`` unless the served digest is the SHA-256 of the bytes
    ``/result`` ships and — the service keeps nothing but those bytes,
    so the oracle's list is the reference — a digest equal to the
    oracle's comes with decoded records ``repr``-identical to the
    oracle's.
    """
    from repro.service import QueryService
    from repro.service.api import DONE

    plan, data = case.build()
    service = QueryService(workers=2, map_workers=2, reduce_workers=2)
    try:
        service.register_array(
            "fuzz", "v", data, tile=case.tile, with_zone_map=prune
        )
        job_id = service.submit(case.request(plane, prune))
        try:
            doc, block = service.result_block(job_id, timeout=120.0)
        except TimeoutError:
            return ConfigOutcome(
                "service", plane, "failed", ("TimeoutError",), None, prune
            )
        counters = service.status(job_id).get("counters", {})
    finally:
        service.close()
    if doc["state"] == DONE:
        digest = doc["digest"]
        status = "ok" if records_digest(block) == digest else "diverged"
        if not case.expects_failure:
            oracle = oracle_records(plan, data)
            decoded = ResultBlock.from_bytes(block.to_bytes()).canonical_records()
            if digest == records_digest(oracle) and repr(decoded) != repr(oracle):
                status = "diverged"
        return ConfigOutcome(
            "service", plane, status, (), digest, prune,
            *_reduce_paths(counters.get), parts=doc["parts"],
        )
    return ConfigOutcome(
        "service", plane, "failed",
        tuple(doc.get("error_types") or ()), None, prune,
        parts=doc["parts"] or 1,
    )


def _reduce_paths(counter: Callable[[str], int | None]) -> tuple[int, int]:
    """A run's columnar reduce attempts that took the planned and the
    generic body (``reduce.planned`` / ``reduce.generic``)."""
    return counter("reduce.planned") or 0, counter("reduce.generic") or 0


def _prune_eligible(case: FuzzCase) -> bool:
    """Does this case get the pruning legs?  Prunable operator, no fault
    rules (fault indices bind to split indices, which pruning renumbers
    — the same rule would hit a different task)."""
    return case.operator in PRUNABLE_OPERATORS and not case.fault_rules


@dataclass(frozen=True)
class ConfigOutcome:
    """One (mode, data plane[, prune]) run of a case."""

    mode: str
    data_plane: str
    #: "ok" | "failed" | "diverged" (the output's canonical records
    #: differ between fast path, generic walk and its decoded bytes)
    status: str
    error_types: tuple[str, ...]
    digest: str | None
    prune: bool = False
    #: Columnar reduce attempts that took the planned / generic body.
    planned_reduces: int = 0
    generic_reduces: int = 0
    #: The parts a service leg's job ran in.
    parts: int = 1

    @property
    def config(self) -> str:
        return f"{self.mode}/{self.data_plane}" + ("/prune" if self.prune else "")


@dataclass(frozen=True)
class CaseResult:
    """A case's differential verdict across all configurations."""

    case: FuzzCase
    oracle_digest: str | None        # None for expected-failure cases
    outcomes: tuple[ConfigOutcome, ...]
    mismatch: str | None             # human-readable disagreement, if any

    @property
    def ok(self) -> bool:
        return self.mismatch is None


def run_case(case: FuzzCase, *, metrics: Any | None = None) -> CaseResult:
    """Execute one case through every engine configuration and compare
    against the oracle (or, for crash cases, require uniform failure)."""
    if metrics is not None:
        metrics.counter("verify.cases").inc()

    expected = None
    oracle_lossless = True
    if not case.expects_failure:
        plan, data = case.build()
        expected, oracle_lossless = checked_digest(oracle_records(plan, data))

    configs = _engine_configs()
    legs = [(mode, plane, False) for mode, plane in configs]
    if _prune_eligible(case):
        legs += [(mode, plane, True) for mode, plane in configs]

    outcomes: list[ConfigOutcome] = []
    for mode, plane, prune in legs:
        if mode == "service":
            outcomes.append(_run_service_leg(case, plane, prune=prune))
            continue
        job, barrier = _make_job(case, plane, prune=prune)
        engine = case.request(plane, prune).local_engine()
        try:
            res = engine.run(job, barrier, mode=mode)
        except ReproError as exc:
            outcomes.append(
                ConfigOutcome(
                    mode, plane, "failed", failure_types(exc), None, prune
                )
            )
            continue
        # The column-wise fast path is checked against the generic
        # per-value walk, and the bytes the digest hashes against both,
        # on every leg — neither is trusted instead of the records.
        digest, consistent = checked_digest(res.all_records())
        outcomes.append(
            ConfigOutcome(
                mode, plane, "ok" if consistent else "diverged", (), digest,
                prune, *_reduce_paths(res.counters.get),
            )
        )

    mismatch = _diff(case, expected, outcomes)
    if mismatch is None and not oracle_lossless:
        mismatch = "the oracle's records do not survive their byte form"
    if mismatch is not None and metrics is not None:
        metrics.counter("verify.mismatches").inc()
    return CaseResult(case, expected, tuple(outcomes), mismatch)


def _diff(
    case: FuzzCase,
    oracle_digest: str | None,
    outcomes: list[ConfigOutcome],
) -> str | None:
    if case.expects_failure:
        survivors = [o.config for o in outcomes if o.status != "failed"]
        if survivors:
            return (
                f"crash case succeeded under {', '.join(survivors)} "
                f"(every configuration must fail)"
            )
        return None
    bad = [
        f"{o.config}: {o.status}"
        + (f" ({', '.join(o.error_types)})" if o.error_types else "")
        + (f" digest {o.digest[:12]}" if o.digest else "")
        for o in outcomes
        if o.status != "ok" or o.digest != oracle_digest
    ]
    if bad:
        return (
            f"oracle digest {oracle_digest[:12]} disagreed with: "
            + "; ".join(bad)
        )
    return None


# --------------------------------------------------------------------- #
# Shrinking
# --------------------------------------------------------------------- #
def _drop_rules(case: FuzzCase, rest: tuple[dict, ...]) -> FuzzCase:
    """Replace the fault rules, turning speculation off once no hang
    or stall rule remains (speculate without them is inert; hangs
    without speculate never terminate, so the pair shrinks together)."""
    speculate = case.speculate and any(
        r.get("fault") in ("hang", "slow") for r in rest
    )
    return replace(case, fault_rules=rest, speculate=speculate)


def _shrink_candidates(case: FuzzCase):
    """Simplification attempts, most aggressive first."""
    if case.fault_rules:
        yield _drop_rules(case, ())
        for i in range(len(case.fault_rules)):
            rest = case.fault_rules[:i] + case.fault_rules[i + 1:]
            yield _drop_rules(case, rest)
    if case.recovery != "persisted":
        yield replace(case, recovery="persisted")
    if case.tile is not None:
        yield replace(case, tile=None)
    if case.stride is not None:
        yield replace(case, stride=None)
    if case.reduces > 1:
        yield replace(case, reduces=1)
    if case.num_splits > 1:
        yield replace(case, num_splits=1)
    for d, (s, e) in enumerate(zip(case.shape, case.extraction)):
        half = max(e, (s + 1) // 2)
        if half < s:
            shape = case.shape[:d] + (half,) + case.shape[d + 1:]
            yield replace(case, shape=shape)
    for d, e in enumerate(case.extraction):
        if e > 1:
            ext = case.extraction[:d] + ((e + 1) // 2,) + case.extraction[d + 1:]
            yield replace(case, extraction=ext)


def _still_fails(case: FuzzCase) -> CaseResult | None:
    """Re-run a shrink candidate; None if it is invalid or passes."""
    try:
        plan = case.compile()
        if case.reduces > plan.num_intermediate_keys:
            case = replace(case, reduces=plan.num_intermediate_keys)
        result = run_case(case)
    except ReproError:
        return None
    return result if not result.ok else None


def shrink_case(
    case: FuzzCase, result: CaseResult, *, max_runs: int = 150
) -> tuple[FuzzCase, CaseResult]:
    """Greedily minimize a failing case while it keeps failing."""
    best, best_result = case, result
    runs = 0
    progress = True
    while progress and runs < max_runs:
        progress = False
        for candidate in _shrink_candidates(best):
            if runs >= max_runs:
                break
            runs += 1
            shrunk = _still_fails(candidate)
            if shrunk is not None:
                best, best_result = shrunk.case, shrunk
                progress = True
                break
    return best, best_result


# --------------------------------------------------------------------- #
# Repro files
# --------------------------------------------------------------------- #
def write_repro(
    out_dir: str | Path,
    original: FuzzCase,
    shrunk: FuzzCase,
    result: CaseResult,
    *,
    index: int = 0,
) -> Path:
    """Persist a minimal failing case (plus context) as JSON."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"repro-{index:04d}-seed{original.seed}.json"
    doc = {
        "format": "repro.verify/1",
        "mismatch": result.mismatch,
        "oracle_digest": result.oracle_digest,
        "outcomes": [
            {
                "config": o.config,
                "status": o.status,
                "error_types": list(o.error_types),
                "digest": o.digest,
            }
            for o in result.outcomes
        ],
        "shrunk": shrunk.to_json(),
        "original": original.to_json(),
    }
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


def load_repro(path: str | Path) -> FuzzCase:
    """The shrunk case out of a repro file (for replay)."""
    doc = json.loads(Path(path).read_text())
    return FuzzCase.from_json(doc["shrunk"])


# --------------------------------------------------------------------- #
# Driver
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class CaseReport:
    """One fuzz case's full verdict (differential + exploration)."""

    index: int
    case: FuzzCase
    result: CaseResult
    exploration: ExplorationReport | None
    repro_path: Path | None

    @property
    def ok(self) -> bool:
        return self.result.ok and (
            self.exploration is None or self.exploration.ok
        )


@dataclass(frozen=True)
class FuzzReport:
    """Aggregate outcome of one fuzz run."""

    num_cases: int
    seed: int
    schedules: int
    failures: tuple[CaseReport, ...]
    violations: int
    divergent: int
    listener_errors: int = 0
    #: Cases whose engine legs cut aligned splits; the rest cut
    #: ``slice_splits``.
    aligned_cases: int = 0
    #: Columnar reduce attempts by leg ("engine" / "service") and body
    #: ("planned" / "generic"), e.g. ``reduces["engine", "planned"]``.
    reduces: dict[tuple[str, str], int] = field(default_factory=dict)
    #: Cases whose service leg (either one) ran its job in parts.
    split_cases: int = 0

    @property
    def ok(self) -> bool:
        return not (
            self.failures
            or self.violations
            or self.divergent
            or self.listener_errors
        )

    def summary(self) -> str:
        state = "OK" if self.ok else "FAIL"
        return (
            f"{state}: {self.num_cases} cases (seed {self.seed}, "
            f"{self.schedules} schedules/case), "
            f"{len(self.failures)} differential failures, "
            f"{self.violations} invariant violations, "
            f"{self.divergent} divergent interleavings, "
            f"{self.listener_errors} listener errors; engine legs split "
            f"{self.aligned_cases} cases aligned, "
            f"{self.num_cases - self.aligned_cases} sliced; columnar "
            f"reduces: " + ", ".join(
                f"{leg} {self.reduces.get((leg, 'planned'), 0)} planned / "
                f"{self.reduces.get((leg, 'generic'), 0)} generic"
                for leg in ("engine", "service")
            )
            + f"; service cases in parts: {self.split_cases}"
        )


def fuzz(
    num_cases: int,
    *,
    seed: int = 0,
    schedules: int = 0,
    out_dir: str | Path | None = None,
    metrics: Any | None = None,
    shrink: bool = True,
    operators: tuple[str, ...] | None = None,
) -> FuzzReport:
    """Run ``num_cases`` generated cases through the differential
    comparison, plus (when ``schedules > 0``) the interleaving explorer,
    shrinking and persisting every failure.  ``operators`` restricts the
    drawn operator pool (CI's pruning-equivalence smoke passes
    ``("filter_gt",)`` so every case exercises the predicate leg)."""
    failures: list[CaseReport] = []
    violations = 0
    divergent = 0
    listener_errors = 0
    aligned_cases = 0
    split_cases = 0
    reduces: Counter[tuple[str, str]] = Counter()
    for i in range(num_cases):
        case = generate_case(i, seed, operators=operators)
        aligned_cases += case.aligned
        result = run_case(case, metrics=metrics)
        for o in result.outcomes:
            leg = "service" if o.mode == "service" else "engine"
            reduces[leg, "planned"] += o.planned_reduces
            reduces[leg, "generic"] += o.generic_reduces
        split_cases += any(o.parts > 1 for o in result.outcomes)

        exploration: ExplorationReport | None = None
        if schedules > 0:
            exploration = explore(
                lambda c=case: _make_job(c, "record"),
                schedules=schedules,
                seed=seed,
                engine_factory=case.request("record").local_engine,
                metrics=metrics,
            )
            violations += len(exploration.violations)
            divergent += len(exploration.divergent)
            listener_errors += exploration.listener_errors

        report = CaseReport(i, case, result, exploration, None)
        if report.ok:
            continue

        repro_path: Path | None = None
        if not result.ok:
            shrunk, shrunk_result = (
                shrink_case(case, result) if shrink else (case, result)
            )
            if out_dir is not None:
                repro_path = write_repro(
                    out_dir, case, shrunk, shrunk_result, index=i
                )
        failures.append(
            CaseReport(i, case, result, exploration, repro_path)
        )
    return FuzzReport(
        num_cases=num_cases,
        seed=seed,
        schedules=schedules,
        failures=tuple(failures),
        violations=violations,
        divergent=divergent,
        listener_errors=listener_errors,
        aligned_cases=aligned_cases,
        reduces=dict(reduces),
        split_cases=split_cases,
    )
