"""Verification subsystem: interleaving exploration, a brute-force
query oracle, and cross-engine differential fuzzing.

Three independent lines of evidence that the SIDR data path is right:

* :mod:`repro.verify.explorer` — replay one job under systematically
  perturbed thread schedules and check barrier/shuffle invariants plus
  output identity on every interleaving.
* :mod:`repro.verify.oracle` — evaluate any structural query directly
  on the dense array, sharing no code with splits/shuffle/planes.
* :mod:`repro.verify.fuzz` — seeded random cases through
  {serial, threaded} × {record, columnar} vs the oracle, with greedy
  shrinking of failures to minimal JSON repros.

Entry point: ``python -m repro.cli verify``.
"""

from repro.verify.cases import OPERATOR_NAMES, FuzzCase, generate_case
from repro.verify.explorer import (
    ExplorationReport,
    ScheduleRun,
    explore,
    failure_types,
)
from repro.verify.fuzz import (
    ENGINE_CONFIGS,
    CaseReport,
    CaseResult,
    ConfigOutcome,
    FuzzReport,
    fuzz,
    load_repro,
    run_case,
    shrink_case,
    write_repro,
)
from repro.verify.hooks import SCHEDULING_POINTS, ChaosHook
from repro.verify.invariants import Violation, check_interleaving_invariants
from repro.verify.oracle import (
    CanonicalRecords,
    canonicalize_records,
    canonicalize_value,
    checked_digest,
    oracle_records,
    records_digest,
)

__all__ = [
    "CanonicalRecords",
    "CaseReport",
    "CaseResult",
    "ChaosHook",
    "ConfigOutcome",
    "ENGINE_CONFIGS",
    "ExplorationReport",
    "FuzzCase",
    "FuzzReport",
    "OPERATOR_NAMES",
    "SCHEDULING_POINTS",
    "ScheduleRun",
    "Violation",
    "canonicalize_records",
    "canonicalize_value",
    "check_interleaving_invariants",
    "checked_digest",
    "explore",
    "failure_types",
    "fuzz",
    "generate_case",
    "load_repro",
    "oracle_records",
    "records_digest",
    "run_case",
    "shrink_case",
    "write_repro",
]
