"""Brute-force query oracle: no splits, no shuffle, no engine.

:func:`oracle_records` evaluates a compiled structural query directly
on the dense in-memory array — for every intermediate key, slice the
instance region out of the array and apply the operator's serial
``reference`` path.  This is an *independent* ground truth: it shares
no code with the split slicing, partitioners, barriers, shuffle, or
either data plane, so a routing bug cannot cancel out of a
differential comparison.

Outputs are compared in **canonical form**: numpy scalars/arrays are
converted to plain Python values and records sorted by key, then
digested.  Equal digests mean byte-identical canonical reprs — the
comparison the differential fuzzer and the interleaving explorer both
use.  Fuzz data is integer-valued (see :mod:`repro.verify.cases`), so
float accumulation order cannot introduce last-ulp noise and exact
comparison is sound even for sum/mean/stddev.
"""

from __future__ import annotations

import hashlib
from typing import Any

import numpy as np

from repro.mapreduce.columnar import ResultBlock
from repro.query.language import QueryPlan

#: (key, value) with key a coordinate tuple — canonical record form.
CanonicalRecords = list[tuple[tuple[int, ...], Any]]


def canonicalize_value(value: Any) -> Any:
    """Convert numpy payloads to plain, deterministically ``repr``-able
    Python values (dicts with sorted keys, ndarrays to lists)."""
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return [canonicalize_value(x) for x in value.reshape(-1)]
    if isinstance(value, (list, tuple)):
        return [canonicalize_value(x) for x in value]
    if isinstance(value, dict):
        return {str(k): canonicalize_value(v) for k, v in sorted(value.items())}
    return value


def canonicalize_records(records: Any) -> CanonicalRecords:
    """Canonical sorted record list from any (key, value) iterable.

    A :class:`~repro.mapreduce.columnar.ResultBlock` is canonical by
    construction and converts column-wise; anything else is walked
    value by value.  The fuzzer checks the two agree on every case.
    """
    if isinstance(records, ResultBlock):
        return records.canonical_records()
    out: CanonicalRecords = [
        (tuple(int(c) for c in key), canonicalize_value(value))
        for key, value in records
    ]
    out.sort(key=lambda kv: kv[0])
    return out


def records_digest(records: CanonicalRecords) -> str:
    """SHA-256 over the canonical repr — equal digests mean
    byte-identical canonical output."""
    return hashlib.sha256(repr(records).encode("utf-8")).hexdigest()


def oracle_records(plan: QueryPlan, data: np.ndarray) -> CanonicalRecords:
    """Ground-truth output for ``plan`` over the full variable array."""
    ref = plan.reference_output(np.asarray(data))
    return canonicalize_records(ref.items())
