"""Brute-force query oracle: no splits, no shuffle, no engine.

:func:`oracle_records` evaluates a compiled structural query directly
on the dense in-memory array — for every intermediate key, slice the
instance region out of the array and apply the operator's serial
``reference`` path.  This is an *independent* ground truth: it shares
no code with the split slicing, partitioners, barriers, shuffle, or
either data plane, so a routing bug cannot cancel out of a
differential comparison.

Outputs are compared in **canonical form**: numpy scalars/arrays are
converted to plain Python values and records sorted by key.  A result's
identity is its :func:`records_digest`: SHA-256 of the one byte form
:meth:`ResultBlock.to_bytes <repro.mapreduce.columnar.ResultBlock.to_bytes>`
gives those records (K'_T's shape and the keys' row-major runs as int64,
the value column in one of four binary layouts: float64, int64 for
``count``, ragged for ``sort`` and ``filter_gt``, the ``range_exceeds``
pair) — for a complete result, the same hex whether it arrives as a
block, as a packed block or as a canonical record list, and the hash of
exactly the bytes the service stores and ships.  Equal digests mean equal bytes;
that equal bytes mean ``repr``-identical canonical records is not taken
on trust but shown on every output the differential fuzzer and the
interleaving explorer compare (:func:`checked_digest`: the bytes are
decoded again and held against the records they were made from).  Fuzz
data is integer-valued (see :mod:`repro.verify.cases`), so float
accumulation order cannot introduce last-ulp noise and exact comparison
is sound even for sum/mean/stddev.
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


def records_digest(records: ResultBlock | CanonicalRecords) -> str:
    """SHA-256 of the result's byte form (:meth:`ResultBlock.to_bytes`)
    — equal digests mean byte-identical output.  A canonical record
    list digests as :meth:`ResultBlock.from_records` of it, in the
    keys' bounding shape (K'_T for a complete result; a partial one's
    can be smaller and digest differently); a list whose keys are not
    coordinates raises :class:`~repro.errors.ShuffleError`."""
    if not isinstance(records, ResultBlock):
        records = ResultBlock.from_records(records)
    return hashlib.sha256(records.to_bytes()).hexdigest()


def checked_digest(out: Any) -> tuple[str, bool]:
    """``(records_digest(out), out is consistent)`` for a job's output
    (:meth:`JobResult.all_records`) or a record list.

    The digest makes the codec the arbiter of "equal output", so every
    compared output proves the codec on itself: the records decoded
    from its bytes must be ``repr``-identical to its canonical records
    — and those, when a block's columns gave them, to the generic
    per-value walk.  With that shown on both sides of a comparison,
    equal bytes and equal canonical ``repr`` are the same statement.
    """
    records = canonicalize_records(out)
    walked = canonicalize_records(list(out))
    block = out if isinstance(out, ResultBlock) else ResultBlock.from_records(records)
    data = block.to_bytes()
    decoded = ResultBlock.from_bytes(data).canonical_records()
    return (
        hashlib.sha256(data).hexdigest(),
        repr(records) == repr(walked) == repr(decoded),
    )


def oracle_records(plan: QueryPlan, data: np.ndarray) -> CanonicalRecords:
    """Ground-truth output for ``plan`` over the full variable array."""
    ref = plan.reference_output(np.asarray(data))
    return canonicalize_records(ref.items())
