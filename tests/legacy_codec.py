"""The result byte forms digests were pinned in before today's.

Until the value columns were binary, a block whose values were not all
floats carried them as one compact JSON text under value tag 1.  Until
a block held K'_T's shape and its keys' row-major runs (``RBK2``), it
carried every key as an int64 coordinate row (``RBK1``).  Digests pinned
in those eras — ``tests/data/oracle_corpus.json``'s ``digest`` and
``binary_digest``, and literal digests in tests — are checked through
these copies of those packers, beside the digests of today's form, to
show the records behind them did not change when the byte form did.
Nothing outside the tests uses them.
"""

import hashlib
import json
import struct

import numpy as np

_HEADER = struct.Struct("<4sBxHQQ")
_EMPTY = _HEADER.pack(b"RBK1", 0, 0, 0, 0)


def json_tag_digest(records):
    """SHA-256 of canonical ``records`` (key order, plain Python values)
    in the JSON-tagged byte form."""
    if not records:
        return hashlib.sha256(_EMPTY).hexdigest()
    keys = np.asarray([key for key, _ in records], dtype="<i8")
    values = [value for _, value in records]
    if all(type(v) is float for v in values):
        tag, column = 0, _float_bytes(values)
    else:
        tag, column = 1, json.dumps(values, separators=(",", ":")).encode()
    head = _HEADER.pack(b"RBK1", tag, keys.shape[1], len(records), len(column))
    return hashlib.sha256(head + keys.tobytes() + column).hexdigest()


def rbk1_digest(records):
    """SHA-256 of canonical ``records`` in the ``RBK1`` byte form: the
    header, every key as an int64 coordinate row, then the value column
    in the binary sections it still has (float64; int64; a ragged
    column's int64 lengths, then its float64 cells; ``range_exceeds``'
    float64 variations, then its 0/1 flags)."""
    if not records:
        return hashlib.sha256(_EMPTY).hexdigest()
    keys = np.asarray([key for key, _ in records], dtype="<i8")
    values = [value for _, value in records]
    kind = type(values[0])
    if kind is float:
        tag, sections = 0, [_float_bytes(values)]
    elif kind is int:
        tag, sections = 2, [np.array(values, dtype="<i8").tobytes()]
    elif kind is list:
        lengths = np.array([len(v) for v in values], dtype="<i8")
        tag, sections = 3, [lengths.tobytes(), _float_bytes(sum(values, []))]
    else:
        flags = np.array([v["exceeds"] for v in values], dtype="u1")
        tag = 4
        sections = [_float_bytes([v["variation"] for v in values]), flags.tobytes()]
    column = b"".join(sections)
    head = _HEADER.pack(b"RBK1", tag, keys.shape[1], len(records), len(column))
    return hashlib.sha256(head + keys.tobytes() + column).hexdigest()


def _float_bytes(values):
    """Little-endian float64 bytes, every NaN the one quiet NaN."""
    floats = np.array(values, dtype="<f8")
    floats[np.isnan(floats)] = np.nan
    return floats.tobytes()
