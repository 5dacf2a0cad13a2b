"""The result byte form as it was before every value column was binary.

Until then a block whose values were not all floats carried them as one
compact JSON text under value tag 1.  Digests pinned in that era —
``tests/data/oracle_corpus.json``'s ``digest`` and literal digests in
tests — are checked through this copy of that packer, beside the
digests of today's form, to show the records behind them did not
change when the byte form did.  Nothing outside the tests uses it.
"""

import hashlib
import json
import struct

import numpy as np

_HEADER = struct.Struct("<4sBxHQQ")


def json_tag_digest(records):
    """SHA-256 of canonical ``records`` (key order, plain Python values)
    in the JSON-tagged byte form."""
    if not records:
        return hashlib.sha256(_HEADER.pack(b"RBK1", 0, 0, 0, 0)).hexdigest()
    keys = np.asarray([key for key, _ in records], dtype="<i8")
    values = [value for _, value in records]
    if all(type(v) is float for v in values):
        floats = np.array(values, dtype="<f8")
        floats[np.isnan(floats)] = np.nan
        tag, column = 0, floats.tobytes()
    else:
        tag, column = 1, json.dumps(values, separators=(",", ":")).encode()
    head = _HEADER.pack(b"RBK1", tag, keys.shape[1], len(records), len(column))
    return hashlib.sha256(head + keys.tobytes() + column).hexdigest()
