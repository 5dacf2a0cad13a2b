"""NCLite on-disk format.

Layout::

    offset 0   : 8-byte magic  b"NCLITE\\x01\\n"
    offset 8   : u32 little-endian header length H
    offset 12  : H bytes of JSON-encoded metadata (DatasetMetadata.to_dict
                 plus a per-variable payload offset table)
    offset 12+H: variable payloads, each a row-major (C-order)
                 little-endian dense array, in declaration order

The header carries explicit payload offsets so a reader can seek straight
to any slab of any variable — the property scientific formats provide and
that SciHadoop's coordinate-based record readers depend on.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from repro.errors import FormatError
from repro.scidata.metadata import DatasetMetadata
from repro.scidata.zonemaps import build_zone_map, constant_zone_map

NCLITE_MAGIC = b"NCLITE\x01\n"
_LEN_BYTES = 4


@dataclass(frozen=True)
class Header:
    """Decoded NCLite header: metadata plus payload offset table."""

    metadata: DatasetMetadata
    offsets: dict[str, int]  # variable name -> absolute byte offset
    data_start: int


def encode_header(metadata: DatasetMetadata) -> tuple[bytes, dict[str, int]]:
    """Serialize the header, computing payload offsets.

    Offsets depend on the header length, which depends on the offsets;
    NCLite sidesteps the fixed point by storing offsets *relative to the
    data section* and letting the reader add ``data_start``.
    """
    rel = {}
    cursor = 0
    for v in metadata.variables:
        rel[v.name] = cursor
        cursor += metadata.variable_nbytes(v.name)
    doc = {"meta": metadata.to_dict(), "offsets": rel, "total_data": cursor}
    payload = json.dumps(doc, separators=(",", ":")).encode("utf-8")
    header = (
        NCLITE_MAGIC
        + len(payload).to_bytes(_LEN_BYTES, "little")
        + payload
    )
    return header, rel


def read_header(path: str | os.PathLike) -> Header:
    """Read and validate an NCLite header without touching the payload."""
    with open(path, "rb") as fh:
        magic = fh.read(len(NCLITE_MAGIC))
        if magic != NCLITE_MAGIC:
            raise FormatError(f"{path}: not an NCLite file (bad magic {magic!r})")
        raw_len = fh.read(_LEN_BYTES)
        if len(raw_len) != _LEN_BYTES:
            raise FormatError(f"{path}: truncated header length")
        hlen = int.from_bytes(raw_len, "little")
        payload = fh.read(hlen)
        if len(payload) != hlen:
            raise FormatError(f"{path}: truncated header (want {hlen} bytes)")
        try:
            doc = json.loads(payload.decode("utf-8"))
            meta = DatasetMetadata.from_dict(doc["meta"])
            rel = {str(k): int(v) for k, v in doc["offsets"].items()}
            total = int(doc["total_data"])
        except (ValueError, KeyError, TypeError) as exc:
            raise FormatError(f"{path}: malformed header JSON: {exc}") from exc
        data_start = len(NCLITE_MAGIC) + _LEN_BYTES + hlen
        # Sanity: declared payload size must match the file, or the file is
        # truncated/corrupt and coordinate reads would return garbage.
        size = os.fstat(fh.fileno()).st_size
        if size != data_start + total:
            raise FormatError(
                f"{path}: payload size mismatch (header says {total} bytes, "
                f"file has {size - data_start})"
            )
        offsets = {name: data_start + off for name, off in rel.items()}
        return Header(metadata=meta, offsets=offsets, data_start=data_start)


def strip_zone_maps(fh, header: Header) -> Header:
    """Drop zone maps from an open writable file's header, in place.

    Slab writes mutate the payload under the statistics, so the first
    mutation must invalidate them or later pruned reads would be
    unsound.  The header's byte length cannot change (payload offsets
    are relative to ``data_start``), so the shorter JSON is padded with
    trailing spaces to the exact original length — ``json.loads``
    accepts trailing whitespace.  Returns the updated header.
    """
    meta = header.metadata
    if not meta.zone_maps:
        return header
    bare = meta.with_zone_maps(())
    rel = {
        name: off - header.data_start for name, off in header.offsets.items()
    }
    total = sum(bare.variable_nbytes(v.name) for v in bare.variables)
    doc = {"meta": bare.to_dict(), "offsets": rel, "total_data": total}
    payload = json.dumps(doc, separators=(",", ":")).encode("utf-8")
    room = header.data_start - len(NCLITE_MAGIC) - _LEN_BYTES
    if len(payload) > room:  # pragma: no cover - strip only shrinks
        raise FormatError("zone-map strip grew the header")
    fh.seek(len(NCLITE_MAGIC) + _LEN_BYTES)
    fh.write(payload + b" " * (room - len(payload)))
    fh.flush()
    return Header(
        metadata=bare, offsets=header.offsets, data_start=header.data_start
    )


def write_nclite(
    path: str | os.PathLike,
    metadata: DatasetMetadata,
    arrays: dict[str, np.ndarray],
    *,
    zone_maps: bool = True,
) -> None:
    """Write a complete NCLite file from in-memory arrays.

    Every variable in ``metadata`` must be present in ``arrays`` with the
    exact declared shape and a dtype castable to the declared one.

    Unless ``zone_maps=False``, a per-tile min/max/count zone map is
    computed for every variable while the data is in memory and stored
    in the header (the load-time indexing of "aggressive elephants"),
    enabling split pruning at plan time.  Statistics are taken over the
    payload *after* the cast to the declared on-disk dtype, so they
    bound exactly what a reader will see.  Metadata that already carries
    zone maps is written as-is.
    """
    for v in metadata.variables:
        if v.name not in arrays:
            raise FormatError(f"missing payload for variable {v.name!r}")
        arr = arrays[v.name]
        want = metadata.variable_shape(v.name)
        if tuple(arr.shape) != want:
            raise FormatError(
                f"variable {v.name!r}: payload shape {arr.shape} != "
                f"declared {want}"
            )
    casted = {
        v.name: np.ascontiguousarray(
            arrays[v.name], dtype=v.numpy_dtype.newbyteorder("<")
        )
        for v in metadata.variables
    }
    if zone_maps and not metadata.zone_maps:
        metadata = metadata.with_zone_maps(tuple(
            build_zone_map(v.name, casted[v.name])
            for v in metadata.variables
        ))
    header, _rel = encode_header(metadata)
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "wb") as fh:
        fh.write(header)
        for v in metadata.variables:
            fh.write(casted[v.name].tobytes())
    os.replace(tmp, path)


def write_nclite_empty(
    path: str | os.PathLike,
    metadata: DatasetMetadata,
) -> None:
    """Create an NCLite file with all variables filled with zeros.

    Used to pre-allocate output files that reduce tasks then write slabs
    into.  The zeros are written in bounded chunks so creating a file
    much larger than RAM stays safe.

    Zone maps for a constant-fill variable need no scan: every tile's
    min and max are the fill value and every tile is flagged pure-fill.
    They are valid only while the file stays constant —
    ``Dataset.write_slab`` invalidates them in place on first mutation.
    """
    if not metadata.zone_maps:
        metadata = metadata.with_zone_maps(tuple(
            constant_zone_map(v.name, metadata.variable_shape(v.name), 0)
            for v in metadata.variables
        ))
    header, _rel = encode_header(metadata)
    tmp = f"{path}.tmp.{os.getpid()}"
    chunk_cells = 1 << 20
    with open(tmp, "wb") as fh:
        fh.write(header)
        for v in metadata.variables:
            dtype = v.numpy_dtype.newbyteorder("<")
            total = metadata.variable_cells(v.name)
            block = np.zeros(min(chunk_cells, total), dtype=dtype).tobytes()
            remaining = total
            while remaining > 0:
                n = min(chunk_cells, remaining)
                fh.write(block[: n * dtype.itemsize])
                remaining -= n
    os.replace(tmp, path)
