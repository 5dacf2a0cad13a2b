"""SessionRegistry: open datasets as resident, shareable sessions.

A :class:`DatasetSession` keeps one NCLite file open for the life of
the service — header (and therefore zone maps) parsed once, the
read-only mmap established once — so every query served against it
reads through the zero-copy path without per-query open/parse work.
Every session is a file.  An in-memory array (the fuzz harness and
tests register them) is written to an NCLite file of its own when it
is registered, its zone map in the header when it is asked for — the
load-time layout of "Only Aggressive Elephants are Fast Elephants" —
in a directory the registry makes on first use and removes when it
closes; the file of an array a registration replaces is deleted.

Each session carries a **content digest** — the dataset half of the
plan-cache key — over the canonical metadata JSON, the file identity
(size + mtime), and a service-side *write generation* counter.  A
:meth:`SessionRegistry.write_slab` bumps the generation, reopens the
handle (the on-disk header changed: ``Dataset.write_slab`` strips zone
maps in place), and eagerly invalidates the plan cache, so no plan
built against the old content or the old zone maps can ever be served
again.

An engine process (:mod:`repro.service.engine_process`) is sent a
session as its :class:`SessionRef` and reads it through a handle of its
own, opened by path (the page cache is shared).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import shutil
import tempfile
import threading
from typing import Any, NamedTuple

import numpy as np

from repro.arrays.slab import Slab
from repro.scidata.dataset import Dataset, open_dataset
from repro.scidata.metadata import DatasetMetadata, dtype_name, simple_metadata
from repro.scidata.nclite import write_nclite
from repro.scidata.zonemaps import build_zone_map
from repro.service.api import UnknownDatasetError


def _metadata_fingerprint(metadata: DatasetMetadata) -> str:
    return json.dumps(metadata.to_dict(), sort_keys=True, separators=(",", ":"))


class SessionRef(NamedTuple):
    """A session as an engine process is sent it: its name, the digest
    plans are keyed on, and the path it is opened by."""

    name: str
    digest: str
    path: str


class DatasetSession:
    """One registered dataset: an open file handle plus its digest."""

    def __init__(self, name: str, path: str) -> None:
        self.name = name
        self.path = path
        self.generation = 0
        self._dataset: Dataset | None = None
        self._mapped = False
        self._open()
        self.digest = self._compute_digest()

    # ------------------------------------------------------------------ #
    def _open(self) -> None:
        self._dataset = open_dataset(self.path, mode="r")
        # Establishing the mmap up front removes the lazy-init race for
        # concurrent readers; if it fails (exotic fs), readers fall back
        # to opening their own handles per split via the path source.
        self._mapped = self._dataset.ensure_mapped()
        self.metadata = self._dataset.metadata

    def _compute_digest(self) -> str:
        h = hashlib.sha256()
        h.update(_metadata_fingerprint(self.metadata).encode("utf-8"))
        h.update(f"|gen={self.generation}".encode())
        st = os.stat(self.path)
        h.update(f"|file={st.st_size}:{st.st_mtime_ns}".encode())
        return h.hexdigest()

    # ------------------------------------------------------------------ #
    def engine_source(self) -> Any:
        """What reader factories read from: the shared open handle when
        its zero-copy mmap is live (concurrency-safe: reads are views of
        one immutable mapping), otherwise the *path* — per-split opens
        are slower but safe under every engine."""
        if self._dataset is not None and self._mapped:
            return self._dataset
        return self.path

    def ref(self) -> SessionRef:
        return SessionRef(self.name, self.digest, self.path)

    def full_data(self, variable: str) -> np.ndarray:
        """The whole variable (oracle/test scale)."""
        assert self._dataset is not None
        return self._dataset.read_all(variable)

    def write_slab(self, variable: str, slab: Slab, data: np.ndarray) -> None:
        """Write through the session, invalidating cached state.

        The write happens on a separate ``r+`` handle (the resident
        read handle stays read-only so its mmap path never races a
        write), then the read handle is reopened: the on-disk header
        changed (zone maps stripped) and the digest must change too.
        """
        with open_dataset(self.path, mode="r+") as ds:
            ds.write_slab(variable, slab, data)
        self.close()
        self._open()
        self.generation += 1
        self.digest = self._compute_digest()

    def close(self) -> None:
        if self._dataset is not None:
            self._dataset.close()
            self._dataset = None
            self._mapped = False

    def snapshot(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "path": self.path,
            "digest": self.digest,
            "generation": self.generation,
            "mmap": self._mapped,
            "variables": [v.name for v in self.metadata.variables],
            "zone_maps": [z.variable for z in self.metadata.zone_maps],
        }


class SessionRegistry:
    """Name -> :class:`DatasetSession`, with write-through invalidation.

    ``on_invalidate(name)`` (wired to
    :meth:`~repro.service.plancache.PlanCache.invalidate` by the
    service) fires after every :meth:`write_slab`.
    """

    def __init__(self, on_invalidate: Any | None = None) -> None:
        self._lock = threading.Lock()
        self._sessions: dict[str, DatasetSession] = {}
        self._on_invalidate = on_invalidate
        #: Where registered arrays are written, made on first use; the
        #: paths of the array files in it still registered.
        self._dir: str | None = None
        self._arrays: set[str] = set()
        self._files = itertools.count()

    # ------------------------------------------------------------------ #
    def open_file(self, name: str, path: str | os.PathLike) -> DatasetSession:
        return self._register(DatasetSession(name, os.fspath(path)))

    def _register(self, session: DatasetSession) -> DatasetSession:
        """``session`` in place of its name's, whose handle is closed
        and whose array file, if it had one, deleted."""
        with self._lock:
            old = self._sessions.get(session.name)
            self._sessions[session.name] = session
            owned = old is not None and old.path in self._arrays
            if owned:
                self._arrays.discard(old.path)
        if old is not None:
            old.close()
        if owned:
            os.unlink(old.path)
        return session

    def register_array(
        self,
        name: str,
        variable: str,
        data: np.ndarray,
        *,
        tile: tuple[int, ...] | None = None,
        with_zone_map: bool = False,
    ) -> DatasetSession:
        """Register an in-memory array (tests, fuzz harness): written
        to a new NCLite file, which is then opened like
        :meth:`open_file`.

        ``with_zone_map`` builds the array's zone map at registration,
        into the file's header, so prunable queries against the session
        behave like a zone-mapped file; without it the file has none.
        """
        metadata = simple_metadata(
            variable, tuple(data.shape), dtype=dtype_name(data.dtype)
        )
        if with_zone_map:
            metadata = metadata.with_zone_maps(
                (build_zone_map(variable, data, tile_shape=tile),)
            )
        with self._lock:
            if self._dir is None:
                self._dir = tempfile.mkdtemp(prefix="repro-arrays-")
            path = os.path.join(self._dir, f"{next(self._files)}.nc")
            self._arrays.add(path)
        write_nclite(path, metadata, {variable: data}, zone_maps=False)
        return self._register(DatasetSession(name, path))

    def get(self, name: str) -> DatasetSession:
        with self._lock:
            session = self._sessions.get(name)
        if session is None:
            raise UnknownDatasetError(
                f"dataset {name!r} is not registered with the service"
            )
        return session

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._sessions)

    # ------------------------------------------------------------------ #
    def write_slab(
        self, name: str, variable: str, slab: Slab, data: np.ndarray
    ) -> DatasetSession:
        session = self.get(name)
        session.write_slab(variable, slab, data)
        if self._on_invalidate is not None:
            self._on_invalidate(name)
        return session

    def close_all(self) -> None:
        """Close every session and remove the registered arrays' files."""
        with self._lock:
            sessions = list(self._sessions.values())
            self._sessions.clear()
            self._arrays.clear()
            folder, self._dir = self._dir, None
        for s in sessions:
            s.close()
        if folder is not None:
            shutil.rmtree(folder, ignore_errors=True)

    def snapshot(self) -> list[dict[str, Any]]:
        with self._lock:
            sessions = list(self._sessions.values())
        return [s.snapshot() for s in sessions]
