"""Content-keyed plan cache.

SIDR's planning artifacts — partition+ keyspaces, keyblock partitions,
dependency maps ``I_l``, pruning decisions — are pure functions of
(dataset content, canonical query), so the cache key is
``(dataset name, dataset digest, plan key)``:

* the *digest* (see :class:`~repro.service.sessions.DatasetSession`)
  covers metadata, file identity, and a write generation counter, so a
  ``write_slab`` through the service changes the digest and strands
  every stale entry (LRU evicts them eventually);
* :meth:`~repro.service.sessions.SessionRegistry.write_slab` *also*
  calls :meth:`PlanCache.invalidate` with the dataset name, dropping
  stale entries eagerly — belt and braces, and it keeps the hit-rate
  statistics honest.

A hit returns the cached :class:`~repro.sidr.planner.SIDRPlan` object
itself, beside the bytes it pickled to at insert: plans are
frozen/immutable, and the per-submission ``configure_job`` step builds
fresh ``JobConf``/barrier state from it, so sharing one plan across
concurrent jobs (and across engine modes) is safe by construction.  A
service plan arrives complete — every split's map geometry (its slab
reads and zones, O(splits × zones), no per-key array) computed — so a
hit skips that work too, and its bytes are what every part of the job
is sent with (:class:`~repro.service.engine_process.Run`): a warm
request pickles nothing.

The cache is bounded twice: at most ``capacity`` entries and at most
:data:`MAX_BYTES` of pickled plans, counted as the ``len`` of the
bytes it keeps; past either, the least recently used plans go.  A plan
larger than the whole byte budget is still returned, pickled once, to
the job that built it, just not kept: the cache refuses it and evicts
nothing for it.

Concurrent misses on the same key may build the plan twice; both builds
are identical (pure function), the second insert wins, and nothing
blocks other keys — simpler and safer than per-key build locks.
"""

from __future__ import annotations

import pickle
import threading
from collections import OrderedDict
from collections.abc import Callable
from typing import Any, NamedTuple

from repro.sidr.planner import SIDRPlan

CacheKey = tuple[str, str, str]  # (dataset name, dataset digest, plan key)

#: Pickled plan bytes the cache keeps at most (``fine_mean``'s plan is
#: a few KB).
MAX_BYTES = 64 << 20


class Cached(NamedTuple):
    """A plan and the bytes it pickled to when it was inserted."""

    plan: Any
    data: bytes


class PlanCache:
    """LRU cache of ``(dataset name, digest, canonical query) -> SIDRPlan``
    and its pickled bytes, bounded by entry count and by :data:`MAX_BYTES`."""

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ValueError(f"plan cache capacity must be >= 1, got {capacity}")
        self._capacity = capacity
        self._lock = threading.Lock()
        self._entries: OrderedDict[CacheKey, Cached] = OrderedDict()
        self._bytes = 0
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._invalidations = 0

    # ------------------------------------------------------------------ #
    def lookup(self, key: CacheKey) -> Cached | None:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            return entry

    def insert(self, key: CacheKey, plan: Any) -> Cached:
        """Pickle ``plan`` and keep it under ``key``, evicting the least
        recently used entries past either bound; a plan over the whole
        byte budget is refused and evicts nothing.  Either way, the
        plan and its bytes."""
        entry = Cached(plan, pickle.dumps(plan))
        if len(entry.data) > MAX_BYTES:
            return entry
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self._bytes -= len(old.data)
            self._entries[key] = entry
            self._bytes += len(entry.data)
            while self._entries and (
                len(self._entries) > self._capacity or self._bytes > MAX_BYTES
            ):
                _, evicted = self._entries.popitem(last=False)
                self._bytes -= len(evicted.data)
                self._evictions += 1
        return entry

    def get_or_build(
        self,
        dataset: str,
        digest: str,
        plan_key: str,
        builder: Callable[[], SIDRPlan],
    ) -> tuple[Cached, bool]:
        """Return ``(entry, hit)``; on a miss, build and insert."""
        key = (dataset, digest, plan_key)
        entry = self.lookup(key)
        if entry is not None:
            return entry, True
        return self.insert(key, builder()), False

    def invalidate(self, dataset: str) -> int:
        """Drop every cached plan for ``dataset``; returns the count."""
        with self._lock:
            stale = [k for k in self._entries if k[0] == dataset]
            for k in stale:
                self._bytes -= len(self._entries.pop(k).data)
            self._invalidations += len(stale)
            return len(stale)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._bytes = 0

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def snapshot(self) -> dict[str, Any]:
        with self._lock:
            total = self._hits + self._misses
            return {
                "size": len(self._entries),
                "capacity": self._capacity,
                "bytes": self._bytes,
                "hits": self._hits,
                "misses": self._misses,
                "hit_rate": (self._hits / total) if total else 0.0,
                "evictions": self._evictions,
                "invalidations": self._invalidations,
            }
