"""Input splits.

Stock Hadoop defines a split as "byte-ranges in one or more files" (§2.3)
— :class:`ByteRangeSplit`.  SciHadoop's coordinate-defined splits live in
:mod:`repro.query.splits`; both satisfy the :class:`InputSplit` protocol
so the engine and scheduler treat them uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, runtime_checkable

from repro.dfs.filesystem import SimulatedDFS
from repro.errors import JobConfigError


@runtime_checkable
class InputSplit(Protocol):
    """Minimal contract every split type provides."""

    @property
    def index(self) -> int:
        """Position in the job's split list (== map task id)."""
        ...

    @property
    def preferred_hosts(self) -> tuple[str, ...]:
        """Hosts holding replicas of this split's data, best first."""
        ...

    @property
    def length_bytes(self) -> int:
        """Physical bytes this split reads (cost model input)."""
        ...


@dataclass(frozen=True)
class ByteRangeSplit:
    """Hadoop's default split: a byte range within one file."""

    index: int
    path: str
    start: int
    length: int
    preferred_hosts: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.start < 0 or self.length <= 0:
            raise JobConfigError(
                f"invalid byte range [{self.start}, {self.start + self.length})"
            )

    @property
    def length_bytes(self) -> int:
        return self.length

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.path}[{self.start}:{self.start + self.length}]"


def generate_byte_splits(dfs: SimulatedDFS, path: str) -> list[ByteRangeSplit]:
    """FileInputFormat-style split generation: one split per block,
    preferred hosts from the block's replicas."""
    f = dfs.file(path)
    size = f.block_size
    splits: list[ByteRangeSplit] = []
    offset = 0
    idx = 0
    while offset < f.size:
        length = min(size, f.size - offset)
        hosts = dfs.hosts_for_range(path, offset, length)
        splits.append(
            ByteRangeSplit(
                index=idx,
                path=path,
                start=offset,
                length=length,
                preferred_hosts=hosts[:3],
            )
        )
        offset += length
        idx += 1
    return splits
