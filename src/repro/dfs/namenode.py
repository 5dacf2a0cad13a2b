"""NameNode: namespace and block placement.

Implements HDFS's default placement policy for the 3-replica case: first
replica on the writer's host, second on a host in a *different* rack,
third on a different host in the second replica's rack.  Placement is
deterministic given the namenode's seed so experiments are repeatable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.dfs.block import DEFAULT_BLOCK_SIZE, Block, BlockId
from repro.dfs.topology import ClusterTopology
from repro.errors import DfsError


class DefaultPlacement:
    """HDFS default: writer-local, remote rack, same remote rack, then
    random distinct hosts for replication > 3."""

    def place(
        self,
        topology: ClusterTopology,
        writer: str,
        replication: int,
        rng: random.Random,
    ) -> tuple[str, ...]:
        if replication <= 0:
            raise DfsError("replication must be positive")
        all_hosts = list(topology.host_names)
        if replication > len(all_hosts):
            raise DfsError(
                f"replication {replication} exceeds cluster size {len(all_hosts)}"
            )
        chosen: list[str] = [writer if writer in all_hosts else rng.choice(all_hosts)]
        if replication >= 2:
            writer_rack = topology.rack_of(chosen[0])
            remote = [h for h in all_hosts if topology.rack_of(h) != writer_rack]
            # Single-rack clusters degrade gracefully to any-other-host.
            pool = remote or [h for h in all_hosts if h not in chosen]
            if pool:
                chosen.append(rng.choice(pool))
        if replication >= 3 and len(chosen) == 2:
            second_rack = topology.rack_of(chosen[1])
            same_rack = [
                h.name
                for h in topology.rack_hosts(second_rack)
                if h.name not in chosen
            ]
            pool = same_rack or [h for h in all_hosts if h not in chosen]
            if pool:
                chosen.append(rng.choice(pool))
        while len(chosen) < replication:
            pool = [h for h in all_hosts if h not in chosen]
            if not pool:
                break
            chosen.append(rng.choice(pool))
        return tuple(chosen)


@dataclass
class FileEntry:
    """Namespace record for one file."""

    path: str
    size: int
    block_size: int
    blocks: tuple[Block, ...]


class NameNode:
    """Namespace plus placement.  Files are registered with a byte size;
    the namenode slices them into blocks and places replicas."""

    def __init__(
        self,
        topology: ClusterTopology,
        *,
        replication: int = 3,
        block_size: int = DEFAULT_BLOCK_SIZE,
        seed: int = 0,
    ) -> None:
        if replication <= 0:
            raise DfsError("replication must be positive")
        if block_size <= 0:
            raise DfsError("block size must be positive")
        self.topology = topology
        self.replication = min(replication, len(topology))
        self.block_size = block_size
        self._rng = random.Random(seed)
        self._files: dict[str, FileEntry] = {}

    def create_file(self, path: str, size: int) -> FileEntry:
        """Register a file and place its blocks.

        Each block's writer is a host drawn at random, the steady state
        of a distributed ingest where many clients write.
        """
        if path in self._files:
            raise DfsError(f"file {path!r} already exists")
        if size <= 0:
            raise DfsError("file size must be positive")
        bs = self.block_size
        blocks: list[Block] = []
        hosts = self.topology.host_names
        offset = 0
        idx = 0
        while offset < size:
            length = min(bs, size - offset)
            w = hosts[self._rng.randrange(len(hosts))]
            replicas = DefaultPlacement().place(
                self.topology, w, self.replication, self._rng
            )
            blocks.append(
                Block(
                    block_id=BlockId(path, idx),
                    offset=offset,
                    length=length,
                    replicas=replicas,
                )
            )
            offset += length
            idx += 1
        entry = FileEntry(path=path, size=size, block_size=bs, blocks=tuple(blocks))
        self._files[path] = entry
        return entry

    def file(self, path: str) -> FileEntry:
        try:
            return self._files[path]
        except KeyError:
            raise DfsError(f"no such file {path!r}") from None

    def exists(self, path: str) -> bool:
        return path in self._files

    def blocks_for_range(self, path: str, start: int, length: int) -> tuple[Block, ...]:
        """Blocks overlapping the byte range [start, start+length)."""
        entry = self.file(path)
        if start < 0 or length < 0 or start + length > entry.size:
            raise DfsError(
                f"range [{start}, {start + length}) outside file of size "
                f"{entry.size}"
            )
        return tuple(b for b in entry.blocks if b.overlaps_range(start, length))
