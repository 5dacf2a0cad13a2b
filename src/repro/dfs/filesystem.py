"""SimulatedDFS facade.

Bundles topology + namenode and answers the two questions the rest of the
system asks:

* which hosts hold the bytes backing byte range ``[start, start+len)`` of
  a file (split -> replica hosts, for locality-aware scheduling), and
* how local is a given host to those bytes (scheduling preference and the
  simulator's read-cost model).

For coordinate-defined splits (SciHadoop), the query layer converts a
slab to the byte ranges of its row-major runs and asks the same question;
the paper notes that logical-coordinate splits "complicate ... attempts
to create InputSplits with high rates of data locality" (§2.4.1) — that
effect emerges here naturally because a slab can span many blocks.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro.dfs.block import DEFAULT_BLOCK_SIZE, Block
from repro.dfs.namenode import NameNode
from repro.dfs.topology import ClusterTopology, LocalityLevel
from repro.errors import DfsError


@dataclass(frozen=True)
class DfsFile:
    """Handle to a registered file."""

    path: str
    size: int
    block_size: int
    num_blocks: int


class SimulatedDFS:
    """Distributed filesystem model for split generation and simulation."""

    def __init__(
        self,
        *,
        num_hosts: int = 24,
        block_size: int = DEFAULT_BLOCK_SIZE,
        seed: int = 0,
    ) -> None:
        """``num_hosts`` in racks of 8, each block on 3 of them."""
        self.topology = ClusterTopology.uniform(num_hosts, 8)
        self.namenode = NameNode(self.topology, block_size=block_size, seed=seed)

    # ------------------------------------------------------------------ #
    @property
    def block_size(self) -> int:
        return self.namenode.block_size

    @property
    def hosts(self) -> tuple[str, ...]:
        return self.topology.host_names

    def add_file(self, path: str, size: int) -> DfsFile:
        entry = self.namenode.create_file(path, size)
        return DfsFile(
            path=path,
            size=size,
            block_size=entry.block_size,
            num_blocks=len(entry.blocks),
        )

    def file(self, path: str) -> DfsFile:
        entry = self.namenode.file(path)
        return DfsFile(
            path=path,
            size=entry.size,
            block_size=entry.block_size,
            num_blocks=len(entry.blocks),
        )

    def blocks(self, path: str) -> tuple[Block, ...]:
        return self.namenode.file(path).blocks

    # ------------------------------------------------------------------ #
    # Locality queries
    # ------------------------------------------------------------------ #
    def hosts_for_range(self, path: str, start: int, length: int) -> tuple[str, ...]:
        """Hosts ranked by how many bytes of the range they hold locally.

        This mirrors ``FileSystem.getFileBlockLocations`` + the heuristic
        Hadoop's ``FileInputFormat`` uses: a split's preferred hosts are
        those covering most of its bytes.
        """
        weights: Counter[str] = Counter()
        for block in self.namenode.blocks_for_range(path, start, length):
            lo = max(block.offset, start)
            hi = min(block.end, start + length)
            for host in block.replicas:
                weights[host] += hi - lo
        return tuple(h for h, _ in weights.most_common())

    def local_fraction(self, path: str, start: int, length: int, host: str) -> float:
        """Fraction of the byte range with a replica on ``host``."""
        if length <= 0:
            raise DfsError("length must be positive")
        covered = 0
        for block in self.namenode.blocks_for_range(path, start, length):
            if host in block.replicas:
                lo = max(block.offset, start)
                hi = min(block.end, start + length)
                covered += hi - lo
        return covered / length

    def best_locality_for_range(
        self, path: str, start: int, length: int, host: str
    ) -> LocalityLevel:
        """Best locality level of ``host`` to any byte of the range."""
        best = LocalityLevel.OFF_RACK
        for block in self.namenode.blocks_for_range(path, start, length):
            lvl = self.topology.best_locality(host, block.replicas)
            if lvl < best:
                best = lvl
                if best == LocalityLevel.NODE_LOCAL:
                    break
        return best
