"""Simulated cluster: nodes, slots, topology.

Mirrors the paper's testbed (§4): 24 worker nodes, each a
DataNode/TaskTracker with 4 map slots and 3 reduce slots, single gigabit
link, three data disks.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dfs.topology import ClusterTopology
from repro.errors import SchedulerError


@dataclass(frozen=True)
class ClusterConfig:
    """Static cluster parameters (paper defaults)."""

    num_nodes: int = 24
    map_slots_per_node: int = 4
    reduce_slots_per_node: int = 3
    hosts_per_rack: int = 8

    def __post_init__(self) -> None:
        if self.num_nodes <= 0:
            raise SchedulerError("num_nodes must be positive")
        if self.map_slots_per_node <= 0 or self.reduce_slots_per_node <= 0:
            raise SchedulerError("slot counts must be positive")

    @property
    def total_map_slots(self) -> int:
        return self.num_nodes * self.map_slots_per_node

    @property
    def total_reduce_slots(self) -> int:
        return self.num_nodes * self.reduce_slots_per_node

    def topology(self) -> ClusterTopology:
        return ClusterTopology.uniform(self.num_nodes, self.hosts_per_rack)


@dataclass
class _NodeState:
    name: str
    free_map_slots: int
    free_reduce_slots: int


class SimCluster:
    """Mutable slot state during a simulation run."""

    def __init__(self, config: ClusterConfig) -> None:
        self.config = config
        self.topology = config.topology()
        self._nodes: dict[str, _NodeState] = {
            h: _NodeState(
                h, config.map_slots_per_node, config.reduce_slots_per_node
            )
            for h in self.topology.host_names
        }

    @property
    def host_names(self) -> tuple[str, ...]:
        return self.topology.host_names

    # ------------------------------------------------------------------ #
    # Slot accounting — violations raise, they never silently saturate.
    # ------------------------------------------------------------------ #
    def acquire_map_slot(self, host: str) -> None:
        node = self._nodes[host]
        if node.free_map_slots <= 0:
            raise SchedulerError(f"no free map slot on {host}")
        node.free_map_slots -= 1

    def release_map_slot(self, host: str) -> None:
        node = self._nodes[host]
        if node.free_map_slots >= self.config.map_slots_per_node:
            raise SchedulerError(f"map slot over-release on {host}")
        node.free_map_slots += 1

    def acquire_reduce_slot(self, host: str) -> None:
        node = self._nodes[host]
        if node.free_reduce_slots <= 0:
            raise SchedulerError(f"no free reduce slot on {host}")
        node.free_reduce_slots -= 1

    def release_reduce_slot(self, host: str) -> None:
        node = self._nodes[host]
        if node.free_reduce_slots >= self.config.reduce_slots_per_node:
            raise SchedulerError(f"reduce slot over-release on {host}")
        node.free_reduce_slots += 1

    def hosts_with_free_map_slots(self) -> list[str]:
        return [h for h, n in self._nodes.items() if n.free_map_slots > 0]

    def hosts_with_free_reduce_slots(self) -> list[str]:
        return [h for h, n in self._nodes.items() if n.free_reduce_slots > 0]

    def free_map_slots(self, host: str) -> int:
        return self._nodes[host].free_map_slots

    def free_reduce_slots(self, host: str) -> int:
        return self._nodes[host].free_reduce_slots

    def total_free_map_slots(self) -> int:
        return sum(n.free_map_slots for n in self._nodes.values())
