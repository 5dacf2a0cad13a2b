"""Simulated HDFS substrate.

The paper's cluster stores datasets in HDFS with 128 MB blocks and 3x
replication (§4 experimental setup).  What the rest of the system needs
from HDFS is *locality*: which hosts hold replicas of the bytes backing a
given logical region, so that split generation and the scheduler's
locality tree (§3.3) can place map tasks near their data.

* :mod:`repro.dfs.topology` — hosts, racks and the locality-level tree
  (node-local / rack-local / off-rack) Hadoop's scheduler crawls.
* :mod:`repro.dfs.block` — block identity and replica placement.
* :mod:`repro.dfs.namenode` — namespace plus the default Hadoop placement
  policy (writer-local, remote rack, same remote rack).
* :mod:`repro.dfs.filesystem` — :class:`SimulatedDFS` facade: register a
  file of N bytes, query byte-range -> replica hosts.
"""

from repro.dfs.topology import ClusterTopology, Host, LocalityLevel, Rack
from repro.dfs.block import Block, BlockId
from repro.dfs.namenode import NameNode, DefaultPlacement
from repro.dfs.filesystem import DfsFile, SimulatedDFS

__all__ = [
    "ClusterTopology",
    "Host",
    "LocalityLevel",
    "Rack",
    "Block",
    "BlockId",
    "NameNode",
    "DefaultPlacement",
    "DfsFile",
    "SimulatedDFS",
]
