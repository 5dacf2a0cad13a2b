"""Unit tests for the simulated HDFS substrate."""

import random

import pytest

from repro.dfs.block import Block, BlockId
from repro.dfs.filesystem import SimulatedDFS
from repro.dfs.namenode import DefaultPlacement, NameNode
from repro.dfs.topology import ClusterTopology, Host, LocalityLevel
from repro.errors import DfsError


class TestTopology:
    def test_uniform(self):
        t = ClusterTopology.uniform(24, hosts_per_rack=8)
        assert len(t) == 24
        assert len(t.racks) == 3

    def test_duplicate_hosts_rejected(self):
        with pytest.raises(DfsError):
            ClusterTopology([Host("a", "r0"), Host("a", "r0")])

    def test_distance(self):
        t = ClusterTopology.uniform(16, hosts_per_rack=8)
        names = t.host_names
        assert t.distance(names[0], names[0]) == LocalityLevel.NODE_LOCAL
        assert t.distance(names[0], names[1]) == LocalityLevel.RACK_LOCAL
        assert t.distance(names[0], names[8]) == LocalityLevel.OFF_RACK

    def test_best_locality(self):
        t = ClusterTopology.uniform(16, hosts_per_rack=8)
        n = t.host_names
        assert t.best_locality(n[0], (n[8], n[0])) == LocalityLevel.NODE_LOCAL
        assert t.best_locality(n[0], ()) == LocalityLevel.OFF_RACK

    def test_unknown_host(self):
        t = ClusterTopology.uniform(4)
        with pytest.raises(DfsError):
            t.host("nope")


class TestBlock:
    def test_validation(self):
        with pytest.raises(DfsError):
            Block(BlockId("/f", 0), 0, 0, ("a",))
        with pytest.raises(DfsError):
            Block(BlockId("/f", 0), 0, 10, ())
        with pytest.raises(DfsError):
            Block(BlockId("/f", 0), 0, 10, ("a", "a"))

    def test_overlaps_range(self):
        b = Block(BlockId("/f", 1), 100, 50, ("a",))
        assert b.overlaps_range(120, 10)
        assert b.overlaps_range(90, 20)
        assert not b.overlaps_range(150, 10)
        assert not b.overlaps_range(0, 100)


class TestPlacement:
    def test_default_policy_shape(self):
        t = ClusterTopology.uniform(24, hosts_per_rack=8)
        rng = random.Random(0)
        for _ in range(50):
            writer = rng.choice(t.host_names)
            replicas = DefaultPlacement().place(t, writer, 3, rng)
            assert len(set(replicas)) == 3
            assert replicas[0] == writer
            # Second replica off the writer's rack; third on its rack.
            assert t.rack_of(replicas[1]) != t.rack_of(replicas[0])
            assert t.rack_of(replicas[2]) == t.rack_of(replicas[1])

    def test_replication_capped_by_cluster(self):
        t = ClusterTopology.uniform(2, hosts_per_rack=1)
        nn = NameNode(t, replication=5)
        entry = nn.create_file("/f", 10)
        assert len(entry.blocks[0].replicas) <= 2


class TestNameNode:
    def test_block_slicing(self):
        t = ClusterTopology.uniform(4)
        nn = NameNode(t, block_size=100)
        entry = nn.create_file("/f", 250)
        assert [b.length for b in entry.blocks] == [100, 100, 50]
        assert [b.offset for b in entry.blocks] == [0, 100, 200]

    def test_duplicate_file(self):
        t = ClusterTopology.uniform(4)
        nn = NameNode(t, block_size=100)
        nn.create_file("/f", 10)
        with pytest.raises(DfsError):
            nn.create_file("/f", 10)

    def test_blocks_for_range(self):
        t = ClusterTopology.uniform(4)
        nn = NameNode(t, block_size=100)
        nn.create_file("/f", 300)
        got = nn.blocks_for_range("/f", 50, 100)
        assert [b.block_id.index for b in got] == [0, 1]

    def test_range_out_of_file(self):
        t = ClusterTopology.uniform(4)
        nn = NameNode(t, block_size=100)
        nn.create_file("/f", 100)
        with pytest.raises(DfsError):
            nn.blocks_for_range("/f", 50, 100)

    def test_deterministic_given_seed(self):
        t = ClusterTopology.uniform(8)
        a = NameNode(t, seed=42).create_file("/f", 1000)
        b = NameNode(t, seed=42).create_file("/f", 1000)
        assert [x.replicas for x in a.blocks] == [x.replicas for x in b.blocks]


class TestSimulatedDFS:
    def test_paper_configuration(self):
        dfs = SimulatedDFS()
        assert len(dfs.hosts) == 24
        assert dfs.block_size == 128 * 1024 * 1024

    def test_hosts_for_range_ranked_by_coverage(self):
        dfs = SimulatedDFS(num_hosts=6, block_size=100, seed=1)
        dfs.add_file("/f", 1000)
        hosts = dfs.hosts_for_range("/f", 0, 500)
        assert hosts  # someone holds the data
        fractions = [dfs.local_fraction("/f", 0, 500, h) for h in hosts]
        assert fractions == sorted(fractions, reverse=True)

    def test_local_fraction_bounds(self):
        dfs = SimulatedDFS(num_hosts=6, block_size=100, seed=1)
        dfs.add_file("/f", 300)
        for h in dfs.hosts:
            f = dfs.local_fraction("/f", 0, 300, h)
            assert 0.0 <= f <= 1.0

    def test_replica_holder_has_full_block_fraction(self):
        dfs = SimulatedDFS(num_hosts=6, block_size=100, seed=2)
        dfs.add_file("/f", 100)
        block = dfs.blocks("/f")[0]
        assert dfs.local_fraction("/f", 0, 100, block.replicas[0]) == 1.0

    def test_best_locality_for_range(self):
        dfs = SimulatedDFS(num_hosts=6, block_size=100, seed=3)
        dfs.add_file("/f", 100)
        block = dfs.blocks("/f")[0]
        lvl = dfs.best_locality_for_range("/f", 0, 100, block.replicas[0])
        assert lvl == LocalityLevel.NODE_LOCAL

    def test_file_lookup(self):
        dfs = SimulatedDFS(num_hosts=4, block_size=100)
        dfs.add_file("/f", 250)
        f = dfs.file("/f")
        assert f.num_blocks == 3
        with pytest.raises(DfsError):
            dfs.file("/nope")
