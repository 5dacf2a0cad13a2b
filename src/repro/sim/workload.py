"""Simulated job specifications.

A :class:`SimJobSpec` is the simulator's view of a query: per-split read
volumes and localities, per-map intermediate output volume, and an
:class:`IntermediateDistribution` describing how each map's output
divides among reduce tasks.  The distribution is where the three systems
differ:

* :class:`UniformDistribution` — Hadoop/SciHadoop's hash partitioner in
  the well-behaved case: every map feeds every reduce ~equally (the
  all-to-all pattern of Figure 5a).
* :class:`ParitySkewDistribution` — §4.3's pathology: patterned binary
  keys hash to one parity class, so half the reduce tasks get nothing
  and the others get double.
* :class:`DependencyDistribution` — SIDR: map ``i`` feeds only the
  keyblocks its split's K' image overlaps, with volume proportional to
  the overlap (Figure 5b); built directly from a
  :class:`repro.sidr.planner.SIDRPlan`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Sequence
from dataclasses import dataclass

from repro.errors import SimulationError


class IntermediateDistribution(ABC):
    """How one map task's intermediate output divides among reduces."""

    @abstractmethod
    def shares(self, map_index: int) -> dict[int, float]:
        """Map ``map_index``'s output fractions per reduce (sum to 1)."""

    @abstractmethod
    def num_reduces(self) -> int: ...

    def share(self, map_index: int, reduce_index: int) -> float:
        """Scalar fraction of map ``map_index``'s output going to reduce
        ``reduce_index``.  Subclasses override with O(1) forms — the
        simulator calls this per (producer, reduce) pair."""
        return self.shares(map_index).get(reduce_index, 0.0)

    def producers_of(self, reduce_index: int, num_maps: int) -> frozenset[int]:
        """Maps producing data for ``reduce_index`` (derived; subclasses
        with structure override with something cheaper)."""
        return frozenset(
            m for m in range(num_maps) if self.shares(m).get(reduce_index, 0.0) > 0
        )


class UniformDistribution(IntermediateDistribution):
    """Every map sends 1/r of its output to each reduce."""

    def __init__(self, r: int) -> None:
        if r <= 0:
            raise SimulationError("r must be positive")
        self._r = r

    def num_reduces(self) -> int:
        return self._r

    def shares(self, map_index: int) -> dict[int, float]:
        s = 1.0 / self._r
        return {l: s for l in range(self._r)}

    def share(self, map_index: int, reduce_index: int) -> float:
        return 1.0 / self._r if 0 <= reduce_index < self._r else 0.0

    def producers_of(self, reduce_index: int, num_maps: int) -> frozenset[int]:
        return frozenset(range(num_maps))


class ParitySkewDistribution(IntermediateDistribution):
    """Only the even reduces receive data (§4.3's observed case:
    "all odd-numbered Reduce tasks being assigned no data ... while their
    even-numbered counterparts receive twice as much")."""

    def __init__(self, r: int) -> None:
        if r <= 1:
            raise SimulationError("parity skew needs at least 2 reduces")
        self._r = r
        self._receivers = list(range(0, r, 2))

    def num_reduces(self) -> int:
        return self._r

    def shares(self, map_index: int) -> dict[int, float]:
        s = 1.0 / len(self._receivers)
        return {l: s for l in self._receivers}

    def share(self, map_index: int, reduce_index: int) -> float:
        if reduce_index % 2 == self._receivers[0] % 2:
            return 1.0 / len(self._receivers)
        return 0.0

    def producers_of(self, reduce_index: int, num_maps: int) -> frozenset[int]:
        if reduce_index % 2 == self._receivers[0] % 2:
            return frozenset(range(num_maps))
        return frozenset()


class DependencyDistribution(IntermediateDistribution):
    """Structure-derived shares: map -> {keyblock: fraction}."""

    def __init__(self, shares_by_map: Sequence[dict[int, float]], r: int) -> None:
        self._shares = [dict(s) for s in shares_by_map]
        self._r = r
        self._producers: list[set[int]] = [set() for _ in range(r)]
        for m, s in enumerate(self._shares):
            total = sum(s.values())
            if s and abs(total - 1.0) > 1e-6:
                raise SimulationError(
                    f"map {m} shares sum to {total}, expected 1"
                )
            for l in s:
                if not (0 <= l < r):
                    raise SimulationError(f"share references reduce {l} of {r}")
                self._producers[l].add(m)

    @classmethod
    def from_sidr_plan(cls, plan: "object") -> "DependencyDistribution":
        """Build from a :class:`repro.sidr.planner.SIDRPlan`: map ``i``'s
        share to keyblock ``l`` is proportional to the number of K' keys
        of ``l`` whose instances draw cells from split ``i``."""
        from repro.sidr.planner import SIDRPlan

        assert isinstance(plan, SIDRPlan)
        qp = plan.query_plan
        shares: list[dict[int, float]] = []
        for sp in plan.splits:
            weights: dict[int, float] = {}
            for slab in sp.slabs:
                work = slab.intersect(qp.covered)
                if work.is_empty:
                    continue
                image = qp.image_of(work)
                for l in plan.deps.producers[sp.index]:
                    for kslab in plan.partition.blocks[l].slabs:
                        ov = kslab.intersect(image)
                        if not ov.is_empty:
                            weights[l] = weights.get(l, 0.0) + ov.volume
            total = sum(weights.values())
            if total > 0:
                weights = {l: w / total for l, w in weights.items()}
            shares.append(weights)
        return cls(shares, plan.partition.num_blocks)

    def num_reduces(self) -> int:
        return self._r

    def shares(self, map_index: int) -> dict[int, float]:
        return self._shares[map_index]

    def share(self, map_index: int, reduce_index: int) -> float:
        return self._shares[map_index].get(reduce_index, 0.0)

    def producers_of(self, reduce_index: int, num_maps: int) -> frozenset[int]:
        return frozenset(self._producers[reduce_index])


@dataclass(frozen=True)
class SimSplit:
    """One map task's input in the simulator's cost terms."""

    index: int
    read_bytes: int
    cells: int
    output_bytes: int
    preferred_hosts: tuple[str, ...] = ()
    #: Fraction of the split's bytes that are node-local when scheduled on
    #: a preferred host / any other host.  The Hadoop baseline weakens the
    #: preferred figure to model structure-oblivious reads (§2.4.1).
    local_fraction_preferred: float = 1.0
    local_fraction_other: float = 0.0

    def __post_init__(self) -> None:
        if self.read_bytes <= 0 or self.cells <= 0:
            raise SimulationError(f"split {self.index}: empty input")
        if self.output_bytes < 0:
            raise SimulationError(f"split {self.index}: negative output")
        for f in (self.local_fraction_preferred, self.local_fraction_other):
            if not (0.0 <= f <= 1.0):
                raise SimulationError(f"split {self.index}: bad locality {f}")

    def local_fraction_on(self, host: str) -> float:
        return (
            self.local_fraction_preferred
            if host in self.preferred_hosts
            else self.local_fraction_other
        )


@dataclass(frozen=True)
class SimJobSpec:
    """Complete simulated-job description."""

    name: str
    splits: tuple[SimSplit, ...]
    distribution: IntermediateDistribution
    #: Bytes each reduce task writes as final output.
    reduce_output_bytes: tuple[int, ...]
    #: SIDR's contiguous writes are dense; hash-partitioned scientific
    #: output is sparse (§4.4).
    dense_output: bool = True
    #: Output-fraction weight per reduce task for completion curves; when
    #: None, reduce tasks weigh equally.
    reduce_weights: tuple[float, ...] | None = None
    #: Scheduling priority per keyblock (lower first; SIDR mode only).
    priorities: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        r = self.distribution.num_reduces()
        if len(self.reduce_output_bytes) != r:
            raise SimulationError("reduce_output_bytes length != reduce count")
        if self.reduce_weights is not None and len(self.reduce_weights) != r:
            raise SimulationError("reduce_weights length != reduce count")
        if self.priorities is not None and len(self.priorities) != r:
            raise SimulationError("priorities length != reduce count")
        for i, sp in enumerate(self.splits):
            if sp.index != i:
                raise SimulationError("split indexes must be consecutive")

    @property
    def num_maps(self) -> int:
        return len(self.splits)

    @property
    def num_reduces(self) -> int:
        return self.distribution.num_reduces()

    def weights(self) -> tuple[float, ...]:
        if self.reduce_weights is not None:
            return self.reduce_weights
        r = self.num_reduces
        return tuple(1.0 / r for _ in range(r))
