"""Unit tests for simulated job specs and intermediate distributions."""

import pytest

from repro.errors import SimulationError
from repro.query.splits import slice_splits
from repro.sidr.planner import build_plan
from repro.sim.workload import (
    DependencyDistribution,
    ParitySkewDistribution,
    SimJobSpec,
    SimSplit,
    UniformDistribution,
)


def mk_split(i, **kw):
    defaults = dict(read_bytes=100, cells=25, output_bytes=90)
    defaults.update(kw)
    return SimSplit(index=i, **defaults)


class TestUniform:
    def test_shares_sum_to_one(self):
        d = UniformDistribution(4)
        assert sum(d.shares(0).values()) == pytest.approx(1.0)

    def test_share_scalar(self):
        d = UniformDistribution(4)
        assert d.share(0, 2) == 0.25
        assert d.share(0, 9) == 0.0

    def test_producers_all(self):
        d = UniformDistribution(4)
        assert d.producers_of(1, 10) == frozenset(range(10))


class TestParitySkew:
    def test_only_one_parity_receives(self):
        d = ParitySkewDistribution(6)
        s = d.shares(0)
        assert set(s) == {0, 2, 4}
        assert sum(s.values()) == pytest.approx(1.0)

    def test_starved_reducers_have_no_producers(self):
        d = ParitySkewDistribution(6)
        assert d.producers_of(1, 5) == frozenset()
        assert d.producers_of(2, 5) == frozenset(range(5))

    def test_loaded_reducers_get_double(self):
        balanced = UniformDistribution(6)
        skewed = ParitySkewDistribution(6)
        assert skewed.share(0, 0) == pytest.approx(2 * balanced.share(0, 0))

    def test_validation(self):
        with pytest.raises(SimulationError):
            ParitySkewDistribution(1)


class TestDependencyDistribution:
    def test_shares_must_sum_to_one(self):
        with pytest.raises(SimulationError):
            DependencyDistribution([{0: 0.5}], 2)

    def test_out_of_range_reduce(self):
        with pytest.raises(SimulationError):
            DependencyDistribution([{5: 1.0}], 2)

    def test_producers_inverted(self):
        d = DependencyDistribution([{0: 1.0}, {0: 0.5, 1: 0.5}], 2)
        assert d.producers_of(0, 2) == frozenset({0, 1})
        assert d.producers_of(1, 2) == frozenset({1})

    def test_from_sidr_plan_consistent(self, weekly_mean_plan):
        """Shares derived from the plan agree with its dependency map and
        sum to one per map."""
        splits = slice_splits(weekly_mean_plan, num_splits=7)
        plan = build_plan(weekly_mean_plan, splits, 4)
        dist = DependencyDistribution.from_sidr_plan(plan)
        for m in range(7):
            s = dist.shares(m)
            assert set(s) == set(plan.deps.producers[m])
            assert sum(s.values()) == pytest.approx(1.0)
        for l in range(4):
            assert dist.producers_of(l, 7) == plan.deps.dependencies[l]


class TestSimSplit:
    def test_validation(self):
        with pytest.raises(SimulationError):
            mk_split(0, read_bytes=0)
        with pytest.raises(SimulationError):
            mk_split(0, output_bytes=-1)
        with pytest.raises(SimulationError):
            mk_split(0, local_fraction_preferred=1.5)

    def test_locality_lookup(self):
        sp = mk_split(
            0,
            preferred_hosts=("a",),
            local_fraction_preferred=0.9,
            local_fraction_other=0.2,
        )
        assert sp.local_fraction_on("a") == 0.9
        assert sp.local_fraction_on("b") == 0.2


class TestSimJobSpec:
    def test_length_checks(self):
        splits = tuple(mk_split(i) for i in range(3))
        with pytest.raises(SimulationError):
            SimJobSpec(
                name="x",
                splits=splits,
                distribution=UniformDistribution(2),
                reduce_output_bytes=(1,),  # wrong length
            )

    def test_split_index_check(self):
        splits = (mk_split(0), mk_split(5))
        with pytest.raises(SimulationError):
            SimJobSpec(
                name="x",
                splits=splits,
                distribution=UniformDistribution(1),
                reduce_output_bytes=(1,),
            )

    def test_default_weights_uniform(self):
        splits = tuple(mk_split(i) for i in range(2))
        spec = SimJobSpec(
            name="x",
            splits=splits,
            distribution=UniformDistribution(4),
            reduce_output_bytes=(1, 1, 1, 1),
        )
        assert spec.weights() == (0.25, 0.25, 0.25, 0.25)
