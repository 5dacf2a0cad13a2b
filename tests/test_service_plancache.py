"""Plan-cache correctness for the resident query service.

Property-based core (Hypothesis): for *arbitrary* dataset geometry,
zone-map tiling, and query draws, a plan-cache **hit** serves a result
byte-identical to the cold-planned run and to the brute-force oracle.
Plus the invalidation contract — ``write_slab`` drops cached plans and
zone maps, and re-served results reflect the new bytes — and the keying
contract: plan-affecting knobs get distinct entries while
per-submission knobs (engine, speculation) share one.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scidata.dataset import create_dataset
from repro.service import plancache
from repro.service import (
    PlanCache,
    QueryRequest,
    QueryService,
    oracle_for_request,
    service_fixture,
)
from repro.service.api import DONE
from repro.service.engine_process import EngineConfig, run_job
from repro.service.service import build_served_plan
from tests.test_plan_cold import _grid


def int_field(seed, shape):
    rng = np.random.default_rng(seed)
    return rng.integers(-30, 30, size=shape, endpoint=True).astype(np.float64)


# --------------------------------------------------------------------- #
# PlanCache unit behaviour
# --------------------------------------------------------------------- #
class Pickles:
    """A stand-in plan that counts how often it is pickled."""

    count = 0

    def __init__(self, pad: int) -> None:
        self.pad = "x" * pad

    def __getstate__(self):
        Pickles.count += 1
        return self.__dict__


class TestPlanCacheUnit:
    def test_lru_eviction_and_stats(self):
        cache = PlanCache(capacity=2)
        cache.insert(("d", "g1", "q1"), "plan1")
        cache.insert(("d", "g1", "q2"), "plan2")
        assert cache.lookup(("d", "g1", "q1")).plan == "plan1"  # refresh q1
        cache.insert(("d", "g1", "q3"), "plan3")                # evicts q2
        assert cache.lookup(("d", "g1", "q2")) is None
        assert cache.lookup(("d", "g1", "q1")).plan == "plan1"
        snap = cache.snapshot()
        assert snap["size"] == 2
        assert snap["evictions"] == 1
        assert snap["hits"] == 2 and snap["misses"] == 1

    def test_invalidate_drops_only_that_dataset(self):
        cache = PlanCache()
        cache.insert(("a", "g", "q"), 1)
        cache.insert(("b", "g", "q"), 2)
        assert cache.invalidate("a") == 1
        assert cache.lookup(("a", "g", "q")) is None
        assert cache.lookup(("b", "g", "q")).plan == 2

    def test_digest_change_is_a_miss(self):
        cache = PlanCache()
        cache.insert(("d", "gen0", "q"), 1)
        assert cache.lookup(("d", "gen1", "q")) is None

    def test_get_or_build_builds_once_then_hits(self):
        cache = PlanCache()
        calls = []
        entry, hit = cache.get_or_build("d", "g", "q", lambda: calls.append(1) or "p")
        assert (entry, hit) == (("p", pickle.dumps("p")), False)
        again, hit = cache.get_or_build("d", "g", "q", lambda: calls.append(1) or "p")
        assert (again, hit) == (entry, True)
        assert again.data is entry.data  # a hit pickles nothing
        assert len(calls) == 1

    def test_eviction_by_bytes(self, monkeypatch):
        """Plans carry map geometry: past ``MAX_BYTES`` of pickled bytes
        the least recently used go, however few entries there are."""
        plans = {q: f"plan-{q}" for q in ("q1", "q2", "q3")}
        size = len(pickle.dumps(plans["q1"]))
        monkeypatch.setattr(plancache, "MAX_BYTES", 2 * size + size // 2)
        cache = PlanCache(capacity=10)
        cache.insert(("d", "g", "q1"), plans["q1"])
        cache.insert(("d", "g", "q2"), plans["q2"])
        assert cache.snapshot()["bytes"] == 2 * size
        assert cache.lookup(("d", "g", "q1")).plan is plans["q1"]  # refresh q1
        cache.insert(("d", "g", "q3"), plans["q3"])                 # evicts q2
        assert cache.lookup(("d", "g", "q2")) is None
        snap = cache.snapshot()
        assert (snap["size"], snap["bytes"], snap["evictions"]) == (2, 2 * size, 1)
        # re-inserting a key replaces its bytes, not adds to them
        cache.insert(("d", "g", "q3"), "p")
        assert cache.snapshot()["bytes"] == size + len(pickle.dumps("p"))
        assert cache.invalidate("d") == 2
        assert cache.snapshot()["bytes"] == 0

    def test_plan_larger_than_the_budget_is_still_served(self, monkeypatch):
        """Refused, but pickled once for the job that built it: its
        bytes come back with it."""
        monkeypatch.setattr(plancache, "MAX_BYTES", 100)
        cache = PlanCache()
        cache.insert(("d", "g", "small"), "s")
        big = Pickles(200)
        before = Pickles.count
        entry, hit = cache.get_or_build("d", "g", "big", lambda: big)
        assert (entry.plan, hit) == (big, False)
        assert Pickles.count == before + 1
        assert pickle.loads(entry.data).pad == big.pad
        snap = cache.snapshot()
        assert (snap["size"], snap["bytes"]) == (1, len(pickle.dumps("s")))
        entry, hit = cache.get_or_build("d", "g", "big", lambda: big)
        assert (entry.plan, hit) == (big, False)

    def test_an_oversized_plan_evicts_nothing(self, monkeypatch):
        """A plan over the whole byte budget is refused, not kept at
        the cost of every other entry."""
        small = {f"q{i}": f"p{i}" for i in range(5)}
        size = len(pickle.dumps("p0"))
        monkeypatch.setattr(plancache, "MAX_BYTES", 5 * size + 10)
        cache = PlanCache(capacity=10)
        for q, plan in small.items():
            cache.insert(("d", "g", q), plan)
        big = "b" * (5 * size + 10)
        cache.insert(("d", "g", "big"), big)
        snap = cache.snapshot()
        assert (snap["size"], snap["bytes"], snap["evictions"]) == (5, 5 * size, 0)
        for q, plan in small.items():
            assert cache.lookup(("d", "g", q)).plan is plan
        entry, hit = cache.get_or_build("d", "g", "big", lambda: big)
        assert (entry.plan, hit) == (big, False)
        assert len(cache) == 5


# --------------------------------------------------------------------- #
# Property: hit == cold == oracle, for arbitrary draws
# --------------------------------------------------------------------- #
@st.composite
def service_case(draw):
    shape = (
        draw(st.integers(min_value=2, max_value=12)),
        draw(st.integers(min_value=2, max_value=10)),
    )
    extract = (
        draw(st.integers(min_value=1, max_value=shape[0])),
        draw(st.integers(min_value=1, max_value=shape[1])),
    )
    operator = draw(st.sampled_from(["mean", "sum", "max", "count", "filter_gt"]))
    threshold = (
        draw(st.integers(min_value=-20, max_value=20)) * 1.0
        if operator == "filter_gt" else None
    )
    # pruning only for the prunable operator (mirrors the fuzz matrix)
    prune = operator == "filter_gt" and draw(st.booleans())
    tile = (
        draw(st.integers(min_value=1, max_value=shape[0])),
        draw(st.integers(min_value=1, max_value=shape[1])),
    )
    splits = draw(st.integers(min_value=1, max_value=6))
    # reducers may not outnumber intermediate keys (extraction cells)
    cells = (shape[0] // extract[0]) * (shape[1] // extract[1])
    reduces = min(draw(st.integers(min_value=1, max_value=2)), cells)
    seed = draw(st.integers(min_value=0, max_value=2**16))
    return dict(
        shape=shape, extract=extract, operator=operator, threshold=threshold,
        prune=prune, tile=tile, splits=splits, reduces=reduces, seed=seed,
    )


class TestHitEqualsCold:
    @settings(max_examples=20)
    @given(case=service_case())
    def test_cache_hit_is_byte_identical_to_cold_plan_and_oracle(self, case):
        data = int_field(case["seed"], case["shape"])
        with service_fixture(workers=1, map_workers=2, reduce_workers=2) as client:
            client.service.register_array(
                "d", "v", data, tile=case["tile"], with_zone_map=True
            )
            req = QueryRequest(
                dataset="d", variable="v",
                extract=case["extract"], operator=case["operator"],
                threshold=case["threshold"], splits=case["splits"],
                reduces=case["reduces"], prune=case["prune"],
                engine="serial",
            )
            _, oracle_digest = oracle_for_request(client.service, req)
            cold = client.query(req)
            hot = client.query(req)
            # the cached plan's map geometry serves a second run too
            again = client.query(req)
            assert cold["state"] == DONE, cold.get("error")
            assert cold["plan_cache_hit"] is False
            assert hot["plan_cache_hit"] is again["plan_cache_hit"] is True
            assert cold["digest"] == oracle_digest
            assert hot["digest"] == again["digest"] == oracle_digest
            assert hot["records"] == again["records"] == cold["records"]


# --------------------------------------------------------------------- #
# Invalidation: write_slab drops plans AND zone maps
# --------------------------------------------------------------------- #
class TestWriteSlabInvalidation:
    @pytest.fixture()
    def file_service(self, tmp_path):
        path = tmp_path / "d.nclite"
        create_dataset(path, var_name="v", data=int_field(1, (12, 10))).close()
        with QueryService(workers=1, map_workers=2, reduce_workers=2) as svc:
            svc.open_dataset("d", str(path))
            yield svc

    def req(self, **kw):
        base = dict(
            dataset="d", variable="v", extract=(4, 5),
            operator="filter_gt", threshold=0.0,
            splits=4, reduces=2, prune=True, engine="serial",
        )
        base.update(kw)
        return QueryRequest(**base)

    def test_write_slab_invalidates_plans_and_results_track_new_bytes(
        self, file_service
    ):
        svc = file_service
        req = self.req()
        before = svc.result(svc.submit(req), timeout=60)
        assert before["state"] == DONE
        assert svc.result(svc.submit(req), timeout=60)["plan_cache_hit"] is True
        old_digest = svc.registry.get("d").digest
        assert len(svc.plan_cache) == 1

        # overwrite a slab through the service: zone maps strip, the
        # session reopens under a new content digest, plans drop
        svc.write_slab("d", "v", (0, 0), np.full((4, 5), 99.0))
        assert len(svc.plan_cache) == 0
        assert svc.plan_cache.snapshot()["invalidations"] >= 1
        session = svc.registry.get("d")
        assert session.digest != old_digest
        assert session.metadata.zone_maps == ()

        after = svc.result(svc.submit(req), timeout=60)
        assert after["state"] == DONE
        assert after["plan_cache_hit"] is False
        assert after["digest"] != before["digest"]
        # and the served bytes equal the fresh oracle over the new data
        _, oracle_digest = oracle_for_request(svc, req)
        assert after["digest"] == oracle_digest
        # the written region is really visible: cell (0,0) is exactly
        # the overwritten (4,5) slab, and 99 > 0 passes the filter
        values = {tuple(k): v for k, v in after["records"]}
        assert values[(0, 0)] == [99.0] * 20

    def test_unrelated_dataset_keeps_its_cached_plans(self, file_service):
        svc = file_service
        svc.register_array("other", "v", int_field(2, (8, 5)))
        other = QueryRequest(
            dataset="other", variable="v", extract=(4, 5),
            splits=2, reduces=1, prune=False, engine="serial",
        )
        svc.result(svc.submit(other), timeout=60)
        svc.result(svc.submit(self.req()), timeout=60)
        assert len(svc.plan_cache) == 2
        svc.write_slab("d", "v", (0, 0), np.zeros((2, 2)))
        assert len(svc.plan_cache) == 1  # only dataset "d" dropped
        assert svc.result(svc.submit(other), timeout=60)[
            "plan_cache_hit"
        ] is True


class TestBoundedByBytes:
    def _request(self, **kw):
        return QueryRequest(
            dataset="d", variable="v", extract=(4, 5),
            splits=3, reduces=2, prune=False, engine="serial", **kw,
        )

    def test_stats_report_the_cached_geometry_bytes(self):
        with service_fixture(workers=1) as client:
            client.service.register_array("d", "v", int_field(4, (12, 10)))
            assert client.service.stats()["plan_cache"]["bytes"] == 0
            req = self._request()
            client.query(req)
            svc = client.service
            plan = build_served_plan(req, svc.registry.get("d"))
            assert svc.stats()["plan_cache"]["bytes"] == len(pickle.dumps(plan)) > 0

    @pytest.mark.parametrize("cls", [
        ("fine_mean", (364, 40, 40), dict(operator="mean", extract=(7, 5, 2))),
        ("ragged_filter", (364, 40, 40),
         dict(operator="filter_gt", threshold=95, extract=(7, 5, 2))),
        ("coarse_scan", (364, 120, 120),
         dict(operator="mean", extract=(28, 20, 20))),
        ("holistic_median", (364, 40, 40),
         dict(operator="median", extract=(14, 10, 8))),
    ], ids=lambda cls: cls[0])
    def test_nbytes_is_most_of_the_pickled_plan(self, cls, tmp_path):
        """The byte bound counts what a plan costs where it is held or
        sent: the served benchmark's plans' pickled length, which the
        cache counts.  A plan holds no per-key
        array, a pruned plan's synthesized keys included (they are
        row-major runs): a few KB each.  What a job adds to the plan —
        its parts, its partitioner — does not pickle: after ``parts(2)``
        and a whole job, the plan an engine process is sent is still
        the bytes the cache counted."""
        name, shape, fields = cls
        session = _grid(tmp_path / "grid.nc", shape)
        req = QueryRequest(
            dataset="grid", variable="v", splits=16, reduces=8, prune=True,
            **fields,
        )
        try:
            plan = build_served_plan(req, session)
            size = len(pickle.dumps(plan))
            # Measured: fine_mean 4 332, ragged_filter 2 898, coarse_scan
            # 3 788, holistic_median 4 303 (12.2-13.8 KB while a plan
            # held the dataset's header).
            assert size <= 8 << 10
            cache = plancache.PlanCache()
            cache.insert(("grid", "digest", name), plan)
            assert cache.snapshot()["bytes"] == size
            plan.parts(2)
            assert len(pickle.dumps(plan)) == size
            out = run_job(
                name, req, session.engine_source(), plan, EngineConfig(),
                part=plan.parts(1)[0],
            )
            assert out.state == DONE
            assert len(pickle.dumps(plan)) == size
            clone = pickle.loads(pickle.dumps(plan))
            assert clone.parts(2) == plan.parts(2)
            assert clone.partitioner.boundaries.tolist() == (
                plan.partitioner.boundaries.tolist()
            )
        finally:
            session.close()

    def test_a_plan_over_the_budget_is_served_uncached(self, monkeypatch):
        monkeypatch.setattr(plancache, "MAX_BYTES", 1)
        with service_fixture(workers=1) as client:
            client.service.register_array("d", "v", int_field(4, (12, 10)))
            req = self._request()
            _, digest = oracle_for_request(client.service, req)
            docs = [client.query(req) for _ in range(2)]
            assert [d["plan_cache_hit"] for d in docs] == [False, False]
            assert [d["digest"] for d in docs] == [digest, digest]
            assert client.service.stats()["plan_cache"]["size"] == 0


# --------------------------------------------------------------------- #
# Keying: plan knobs split entries, submission knobs share them
# --------------------------------------------------------------------- #
class TestCacheKeying:
    def test_plan_knobs_get_distinct_entries(self):
        with service_fixture(workers=1, map_workers=2, reduce_workers=2) as client:
            svc = client.service
            svc.register_array("d", "v", int_field(3, (12, 10)),
                               with_zone_map=True)

            def run(**kw):
                base = dict(
                    dataset="d", variable="v", extract=(4, 5),
                    operator="filter_gt", threshold=0.0,
                    splits=4, reduces=2, prune=False, engine="serial",
                )
                base.update(kw)
                return client.query(QueryRequest(**base))

            assert run()["plan_cache_hit"] is False
            # prune changes the surviving split set: its own entry
            assert run(prune=True)["plan_cache_hit"] is False
            # so do geometry / operator knobs
            assert run(splits=2)["plan_cache_hit"] is False
            assert run(reduces=1)["plan_cache_hit"] is False
            assert run(threshold=5.0)["plan_cache_hit"] is False
            assert len(svc.plan_cache) == 5

            # the engine is per-submission: all pure hits, all
            # byte-identical
            docs = [
                run(engine="serial"),
                run(engine="threaded"),
                run(engine="threaded", speculate=True),
            ]
            assert all(d["plan_cache_hit"] for d in docs)
            assert len({d["digest"] for d in docs}) == 1
            assert len(svc.plan_cache) == 5

    def test_stride_equal_to_extract_is_the_dense_plan(self):
        """One geometry, one cache entry: ``stride == extract`` spells
        the plan ``stride: null`` compiles to, so the second spelling
        is a hit with the same digest; a real stride is its own plan.
        The request still round-trips the field as sent."""
        with service_fixture(workers=1) as client:
            client.service.register_array("d", "v", int_field(3, (12, 10)))

            def run(stride):
                req = QueryRequest(
                    dataset="d", variable="v", extract=(4, 5), stride=stride,
                    splits=4, reduces=2,
                )
                assert QueryRequest.from_json(req.to_json()).stride == stride
                return client.query(req)

            cold, spelt = run(None), run((4, 5))
            assert (cold["plan_cache_hit"], spelt["plan_cache_hit"]) == (False, True)
            assert spelt["digest"] == cold["digest"]
            assert run((5, 5))["plan_cache_hit"] is False
            assert len(client.service.plan_cache) == 2
