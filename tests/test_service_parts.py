"""A served job in parts (docs/SERVICE.md, "Engine processes").

``SIDRPlan.parts(k)`` cuts a plan at keyblock boundaries whose two
sides read disjoint maps, so each part is a job of its own.  The
service's dispatcher sends a job dispatched alone, after a job that ran
alone, to every free engine process (slot), one part each; its block,
digest, counters and status read as a one-part run's, and it fails,
typed, as one would.  Every other job takes one slot.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import signal
import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mapreduce.engine import Part
from repro.obs.live import phase_totals, read_events
from repro.query.operators import PRUNABLE_OPERATORS
from repro.scidata.zonemaps import build_zone_map
from repro.service import (
    QueryService,
    oracle_for_request,
    run_in_engine,
    service_fixture,
)
from repro.service.api import CANCELLED, DONE, FAILED, RUNNING
from repro.service.engine_process import merge_progress
from repro.sidr.planner import build_plan
from repro.verify.cases import generate_case
from tests.test_service_engine_processes import CLASSES, alive, field, request

#: The classes whose test-grid plans cut in two (``ragged_filter``'s
#: pruned keyblocks read nothing, so it runs whole).
SPLIT = {"fine_mean": 2, "coarse_scan": 2, "holistic_median": 2, "ragged_filter": 1}

#: On :func:`two_hot`, prunes 4 of 8 splits and still cuts in two.
PRUNED = dict(operator="filter_gt", threshold=60)


def two_hot():
    """:func:`field` with its third quarter raised too: splits above 49
    on both sides of the cut."""
    data = field()
    data[28:42] += 50
    return data


def fuzz_plan(index: int, seed: int, operators=None):
    case = generate_case(index, seed, operators=operators)
    qplan, data = case.build()
    zone_map = None
    if case.operator in PRUNABLE_OPERATORS:
        zone_map = build_zone_map("v", data, tile_shape=case.tile)
    return lambda: build_plan(
        qplan, case.splits(qplan), case.reduces,
        zone_map=zone_map, prune=zone_map is not None,
    )


def least_largest_part(plan, k: int) -> float:
    """Brute force over every set of at most ``k`` - 1 legal cuts."""
    deps = plan.deps.dependencies
    n = len(deps)
    cells = [s.cells for s in plan.splits]
    orphans = set(range(len(cells))) - set().union(*deps)

    def reads(a, b):
        return set().union(*deps[a:b])

    legal = [
        b for b in range(1, n) if not reads(0, b) & reads(b, n)
    ]
    best = float("inf")
    for j in range(min(k - 1, len(legal)) + 1):
        for cuts in itertools.combinations(legal, j):
            bounds = [0, *cuts, n]
            ranges = list(zip(bounds, bounds[1:]))
            if any(not reads(a, b) for a, b in ranges):
                continue
            best = min(best, max(
                sum(cells[m] for m in reads(a, b) | (orphans if a == 0 else set()))
                for a, b in ranges
            ))
    return best


class TestPartsOfAPlan:
    @settings(max_examples=60, deadline=None)
    @given(
        index=st.integers(0, 500), seed=st.integers(0, 3), k=st.integers(1, 4),
        # filter_gt alone draws a pruned plan now and then
        operators=st.sampled_from([None, ("filter_gt",)]),
    )
    def test_parts_are_independent_contiguous_ranges(
        self, index, seed, k, operators
    ):
        make = fuzz_plan(index, seed, operators)
        plan = make()
        n, maps = plan.num_reduce_tasks, len(plan.splits)
        parts = plan.parts(k)
        assert 1 <= len(parts) <= k
        assert [p.index for p in parts] == list(range(len(parts)))
        # contiguous keyblock ranges that cover the plan ...
        assert parts[0].reduces.start == 0 and parts[-1].reduces.stop == n
        for a, b in zip(parts, parts[1:]):
            assert a.reduces.stop == b.reduces.start
        assert all(len(p.reduces) for p in parts)
        # ... and a partition of its maps, each part's holding every
        # map its keyblocks read: no map feeds two parts.
        assert sorted(m for p in parts for m in p.maps) == list(range(maps))
        deps = plan.deps.dependencies
        for p in parts:
            reads = set().union(*(deps[b] for b in p.reduces))
            assert reads <= set(p.maps)
            assert reads or len(parts) == 1  # a part that reads nothing is not made
        # the cut is the least largest part, and a function of the plan
        largest = max(sum(plan.splits[m].cells for m in p.maps) for p in parts)
        if len(parts) > 1 or any(deps):
            assert largest == least_largest_part(plan, k)
        assert make().parts(k) == parts
        assert plan.parts(1) == (Part(0, range(n), tuple(range(maps))),)


# --------------------------------------------------------------------- #
# Served
# --------------------------------------------------------------------- #
def slow(*maps: int, delay: float = 30.0) -> tuple[dict, ...]:
    return ({"task": "map", "fault": "slow", "indices": list(maps), "delay": delay},)


def wait_for(predicate, what: str) -> None:
    deadline = time.monotonic() + 20
    while not predicate():
        assert time.monotonic() < deadline, what
        time.sleep(0.01)


class TestASplitJobIsAWholeJob:
    @pytest.mark.parametrize("cls", sorted(CLASSES))
    def test_split_whole_and_oracle_bytes_are_one(self, cls):
        with service_fixture(workers=2) as client:
            svc = client.service
            svc.register_array("d", "v", field(), with_zone_map=True)
            req = request(**CLASSES[cls])
            _, digest = oracle_for_request(svc, req)
            doc = client.query(req)
            _, block = svc.result_block(doc["id"])
            counters = svc.status(doc["id"])["counters"]
            whole = run_in_engine(svc, req)
        assert doc["state"] == DONE and doc["parts"] == SPLIT[cls]
        assert whole.state == DONE
        assert doc["digest"] == hashlib.sha256(whole.block).hexdigest() == digest
        assert block.to_bytes() == whole.block
        assert counters == whole.counters

    def test_status_counters_and_parts_read_like_a_one_part_run(self):
        with service_fixture(workers=2) as client:
            svc = client.service
            svc.register_array("d", "v", two_hot(), with_zone_map=True)
            req = request(**PRUNED)
            doc = client.query(req)
            status = client.status(doc["id"])
            whole = run_in_engine(svc, req)
            engines = svc.stats()["engines"]
        assert doc["parts"] == status["parts"] == 2
        progress = status["progress"]
        assert progress["state"] == whole.progress["state"] == "done"
        assert progress["progress"] == 1.0
        for section in ("maps", "reduces"):
            assert progress[section] == whole.progress[section]
        # plan.* is the job's, seeded once across the parts
        assert status["counters"]["plan.splits.pruned"] == 4
        assert status["counters"]["plan.keys.synthesized"] > 0
        assert status["counters"] == whole.counters
        # each engine ran one part
        assert [e["jobs"] for e in engines] == [1, 1]

    def test_a_running_split_job_reports_the_whole_jobs_progress(self):
        with service_fixture(workers=2) as client:
            svc = client.service
            svc.register_array("d", "v", field())
            _, digest = oracle_for_request(svc, request())
            job_id = client.submit(request(fault_rules=slow(7, delay=2.0)))
            wait_for(
                lambda: (client.status(job_id).get("progress") or {})
                .get("maps", {}).get("done") == 7,
                "seven of eight maps done",
            )
            running = client.status(job_id)
            doc = client.result(job_id, timeout=30)
        assert running["state"] == RUNNING and running["parts"] == 2
        progress = running["progress"]
        assert progress["state"] == "running"
        assert progress["maps"]["total"] == 8
        assert progress["maps"]["inflight"] == 1
        assert progress["reduces"]["total"] == 4
        assert progress["reduces"]["done"] == 3  # all but map 7's
        assert doc["state"] == DONE and doc["digest"] == digest
        assert doc["progress"]["state"] == "done"

    def test_a_parts_events_carry_its_job_and_keyblock_range(self, tmp_path):
        events = tmp_path / "events.jsonl"
        with service_fixture(workers=2, events_path=str(events)) as client:
            client.service.register_array("d", "v", field())
            doc = client.query(request())
        assert doc["parts"] == 2
        stream = read_events(events, job=doc["id"])
        assert {ev.part for ev in stream} == {(0, 2), (2, 4)}
        for part in ((0, 2), (2, 4)):
            mine = [ev for ev in stream if ev.part == part]
            assert [ev.seq for ev in mine] == list(range(len(mine)))
            assert phase_totals(mine)["map"]["finished"] == 4
        assert phase_totals(stream)["map"]["finished"] == 8


class TestAJobOfOnePart:
    """A job that is not split is ``SIDRPlan.parts(1)``, dispatched,
    assembled and digested as any job of parts is."""

    @pytest.mark.parametrize("workers", [1, 2], ids=["one-slot", "other-busy"])
    def test_it_reports_one_part_and_the_oracles_digest(self, workers, tmp_path):
        events = tmp_path / "events.jsonl"
        with service_fixture(workers=workers, events_path=str(events)) as client:
            svc = client.service
            svc.register_array("d", "v", field())
            _, digest = oracle_for_request(svc, request())
            busy = None
            if workers == 2:  # another job running: this one is not alone
                busy = client.submit(request(fault_rules=slow(0, delay=1.0)))
                wait_for(
                    lambda: svc.status(busy)["state"] == RUNNING, "busy"
                )
            doc = client.query(request())
            if busy is not None:
                assert client.result(busy, timeout=30)["state"] == DONE
        assert doc["state"] == DONE and doc["parts"] == 1
        assert doc["digest"] == digest
        # every ``serve --events`` line names its part: the whole range
        with events.open() as lines:
            mine = [ev for ev in map(json.loads, lines) if ev["job"] == doc["id"]]
        assert mine and all(ev["part"] == [0, 4] for ev in mine)

    def test_merging_one_progress_document_returns_it(self):
        doc = {"state": "running", "maps": {"total": 8}}
        assert merge_progress([doc], 8, 4) is doc
        assert merge_progress([None], 8, 4) is None


class TestASplitJobFailsTyped:
    @pytest.mark.parametrize("crashed", [1, 6], ids=["part-0", "part-1"])
    def test_a_crash_on_a_global_map_index_fails_the_job(self, crashed):
        rules = ({"task": "map", "fault": "crash", "indices": [crashed]},)
        with service_fixture(workers=2) as client:
            svc = client.service
            svc.register_array("d", "v", field())
            doc = client.query(request(fault_rules=rules))
            whole = run_in_engine(svc, request(fault_rules=rules))
            after = client.query(request())
            _, digest = oracle_for_request(svc, request())
        assert doc["parts"] == 2 and doc["state"] == FAILED
        assert whole.state == FAILED
        assert doc["error_types"] == list(whole.error_types)
        assert f"map {crashed}" in doc["error"]
        assert after["state"] == DONE and after["digest"] == digest

    def test_a_killed_lent_engine_fails_the_job_and_is_replaced(self):
        with service_fixture(workers=2) as client:
            svc = client.service
            svc.register_array("d", "v", field())
            _, digest = oracle_for_request(svc, request())
            job_id = client.submit(request(fault_rules=slow(7), tenant="t"))
            # part 0 ends and its slot is free; part 1 (maps 4-7) stalls
            # on slot 1
            wait_for(
                lambda: (client.status(job_id).get("progress") or {})
                .get("maps", {}).get("done") == 7,
                "part 0 done",
            )
            pid = svc.stats()["engines"][1]["pid"]
            os.kill(pid, signal.SIGKILL)
            doc = client.result(job_id, timeout=30)
            assert doc["state"] == FAILED and doc["parts"] == 2
            assert doc["error_types"] == ["EngineProcessError"]
            assert f"engine process {pid}" in doc["error"]
            assert "SIGKILL" in doc["error"]
            stats = svc.stats()
            assert "lent" not in stats["queue"]
            assert stats["tenants"]["t"]["failures"] == 1
            assert [e["restarts"] for e in stats["engines"]] == [0, 1]
            replaced = stats["engines"][1]["pid"]
            assert replaced != pid and alive(replaced) and not alive(pid)
            # the next job runs alone again, and in two parts
            after = client.query(request())
        assert after["state"] == DONE and after["digest"] == digest
        assert after["parts"] == 2


class TestTheDispatcher:
    """One thread plans every job and hands its parts to the engine
    processes, the slots; each answer frees its slot."""

    def test_a_killed_engine_fails_only_its_own_job(self):
        with service_fixture(workers=2) as client:
            svc = client.service
            svc.register_array("d", "v", field())
            _, digest = oracle_for_request(svc, request())
            svc.queue.pause()
            doomed = client.submit(request(fault_rules=slow(0)))
            other = client.submit(request(fault_rules=slow(0, delay=1.0)))
            svc.queue.resume()
            wait_for(
                lambda: all(
                    client.status(j)["state"] == RUNNING for j in (doomed, other)
                ),
                "both jobs running",
            )
            # dispatch order: the first job took slot 0, whole
            pid = svc.stats()["engines"][0]["pid"]
            os.kill(pid, signal.SIGKILL)
            lost = client.result(doomed, timeout=30)
            # replaced before the job ended, so before the slot was free
            engines = svc.stats()["engines"]
            kept = client.result(other, timeout=30)
            after = client.query(request())
        assert lost["state"] == FAILED and lost["parts"] == 1
        assert lost["error_types"] == ["EngineProcessError"]
        assert kept["state"] == DONE and kept["digest"] == digest
        assert kept["parts"] == 1
        assert [e["restarts"] for e in engines] == [1, 0]
        assert engines[0]["pid"] != pid
        assert after["state"] == DONE and after["digest"] == digest

    def test_a_replaced_engines_pipe_is_watched(self):
        """An engine SIGKILLed mid-part fails its job typed; the next job
        on each slot is ``done``, so the replacement's pipe is a reader
        of the service's loop.  So is one killed while idle."""
        with service_fixture(workers=2) as client:
            svc = client.service
            svc.register_array("d", "v", field())
            _, digest = oracle_for_request(svc, request())

            def one_per_slot(**kw):
                # queued together: neither runs in parts, and dispatch
                # order puts the first on slot 0
                svc.queue.pause()
                jobs = [client.submit(request(**kw)) for _ in range(2)]
                svc.queue.resume()
                return jobs

            for slot in (0, 1):
                jobs = one_per_slot(fault_rules=slow(0, delay=1.0))
                wait_for(
                    lambda: all(
                        client.status(j)["state"] == RUNNING for j in jobs
                    ),
                    "both jobs running",
                )
                pid = svc.stats()["engines"][slot]["pid"]
                os.kill(pid, signal.SIGKILL)
                docs = [client.result(j, timeout=30) for j in jobs]
                lost, kept = docs[slot], docs[1 - slot]
                assert lost["state"] == FAILED
                assert lost["error_types"] == ["EngineProcessError"]
                assert f"engine process {pid} was killed by SIGKILL" in lost["error"]
                assert kept["state"] == DONE and kept["digest"] == digest
                after = [client.result(j, timeout=30) for j in one_per_slot()]
                assert [d["state"] for d in after] == [DONE, DONE]
                assert {d["digest"] for d in after} == {digest}
            assert [e["restarts"] for e in svc.stats()["engines"]] == [1, 1]
            idle = svc.stats()["engines"][0]["pid"]
            os.kill(idle, signal.SIGKILL)
            wait_for(
                lambda: svc.stats()["engines"][0]["restarts"] == 2,
                "the idle engine replaced",
            )
            after = [client.result(j, timeout=30) for j in one_per_slot()]
            engines = svc.stats()["engines"]
        assert [d["state"] for d in after] == [DONE, DONE]
        assert [e["jobs"] for e in engines] == [5, 5]
        assert not alive(idle)
        # close() reaped the replacements too
        assert not any(alive(e["pid"]) for e in engines)

    def test_a_job_cancelled_while_the_slots_are_busy_is_never_sent(self):
        with service_fixture(workers=1) as client:
            svc = client.service
            svc.register_array("d", "v", field())
            busy = client.submit(request(fault_rules=slow(0, delay=1.0)))
            wait_for(lambda: client.status(busy)["state"] == RUNNING, "running")
            queued = client.submit(request())
            assert client.cancel(queued) is True
            done = client.result(busy, timeout=30)
            cancelled = client.result(queued, timeout=30)
            (engine,) = svc.stats()["engines"]
        assert done["state"] == DONE
        assert cancelled["state"] == CANCELLED and cancelled["parts"] is None
        assert engine["jobs"] == 1  # the cancelled job was never sent

    def test_concurrent_submitters_each_job_dispatched_once(self):
        """More slots than cores, submitters racing the dispatcher under
        a short switch interval: every job runs once, whole or in
        parts, and the slots' part counts add up to the jobs' parts."""
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with service_fixture(workers=3) as client:
                svc = client.service
                svc.register_array("d", "v", field())
                _, digest = oracle_for_request(svc, request())
                ids: list[str] = []

                def submit() -> None:
                    for _ in range(4):
                        ids.append(client.submit(request()))

                threads = [threading.Thread(target=submit) for _ in range(5)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=30)
                assert not any(t.is_alive() for t in threads)
                docs = [client.result(j, timeout=60) for j in ids]
                assert svc.queue.drain(timeout=30)
                stats = svc.stats()
                order = svc.queue.dispatch_order
        finally:
            sys.setswitchinterval(interval)
        assert len(ids) == 20 and sorted(order) == sorted(ids)
        assert all(d["state"] == DONE and d["digest"] == digest for d in docs)
        assert sum(e["jobs"] for e in stats["engines"]) == sum(
            d["parts"] for d in docs
        )
        assert stats["queue"]["queued"] == stats["queue"]["running"] == 0

    def test_close_with_parts_running_ends_every_job_typed(self):
        before = set(threading.enumerate())
        svc = QueryService(workers=2)
        svc.register_array("d", "v", field())
        split = svc.submit(request(fault_rules=slow(7)))
        wait_for(
            lambda: (svc.status(split).get("progress") or {})
            .get("maps", {}).get("done") == 7,
            "part 0 done",
        )
        # the free slot takes the next job; the one after it queues
        whole = svc.submit(request(fault_rules=slow(0)))
        queued = svc.submit(request())
        wait_for(lambda: svc.status(whole)["state"] == RUNNING, "running")
        pids = [e["pid"] for e in svc.stats()["engines"]]
        t0 = time.monotonic()
        svc.close()
        elapsed = time.monotonic() - t0
        docs = [svc.status(j) for j in (split, whole, queued)]
        assert [d["parts"] for d in docs] == [2, 1, None]
        for doc in docs[:2]:
            assert doc["state"] == FAILED
            assert doc["error_types"] == ["EngineProcessError"]
            assert "shut down" in doc["error"]
        assert docs[2]["state"] == CANCELLED
        assert set(threading.enumerate()) <= before
        assert not any(alive(pid) for pid in pids)
        assert elapsed < 5  # the stalled part is not waited out


class TestTheLendingRule:
    def test_sequential_jobs_split_and_overlapping_ones_run_whole(self):
        with service_fixture(workers=2) as client:
            svc = client.service
            svc.register_array("d", "v", field())
            assert svc.stats()["lending"] is True
            first = [client.query(request())["parts"] for _ in range(2)]
            svc.queue.pause()
            both = [client.submit(request()) for _ in range(2)]
            svc.queue.resume()
            overlapped = [client.result(j, timeout=30)["parts"] for j in both]
            lending_after = svc.stats()["lending"]
            # the job after them ran whole, but alone: the next splits
            after = [client.query(request())["parts"] for _ in range(2)]
        assert first == [2, 2]
        assert overlapped == [1, 1]
        assert lending_after is False
        assert after == [1, 2]

    def test_one_worker_never_splits(self):
        with service_fixture(workers=1) as client:
            client.service.register_array("d", "v", field())
            parts = [client.query(request())["parts"] for _ in range(2)]
        assert parts == [1, 1]
