"""Differential fuzzer: oracle agreement, shrinking, repro files."""

import pytest

from repro.verify import (
    ENGINE_CONFIGS,
    OPERATOR_NAMES,
    FuzzCase,
    canonicalize_records,
    canonicalize_value,
    fuzz,
    generate_case,
    load_repro,
    oracle_records,
    records_digest,
    run_case,
    shrink_case,
    write_repro,
)


def base_case(operator, **kwargs):
    defaults = dict(
        seed=11,
        shape=(6, 4),
        extraction=(3, 2),
        stride=None,
        operator=operator,
        threshold=2.0 if operator in ("filter_gt", "range_exceeds") else None,
        num_splits=3,
        reduces=2,
    )
    defaults.update(kwargs)
    return FuzzCase(**defaults)


class TestOracle:
    @pytest.mark.parametrize("operator", OPERATOR_NAMES)
    def test_every_operator_matches_oracle(self, operator):
        """Engines × planes agree byte-identically with the brute-force
        oracle for every registered operator — including the holistic
        median/sort the columnar plane falls back on.  Prunable
        fault-free operators (filter_gt) additionally run the predicate
        leg: the same configurations with zone-map pruning forced on."""
        result = run_case(base_case(operator))
        assert result.ok, result.mismatch
        expected_legs = (
            2 * len(ENGINE_CONFIGS)
            if operator == "filter_gt"
            else len(ENGINE_CONFIGS)
        )
        assert len(result.outcomes) == expected_legs
        assert all(o.digest == result.oracle_digest for o in result.outcomes)

    def test_oracle_is_engine_independent(self):
        case = base_case("sum")
        plan, data = case.build()
        ref = oracle_records(plan, data)
        # spot-check one value against a plain numpy computation
        key, value = ref[0]
        region = data[0:3, 0:2]
        assert value == region.sum()

    def test_canonicalize_strips_numpy_types(self):
        import numpy as np

        v = canonicalize_value(np.float64(3.0))
        assert type(v) is float
        v = canonicalize_value(np.arange(3))
        assert v == [0, 1, 2]
        v = canonicalize_value({"b": np.int64(1), "a": 2})
        assert list(v.keys()) == ["a", "b"]

    def test_digest_is_order_insensitive(self):
        recs = [((1,), 2.0), ((0,), 1.0)]
        a = records_digest(canonicalize_records(recs))
        b = records_digest(canonicalize_records(reversed(recs)))
        assert a == b


class TestCases:
    def test_generation_is_deterministic(self):
        for i in range(10):
            assert generate_case(i, 3) == generate_case(i, 3)
        assert generate_case(0, 3) != generate_case(0, 4) or True  # seeds differ

    def test_json_round_trip(self):
        case = generate_case(4, 0)
        assert FuzzCase.from_json(case.to_json()) == case

    def test_generated_faults_always_bind(self):
        """Clamping must never leave a fault rule pointing at a task
        index outside the bound population (a crash that cannot fire
        would make an expects-failure case succeed)."""
        for i in range(60):
            case = generate_case(i, 0)
            for rule in case.fault_rules:
                n = case.num_splits if rule["task"] == "map" else case.reduces
                assert all(idx < n for idx in rule["indices"]), case.describe()

    def test_crash_case_fails_in_every_config(self):
        case = base_case(
            "sum",
            fault_rules=(
                {"task": "reduce", "fault": "crash", "indices": [0]},
            ),
        )
        assert case.expects_failure
        result = run_case(case)
        assert result.ok, result.mismatch
        assert all(o.status == "failed" for o in result.outcomes)
        assert all("InjectedFaultError" in o.error_types for o in result.outcomes)

    def test_transient_faults_recover_to_oracle_output(self):
        case = base_case(
            "mean",
            fault_rules=(
                {"task": "map", "fault": "transient", "indices": [0], "times": 1},
                {"task": "reduce", "fault": "transient", "indices": [1],
                 "times": 1, "when": "after-fetch"},
            ),
            recovery="reexecute-deps",
        )
        result = run_case(case)
        assert result.ok, result.mismatch


class TestPruningLeg:
    def test_prune_legs_cover_every_engine_config(self):
        """A fault-free filter_gt case runs each engine configuration
        twice — prune off and prune on — and every leg matches the
        oracle digest byte-identically."""
        case = base_case("filter_gt", threshold=100.0, tile=(2, 2))
        result = run_case(case)
        assert result.ok, result.mismatch
        pruned = [o for o in result.outcomes if o.prune]
        assert {(o.mode, o.data_plane) for o in pruned} == set(ENGINE_CONFIGS)
        assert all(o.config.endswith("/prune") for o in pruned)
        assert all(o.digest == result.oracle_digest for o in pruned)

    def test_fault_cases_skip_prune_legs(self):
        """Fault rules bind to split indices; pruning renumbers splits,
        so fault cases must not grow pruning legs."""
        case = base_case(
            "filter_gt",
            fault_rules=(
                {"task": "map", "fault": "transient", "indices": [0],
                 "times": 1},
            ),
        )
        result = run_case(case)
        assert result.ok, result.mismatch
        assert not any(o.prune for o in result.outcomes)

    def test_non_prunable_operators_skip_prune_legs(self):
        result = run_case(base_case("range_exceeds"))
        assert result.ok, result.mismatch
        assert not any(o.prune for o in result.outcomes)

    def test_tile_serializes_and_describes(self):
        case = base_case("filter_gt", tile=(3, 2))
        assert FuzzCase.from_json(case.to_json()) == case
        assert "tile=[3, 2]" in case.describe()
        assert FuzzCase.from_json(base_case("sum").to_json()).tile is None

    def test_operator_restriction_draws_only_those(self):
        for i in range(12):
            case = generate_case(i, 0, operators=("filter_gt",))
            assert case.operator == "filter_gt"


class TestShrinking:
    def failing_case(self):
        """A case whose 'must fail' crash rule cannot bind (index 10 of
        1 reduce): every engine succeeds, which is a differential
        mismatch by construction — a stable stand-in for a real bug."""
        return base_case(
            "sum",
            stride=(4, 3),
            num_splits=4,
            reduces=1,
            fault_rules=(
                {"task": "reduce", "fault": "crash", "indices": [10]},
            ),
        )

    def test_shrinker_minimizes_while_still_failing(self):
        case = self.failing_case()
        result = run_case(case)
        assert not result.ok
        shrunk, shrunk_result = shrink_case(case, result)
        assert not shrunk_result.ok
        # strictly simpler on every shrinkable axis
        assert shrunk.stride is None
        assert shrunk.num_splits == 1
        assert shrunk.volume <= case.volume

    def test_repro_file_round_trip(self, tmp_path):
        case = self.failing_case()
        result = run_case(case)
        path = write_repro(tmp_path, case, case, result, index=3)
        assert path.exists()
        loaded = load_repro(path)
        assert loaded == case
        replay = run_case(loaded)
        assert replay.mismatch == result.mismatch


class TestFuzzDriver:
    def test_25_cases_clean(self):
        """Tier-1 differential sweep: 25 seeded cases, four engine
        configurations each, two explored interleavings per case."""
        from repro.obs.metrics import MetricsRegistry

        m = MetricsRegistry()
        report = fuzz(25, seed=0, schedules=2, metrics=m)
        assert report.ok, report.summary()
        assert report.num_cases == 25
        assert m.counter("verify.cases").value == 25
        assert m.counter("verify.mismatches").value == 0
        assert m.counter("verify.explorer.schedules").value == 50

    def test_failures_are_shrunk_and_persisted(self, tmp_path, monkeypatch):
        import importlib

        F = importlib.import_module("repro.verify.fuzz")
        bad = TestShrinking().failing_case()
        monkeypatch.setattr(F, "generate_case", lambda i, s, operators=None: bad)
        report = F.fuzz(1, seed=0, schedules=0, out_dir=tmp_path)
        assert not report.ok
        assert len(report.failures) == 1
        repro_path = report.failures[0].repro_path
        assert repro_path is not None and repro_path.exists()
        shrunk = load_repro(repro_path)
        assert shrunk.num_splits == 1
        assert not run_case(shrunk).ok


class TestServiceLeg:
    """Opt-in service legs: cases routed through the resident query
    service (in-process client) join the differential ladder when
    ``REPRO_VERIFY_ENGINES`` lists ``service``."""

    def test_service_legs_are_opt_in(self, monkeypatch):
        from repro.verify.fuzz import _engine_configs

        monkeypatch.delenv("REPRO_VERIFY_ENGINES", raising=False)
        assert ("service", "record") not in _engine_configs()
        monkeypatch.setenv("REPRO_VERIFY_ENGINES", "serial,service")
        configs = _engine_configs()
        assert ("serial", "record") in configs
        assert ("service", "record") in configs
        assert ("service", "columnar") in configs
        assert ("threaded", "record") not in configs

    def test_small_case_smoke_matches_oracle(self, monkeypatch):
        """Tier-1 smoke: a clean case, a crash case, and a prunable case
        all agree across the serial and service legs."""
        monkeypatch.setenv("REPRO_VERIFY_ENGINES", "serial,service")

        clean = run_case(base_case("mean"))
        assert clean.ok, clean.mismatch
        served = [o for o in clean.outcomes if o.mode == "service"]
        assert {o.data_plane for o in served} == {"record", "columnar"}
        assert all(o.digest == clean.oracle_digest for o in served)

        crash = run_case(base_case(
            "sum",
            fault_rules=(
                {"task": "reduce", "fault": "crash", "indices": [0]},
            ),
        ))
        assert crash.ok, crash.mismatch
        assert all(o.status == "failed" for o in crash.outcomes)

        pruned = run_case(base_case("filter_gt", tile=(3, 2)))
        assert pruned.ok, pruned.mismatch
        assert any(
            o.mode == "service" and o.prune for o in pruned.outcomes
        )

    def test_shrinker_preserves_the_service_path(self, monkeypatch):
        """Leg selection is environment-driven, so a shrunk candidate
        re-enters run_case with the service legs still active."""
        import importlib

        F = importlib.import_module("repro.verify.fuzz")
        monkeypatch.setenv("REPRO_VERIFY_ENGINES", "service")
        calls = []
        real = F._run_service_leg

        def spying(case, plane, *, prune=False):
            calls.append(case)
            return real(case, plane, prune=prune)

        monkeypatch.setattr(F, "_run_service_leg", spying)
        result = run_case(base_case("mean"))
        assert result.ok, result.mismatch
        assert len(calls) == 2  # both planes went through the service
        assert all(o.mode == "service" for o in result.outcomes)

    def test_a_lossy_wire_codec_reads_as_diverged(self, monkeypatch):
        """The service legs decode the job's block from its bytes: a
        codec that drops a row fails the case although the served digest
        is right."""
        from repro.mapreduce.columnar import ResultBlock

        monkeypatch.setenv("REPRO_VERIFY_ENGINES", "service")
        assert run_case(base_case("mean")).ok
        real = ResultBlock.from_bytes.__func__
        monkeypatch.setattr(
            ResultBlock, "from_bytes",
            classmethod(lambda cls, data: real(cls, data)[:-1]),
        )
        result = run_case(base_case("mean"))
        assert not result.ok
        assert {o.status for o in result.outcomes} == {"diverged"}
        assert all(o.digest == result.oracle_digest for o in result.outcomes)
