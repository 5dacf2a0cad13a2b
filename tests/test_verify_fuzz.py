"""Differential fuzzer: oracle agreement, shrinking, repro files."""

import copy
import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import JobConfigError, QueryError, ShuffleError
from repro.mapreduce.columnar import ResultBlock
from repro.verify import (
    ENGINE_CONFIGS,
    OPERATOR_NAMES,
    FuzzCase,
    canonicalize_records,
    canonicalize_value,
    checked_digest,
    fuzz,
    generate_case,
    load_repro,
    oracle_records,
    records_digest,
    run_case,
    shrink_case,
    write_repro,
)
from tests.legacy_codec import json_tag_digest, rbk1_digest


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


# --------------------------------------------------------------------- #
# Canonical record lists and their near misses.  ``repr`` — what the
# digest used to hash — is the reference for "equal output" here.  The
# values are operator-shaped: one of the four value columns a result
# block holds (all floats, all int64, all lists of floats, all
# ``range_exceeds`` dicts); anything else is refused, not hashed.
# --------------------------------------------------------------------- #
_NEG_NAN = math.copysign(math.nan, -1.0)
_FLOATS = st.floats(allow_nan=True, allow_infinity=True, width=64) | st.sampled_from(
    [math.nan, _NEG_NAN, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324]
)
_INTS = st.integers(-(2**63), 2**63 - 1)
#: A key coordinate: small, so keys fall into runs, or wide.
_COORDS = st.integers(0, 6) | st.integers(0, 2**15)
#: One row's value, by value column.
_VALUES = {
    "float": _FLOATS,
    "int": _INTS,
    "ragged": st.lists(_FLOATS, max_size=4),
    # built, not ``fixed_dictionaries``: canonical dicts have sorted keys
    "range_exceeds": st.builds(
        lambda exceeds, variation: {"exceeds": exceeds, "variation": variation},
        st.booleans(), _FLOATS,
    ),
}


@st.composite
def canonical_records(draw, min_rows=0, kind=None):
    """A canonical record list: rank 1-4 keys (non-negative
    coordinates, as every key of K'_T is) in key order, 0-8 rows, one
    value column (``kind``, or drawn)."""
    rank = draw(st.integers(1, 4))
    keys = draw(
        st.lists(
            st.tuples(*[_COORDS] * rank),
            min_size=min_rows, max_size=8, unique=True,
        )
    )
    value = _VALUES[kind or draw(st.sampled_from(sorted(_VALUES)))]
    return [(key, draw(value)) for key in sorted(keys)]


def _set_value(records, row, value):
    return records[:row] + [(records[row][0], value)] + records[row + 1:]


#: A float as the row value of each column that carries floats.
_AS_ROW = {
    "float": lambda x: x,
    "ragged": lambda x: [x, 2.0],
    "range_exceeds": lambda x: {"exceeds": True, "variation": x},
}


@st.composite
def near_miss_pairs(draw):
    """``(a, b)``: ``b`` is ``a`` again (fresh objects) or differs from
    it by one thing a byte form could plausibly lose."""
    kind = draw(st.sampled_from([
        "same", "int_float", "zero_sign", "nan_sign", "ragged_boundary",
        "row_dropped", "keys_swapped", "reshaped",
    ]))
    if kind == "reshaped":
        # (2 rows, rank 3) and (3 rows, rank 2) over the same integers
        k = sorted(draw(st.lists(_COORDS, min_size=6, max_size=6, unique=True)))
        v = draw(_VALUES[draw(st.sampled_from(sorted(_VALUES)))])
        return (
            [(tuple(k[:3]), v), (tuple(k[3:]), v)],
            [(tuple(k[:2]), v), (tuple(k[2:4]), v), (tuple(k[4:]), v)],
        )
    if kind == "int_float":
        # one column, as int64 and as float64
        a = draw(canonical_records(min_rows=1, kind="int"))
        return a, [(key, float(v)) for key, v in a]
    column = {"ragged_boundary": "ragged"}.get(kind)
    if kind in ("zero_sign", "nan_sign"):
        column = draw(st.sampled_from(sorted(_AS_ROW)))
    a = draw(canonical_records(min_rows=0 if kind == "same" else 2, kind=column))
    if kind == "same":
        return a, copy.deepcopy(a)
    i = draw(st.integers(0, len(a) - 2))
    if kind == "row_dropped":
        return a, a[:i] + a[i + 1:]
    if kind == "keys_swapped":
        (ki, vi), (kj, vj) = a[i], a[i + 1]
        return a, a[:i] + [(ki, vj), (kj, vi)] + a[i + 2:]
    if kind == "ragged_boundary":
        x, y, z = draw(st.tuples(_FLOATS, _FLOATS, _FLOATS))
        return (
            _set_value(_set_value(a, i, [x, y]), i + 1, [z]),
            _set_value(_set_value(a, i, [x]), i + 1, [y, z]),
        )
    one, other = {
        "zero_sign": (0.0, -0.0),
        "nan_sign": (math.nan, _NEG_NAN),   # one ``repr``: must be one digest
    }[kind]
    row = _AS_ROW[column]
    return _set_value(a, i, row(one)), _set_value(a, i, row(other))


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

    def test_corpus_digests_from_before_the_operator_table(self):
        """``tests/data/oracle_corpus.json``: ``FuzzCase`` documents with
        the oracle digest each had when the oracle was
        ``finalize(map_partial(·))`` of eleven scalar classes, before
        the operator table replaced them.  The classes are gone; their
        verdicts stay.

        ``digest`` is of the byte form with a JSON value column, and
        ``binary_digest`` of the one with every value column binary and
        every key an int64 row (``RBK1``), each checked through a copy
        of its packer (``tests/legacy_codec.py``): the oracle's records
        have not changed.  ``binary_digest`` equals ``digest`` for every
        float64 result, and differs only for the operators whose column
        is no longer JSON.  ``rbk2_digest``, pinned beside them, is
        today's :func:`records_digest`: K'_T's shape and one run where
        the key rows were."""
        corpus = json.loads(
            (Path(__file__).parent / "data" / "oracle_corpus.json").read_text()
        )
        seen = {}
        for doc in corpus:
            case = FuzzCase.from_json(doc["case"])
            plan, data = case.build()
            records = oracle_records(plan, data)
            assert json_tag_digest(records) == doc["digest"], case.describe()
            assert rbk1_digest(records) == doc["binary_digest"], case.describe()
            assert records_digest(records) == doc["rbk2_digest"], case.describe()
            repinned = case.operator in ("count", "sort", "filter_gt", "range_exceeds")
            assert (doc["binary_digest"] != doc["digest"]) == repinned
            seen.setdefault(case.operator, []).append(case)
        assert set(seen) == set(OPERATOR_NAMES)
        for cases in seen.values():
            assert len(cases) >= 4 and any(c.stride for c in cases)

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

    @given(near_miss_pairs())
    def test_digest_equal_iff_repr_equal(self, pair):
        """The byte form separates exactly what ``repr`` separates."""
        a, b = pair
        assert (repr(a) == repr(b)) == (records_digest(a) == records_digest(b))

    @given(canonical_records())
    def test_one_digest_whichever_form_the_result_arrives_in(self, records):
        block = ResultBlock.from_records(records)
        assert (
            records_digest(records)
            == records_digest(block)
            == records_digest(block.packed())
        )
        assert checked_digest(records) == (records_digest(records), True)

    @pytest.mark.parametrize(
        "values",
        [
            [True, False],                      # bools are not ints
            [1, 2.0],                           # one column, one kind
            [[1.0], 2.0],
            [[1, 2.0]],                         # a list of floats only
            [2**63],                            # past int64
            [{"variation": 1.0, "exceeds": True}],  # not canonical
            ["text"],
        ],
    )
    def test_values_outside_the_four_columns_raise(self, values):
        """What no operator outputs has no byte form: refused, not
        hashed as something it is not."""
        with pytest.raises(ShuffleError):
            records_digest([((i,), v) for i, v in enumerate(values)])

    def test_empty_results_share_one_digest(self):
        rank0 = ResultBlock.empty()
        rank3 = ResultBlock((1, 2, 3), np.empty((0, 2), dtype=np.int64), [])
        assert records_digest([]) == records_digest(rank0) == records_digest(rank3)
        assert records_digest([]) != records_digest([((0, 0, 0), 0.0)])

    @pytest.mark.parametrize(
        "records",
        [
            [((0,), 1.0), ((0, 1), 2.0)],   # two ranks
            [(0, 1.0), (1, 2.0)],           # not tuples
            [((0.5,), 1.0)],                # not integers
            [((True,), 1.0)],
            [((2**63,), 1.0)],
        ],
    )
    def test_keys_that_are_not_coordinates_raise(self, records):
        with pytest.raises(ShuffleError):
            records_digest(records)


class TestCases:
    def test_generation_is_deterministic(self):
        for i in range(10):
            assert generate_case(i, 3) == generate_case(i, 3)
        assert generate_case(0, 3) != generate_case(0, 4) or True  # seeds differ

    def test_seed_7_stream_is_pinned(self):
        """ROADMAP item 0 names seed-7 cases by index, and the operator
        table's row order is what ``rng.choice`` indexes: reordering it
        (or any other draw) renumbers them.  (Re-pinned when cases
        gained ``aligned``, a draw of its own stream: beside the new
        field only 16 cases changed, each a map-fault index folded into
        the aligned map count.)"""
        h = hashlib.sha256()
        for i in range(200):
            doc = generate_case(i, 7).to_json()
            h.update(json.dumps(doc, sort_keys=True).encode())
        assert h.hexdigest() == (
            "6b978754003d13f2b0dccbf2c17ed382635b771349466a8253097ec59120b0b2"
        )

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

    def test_map_faults_bind_under_both_split_functions(self):
        """The service leg cuts aligned splits whatever the case's own
        function is, so a map fault index must lie inside the aligned
        map count too — folded into the ``slice_splits`` count only,
        seed-7 cases 148 and 165 read "crash case succeeded under
        service/columnar"."""
        from repro.query.splits import aligned_slice_splits, slice_splits

        for i in range(200):
            case = generate_case(i, 7)
            plan = case.compile()
            counts = {
                len(cut(plan, num_splits=case.num_splits))
                for cut in (slice_splits, aligned_slice_splits)
            }
            assert len(case.splits(plan)) in counts
            for rule in case.fault_rules:
                if rule["task"] == "map":
                    assert max(rule["indices"]) < min(counts), case.describe()

    def test_split_function_is_a_draw_of_its_own(self):
        """About half the cases split aligned; the draw moves nothing
        else, and a document written before the field reads as sliced."""
        cases = [generate_case(i, 7) for i in range(200)]
        assert 60 < sum(c.aligned for c in cases) < 140
        aligned = next(c for c in cases if c.aligned)
        assert FuzzCase.from_json(aligned.to_json()) == aligned
        assert "aligned" in aligned.describe()
        doc = aligned.to_json()
        del doc["aligned"]
        assert FuzzCase.from_json(doc).aligned is False

    def test_crash_cases_148_and_165_fail_on_every_leg(self, monkeypatch):
        monkeypatch.setenv("REPRO_VERIFY_ENGINES", "serial,service")
        for i in (148, 165):
            case = generate_case(i, 7)
            assert case.expects_failure
            result = run_case(case)
            assert result.ok, result.mismatch
            assert {o.status for o in result.outcomes} == {"failed"}

    def test_generated_hangs_always_speculate(self):
        """The service refuses a hang that neither speculation nor a
        deadline would release; the generator pairs every ``hang`` with
        ``speculate``, so the service leg never reads a 400 as a
        divergence."""
        hangs = 0
        for i in range(300):
            case = generate_case(i, 7)
            if any(rule["fault"] == "hang" for rule in case.fault_rules):
                hangs += 1
                assert case.speculate, case.describe()
        assert hangs > 0

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

    def test_an_unknown_operator_is_an_error_not_a_resample(self):
        with pytest.raises(QueryError, match="unknown operator.*'bogus'.*known"):
            generate_case(0, 7, operators=("bogus",))
        with pytest.raises(QueryError, match="bogus"):
            fuzz(2, seed=7, schedules=0, operators=("mean", "bogus"))

    @pytest.mark.parametrize("names", ["bogus", "mean,bogus"])
    def test_cli_exits_2_before_fuzzing_anything(self, names, capsys):
        from repro.cli import main

        rc = main(["verify", "--cases", "6", "--schedules", "0",
                   "--operators", names])
        cap = capsys.readouterr()
        assert rc == 2
        assert "unknown operator(s) ['bogus']" in cap.err
        assert all(name in cap.err for name in OPERATOR_NAMES)
        assert cap.out == ""  # no summary line: nothing ran


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
        aligned = sum(generate_case(i, 0).aligned for i in range(25))
        assert 0 < report.aligned_cases == aligned < 25
        assert (
            f"split {aligned} cases aligned, {25 - aligned} sliced"
            in report.summary()
        )
        # Both columnar reduce bodies ran on the engine legs, and the
        # summary says how often.
        planned = report.reduces["engine", "planned"]
        generic = report.reduces["engine", "generic"]
        assert planned > 0 and generic > 0
        assert f"engine {planned} planned / {generic} generic" in report.summary()
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


class TestLegSelection:
    """``REPRO_VERIFY_ENGINES`` / ``verify --engines`` select legs by
    name.  A token that names no leg is an error: a run pinned to a
    misspelt or retired engine must not pass by checking another."""

    @pytest.mark.parametrize(
        "value",
        ["bogus", "proces,serial", "process", "serial,threaded,process,service"],
    )
    def test_unknown_token_is_an_error_naming_the_legs(self, monkeypatch, value):
        from repro.verify.fuzz import _engine_configs

        monkeypatch.setenv("REPRO_VERIFY_ENGINES", value)
        with pytest.raises(JobConfigError, match="serial, threaded, service"):
            _engine_configs()
        with pytest.raises(JobConfigError, match="unknown engine leg"):
            run_case(base_case("mean"))

    @pytest.mark.parametrize("value", ["", " ", ","])
    def test_empty_still_means_every_engine_leg(self, monkeypatch, value):
        from repro.verify.fuzz import _engine_configs

        monkeypatch.setenv("REPRO_VERIFY_ENGINES", value)
        assert _engine_configs() == ENGINE_CONFIGS

    def test_cli_exits_2_with_the_message_on_stderr(self, monkeypatch, capsys):
        from repro.cli import main

        # ``--engines`` writes the variable; set it first so the
        # fixture restores it.
        monkeypatch.setenv("REPRO_VERIFY_ENGINES", "serial")
        rc = main(["verify", "--cases", "1", "--engines", "proces,serial"])
        cap = capsys.readouterr()
        assert rc == 2
        assert "unknown engine leg(s) 'proces'" in cap.err
        assert "serial, threaded, service" in cap.err
        assert cap.out == ""


class TestServiceLeg:
    """The opt-in service leg: cases routed through the resident query
    service (in-process client) join the differential ladder when
    ``REPRO_VERIFY_ENGINES`` lists ``service`` — on the one plane the
    service serves."""

    def test_service_legs_are_opt_in(self, monkeypatch):
        from repro.verify.fuzz import _engine_configs

        monkeypatch.delenv("REPRO_VERIFY_ENGINES", raising=False)
        assert "service" not in {mode for mode, _ in _engine_configs()}
        monkeypatch.setenv("REPRO_VERIFY_ENGINES", "serial,service")
        assert _engine_configs() == (
            ("serial", "record"),
            ("serial", "columnar"),
            ("service", "columnar"),
        )
        monkeypatch.setenv("REPRO_VERIFY_ENGINES", "service")
        assert _engine_configs() == (("service", "columnar"),)

    def test_small_case_smoke_matches_oracle(self, monkeypatch):
        """Tier-1 smoke: a clean case, a crash case, and a prunable case
        all agree across the serial and service legs."""
        monkeypatch.setenv("REPRO_VERIFY_ENGINES", "serial,service")

        clean = run_case(base_case("mean"))
        assert clean.ok, clean.mismatch
        served = [o for o in clean.outcomes if o.mode == "service"]
        assert [o.config for o in served] == ["service/columnar"]
        assert all(o.digest == clean.oracle_digest for o in served)
        # The served job's counters say which reduce body each keyblock
        # took: the service cuts aligned splits, so every one planned.
        assert [(o.planned_reduces, o.generic_reduces) for o in served] == [
            (base_case("mean").reduces, 0)
        ]
        # The leg's one job ran alone on a two-worker service: one part
        # per keyblock, each reading its own map.
        assert [o.parts for o in served] == [2]

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

    def test_summary_counts_the_service_cases_run_in_parts(self, monkeypatch):
        monkeypatch.setenv("REPRO_VERIFY_ENGINES", "service")
        report = fuzz(6, seed=0, schedules=0)
        assert report.ok, report.summary()
        assert 0 < report.split_cases <= 6
        assert report.summary().endswith(
            f"; service cases in parts: {report.split_cases}"
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
        assert len(calls) == 1  # the one service leg
        pruned = run_case(base_case("filter_gt", tile=(3, 2)))
        assert pruned.ok, pruned.mismatch
        assert [o.config for o in pruned.outcomes] == [
            "service/columnar", "service/columnar/prune",
        ]
        assert len(calls) == 3  # ... and its prune twin
        assert all(o.mode == "service" for o in result.outcomes)

    def test_a_lossy_wire_codec_reads_as_diverged(self, monkeypatch):
        """The service legs decode the job's block from its bytes: a
        codec that drops a row fails the case although the served digest
        is right.  A job run in parts splices its parts' bytes by their
        headers, so there too the digest is right and only decoding the
        served block sees the loss."""
        from repro.mapreduce.columnar import ResultBlock

        monkeypatch.setenv("REPRO_VERIFY_ENGINES", "service")
        whole, split = base_case("mean", reduces=1), base_case("mean")
        assert run_case(whole).ok and run_case(split).ok
        real = ResultBlock.from_bytes.__func__
        monkeypatch.setattr(
            ResultBlock, "from_bytes",
            classmethod(lambda cls, data: real(cls, data)[:-1]),
        )
        result = run_case(whole)
        assert not result.ok
        assert {o.status for o in result.outcomes} == {"diverged"}
        assert all(o.digest == result.oracle_digest for o in result.outcomes)
        result = run_case(split)
        assert not result.ok
        assert [o.parts for o in result.outcomes] == [2]
        assert {o.status for o in result.outcomes} == {"diverged"}
        assert all(o.digest == result.oracle_digest for o in result.outcomes)

    def test_a_lossy_byte_form_reads_as_diverged_in_every_leg(self, monkeypatch):
        """The twin: a ``to_bytes`` that loses the value column.  The
        oracle's digest shares the loss — every digest in the matrix
        still agrees — so only each leg decoding its own bytes can see
        it, and every leg must: engine and service alike."""
        monkeypatch.setenv("REPRO_VERIFY_ENGINES", "serial,threaded,service")
        assert run_case(base_case("mean")).ok
        real = ResultBlock.to_bytes
        monkeypatch.setattr(
            ResultBlock, "to_bytes",
            lambda self: real(
                ResultBlock(self.space, self.runs, np.zeros(len(self)))
            ),
        )
        result = run_case(base_case("mean"))
        assert not result.ok
        assert len(result.outcomes) == len(ENGINE_CONFIGS) + 1
        assert {o.status for o in result.outcomes} == {"diverged"}
        assert all(o.digest == result.oracle_digest for o in result.outcomes)
