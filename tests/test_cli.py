"""Tests for the command-line interface."""

import asyncio
import json

import pytest

from repro.cli import main, _parse_shape
from repro.scidata.generators import temperature_dataset


@pytest.fixture(scope="module")
def ncfile(tmp_path_factory):
    # 16 weeks: a local run cuts maps on extraction-unit boundaries,
    # as a server does, so ``--splits 6`` needs at least 6 of them.
    path = tmp_path_factory.mktemp("cli") / "t.nc"
    temperature_dataset(days=112, lat=10, lon=8).write(path).close()
    return str(path)


class TestParseShape:
    def test_ok(self):
        assert _parse_shape("7,5,1") == (7, 5, 1)

    def test_bad(self):
        with pytest.raises(SystemExit):
            _parse_shape("7,x")


class TestInfo:
    def test_prints_cdl(self, ncfile, capsys):
        assert main(["info", ncfile]) == 0
        out = capsys.readouterr().out
        assert "time = 112;" in out
        assert "float temperature(time, lat, lon);" in out

    def test_missing_file_is_error(self, tmp_path, capsys):
        rc = main(["info", str(tmp_path / "nope.nc")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


class TestQuery:
    def test_weekly_mean(self, ncfile, capsys):
        rc = main(
            [
                "query", ncfile,
                "--variable", "temperature",
                "--extract", "7,5,1",
                "--operator", "mean",
                "--reduces", "3",
                "--splits", "6",
                "--limit", "3",
            ]
        )
        assert rc == 0
        cap = capsys.readouterr()
        lines = [l for l in cap.out.splitlines() if "\t" in l]
        assert len(lines) == 3
        key, value = lines[0].split("\t")
        assert key == "0,0,0"
        float(value)
        assert "early starts" in cap.err

    def test_filter_requires_threshold(self, ncfile, capsys):
        rc = main(
            [
                "query", ncfile,
                "--variable", "temperature",
                "--extract", "7,5,1",
                "--operator", "filter_gt",
                "--reduces", "2",
            ]
        )
        assert rc == 1
        assert "threshold" in capsys.readouterr().err

    def test_strided_query(self, ncfile, capsys):
        rc = main(
            [
                "query", ncfile,
                "--variable", "temperature",
                "--extract", "2,5,1",
                "--stride", "7,5,1",
                "--operator", "max",
                "--reduces", "2",
                "--splits", "4",
                "--limit", "0",
            ]
        )
        assert rc == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if "\t" in l]
        assert len(lines) == 16 * 2 * 8  # strided K'_T

    def test_columnar_plane_identical_output(self, ncfile, capsys):
        args = [
            "query", ncfile,
            "--variable", "temperature",
            "--extract", "7,5,1",
            "--operator", "mean",
            "--reduces", "3",
            "--splits", "6",
            "--limit", "0",
        ]
        assert main(args + ["--data-plane", "record"]) == 0
        cap = capsys.readouterr()
        record_out = cap.out
        assert "record data plane" in cap.err
        assert main(args) == 0  # columnar is the default
        cap = capsys.readouterr()
        assert cap.out == record_out
        assert "columnar data plane" in cap.err

    def test_serial_speculate_needs_a_retry(self, ncfile, capsys):
        """``--engine serial --speculate`` cancels a hung attempt and
        retries it in place: with one attempt the request is refused,
        as a server refuses it — an argparse error naming the fix,
        before anything runs."""
        args = [
            "query", ncfile, "--variable", "temperature",
            "--extract", "7,5,1", "--reduces", "4", "--limit", "1",
            "--engine", "serial", "--speculate",
        ]
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 2
        assert "set max_attempts >= 2" in capsys.readouterr().err

    def test_unreleased_hang_is_refused(self, ncfile, tmp_path, capsys):
        """A hang fault with neither ``--speculate`` nor ``--deadline``
        would hold a local run forever: refused as a server refuses it."""
        pf = tmp_path / "hang.json"
        pf.write_text(json.dumps({"rules": [
            {"task": "map", "fault": "hang", "indices": [0]}
        ]}))
        with pytest.raises(SystemExit) as exc:
            main([
                "query", ncfile, "--variable", "temperature",
                "--extract", "7,5,1", "--inject-faults", str(pf),
            ])
        assert exc.value.code == 2
        assert "released only by speculation or a deadline" in (
            capsys.readouterr().err
        )

    def test_serial_eta_prices_one_worker_a_phase(
        self, ncfile, tmp_path, monkeypatch, capsys
    ):
        """A serial run's estimator divides the remaining work by one
        worker a phase, not by the pool sizes it does not run."""
        import repro.obs

        made = []

        class Eta(repro.obs.CostModelEta):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(self)

        monkeypatch.setattr(repro.obs, "CostModelEta", Eta)
        base = [
            "query", ncfile, "--variable", "temperature",
            "--extract", "7,5,1", "--reduces", "3", "--limit", "1",
            "--status", str(tmp_path / "status.json"),
        ]
        assert main([*base, "--engine", "serial"]) == 0
        assert main([*base, "--engine", "threaded"]) == 0
        serial, threaded = made
        assert (serial.map_workers, serial.reduce_workers) == (1, 1)
        assert (threaded.map_workers, threaded.reduce_workers) == (4, 3)

    def test_record_plane_is_refused_with_a_server(self, capsys):
        """The record plane is the local reference engine: naming it
        with ``--server`` fails before anything is submitted (nothing
        listens on the URL — the check comes first)."""
        with pytest.raises(SystemExit, match="runs locally only"):
            main(
                [
                    "query", "some-dataset",
                    "--variable", "temperature",
                    "--extract", "7,5,1",
                    "--data-plane", "record",
                    "--server", "http://127.0.0.1:9",
                ]
            )

    @pytest.mark.parametrize("operator", ["median", "sort"])
    def test_columnar_runs_holistic(self, ncfile, capsys, operator):
        args = [
            "query", ncfile,
            "--variable", "temperature",
            "--extract", "7,5,1",
            "--operator", operator,
            "--reduces", "2",
            "--splits", "4",
            "--limit", "0",
        ]
        assert main(args + ["--data-plane", "record"]) == 0
        cap = capsys.readouterr()
        record_out = cap.out
        assert "record data plane" in cap.err
        assert main(args) == 0  # columnar is the default
        cap = capsys.readouterr()
        assert cap.out == record_out
        assert "columnar data plane" in cap.err
        assert "unavailable" not in cap.err

    def test_unknown_variable(self, ncfile, capsys):
        rc = main(
            [
                "query", ncfile,
                "--variable", "nope",
                "--extract", "1,1,1",
            ]
        )
        assert rc == 1


class TestSplitLadder:
    """One split function for local and served queries: ``query`` and
    ``query --server`` cut the same maps on extraction-unit boundaries,
    so they print the same records — dividing, non-dividing and strided
    extractions alike."""

    @pytest.fixture(scope="class")
    def server_url(self, ncfile):
        from repro.service import QueryService, ServiceServer

        service = QueryService(workers=1)
        service.open_dataset("t", ncfile)
        server = ServiceServer(service)
        host, port = asyncio.run_coroutine_threadsafe(
            server.start(), service.loop
        ).result(10)
        asyncio.run_coroutine_threadsafe(
            server.serve_until_shutdown(), service.loop
        )
        try:
            yield f"http://{host}:{port}"
        finally:
            service.close()

    @pytest.mark.parametrize(
        "shape", [["7,5,1"], ["6,5,1"], ["5,4,1", "--stride", "7,5,1"]],
        ids=["dividing", "non-dividing", "strided"],
    )
    def test_local_and_served_print_the_same_records(
        self, ncfile, server_url, capsys, shape
    ):
        args = [
            "--variable", "temperature", "--extract", *shape,
            "--reduces", "4", "--splits", "5", "--limit", "0",
        ]
        assert main(["query", ncfile, *args]) == 0
        local = capsys.readouterr()
        assert main(["query", "t", "--server", server_url, *args]) == 0
        served = capsys.readouterr().out
        assert served == local.out and served.count("\n") > 0
        assert "# 5 map tasks" in local.err


class TestQueryTrace:
    def test_trace_is_valid_chrome_json(self, ncfile, tmp_path, capsys):
        """Acceptance: ``query --trace out.json`` writes a loadable
        Chrome trace_event document with complete span events."""
        trace = tmp_path / "out.json"
        metrics = tmp_path / "m.json"
        rc = main(
            [
                "query", ncfile,
                "--variable", "temperature",
                "--extract", "7,5,2",
                "--operator", "mean",
                "--reduces", "3",
                "--splits", "6",
                "--limit", "1",
                "--trace", str(trace),
                "--metrics", str(metrics),
            ]
        )
        assert rc == 0
        doc = json.loads(trace.read_text())
        xs = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
        assert xs
        for e in xs:
            assert {"pid", "tid", "ts", "dur", "name", "cat"} <= set(e)
        jobs = [e for e in xs if e["cat"] == "job"]
        assert len(jobs) == 1
        reduces = [e for e in xs if e["cat"] == "task" and e["name"] == "reduce"]
        assert len(reduces) == 3
        assert all(
            e["args"]["parent_id"] == jobs[0]["args"]["span_id"]
            for e in reduces
        )
        waits = [e for e in xs if e["name"] == "barrier.wait"]
        assert len(waits) == 3
        mdoc = json.loads(metrics.read_text())
        assert "counters" in mdoc

    def test_report_renders_saved_trace(self, ncfile, tmp_path, capsys):
        trace = tmp_path / "out.json"
        main(
            [
                "query", ncfile,
                "--variable", "temperature",
                "--extract", "7,5,2",
                "--operator", "mean",
                "--reduces", "2",
                "--splits", "4",
                "--limit", "0",
                "--trace", str(trace),
            ]
        )
        capsys.readouterr()
        rc = main(["report", str(trace)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "per-phase totals:" in out
        assert "barrier waits (per reduce):" in out

    def test_report_reads_events_and_trace_alike(self, ncfile, tmp_path, capsys):
        """One run's ``--events`` JSONL and its ``--trace`` Chrome file
        report the same spans: the trace is a reading of the events."""
        events, trace = tmp_path / "e.jsonl", tmp_path / "t.json"
        assert main(
            [
                "query", ncfile, "--variable", "temperature",
                "--extract", "7,5,1", "--operator", "mean",
                "--reduces", "4", "--splits", "16", "--limit", "0",
                "--events", str(events), "--trace", str(trace),
            ]
        ) == 0
        capsys.readouterr()

        def span_counts(path):
            assert main(["report", str(path)]) == 0
            out = capsys.readouterr().out
            header, table = out.split("per-phase totals:\n")
            rows = table.split("\n\n")[0].splitlines()[2:]
            return header.split()[1], {
                row.split()[0]: int(row.split()[1]) for row in rows
            }

        (label, from_events), (_, from_trace) = span_counts(events), span_counts(trace)
        assert label == "sidr-mean-temperature"
        assert from_events == from_trace
        assert {name: from_events[name] for name in (
            "map.read", "map.spill", "reduce.fetch", "reduce.reduce",
            "barrier.wait",
        )} == {
            "map.read": 16, "map.spill": 16, "reduce.fetch": 4,
            "reduce.reduce": 4, "barrier.wait": 4,
        }

    def test_report_of_unrelated_jsonl_is_error(self, tmp_path, capsys):
        path = tmp_path / "other.jsonl"
        path.write_text('{"a": 1}\n{"b": 2}\n')
        assert main(["report", str(path)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_trace_jsonl_is_refused(self, ncfile, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["query", ncfile, "--variable", "temperature",
                  "--extract", "7,5,1", "--trace", str(tmp_path / "t.jsonl")])
        assert exit_info.value.code == 2
        assert "--events" in capsys.readouterr().err

    def test_report_missing_file_is_error(self, tmp_path, capsys):
        rc = main(["report", str(tmp_path / "nope.json")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


class TestSimulate:
    def test_fig13_fast(self, capsys):
        rc = main(["simulate", "--figure", "13", "--scale", "20"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Figure 13" in out
        assert "speedup" in out

    def test_fig12_fast(self, capsys):
        rc = main(["simulate", "--figure", "12", "--scale", "20", "--runs", "2"])
        assert rc == 0
        assert "Figure 12" in capsys.readouterr().out

    def test_simulate_trace_export(self, tmp_path, capsys):
        trace = tmp_path / "sim.json"
        rc = main(
            ["simulate", "--figure", "13", "--scale", "20",
             "--trace", str(trace)]
        )
        assert rc == 0
        doc = json.loads(trace.read_text())
        labels = {
            e["args"]["name"]
            for e in doc["traceEvents"]
            if e.get("ph") == "M" and e["name"] == "process_name"
        }
        assert labels == {"stock", "SIDR"}
        capsys.readouterr()
        assert main(["report", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "== stock ==" in out and "== SIDR ==" in out


class TestTables:
    def test_partition_table(self, capsys):
        # Uses a smaller run through the real producer (full 6.48M keys
        # is the bench's job; here we only check the CLI wiring).
        rc = main(["tables", "--table", "partition"])
        assert rc == 0
        assert "partition+" in capsys.readouterr().out

    def test_unknown_table(self):
        with pytest.raises(SystemExit):
            main(["tables", "--table", "99"])


class TestLiveFlags:
    def test_events_and_status_files(self, ncfile, tmp_path, capsys):
        ev_path = tmp_path / "events.jsonl"
        st_path = tmp_path / "status.json"
        rc = main(
            [
                "query", ncfile,
                "--variable", "temperature",
                "--extract", "7,5,1",
                "--operator", "mean",
                "--reduces", "3",
                "--splits", "6",
                "--limit", "2",
                "--events", str(ev_path),
                "--status", str(st_path),
            ]
        )
        assert rc == 0
        assert "events streamed" in capsys.readouterr().err

        from repro.obs.live import phase_totals, read_events

        events = read_events(ev_path)
        assert events[0].type == "job.start"
        assert events[-1].type == "job.finish"
        totals = phase_totals(events)
        assert totals["map"] == {"started": 6, "finished": 6}
        assert totals["reduce"] == {"started": 3, "finished": 3}
        assert totals["barriers_fired"] == 3

        status = json.loads(st_path.read_text())
        assert status["state"] == "done"
        assert status["progress"] == 1.0
        assert status["maps"]["done"] == 6
        assert status["events"] == {"published": len(events)}

    def test_live_renders_on_non_tty(self, ncfile, capsys):
        rc = main(
            [
                "query", ncfile,
                "--variable", "temperature",
                "--extract", "7,5,1",
                "--reduces", "3",
                "--splits", "6",
                "--limit", "1",
                "--live",
            ]
        )
        assert rc == 0
        err = capsys.readouterr().err
        # The final frame always paints, even when the run outpaces the
        # (slowed-down) non-tty refresh interval.
        assert "maps" in err and "reduces" in err

    def test_slow_fault_straggler_reaches_stream(
        self, ncfile, tmp_path, capsys
    ):
        plan = {
            "seed": 0,
            "rules": [
                {"task": "map", "fault": "slow",
                 "indices": [3], "delay": 0.3}
            ],
        }
        pf = tmp_path / "slow.json"
        pf.write_text(json.dumps(plan))
        ev_path = tmp_path / "events.jsonl"
        rc = main(
            [
                "query", ncfile,
                "--variable", "temperature",
                "--extract", "7,5,1",
                "--reduces", "3",
                "--splits", "6",
                "--limit", "1",
                "--inject-faults", str(pf),
                "--events", str(ev_path),
            ]
        )
        assert rc == 0

        from repro.obs.live import phase_totals, read_events

        events = read_events(ev_path)
        totals = phase_totals(events)
        assert totals["stragglers"] >= 1
        flagged = [e for e in events if e.type == "task.straggler"]
        assert ("map", 3) in {(e.kind, e.index) for e in flagged}

    def test_one_straggler_flag_per_attempt_under_speculate(
        self, ncfile, tmp_path, capsys
    ):
        """``--speculate`` brings the run's own detector: the CLI adds no
        second one to the bus, which would flag — and count — every
        straggler twice."""
        plan = {
            "seed": 0,
            "rules": [
                {"task": "map", "fault": "slow", "indices": [5], "delay": 0.4}
            ],
        }
        pf = tmp_path / "slow.json"
        pf.write_text(json.dumps(plan))
        ev_path = tmp_path / "events.jsonl"
        m_path = tmp_path / "metrics.json"
        rc = main(
            [
                "query", ncfile,
                "--variable", "temperature",
                "--extract", "7,5,1",
                "--reduces", "4",
                "--splits", "16",
                "--limit", "1",
                "--engine", "threaded",
                "--speculate",
                "--inject-faults", str(pf),
                "--events", str(ev_path),
                "--metrics", str(m_path),
            ]
        )
        assert rc == 0

        from collections import Counter

        from repro.obs.live import read_events

        events = read_events(ev_path)
        flags = Counter(
            (e.kind, e.index, e.attempt)
            for e in events
            if e.type == "task.straggler"
        )
        assert ("map", 5, 0) in flags
        assert max(flags.values()) == 1, flags
        run = json.loads(m_path.read_text())[events[0].data["name"]]
        assert run["counters"]["sched.stragglers.flagged"] == len(flags)


class TestFaultFlags:
    def test_query_with_injected_faults(self, ncfile, tmp_path, capsys):
        plan = {
            "seed": 7,
            "rules": [
                {"task": "map", "fault": "transient",
                 "indices": [0, 2], "times": 1}
            ],
        }
        pf = tmp_path / "plan.json"
        pf.write_text(json.dumps(plan))
        rc = main(
            [
                "query", ncfile,
                "--variable", "temperature",
                "--extract", "7,5,1",
                "--reduces", "3",
                "--splits", "6",
                "--limit", "2",
                "--inject-faults", str(pf),
                "--max-attempts", "3",
            ]
        )
        assert rc == 0
        err = capsys.readouterr().err
        assert "2 retries" in err and "2 injected" in err

    @staticmethod
    def _requests(monkeypatch, args):
        """The request a ``query --server`` of ``args`` submits and the
        one a local ``query`` of ``args`` builds its engine from."""
        import repro.service
        from repro.service.api import QueryRequest

        sent = []

        class Client:
            def __init__(self, url):
                pass

            def submit(self, request):
                sent.append(request)
                return "j1"

            def result(self, job_id, timeout):
                return {"state": "failed", "error": "not run"}

            def close(self):
                pass

        class Built(Exception):
            pass

        def local_engine(self, *sizes):
            sent.append(self)
            raise Built

        monkeypatch.setattr(repro.service, "HttpServiceClient", Client)
        monkeypatch.setattr(QueryRequest, "local_engine", local_engine)
        assert main([*args, "--server", "http://127.0.0.1:9"]) == 1  # not run
        with pytest.raises(Built):
            main(args)
        served, local = sent
        return served, local

    @pytest.mark.parametrize("flag", [[], ["--fault-seed", "3"]], ids=["file", "flag"])
    def test_served_query_sends_the_seed_a_local_run_uses(
        self, tmp_path, monkeypatch, flag
    ):
        """Regression: ``query --server --inject-faults`` sent seed 0
        unless ``--fault-seed`` was given, so a fraction rule picked
        other maps than the same plan file picked locally."""
        pf = tmp_path / "plan.json"
        pf.write_text(json.dumps({"seed": 5, "rules": [
            {"task": "map", "fault": "transient", "fraction": 0.25, "times": 1}
        ]}))
        served, local = self._requests(monkeypatch, [
            "query", "t", "--variable", "temperature", "--extract", "7,5,1",
            "--inject-faults", str(pf), *flag,
        ])
        assert served.fault_seed == local.fault_seed == (3 if flag else 5)
        assert (
            served.injection_plan().bind(16, 4).selected(0)
            == local.injection_plan().bind(16, 4).selected(0)
        )

    @pytest.mark.parametrize("flags", [
        ["--inject-faults", "PLAN"],
        ["--inject-faults", "PLAN", "--fault-seed", "9"],
        ["--inject-faults", "PLAN", "--speculate", "--hang-timeout", "0.3"],
        ["--inject-faults", "PLAN", "--deadline", "2.5",
         "--on-deadline", "partial"],
        ["--max-attempts", "4", "--recovery", "reexecute-deps",
         "--engine", "serial", "--speculate"],
    ], ids=["plan", "seed", "speculate", "deadline", "attempts"])
    def test_local_and_served_runs_take_one_request(
        self, tmp_path, monkeypatch, flags
    ):
        """A local ``query`` and a ``--server`` one of the same arguments
        run the same request: its faults, seed, retries, recovery,
        speculation and deadline."""
        pf = tmp_path / "plan.json"
        pf.write_text(json.dumps({"seed": 5, "rules": [
            {"task": "map", "fault": "slow", "indices": [1], "delay": 0.1},
            {"kind": "transient", "task": "reduce", "fraction": 0.5},
        ]}))
        served, local = self._requests(monkeypatch, [
            "query", "t", "--variable", "temperature", "--extract", "7,5,1",
            "--operator", "max", "--reduces", "3",
            *(str(pf) if f == "PLAN" else f for f in flags),
        ])
        assert served == local

    def test_query_bad_plan_is_error(self, ncfile, tmp_path, capsys):
        pf = tmp_path / "bad.json"
        pf.write_text('{"rules": [{"task": "gpu", "fault": "crash"}]}')
        rc = main(
            [
                "query", ncfile,
                "--variable", "temperature",
                "--extract", "7,5,1",
                "--inject-faults", str(pf),
            ]
        )
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("plan", [
        {"seed": "x", "rules": []},
        {"rules": [{"task": "map", "fault": "transient", "indices": "x"}]},
    ], ids=["seed", "indices"])
    def test_query_plan_of_wrong_types_is_error(self, tmp_path, capsys, plan):
        """A plan file's values of the wrong type are the plan's error
        (exit 1), not a traceback."""
        pf = tmp_path / "bad.json"
        pf.write_text(json.dumps(plan))
        rc = main([
            "query", "t", "--variable", "temperature", "--extract", "7,5,1",
            "--inject-faults", str(pf),
        ])
        assert rc == 1
        assert "error: malformed plan" in capsys.readouterr().err

    def test_recovery_subcommand(self, ncfile, capsys):
        rc = main(
            [
                "recovery", ncfile,
                "--variable", "temperature",
                "--extract", "7,5,1",
                "--reduces", "3",
                "--splits", "6",
                "--fail-reduce", "1",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        for name in ("persisted", "reexecute-all", "reexecute-deps"):
            assert name in out
        assert "NO" not in out  # every design recovered byte-identically
        # The counts are the plan's: nothing, every map, |I_1|.
        from repro.query.language import StructuralQuery
        from repro.query.operators import MeanOp
        from repro.query.splits import aligned_slice_splits
        from repro.scidata.dataset import open_dataset
        from repro.sidr.planner import build_plan

        with open_dataset(ncfile) as ds:
            plan = StructuralQuery(
                variable="temperature", extraction_shape=(7, 5, 1),
                operator=MeanOp(),
            ).compile(ds.metadata)
        deps = build_plan(plan, aligned_slice_splits(plan, num_splits=6), 3).deps
        i_1 = len(deps.dependencies[1])
        assert 0 < i_1 < deps.num_splits == 6
        rows = (row.split() for row in out.splitlines())
        cells = {
            r[0]: r[1:3] for r in rows
            if r and r[0] in ("persisted", "reexecute-all", "reexecute-deps")
        }
        assert cells == {
            "persisted": ["0", "0"],
            "reexecute-all": ["6", "6"],
            "reexecute-deps": [str(i_1), str(i_1)],
        }
        assert "(s)" not in out and "predicted" not in out

    def test_speculation_subcommand(self, ncfile, capsys):
        """The hang → hedged backup → cancel drill, end to end."""
        rc = main(
            [
                "speculation", ncfile,
                "--variable", "temperature",
                "--extract", "7,5,1",
                "--reduces", "3",
                "--splits", "6",
                "--hang-map", "0",
                "--hang-timeout", "0.2",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        cells = {
            row.rsplit(None, 1)[0].strip(): row.rsplit(None, 1)[1]
            for row in out.splitlines()[3:]
        }
        assert int(cells["backups launched"]) >= 1
        assert int(cells["attempts cancelled"]) >= 1
        assert cells["output ok"] == "yes"
        assert "predicted" not in out and "delay" not in out


class TestVerify:
    def test_verify_small_sweep(self, capsys):
        rc = main(["verify", "--cases", "5", "--seed", "0", "--schedules", "2"])
        assert rc == 0
        cap = capsys.readouterr()
        assert "OK: 5 cases" in cap.out
        assert "verify.cases = 5" in cap.err
        assert "verify.mismatches = 0" in cap.err

    def test_verify_differential_only(self, capsys):
        rc = main(["verify", "--cases", "3", "--schedules", "0"])
        assert rc == 0
        assert "0 differential failures" in capsys.readouterr().out

    def test_verify_repro_replay(self, tmp_path, capsys):
        from repro.verify import FuzzCase, run_case, write_repro

        # a crash rule that cannot bind: succeeds everywhere, which is
        # a mismatch for an expects-failure case — a stable synthetic bug
        case = FuzzCase(
            seed=5, shape=(4, 2), extraction=(2, 2), stride=None,
            operator="sum", threshold=None, num_splits=2, reduces=1,
            fault_rules=({"task": "reduce", "fault": "crash",
                          "indices": [10]},),
        )
        result = run_case(case)
        path = write_repro(tmp_path, case, case, result)
        rc = main(["verify", "--repro", str(path)])
        assert rc == 1
        assert "still fails" in capsys.readouterr().out
