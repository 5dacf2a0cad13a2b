"""Command-line interface.

Subcommands mirroring the library's main entry points::

    python -m repro.cli info    FILE                 # show NCLite metadata
    python -m repro.cli query   FILE --variable V --extract 7,5,1 \\
                                --operator mean [--reduces 4] [--stride ...]
                                [--data-plane columnar|record]
                                [--live] [--events out.jsonl] [--status out.json]
                                [--trace out.json] [--metrics out.json]
                                [--inject-faults PLAN.json] [--fault-seed N]
                                [--max-attempts K] [--recovery MODE]
    python -m repro.cli simulate --figure 9|10|11|12|13 [--scale 10]
                                [--trace out.json] [--metrics out.json]
    python -m repro.cli report  TRACEFILE            # trace or --events JSONL
    python -m repro.cli tables  --table 2|3|partition
    python -m repro.cli recovery FILE --variable V --extract 7,5,1 ...
                                [--fail-reduce L] [--fault-seed N]
    python -m repro.cli verify  [--cases N] [--seed S] [--schedules K]
                                [--out DIR] [--repro FILE] [--engines TOKS]
    python -m repro.cli serve   [FILE ...] [--host H] [--port P]
                                [--workers N] [--events out.jsonl]

``query`` executes a structural query for real through the SIDR engine
(dependency barriers + count validation) and prints the output records;
``simulate`` regenerates a paper figure on the simulated cluster;
``tables`` regenerates a paper table.  ``--trace`` writes a Chrome
trace_event file loadable in Perfetto; ``--metrics`` writes the metric
snapshots as JSON; ``report`` renders a saved trace or ``--events``
JSONL as a human-readable per-phase breakdown.

``--live`` renders a refreshing status block (phase bars, cost-model
ETA, flagged stragglers) while the query runs; ``--events`` streams the
live event feed to a JSONL file as it happens; ``--status`` writes the
final ``snapshot()`` JSON status document.  See the "Live events"
section of ``docs/OBSERVABILITY.md``.

``serve`` keeps datasets open in a resident query service (shared
engine, content-keyed plan cache, per-tenant admission control) behind
a stdlib HTTP/JSON endpoint; ``query --server URL`` submits to it
instead of executing locally, with FILE naming a dataset registered on
the server.  See ``docs/SERVICE.md``.

``--inject-faults`` loads a fault-injection plan (schema in
``docs/FAULT_TOLERANCE.md``) and runs the query under it with
``--max-attempts`` retries per task; ``recovery`` injects one reduce
failure and runs the same job under all three §6 recovery designs,
printing the maps each re-executed next to the count the plan's
dependency map fixes (exit 1 on a mismatch); ``speculation`` hangs one
map and exits 1 unless a backup launched, an attempt was cancelled and
the output matches.

``verify`` runs the verification subsystem (:mod:`repro.verify`):
seeded differential fuzzing of {serial, threaded} × {record, columnar}
against a brute-force oracle, plus deterministic interleaving
exploration with barrier-invariant checking; failures are shrunk to
minimal JSON repros (replayable with ``--repro FILE``).
"""

from __future__ import annotations

import argparse
import sys
import tempfile

from repro.errors import ReproError


def _parse_shape(text: str) -> tuple[int, ...]:
    try:
        shape = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise SystemExit(f"invalid shape {text!r}; expected e.g. 7,5,1")
    if not shape:
        raise SystemExit("empty shape")
    return shape


def _trace_path(text: str) -> str:
    """``--trace`` writes Chrome JSON only: the line format is the
    ``--events`` JSONL."""
    if text.endswith(".jsonl"):
        raise argparse.ArgumentTypeError(
            f"{text}: --trace writes a Chrome trace (.json); for a JSONL "
            "stream use --events"
        )
    return text


def cmd_info(args: argparse.Namespace) -> int:
    from repro.scidata.dataset import open_dataset

    with open_dataset(args.file) as ds:
        print(ds.to_cdl())
        for v in ds.metadata.variables:
            shape = ds.variable_shape(v.name)
            nbytes = ds.metadata.variable_nbytes(v.name)
            print(
                f"// variable {v.name}: shape {list(shape)}, "
                f"{nbytes / (1 << 20):.1f} MiB"
            )
    return 0


def _compile_query(args: argparse.Namespace):
    """Shared query/recovery/speculation front half: compile the
    structural query against the file's metadata and cut map splits
    the way the service does — on extraction-unit boundaries — so a
    local run and ``--server`` run the same maps."""
    from repro.query.language import StructuralQuery
    from repro.query.operators import get_operator
    from repro.query.splits import aligned_slice_splits
    from repro.scidata.dataset import open_dataset

    op = get_operator(args.operator, threshold=args.threshold)
    q = StructuralQuery(
        variable=args.variable,
        extraction_shape=_parse_shape(args.extract),
        operator=op,
        stride=_parse_shape(args.stride) if args.stride else None,
    )
    with open_dataset(args.file) as ds:
        plan = q.compile(ds.metadata)
    splits = aligned_slice_splits(plan, num_splits=args.splits)
    return plan, splits


def _cmd_query_remote(args: argparse.Namespace) -> int:
    """Client mode: submit the query to a running ``repro.cli serve``
    instance instead of executing locally.  FILE is the *dataset name*
    registered with the server."""
    if args.data_plane == "record":
        raise SystemExit(
            "--data-plane record runs locally only: a server serves the "
            "columnar plane (drop --server to run the reference engine)"
        )
    import json

    from repro.service import HttpServiceClient, QueryRequest

    client = HttpServiceClient(args.server)
    rules = ()
    if args.inject_faults:
        from pathlib import Path

        plan_doc = json.loads(Path(args.inject_faults).read_text())
        rules = tuple(plan_doc.get("rules", ()))
    request = QueryRequest(
        dataset=args.file,
        variable=args.variable,
        extract=_parse_shape(args.extract),
        stride=_parse_shape(args.stride) if args.stride else None,
        operator=args.operator,
        threshold=args.threshold,
        splits=args.splits,
        reduces=args.reduces,
        engine=args.engine,
        prune=not args.no_prune,
        tenant=args.tenant,
        priority=args.priority,
        deadline=args.deadline,
        on_deadline=args.on_deadline,
        max_attempts=args.max_attempts,
        recovery=args.recovery,
        fault_rules=rules,
        fault_seed=args.fault_seed or 0,
        speculate=args.speculate,
        hang_timeout=args.hang_timeout,
    )
    request.validate()
    job_id = client.submit(request)
    print(f"# submitted as {job_id} to {args.server}", file=sys.stderr)
    doc = client.result(job_id, timeout=600.0)
    client.close()
    if doc["state"] != "done":
        print(
            f"error: job {job_id} {doc['state']}: {doc.get('error')}",
            file=sys.stderr,
        )
        return 1
    if doc.get("evicted"):
        print(
            f"error: job {job_id} is done (digest {doc['digest'][:12]}) but "
            "the server no longer holds its records",
            file=sys.stderr,
        )
        return 1
    print(
        f"# job {job_id}: plan cache "
        f"{'hit' if doc['plan_cache_hit'] else 'miss'}, "
        f"digest {doc['digest'][:12]}, {doc['num_records']} records, "
        f"{doc['parts']} part{'s' if doc['parts'] > 1 else ''}",
        file=sys.stderr,
    )
    if doc.get("partial"):
        print("# DEADLINE EXPIRED — partial result", file=sys.stderr)
    limit = args.limit
    for i, (key, value) in enumerate(doc["records"]):
        if limit and i >= limit:
            print(f"... ({len(doc['records']) - limit} more)")
            break
        print(f"{','.join(map(str, key))}\t{value}")
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.faults import InjectionPlan, RecoveryModel
    from repro.mapreduce.engine import LocalEngine, RetryPolicy
    from repro.sidr.planner import build_sidr_job

    if args.server:
        return _cmd_query_remote(args)

    fault_plan = None
    if args.inject_faults:
        fault_plan = InjectionPlan.from_json(
            Path(args.inject_faults).read_text(),
            seed_override=args.fault_seed,
        )
    speculation = None
    if args.speculate:
        from repro.spec import SpeculationPolicy

        speculation = SpeculationPolicy(hang_timeout=args.hang_timeout)
    engine = LocalEngine(
        map_workers=args.map_workers,
        reduce_workers=args.reduce_workers,
        retry=RetryPolicy(max_attempts=args.max_attempts),
        faults=fault_plan,
        recovery=RecoveryModel.parse(args.recovery),
        speculation=speculation,
    )
    plan, splits = _compile_query(args)
    print(f"# {plan.describe()}", file=sys.stderr)
    job, barrier, sidr = build_sidr_job(
        plan, splits, args.reduces, source=args.file,
        data_plane=args.data_plane, prune=not args.no_prune,
    )
    if args.deadline is not None:
        if args.deadline <= 0:
            raise SystemExit(f"--deadline must be positive, got {args.deadline}")
        job.deadline = args.deadline
        job.on_deadline = args.on_deadline

    # Live observability plane: any of --live/--events/--status attaches
    # an event bus to the run (docs/OBSERVABILITY.md, "Live events").
    obs = progress = detector = writer = renderer = None
    if args.live or args.events or args.status:
        from repro.obs import (
            CostModelEta,
            EventBus,
            JobObservability,
            JsonlEventWriter,
            LiveRenderer,
            MetricsRegistry,
            ProgressTracker,
            StragglerDetector,
        )

        metrics = MetricsRegistry()
        bus = EventBus(metrics=metrics)
        obs = JobObservability(job.name, metrics=metrics, bus=bus)
        estimator = CostModelEta(
            sidr,
            map_workers=engine.map_workers,
            reduce_workers=engine.reduce_workers,
        )
        progress = ProgressTracker(bus, estimator=estimator)
        if speculation is None:
            # A speculating run flags stragglers with its own detector;
            # a second one reading the record would flag every attempt
            # twice.
            detector = StragglerDetector(bus).start_ticker()
        if args.events:
            writer = JsonlEventWriter(bus, args.events)
        if args.live:
            renderer = LiveRenderer(progress).start()

    try:
        res = engine.run(job, barrier, mode=args.engine, obs=obs)
    finally:
        if detector is not None:
            detector.stop_ticker()
        if renderer is not None:
            renderer.stop()
        if writer is not None:
            writer.close()
            print(
                f"# {writer.written} events streamed to {writer.path} "
                f"({writer.write_errors} write errors)",
                file=sys.stderr,
            )
        if args.status and progress is not None:
            Path(args.status).write_text(
                json.dumps(progress.snapshot(), indent=2) + "\n"
            )
            print(f"# status snapshot written to {args.status}", file=sys.stderr)
    print(
        f"# {len(job.splits)} map tasks, {args.reduces} reduce tasks, "
        f"{res.counters.get('barrier.early.starts')} early starts, "
        f"{res.shuffle_connections} shuffle connections, "
        f"{job.data_plane} data plane",
        file=sys.stderr,
    )
    if sidr.pruning is not None:
        print(
            f"# zone maps pruned {sidr.pruning.num_pruned}/"
            f"{sidr.pruning.original_splits} splits, synthesized "
            f"{sidr.pruning.num_synth_keys} keys (--no-prune disables)",
            file=sys.stderr,
        )
    if fault_plan is not None or args.max_attempts > 1:
        print(
            f"# {res.counters.get('task.attempts')} attempts, "
            f"{res.counters.get('task.failures')} failures "
            f"({res.counters.get('faults.injected')} injected), "
            f"{res.counters.get('task.retries')} retries, "
            f"{res.counters.get('recovery.maps_reexecuted')} maps re-executed",
            file=sys.stderr,
        )
    if speculation is not None:
        print(
            f"# {res.counters.get('task.speculations')} speculative "
            f"launches, {res.counters.get('task.cancelled')} attempts "
            f"cancelled",
            file=sys.stderr,
        )
    if res.partial:
        print(
            f"# DEADLINE EXPIRED — partial result: "
            f"{len(res.outputs)}/{args.reduces} partitions completed",
            file=sys.stderr,
        )
    if args.trace or args.metrics:
        from repro.obs import write_chrome_trace, write_metrics

        run = (job.name, res.obs)
        if args.trace:
            write_chrome_trace(args.trace, run)
            print(f"# trace written to {args.trace}", file=sys.stderr)
        if args.metrics:
            write_metrics(
                args.metrics, run, extra={"counters": res.counters.as_dict()}
            )
            print(f"# metrics written to {args.metrics}", file=sys.stderr)
    limit = args.limit
    for i, (k, v) in enumerate(res.all_records()):
        if limit and i >= limit:
            print(f"... ({plan.num_intermediate_keys - limit} more)")
            break
        print(f"{','.join(map(str, k))}\t{v}")
    return 0


def cmd_recovery(args: argparse.Namespace) -> int:
    """Inject one reduce failure and run the three §6 recovery designs
    on the real engine — maps re-executed against the count the plan's
    dependency map fixes (0, every map, ``|I_l|``)."""
    from repro.bench.report import format_table
    from repro.faults import (
        WHEN_AFTER_FETCH,
        FaultKind,
        FaultRule,
        InjectionPlan,
        RecoveryModel,
    )
    from repro.mapreduce.engine import LocalEngine, RetryPolicy
    from repro.sidr.planner import build_sidr_job

    plan, splits = _compile_query(args)
    print(f"# {plan.describe()}", file=sys.stderr)
    fail_reduce = args.fail_reduce
    if not (0 <= fail_reduce < args.reduces):
        raise SystemExit(
            f"--fail-reduce {fail_reduce} out of range 0..{args.reduces - 1}"
        )

    def run(engine):
        job, barrier, sidr = build_sidr_job(
            plan, splits, args.reduces, source=args.file
        )
        # Serial: under threads, re-running every map can invalidate
        # another in-flight reduce, whose own recovery adds to the count.
        return engine.run_serial(job, barrier), sidr.deps

    baseline, deps = run(LocalEngine())
    expected = baseline.all_records()
    expected_maps = {
        RecoveryModel.PERSISTED: 0,
        RecoveryModel.REEXECUTE_ALL: deps.num_splits,
        RecoveryModel.REEXECUTE_DEPS: len(deps.dependencies[fail_reduce]),
    }

    fault = InjectionPlan(
        rules=(
            FaultRule(
                task="reduce",
                kind=FaultKind.TRANSIENT,
                indices=frozenset({fail_reduce}),
                times=1,
                when=WHEN_AFTER_FETCH,
                message="cli recovery drill",
            ),
        ),
        seed=args.fault_seed,
    )
    rows = []
    for model in RecoveryModel:
        engine = LocalEngine(
            retry=RetryPolicy(max_attempts=3, backoff_base=0.0),
            faults=fault,
            recovery=model,
        )
        res, _ = run(engine)
        rows.append(
            [
                model.value,
                res.counters.get("recovery.maps_reexecuted"),
                expected_maps[model],
                "yes" if res.all_records() == expected else "NO",
            ]
        )
    print(
        format_table(
            ["model", "maps re-run", "expected", "output ok"],
            rows,
            title=(
                f"recovery drill — reduce {fail_reduce} fails once "
                f"after fetch ({deps.num_splits} maps, {args.reduces} reduces)"
            ),
        )
    )
    rc = 0
    if any(r[1] != r[2] for r in rows):
        print(
            "error: maps re-executed differ from the plan's dependency map",
            file=sys.stderr,
        )
        rc = 1
    if any(r[-1] == "NO" for r in rows):
        print("error: recovered output differs from baseline", file=sys.stderr)
        rc = 1
    return rc


def cmd_speculation(args: argparse.Namespace) -> int:
    """Inject one map hang and run the job under hedged speculation:
    a backup must launch, an attempt must be cancelled and the output
    must match the fault-free run."""
    from repro.bench.report import format_table
    from repro.faults import FaultKind, FaultRule, InjectionPlan
    from repro.mapreduce.engine import LocalEngine, RetryPolicy
    from repro.sidr.planner import build_sidr_job
    from repro.spec import SpeculationPolicy

    plan, splits = _compile_query(args)
    print(f"# {plan.describe()}", file=sys.stderr)
    hang_map = args.hang_map
    if not (0 <= hang_map < len(splits)):
        raise SystemExit(
            f"--hang-map {hang_map} out of range 0..{len(splits) - 1}"
        )

    def run(engine):
        job, barrier, _ = build_sidr_job(
            plan, splits, args.reduces, source=args.file
        )
        return engine.run_threaded(job, barrier)

    expected = run(LocalEngine()).all_records()
    fault = InjectionPlan(
        rules=(
            FaultRule(
                task="map",
                kind=FaultKind.HANG,
                indices=frozenset({hang_map}),
                times=1,
            ),
        ),
        seed=args.fault_seed,
    )
    engine = LocalEngine(
        retry=RetryPolicy(max_attempts=3, backoff_base=0.0),
        faults=fault,
        speculation=SpeculationPolicy(hang_timeout=args.hang_timeout),
    )
    res = run(engine)
    backups = res.counters.get("task.speculations")
    cancelled = res.counters.get("task.cancelled")
    ok = res.all_records() == expected
    print(
        format_table(
            ["metric", "measured"],
            [
                ["backups launched", backups],
                ["attempts cancelled", cancelled],
                ["output ok", "yes" if ok else "NO"],
            ],
            title=(
                f"speculation drill — map {hang_map} hangs once "
                f"({len(splits)} maps, {args.reduces} reduces, "
                f"timeout {args.hang_timeout}s)"
            ),
        )
    )
    rc = 0
    if backups < 1 or cancelled < 1:
        print(
            "error: the hang was not hedged (no backup launched or no "
            "attempt cancelled)",
            file=sys.stderr,
        )
        rc = 1
    if not ok:
        print("error: speculated output differs from baseline", file=sys.stderr)
        rc = 1
    return rc


def cmd_serve(args: argparse.Namespace) -> int:
    """Start the resident query service (docs/SERVICE.md)."""
    import asyncio
    import os

    from repro.service import QueryService, TenantQuota, serve

    default_quota = None
    if args.max_active or args.failure_budget:
        default_quota = TenantQuota(
            max_active=args.max_active or None,
            failure_budget=args.failure_budget or None,
        )
    service = QueryService(
        workers=args.workers,
        map_workers=args.map_workers,
        reduce_workers=args.reduce_workers,
        plan_cache_capacity=args.plan_cache,
        default_quota=default_quota,
        events_path=args.events,
    )
    for path in args.files:
        name = os.path.splitext(os.path.basename(path))[0]
        session = service.open_dataset(name, path)
        print(
            f"# dataset {name!r} from {path} "
            f"(digest {session.digest[:12]}, mmap={session.snapshot()['mmap']})",
            file=sys.stderr,
        )
    try:
        asyncio.run(serve(service, host=args.host, port=args.port))
    except KeyboardInterrupt:
        print("# interrupted; shutting down", file=sys.stderr)
    finally:
        service.close()
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    """Differential fuzzing + interleaving exploration (docs/TESTING.md)."""
    import os

    from repro.errors import JobConfigError, QueryError
    from repro.obs.metrics import MetricsRegistry
    from repro.verify import fuzz, load_repro, run_case
    from repro.verify.cases import operator_pool
    from repro.verify.fuzz import _engine_configs

    if args.engines:
        os.environ["REPRO_VERIFY_ENGINES"] = args.engines
    try:
        _engine_configs()
    except JobConfigError as exc:
        # A usage error, like argparse's own: a run pinned to a leg that
        # does not exist must not read as a verdict on the engines.
        print(f"error: {exc}", file=sys.stderr)
        return 2

    metrics = MetricsRegistry()

    if args.repro:
        case = load_repro(args.repro)
        print(f"# replaying {args.repro}: {case.describe()}", file=sys.stderr)
        result = run_case(case, metrics=metrics)
        if result.ok:
            print("repro case passes (fixed?)")
            return 0
        print(f"repro case still fails: {result.mismatch}")
        for o in result.outcomes:
            print(
                f"  {o.config}: {o.status}"
                + (f" digest {o.digest[:12]}" if o.digest else "")
                + (f" errors {', '.join(o.error_types)}" if o.error_types else "")
            )
        return 1

    operators = None
    if args.operators:
        try:
            operators = operator_pool(
                name.strip() for name in args.operators.split(",") if name.strip()
            )
        except QueryError as exc:
            # A usage error too: it must not pass by fuzzing the others.
            print(f"error: {exc}", file=sys.stderr)
            return 2
    report = fuzz(
        args.cases,
        seed=args.seed,
        schedules=args.schedules,
        out_dir=args.out,
        metrics=metrics,
        shrink=not args.no_shrink,
        operators=operators,
    )
    print(report.summary())
    for f in report.failures:
        print(f"case {f.index}: {f.case.describe()}")
        if f.result.mismatch:
            print(f"  mismatch: {f.result.mismatch}")
        if f.exploration is not None and not f.exploration.ok:
            print(f"  exploration: {f.exploration.summary()}")
            for v in f.exploration.violations:
                print(f"    {v}")
        if f.repro_path is not None:
            print(f"  repro written to {f.repro_path}")
    for name in sorted(
        ("verify.cases", "verify.mismatches", "verify.explorer.schedules",
         "verify.explorer.violations", "verify.explorer.divergent")
    ):
        print(f"# {name} = {metrics.counter(name).value}", file=sys.stderr)
    return 0 if report.ok else 1


def cmd_simulate(args: argparse.Namespace) -> int:
    from repro.bench import figures
    from repro.bench.report import format_series, format_table

    fns = {
        "9": lambda: figures.fig09_task_completion(scale=args.scale),
        "10": lambda: figures.fig10_reduce_scaling(
            scale=args.scale,
            sidr_reduce_counts=(22, 66, 176) if args.scale > 1 else (22, 66, 176, 528),
        ),
        "11": lambda: figures.fig11_filter_query(scale=args.scale),
        "12": lambda: figures.fig12_variance(scale=args.scale, runs=args.runs),
        "13": lambda: figures.fig13_skew(scale=args.scale),
    }
    if args.figure not in fns:
        raise SystemExit(f"unknown figure {args.figure}; pick from {sorted(fns)}")
    result = fns[args.figure]()
    print(
        format_series(
            {k: c for k, c in result.curves.items() if "Reduce" in k},
            title=f"{result.figure} — output availability over time",
        )
    )
    rows = [
        [name] + [f"{v:.1f}" for v in s.values()]
        for name, s in result.summaries.items()
    ]
    headers = ["run"] + list(next(iter(result.summaries.values())).keys())
    print()
    print(format_table(headers, rows, title="summaries"))
    if result.notes:
        for k, v in result.notes.items():
            print(f"note: {k} = {v:.3f}")
    if args.trace or args.metrics:
        from repro.obs import write_chrome_trace, write_metrics

        runs = [
            (label, tl.to_observability(label))
            for label, tl in result.timelines.items()
        ]
        if args.trace:
            write_chrome_trace(args.trace, runs)
            print(f"# trace written to {args.trace}", file=sys.stderr)
        if args.metrics:
            write_metrics(args.metrics, runs)
            print(f"# metrics written to {args.metrics}", file=sys.stderr)
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from repro.obs import format_report, load_trace

    runs = load_trace(args.tracefile)
    if not runs:
        print(f"error: no runs found in {args.tracefile}", file=sys.stderr)
        return 1
    print(format_report(runs))
    return 0


def cmd_tables(args: argparse.Namespace) -> int:
    from repro.bench import tables as T
    from repro.bench.report import format_table

    if args.table == "3":
        rows = T.table3_network_connections()
        print(
            format_table(
                ["maps/reduces", "Hadoop", "SIDR"],
                [
                    [f"{r.num_maps}/{r.num_reduces}", r.hadoop_connections, r.sidr_connections]
                    for r in rows
                ],
                title="Table 3 — network connections",
            )
        )
    elif args.table == "2":
        with tempfile.TemporaryDirectory() as d:
            rows = T.table2_reduce_write_scaling(d)
        print(
            format_table(
                ["strategy", "reduces", "time (s)", "size (MB)", "seeks"],
                [
                    [r.strategy, r.total_reduces, r.seconds_mean,
                     r.file_size_bytes / (1 << 20), r.seeks]
                    for r in rows
                ],
                title="Table 2 — reduce write scaling (laptop scale)",
            )
        )
    elif args.table == "partition":
        res = T.sec45_partition_micro()
        print(
            format_table(
                ["function", "time (ms)"],
                [
                    ["default hash", res.default_seconds * 1e3],
                    ["partition+", res.partition_plus_seconds * 1e3],
                ],
                title=f"§4.5 — {res.num_keys / 1e6:.2f}M keys "
                f"(slowdown {res.slowdown:.2f}x)",
            )
        )
    else:
        raise SystemExit(f"unknown table {args.table!r}; pick 2, 3, or partition")
    return 0


def build_parser() -> argparse.ArgumentParser:
    from repro.query.operators import OPERATOR_NAMES

    p = argparse.ArgumentParser(
        prog="repro",
        description="SIDR (SC '13) reproduction: query, simulate, report.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    p_info = sub.add_parser("info", help="show NCLite file metadata")
    p_info.add_argument("file")
    p_info.set_defaults(fn=cmd_info)

    p_query = sub.add_parser("query", help="run a structural query via SIDR")
    p_query.add_argument("file")
    p_query.add_argument("--variable", required=True)
    p_query.add_argument("--extract", required=True, metavar="D0,D1,...")
    p_query.add_argument("--stride", default=None, metavar="D0,D1,...")
    p_query.add_argument(
        "--operator", default="mean", choices=OPERATOR_NAMES,
    )
    p_query.add_argument("--threshold", type=float, default=None)
    p_query.add_argument("--reduces", type=int, default=4)
    p_query.add_argument(
        "--splits", type=int, default=16,
        help="map tasks to cut, on extraction-unit boundaries as a "
        "server cuts them (at most one per instance row along dim 0)",
    )
    p_query.add_argument(
        "--data-plane", choices=("columnar", "record"), default="columnar",
        help="columnar (default): the vectorized batch path every "
        "built-in operator runs on, and the only plane a server serves; "
        "record: the per-record reference engine (Mapper/Reducer "
        "objects, sort-merge shuffle) for debugging and for checking "
        "the columnar output against — ~40x slower, local runs only "
        "(docs/PERFORMANCE.md)",
    )
    p_query.add_argument(
        "--no-prune", action="store_true",
        help="disable zone-map split skipping (run every split; the "
        "output is byte-identical either way)",
    )
    p_query.add_argument(
        "--engine", choices=("serial", "threaded"),
        default="threaded",
        help="execution mode: deterministic serial, or thread pools "
        "(default; docs/PERFORMANCE.md).  With --server, serial and "
        "threaded both run on one thread of the server's engine process; "
        "threaded gets its own pools only with --speculate "
        "(docs/SERVICE.md, Execution model)",
    )
    p_query.add_argument("--map-workers", type=int, default=4,
                         help="map pool size (threaded engine; "
                         "local runs only, a server sizes its own)")
    p_query.add_argument("--reduce-workers", type=int, default=3,
                         help="reduce pool size (threaded engine; "
                         "local runs only, a server sizes its own)")
    p_query.add_argument("--limit", type=int, default=20,
                         help="max output rows (0 = all)")
    p_query.add_argument("--live", action="store_true",
                         help="render a refreshing live status (phase "
                         "bars, ETA, stragglers) on stderr while the "
                         "query runs")
    p_query.add_argument("--events", default=None, metavar="FILE.jsonl",
                         help="stream live events to a JSONL file as "
                         "they happen (crash-durable)")
    p_query.add_argument("--status", default=None, metavar="FILE",
                         help="write the final snapshot() JSON status "
                         "document")
    p_query.add_argument("--trace", default=None, metavar="FILE.json",
                         type=_trace_path,
                         help="write a Perfetto-loadable Chrome trace")
    p_query.add_argument("--metrics", default=None, metavar="FILE",
                         help="write metric snapshots as JSON")
    p_query.add_argument("--inject-faults", default=None, metavar="PLAN.json",
                         help="run under a fault-injection plan "
                         "(schema: docs/FAULT_TOLERANCE.md)")
    p_query.add_argument("--fault-seed", type=int, default=None,
                         help="override the plan's fraction-selector seed")
    p_query.add_argument("--max-attempts", type=int, default=1,
                         help="retries per task (1 = fail fast)")
    p_query.add_argument("--recovery", default="persisted",
                         help="persisted|reexecute-all|reexecute-deps")
    p_query.add_argument("--speculate", action="store_true",
                         help="enable structure-aware speculative "
                         "execution (hang detection + hedged backup "
                         "attempts)")
    p_query.add_argument("--hang-timeout", type=float, default=0.5,
                         help="seconds without a checkpoint before an "
                         "attempt is flagged hung (with --speculate)")
    p_query.add_argument("--deadline", type=float, default=None,
                         help="wall-clock budget in seconds; on expiry "
                         "every in-flight attempt is cancelled")
    p_query.add_argument("--on-deadline", default="fail",
                         choices=("fail", "partial"),
                         help="fail the job or return the partitions "
                         "completed so far")
    p_query.add_argument("--server", default=None, metavar="URL",
                         help="submit to a running `repro serve` instance "
                         "instead of executing locally; FILE is then the "
                         "dataset *name* registered on the server")
    p_query.add_argument("--tenant", default="default",
                         help="tenant id for admission control "
                         "(with --server)")
    p_query.add_argument("--priority", type=int, default=0,
                         help="scheduling priority, higher first "
                         "(with --server)")
    p_query.set_defaults(fn=cmd_query)

    p_srv = sub.add_parser(
        "serve",
        help="run the resident query service (docs/SERVICE.md)",
    )
    p_srv.add_argument("files", nargs="*", metavar="FILE",
                       help="NCLite files to open at startup; each is "
                       "registered under its basename without extension")
    p_srv.add_argument("--host", default="127.0.0.1")
    p_srv.add_argument("--port", type=int, default=0,
                       help="listen port (0 = ephemeral, printed on start)")
    p_srv.add_argument("--workers", type=int, default=2,
                       help="jobs executed at once, each in its queue "
                       "worker's own engine process (forked at startup): "
                       "the service's parallelism")
    p_srv.add_argument("--map-workers", type=int, default=4,
                       help="map pool size of a pooled job (engine "
                       "threaded with speculation); every other job "
                       "runs on its engine process's one thread")
    p_srv.add_argument("--reduce-workers", type=int, default=3,
                       help="reduce pool size of a pooled job")
    p_srv.add_argument("--plan-cache", type=int, default=256,
                       help="plan cache capacity (entries)")
    p_srv.add_argument("--events", default=None, metavar="FILE.jsonl",
                       help="append every job's live events (job-id "
                       "stamped) to one JSONL stream")
    p_srv.add_argument("--max-active", type=int, default=0,
                       help="default per-tenant cap on in-flight jobs "
                       "(0 = unlimited)")
    p_srv.add_argument("--failure-budget", type=int, default=0,
                       help="default per-tenant failed-job budget before "
                       "lockout (0 = unlimited)")
    p_srv.set_defaults(fn=cmd_serve)

    p_rec = sub.add_parser(
        "recovery",
        help="compare §6 recovery designs on one injected reduce failure",
    )
    p_rec.add_argument("file")
    p_rec.add_argument("--variable", required=True)
    p_rec.add_argument("--extract", required=True, metavar="D0,D1,...")
    p_rec.add_argument("--stride", default=None, metavar="D0,D1,...")
    p_rec.add_argument(
        "--operator", default="mean", choices=OPERATOR_NAMES,
    )
    p_rec.add_argument("--threshold", type=float, default=None)
    p_rec.add_argument("--reduces", type=int, default=4)
    p_rec.add_argument("--splits", type=int, default=16)
    p_rec.add_argument("--fail-reduce", type=int, default=0,
                       help="reduce task to fail once after its fetch")
    p_rec.add_argument("--fault-seed", type=int, default=0)
    p_rec.set_defaults(fn=cmd_recovery)

    p_spec = sub.add_parser(
        "speculation",
        help="drill hedged speculation against one injected map hang",
    )
    p_spec.add_argument("file")
    p_spec.add_argument("--variable", required=True)
    p_spec.add_argument("--extract", required=True, metavar="D0,D1,...")
    p_spec.add_argument("--stride", default=None, metavar="D0,D1,...")
    p_spec.add_argument(
        "--operator", default="mean", choices=OPERATOR_NAMES,
    )
    p_spec.add_argument("--threshold", type=float, default=None)
    p_spec.add_argument("--reduces", type=int, default=4)
    p_spec.add_argument("--splits", type=int, default=16)
    p_spec.add_argument("--hang-map", type=int, default=0,
                        help="map task to hang on its first attempt")
    p_spec.add_argument("--hang-timeout", type=float, default=0.2,
                        help="seconds without a checkpoint before an "
                        "attempt is flagged hung")
    p_spec.add_argument("--fault-seed", type=int, default=0)
    p_spec.set_defaults(fn=cmd_speculation)

    p_ver = sub.add_parser(
        "verify",
        help="differential fuzzing + interleaving exploration",
    )
    p_ver.add_argument("--cases", type=int, default=50,
                       help="number of generated fuzz cases")
    p_ver.add_argument("--seed", type=int, default=0,
                       help="master seed for the case stream")
    p_ver.add_argument("--schedules", type=int, default=8,
                       help="perturbed interleavings explored per case "
                       "(0 = differential only)")
    p_ver.add_argument("--out", default=None, metavar="DIR",
                       help="directory for shrunk failure repro JSON files")
    p_ver.add_argument("--repro", default=None, metavar="FILE",
                       help="replay the shrunk case from a repro file "
                       "instead of fuzzing")
    p_ver.add_argument("--no-shrink", action="store_true",
                       help="skip shrinking failing cases")
    p_ver.add_argument("--engines", default=None, metavar="TOK[,TOK...]",
                       help="restrict the differential matrix to these "
                       "engine legs (serial, threaded, service); an "
                       "unknown token is an error; sets "
                       "REPRO_VERIFY_ENGINES")
    p_ver.add_argument("--operators", default=None, metavar="NAME[,NAME...]",
                       help="restrict generated cases to these operators "
                       "(e.g. filter_gt for a pruning-equivalence run)")
    p_ver.set_defaults(fn=cmd_verify)

    p_sim = sub.add_parser("simulate", help="regenerate a paper figure")
    p_sim.add_argument("--figure", required=True, choices=list("9") + ["10", "11", "12", "13"])
    p_sim.add_argument("--scale", type=int, default=1,
                       help="divide the dataset's time dim (10 = fast)")
    p_sim.add_argument("--runs", type=int, default=10,
                       help="runs for figure 12")
    p_sim.add_argument("--trace", default=None, metavar="FILE.json",
                       type=_trace_path,
                       help="write the simulated runs as a Perfetto trace")
    p_sim.add_argument("--metrics", default=None, metavar="FILE",
                       help="write metric snapshots as JSON")
    p_sim.set_defaults(fn=cmd_simulate)

    p_rep = sub.add_parser(
        "report", help="pretty-print a saved trace (Chrome JSON or an "
        "--events JSONL)"
    )
    p_rep.add_argument("tracefile")
    p_rep.set_defaults(fn=cmd_report)

    p_tab = sub.add_parser("tables", help="regenerate a paper table")
    p_tab.add_argument("--table", required=True)
    p_tab.set_defaults(fn=cmd_tables)
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
