"""A task's fixed cost: what an engine process's job costs beyond its numpy.

The protocol behind "A task's fixed cost" in ``docs/PERFORMANCE.md``.
For each served class of the e2e harness (``benchmarks/e2e/harness.py``:
seeded datasets, oracle digests), in this process, with no socket and
no engine process:

* ``whole`` — p50 of a warm ``engine_process.run_job`` of the whole job
  (``plan.parts(1)``, its one part), the one function an engine process
  runs;
* ``part0`` — the same for part 0 of ``plan.parts(2)``, what one engine
  process runs of a job split across two;
* ``floor`` — p50 of part 0's numpy alone: each of its splits' slab
  reads, window copies and ``map_batch`` calls, with nothing around
  them;
* ``calls`` — interpreter calls (``sys.setprofile`` ``call`` +
  ``c_call``) of one warm whole job;
* ``block`` — the whole job's packed result block: its bytes and its
  value column's tag (``docs/SERVICE.md``, "Wire format").  A
  fixed-width class's block must be exactly ``fixed_block_nbytes`` of
  its K'_T — header, shape, one run, one value per key — or the run
  aborts: a per-key key section cannot come back unnoticed;
* ``plan`` — the bytes the served plan pickles to: what the service
  sends each engine process that runs a part of it;
* ``loads`` — p50 of ``pickle.loads`` of those bytes, in µs, and its
  share of ``part0``: what an engine process adds to each part it runs
  before ``run_job`` starts.

Every round measures every class, in reversed order on odd rounds, and
alternates whole, part, floor and loads runs within a class.  The digest of
every whole job's block, and that of each round's parts spliced in
keyblock order, must equal the oracle's, and no whole job may count a
``reduce.generic`` (every keyblock of every class takes the ordered
reduce), or the run aborts.

    PYTHONPATH=src python benchmarks/engine_overhead.py --rounds 8 --runs 300

``--smoke`` is one round of a few runs: it checks that the internals
this script imports still fit together.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import pickle
import statistics
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent / "e2e"))

from harness import CLASSES, Inputs  # noqa: E402

from repro.arrays.shape import volume  # noqa: E402
from repro.mapreduce.columnar import (  # noqa: E402
    VALUE_TAG_NAMES,
    ResultBlock,
    fixed_block_nbytes,
)
from repro.query.columnar import window_rows  # noqa: E402
from repro.service.api import DONE  # noqa: E402
from repro.service.engine_process import EngineConfig, run_job  # noqa: E402
from repro.service.service import build_served_plan  # noqa: E402
from repro.service.sessions import DatasetSession  # noqa: E402


def count_calls(fn) -> int:
    """Interpreter-level calls ``fn()`` makes, the collector off."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event in ("call", "c_call"):
            calls += 1

    gc.collect()
    gc.disable()
    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
        gc.enable()
    return calls


class Served:
    """One class's session, cached plan and part 0, ready to run."""

    def __init__(self, cls: str, inputs: Inputs) -> None:
        self.cls = cls
        dataset = CLASSES[cls]["dataset"]
        self.session = DatasetSession(dataset, path=str(inputs.paths[dataset]))
        self.request = inputs.request(cls)
        self.digest = inputs.digests[cls]
        self.plan = build_served_plan(self.request, self.session)
        self.data = pickle.dumps(self.plan)
        self.source = self.session.engine_source()
        self.config = EngineConfig()
        self.parts = self.plan.parts(2)
        self.bop = self.plan.configure_job(self.source)[0].batch_operator

    def run(self, part=None):
        """The whole job (``plan.parts(1)``), or ``part`` of it."""
        out = run_job(
            self.cls, self.request, self.source, self.plan, self.config,
            part=self.plan.parts(1)[0] if part is None else part,
        )
        if out.state != DONE:
            raise SystemExit(f"{self.cls}: {out.state} {out.error}")
        return out

    def check_size(self, whole) -> None:
        """A fixed-width class's whole block is a complete result's
        length: no byte per key but its value."""
        width = self.request.structural_operator().value_bytes
        space = self.plan.query_plan.intermediate_space
        if width is None:
            return
        want = fixed_block_nbytes(volume(space), len(space), width)
        if len(whole.block) != want:
            raise SystemExit(
                f"{self.cls}: block of {len(whole.block)} bytes, a complete "
                f"result over {space} is {want}"
            )

    def check(self, whole, parts) -> None:
        """The whole job's block, and its parts' blocks spliced, are
        the oracle's bytes."""
        spliced = ResultBlock.concatenate(
            [ResultBlock.from_packed(out.block) for out in parts]
        ).to_bytes()
        got = {hashlib.sha256(b).hexdigest() for b in (whole.block, spliced)}
        if got != {self.digest}:
            raise SystemExit(f"{self.cls}: digests {got} != oracle {self.digest}")

    def floor(self) -> None:
        """Part 0's slab reads, window copies and ``map_batch`` calls."""
        variable = self.request.variable
        for m in self.parts[0].maps:
            geo = self.plan.map_geometry(self.plan.splits[m])
            for slab, zones in geo.reads:
                data = self.source.read_slab(variable, slab)
                for block, exts, _, _ in zones:
                    self.bop.map_batch(window_rows(data[block], exts, geo.steps))

    def close(self) -> None:
        self.session.close()


def one_round(served: Served, runs: int) -> dict[str, list[float]]:
    times: dict[str, list[float]] = {
        "whole": [], "part0": [], "floor": [], "loads": [],
    }
    steps = [
        ("whole", served.run),
        ("part0", lambda: served.run(served.parts[0])),
        ("floor", served.floor),
        ("loads", lambda: pickle.loads(served.data)),
    ]
    for i in range(runs):
        for name, fn in steps if i % 2 == 0 else steps[::-1]:
            t0 = time.perf_counter()
            fn()
            times[name].append((time.perf_counter() - t0) * 1e3)
    served.check(served.run(), [served.run(p) for p in served.parts])
    return times


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--rounds", type=int, default=8)
    ap.add_argument("--runs", type=int, default=100, help="runs per round")
    ap.add_argument("--classes", default=",".join(CLASSES))
    ap.add_argument("--smoke", action="store_true", help="one round of 3 runs")
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)
    if args.smoke:
        args.rounds, args.runs = 1, 3
    classes = args.classes.split(",")
    unknown = set(classes) - set(CLASSES)
    if unknown:
        ap.error(f"unknown classes {sorted(unknown)}; known: {sorted(CLASSES)}")

    with tempfile.TemporaryDirectory(prefix="engine-overhead-") as workdir:
        inputs = Inputs(args.seed, Path(workdir))
        inputs.prepare(tuple(classes))
        served = [Served(cls, inputs) for cls in classes]
        try:
            calls, blocks, plans = {}, {}, {}
            for s in served:
                # warm: the process has the plan, the handle its reads
                out = s.run()
                if out.counters.get("reduce.generic"):
                    raise SystemExit(
                        f"{s.cls}: {out.counters['reduce.generic']} keyblocks "
                        "merged instead of taking the ordered reduce"
                    )
                s.check_size(out)
                blocks[s.cls] = (len(out.block), VALUE_TAG_NAMES[out.block[4]])
                plans[s.cls] = len(s.data)
                calls[s.cls] = count_calls(s.run)
            rounds: dict[str, dict[str, list[float]]] = {
                s.cls: {"whole": [], "part0": [], "floor": [], "loads": []}
                for s in served
            }
            for rnd in range(args.rounds):
                for s in served if rnd % 2 == 0 else served[::-1]:
                    for name, times in one_round(s, args.runs).items():
                        rounds[s.cls][name].append(statistics.median(times))
        finally:
            for s in served:
                s.close()

    print(f"seed {args.seed}, {args.rounds} rounds of {args.runs} runs, "
          f"cpu_count {os.cpu_count()}, Python {sys.version.split()[0]}")
    print(f"  {'class':16s} {'whole p50':>10s} {'part0 p50':>10s} "
          f"{'floor p50':>10s} {'floor/part0':>11s} {'calls/job':>10s} "
          f"{'block bytes':>11s} {'plan bytes':>10s} {'loads p50':>10s} "
          f"{'loads/part0':>11s}  value tag")
    report = {}
    for cls, per in rounds.items():
        med = {name: statistics.median(v) for name, v in per.items()}
        share = med["floor"] / med["part0"] if med["part0"] else 0.0
        loads = med["loads"] / med["part0"] if med["part0"] else 0.0
        size, tag = blocks[cls]
        print(f"  {cls:16s} {med['whole']:8.2f}ms {med['part0']:8.2f}ms "
              f"{med['floor']:8.2f}ms {share:11.2f} {calls[cls]:10d} "
              f"{size:11d} {plans[cls]:10d} {med['loads'] * 1e3:8.0f}us "
              f"{loads:11.3f}  {tag}")
        report[cls] = {
            "p50_ms": {k: round(v, 3) for k, v in med.items()},
            "rounds_ms": {k: [round(x, 3) for x in v] for k, v in per.items()},
            "calls_per_job": calls[cls],
            "block_bytes": size,
            "plan_bytes": plans[cls],
            "loads_us": round(med["loads"] * 1e3, 1),
            "loads_share_of_part0": round(loads, 4),
            "value_tag": tag,
        }
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"seed": args.seed, "classes": report}, fh, indent=1)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
