"""Service-level sizing: a ``concurrent_mix``-shaped stream at the
in-process ``QueryService``, with 1 worker and 1 client, then 2 and 2.

The rule behind the "Engine processes" section of
``docs/PERFORMANCE.md``: the queue's second worker is worth keeping as
it is built only if two workers and two clients serve enough more
requests per second than one and one.  Inputs are the e2e harness's
(``benchmarks/e2e/harness.py``: seeded datasets, the ``_MIX`` cycle of
3 ``fine_mean``, 3 ``coarse_scan``, 1 ``ragged_filter`` and 1
``holistic_median``, oracle digests), but there is no socket: each
client is a thread calling ``submit`` and ``result_block``.  Every round
builds a fresh service per configuration, primes each class once (one
plan-cache miss each), warms up, then times ``--requests`` closed-loop
requests per client; the configuration order is reversed each round.

    PYTHONPATH=src python benchmarks/service_sizing.py --rounds 5
    PYTHONPATH=src python benchmarks/service_sizing.py --smoke

Prints, per configuration, the median requests/s and the user and
system CPU per request of this process and every child it has at the
time (``/proc``), and writes every round to ``--out``.  A digest that
differs from the oracle's aborts the run.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import sys
import tempfile
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent / "e2e"))

from harness import _MIX, CLASSES, Inputs  # noqa: E402

from repro.service import QueryService  # noqa: E402

#: (queue workers, clients) of each configuration.
CONFIGS = {"1w1c": (1, 1), "2w2c": (2, 2)}


def _cpu_ticks() -> tuple[int, int]:
    """User and system clock ticks of this process and its live
    children, read from ``/proc/<pid>/stat``."""
    me = os.getpid()
    user = system = 0
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue  # the process ended while we looked
        pid = int(stat.parent.name)
        if pid == me or int(fields[1]) == me:
            user += int(fields[11])
            system += int(fields[12])
    return user, system


def _drive(service, inputs, cycle, requests, errors) -> None:
    """Closed loop: submit, wait for the stored block, check its digest
    (no JSON rows: the served path ships the block's bytes)."""
    for i in range(requests):
        cls = cycle[i % len(cycle)]
        job = service.submit(inputs.request(cls))
        doc, _ = service.result_block(job, timeout=60.0)
        if doc.get("digest") != inputs.digests[cls]:
            errors.append(f"{cls}: {doc.get('state')} {doc.get('error', '')}")


def one_round(inputs, label, rnd, requests, warmup) -> dict:
    workers, clients = CONFIGS[label]
    with QueryService(workers=workers) as service:
        for name, path in inputs.paths.items():
            service.open_dataset(name, str(path))
        errors: list[str] = []
        for cls in sorted(CLASSES):
            _drive(service, inputs, [cls], 1, errors)
        cycles = []
        for c in range(clients):
            mine = list(_MIX)
            random.Random(f"{inputs.seed}/{rnd}/{c}").shuffle(mine)
            cycles.append(mine)

        def run(count: int) -> float:
            threads = [
                threading.Thread(
                    target=_drive, args=(service, inputs, cycle, count, errors)
                )
                for cycle in cycles
            ]
            t0 = time.perf_counter()
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            return time.perf_counter() - t0

        run(warmup)
        user0, sys0 = _cpu_ticks()
        wall = run(requests)
        user1, sys1 = _cpu_ticks()
    if errors:
        raise SystemExit(f"{label}: {errors[0]} ({len(errors)} bad results)")
    served = requests * clients
    tick_ms = 1e3 / os.sysconf("SC_CLK_TCK")
    return {
        "config": label,
        "round": rnd,
        "requests": served,
        "rps": served / wall,
        "user_ms_per_req": (user1 - user0) * tick_ms / served,
        "sys_ms_per_req": (sys1 - sys0) * tick_ms / served,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--rounds", type=int, default=5)
    ap.add_argument("--requests", type=int, default=48,
                    help="timed requests per client per round")
    ap.add_argument("--warmup", type=int, default=8)
    ap.add_argument("--smoke", action="store_true",
                    help="one round of a few requests per client (CI)")
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)
    if args.smoke:
        args.rounds, args.requests, args.warmup = 1, 4, 1

    with tempfile.TemporaryDirectory(prefix="service-sizing-") as tmp:
        inputs = Inputs(args.seed, Path(tmp))
        inputs.prepare(tuple(sorted(CLASSES)))
        runs = []
        labels = list(CONFIGS)
        for rnd in range(args.rounds):
            for label in labels if rnd % 2 == 0 else labels[::-1]:
                runs.append(
                    one_round(inputs, label, rnd, args.requests, args.warmup)
                )
                print(json.dumps(runs[-1]), file=sys.stderr)
    medians = {}
    for label in CONFIGS:
        mine = [r for r in runs if r["config"] == label]
        medians[label] = {
            key: statistics.median(r[key] for r in mine)
            for key in ("rps", "user_ms_per_req", "sys_ms_per_req")
        }
        m = medians[label]
        print(
            f"{label}: {m['rps']:6.1f} requests/s  "
            f"user {m['user_ms_per_req']:5.1f} ms/req  "
            f"sys {m['sys_ms_per_req']:5.1f} ms/req"
        )
    ratio = medians["2w2c"]["rps"] / medians["1w1c"]["rps"]
    print(f"2w2c / 1w1c: {ratio:.2f}x")
    if args.out:
        Path(args.out).write_text(
            json.dumps({"runs": runs, "medians": medians, "ratio": ratio}, indent=1)
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
