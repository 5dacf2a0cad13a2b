"""The pools rule: does hedging earn a served job its thread pools?

A served job runs on its engine process's one thread, except a
``threaded`` + ``speculate`` request, which gets a map pool and a
reduce pool so that a hedged backup can race a straggling attempt
(``repro.service.engine_process.execution_mode``).  The alternative,
``serial`` + ``speculate``, keeps the inline executor and mitigates a
stall by cancel-and-retry: the stalled attempt is flagged hung after
``hang_timeout`` and re-run in place.  The rule (ROADMAP item 6(a)):
hedging stays only if its p50 is at least 1.3x the retry's; otherwise
the pools go and every served job runs inline.

In process, a ``QueryService(workers=2)``: a second client keeps the
second engine process busy with a closed loop of fault-free
``fine_mean`` jobs, so the timed job is never alone and runs whole on
one slot.  Each timed job is a ``fine_mean`` request (the e2e harness's
inputs and oracle digest, ``benchmarks/e2e/harness.py``) with a
``slow`` fault of ``--delay`` seconds on map 0's first attempt — a
straggler that a second attempt escapes — and two attempts per task, so
that the retry has one.  Each round times
``--requests`` hedged and ``--requests`` retried jobs, submit to result,
the two modes in alternating order round by round.  Every digest, the
busy client's too, is checked against the oracle; a mismatch aborts.

    PYTHONPATH=src python benchmarks/pools_rule.py --rounds 10
    PYTHONPATH=src python benchmarks/pools_rule.py --smoke

Prints each mode's p50 and p90 over every timed job, the ratio and the
verdict, and writes every job's time to ``--out``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import statistics
import sys
import tempfile
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent / "e2e"))

from harness import Inputs  # noqa: E402

from repro.service import QueryService  # noqa: E402

#: engine / speculate of each mode.
MODES = {"hedge": "threaded", "retry": "serial"}
#: The rule's bar: hedging's p50 advantage that keeps the pools.
RULE = 1.3
CLASS = "fine_mean"


def _check(inputs: Inputs, doc: dict) -> None:
    if doc.get("digest") != inputs.digests[CLASS]:
        raise SystemExit(
            f"{doc['id']}: {doc.get('state')} {doc.get('error', '')}"
        )


def _busy(service, inputs: Inputs, stop: threading.Event, errors: list) -> None:
    """The second client: fault-free jobs back to back until ``stop``."""
    while not stop.is_set():
        doc, _ = service.result_block(
            service.submit(inputs.request(CLASS, tenant="busy")), timeout=60.0
        )
        if doc.get("digest") != inputs.digests[CLASS]:
            errors.append(doc)


def _timed(service, inputs: Inputs, mode: str, delay: float) -> float:
    req = dataclasses.replace(
        inputs.request(CLASS), engine=MODES[mode], speculate=True,
        max_attempts=2, fault_rules=({
            "task": "map", "fault": "slow", "indices": [0],
            "delay": delay, "attempts": [0],
        },),
    )
    t0 = time.perf_counter()
    doc, _ = service.result_block(service.submit(req), timeout=60.0)
    seconds = time.perf_counter() - t0
    _check(inputs, doc)
    return seconds


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--rounds", type=int, default=10)
    ap.add_argument("--requests", type=int, default=3,
                    help="timed jobs per mode per round")
    ap.add_argument("--delay", type=float, default=1.0,
                    help="seconds the slow map's first attempt stalls")
    ap.add_argument("--smoke", action="store_true",
                    help="one round of one job per mode (CI)")
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)
    if args.smoke:
        args.rounds, args.requests = 1, 1

    times: dict[str, list[float]] = {mode: [] for mode in MODES}
    with tempfile.TemporaryDirectory(prefix="pools-rule-") as tmp:
        inputs = Inputs(args.seed, Path(tmp))
        inputs.prepare((CLASS,))
        with QueryService(workers=2) as service:
            for name, path in inputs.paths.items():
                service.open_dataset(name, str(path))
            _check(inputs, service.result(service.submit(inputs.request(CLASS))))
            stop, errors = threading.Event(), []
            busy = threading.Thread(
                target=_busy, args=(service, inputs, stop, errors)
            )
            busy.start()
            try:
                modes = list(MODES)
                for rnd in range(args.rounds):
                    for mode in modes if rnd % 2 == 0 else modes[::-1]:
                        for _ in range(args.requests):
                            times[mode].append(
                                _timed(service, inputs, mode, args.delay)
                            )
                        print(json.dumps({
                            "round": rnd, "mode": mode,
                            "seconds": times[mode][-args.requests:],
                        }), file=sys.stderr)
            finally:
                stop.set()
                busy.join()
            if errors:
                raise SystemExit(f"busy client: {len(errors)} bad results")

    p50 = {mode: statistics.median(ts) for mode, ts in times.items()}
    for mode, ts in times.items():
        p90 = sorted(ts)[int(0.9 * (len(ts) - 1))]
        print(
            f"{mode} ({MODES[mode]} + speculate): p50 {p50[mode] * 1e3:8.1f} ms"
            f"  p90 {p90 * 1e3:8.1f} ms  ({len(ts)} jobs)"
        )
    ratio = p50["retry"] / p50["hedge"]
    verdict = "hedging stays" if ratio >= RULE else "the pools go"
    print(f"retry / hedge p50: {ratio:.2f}x (rule: >= {RULE}x) -> {verdict}")
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"seconds": times, "p50": p50, "ratio": ratio, "delay": args.delay},
            indent=1,
        ))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
