"""Smoke test of the e2e benchmark: ``pytest benchmarks/e2e -q``.

Outside tier-1's ``testpaths``: it starts real server subprocesses.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
WORK_PREFIX = ".e2e-work-"


def _survivors() -> list[str]:
    """Command lines of live processes started against a work directory
    (every server is given dataset files that live in one)."""
    found = []
    for cmdline in Path("/proc").glob("[0-9]*/cmdline"):
        try:
            text = cmdline.read_bytes().replace(b"\0", b" ").decode(errors="replace")
        except OSError:
            continue  # the process ended while we looked
        if WORK_PREFIX in text:
            found.append(text)
    return found


def test_smoke(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--seed", "7",
         "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    end_to_end = {m["name"] for m in spec["end_to_end"]}
    metric_names = end_to_end | {m["name"] for m in spec["per_layer"]}
    # The full report runs five workloads; BENCHMARK.json names the
    # three of them that the benchmark driver runs one at a time.
    workload_names = set(doc["metrics"])
    assert {w["name"] for w in spec["workloads"]} < workload_names
    assert len(workload_names) == 5
    assert all(NAME.fullmatch(n) for n in metric_names | workload_names)
    for workload, metrics in doc["metrics"].items():
        for name, metric in metrics.items():
            assert isinstance(metric["value"], (int, float)), (workload, name)
        if workload == "concurrent_mix":
            # A mix of classes reports nothing that belongs to one class.
            assert end_to_end < set(metrics) < metric_names
            assert not {"mapreduce.map_ms", "service.result_records"} & set(metrics)
        else:
            assert set(metrics) == metric_names, workload
            assert metrics["mapreduce.replication_rate"]["value"] == 1.0

    # Error rate 0 over exactly 5 requests per client: 4 x 1 + 1 x 2 clients.
    assert doc["correct"] is True
    assert doc["failed"] == 0 and doc["attempted"] == 5 * 6

    samples = [json.loads(x) for x in (tmp_path / "samples.jsonl").read_text().splitlines()]
    assert len(samples) == doc["attempted"] and all(s["ok"] for s in samples)
    spans = [json.loads(x) for x in (tmp_path / "spans.jsonl").read_text().splitlines()]
    assert {"request", "mapreduce.map", "verify.digest"} <= {s["name"] for s in spans}

    assert not list(ROOT.glob(WORK_PREFIX + "*")), "work directory survived"
    assert not _survivors(), "server process survived"
