"""Served run: seeded inputs, the real ``repro.cli serve`` subprocess,
and the closed-loop HTTP load generator.

Nothing here is traced: every number comes from what a client of the
socket path sees, plus what the server already reports about itself
(result documents, ``/stats``) and what ``/proc/<pid>`` says about it.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import random
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator

import numpy as np

from repro.query.language import StructuralQuery
from repro.query.operators import get_operator
from repro.scidata.dataset import create_dataset
from repro.scidata.metadata import dtype_name, simple_metadata
from repro.service import HttpServiceClient, QueryRequest, ServiceError
from repro.verify.oracle import oracle_records, records_digest

SRC = Path(__file__).resolve().parents[2] / "src"

#: Integer-valued float64 grids, so oracle byte-identity is sound.
DATASETS = {"grid_small": (364, 40, 40), "grid_mid": (364, 120, 120)}

#: Every request shares these; only the class fields below differ.
COMMON = dict(
    variable="v", splits=16, reduces=8,
    data_plane="columnar", engine="threaded", prune=True,
)

CLASSES: dict[str, dict[str, Any]] = {
    "fine_mean": dict(dataset="grid_small", operator="mean", extract=(7, 5, 2)),
    "coarse_scan": dict(dataset="grid_mid", operator="mean", extract=(28, 20, 20)),
    "holistic_median": dict(
        dataset="grid_small", operator="median", extract=(14, 10, 8)
    ),
    "ragged_filter": dict(
        dataset="grid_small", operator="filter_gt", extract=(7, 5, 2),
        threshold=95,
    ),
}

_MIX = ("fine_mean",) * 3 + ("coarse_scan",) * 3 + (
    "ragged_filter", "holistic_median",
)

#: name -> (client threads, request classes of one cycle, timed
#: requests per client per round at full scale).
WORKLOADS: dict[str, tuple[int, tuple[str, ...], int]] = {
    "fine_mean": (1, ("fine_mean",), 40),
    "coarse_scan": (1, ("coarse_scan",), 120),
    "holistic_median": (1, ("holistic_median",), 34),
    "ragged_filter": (1, ("ragged_filter",), 34),
    "concurrent_mix": (2, _MIX, 24),
}

#: At full scale the longest workload's timed requests take about this
#: long on the development box; ``--seconds`` over this is the one
#: factor that scales every count above.
FULL_SECONDS = 18.0
#: A run keeps at least this many timed requests, pooled over its
#: rounds, so that ten or more lie beyond the 90th percentile.
MIN_POOLED = 100

#: Per-request client timeout; exceeding it is a failure.
TIMEOUT = 60.0
HEALTHZ_CALLS = 50

_CLIENT_ERRORS = (OSError, http.client.HTTPException, ServiceError, ValueError)


def requests_per_client(workload: str, seconds: float, rounds: int) -> int:
    """Timed requests each client sends in one round: the full-scale
    count times ``seconds / FULL_SECONDS``, not below what ``MIN_POOLED``
    needs, rounded up to whole cycles so that a mixed workload's class
    shares do not depend on the seed's shuffle."""
    clients, cycle, full = WORKLOADS[workload]
    count = max(full * seconds / FULL_SECONDS, MIN_POOLED / (rounds * clients))
    return math.ceil(count / len(cycle)) * len(cycle)


def workload_classes(workload: str) -> tuple[str, ...]:
    return tuple(sorted(set(WORKLOADS[workload][1])))


def class_weights(workload: str) -> dict[str, float]:
    """Share of the workload's requests that each class makes up."""
    cycle = WORKLOADS[workload][1]
    return {c: cycle.count(c) / len(cycle) for c in set(cycle)}


def percentile(values: list[float], q: float) -> float:
    return float(np.percentile(values, q))


def median(values: list[float]) -> float:
    return percentile(values, 50)


def structural_query(
    operator: str, extract: tuple[int, ...], threshold: float | None = None
) -> StructuralQuery:
    params = {} if threshold is None else {"threshold": threshold}
    return StructuralQuery(
        variable="v",
        extraction_shape=extract,
        operator=get_operator(operator, **params),
    )


# --------------------------------------------------------------------- #
# Inputs
# --------------------------------------------------------------------- #
class Inputs:
    """Datasets and oracle digests made from the seed.

    The oracle runs here, in the benchmark process, from the generated
    array: it shares nothing with the serve path.  ``build_seconds``
    records what each dataset and each class's oracle cost, so a
    workload's ``setup_s`` charges only what it uses.
    """

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.paths: dict[str, Path] = {}
        self.digests: dict[str, str] = {}
        self.build_seconds: dict[str, float] = {}

    def prepare(self, classes: tuple[str, ...]) -> None:
        """Build, once, every dataset and oracle digest ``classes`` need."""
        by_dataset: dict[str, list[str]] = {}
        for cls in classes:
            by_dataset.setdefault(CLASSES[cls]["dataset"], []).append(cls)
        for name, todo in by_dataset.items():
            self.paths[name] = self.workdir / f"{name}.nc"
            t0 = time.perf_counter()
            data = self._generate(name)
            create_dataset(self.paths[name], var_name="v", data=data).close()
            self.build_seconds[name] = time.perf_counter() - t0
            for cls in todo:
                t0 = time.perf_counter()
                self.digests[cls] = self._oracle_digest(cls, data)
                self.build_seconds[cls] = time.perf_counter() - t0

    def _generate(self, name: str) -> np.ndarray:
        shape = DATASETS[name]
        # One stream per dataset, so a dataset's content does not depend
        # on which others a workload happens to build.
        rng = np.random.default_rng([self.seed, sorted(DATASETS).index(name)])
        data = rng.integers(0, 50, size=shape).astype(np.float64)
        lo, hi = shape[0] // 4, shape[0] // 2
        data[lo:hi] = rng.integers(50, 100, size=(hi - lo, *shape[1:]))
        return data

    def _oracle_digest(self, cls: str, data: np.ndarray) -> str:
        spec = CLASSES[cls]
        query = structural_query(
            spec["operator"], spec["extract"], spec.get("threshold")
        )
        metadata = simple_metadata(
            "v", tuple(data.shape), dtype=dtype_name(data.dtype)
        )
        return records_digest(oracle_records(query.compile(metadata), data))

    def request(self, cls: str, tenant: str = "t0") -> QueryRequest:
        return QueryRequest(tenant=tenant, **CLASSES[cls], **COMMON)

    def setup_seconds(self, workload: str) -> float:
        classes = workload_classes(workload)
        datasets = {CLASSES[c]["dataset"] for c in classes}
        return sum(self.build_seconds[k] for k in (*classes, *datasets))

    def dataset_files(self, workload: str) -> list[Path]:
        names = sorted({CLASSES[c]["dataset"] for c in workload_classes(workload)})
        return [self.paths[n] for n in names]


# --------------------------------------------------------------------- #
# Server subprocess
# --------------------------------------------------------------------- #
@contextmanager
def served(files: list[Path], workdir: Path) -> Iterator[tuple[int, str]]:
    """Run ``python -m repro.cli serve FILE...`` with default flags;
    yields ``(pid, url)`` once the ``# serving on`` line is out.  The
    child is always reaped: ``POST /shutdown``, then terminate, then
    kill, each on a 10 s timeout."""
    spill = workdir / "spill"
    spill.mkdir(exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["REPRO_SPILL_DIR"] = str(spill)
    env["TMPDIR"] = str(workdir)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", *map(str, files)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
    )
    url = None
    # A server that never prints its line must not hang the run.
    watchdog = threading.Timer(TIMEOUT, proc.kill)
    watchdog.start()
    try:
        line = proc.stdout.readline()
        watchdog.cancel()
        if not line.startswith("# serving on "):
            raise RuntimeError(f"server did not start (got {line!r})")
        url = line.split()[-1]
        yield proc.pid, url
    finally:
        watchdog.cancel()
        if url is not None and proc.poll() is None:
            try:
                HttpServiceClient(url, timeout=10.0).shutdown()
            except _CLIENT_ERRORS:
                pass
        try:
            proc.wait(10)
        except subprocess.TimeoutExpired:
            proc.terminate()
            try:
                proc.wait(10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        proc.stdout.close()
        leftover = sorted(p.name for p in spill.iterdir())
        if leftover:
            raise RuntimeError(f"spill root not empty after round: {leftover}")


def _proc_status(pid: int) -> dict[str, int]:
    """Integer fields of ``/proc/<pid>/status`` (kB for the Vm* ones)."""
    out = {}
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        key, _, rest = line.partition(":")
        first = rest.split()[:1]
        if first and first[0].isdigit():
            out[key] = int(first[0])
    return out


def _cpu_seconds(pid: int) -> float:
    # utime and stime are fields 14 and 15; split after the ")" that
    # closes the command name, which may itself hold spaces.
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


# --------------------------------------------------------------------- #
# Load generation
# --------------------------------------------------------------------- #
def one_request(
    client: HttpServiceClient, request: QueryRequest, digest: str
) -> dict[str, Any]:
    """Submit and wait, as ``repro.cli query --server`` does.  Timed
    from just before ``POST /query`` until the result body is decoded."""
    sample: dict[str, Any] = {"sent": time.time(), "ok": False}
    t0 = time.perf_counter()
    try:
        job = client.submit(request)
        t1 = time.perf_counter()
        doc = client.result(job, timeout=TIMEOUT)
        t2 = time.perf_counter()
        received = time.time()
    except _CLIENT_ERRORS as exc:
        sample["error"] = f"{type(exc).__name__}: {exc}"
        return sample
    sample["latency_ms"] = (t2 - t0) * 1e3
    sample["submit_ms"] = (t1 - t0) * 1e3
    sample["result_ms"] = (t2 - t1) * 1e3
    if doc.get("state") != "done":
        sample["error"] = f"state {doc.get('state')!r}: {doc.get('error')}"
        return sample
    if doc.get("digest") != digest:
        sample["error"] = "digest differs from the oracle's"
        return sample
    started, finished = doc["started_at"], doc["finished_at"]
    sample.update(
        ok=True,
        tail_ms=(received - finished) * 1e3,
        queue_wait_ms=(started - doc["submitted_at"]) * 1e3,
        plan_ms=doc["plan_seconds"] * 1e3,
        engine_ms=doc["run_seconds"] * 1e3,
        post_engine_ms=(
            finished - started - doc["plan_seconds"] - doc["run_seconds"]
        ) * 1e3,
        plan_cache_hit=doc["plan_cache_hit"],
    )
    return sample


def _prime(url: str, inputs: Inputs, cls: str) -> dict[str, int]:
    """First response of a class in a round: read the raw body, rebuild
    canonical records from the decoded JSON and digest the *payload*,
    not just the digest field the server sent along."""
    client = HttpServiceClient(url, timeout=TIMEOUT)
    job = client.submit(inputs.request(cls))
    conn = http.client.HTTPConnection(client.host, client.port, timeout=TIMEOUT)
    try:
        conn.request("GET", f"/jobs/{job}/result?timeout={TIMEOUT}")
        body = conn.getresponse().read()
    finally:
        conn.close()
    doc = json.loads(body)
    records = [(tuple(key), value) for key, value in doc.get("records", ())]
    if doc.get("state") != "done" or records_digest(records) != inputs.digests[cls]:
        raise RuntimeError(f"{cls}: served payload differs from the oracle's")
    return {"response_bytes": len(body), "result_records": doc["num_records"]}


class _Clients:
    """The workload's closed-loop client threads against one server.
    Each keeps its place in its own seeded request cycle across calls."""

    def __init__(self, workload: str, round_index: int, inputs: Inputs, url: str):
        self.workload, self.round_index = workload, round_index
        self.inputs, self.url = inputs, url
        count, cycle, _ = WORKLOADS[workload]
        self.cycles = []
        for client in range(count):
            mine = list(cycle)
            random.Random(f"{inputs.seed}/{round_index}/{client}").shuffle(mine)
            self.cycles.append(mine)
        self.sent = [0] * count

    def run(self, requests: int) -> tuple[list[dict[str, Any]], float]:
        """Every client sends ``requests`` requests, each its next only
        when the previous one is answered; returns their samples and the
        wall-clock from the first send until the last client is done."""
        results: list = [None] * len(self.cycles)
        threads = [
            threading.Thread(target=self._drive, args=(c, requests, results))
            for c in range(len(self.cycles))
        ]
        t0 = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        wall = time.perf_counter() - t0
        return [s for mine in results for s in mine], wall

    def _drive(self, client: int, requests: int, results: list) -> None:
        http_client = HttpServiceClient(self.url, timeout=TIMEOUT)
        cycle = self.cycles[client]
        mine: list[dict[str, Any]] = []
        for _ in range(requests):
            cls = cycle[self.sent[client] % len(cycle)]
            sample = one_request(
                http_client,
                self.inputs.request(cls, tenant=f"t{client}"),
                self.inputs.digests[cls],
            )
            sample.update(
                workload=self.workload, round=self.round_index,
                client=client, cls=cls,
            )
            mine.append(sample)
            self.sent[client] += 1
        results[client] = mine


def run_round(
    workload: str,
    round_index: int,
    inputs: Inputs,
    *,
    requests: int,
    warmup: int,
) -> dict[str, Any]:
    """One fresh server: prime, warm up, then ``requests`` timed
    closed-loop requests from each client thread."""
    classes = workload_classes(workload)
    t0 = time.perf_counter()
    with served(inputs.dataset_files(workload), inputs.workdir) as (pid, url):
        # Priming is sequential so each class misses the plan cache
        # exactly once; concurrent first requests could build twice.
        primed = {cls: _prime(url, inputs, cls) for cls in classes}
        clients = _Clients(workload, round_index, inputs, url)
        warmups, _ = clients.run(warmup)
        setup_s = time.perf_counter() - t0

        rss_start = _proc_status(pid)["VmRSS"]
        cpu_start = _cpu_seconds(pid)
        samples, wall = clients.run(requests)
        cpu = _cpu_seconds(pid) - cpu_start
        status = _proc_status(pid)
        fds = len(os.listdir(f"/proc/{pid}/fd"))

        idle = HttpServiceClient(url, timeout=TIMEOUT)
        rtts = []
        for _ in range(HEALTHZ_CALLS):
            t = time.perf_counter()
            idle.healthz()
            rtts.append((time.perf_counter() - t) * 1e3)
        cache = idle.stats()["plan_cache"]

    served_total = len(classes) + len(warmups) + len(samples)
    expected_hit_rate = (served_total - len(classes)) / served_total
    problems = []
    if abs(cache["hit_rate"] - expected_hit_rate) > 1e-12:
        problems.append(
            f"plan cache hit rate {cache['hit_rate']} != {expected_hit_rate}"
        )
    problems += [
        f"warm-up request failed: {s['error']}" for s in warmups if not s["ok"]
    ]
    return {
        "samples": samples,
        "wall_s": wall,
        "setup_s": setup_s,
        "primed": primed,
        "problems": problems,
        "healthz_rtt_ms": median(rtts),
        "plan_cache_misses": cache["misses"],
        "plan_cache_hit_rate": cache["hit_rate"],
        "cpu_ms_per_req": cpu * 1e3 / len(samples),
        "rss_peak_mb": status["VmHWM"] / 1024,
        "rss_kb_per_req": (status["VmRSS"] - rss_start) / len(samples),
        "open_fds_end": fds,
        "threads_end": status["Threads"],
    }
