"""Engine processes: where a served job's engine run happens.

Each queue worker of a :class:`~repro.service.service.QueryService`
owns one resident engine process, forked when the service is built
(before the queue starts a thread) — the paper's Hadoop runs a node's
task slots as child JVMs the same way.  The service keeps everything it
owns: admission, tenants, the one plan cache, job state, waiters and
the HTTP loop.  The process runs :func:`run_job` — ``configure_job``,
``LocalEngine.run``, and packing the output — and nothing else, so two
served jobs run on two cores instead of taking turns at one interpreter
lock, and so do the two parts of one job run alone
(:meth:`~repro.sidr.planner.SIDRPlan.parts`; ``docs/SERVICE.md``,
"Engine processes").

One :class:`Run` in and one :class:`Outcome` out per job part, over a
pipe, through :meth:`EngineProcess.send` and
:meth:`EngineProcess.receive` — split so that one queue worker can
have a part running on each of several processes at once:

* the worker sends a :class:`Run`: job id, request, the session's
  :class:`~repro.service.sessions.SessionRef` and the :class:`Part` to
  run (``None``: the whole job).  A process that lacks the job's plan
  (or an array session's data) answers :class:`Need`, and
  :meth:`EngineProcess.receive` sends the same :class:`Run` again with
  them attached.  The process keeps what it is sent, least recently
  used first out, within the plan cache's byte budget; the service
  keeps no record of what a process holds, so there is nothing to drift.
* the process answers with an :class:`Outcome`: ``done`` with the
  packed block's bytes, counters and the final progress snapshot, or
  ``failed`` with the error and its types.  A whole job's block comes
  digested (:func:`digest_and_block`); a part's does not, since the
  service digests the assembled block once.  The service wraps those
  bytes (:meth:`ResultBlock.from_packed`) and ships them as they are.

A second pipe carries the one control message: a running job's
progress, asked for by ``status()`` and answered with its
:class:`~repro.obs.ProgressTracker` snapshot (:class:`RemoteProgress`
asks every process running a part and merges the answers).  A process
that dies closes its pipes: the worker reads EOF, the part fails with
:class:`~repro.service.api.EngineProcessError` naming the exit code or
signal, and the process is replaced before it runs anything else.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import signal
import socket
import stat
import threading
import time
from collections import OrderedDict
from collections.abc import Callable
from multiprocessing.connection import Connection
from pathlib import Path
from typing import Any, NamedTuple

import numpy as np

from repro.errors import ReproError
from repro.mapreduce.columnar import ResultBlock
from repro.mapreduce.engine import LocalEngine, Part, RetryPolicy
from repro.obs import EventBus, JobObservability, JsonlEventWriter, ProgressTracker
from repro.service import plancache
from repro.service.api import DONE, FAILED, EngineProcessError, QueryRequest
from repro.service.sessions import DatasetSession, SessionRef
from repro.sidr.planner import SIDRPlan
from repro.verify.explorer import failure_types
from repro.verify.oracle import records_digest

#: Seconds ``status()`` waits for a running job's progress.
PROGRESS_TIMEOUT = 1.0
#: Seconds a stopped process gets to exit before it is killed.
STOP_TIMEOUT = 2.0
#: Socket buffer asked for on each end of a job pipe: room for a whole
#: result block (``fine_mean``'s is 266 KB), so a process's answer is
#: written before the service starts reading it (the kernel caps it).
PIPE_BUFFER = 1 << 20


def digest_and_block(out: ResultBlock) -> tuple[str, ResultBlock]:
    """A served job's output (:meth:`JobResult.all_records`) as what
    the service keeps of it: one packed block and the oracle-grade
    digest, the SHA-256 of that block's buffer — pack, then hash what
    was packed.  The block is never turned into records; a split job's
    parts spliced by :meth:`ResultBlock.concatenate` are packed
    already, so they are only hashed."""
    block = out.packed()
    return records_digest(block), block


def execution_mode(engine: str, speculate: bool) -> str:
    """The :meth:`LocalEngine.run` mode a request's ``engine`` is served in.

    A served job runs on the inline executor — its engine process's own
    thread; the queue's workers are the parallelism.  It gets thread
    pools of its own only where it cannot run without a second thread:
    ``threaded`` with ``speculate`` (a hedged backup has to race its
    primary; an explicit ``serial`` keeps the inline executor's
    cancel-and-retry in place).
    """
    if engine == "threaded" and speculate:
        return "threaded"
    return "serial"


class EngineConfig(NamedTuple):
    """What every engine process of one service runs its jobs with."""

    #: Pool sizes of the jobs :func:`execution_mode` pools.
    map_workers: int = 4
    reduce_workers: int = 3
    #: ``serve --events``: the JSONL file every job's events append to.
    events_path: str | None = None
    #: Entries a process keeps at most (the plan cache's capacity).
    capacity: int = 256


class Run(NamedTuple):
    """Service to process: run one job, or one part of it."""

    job_id: str
    request: QueryRequest
    session: SessionRef
    plan: SIDRPlan | None = None
    #: An array session's data.
    array: np.ndarray | None = None
    #: The part to run; ``None`` runs the whole job.
    part: Part | None = None


class Need(NamedTuple):
    """Process to service: send the :class:`Run` again with these."""

    plan: bool
    array: bool


class Outcome(NamedTuple):
    """Process to service: how a job ended."""

    state: str
    #: ``done``: the packed block's bytes and, for a whole job, their
    #: digest.
    block: bytes | None = None
    digest: str | None = None
    counters: dict[str, int] | None = None
    partial: bool = False
    run_seconds: float | None = None
    #: The job's last progress snapshot.
    progress: dict[str, Any] | None = None
    #: Events the ``serve --events`` writer could not write.
    event_write_errors: int = 0
    #: ``failed``: ``"Type: message"`` and the error type names.
    error: str | None = None
    error_types: tuple[str, ...] = ()


def run_job(
    job_id: str,
    request: QueryRequest,
    source: Any,
    plan: SIDRPlan,
    config: EngineConfig,
    *,
    part: Part | None = None,
    watch: Callable[[ProgressTracker], None] | None = None,
) -> Outcome:
    """One served job's engine run, the one function an engine process
    runs: configure the job from the cached plan, run it — or its
    ``part`` — in the request's :func:`execution_mode`, and pack its
    output; a whole job's is hashed too.

    ``source`` is what the job reads (``DatasetSession.engine_source``);
    ``watch`` is handed the run's progress tracker before it starts.
    Errors come back as a ``failed`` outcome, never raised.
    """
    writer = None
    tracker = None
    try:
        job_conf, barrier = plan.configure_job(source, name=f"svc-{job_id}")
        if request.deadline is not None:
            job_conf.deadline = request.deadline
            job_conf.on_deadline = request.on_deadline

        # Only what a request can observe: a job-tagged bus so
        # interleaved streams stay separable, a tracker for the status
        # endpoint and the audit writer under ``serve --events`` — both
        # read the bus's record, so neither listens.  No phases, spans
        # or metrics registry: the counters are the engine's
        # finish-time reading of the same record.
        bus = EventBus(
            job=job_id,
            part=None if part is None else (part.reduces.start, part.reduces.stop),
        )
        obs = JobObservability(job_conf.name, enabled=False, bus=bus)
        tracker = ProgressTracker(bus)
        if watch is not None:
            watch(tracker)
        if config.events_path is not None:
            writer = JsonlEventWriter(bus, config.events_path, append=True)

        engine = LocalEngine(
            map_workers=config.map_workers,
            reduce_workers=config.reduce_workers,
            retry=RetryPolicy(max_attempts=request.max_attempts, backoff_base=0.0),
            faults=request.injection_plan(),
            recovery=request.recovery_model(),
            speculation=request.speculation_policy(),
        )
        t0 = time.perf_counter()
        res = engine.run(
            job_conf, barrier,
            mode=execution_mode(request.engine, request.speculate), obs=obs,
            part=part,
        )
        run_seconds = time.perf_counter() - t0
        if part is None:
            digest, block = digest_and_block(res.all_records())
        else:
            digest, block = None, res.all_records().packed()
        outcome = Outcome(
            DONE,
            block=block.to_bytes(),
            digest=digest,
            counters=dict(res.counters.as_dict()),
            partial=res.partial,
            run_seconds=run_seconds,
        )
    except Exception as exc:  # a bug must not take the process down
        outcome = failed_outcome(exc)
    finally:
        if writer is not None:
            writer.close()
    return outcome._replace(
        progress=None if tracker is None else tracker.snapshot(),
        event_write_errors=0 if writer is None else writer.write_errors,
    )


def failed_outcome(exc: Exception) -> Outcome:
    """``exc`` as a ``failed`` outcome, typed."""
    return Outcome(
        FAILED, error=f"{type(exc).__name__}: {exc}", error_types=failure_types(exc)
    )


# --------------------------------------------------------------------- #
# Inside the process
# --------------------------------------------------------------------- #
class _Resident:
    """What a process keeps between jobs: the plans and array sessions
    it has been sent, least recently used first out past the plan
    cache's entry or byte budget, and one handle per file session."""

    def __init__(self, capacity: int) -> None:
        self._capacity = capacity
        self._kept: OrderedDict[tuple[str, ...], tuple[Any, int]] = OrderedDict()
        self._bytes = 0
        #: path -> (the service's digest of it, this process's handle)
        self._files: dict[str, tuple[str, DatasetSession]] = {}

    def get(self, key: tuple[str, ...]) -> Any:
        entry = self._kept.get(key)
        if entry is None:
            return None
        self._kept.move_to_end(key)
        return entry[0]

    def keep(self, key: tuple[str, ...], value: Any) -> None:
        size = int(getattr(value, "nbytes", 0))
        old = self._kept.pop(key, None)
        if old is not None:
            self._bytes -= old[1]
        self._kept[key] = (value, size)
        self._bytes += size
        while self._kept and (
            len(self._kept) > self._capacity or self._bytes > plancache.MAX_BYTES
        ):
            _, (_, evicted) = self._kept.popitem(last=False)
            self._bytes -= evicted

    def file_source(self, ref: SessionRef) -> Any:
        """The file session's engine source, reopened when the service's
        digest of it moved (a write through the service)."""
        assert ref.path is not None
        held = self._files.get(ref.path)
        if held is None or held[0] != ref.digest:
            if held is not None:
                held[1].close()
            held = (ref.digest, DatasetSession(ref.name, path=ref.path))
            self._files[ref.path] = held
        return held[1].engine_source()


def _handle(
    message: Run,
    resident: _Resident,
    config: EngineConfig,
    watch: Callable[[ProgressTracker], None],
) -> Outcome | Need:
    ref, request = message.session, message.request
    plan_key, array_key = (ref.digest, request.plan_key()), (ref.digest,)
    if message.plan is not None:
        resident.keep(plan_key, message.plan)
    if message.array is not None:
        resident.keep(array_key, message.array)
    plan = resident.get(plan_key) if message.plan is None else message.plan
    if ref.path is not None:
        try:
            source = resident.file_source(ref)
        except (ReproError, OSError) as exc:  # fails the job, not the process
            return failed_outcome(exc)
    elif message.array is not None:
        source = message.array
    else:
        source = resident.get(array_key)
    if plan is None or source is None:
        return Need(plan=plan is None, array=source is None)
    return run_job(
        message.job_id, request, source, plan, config,
        part=message.part, watch=watch,
    )


def _sever_inherited_sockets(keep: set[int]) -> None:
    """Point every inherited socket but ``keep`` at ``/dev/null``.

    A forked process holds a copy of each socket its parent had open:
    the server's listening socket, its clients' connections, the other
    processes' pipes.  A copy keeps a connection the server closed from
    ending, and a sibling's pipe from reading EOF when the sibling dies.
    ``dup2`` over the descriptor, not ``close``: a Python object still
    owning the number closes ``/dev/null`` if it is ever collected,
    never a file this process has opened since."""
    try:
        names = os.listdir("/proc/self/fd")
    except OSError:
        return
    null = os.open(os.devnull, os.O_RDWR)
    try:
        for name in names:
            fd = int(name)
            if fd in keep or fd == null:
                continue
            try:
                if stat.S_ISSOCK(os.fstat(fd).st_mode):
                    os.dup2(null, fd)
            except OSError:
                continue  # the listing's own descriptor, closed by now
    finally:
        os.close(null)


def _answer_progress(control: Connection, running: dict[str, ProgressTracker]) -> None:
    """The control thread: each ``(seq, job id)`` gets ``(seq, the
    job's progress snapshot or None)``."""
    while True:
        try:
            seq, job_id = control.recv()
        except (EOFError, OSError):
            return
        tracker = running.get(job_id)
        control.send((seq, None if tracker is None else tracker.snapshot()))


def _serve(jobs: Connection, control: Connection, config: EngineConfig) -> None:
    """An engine process's main loop: one :class:`Run` in, one answer
    out, until the service sends ``None`` or goes away.  A process runs
    at most one part of a job, so the job id names what it runs."""
    # Ctrl-C reaches the whole process group; the service stops us.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    _sever_inherited_sockets({jobs.fileno(), control.fileno()})
    resident = _Resident(config.capacity)
    running: dict[str, ProgressTracker] = {}
    threading.Thread(
        target=_answer_progress, args=(control, running),
        name="engine-control", daemon=True,
    ).start()
    while True:
        try:
            message = jobs.recv()
        except (EOFError, OSError):
            return
        if message is None:
            return
        try:
            answer = _handle(
                message, resident, config,
                lambda tracker: running.__setitem__(message.job_id, tracker),
            )
        finally:
            running.clear()
        jobs.send(answer)


# --------------------------------------------------------------------- #
# The service's side
# --------------------------------------------------------------------- #
class EngineProcess:
    """One queue worker's engine process, as the service holds it: the
    service's ends of its two pipes, and counts for ``/stats``."""

    def __init__(self, config: EngineConfig) -> None:
        self._config = config
        self._control_lock = threading.Lock()
        self._seq = itertools.count()
        #: Jobs and job parts sent, and processes started in place of a
        #: dead one.
        self.jobs = 0
        self.restarts = 0
        #: The last :meth:`send`'s message, plan and session, for a
        #: :class:`Need`.
        self._sent: tuple[Run, SIDRPlan, DatasetSession] | None = None
        self._start()

    def _start(self) -> None:
        # Fork, not spawn or forkserver: a forked process is ready in a
        # few milliseconds with everything imported, where a fresh
        # interpreter takes about half a second.
        ctx = multiprocessing.get_context("fork")
        self._jobs, child_jobs = ctx.Pipe()
        for end in (self._jobs, child_jobs):
            _widen(end)
        self._control, child_control = ctx.Pipe()
        self._process = ctx.Process(
            target=_serve, args=(child_jobs, child_control, self._config),
            name="repro-engine", daemon=True,
        )
        self._process.start()
        child_jobs.close()
        child_control.close()
        self.pid = self._process.pid

    def send(
        self, job_id: str, request: QueryRequest, session: DatasetSession,
        plan: SIDRPlan, part: Part | None = None,
    ) -> None:
        """Start one job, or one ``part`` of it, in the process;
        :meth:`receive` reads its answer.  :class:`EngineProcessError`
        if the process is gone."""
        if not self._process.is_alive():  # it died between jobs
            self.respawn()
        self.jobs += 1
        message = Run(job_id, request, session.ref(), part=part)
        self._sent = (message, plan, session)
        try:
            self._jobs.send(message)
        except OSError:
            raise self._died() from None

    def receive(self) -> Outcome | None:
        """The answer to the last :meth:`send`, once
        :attr:`connection` is readable: its :class:`Outcome`, or
        ``None`` when the process asked for the plan or data and was
        sent them (read again).  :class:`EngineProcessError` if the
        process died first."""
        try:
            answer = self._jobs.recv()
            if isinstance(answer, Need):
                assert self._sent is not None
                message, plan, session = self._sent
                self._jobs.send(message._replace(
                    plan=plan if answer.plan else None,
                    array=session.array if answer.array else None,
                ))
                return None
        except (EOFError, OSError):
            raise self._died() from None
        return answer

    @property
    def connection(self) -> Connection:
        """The service's end of the job pipe, for
        :func:`multiprocessing.connection.wait`."""
        return self._jobs

    def _died(self) -> EngineProcessError:
        return EngineProcessError(
            f"engine process {self.pid} {self._exit_reason()}"
        )

    def _exit_reason(self) -> str:
        self._process.join(STOP_TIMEOUT)
        code = self._process.exitcode
        if code is None:
            return "closed its pipe"
        if code < 0:
            return f"was killed by {signal.Signals(-code).name}"
        return f"exited with code {code}"

    def progress(self, job_id: str) -> dict[str, Any] | None:
        """The running job's progress snapshot, asked of the process;
        ``None`` when it does not answer in :data:`PROGRESS_TIMEOUT`."""
        with self._control_lock:
            seq = next(self._seq)
            try:
                self._control.send((seq, job_id))
                while self._control.poll(PROGRESS_TIMEOUT):
                    got, doc = self._control.recv()
                    if got == seq:  # an older answer came too late
                        return doc
            except (EOFError, OSError):
                pass
        return None

    def respawn(self) -> None:
        """Reap the dead process and fork its replacement."""
        with self._control_lock:
            self._stop()
            self._start()
        self.restarts += 1

    def stop(self) -> None:
        """Stop the process (killed if it does not exit in
        :data:`STOP_TIMEOUT`) and reap it; idempotent."""
        with self._control_lock:
            self._stop()

    def _stop(self) -> None:
        try:
            self._jobs.send(None)
        except OSError:
            pass  # dead already, or stopped before
        self._process.join(STOP_TIMEOUT)
        if self._process.exitcode is None:
            self._process.kill()
            self._process.join()
        self._jobs.close()
        self._control.close()

    def snapshot(self) -> dict[str, Any]:
        return {
            "pid": self.pid,
            "jobs": self.jobs,
            "restarts": self.restarts,
            "rss_kb": _rss_kb(self.pid),
        }


class RemoteProgress:
    """A running job's ``progress`` as :class:`ServiceJob` holds it: a
    :meth:`snapshot` that asks the engine process of each of the job's
    parts still running — a part that ended left its last snapshot
    (:meth:`ended`) — and merges the answers under the whole job's task
    totals (:func:`merge_progress`)."""

    def __init__(
        self,
        engines: list[EngineProcess],
        job_id: str,
        maps: int,
        reduces: int,
    ) -> None:
        self._engines = engines
        self._job_id = job_id
        self._totals = maps, reduces
        self._last: list[dict[str, Any] | None] = [None] * len(engines)

    def ended(self, part: int, progress: dict[str, Any] | None) -> None:
        """Part ``part`` ended with ``progress``: its engine may run
        something else now."""
        self._last[part] = progress

    def snapshot(self) -> dict[str, Any] | None:
        docs = [
            engine.progress(self._job_id) if last is None else last
            for engine, last in zip(self._engines, self._last)
        ]
        if len(docs) == 1:
            return docs[0]
        return merge_progress(docs, *self._totals)


def merge_progress(
    docs: list[dict[str, Any] | None], maps: int, reduces: int
) -> dict[str, Any] | None:
    """One progress document of a job run in parts, from the parts'
    :meth:`ProgressTracker.snapshot` documents (``None``: a part that
    did not answer), with ``maps`` and ``reduces`` the whole job's task
    counts.
    Counts add up; the job is ``done`` when every part is, ``failed``
    when one is, and running until then."""
    docs = [d for d in docs if d is not None]
    if not docs:
        return None
    states = {d["state"] for d in docs}
    if states == {"done"}:
        state = "done"
    elif "failed" in states:
        state = "failed"
    elif states == {"pending"}:
        state = "pending"
    else:
        state = "running"

    def total(section: str, field: str) -> int:
        return sum(d[section][field] for d in docs)

    maps_done, reduces_done = total("maps", "done"), total("reduces", "done")
    fired = total("reduces", "fired")
    m = maps_done / maps if maps else 0.0
    rd = reduces_done / reduces if reduces else 0.0
    etas = [d["eta"] for d in docs if d["eta"] is not None]
    # Each part's curve point is one more of its reduces done.
    times = sorted(t for d in docs for t, _ in d["reduce_curve"])
    return {
        "job": docs[0]["job"],
        "state": state,
        "elapsed": max(d["elapsed"] for d in docs),
        "eta": max(etas) if etas else None,
        "progress": round((m + rd) / 2.0, 6),
        "maps": {
            "total": maps,
            "done": maps_done,
            "inflight": total("maps", "inflight"),
            "fraction": round(m, 6),
        },
        "reduces": {
            "total": reduces,
            "fired": fired,
            "done": reduces_done,
            "inflight": total("reduces", "inflight"),
            "fraction_fired": round(fired / reduces if reduces else 0.0, 6),
            "fraction": round(rd, 6),
        },
        "tasks_inflight": sum(d["tasks_inflight"] for d in docs),
        "attempts": {
            "retries": total("attempts", "retries"),
            "failures": total("attempts", "failures"),
        },
        "stragglers": sorted(
            (s for d in docs for s in d["stragglers"]),
            key=lambda s: (s["kind"], s["index"]),
        ),
        "reduce_curve": [
            [t, round((i + 1) / reduces, 6)] for i, t in enumerate(times)
        ],
        "events": {"published": sum(d["events"]["published"] for d in docs)},
    }


def _widen(conn: Connection) -> None:
    sock = socket.socket(fileno=os.dup(conn.fileno()))
    try:
        for option in (socket.SO_SNDBUF, socket.SO_RCVBUF):
            sock.setsockopt(socket.SOL_SOCKET, option, PIPE_BUFFER)
    finally:
        sock.close()


def _rss_kb(pid: int) -> int | None:
    """``VmRSS`` of ``/proc/<pid>/status``; ``None`` once it is gone."""
    try:
        text = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return None
    for line in text.splitlines():
        if line.startswith("VmRSS:"):
            return int(line.split()[1])
    return None
