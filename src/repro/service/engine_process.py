"""Engine processes: where a served job's engine run happens.

Each queue worker of a :class:`~repro.service.service.QueryService`
owns one resident engine process, forked when the service is built
(before the queue starts a thread) — the paper's Hadoop runs a node's
task slots as child JVMs the same way.  The service keeps everything it
owns: admission, tenants, the one plan cache, job state, waiters and
the HTTP loop.  The process runs :func:`run_job` — ``configure_job``,
``LocalEngine.run``, :func:`digest_and_block` — and nothing else, so
two served jobs run on two cores instead of taking turns at one
interpreter lock.

One message each way per job, over a pipe:

* the worker sends a :class:`Run`: job id, request and the session's
  :class:`~repro.service.sessions.SessionRef`.  A process that lacks
  the job's plan (or an array session's data) answers :class:`Need`,
  and the worker sends the same :class:`Run` again with them attached.
  The process keeps what it is sent, least recently used first out,
  within the plan cache's byte budget; the service keeps no record of
  what a process holds, so there is nothing to drift.
* the process answers with an :class:`Outcome`: ``done`` with the bytes
  :func:`digest_and_block` packed, the digest, counters and the final
  progress snapshot, or ``failed`` with the error and its types.  The
  service wraps those bytes (:meth:`ResultBlock.from_packed`) and ships
  them as they are.

A second pipe carries the one control message: a running job's
progress, asked for by ``status()`` and answered with its
:class:`~repro.obs.ProgressTracker` snapshot.  A process that dies
closes its pipes: the worker reads EOF, the job fails with
:class:`~repro.service.api.EngineProcessError` naming the exit code or
signal, and the process is replaced before that worker's next job.
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
from repro.mapreduce.engine import LocalEngine, RetryPolicy
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
    was packed.  The block is never turned into records."""
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
    """Service to process: run one job."""

    job_id: str
    request: QueryRequest
    session: SessionRef
    plan: SIDRPlan | None = None
    #: An array session's data.
    array: np.ndarray | None = None


class Need(NamedTuple):
    """Process to service: send the :class:`Run` again with these."""

    plan: bool
    array: bool


class Outcome(NamedTuple):
    """Process to service: how a job ended."""

    state: str
    #: ``done``: the packed block's bytes and their digest.
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
    watch: Callable[[ProgressTracker], None] | None = None,
) -> Outcome:
    """One served job's whole engine run, the one function an engine
    process runs: configure the job from the cached plan, run it in the
    request's :func:`execution_mode`, pack and hash its output.

    ``source`` is what the job reads (``DatasetSession.engine_source``);
    ``watch`` is handed the job's progress tracker before the run
    starts.  Errors come back as a ``failed`` outcome, never raised.
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
        bus = EventBus(job=job_id)
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
        )
        run_seconds = time.perf_counter() - t0
        digest, block = digest_and_block(res.all_records())
        outcome = Outcome(
            DONE,
            block=block.to_bytes(),
            digest=digest,
            counters=dict(res.counters.as_dict()),
            partial=res.partial,
            run_seconds=run_seconds,
        )
    except Exception as exc:  # a bug must not take the process down
        outcome = _failed(exc)
    finally:
        if writer is not None:
            writer.close()
    return outcome._replace(
        progress=None if tracker is None else tracker.snapshot(),
        event_write_errors=0 if writer is None else writer.write_errors,
    )


def _failed(exc: Exception) -> Outcome:
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
            return _failed(exc)
    elif message.array is not None:
        source = message.array
    else:
        source = resident.get(array_key)
    if plan is None or source is None:
        return Need(plan=plan is None, array=source is None)
    return run_job(message.job_id, request, source, plan, config, watch=watch)


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
    out, until the service sends ``None`` or goes away."""
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
        #: Jobs sent, and processes started in place of a dead one.
        self.jobs = 0
        self.restarts = 0
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

    def run(
        self, job_id: str, request: QueryRequest, session: DatasetSession,
        plan: SIDRPlan,
    ) -> Outcome:
        """Run one job in the process; :class:`EngineProcessError` if
        the process dies first."""
        if not self._process.is_alive():  # it died between jobs
            self.respawn()
        self.jobs += 1
        message = Run(job_id, request, session.ref())
        try:
            self._jobs.send(message)
            answer = self._jobs.recv()
            if isinstance(answer, Need):
                self._jobs.send(message._replace(
                    plan=plan if answer.plan else None,
                    array=session.array if answer.array else None,
                ))
                answer = self._jobs.recv()
        except (EOFError, OSError):
            raise EngineProcessError(
                f"engine process {self.pid} {self._exit_reason()}"
            ) from None
        return answer

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
    :meth:`snapshot` that asks the job's engine process."""

    def __init__(self, engine: EngineProcess, job_id: str) -> None:
        self._engine = engine
        self._job_id = job_id

    def snapshot(self) -> dict[str, Any] | None:
        return self._engine.progress(self._job_id)


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
