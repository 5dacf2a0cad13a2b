"""Engine processes: where a served job's engine run happens.

A :class:`~repro.service.service.QueryService` has ``workers``
resident engine processes, its **slots**, forked when the service is
built (before its one thread starts) — the paper's Hadoop runs a
node's task slots as child JVMs the same way.  The service keeps
everything it owns: admission, tenants, the one plan cache, job state,
waiters and the HTTP loop.  The process runs :func:`run_job` —
``configure_job``, ``LocalEngine.run``, and packing the output — and
nothing else, so two served jobs run on two cores instead of taking
turns at one interpreter lock, and so do the two parts of one job run
alone (:meth:`~repro.sidr.planner.SIDRPlan.parts`; ``docs/SERVICE.md``,
"Engine processes").

One :class:`Run` in and one :class:`Outcome` out per job part, over a
pipe, through :meth:`EngineProcess.send` and
:meth:`EngineProcess.receive` — split so that the service's one event
loop, whose reader each job pipe is, can have a part on every slot:

* the service sends a :class:`Run`, the part complete: job id,
  request, the session's :class:`~repro.service.sessions.SessionRef`,
  the :class:`Part` to run (a job of one part runs
  ``SIDRPlan.parts(1)``, the whole plan) and the plan's pickled bytes,
  as the service's plan cache keeps them.  The process unpickles the
  plan for the part and keeps nothing of it; of a session it keeps
  one open handle per name, reopened (the old one closed) when the
  session's path or digest moves.  Every session is a file, so the
  service keeps no record of what a process holds, and there is
  nothing to drift.
* the process answers with an :class:`Outcome`: ``done`` with the
  packed block's bytes, counters and the final progress snapshot, or
  ``failed`` with the error and its types.  A block over
  :data:`MAX_RESULT_BYTES` fails the part instead.  The service wraps
  each part's bytes (:meth:`ResultBlock.from_packed`), splices a job's
  parts and digests the job's block once — a lone part's bytes are
  served as they are.

A second pipe carries the one control message: a running part's
progress, asked for by ``status()`` — never on the loop — and answered
with its :class:`~repro.obs.ProgressTracker` snapshot; the service's
record of a running job merges its parts' (:func:`merge_progress`).  A
process that dies closes its pipes: the loop reads EOF, the part
fails with :class:`~repro.service.api.EngineProcessError` naming the
exit code or signal, and the process is replaced, its new pipe watched,
before its slot takes another part.

Each slot runs under ``SCHED_BATCH`` (:func:`_place`), so a process
woken with a part does not preempt the service's loop before the loop
has sent the job's other parts; and, while there are CPUs enough, on
CPUs of its own (:func:`deal_cpus`), so two busy processes do not
share one CPU while another idles.  The replacement of a dead process
keeps its slot's CPUs.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import pickle
import signal
import socket
import stat
import threading
import time
from collections.abc import Callable, Iterable
from multiprocessing.connection import Connection
from pathlib import Path
from typing import Any, NamedTuple

from repro.errors import ReproError
from repro.mapreduce.columnar import ResultBlock
from repro.mapreduce.engine import Part
from repro.obs import EventBus, JobObservability, JsonlEventWriter, ProgressTracker
from repro.service.api import (
    DONE,
    FAILED,
    EngineProcessError,
    QueryRequest,
    ResultTooLargeError,
)
from repro.service.sessions import DatasetSession, SessionRef
from repro.sidr.planner import SIDRPlan
from repro.verify.explorer import failure_types
from repro.verify.oracle import records_digest

#: Seconds ``status()`` waits for a running job's progress.
PROGRESS_TIMEOUT = 1.0
#: Seconds a stopped process gets to exit before it is killed.
STOP_TIMEOUT = 2.0
#: Socket buffer asked for on each end of a job pipe: room for a whole
#: result block (``fine_mean``'s is 66 632 bytes), so a process's answer
#: is written before the service starts reading it (the kernel caps it).
PIPE_BUFFER = 1 << 20
#: Bytes a served job's packed result block may hold.  A process checks
#: its part's block before the block crosses the pipe, and the service
#: checks the parts' summed sizes before splicing them; over it, the
#: job fails with :class:`~repro.service.api.ResultTooLargeError`.
MAX_RESULT_BYTES = 64 << 20


def check_result_size(nbytes: int) -> None:
    """Raise :class:`ResultTooLargeError` when a result block of
    ``nbytes`` is over :data:`MAX_RESULT_BYTES` (read at call time)."""
    if nbytes > MAX_RESULT_BYTES:
        raise ResultTooLargeError(
            f"result block of {nbytes} bytes is over the service's cap "
            f"of {MAX_RESULT_BYTES}"
        )


def digest_and_block(out: ResultBlock) -> tuple[str, ResultBlock]:
    """A served job's output as what the service keeps of it: one
    packed block and the oracle-grade digest, the SHA-256 of that
    block's buffer — pack, then hash what was packed.  The block is
    never turned into records; a job's parts spliced by
    :meth:`ResultBlock.concatenate` (or its lone part) are packed
    already, so they are only hashed."""
    block = out.packed()
    return records_digest(block), block


def execution_mode(engine: str, speculate: bool) -> str:
    """The :meth:`LocalEngine.run` mode a request's ``engine`` is served in.

    A served job runs on the inline executor — its engine process's own
    thread; the slots are the parallelism.  It gets thread pools of its
    own only where it cannot run without a second thread:
    ``threaded`` with ``speculate`` (a hedged backup has to race its
    primary; an explicit ``serial`` keeps the inline executor's
    cancel-and-retry in place).
    """
    if engine == "threaded" and speculate:
        return "threaded"
    return "serial"


def deal_cpus(cpus: Iterable[int], workers: int) -> list[frozenset[int]]:
    """``cpus`` dealt round-robin to ``workers`` slots: slot *i* gets
    every ``workers``-th CPU from the *i*-th, in CPU order.  When the
    slots outnumber the CPUs, no slot can have one of its own, and
    every slot keeps them all, as the service holds them."""
    ordered = sorted(cpus)
    if workers > len(ordered):
        return [frozenset(ordered)] * workers
    return [frozenset(ordered[i::workers]) for i in range(workers)]


def _place(cpus: frozenset[int]) -> None:
    """Pin this process to ``cpus`` and run it ``SCHED_BATCH``, which
    needs no privilege and never preempts on wake-up.  A call the
    platform lacks (``cpus`` is empty where it has no CPU affinity) or
    refuses is skipped, and the process keeps what it inherited from
    the service."""
    if cpus:
        try:
            os.sched_setaffinity(0, cpus)
        except OSError:
            pass
    if hasattr(os, "SCHED_BATCH"):
        try:
            os.sched_setscheduler(0, os.SCHED_BATCH, os.sched_param(0))
        except OSError:
            pass


def _placement(pid: int) -> tuple[list[int] | None, str | None]:
    """``pid``'s CPUs (sorted) and scheduling policy (``"batch"`` or
    ``"other"``), read back from the OS; ``None`` once it is gone, or
    where the platform cannot say."""
    if not hasattr(os, "SCHED_BATCH"):
        return None, None
    try:
        cpus = sorted(os.sched_getaffinity(pid))
        batch = os.sched_getscheduler(pid) == os.SCHED_BATCH
    except OSError:
        return None, None
    return cpus, "batch" if batch else "other"


class EngineConfig(NamedTuple):
    """What every engine process of one service runs its jobs with."""

    #: Pool sizes of the jobs :func:`execution_mode` pools.
    map_workers: int = 4
    reduce_workers: int = 3
    #: ``serve --events``: the JSONL file every job's events append to.
    events_path: str | None = None


class Run(NamedTuple):
    """Service to process: run one part of a job."""

    job_id: str
    request: QueryRequest
    session: SessionRef
    part: Part
    #: The job's plan, pickled (:class:`~repro.service.plancache.Cached`).
    plan: bytes


class Outcome(NamedTuple):
    """Process to service: how a job part ended; the service's
    assembly of a job's parts is the job's."""

    state: str
    #: ``done``: the packed block's bytes; the assembled job's digest
    #: is the service's (a process sends none).
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
    part: Part,
    watch: Callable[[ProgressTracker], None] | None = None,
) -> Outcome:
    """One served job part's engine run, the one function an engine
    process runs: configure the job from the cached plan, run its
    ``part`` (``plan.parts(1)[0]`` is the whole job) in the request's
    :func:`execution_mode`, and pack its output.

    ``source`` is what the job reads (``DatasetSession.engine_source``);
    ``watch`` is handed the run's progress tracker before it starts.
    Errors come back as a ``failed`` outcome, never raised.
    """
    writer = None
    tracker = None
    try:
        job_conf, barrier = plan.configure_job(source, name=f"svc-{job_id}")
        job_conf.deadline, job_conf.on_deadline = request.deadline, request.on_deadline

        # Only what a request can observe: a job-tagged bus so
        # interleaved streams stay separable, a tracker for the status
        # endpoint and the audit writer under ``serve --events`` — both
        # read the bus's record, so neither listens.  No phases, spans
        # or metrics registry: the counters are the engine's
        # finish-time reading of the same record.
        bus = EventBus(job=job_id, part=(part.reduces.start, part.reduces.stop))
        obs = JobObservability(job_conf.name, enabled=False, bus=bus)
        tracker = ProgressTracker(bus)
        if watch is not None:
            watch(tracker)
        if config.events_path is not None:
            writer = JsonlEventWriter(bus, config.events_path, append=True)

        engine = request.local_engine(config.map_workers, config.reduce_workers)
        t0 = time.perf_counter()
        res = engine.run(
            job_conf, barrier,
            mode=execution_mode(request.engine, request.speculate), obs=obs,
            part=part,
        )
        run_seconds = time.perf_counter() - t0
        # Packed once: these bytes are what is sent, hashed and served.
        data = res.all_records().to_bytes()
        check_result_size(len(data))
        outcome = Outcome(
            DONE,
            block=data,
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
def _handle(
    message: Run,
    files: dict[str, tuple[str, str, DatasetSession]],
    config: EngineConfig,
    watch: Callable[[ProgressTracker], None],
) -> Outcome:
    """Run ``message``'s part on the plan it carries.  ``files`` holds
    one handle per session: name -> (its path, the service's digest of
    it, the handle), reopened and the old handle closed when the path
    (a registration) or the digest (a write through the service)
    moved."""
    ref = message.session
    held = files.get(ref.name)
    try:
        if held is None or held[:2] != (ref.path, ref.digest):
            if held is not None:
                held[2].close()
            held = files[ref.name] = (
                ref.path, ref.digest, DatasetSession(ref.name, path=ref.path)
            )
        source = held[2].engine_source()
    except (ReproError, OSError) as exc:  # fails the job, not the process
        return failed_outcome(exc)
    return run_job(
        message.job_id, message.request, source, pickle.loads(message.plan),
        config, part=message.part, watch=watch,
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


def _serve(
    jobs: Connection, control: Connection, config: EngineConfig,
    cpus: frozenset[int],
) -> None:
    """An engine process's main loop: one :class:`Run` in, one
    :class:`Outcome` out, until the service sends ``None`` or goes
    away.  A process runs at most one part of a job, so the job id
    names what it runs; it is placed on its slot's ``cpus`` before it
    starts a thread."""
    _place(cpus)
    # Ctrl-C reaches the whole process group; the service stops us.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    _sever_inherited_sockets({jobs.fileno(), control.fileno()})
    files: dict[str, tuple[str, str, DatasetSession]] = {}
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
                message, files, config,
                lambda tracker: running.__setitem__(message.job_id, tracker),
            )
        finally:
            running.clear()
        jobs.send(answer)


# --------------------------------------------------------------------- #
# The service's side
# --------------------------------------------------------------------- #
class EngineProcess:
    """One slot's engine process, as the service holds it: the
    service's ends of its two pipes, the slot's CPUs, and counts for
    ``/stats``."""

    def __init__(self, config: EngineConfig, cpus: frozenset[int]) -> None:
        self._config = config
        #: The slot's CPUs (:func:`deal_cpus`); a replacement keeps them.
        self._cpus = cpus
        self._control_lock = threading.Lock()
        self._seq = itertools.count()
        #: Job parts sent, and processes started in place of a dead one.
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
            target=_serve,
            args=(child_jobs, child_control, self._config, self._cpus),
            name="repro-engine", daemon=True,
        )
        self._process.start()
        child_jobs.close()
        child_control.close()
        self.pid = self._process.pid

    def send(
        self, job_id: str, request: QueryRequest, session: DatasetSession,
        plan: bytes, part: Part,
    ) -> None:
        """Start one ``part`` of a job, whose pickled ``plan`` it
        carries, in the process; :meth:`receive` reads its answer.
        :class:`EngineProcessError` if the process is gone."""
        self.jobs += 1
        try:
            self._jobs.send(Run(job_id, request, session.ref(), part, plan))
        except OSError:
            raise self._died() from None

    def receive(self) -> Outcome:
        """The :class:`Outcome` of the last :meth:`send`, once
        :attr:`connection` is readable.  :class:`EngineProcessError` if
        the process died first."""
        try:
            return self._jobs.recv()
        except (EOFError, OSError):
            raise self._died() from None

    @property
    def connection(self) -> Connection:
        """The service's end of the job pipe, a reader of its loop: a
        new one after :meth:`respawn`."""
        return self._jobs

    def alive(self) -> bool:
        return self._process.is_alive()

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

    def stop(self, timeout: float = STOP_TIMEOUT) -> None:
        """Stop the process (killed if it does not exit in ``timeout``
        seconds) and reap it; idempotent."""
        with self._control_lock:
            self._stop(timeout)

    def _stop(self, timeout: float = STOP_TIMEOUT) -> None:
        try:
            self._jobs.send(None)
        except OSError:
            pass  # dead already, or stopped before
        self._process.join(timeout)
        if self._process.exitcode is None:
            self._process.kill()
            self._process.join()
        self._jobs.close()
        self._control.close()

    def snapshot(self) -> dict[str, Any]:
        cpus, policy = _placement(self.pid)
        return {
            "pid": self.pid,
            "jobs": self.jobs,
            "restarts": self.restarts,
            "rss_kb": _status_field(self.pid, "VmRSS"),
            "cpus": cpus,
            "policy": policy,
            "fds": _open_fds(self.pid),
        }


def merge_progress(
    docs: list[dict[str, Any] | None], maps: int, reduces: int
) -> dict[str, Any] | None:
    """One progress document of a job, from its parts'
    :meth:`ProgressTracker.snapshot` documents (``None``: a part that
    did not answer), with ``maps`` and ``reduces`` the whole job's task
    counts.  A lone part's document is the job's, as it is.  Of
    several, counts add up; the job is ``done`` when every part is,
    ``failed`` when one is, and running until then."""
    if len(docs) == 1:
        return docs[0]
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


def _status_field(pid: int | str, field: str) -> int | None:
    """The number after ``field:`` in ``/proc/<pid>/status``; ``None``
    once the process is gone."""
    try:
        text = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return None
    for line in text.splitlines():
        if line.startswith(field + ":"):
            return int(line.split()[1])
    return None


def _open_fds(pid: int | str) -> int | None:
    """How many descriptors ``pid`` has open, from ``/proc/<pid>/fd``;
    ``None`` once the process is gone."""
    try:
        return len(os.listdir(f"/proc/{pid}/fd"))
    except OSError:
        return None


def own_process() -> dict[str, int | None]:
    """The service's own process as ``GET /stats`` shows it, read from
    ``/proc/self``: resident KiB, open descriptors and OS threads."""
    return {
        "rss_kb": _status_field("self", "VmRSS"),
        "fds": _open_fds("self"),
        "threads": _status_field("self", "Threads"),
    }
