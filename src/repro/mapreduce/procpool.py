"""Worker-process pool behind :meth:`LocalEngine.run_processes`.

The process engine keeps *all* orchestration in the parent — retry
loops, speculation races, the shuffle store's commit gate, barrier
checks, recovery — and moves only the task *bodies* into forked worker
processes.  The split of responsibilities:

* **Worker** (one task at a time): runs the map/reduce body against a
  :class:`~repro.mapreduce.engine.JobConf` it inherited via fork (job
  closures are not picklable, so the conf rides the fork, not the
  pipe).  A map attempt writes its spill as segment files
  (:mod:`repro.mapreduce.spillfiles`) and ships back a manifest; a
  reduce attempt ``mmap``s the segments named by the handles it was
  sent.  Heartbeats and other obs events are forwarded over the result
  pipe.  Map-side faults fire *inside* the worker with no cancel token:
  an injected ``hang`` blocks the worker forever, heartbeats stop, the
  parent's hang detector flags it, and cancellation arrives as SIGKILL.
* **Parent** (per task thread): runs the reduce-side
  barrier/validator/fetch sequence (it owns the store), submits a
  descriptor, and waits.  Waiting doubles as the cancel
  point: when the attempt's token fires, the worker is killed and the
  attempt raises :class:`~repro.errors.TaskCancelledError` with the
  token's reason — so supersede/hang/deadline routing in
  ``_run_attempts`` (which also publishes the attempt's
  ``task.start``/``task.finish``, as for every runner) is untouched.
  A worker that dies *without* a pending cancel surfaces as
  :class:`~repro.errors.WorkerCrashError` (retryable, the paper's lost
  tasktracker).

Death detection uses ``multiprocessing.connection.wait`` over the
result pipe *and* the process sentinel rather than pipe EOF — forked
siblings inherit each other's pipe ends, so EOF alone is not reliable.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import pickle
import shutil
import threading
import uuid
from collections.abc import Sequence
from multiprocessing.connection import wait as _mp_wait
from typing import TYPE_CHECKING, Any

from repro.errors import ReproError, TaskCancelledError, WorkerCrashError
from repro.mapreduce.columnar import run_columnar_map, run_columnar_reduce
from repro.mapreduce.engine import LocalEngine
from repro.mapreduce.record import run_record_map, run_record_reduce
from repro.mapreduce.spillfiles import (
    SpillDirectory,
    handles_from_manifest,
    write_segments,
)
from repro.mapreduce.counters import Counters
from repro.mapreduce.types import MapTaskId
from repro.obs import JobObservability
from repro.spec import Heartbeat

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mapreduce.engine import JobConf, _RunState
    from repro.mapreduce.shuffle import BarrierPolicy, ShuffleStore
    from repro.spec import CancelToken

#: Fork-inherited side channel for unpicklable per-pool context
#: (the JobConf with its operator closures, the bound fault plan).
#: Keyed by pool id; populated before the first fork, cleared at close.
_CONTEXTS: dict[str, dict[str, Any]] = {}


class _PipeBus:
    """Bus-shaped shim: ``publish`` forwards the event over the result
    pipe instead of into an :class:`EventBus` (the parent republishes).
    """

    def __init__(self, conn) -> None:
        self._conn = conn

    def publish(self, type: str, **fields) -> None:
        try:
            self._conn.send(("event", type, fields))
        except (OSError, ValueError):  # parent gone; nothing to tell
            pass


class _SpillSink:
    """Store stand-in handed to the map body inside a worker: captures
    the spill instead of committing it (commit is the parent's job)."""

    def __init__(self) -> None:
        self.files: list = []

    def spill(self, files, *, attempt: int = 0) -> None:
        self.files = list(files)

    def spill_empty(self, map_id, *, attempt: int = 0) -> None:
        self.files = []


def _sendable(exc: BaseException) -> BaseException:
    """Errors cross the pipe by pickle; wrap anything that can't."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return ReproError(f"{type(exc).__name__}: {exc}")


def _worker_map(ctx: dict, payload: dict, bus: _PipeBus) -> dict:
    job = ctx["job"]
    faults = ctx["faults"]
    index = payload["index"]
    attempt = payload["attempt"]
    hb = Heartbeat(bus, "map", index, attempt, ctx["hb_interval"])
    if faults is not None:
        # No token: an injected hang blocks this worker forever.  The
        # parent's liveness machinery (hang detector or deadline) is
        # what breaks the stall — with a SIGKILL, not a cancel check.
        faults.fire("map", index, attempt, cancel=None)
    corrupt = faults is not None and faults.should_corrupt("map", index, attempt)
    obs = ctx["obs"]
    counters = Counters()
    sink = _SpillSink()
    if job.data_plane == "columnar":
        run_columnar_map(
            job, index, sink, counters, obs, None,
            attempt=attempt, corrupt=corrupt, heartbeat=hb,
        )
    else:
        run_record_map(
            job, index, sink, counters, obs, None,
            attempt=attempt, corrupt=corrupt, heartbeat=hb,
        )
    if not sink.files:
        return {"manifest": [], "directory": None, "counters": counters.as_dict()}
    # Build under a tmp- name, then atomically rename to the committed
    # per-attempt name.  A worker killed mid-write leaves only tmp-*
    # litter inside the per-job spill dir — swept at job end, never
    # visible to a reduce.
    root = ctx["spill_root"]
    build = os.path.join(
        root, f"tmp-{index:05d}-a{attempt:04d}-{uuid.uuid4().hex[:8]}"
    )
    os.makedirs(build)
    try:
        manifest = write_segments(build, sink.files)
        final = os.path.join(root, f"map-{index:05d}-a{attempt:04d}")
        os.rename(build, final)
    except BaseException:
        shutil.rmtree(build, ignore_errors=True)
        raise
    return {"manifest": manifest, "directory": final, "counters": counters.as_dict()}


def _worker_reduce(ctx: dict, payload: dict, bus: _PipeBus) -> dict:
    job = ctx["job"]
    partition = payload["partition"]
    attempt = payload["attempt"]
    hb = Heartbeat(bus, "reduce", partition, attempt, ctx["hb_interval"])
    obs = ctx["obs"]
    counters = Counters()
    # mmap the fetched segments back into spill objects; a handle whose
    # files were unlinked by a supersede raises SegmentMissingError,
    # which travels back to the parent as a retryable task error.
    files = [handle.load() for handle in payload["segments"]]
    if job.data_plane == "columnar":
        out = run_columnar_reduce(job, files, counters, obs, None, heartbeat=hb)
    else:
        out = run_record_reduce(job, files, counters, obs, None, heartbeat=hb)
    out = LocalEngine._with_synth_records(job, partition, out)
    return {"records": out, "counters": counters.as_dict()}


def _worker_main(pool_id: str, req_conn, res_conn) -> None:
    """Worker loop: one request at a time until the ``None`` sentinel."""
    ctx = _CONTEXTS[pool_id]
    bus = _PipeBus(res_conn)
    while True:
        try:
            msg = req_conn.recv()
        except (EOFError, OSError):
            break
        if msg is None:
            break
        kind, task_id, payload = msg
        try:
            if kind == "map":
                result = _worker_map(ctx, payload, bus)
            else:
                result = _worker_reduce(ctx, payload, bus)
        except BaseException as exc:  # noqa: BLE001 - ferried to parent
            try:
                res_conn.send(("err", task_id, _sendable(exc)))
            except (OSError, ValueError):
                break
        else:
            try:
                res_conn.send(("done", task_id, result))
            except (OSError, ValueError):
                break
    req_conn.close()
    res_conn.close()


class _Pending:
    """One in-flight request: the task thread waits on ``done``."""

    __slots__ = ("task_id", "done", "result", "error", "kill_reason")

    def __init__(self, task_id: int) -> None:
        self.task_id = task_id
        self.done = threading.Event()
        self.result: dict | None = None
        self.error: BaseException | None = None
        self.kill_reason: str | None = None


class _Worker:
    __slots__ = ("proc", "req", "res", "reader", "pending")

    def __init__(self, proc, req, res) -> None:
        self.proc = proc
        self.req = req                    # parent -> child requests
        self.res = res                    # child -> parent results/events
        self.reader: threading.Thread | None = None
        self.pending: _Pending | None = None


class WorkerPool:
    """Fixed-size pool of forked workers, one in-flight task each.

    All workers fork *before* any task thread starts (a clean,
    single-threaded parent snapshot); a worker killed mid-run is
    replaced lazily on the next submit, which forks from a threaded
    parent — acceptable because workers only touch state they were
    handed, never parent locks.
    """

    def __init__(self, size: int, pool_id: str, bus) -> None:
        self._size = size
        self._pool_id = pool_id
        self._bus = bus
        self._lock = threading.Lock()
        self._idle_cv = threading.Condition(self._lock)
        self._workers: list[_Worker] = []
        self._idle: list[_Worker] = []
        self._next_task = 0
        self._closed = False
        self._ctx = mp.get_context("fork")
        for _ in range(size):
            self._spawn_locked()

    # -- lifecycle ----------------------------------------------------- #
    def _spawn_locked(self) -> None:
        req_recv, req_send = self._ctx.Pipe(duplex=False)
        res_recv, res_send = self._ctx.Pipe(duplex=False)
        proc = self._ctx.Process(
            target=_worker_main,
            args=(self._pool_id, req_recv, res_send),
            daemon=True,
            name=f"repro-worker-{self._pool_id[:6]}",
        )
        proc.start()
        # Parent keeps only its ends.  (Forked siblings still inherit
        # these fds, which is why death detection uses the process
        # sentinel, not pipe EOF.)
        req_recv.close()
        res_send.close()
        worker = _Worker(proc, req_send, res_recv)
        worker.reader = threading.Thread(
            target=self._read_loop, args=(worker,), daemon=True
        )
        worker.reader.start()
        self._workers.append(worker)
        self._idle.append(worker)

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            workers = list(self._workers)
        for w in workers:
            try:
                w.req.send(None)
            except (OSError, ValueError):
                pass
        for w in workers:
            w.proc.join(timeout=2.0)
            if w.proc.is_alive():
                w.proc.kill()
                w.proc.join(timeout=2.0)
            w.req.close()
        for w in workers:
            if w.reader is not None:
                w.reader.join(timeout=2.0)
            w.res.close()
        _CONTEXTS.pop(self._pool_id, None)

    # -- submit / wait / cancel ---------------------------------------- #
    def submit(self, kind: str, payload: dict) -> _Pending:
        with self._idle_cv:
            if self._closed:
                raise WorkerCrashError("worker pool is closed")
            while not self._idle:
                if len(self._workers) < self._size:
                    self._spawn_locked()
                    continue
                self._idle_cv.wait(0.05)
                if self._closed:
                    raise WorkerCrashError("worker pool is closed")
            worker = self._idle.pop()
            pending = _Pending(self._next_task)
            self._next_task += 1
            worker.pending = pending
            try:
                worker.req.send((kind, pending.task_id, payload))
            except (OSError, ValueError) as exc:
                # Worker died between tasks; its reader will reap it.
                worker.pending = None
                pending.error = WorkerCrashError(
                    f"worker died before accepting {kind} task: {exc}"
                )
                pending.done.set()
            return pending

    def wait(self, pending: _Pending, cancel: "CancelToken | None") -> dict:
        """Block until the request completes; doubles as the attempt's
        cancellation point (cancel => SIGKILL the worker)."""
        while not pending.done.wait(0.02):
            if cancel is not None and cancel.cancelled:
                self._kill_owner(pending, cancel.reason)
                pending.done.wait()  # reader completes it after reaping
                break
        if pending.error is not None:
            raise pending.error
        assert pending.result is not None
        return pending.result

    def _kill_owner(self, pending: _Pending, reason: str) -> None:
        with self._lock:
            if pending.done.is_set() or pending.kill_reason is not None:
                return
            owner = next(
                (w for w in self._workers if w.pending is pending), None
            )
            if owner is None:
                return
            pending.kill_reason = reason or "cancelled"
            owner.proc.kill()

    # -- per-worker reader --------------------------------------------- #
    def _read_loop(self, worker: _Worker) -> None:
        sentinel = worker.proc.sentinel
        while True:
            try:
                ready = _mp_wait([worker.res, sentinel])
            except OSError:
                break
            if worker.res in ready:
                try:
                    msg = worker.res.recv()
                except (EOFError, OSError):
                    self._reap(worker)
                    return
                self._dispatch(worker, msg)
                continue
            # Process exited: drain anything it managed to send first.
            while True:
                try:
                    if not worker.res.poll(0.05):
                        break
                    msg = worker.res.recv()
                except (EOFError, OSError):
                    break
                self._dispatch(worker, msg)
            self._reap(worker)
            return

    def _dispatch(self, worker: _Worker, msg: tuple) -> None:
        tag = msg[0]
        if tag == "event":
            _, type_, fields = msg
            if self._bus is not None:
                try:
                    self._bus.publish(type_, **fields)
                except Exception:  # noqa: BLE001 - obs must not kill tasks
                    pass
            return
        _, task_id, body = msg
        with self._idle_cv:
            pending = worker.pending
            if pending is None or pending.task_id != task_id:
                return  # stale response from a kill race; drop
            if tag == "done":
                pending.result = body
            else:
                pending.error = body
            worker.pending = None
            pending.done.set()
            if not self._closed:
                self._idle.append(worker)
                self._idle_cv.notify()

    def _reap(self, worker: _Worker) -> None:
        """Worker process is gone: fail its in-flight task and retire it."""
        worker.proc.join(timeout=1.0)
        with self._idle_cv:
            pending = worker.pending
            worker.pending = None
            if worker in self._idle:
                self._idle.remove(worker)
            if worker in self._workers:
                self._workers.remove(worker)
            if pending is not None and not pending.done.is_set():
                if pending.kill_reason is not None:
                    pending.error = TaskCancelledError(
                        f"worker killed: {pending.kill_reason}",
                        reason=pending.kill_reason,
                    )
                else:
                    pending.error = WorkerCrashError(
                        f"worker process {worker.proc.pid} died "
                        f"(exitcode {worker.proc.exitcode})"
                    )
                pending.done.set()
            self._idle_cv.notify()


class ProcessRunner:
    """:class:`~repro.mapreduce.engine.TaskRunner` that executes task
    bodies in a :class:`WorkerPool` and shuffles by file handoff."""

    def __init__(
        self,
        engine: LocalEngine,
        job: "JobConf",
        state: "_RunState",
        obs: JobObservability,
    ) -> None:
        self._engine = engine
        self._persist = engine.recovery.value == "persisted"
        self._spill = SpillDirectory(job.name)
        self._lock = threading.Lock()
        #: map_index -> attempt numbers whose segment dirs are on disk.
        self._on_disk: dict[int, set[int]] = {}
        pool_id = uuid.uuid4().hex
        _CONTEXTS[pool_id] = {
            "job": job,
            "faults": state.faults,
            "spill_root": self._spill.path,
            "hb_interval": engine._hb_interval,
            # Workers run bodies with obs disabled: the parent's attempt
            # loop publishes task start/finish, its folds own the rest.
            "obs": JobObservability(job.name + "-worker", enabled=False),
        }
        self._pool = WorkerPool(
            engine.map_workers + engine.reduce_workers, pool_id, obs.bus
        )

    def close(self) -> None:
        self._pool.close()
        self._spill.cleanup()

    # -- TaskRunner ----------------------------------------------------- #
    def run_map(
        self,
        job: "JobConf",
        split_index: int,
        store: "ShuffleStore",
        counters: Counters,
        obs: JobObservability,
        *,
        attempt: int,
        faults,
        cancel,
    ) -> None:
        pending = self._pool.submit(
            "map", {"index": split_index, "attempt": attempt}
        )
        payload = self._pool.wait(pending, cancel)
        if cancel is not None:
            cancel.check()
        _merge_counters(counters, payload["counters"])
        directory = payload["directory"]
        try:
            if payload["manifest"]:
                store.spill(
                    handles_from_manifest(
                        split_index, directory, payload["manifest"]
                    ),
                    attempt=attempt,
                )
            else:
                store.spill_empty(MapTaskId(split_index), attempt=attempt)
        except BaseException:
            # Commit refused (lost a speculation race, or cancelled
            # at the gate): these segments never entered the store,
            # so drop them now rather than at job end.
            if directory is not None:
                shutil.rmtree(directory, ignore_errors=True)
            raise
        self._note_committed(split_index, attempt, directory)

    def _note_committed(
        self, split_index: int, attempt: int, directory: str | None
    ) -> None:
        """Record the committed attempt; unlink superseded older ones.

        An in-flight reduce mmap-reading an older attempt either opened
        the files already (POSIX keeps the inode alive) or hits
        ``SegmentMissingError`` — both end in the no-stale-serve rule
        the in-memory store enforces.
        """
        with self._lock:
            attempts = self._on_disk.setdefault(split_index, set())
            stale = [a for a in attempts if a < attempt]
            if directory is not None:
                attempts.add(attempt)
            for old in stale:
                attempts.discard(old)
        for old in stale:
            self._spill.drop_attempt(split_index, old)

    def run_reduce(
        self,
        job: "JobConf",
        partition: int,
        barrier: "BarrierPolicy",
        store: "ShuffleStore",
        counters: Counters,
        obs: JobObservability,
        completed_at_start: frozenset[int],
        *,
        attempt: int,
        faults,
        cancel,
    ) -> Sequence:
        # Identical to the in-thread reduce up to the body: barrier
        # checks, validator and fetch stay in the parent because they
        # interact with the store's consume/supersede accounting; only
        # the merge itself ships to a worker.
        engine = self._engine
        hb = Heartbeat(obs.bus, "reduce", partition, attempt, engine._hb_interval)
        files = engine._fetch_reduce_inputs(
            job, partition, barrier, store, counters, obs,
            completed_at_start, obs.task_span("reduce", partition, attempt),
            hb, attempt=attempt, faults=faults, cancel=cancel,
        )
        pending = self._pool.submit(
            "reduce",
            {"partition": partition, "attempt": attempt, "segments": files},
        )
        payload = self._pool.wait(pending, cancel)
        if cancel is not None:
            cancel.check()
        _merge_counters(counters, payload["counters"])
        if not self._persist:
            # Consume-on-fetch: the store already dropped these
            # handles at fetch time; the attempt succeeded, so the
            # bytes go too.  (Failed attempts leave them for the
            # supersede unlink or the job-end sweep.)
            for f in files:
                f.unlink()
        return payload["records"]


def _merge_counters(counters: Counters, worker_counts: dict) -> None:
    for name, value in worker_counts.items():
        counters.increment(name, value)
