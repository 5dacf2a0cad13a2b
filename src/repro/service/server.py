"""Stdlib-asyncio HTTP/JSON front for :class:`QueryService`.

A deliberately small HTTP/1.1 implementation over ``asyncio.start_server``
— no framework, no new dependencies.  The asyncio loop only parses and
routes; what can block or is heavy (submitting under the admission lock,
encoding a JSON result body, which can be hundreds of KB) runs in the
default executor.  Waiting for a job does not: a ``/result`` connection
parks on a future the job's terminal transition completes, so any number
of blocked waiters hold no thread and can never starve a submission of
one.  Nor does the binary result body (``Accept:
application/x-repro-block``; ``docs/SERVICE.md``, "Wire format"): the
job already holds its bytes, so the loop only frames them.

Routes::

    GET  /healthz            liveness + uptime
    GET  /stats              plan cache, queue, tenants, datasets
    GET  /datasets           registered sessions
    POST /datasets           {"name": ..., "path": ...} -> open a file
    POST /query              QueryRequest JSON -> 202 {"job": id}
    GET  /jobs               every job's status doc
    GET  /jobs/<id>          one live status doc (ProgressTracker feed)
    GET  /jobs/<id>/result   block (``?timeout=S``) for records + digest;
                             JSON, or the binary body when asked for
    POST /jobs/<id>/cancel   cancel a queued job
    POST /shutdown           drain nothing, stop serving, exit cleanly

Errors map to JSON bodies: 400 for admission/validation, 404 for
unknown dataset/job, 408 for a result-wait timeout, 413 for a body over
``_MAX_BODY``, 431 for a request line or header line over the stream
reader's 64 KiB limit or more than ``_MAX_HEADER_LINES`` header lines,
500 otherwise.  A request refused before its body was read has that
input swallowed after the reply, so the client reads the reply, not a
reset.
"""

from __future__ import annotations

import asyncio
import json
import logging
import math
from http import HTTPStatus
from typing import Any, NamedTuple

from repro.service.api import (
    BLOCK_CONTENT_TYPE,
    MAX_RESULT_WAIT,
    AdmissionError,
    QueryRequest,
    UnknownDatasetError,
    UnknownJobError,
    encode_result_body,
)
from repro.service.jobs import ServiceJob
from repro.service.service import QueryService

_MAX_BODY = 8 << 20
#: Header lines a request may carry; each is bounded by the stream
#: reader's line limit (64 KiB), so this bounds the ``headers`` dict.
_MAX_HEADER_LINES = 100
#: How long a refused request's unread input is swallowed before the
#: socket closes.
_LINGER_SECONDS = 1.0


class _Encoded(NamedTuple):
    """A response body that is already bytes."""

    content_type: str
    payload: bytes


def _result_timeout(query: str) -> float:
    """``?timeout=S`` of a result request, capped; ``ValueError`` (a
    400) unless it is a finite, non-negative number — ``nan`` would
    slip through ``min`` and never fire."""
    timeout = MAX_RESULT_WAIT
    for piece in query.split("&"):
        if piece.startswith("timeout="):
            timeout = float(piece[8:])
            if not (math.isfinite(timeout) and timeout >= 0):
                raise ValueError(f"timeout must be finite and >= 0, got {piece[8:]!r}")
    return min(timeout, MAX_RESULT_WAIT)


def _accepts_block(accept: str) -> bool:
    """Does an ``Accept`` header name the binary result body's type?"""
    return any(
        item.split(";")[0].strip().lower() == BLOCK_CONTENT_TYPE
        for item in accept.split(",")
    )


async def _read_head(reader: asyncio.StreamReader) -> tuple[bytes, dict[str, str]]:
    """The request line (empty: the client sent nothing) and the
    headers.  ``ValueError`` — ``readline``'s own for a line over the
    reader's limit — when the head is larger than we accept."""
    request_line = await reader.readline()
    headers: dict[str, str] = {}
    if not request_line:
        return request_line, headers
    for _ in range(_MAX_HEADER_LINES + 1):
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            return request_line, headers
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    raise ValueError(f"more than {_MAX_HEADER_LINES} header lines")


async def _read_to_eof(reader: asyncio.StreamReader) -> None:
    """Discard input until the client closes its end."""
    try:
        while await reader.read(65536):
            pass
    except ConnectionError:
        pass


async def _swallow_input(
    reader: asyncio.StreamReader, writer: asyncio.StreamWriter
) -> None:
    """After the reply to a request that was not read to its end:
    half-close, then discard what the client is still sending.  Closing
    a socket with unread input resets the connection, and the reset can
    overtake the reply."""
    if writer.can_write_eof():
        writer.write_eof()
    try:
        await asyncio.wait_for(_read_to_eof(reader), _LINGER_SECONDS)
    except TimeoutError:
        pass


class ServiceServer:
    """One listening socket bound to one :class:`QueryService`."""

    def __init__(
        self, service: QueryService, *, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self._server: asyncio.AbstractServer | None = None
        self._shutdown = asyncio.Event()

    # ------------------------------------------------------------------ #
    async def start(self) -> tuple[str, int]:
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        sock = self._server.sockets[0]
        self.host, self.port = sock.getsockname()[:2]
        return self.host, self.port

    async def serve_until_shutdown(self) -> None:
        """Serve until ``POST /shutdown`` (or :meth:`stop`)."""
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._shutdown.wait()

    def stop(self) -> None:
        self._shutdown.set()

    # ------------------------------------------------------------------ #
    # HTTP plumbing
    # ------------------------------------------------------------------ #
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                request_line, headers = await _read_head(reader)
            except ValueError as exc:
                await self._respond(
                    writer, 431, {"error": f"request head too large: {exc}"}
                )
                await _swallow_input(reader, writer)
                return
            if not request_line:
                return
            pieces = request_line.decode("latin-1").split(" ", 2)
            try:
                length = int(headers.get("content-length", "0") or "0")
            except ValueError:
                length = -1
            if len(pieces) != 3:
                refusal = 400, {"error": "malformed request line"}
            elif length < 0:
                refusal = 400, {"error": "malformed Content-Length"}
            elif length > _MAX_BODY:
                refusal = 413, {"error": "body too large"}
            else:
                refusal = None
            if refusal is not None:
                # Any body is still unread.
                await self._respond(writer, *refusal)
                await _swallow_input(reader, writer)
                return
            method, target, _ = pieces
            body = await reader.readexactly(length) if length else b""
            status, doc = await self._route(
                method.upper(), target, headers, body, reader
            )
            await self._respond(writer, status, doc)
        except (asyncio.IncompleteReadError, ConnectionError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass

    async def _respond(
        self, writer: asyncio.StreamWriter, status: int, doc: Any
    ) -> None:
        """Send ``doc`` as the JSON body, or an :class:`_Encoded` body
        as what it says it is."""
        if not isinstance(doc, _Encoded):
            doc = _Encoded("application/json", json.dumps(doc).encode("utf-8"))
        content_type, payload = doc
        head = (
            f"HTTP/1.1 {status} {HTTPStatus(status).phrase}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(payload)}\r\n"
            f"Connection: close\r\n\r\n"
        )
        writer.write(head.encode("latin-1") + payload)
        await writer.drain()

    # ------------------------------------------------------------------ #
    # Routing
    # ------------------------------------------------------------------ #
    async def _wait_finished(
        self, job: ServiceJob, timeout: float, reader: asyncio.StreamReader
    ) -> None:
        """Park this connection until ``job`` is terminal, holding no
        thread: the job's finishing thread completes a future on the
        loop.  ``TimeoutError`` after ``timeout`` seconds,
        ``ConnectionResetError`` as soon as the client hangs up — either
        way the job is left with no wake-up of ours."""
        if job.finished.is_set():
            return
        loop = asyncio.get_running_loop()
        finished = loop.create_future()

        def resolve() -> None:
            if not finished.done():
                finished.set_result(None)

        def wake() -> None:  # on the thread that finished the job
            try:
                loop.call_soon_threadsafe(resolve)
            except RuntimeError:  # the loop closed under a parked waiter
                pass

        job.add_waiter(wake)
        # One request per connection: the client sends nothing more, so
        # the read ends only when it closes its end.
        gone = asyncio.ensure_future(_read_to_eof(reader))
        try:
            done, _ = await asyncio.wait(
                {finished, gone}, timeout=timeout,
                return_when=asyncio.FIRST_COMPLETED,
            )
        finally:
            job.remove_waiter(wake)
            gone.cancel()
        if finished in done:
            return
        if gone in done:
            raise ConnectionResetError("client hung up waiting for a result")
        raise TimeoutError(f"job {job.id} still {job.state!r} after {timeout}s")

    async def _route(
        self,
        method: str,
        target: str,
        headers: dict[str, str],
        body: bytes,
        reader: asyncio.StreamReader,
    ) -> tuple[int, Any]:
        path, _, query = target.partition("?")
        parts = [p for p in path.split("/") if p]
        loop = asyncio.get_running_loop()
        svc = self.service
        try:
            if method == "GET" and parts == ["healthz"]:
                return 200, {"ok": True, "uptime": svc.stats()["uptime"]}
            if method == "GET" and parts == ["stats"]:
                return 200, svc.stats()
            if method == "GET" and parts == ["datasets"]:
                return 200, svc.registry.snapshot()
            if method == "POST" and parts == ["datasets"]:
                doc = json.loads(body.decode("utf-8"))
                if not (
                    isinstance(doc, dict)
                    and isinstance(doc.get("name"), str)
                    and isinstance(doc.get("path"), str)
                ):
                    return 400, {
                        "error": 'bad request: want {"name": str, "path": str}'
                    }
                session = await loop.run_in_executor(
                    None, svc.open_dataset, doc["name"], doc["path"]
                )
                return 200, session.snapshot()
            if method == "POST" and parts == ["query"]:
                request = QueryRequest.from_json(body.decode("utf-8"))
                job_id = await loop.run_in_executor(None, svc.submit, request)
                return 202, {"job": job_id}
            if method == "GET" and parts == ["jobs"]:
                return 200, svc.list_jobs()
            if method == "GET" and len(parts) == 2 and parts[0] == "jobs":
                return 200, svc.status(parts[1])
            if (
                method == "GET"
                and len(parts) == 3
                and parts[0] == "jobs"
                and parts[2] == "result"
            ):
                timeout = _result_timeout(query)
                await self._wait_finished(svc.get_job(parts[1]), timeout, reader)
                if _accepts_block(headers.get("accept", "")):
                    # The job holds the block's bytes; framing them is
                    # a small ``json.dumps`` and one copy.
                    return 200, _Encoded(
                        BLOCK_CONTENT_TYPE,
                        encode_result_body(*svc.result_block(parts[1], timeout=0)),
                    )

                def encoded_result() -> _Encoded:
                    # A few hundred KB of ``json.dumps`` on the event
                    # loop would stall every other connection.
                    return _Encoded(
                        "application/json",
                        json.dumps(svc.result(parts[1], timeout=0)).encode("utf-8"),
                    )

                return 200, await loop.run_in_executor(None, encoded_result)
            if (
                method == "POST"
                and len(parts) == 3
                and parts[0] == "jobs"
                and parts[2] == "cancel"
            ):
                return 200, {"cancelled": svc.cancel(parts[1])}
            if method == "POST" and parts == ["shutdown"]:
                self.stop()
                return 200, {"ok": True}
            return 404, {"error": f"no route {method} {path}"}
        except (UnknownDatasetError, UnknownJobError) as exc:
            return 404, {"error": str(exc)}
        except AdmissionError as exc:
            return 400, {"error": str(exc)}
        except TimeoutError as exc:
            return 408, {"error": str(exc)}
        except (json.JSONDecodeError, KeyError, ValueError) as exc:
            return 400, {"error": f"bad request: {exc}"}
        except ConnectionError:
            raise  # the client is gone: nobody to answer
        except Exception as exc:
            # A server bug is a typed failure too: the client reads what
            # broke, the log keeps where.
            logging.getLogger(__name__).exception("%s %s failed", method, path)
            return 500, {"error": f"{type(exc).__name__}: {exc}"}


async def serve(
    service: QueryService, *, host: str = "127.0.0.1", port: int = 0
) -> None:
    """Start and run a server until shutdown (the CLI entry point)."""
    server = ServiceServer(service, host=host, port=port)
    bound_host, bound_port = await server.start()
    print(f"# serving on http://{bound_host}:{bound_port}", flush=True)
    await server.serve_until_shutdown()
