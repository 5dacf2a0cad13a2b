"""Clients for the resident query service.

:class:`InProcessClient` wraps a :class:`QueryService` directly — no
sockets, fully deterministic, what the tier-1 test harness and the fuzz
leg use.  :class:`HttpServiceClient` speaks the HTTP wire format over
stdlib :mod:`http.client`, over kept-alive connections — what
``repro.cli query --server`` and the CI smoke use.  Both expose the same
method surface, so harness code is client-agnostic; the one difference
is the type of a result's ``records``: JSON rows in process, a
read-only :class:`~repro.mapreduce.columnar.ResultBlock` over the wire
(the binary result body, ``docs/SERVICE.md``, "Wire format").
"""

from __future__ import annotations

import http.client
import json
import threading
from typing import Any
from urllib.parse import urlsplit

from repro.service.api import (
    BLOCK_CONTENT_TYPE,
    QueryRequest,
    ServiceError,
    decode_result_body,
)
from repro.service.service import QueryService, records_to_json


class InProcessClient:
    """Direct, socket-free client (tier-1 harness path)."""

    def __init__(self, service: QueryService) -> None:
        self.service = service

    def submit(self, request: QueryRequest) -> str:
        return self.service.submit(request)

    def status(self, job_id: str) -> dict[str, Any]:
        return self.service.status(job_id)

    def result(self, job_id: str, timeout: float | None = 60.0) -> dict[str, Any]:
        return self.service.result(job_id, timeout=timeout)

    def cancel(self, job_id: str) -> bool:
        return self.service.cancel(job_id)

    def stats(self) -> dict[str, Any]:
        return self.service.stats()

    def jobs(self) -> list[dict[str, Any]]:
        return self.service.list_jobs()

    def query(self, request: QueryRequest) -> dict[str, Any]:
        """Submit + wait (up to a minute), one call."""
        return self.result(self.submit(request), timeout=60.0)


#: Seconds a result wait's socket timeout allows beyond the wait itself.
_RESULT_MARGIN = 30.0
#: What a reused connection raises when the server closed it idle
#: before this request reached it: no byte of a response was read, so
#: the request was not served and is sent again, once.
_STALE = (http.client.RemoteDisconnected, BrokenPipeError, ConnectionResetError)


class HttpServiceClient:
    """Wire client for a running :mod:`repro.service.server`.

    Connections are HTTP/1.1 keep-alive and reused: a call takes an idle
    one (or opens one) and puts it back after reading the whole reply,
    so each concurrent caller holds one connection.  A call that fails
    on a reused connection before any byte of the reply — the server
    closed it idle — is retried once on a fresh one.  The server closes
    only connections with no request in flight, so the retry never
    submits a query twice.
    """

    def __init__(self, base_url: str, *, timeout: float = 120.0) -> None:
        parts = urlsplit(base_url if "//" in base_url else f"http://{base_url}")
        if parts.scheme != "http" or not parts.hostname:
            raise ServiceError(f"unsupported server url {base_url!r}")
        self.host = parts.hostname
        self.port = parts.port or 80
        self.timeout = timeout
        self._idle: list[http.client.HTTPConnection] = []
        self._lock = threading.Lock()

    def close(self) -> None:
        """Close every idle connection (a call in flight closes its own
        when the server ends it)."""
        with self._lock:
            idle, self._idle = self._idle, []
        for conn in idle:
            conn.close()

    # ------------------------------------------------------------------ #
    def _call(
        self,
        method: str,
        path: str,
        body: Any | None = None,
        *,
        accept: str | None = None,
        timeout: float | None = None,
    ) -> Any:
        payload = None
        headers = {}
        if body is not None:
            payload = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        if accept is not None:
            headers["Accept"] = accept
        wait = self.timeout if timeout is None else timeout

        def exchange(conn: http.client.HTTPConnection) -> http.client.HTTPResponse:
            conn.timeout = wait
            if conn.sock is not None:
                conn.sock.settimeout(wait)
            conn.request(method, path, body=payload, headers=headers)
            return conn.getresponse()

        with self._lock:
            reused = self._idle.pop() if self._idle else None
        conn = reused or http.client.HTTPConnection(self.host, self.port)
        try:
            try:
                resp = exchange(conn)
            except _STALE:
                if conn is not reused:
                    raise
                conn.close()
                conn = http.client.HTTPConnection(self.host, self.port)
                resp = exchange(conn)
            raw = resp.read()
        except BaseException:
            conn.close()
            raise
        if resp.will_close:
            conn.close()
        else:
            with self._lock:
                self._idle.append(conn)
        if resp.getheader("Content-Type") == BLOCK_CONTENT_TYPE:
            doc = decode_result_body(raw)
        else:
            doc = json.loads(raw.decode("utf-8"))
        if resp.status >= 400:
            raise ServiceError(
                f"{method} {path} -> {resp.status}: "
                f"{doc.get('error', doc)}"
            )
        return doc

    # ------------------------------------------------------------------ #
    def healthz(self) -> dict[str, Any]:
        return self._call("GET", "/healthz")

    def open_dataset(self, name: str, path: str) -> dict[str, Any]:
        return self._call("POST", "/datasets", {"name": name, "path": path})

    def submit(self, request: QueryRequest) -> str:
        return self._call("POST", "/query", request.to_json())["job"]

    def status(self, job_id: str) -> dict[str, Any]:
        return self._call("GET", f"/jobs/{job_id}")

    def result(self, job_id: str, timeout: float | None = 60.0) -> dict[str, Any]:
        """The result document; ``records`` is a read-only
        :class:`~repro.mapreduce.columnar.ResultBlock` viewing the
        response body (JSON rows from a server that answers JSON)."""
        t = 60.0 if timeout is None else timeout
        # The socket outlasts the server's wait, or a long job's reply
        # would meet a client that gave up.
        return self._call(
            "GET", f"/jobs/{job_id}/result?timeout={t}", accept=BLOCK_CONTENT_TYPE,
            timeout=max(self.timeout, t + _RESULT_MARGIN),
        )

    def cancel(self, job_id: str) -> bool:
        return bool(self._call("POST", f"/jobs/{job_id}/cancel")["cancelled"])

    def stats(self) -> dict[str, Any]:
        return self._call("GET", "/stats")

    def jobs(self) -> list[dict[str, Any]]:
        return self._call("GET", "/jobs")

    def shutdown(self) -> None:
        self._call("POST", "/shutdown")

    def query(self, request: QueryRequest) -> dict[str, Any]:
        """Submit + wait (up to a minute), one call."""
        return self.result(self.submit(request), timeout=60.0)


__all__ = [
    "InProcessClient",
    "HttpServiceClient",
    "records_to_json",
]
