"""Clients for the resident query service.

:class:`InProcessClient` wraps a :class:`QueryService` directly — no
sockets, fully deterministic, what the tier-1 test harness and the fuzz
leg use.  :class:`HttpServiceClient` speaks the HTTP wire format over
stdlib :mod:`http.client` — what ``repro.cli query --server`` and the CI
smoke use.  Both expose the same method surface, so harness code is
client-agnostic; the one difference is the type of a result's
``records``: JSON rows in process, a read-only
:class:`~repro.mapreduce.columnar.ResultBlock` over the wire (the
binary result body, ``docs/SERVICE.md``, "Wire format").
"""

from __future__ import annotations

import http.client
import json
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

    def query(
        self, request: QueryRequest, timeout: float | None = 60.0
    ) -> dict[str, Any]:
        """Submit + wait, one call."""
        return self.result(self.submit(request), timeout=timeout)


class HttpServiceClient:
    """Wire client for a running :mod:`repro.service.server`."""

    def __init__(self, base_url: str, *, timeout: float = 120.0) -> None:
        parts = urlsplit(base_url if "//" in base_url else f"http://{base_url}")
        if parts.scheme != "http" or not parts.hostname:
            raise ServiceError(f"unsupported server url {base_url!r}")
        self.host = parts.hostname
        self.port = parts.port or 80
        self.timeout = timeout

    # ------------------------------------------------------------------ #
    def _call(
        self,
        method: str,
        path: str,
        body: Any | None = None,
        *,
        accept: str | None = None,
    ) -> Any:
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            payload = None
            headers = {}
            if body is not None:
                payload = json.dumps(body).encode("utf-8")
                headers["Content-Type"] = "application/json"
            if accept is not None:
                headers["Accept"] = accept
            conn.request(method, path, body=payload, headers=headers)
            resp = conn.getresponse()
            raw = resp.read()
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
        finally:
            conn.close()

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
        return self._call(
            "GET", f"/jobs/{job_id}/result?timeout={t}", accept=BLOCK_CONTENT_TYPE
        )

    def cancel(self, job_id: str) -> bool:
        return bool(self._call("POST", f"/jobs/{job_id}/cancel")["cancelled"])

    def stats(self) -> dict[str, Any]:
        return self._call("GET", "/stats")

    def jobs(self) -> list[dict[str, Any]]:
        return self._call("GET", "/jobs")

    def shutdown(self) -> None:
        self._call("POST", "/shutdown")

    def query(
        self, request: QueryRequest, timeout: float | None = 60.0
    ) -> dict[str, Any]:
        return self.result(self.submit(request), timeout=timeout)


__all__ = [
    "InProcessClient",
    "HttpServiceClient",
    "records_to_json",
]
