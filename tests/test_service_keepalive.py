"""Kept-alive connections and their bounds (docs/SERVICE.md, "HTTP API").

The server answers a connection's requests one after another until the
client asks to close, speaks HTTP/1.0 or hangs up; three module
constants bound it — the idle timeout between requests, the read
timeout of a started request, the connection cap — and ``GET /stats``
``http`` counts what each did.  Driven over raw sockets, where the
framing is the point, and through :class:`HttpServiceClient`, which
reuses its connections.
"""

from __future__ import annotations

import json
import socket
import threading
import time

import pytest

from repro.service import HttpServiceClient, ServiceError
from repro.service import server as server_module
from repro.service.api import DONE
from tests.test_service_api import mean_request, running_server


@pytest.fixture()
def live(tmp_path):
    with running_server(tmp_path) as running:
        yield running


def connect(client):
    return socket.create_connection((client.host, client.port), timeout=10)


def read_reply(stream):
    """Status code, lower-cased headers and body of one reply read from
    ``stream`` (a socket's ``makefile("rb")``) by its Content-Length."""
    status = int(stream.readline().split()[1])
    headers = {}
    while (line := stream.readline()) not in (b"\r\n", b""):
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    return status, headers, stream.read(int(headers["content-length"]))


def eventually(predicate, seconds=5.0):
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return False


HEALTHZ = b"GET /healthz HTTP/1.1\r\n\r\n"


class TestKeepAlive:
    def test_two_requests_on_one_socket_get_two_replies(self, live):
        client, *_ = live
        with connect(client) as sock, sock.makefile("rb") as stream:
            for _ in range(2):
                sock.sendall(HEALTHZ)
                status, headers, body = read_reply(stream)
                assert status == 200 and json.loads(body)["ok"] is True
                assert headers["connection"] == "keep-alive"
            sock.sendall(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
            status, headers, _ = read_reply(stream)
            assert status == 200 and headers["connection"] == "close"
            assert stream.read() == b""  # EOF

    def test_http_1_0_gets_one_reply_then_eof(self, live):
        client, *_ = live
        with connect(client) as sock, sock.makefile("rb") as stream:
            sock.sendall(b"GET /healthz HTTP/1.0\r\n\r\n")
            status, headers, _ = read_reply(stream)
            assert status == 200 and headers["connection"] == "close"
            assert stream.read() == b""

    def test_stats_count_connections_and_requests(self, live):
        client, *_ = live
        client.healthz()
        client.healthz()
        assert client.stats()["http"] == {
            "open": 1, "accepted": 1, "requests": 3, "idle_closed": 0,
            "read_timeouts": 0, "refused": 0,
        }

    def test_idle_connection_is_closed_and_the_client_reconnects(
        self, live, monkeypatch
    ):
        """The server closes a connection idle past ``IDLE_TIMEOUT``;
        the client's next call fails on it before any reply byte and is
        sent again, once, on a fresh connection — so a ``POST /query``
        is not submitted twice."""
        client, _, path, *_ = live
        monkeypatch.setattr(server_module, "IDLE_TIMEOUT", 0.5)
        client.open_dataset("d", path)
        (kept,) = client._idle
        time.sleep(1.5)  # the server closes it meanwhile
        job = client.submit(mean_request())
        assert kept not in client._idle
        assert [j["id"] for j in client.jobs()] == [job]
        assert client.result(job)["state"] == DONE
        http = client.stats()["http"]
        assert http["idle_closed"] >= 1 and http["accepted"] >= 2

    def test_a_half_sent_head_is_closed_at_the_read_timeout(
        self, live, monkeypatch
    ):
        client, *_ = live
        monkeypatch.setattr(server_module, "READ_TIMEOUT", 1.5)
        with connect(client) as slow:
            slow.sendall(b"GET /healthz HTTP/1.1\r\nX-Slow: ")
            # Another client is served meanwhile.
            assert client.healthz()["ok"] is True
            assert client.stats()["http"]["read_timeouts"] == 0
            t0 = time.monotonic()
            assert slow.recv(65536) == b""  # closed, no reply
            assert time.monotonic() - t0 < 5
        assert client.stats()["http"]["read_timeouts"] == 1

    def test_the_connection_past_the_cap_gets_a_503(self, live, monkeypatch):
        client, *_ = live
        monkeypatch.setattr(server_module, "MAX_CONNECTIONS", 2)
        held = [connect(client) for _ in range(2)]
        try:
            for sock in held:  # both admitted, then idle
                sock.sendall(HEALTHZ)
                with sock.makefile("rb") as stream:
                    assert read_reply(stream)[0] == 200
            with pytest.raises(ServiceError, match="503.*open connections"):
                client.healthz()
            held.pop().close()
            # A freed slot accepts again.
            assert eventually(lambda: _healthy(client))
            http = client.stats()["http"]
            assert http["refused"] >= 1 and http["open"] == 2
        finally:
            for sock in held:
                sock.close()


def _healthy(client):
    try:
        return client.healthz()["ok"]
    except ServiceError:
        return False


class TestParkedResult:
    def test_disconnected_kept_alive_waiter_leaves_no_callback_behind(self, live):
        """``test_disconnected_waiter_leaves_no_callback_behind`` on a
        connection that has served a request before it parks."""
        client, service, path, *_ = live
        client.open_dataset("d", path)
        service.queue.pause()
        job = service.get_job(client.submit(mean_request()))
        sock = connect(client)
        with sock.makefile("rb") as stream:
            sock.sendall(HEALTHZ)
            assert read_reply(stream)[1]["connection"] == "keep-alive"
        sock.sendall(f"GET /jobs/{job.id}/result HTTP/1.1\r\n\r\n".encode())
        assert eventually(lambda: len(job._waiters) == 1)
        sock.close()
        assert eventually(lambda: job._waiters == [])
        service.queue.resume()
        assert client.result(job.id)["state"] == DONE

    def test_a_byte_sent_while_parked_ends_keep_alive_after_the_reply(
        self, live
    ):
        """Pipelining is not supported: a request sent behind a parked
        ``/result`` is dropped, and the connection closes after the
        result's reply."""
        client, service, path, *_ = live
        client.open_dataset("d", path)
        service.queue.pause()
        job = service.get_job(client.submit(mean_request()))
        with connect(client) as sock, sock.makefile("rb") as stream:
            sock.sendall(f"GET /jobs/{job.id}/result HTTP/1.1\r\n\r\n".encode())
            assert eventually(lambda: len(job._waiters) == 1)
            sock.sendall(HEALTHZ)
            time.sleep(0.1)
            service.queue.resume()
            status, headers, body = read_reply(stream)
            assert status == 200 and json.loads(body)["state"] == DONE
            assert headers["connection"] == "close"
            assert stream.read() == b""

    def test_a_result_wait_outlasts_the_clients_socket_timeout(self, live):
        """``result(timeout=t)`` waits ``t`` whatever the client's own
        socket timeout: ``query --server`` asks for 600 s on a client
        whose default is 120 s."""
        client, service, path, *_ = live
        client.open_dataset("d", path)
        short = HttpServiceClient(f"http://{client.host}:{client.port}", timeout=0.5)
        service.queue.pause()
        job = short.submit(mean_request())
        threading.Timer(1.0, service.queue.resume).start()
        try:
            assert short.result(job, timeout=3)["state"] == DONE
        finally:
            service.queue.resume()
            short.close()


def test_shutdown_returns_while_idle_and_parked_connections_are_open(tmp_path):
    """``POST /shutdown`` closes the connections that wait for a request
    or a result, so ``serve_until_shutdown`` returns at once."""
    with running_server(tmp_path) as (client, service, path, data, thread):
        client.open_dataset("d", path)
        service.queue.pause()
        job = client.submit(mean_request())
        with connect(client) as idle, idle.makefile("rb") as stream, \
                connect(client) as parked:
            idle.sendall(HEALTHZ)
            assert read_reply(stream)[1]["connection"] == "keep-alive"
            parked.sendall(f"GET /jobs/{job}/result HTTP/1.1\r\n\r\n".encode())
            assert eventually(lambda: len(service.get_job(job)._waiters) == 1)
            t0 = time.monotonic()
            client.shutdown()
            thread.join(5)
            assert not thread.is_alive()
            assert time.monotonic() - t0 < 5
            assert stream.read() == b""  # the server closed both
            assert parked.recv(65536) == b""
