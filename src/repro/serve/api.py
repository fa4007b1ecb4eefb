"""Stdlib HTTP front end for the sweep broker.

A thin JSON-over-HTTP veneer on :class:`repro.serve.Broker` built on
``http.server.ThreadingHTTPServer`` — no framework, no dependency.  It
speaks HTTP/1.1 with keep-alive: one handler thread per client
connection, serving that connection's requests in turn.  Every route
delegates to a broker method, which does its own locking, so the HTTP
layer holds no state beyond its open connections.

Routes (all JSON unless noted):

===============================================  =========================
``GET  /healthz``                                liveness probe
``GET  /metrics``                                Prometheus text
                                                 (:meth:`Recorder.render_prom`)
``GET  /api/v1/status``                          service status
``POST /api/v1/jobs``                            submit a grid (a
                                                 :class:`JobSpec` payload)
``GET  /api/v1/jobs``                            list job ids
``GET  /api/v1/jobs/<id>``                       one job's status
``GET  /api/v1/jobs/<id>/curve``                 measured points in grid
                                                 order; ``?wait_version=N
                                                 [&timeout=S]`` long-polls
                                                 until more chunks land
``POST /api/v1/workers``                         register a worker
``POST /api/v1/lease``                           pull the next chunk lease
``POST /api/v1/heartbeat``                       renew a lease
``POST /api/v1/commit``                          commit a simulated chunk;
                                                 with ``"next": true`` the
                                                 reply's ``next`` leases
                                                 the worker its next chunk
``POST /api/v1/fail``                            report a failed chunk
``POST /api/v1/release``                         gracefully return a lease
                                                 (shutdown; attempt
                                                 un-counted)
===============================================  =========================

The commit's ``next`` is exactly the ``/lease`` reply for the committing
worker (possibly with ``task: null``); a stale commit gets none, and a
commit without the flag gets the same reply as before the flag existed,
so older workers and older brokers interoperate both ways.

Error mapping: malformed requests and unknown ids return 400/404,
expired or unknown leases 409 (the worker must drop the chunk), commit
conflicts 409 with ``error_kind: "conflict"``, and a draining broker
503 with ``error_kind: "draining"``.  Query parameters are validated at
the edge: integers must be non-negative, floats non-negative and
finite — ``wait_version=-1`` or ``timeout=nan`` is a 400, never a
value the broker has to reason about.
"""

from __future__ import annotations

import json
import math
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from repro.serve.broker import (Broker, BrokerDrainingError, BrokerError,
                                CommitConflictError, UnknownJobError)
from repro.serve.leases import LeaseError

__all__ = ["ServeServer", "create_server"]

_MAX_BODY_BYTES = 16 * 1024 * 1024


class _RequestError(Exception):
    """Internal: carries an HTTP status + payload up to the dispatcher."""

    def __init__(self, status: int, message: str, kind: str = "bad_request"):
        super().__init__(message)
        self.status = status
        self.kind = kind


class _Handler(BaseHTTPRequestHandler):
    """Routes HTTP requests onto the server's broker."""

    protocol_version = "HTTP/1.1"
    server_version = "repro-serve"
    # Headers and body go out in two writes; with Nagle on, the second
    # waits for the client's delayed ACK (~40 ms) on a keep-alive socket.
    disable_nagle_algorithm = True

    # The broker is attached to the server object by create_server().
    def _broker(self) -> Broker:
        return self.server.broker

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if getattr(self.server, "verbose", False):
            super().log_message(format, *args)

    # -- plumbing ------------------------------------------------------
    def _send_json(self, payload, status: int = 200) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_text(self, text: str, status: int = 200,
                   content_type: str = "text/plain; charset=utf-8") -> None:
        body = text.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _read_json(self) -> dict:
        length = int(self.headers.get("Content-Length") or 0)
        if length <= 0:
            raise _RequestError(400, "request body required")
        if length > _MAX_BODY_BYTES:
            # The unread body would be parsed as the next request.
            self.close_connection = True
            raise _RequestError(413, "request body too large")
        try:
            data = json.loads(self.rfile.read(length).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise _RequestError(400, f"malformed JSON body: {error}") \
                from None
        if not isinstance(data, dict):
            raise _RequestError(400, "request body must be a JSON object")
        return data

    def _dispatch(self, method: str) -> None:
        parsed = urlparse(self.path)
        parts = [part for part in parsed.path.split("/") if part]
        query = {name: values[-1]
                 for name, values in parse_qs(parsed.query).items()}
        try:
            self._route(method, parts, query)
        except _RequestError as error:
            self._send_json({"error": str(error),
                             "error_kind": error.kind}, error.status)
        except BrokerDrainingError as error:
            self._send_json({"error": str(error),
                             "error_kind": "draining"}, 503)
        except UnknownJobError as error:
            self._send_json({"error": str(error),
                             "error_kind": "unknown_job"}, 404)
        except CommitConflictError as error:
            self._send_json({"error": str(error),
                             "error_kind": "conflict"}, 409)
        except LeaseError as error:
            self._send_json({"error": str(error),
                             "error_kind": "lease"}, 409)
        except BrokerError as error:
            self._send_json({"error": str(error),
                             "error_kind": "bad_request"}, 400)
        except (ValueError, KeyError) as error:
            self._send_json({"error": str(error),
                             "error_kind": "bad_request"}, 400)

    # -- routing -------------------------------------------------------
    def _route(self, method: str, parts: list[str], query: dict) -> None:
        broker = self._broker()
        if method == "GET" and parts == ["healthz"]:
            self._send_json({"ok": True})
            return
        if method == "GET" and parts == ["metrics"]:
            self._send_text(broker.render_metrics(),
                            content_type="text/plain; version=0.0.4; "
                                         "charset=utf-8")
            return
        if parts[:2] != ["api", "v1"]:
            raise _RequestError(404, f"no such route: {self.path}",
                                kind="not_found")
        route = parts[2:]
        if method == "GET":
            if route == ["status"]:
                self._send_json(broker.status())
                return
            if route == ["jobs"]:
                self._send_json({"jobs": list(broker.job_ids())})
                return
            if len(route) == 2 and route[0] == "jobs":
                self._send_json(broker.job_status(route[1]))
                return
            if len(route) == 3 and route[0] == "jobs" \
                    and route[2] == "curve":
                wait_version = None
                timeout_s = None
                if "wait_version" in query:
                    wait_version = self._int_param(query, "wait_version")
                    timeout_s = self._float_param(query, "timeout", 30.0)
                self._send_json(broker.curve(route[1],
                                             wait_version=wait_version,
                                             timeout_s=timeout_s))
                return
        if method == "POST":
            if route == ["jobs"]:
                self._send_json(broker.submit(self._read_json()), 201)
                return
            if route == ["workers"]:
                body = self._read_body_or_empty()
                self._send_json(
                    broker.register_worker(name=body.get("name")), 201)
                return
            if route == ["lease"]:
                body = self._read_json()
                self._send_json(broker.lease(
                    self._required(body, "worker_id")))
                return
            if route == ["heartbeat"]:
                body = self._read_json()
                self._send_json(broker.heartbeat(
                    self._required(body, "lease_id")))
                return
            if route == ["commit"]:
                body = self._read_json()
                self._send_json(broker.commit(
                    self._required(body, "lease_id"),
                    self._required(body, "task_id"),
                    self._required(body, "measurement"),
                    next_lease=body.get("next") is True))
                return
            if route == ["fail"]:
                body = self._read_json()
                self._send_json(broker.fail(
                    self._required(body, "lease_id"),
                    self._required(body, "task_id"),
                    str(body.get("error", "unspecified worker error"))))
                return
            if route == ["release"]:
                body = self._read_json()
                self._send_json(broker.release(
                    self._required(body, "lease_id"),
                    self._required(body, "task_id")))
                return
        raise _RequestError(404, f"no such route: {method} {self.path}",
                            kind="not_found")

    def _read_body_or_empty(self) -> dict:
        if int(self.headers.get("Content-Length") or 0) <= 0:
            return {}
        return self._read_json()

    @staticmethod
    def _required(body: dict, name: str):
        value = body.get(name)
        if value is None:
            raise _RequestError(400, f"request body needs {name!r}")
        return value

    @staticmethod
    def _int_param(query: dict, name: str) -> int:
        try:
            value = int(query[name])
        except (ValueError, TypeError):
            raise _RequestError(400, f"query parameter {name!r} must be "
                                     "an integer") from None
        if value < 0:
            raise _RequestError(400, f"query parameter {name!r} must be "
                                     f"non-negative, got {value}")
        return value

    @staticmethod
    def _float_param(query: dict, name: str, default: float) -> float:
        if name not in query:
            return default
        try:
            value = float(query[name])
        except (ValueError, TypeError):
            raise _RequestError(400, f"query parameter {name!r} must be "
                                     "a number") from None
        if not math.isfinite(value) or value < 0:
            raise _RequestError(400, f"query parameter {name!r} must be "
                                     f"a finite non-negative number, got "
                                     f"{query[name]}")
        return value

    # Stdlib entry points.
    def do_GET(self) -> None:  # noqa: N802 - stdlib casing
        """Handle a GET request."""
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 - stdlib casing
        """Handle a POST request."""
        self._dispatch("POST")


#: ``serve_forever`` poll period of :meth:`ServeServer.serve_in_thread`
#: — bounds how long ``shutdown()`` blocks.
_POLL_INTERVAL_S = 0.05


class ServeServer(ThreadingHTTPServer):
    """A :class:`ThreadingHTTPServer` carrying its broker.

    ``daemon_threads`` keeps an in-flight long-poll from blocking
    shutdown; ``allow_reuse_address`` makes quick restarts in tests and
    CI painless.  Clients keep their connections alive, one handler
    thread per connection; :meth:`server_close` shuts every open one
    down, so no handler outlives the server and a client's next request
    reconnects to whatever listens on the port then.
    """

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address, broker: Broker, verbose: bool = False):
        super().__init__(address, _Handler)
        self.broker = broker
        self.verbose = verbose
        self._connections: set[socket.socket] = set()
        self._connections_lock = threading.Lock()

    def process_request(self, request, client_address) -> None:
        """Track the connection, then hand it to a handler thread."""
        with self._connections_lock:
            self._connections.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request) -> None:
        """Forget the connection and close it (its handler is done)."""
        with self._connections_lock:
            self._connections.discard(request)
        super().shutdown_request(request)

    def server_close(self) -> None:
        """Close the listening socket and every open connection."""
        super().server_close()
        with self._connections_lock:
            connections = list(self._connections)
        for connection in connections:
            try:
                connection.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # already closed by its peer

    @property
    def url(self) -> str:
        """The server's base URL (reflects the actual bound port, so
        passing port 0 and reading this back is the test idiom)."""
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def serve_in_thread(self) -> threading.Thread:
        """Run ``serve_forever`` on a daemon thread (tests, embedding).

        Polls every 50 ms instead of the stdlib's 0.5 s, so
        :meth:`shutdown` returns promptly; requests never wait on the
        poll (the selector wakes on every connection).
        """
        thread = threading.Thread(target=self.serve_forever,
                                  kwargs={"poll_interval": _POLL_INTERVAL_S},
                                  name="repro-serve", daemon=True)
        thread.start()
        return thread


def create_server(broker: Broker, host: str = "127.0.0.1",
                  port: int = 0, verbose: bool = False) -> ServeServer:
    """Bind the broker's HTTP API; ``port=0`` picks a free port."""
    return ServeServer((host, port), broker, verbose=verbose)
