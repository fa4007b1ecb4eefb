"""Pull workers: lease a chunk, simulate it, heartbeat, commit.

:class:`BrokerClient` is a stdlib JSON client for the broker's HTTP API
(:mod:`repro.serve.api`); :class:`Worker` is the loop ``python -m repro
worker`` runs: pull a lease, rebuild the engine the task's parameters
describe, simulate exactly the leased chunk, and commit its measurement.

Determinism is the whole point: a chunk is simulated via
``engine.measure_points([(point, packets, offset)], ...,
chunk_packets=packets)`` — the same seeded-chunk entry point the local
:class:`repro.runs.RunDriver` uses — so any worker anywhere produces
bit-identical counts for a given chunk, and the broker's merged curve
matches a local run exactly.

One request per chunk: the commit asks the broker for the next lease
(``"next": true``) and the worker holds that lease for its next chunk,
so a busy worker only calls ``POST /api/v1/lease`` when the commit
reply carries no task (queue empty, broker draining, or an older broker
that ignores the flag).  Every way out of the loop *releases* a held
lease, so it requeues at once with its attempt un-counted.

Transport: :class:`BrokerClient` keeps one HTTP/1.1 keep-alive
connection (``http.client``) per thread.  A reused connection the
broker closed while idle (a restart, say) fails before any response
byte; that request is resent once on a fresh connection.  Unlike the
urllib client this replaced, proxy environment variables
(``http_proxy``) are not consulted: workers talk to the broker directly.

One heartbeat thread per worker renews the current lease while a chunk
simulates and parks between chunks.  If the broker reports the lease
dead (expired, re-leased elsewhere), the worker abandons the chunk: its
result is discarded locally rather than committed, keeping the
at-most-once story clean even before the store's idempotency backstop.

Transport resilience: the broker restarting (durable brokers journal
their queue and come back) or a dropped connection must not kill a
fleet of workers, so :class:`BrokerClient` retries *transport* errors —
refused or reset connections, timeouts, malformed responses — with
bounded, seeded-jitter exponential backoff, raising
:class:`BrokerTransportError` loudly only after the attempt budget is
spent.  HTTP-level rejections (:class:`BrokerRequestError`) are never
retried: the broker answered; retrying the same request cannot change
its mind.

Shutdown: ``python -m repro worker`` installs SIGTERM/SIGINT handlers
that raise :class:`WorkerShutdown` in the worker loop; the loop
*releases* its in-flight and held leases (``POST /api/v1/release`` —
the chunk requeues immediately and the grant is un-counted) instead of
abandoning them to the lease timeout, then exits cleanly.
"""

from __future__ import annotations

import http.client
import json
import random
import threading
import time
from urllib.parse import urlsplit

from repro.core.metrics import BERPoint
from repro.sim.engine import SweepEngine, SweepPoint
from repro.utils.validation import (
    require_int,
    require_non_negative,
    require_positive,
)

__all__ = ["BrokerClient", "BrokerRequestError", "BrokerTransportError",
           "Worker", "WorkerShutdown"]


class BrokerRequestError(RuntimeError):
    """An HTTP request the broker rejected (carries status + error kind)."""

    def __init__(self, status: int, message: str, kind: str = "error"):
        super().__init__(f"[{status}/{kind}] {message}")
        self.status = status
        self.kind = kind


class BrokerTransportError(RuntimeError):
    """The broker stayed unreachable through the whole retry budget.

    Raised only after :class:`BrokerClient` exhausted its bounded
    backoff schedule against transient transport failures (connection
    refused/reset, timeouts, DNS trouble) — a loud signal that the
    broker is really gone, not merely restarting.
    """

    def __init__(self, attempts: int, message: str):
        super().__init__(
            f"broker unreachable after {attempts} attempt(s): {message}")
        self.attempts = attempts


class WorkerShutdown(Exception):
    """Raised into the worker loop to request a graceful stop.

    The CLI's SIGTERM/SIGINT handlers raise this in the main thread;
    :meth:`Worker.run` catches it, releases any in-flight lease back to
    the broker, and returns its tally with ``stopped: True``.
    """


#: Transport-level exceptions worth retrying: ``OSError`` covers
#: refused/reset connections, timeouts and DNS failures;
#: ``HTTPException`` a response cut short or garbled.  An HTTP error
#: status is raised as :class:`BrokerRequestError` *before* the retry
#: check, so an answered request is never retried.
_TRANSIENT_ERRORS = (OSError, http.client.HTTPException)

#: How a reused keep-alive connection fails when the broker closed it
#: while idle (``RemoteDisconnected`` is a ``ConnectionResetError``).
_STALE_CONNECTION_ERRORS = (ConnectionResetError, BrokenPipeError)


class BrokerClient:
    """JSON-over-HTTP client for the serve API (stdlib ``http.client``).

    Each thread that uses the client gets its own keep-alive connection
    (a worker's heartbeat thread shares its client); :meth:`close`
    closes them all.

    Parameters
    ----------
    base_url:
        The broker's base URL (as printed by ``python -m repro serve``),
        ``http://`` or ``https://``.
    timeout_s:
        Per-request socket timeout (a positive finite number).
    max_attempts:
        Total tries per request against transient transport errors
        before :class:`BrokerTransportError` is raised (>= 1).
    backoff_base_s / backoff_cap_s:
        The exponential backoff schedule: attempt ``k`` sleeps
        ``min(base * 2**k, cap)`` scaled by a seeded jitter factor in
        [0.5, 1.0] — bounded, deterministic for a given ``retry_seed``,
        and desynchronized across differently-seeded workers.
    retry_seed:
        Seed for the jitter stream (default 0 — deterministic; give
        each worker its own seed to spread a thundering herd).
    """

    def __init__(self, base_url: str, timeout_s: float = 60.0,
                 max_attempts: int = 5, backoff_base_s: float = 0.1,
                 backoff_cap_s: float = 5.0, retry_seed: int = 0,
                 sleep=time.sleep) -> None:
        self.base_url = base_url.rstrip("/")
        parts = urlsplit(self.base_url)
        if parts.scheme not in ("http", "https") or not parts.netloc:
            raise ValueError(f"broker URL must be http:// or https://, "
                             f"got {base_url!r}")
        self._connection_class = (http.client.HTTPSConnection
                                  if parts.scheme == "https"
                                  else http.client.HTTPConnection)
        self._netloc = parts.netloc
        self._path_prefix = parts.path
        self._local = threading.local()
        self._connections: set[http.client.HTTPConnection] = set()
        self._connections_lock = threading.Lock()
        self.timeout_s = require_positive(timeout_s, "timeout_s")
        self.max_attempts = require_int(max_attempts, "max_attempts",
                                        minimum=1)
        self.backoff_base_s = require_non_negative(backoff_base_s,
                                                   "backoff_base_s")
        self.backoff_cap_s = require_non_negative(backoff_cap_s,
                                                  "backoff_cap_s")
        self.transport_retries = 0
        self._jitter = random.Random(retry_seed)
        self._sleep = sleep

    # -- plumbing ------------------------------------------------------
    def _connection(self) -> http.client.HTTPConnection:
        connection = getattr(self._local, "connection", None)
        if connection is None:
            connection = self._connection_class(self._netloc,
                                                timeout=self.timeout_s)
            self._local.connection = connection
            with self._connections_lock:
                self._connections.add(connection)
        return connection

    def _close_thread_connection(self) -> None:
        connection = getattr(self._local, "connection", None)
        if connection is not None:
            del self._local.connection
            with self._connections_lock:
                self._connections.discard(connection)
            connection.close()

    def close(self) -> None:
        """Close every connection this client opened, in every thread.

        A later request reconnects, so call it once the client's threads
        are done with it.
        """
        with self._connections_lock:
            connections = list(self._connections)
        for connection in connections:
            connection.close()

    def _request_once(self, method: str, path: str, payload=None):
        body = None
        headers = {"Accept": "application/json"}
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        url = self._path_prefix + path
        connection = self._connection()
        reused = connection.sock is not None
        try:
            try:
                connection.request(method, url, body=body, headers=headers)
                response = connection.getresponse()
            except _STALE_CONNECTION_ERRORS:
                if not reused:
                    raise
                # The broker closed this idle connection before reading
                # the request (it restarted, say): resend once on a
                # fresh connection.  Not a transport retry.  Should the
                # broker have died mid-reply instead, the resend is safe
                # too: commits are idempotent, a duplicate grant expires.
                connection.close()
                connection.request(method, url, body=body, headers=headers)
                response = connection.getresponse()
            data = response.read()
        except BaseException:
            connection.close()  # its state is unknown; never reuse it
            raise
        text = data.decode("utf-8", errors="replace")
        if not 200 <= response.status < 300:
            try:
                detail = json.loads(text)
                message = detail.get("error", text)
                kind = detail.get("error_kind", "error")
            except json.JSONDecodeError:
                message, kind = text, "error"
            raise BrokerRequestError(response.status, message, kind)
        return json.loads(text)

    def _request(self, method: str, path: str, payload=None):
        """One logical request: transient transport errors are retried
        on the bounded seeded-jitter backoff schedule; HTTP rejections
        propagate immediately as :class:`BrokerRequestError`."""
        last_error = None
        for attempt in range(self.max_attempts):
            if attempt:
                delay = min(self.backoff_base_s * 2 ** (attempt - 1),
                            self.backoff_cap_s)
                self._sleep(delay * (0.5 + 0.5 * self._jitter.random()))
                self.transport_retries += 1
            try:
                return self._request_once(method, path, payload)
            except BrokerRequestError:
                raise
            except _TRANSIENT_ERRORS as error:
                last_error = error
        raise BrokerTransportError(self.max_attempts, str(last_error)) \
            from last_error

    def get(self, path: str):
        """GET ``path`` and decode the JSON response."""
        return self._request("GET", path)

    def post(self, path: str, payload=None):
        """POST ``payload`` as JSON to ``path`` and decode the response."""
        return self._request("POST", path, payload or {})

    # -- client-side (submitters) --------------------------------------
    def submit(self, spec: dict) -> dict:
        """Submit a grid (a :class:`repro.serve.JobSpec` payload)."""
        return self.post("/api/v1/jobs", spec)

    def job_status(self, job_id: str) -> dict:
        """One job's status descriptor."""
        return self.get(f"/api/v1/jobs/{job_id}")

    def curve(self, job_id: str, wait_version: int | None = None,
              timeout_s: float = 30.0) -> dict:
        """The job's partial curve; long-polls when ``wait_version`` is
        given (see :meth:`repro.serve.Broker.curve`)."""
        path = f"/api/v1/jobs/{job_id}/curve"
        if wait_version is not None:
            path += f"?wait_version={int(wait_version)}&timeout={timeout_s}"
        return self.get(path)

    def wait_for_curve(self, job_id: str,
                       poll_timeout_s: float = 10.0) -> dict:
        """Long-poll until the job reaches a terminal state; returns the
        final curve payload (raises on a failed job)."""
        payload = self.curve(job_id)
        while payload["state"] == "running":
            payload = self.curve(job_id,
                                 wait_version=payload["version"],
                                 timeout_s=poll_timeout_s)
        if payload["state"] == "failed":
            raise BrokerRequestError(500, payload.get("error")
                                     or "job failed", "job_failed")
        return payload

    def status(self) -> dict:
        """Service-level status (workers, queues, throughput, cache)."""
        return self.get("/api/v1/status")

    # -- worker-side ---------------------------------------------------
    def register(self, name: str | None = None) -> dict:
        """Register this process as a worker; returns its id."""
        return self.post("/api/v1/workers",
                         {"name": name} if name else {})

    def lease(self, worker_id: str) -> dict:
        """Pull the next chunk lease (``task`` is ``None`` when idle)."""
        return self.post("/api/v1/lease", {"worker_id": worker_id})

    def heartbeat(self, lease_id: str) -> dict:
        """Renew a lease mid-chunk."""
        return self.post("/api/v1/heartbeat", {"lease_id": lease_id})

    def commit(self, lease_id: str, task_id: str, measurement: dict,
               next_lease: bool = False) -> dict:
        """Commit a simulated chunk's measurement.

        With ``next_lease`` the reply carries ``"next"``: the broker's
        :meth:`lease` reply for this worker, granted in the same request
        (absent for a stale commit or from a broker that predates it).
        """
        payload = {"lease_id": lease_id, "task_id": task_id,
                   "measurement": measurement}
        if next_lease:
            payload["next"] = True
        return self.post("/api/v1/commit", payload)

    def fail(self, lease_id: str, task_id: str, error: str) -> dict:
        """Report a chunk this worker could not complete."""
        return self.post("/api/v1/fail",
                         {"lease_id": lease_id, "task_id": task_id,
                          "error": error})

    def release(self, lease_id: str, task_id: str) -> dict:
        """Gracefully return a lease (shutdown path): the chunk requeues
        immediately and the grant does not count as an attempt."""
        return self.post("/api/v1/release",
                         {"lease_id": lease_id, "task_id": task_id})


class _Heartbeat:
    """Renews a worker's current lease on one background thread.

    The thread starts with the first :meth:`watch` and lives until
    :meth:`close`; between chunks it parks on a condition.  It sends each
    renewal without holding the lock, and when the broker declares the
    watched lease dead it marks that lease ``abandoned``, which tells the
    worker loop to discard its in-flight result instead of committing it.
    """

    #: Longest :meth:`clear` waits for a renewal already on the wire.
    _VERDICT_WAIT_S = 5.0

    def __init__(self, client: BrokerClient) -> None:
        self._client = client
        self._changed = threading.Condition()
        self._thread: threading.Thread | None = None
        self._lease_id: str | None = None
        self._interval_s = 0.0
        self._abandoned = False
        self._sending = False

    def watch(self, lease_id: str, interval_s: float) -> None:
        """Renew ``lease_id`` every ``interval_s`` until :meth:`clear`."""
        with self._changed:
            self._lease_id = lease_id
            self._interval_s = interval_s
            self._abandoned = False
            if self._thread is None:
                self._thread = threading.Thread(target=self._run,
                                                daemon=True,
                                                name="heartbeat")
                self._thread.start()
            self._changed.notify_all()

    def clear(self) -> bool:
        """Stop renewing; True when the broker declared the lease dead.

        A renewal already on the wire is waited for (bounded), so its
        verdict counts.
        """
        with self._changed:
            self._changed.wait_for(lambda: not self._sending,
                                   timeout=self._VERDICT_WAIT_S)
            self._lease_id = None
            self._changed.notify_all()
            return self._abandoned

    def close(self) -> None:
        """Stop the thread (idempotent; the next :meth:`watch` starts a
        fresh one)."""
        with self._changed:
            thread, self._thread = self._thread, None
            self._lease_id = None
            self._changed.notify_all()
        if thread is not None:
            thread.join(timeout=self._VERDICT_WAIT_S)

    def _run(self) -> None:
        me = threading.current_thread()
        try:
            with self._changed:
                while self._thread is me:
                    lease_id = self._lease_id
                    if lease_id is None or self._abandoned:
                        self._changed.wait()  # parked between chunks
                        continue
                    if self._changed.wait_for(
                            lambda: (self._thread is not me
                                     or self._lease_id != lease_id),
                            timeout=self._interval_s):
                        continue
                    self._sending = True
                    self._changed.release()
                    try:
                        dead = self._renew(lease_id)
                    finally:
                        self._changed.acquire()
                        self._sending = False
                        self._changed.notify_all()
                    if dead and self._lease_id == lease_id:
                        self._abandoned = True
        finally:
            self._client._close_thread_connection()

    def _renew(self, lease_id: str) -> bool:
        """One renewal; True when the broker says the lease is dead."""
        try:
            self._client.heartbeat(lease_id)
        except BrokerRequestError as error:
            return error.kind == "lease"
        except (BrokerTransportError, OSError):
            pass  # broker unreachable; keep simulating — if it stays
            # down past the lease timeout the restarted broker reaps the
            # lease and our commit lands stale (an idempotent duplicate
            # at worst)
        return False


class Worker:
    """The pull-worker loop behind ``python -m repro worker``.

    Parameters
    ----------
    client:
        A :class:`BrokerClient` (or a broker URL string).
    name:
        Human-readable worker name reported at registration.
    poll_interval_s:
        Sleep between lease polls while the queue is empty (a positive
        finite number; anything else would poll back to back).
    exit_when_idle:
        Stop once the broker reports no pending or leased chunks at all
        — how CI drains a fleet deterministically.
    """

    def __init__(self, client, name: str | None = None,
                 poll_interval_s: float = 0.2,
                 exit_when_idle: bool = False) -> None:
        self.poll_interval_s = require_positive(poll_interval_s,
                                                "poll_interval_s")
        self._owns_client = isinstance(client, str)
        self.client = BrokerClient(client) if self._owns_client else client
        self.name = name
        self.exit_when_idle = bool(exit_when_idle)
        self.worker_id: str | None = None
        self.chunks_committed = 0
        self.chunks_abandoned = 0
        self.chunks_failed = 0
        self.stopped = False
        self._stop = threading.Event()
        self._inflight: tuple[str, str] | None = None  # (lease, task)
        self._held: dict | None = None  # a prefetched lease reply
        self._heartbeat = _Heartbeat(self.client)
        self._engines: dict[tuple, SweepEngine] = {}

    def request_stop(self) -> None:
        """Ask the loop to stop at the next check (thread/signal-safe).

        The loop exits after the current chunk commits; to interrupt a
        chunk mid-simulation, raise :class:`WorkerShutdown` in the loop
        thread instead (what the CLI's signal handlers do) — the
        in-flight lease is then released, not abandoned.
        """
        self._stop.set()

    def _engine_for(self, params: dict) -> SweepEngine:
        key = tuple(params.items())
        engine = self._engines.get(key)
        if engine is None:
            engine = self._engines[key] = SweepEngine.from_params(params)
        return engine

    def simulate(self, task: dict) -> BERPoint:
        """Simulate exactly the leased chunk, bit-identical to the local
        driver's execution of the same span."""
        point = SweepPoint.from_dict(task["point"])
        packets = int(task["num_packets"])
        offset = int(task["packet_offset"])
        engine = self._engine_for(task["engine"])
        # chunk_packets == the span length: the engine must treat this
        # span as one chunk (the broker already realized the layout),
        # exactly like RunDriver passing chunk_packets=num_packets.
        [measurement] = engine.measure_points(
            [(point, packets, offset)],
            payload_bits_per_packet=int(task["payload_bits_per_packet"]),
            chunk_packets=packets)
        return measurement

    def _ensure_registered(self) -> str:
        if self.worker_id is None:
            self.worker_id = self.client.register(self.name)["worker_id"]
        return self.worker_id

    def _next_lease(self) -> dict:
        """The held lease if there is one, else a ``POST /lease`` reply."""
        self._ensure_registered()
        held, self._held = self._held, None
        return held or self.client.lease(self.worker_id)

    def _execute(self, response: dict, prefetch: bool) -> None:
        """Simulate and commit the chunk a lease response carries; with
        ``prefetch`` (and no stop requested) the commit asks for the
        next lease, which is held when it carries a task."""
        task = response["task"]
        lease_id = response["lease_id"]
        interval = max(float(response["lease_timeout_s"]) / 3.0, 0.05)
        self._inflight = (lease_id, task["task_id"])
        shutdown = False
        try:
            self._heartbeat.watch(lease_id, interval)
            try:
                measurement = self.simulate(task)
            except WorkerShutdown:
                # A shutdown request is not a chunk failure: let run()
                # release the lease instead of failing it.
                shutdown = True
                raise
            except Exception as error:
                # Report the failure so the chunk requeues immediately
                # (instead of waiting out the lease), then propagate.
                self.chunks_failed += 1
                try:
                    self.client.fail(lease_id, task["task_id"], str(error))
                except (BrokerRequestError, BrokerTransportError, OSError):
                    pass
                raise
            finally:
                abandoned = self._heartbeat.clear()
            if abandoned:
                # The broker gave the chunk to someone else; our result
                # is bit-identical anyway, but dropping it keeps this
                # worker honestly at-most-once without leaning on the
                # store.
                self.chunks_abandoned += 1
                return
            reply = self.client.commit(
                lease_id, task["task_id"], measurement.to_dict(),
                next_lease=prefetch and not self._stop.is_set())
            self.chunks_committed += 1
            following = reply.get("next")
            if following and following.get("task") is not None:
                self._held = following  # idle answers are never held
        finally:
            if not shutdown:
                # Committed, abandoned, or reported failed — the chunk
                # is disposed of either way.  On a shutdown the marker
                # stays set so run() can *release* the live lease.
                self._inflight = None

    def _release(self, lease_id: str, task_id: str) -> None:
        try:
            self.client.release(lease_id, task_id)
        except (BrokerRequestError, BrokerTransportError, OSError):
            pass  # broker gone or lease reaped; the timeout requeues it

    def _release_inflight(self) -> None:
        """Gracefully return the lease of an interrupted chunk."""
        if self._inflight is None:
            return
        lease_id, task_id = self._inflight
        self._inflight = None
        self._release(lease_id, task_id)

    def close(self) -> None:
        """Release a held lease and stop the heartbeat thread.

        A client the worker built from a URL is closed too.  Idempotent;
        :meth:`run` calls it on every exit; a caller driving
        :meth:`run_one` calls it when done.
        """
        held, self._held = self._held, None
        if held is not None:
            self._release(held["lease_id"], held["task"]["task_id"])
        self._heartbeat.close()
        if self._owns_client:
            self.client.close()

    def run_one(self) -> bool:
        """Execute at most one chunk; False when the queue is empty.

        Uses the held lease if there is one, else asks ``/lease``; the
        commit asks for the next lease and holds it for the next call.
        """
        response = self._next_lease()
        if response.get("task") is None:
            return False
        self._execute(response, prefetch=True)
        return True

    def run(self, max_chunks: int | None = None) -> dict:
        """Pull chunks until told to stop; returns this worker's tally.

        Stops after ``max_chunks`` commits (when given), or — with
        ``exit_when_idle`` — once the broker has no outstanding chunks
        (neither queued nor leased); otherwise idles on
        ``poll_interval_s`` waiting for more work.  A
        :class:`WorkerShutdown` raised into the loop (the CLI's
        SIGTERM/SIGINT handlers) or :meth:`request_stop` stops it
        cleanly.  On every exit the in-flight and held leases are
        *released* back to the broker — requeued immediately, grant
        un-counted — rather than abandoned to the lease timeout.
        """
        try:
            self._ensure_registered()
            while max_chunks is None or self.chunks_committed < max_chunks:
                if self._stop.is_set():
                    self.stopped = True
                    break
                response = self._next_lease()
                if response.get("task") is not None:
                    # Ask for the next lease only if it will be used.
                    self._execute(response, prefetch=max_chunks is None
                                  or self.chunks_committed + 1 < max_chunks)
                    continue
                if self.exit_when_idle \
                        and response.get("outstanding", 0) == 0:
                    break
                if response.get("draining"):
                    # A draining broker grants nothing further; idling
                    # on it would spin until the process dies.
                    self.stopped = True
                    break
                if self._stop.wait(self.poll_interval_s):
                    self.stopped = True
                    break
        except WorkerShutdown:
            self.stopped = True
            self._release_inflight()
        finally:
            self.close()
        return {"worker_id": self.worker_id,
                "chunks_committed": self.chunks_committed,
                "chunks_abandoned": self.chunks_abandoned,
                "chunks_failed": self.chunks_failed,
                "stopped": self.stopped}
