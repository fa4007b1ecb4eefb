"""Pull workers: lease a chunk, simulate it, heartbeat, commit.

:class:`BrokerClient` is a tiny urllib JSON client for the broker's
HTTP API (:mod:`repro.serve.api`); :class:`Worker` is the loop
``python -m repro worker`` runs: pull a lease, rebuild the engine the
task's parameters describe, simulate exactly the leased chunk, and
commit its measurement.

Determinism is the whole point: a chunk is simulated via
``engine.measure_points([(point, packets, offset)], ...,
chunk_packets=packets)`` — the same seeded-chunk entry point the local
:class:`repro.runs.RunDriver` uses — so any worker anywhere produces
bit-identical counts for a given chunk, and the broker's merged curve
matches a local run exactly.

A heartbeat thread renews the lease while the chunk simulates.  If the
broker reports the lease dead (expired, re-leased elsewhere), the
worker abandons the chunk: its result is discarded locally rather than
committed, keeping the at-most-once story clean even before the
store's idempotency backstop.

Transport resilience: the broker restarting (durable brokers journal
their queue and come back) or a dropped connection must not kill a
fleet of workers, so :class:`BrokerClient` retries *transport* errors —
``URLError``, connection resets, timeouts — with bounded, seeded-jitter
exponential backoff, raising :class:`BrokerTransportError` loudly only
after the attempt budget is spent.  HTTP-level rejections
(:class:`BrokerRequestError`) are never retried: the broker answered;
retrying the same request cannot change its mind.

Shutdown: ``python -m repro worker`` installs SIGTERM/SIGINT handlers
that raise :class:`WorkerShutdown` in the worker loop; the loop
*releases* its in-flight lease (``POST /api/v1/release`` — the chunk
requeues immediately and the grant is un-counted) instead of abandoning
it to the lease timeout, then exits cleanly.
"""

from __future__ import annotations

import json
import random
import threading
import time
import urllib.error
import urllib.request

from repro.core.metrics import BERPoint
from repro.sim.engine import SweepEngine, SweepPoint

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


#: Transport-level exceptions worth retrying.  ``URLError`` covers
#: refused/reset connections and DNS failures wrapped by urllib;
#: ``OSError`` covers raw socket errors (``ConnectionResetError``,
#: ``BrokenPipeError``, ``socket.timeout``) escaping unwrapped.  Note
#: ``HTTPError`` subclasses ``URLError`` — it is re-raised as a
#: :class:`BrokerRequestError` *before* the retry check, so an answered
#: request is never retried.
_TRANSIENT_ERRORS = (urllib.error.URLError, ConnectionError, OSError)


class BrokerClient:
    """JSON-over-HTTP client for the serve API (stdlib urllib only).

    Parameters
    ----------
    base_url:
        The broker's base URL (as printed by ``python -m repro serve``).
    timeout_s:
        Per-request socket timeout.
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
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        self.base_url = base_url.rstrip("/")
        self.timeout_s = float(timeout_s)
        self.max_attempts = int(max_attempts)
        self.backoff_base_s = float(backoff_base_s)
        self.backoff_cap_s = float(backoff_cap_s)
        self.transport_retries = 0
        self._jitter = random.Random(retry_seed)
        self._sleep = sleep

    # -- plumbing ------------------------------------------------------
    def _request_once(self, method: str, path: str, payload=None):
        data = None
        headers = {"Accept": "application/json"}
        if payload is not None:
            data = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        request = urllib.request.Request(self.base_url + path, data=data,
                                         headers=headers, method=method)
        try:
            with urllib.request.urlopen(request,
                                        timeout=self.timeout_s) as response:
                return json.loads(response.read().decode("utf-8"))
        except urllib.error.HTTPError as error:
            body = error.read().decode("utf-8", errors="replace")
            try:
                detail = json.loads(body)
                message = detail.get("error", body)
                kind = detail.get("error_kind", "error")
            except json.JSONDecodeError:
                message, kind = body, "error"
            raise BrokerRequestError(error.code, message, kind) from None

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

    def commit(self, lease_id: str, task_id: str,
               measurement: dict) -> dict:
        """Commit a simulated chunk's measurement."""
        return self.post("/api/v1/commit",
                         {"lease_id": lease_id, "task_id": task_id,
                          "measurement": measurement})

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
    """Renews one lease on a background thread while a chunk simulates.

    Sets ``abandoned`` when the broker declares the lease dead, which
    tells the worker loop to discard its in-flight result instead of
    committing it.
    """

    def __init__(self, client: BrokerClient, lease_id: str,
                 interval_s: float) -> None:
        self._client = client
        self._lease_id = lease_id
        self._interval_s = interval_s
        self._stop = threading.Event()
        self.abandoned = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name=f"heartbeat-{lease_id}")

    def __enter__(self) -> "_Heartbeat":
        self._thread.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._stop.set()
        self._thread.join(timeout=5.0)
        return False

    def _run(self) -> None:
        while not self._stop.wait(self._interval_s):
            try:
                self._client.heartbeat(self._lease_id)
            except BrokerRequestError as error:
                if error.kind == "lease":
                    self.abandoned.set()
                    return
            except (BrokerTransportError, OSError):
                pass  # broker unreachable; keep simulating — if it
                # stays down past the lease timeout the restarted
                # broker reaps the lease and our commit lands stale
                # (an idempotent duplicate at worst)


class Worker:
    """The pull-worker loop behind ``python -m repro worker``.

    Parameters
    ----------
    client:
        A :class:`BrokerClient` (or a broker URL string).
    name:
        Human-readable worker name reported at registration.
    poll_interval_s:
        Sleep between lease polls while the queue is empty.
    exit_when_idle:
        Stop once the broker reports no pending or leased chunks at all
        — how CI drains a fleet deterministically.
    """

    def __init__(self, client, name: str | None = None,
                 poll_interval_s: float = 0.2,
                 exit_when_idle: bool = False) -> None:
        self.client = (BrokerClient(client) if isinstance(client, str)
                       else client)
        self.name = name
        self.poll_interval_s = float(poll_interval_s)
        self.exit_when_idle = bool(exit_when_idle)
        self.worker_id: str | None = None
        self.chunks_committed = 0
        self.chunks_abandoned = 0
        self.chunks_failed = 0
        self.stopped = False
        self._stop = threading.Event()
        self._inflight: tuple[str, str] | None = None  # (lease, task)
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
        key = (params["seed"], params["generation"], params["backend"],
               params["quantize"], params.get("array_backend"))
        engine = self._engines.get(key)
        if engine is None:
            engine = SweepEngine(seed=int(params["seed"]),
                                 generation=str(params["generation"]),
                                 backend=str(params["backend"]),
                                 quantize=bool(params["quantize"]),
                                 array_backend=params.get("array_backend"))
            self._engines[key] = engine
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

    def _execute(self, response: dict) -> None:
        """Simulate and commit the chunk a lease response carries."""
        task = response["task"]
        lease_id = response["lease_id"]
        interval = max(float(response["lease_timeout_s"]) / 3.0, 0.05)
        self._inflight = (lease_id, task["task_id"])
        shutdown = False
        try:
            with _Heartbeat(self.client, lease_id, interval) as heartbeat:
                try:
                    measurement = self.simulate(task)
                except WorkerShutdown:
                    # A shutdown request is not a chunk failure: let
                    # run() release the lease instead of failing it.
                    shutdown = True
                    raise
                except Exception as error:
                    # Report the failure so the chunk requeues
                    # immediately (instead of waiting out the lease),
                    # then propagate.
                    self.chunks_failed += 1
                    try:
                        self.client.fail(lease_id, task["task_id"],
                                         str(error))
                    except (BrokerRequestError, BrokerTransportError,
                            OSError):
                        pass
                    raise
            if heartbeat.abandoned.is_set():
                # The broker gave the chunk to someone else; our result
                # is bit-identical anyway, but dropping it keeps this
                # worker honestly at-most-once without leaning on the
                # store.
                self.chunks_abandoned += 1
                return
            self.client.commit(lease_id, task["task_id"],
                               measurement.to_dict())
            self.chunks_committed += 1
        finally:
            if not shutdown:
                # Committed, abandoned, or reported failed — the chunk
                # is disposed of either way.  On a shutdown the marker
                # stays set so run() can *release* the live lease.
                self._inflight = None

    def _release_inflight(self) -> None:
        """Gracefully return the lease of an interrupted chunk."""
        if self._inflight is None:
            return
        lease_id, task_id = self._inflight
        self._inflight = None
        try:
            self.client.release(lease_id, task_id)
        except (BrokerRequestError, BrokerTransportError, OSError):
            pass  # broker gone or lease reaped; the timeout requeues it

    def run_one(self) -> bool:
        """Pull and execute at most one chunk; False when queue is empty."""
        self._ensure_registered()
        response = self.client.lease(self.worker_id)
        if response.get("task") is None:
            return False
        self._execute(response)
        return True

    def run(self, max_chunks: int | None = None) -> dict:
        """Pull chunks until told to stop; returns this worker's tally.

        Stops after ``max_chunks`` commits (when given), or — with
        ``exit_when_idle`` — once the broker has no outstanding chunks
        (neither queued nor leased); otherwise idles on
        ``poll_interval_s`` waiting for more work.  A
        :class:`WorkerShutdown` raised into the loop (the CLI's
        SIGTERM/SIGINT handlers) or :meth:`request_stop` stops it
        cleanly: any in-flight lease is *released* back to the broker —
        requeued immediately, grant un-counted — rather than abandoned
        to the lease timeout.
        """
        try:
            self._ensure_registered()
            while max_chunks is None or self.chunks_committed < max_chunks:
                if self._stop.is_set():
                    self.stopped = True
                    break
                response = self.client.lease(self.worker_id)
                if response.get("task") is not None:
                    self._execute(response)
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
        return {"worker_id": self.worker_id,
                "chunks_committed": self.chunks_committed,
                "chunks_abandoned": self.chunks_abandoned,
                "chunks_failed": self.chunks_failed,
                "stopped": self.stopped}
