"""Client transport retries and graceful worker shutdown.

The retry layer is exercised with a scripted transport (injected sleep,
no real sockets, no real waiting) plus one real connection-refused case;
the shutdown layer interrupts a live worker mid-chunk with
:class:`WorkerShutdown` — the fault-injection hook standing in for the
CLI's SIGTERM handler — and asserts the lease comes back *released*,
not abandoned or failed.
"""

import socket
import urllib.error

import pytest

import repro.sim.engine as engine_module
from repro.serve.api import create_server
from repro.serve.broker import Broker
from repro.serve.worker import (BrokerClient, BrokerRequestError,
                                BrokerTransportError, Worker,
                                WorkerShutdown)

from tests.serve.test_broker import SPEC


class ScriptedClient(BrokerClient):
    """A client whose transport plays back a script of outcomes."""

    def __init__(self, outcomes, **kwargs):
        kwargs.setdefault("sleep", self.record_sleep)
        super().__init__("http://broker.invalid", **kwargs)
        self.outcomes = list(outcomes)
        self.calls = 0
        self.slept = []

    def record_sleep(self, seconds):
        self.slept.append(seconds)

    def _request_once(self, method, path, payload=None):
        self.calls += 1
        outcome = self.outcomes.pop(0)
        if isinstance(outcome, BaseException):
            raise outcome
        return outcome


REFUSED = urllib.error.URLError(ConnectionRefusedError(111,
                                                       "refused"))


class TestTransportRetry:
    def test_transient_errors_retry_then_succeed(self):
        client = ScriptedClient([REFUSED, ConnectionResetError(), {"ok": 1}],
                                max_attempts=5)
        assert client.get("/api/v1/status") == {"ok": 1}
        assert client.calls == 3
        assert client.transport_retries == 2
        assert len(client.slept) == 2

    def test_fails_loudly_after_attempt_budget(self):
        client = ScriptedClient([REFUSED] * 3, max_attempts=3)
        with pytest.raises(BrokerTransportError,
                           match="unreachable after 3 attempt"):
            client.get("/api/v1/status")
        assert client.calls == 3
        assert len(client.slept) == 2  # no sleep before the first try

    def test_transport_error_chains_the_last_cause(self):
        client = ScriptedClient([REFUSED, ConnectionResetError("last")],
                                max_attempts=2)
        with pytest.raises(BrokerTransportError) as excinfo:
            client.get("/api/v1/status")
        assert excinfo.value.attempts == 2
        assert isinstance(excinfo.value.__cause__, ConnectionResetError)

    def test_http_rejection_is_never_retried(self):
        # The broker answered; retrying cannot change its mind.  The
        # remaining scripted outcomes must never be consumed.
        client = ScriptedClient([BrokerRequestError(404, "no", "not_found"),
                                 {"never": "reached"}], max_attempts=5)
        with pytest.raises(BrokerRequestError):
            client.get("/api/v1/nope")
        assert client.calls == 1
        assert client.slept == []

    def test_backoff_is_exponential_bounded_and_jittered(self):
        client = ScriptedClient([REFUSED] * 6, max_attempts=6,
                                backoff_base_s=1.0, backoff_cap_s=4.0,
                                retry_seed=42)
        with pytest.raises(BrokerTransportError):
            client.get("/api/v1/status")
        exponents = [1.0, 2.0, 4.0, 4.0, 4.0]  # capped at 4s
        assert len(client.slept) == len(exponents)
        for delay, ceiling in zip(client.slept, exponents):
            assert 0.5 * ceiling <= delay <= ceiling

    def test_jitter_is_seeded_and_desynchronized(self):
        def delays(seed):
            client = ScriptedClient([REFUSED] * 4, max_attempts=4,
                                    retry_seed=seed)
            with pytest.raises(BrokerTransportError):
                client.get("/api/v1/status")
            return client.slept

        assert delays(7) == delays(7)  # deterministic per seed...
        assert delays(7) != delays(8)  # ...distinct across workers

    def test_zero_attempts_rejected(self):
        with pytest.raises(ValueError, match="max_attempts"):
            BrokerClient("http://broker.invalid", max_attempts=0)

    @pytest.mark.parametrize("name, value, error", [
        ("max_attempts", 2.7, TypeError),
        ("max_attempts", True, TypeError),
        ("max_attempts", -3, ValueError),
        ("timeout_s", -1.0, ValueError),
        ("timeout_s", 0.0, ValueError),
        ("timeout_s", float("nan"), ValueError),
        ("timeout_s", float("inf"), ValueError),
        ("backoff_base_s", -1.0, ValueError),
        ("backoff_base_s", float("nan"), ValueError),
        ("backoff_cap_s", -1.0, ValueError),
        ("backoff_cap_s", float("inf"), ValueError),
    ])
    def test_invalid_settings_rejected_at_construction(self, name, value,
                                                       error):
        with pytest.raises(error, match=name):
            BrokerClient("http://broker.invalid", **{name: value})

    def test_zero_backoff_is_allowed(self):
        client = ScriptedClient([REFUSED, {"ok": 1}], max_attempts=2,
                                backoff_base_s=0.0, backoff_cap_s=0.0)
        assert client.get("/api/v1/status") == {"ok": 1}
        assert client.slept == [0.0]

    def test_real_connection_refused_raises_transport_error(self):
        # Grab a port the OS just handed out and closed: nothing
        # listens there, so urllib sees a genuine refused connection.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        client = BrokerClient(f"http://127.0.0.1:{port}", timeout_s=2.0,
                              max_attempts=2, backoff_base_s=0.01,
                              sleep=lambda seconds: None)
        with pytest.raises(BrokerTransportError) as excinfo:
            client.status()
        assert excinfo.value.attempts == 2


@pytest.mark.parametrize("interval", [0, 0.0, -1.0, float("nan"),
                                      float("inf")])
def test_worker_rejects_a_poll_interval_that_busy_loops(interval):
    with pytest.raises(ValueError, match="poll_interval_s"):
        Worker("http://broker.invalid", poll_interval_s=interval)


@pytest.fixture
def server(tmp_path):
    broker = Broker(tmp_path / "store", lease_timeout_s=30.0)
    server = create_server(broker)
    server.serve_in_thread()
    yield server
    server.shutdown()
    server.server_close()
    broker.close()


@pytest.fixture
def client(server):
    client = BrokerClient(server.url, timeout_s=10.0)
    yield client
    client.close()


class TestWorkerShutdown:
    def test_shutdown_mid_chunk_releases_the_lease(self, server, client):
        broker = server.broker
        client.submit(SPEC)

        # Interrupt the first chunk the moment it starts simulating —
        # the in-process stand-in for SIGTERM arriving mid-chunk.
        def shutdown_hook(task):
            engine_module._chunk_task_hook = None
            raise WorkerShutdown("SIGTERM")

        worker = Worker(client, name="interrupted")
        engine_module._chunk_task_hook = shutdown_hook
        try:
            tally = worker.run()
        finally:
            engine_module._chunk_task_hook = None

        assert tally["stopped"] is True
        assert tally["chunks_committed"] == 0
        assert tally["chunks_failed"] == 0  # a shutdown is not a failure
        status = broker.status()
        # Released, not abandoned: the chunk is pending again right now
        # (no lease left to time out) and the grant was un-counted.
        assert status["tasks"] == {"pending": 6, "leased": 0,
                                   "done": 0, "failed": 0}
        assert status["leases_active"] == 0
        assert status["counters"]["serve.leases_released"] == 1
        follow_up = broker.register_worker("next")["worker_id"]
        assert broker.lease(follow_up)["attempt"] == 1

    def test_request_stop_halts_between_chunks(self, server, client):
        client.submit(SPEC)
        worker = Worker(client, name="stopping", poll_interval_s=0.01)
        committed = []

        def stop_hook(task):
            worker.request_stop()
            committed.append(task)

        engine_module._chunk_task_hook = stop_hook
        try:
            tally = worker.run()
        finally:
            engine_module._chunk_task_hook = None

        # The chunk in flight when stop was requested still commits;
        # the loop then notices the flag instead of leasing again.
        assert tally["stopped"] is True
        assert tally["chunks_committed"] == 1
        assert server.broker.status()["tasks"]["done"] == 1

    def test_worker_stops_when_broker_drains(self, server, client):
        client.submit(SPEC)
        server.broker.begin_shutdown()
        tally = Worker(client, name="drained",
                       poll_interval_s=0.01).run()
        assert tally["stopped"] is True
        assert tally["chunks_committed"] == 0
