"""Held leases: the commit carries the next lease, and none ever leaks.

A worker's commit asks the broker for its next lease, and the worker
holds that lease for its next chunk.  A held lease nobody works on would
only come back when it expires, so these tests pin lease hygiene with
the broker's counters rather than wall time: after every way a worker
stops, no lease is active, none expired, and every chunk not committed
is pending with its attempt un-counted.
"""

import pytest

import repro.sim.engine as engine_module
from repro.serve.api import create_server
from repro.serve.broker import Broker
from repro.serve.worker import BrokerClient, Worker, WorkerShutdown

from tests.serve.test_broker import SPEC

CHUNKS = 6  # SPEC: 3 points x 2 chunks


@pytest.fixture
def server(tmp_path):
    broker = Broker(tmp_path / "store", lease_timeout_s=30.0)
    server = create_server(broker)
    server.serve_in_thread()
    yield server
    server.shutdown()
    server.server_close()
    broker.close()


class CountingClient(BrokerClient):
    """Counts requests per path; ``carry_next=False`` plays an older
    broker that ignores the commit's ``next`` flag."""

    def __init__(self, base_url, carry_next=True, **kwargs):
        super().__init__(base_url, timeout_s=10.0, **kwargs)
        self.carry_next = carry_next
        self.paths = []

    def _request_once(self, method, path, payload=None):
        self.paths.append(path)
        if not self.carry_next and payload is not None:
            payload = {name: value for name, value in payload.items()
                       if name != "next"}
        return super()._request_once(method, path, payload)

    def count(self, route):
        return self.paths.count(f"/api/v1/{route}")


@pytest.fixture
def clients(server):
    """Make clients of the test's server; closed when the test ends."""
    made = []

    def make(client_class=None, **kwargs):
        made.append((client_class or CountingClient)(server.url, **kwargs))
        return made[-1]

    yield make
    for client in made:
        client.close()


@pytest.fixture
def hook():
    """Install a per-chunk hook (called with the task as it starts)."""
    def install(function):
        engine_module._chunk_task_hook = function
    yield install
    engine_module._chunk_task_hook = None


def assert_no_lease_left(broker, committed):
    """No active, expired or leased chunk; the rest pending, un-counted."""
    status = broker.status()
    assert status["leases_active"] == 0
    assert status["counters"].get("serve.leases_expired", 0) == 0
    assert status["tasks"] == {"pending": CHUNKS - committed, "leased": 0,
                               "done": committed, "failed": 0}
    assert all(task.attempts == 0 for task in broker._tasks.values()
               if task.state == "pending")


class TestDrain:
    def test_exit_when_idle_drain_leaves_no_lease(self, server, clients):
        client = clients()
        client.submit(SPEC)
        tally = Worker(client, exit_when_idle=True,
                       poll_interval_s=0.01).run()
        assert tally["chunks_committed"] == CHUNKS
        assert_no_lease_left(server.broker, committed=CHUNKS)
        # One /lease to start and one to find the queue empty; every
        # other chunk arrived with the previous commit.
        assert client.count("lease") == 2
        assert client.count("commit") == CHUNKS
        assert client.count("release") == 0

    def test_older_broker_reply_falls_back_to_lease(self, server,
                                                    clients):
        client = clients(carry_next=False)
        client.submit(SPEC)
        tally = Worker(client, exit_when_idle=True,
                       poll_interval_s=0.01).run()
        assert tally["chunks_committed"] == CHUNKS
        assert client.count("lease") == CHUNKS + 1
        assert_no_lease_left(server.broker, committed=CHUNKS)

    def test_commit_without_next_replies_as_before(self, server, clients):
        client = clients(BrokerClient, timeout_s=10.0)
        client.submit(SPEC)
        worker_id = client.register("manual")["worker_id"]
        response = client.lease(worker_id)
        task = response["task"]
        measurement = Worker(client).simulate(task)
        reply = client.commit(response["lease_id"], task["task_id"],
                              measurement.to_dict())
        assert reply == {"ok": True, "duplicate": False, "stale": False}


class TestStopPaths:
    def test_max_chunks_asks_for_no_lease_it_will_not_use(self, server,
                                                          clients):
        client = clients()
        client.submit(SPEC)
        tally = Worker(client).run(max_chunks=2)
        assert tally["chunks_committed"] == 2
        assert_no_lease_left(server.broker, committed=2)
        totals = server.broker.status()["counters"]
        assert totals["serve.chunks_leased"] == 2
        assert totals.get("serve.leases_released", 0) == 0

    def test_request_stop_mid_chunk_asks_for_no_next(self, server, clients,
                                                     hook):
        client = clients()
        client.submit(SPEC)
        worker = Worker(client)
        hook(lambda task: worker.request_stop())
        tally = worker.run()
        assert tally == {"worker_id": worker.worker_id,
                         "chunks_committed": 1, "chunks_abandoned": 0,
                         "chunks_failed": 0, "stopped": True}
        assert_no_lease_left(server.broker, committed=1)
        assert server.broker.status()["counters"][
            "serve.chunks_leased"] == 1

    def test_request_stop_releases_the_held_lease(self, server, clients):
        client = clients()
        client.submit(SPEC)
        worker = Worker(client)
        assert worker.run_one() is True  # commits and holds the next
        assert server.broker.status()["leases_active"] == 1
        worker.request_stop()
        assert worker.run()["stopped"] is True
        assert_no_lease_left(server.broker, committed=1)
        assert client.count("release") == 1

    def test_worker_shutdown_releases_the_held_lease(self, server,
                                                     clients):
        class Interrupted(Worker):
            # SIGTERM landing between chunks, while a lease is held.
            def _next_lease(self):
                if self._held is not None:
                    raise WorkerShutdown("SIGTERM")
                return super()._next_lease()

        client = clients()
        client.submit(SPEC)
        tally = Interrupted(client).run()
        assert tally["stopped"] is True
        assert tally["chunks_committed"] == 1
        assert_no_lease_left(server.broker, committed=1)

    def test_worker_shutdown_mid_held_chunk_releases_it(self, server,
                                                        clients, hook):
        client = clients()
        client.submit(SPEC)
        worker = Worker(client)
        assert worker.run_one() is True

        def shutdown(task):
            raise WorkerShutdown("SIGTERM")

        hook(shutdown)
        assert worker.run()["stopped"] is True
        assert_no_lease_left(server.broker, committed=1)

    def test_draining_broker_stops_the_worker(self, server, clients,
                                              hook):
        client = clients()
        client.submit(SPEC)
        hook(lambda task: server.broker.begin_shutdown())
        tally = Worker(client, poll_interval_s=0.01).run()
        # The chunk in flight commits; the drain grants nothing after.
        assert tally["stopped"] is True
        assert tally["chunks_committed"] == 1
        assert_no_lease_left(server.broker, committed=1)

    def test_close_is_idempotent_and_releases(self, server, clients):
        client = clients()
        client.submit(SPEC)
        worker = Worker(client)
        assert worker.run_one() is True
        worker.close()
        worker.close()
        assert client.count("release") == 1
        assert_no_lease_left(server.broker, committed=1)
