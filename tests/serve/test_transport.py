"""Keep-alive transport and the per-worker heartbeat thread, over HTTP.

Each client thread keeps one HTTP/1.1 connection to the broker; a
connection the broker dropped while idle is reopened without counting a
transport retry; and small requests on a kept-alive socket never stall
on delayed ACKs.  One heartbeat thread per worker renews each lease in
turn, and a lease the broker drops mid-chunk is abandoned, not
committed.
"""

import socket
import threading
import time

import pytest

import repro.sim.engine as engine_module
from repro.serve.api import create_server
from repro.serve.broker import Broker
from repro.serve.worker import BrokerClient, Worker

from tests.serve.test_broker import SPEC

#: Two chunks of one point: two consecutive leases.
TWO_CHUNKS = {"points": [{"ebn0_db": 4.0}], "num_packets": 8,
              "chunk_packets": 4, "seed": 7, "payload_bits_per_packet": 16}


def start_server(tmp_path, port=0, lease_timeout_s=30.0):
    broker = Broker(tmp_path / "store", lease_timeout_s=lease_timeout_s)
    server = create_server(broker, port=port)
    server.serve_in_thread()
    return server


def stop_server(server):
    server.shutdown()
    server.server_close()
    server.broker.close()


def count_connections(server):
    """Wrap ``process_request`` to count accepted connections."""
    accepted = []
    original = server.process_request

    def counting(request, client_address):
        accepted.append(client_address)
        original(request, client_address)

    server.process_request = counting
    return accepted


@pytest.fixture
def server(tmp_path):
    server = start_server(tmp_path)
    yield server
    stop_server(server)


@pytest.fixture
def clients():
    """Make broker clients; closed when the test ends."""
    made = []

    def make(url, **kwargs):
        made.append(BrokerClient(url, timeout_s=10.0, **kwargs))
        return made[-1]

    yield make
    for client in made:
        client.close()


@pytest.fixture
def hook():
    def install(function):
        engine_module._chunk_task_hook = function
    yield install
    engine_module._chunk_task_hook = None


class TestKeepAlive:
    def test_drain_uses_one_connection_per_client_thread(self, server,
                                                         clients):
        accepted = count_connections(server)
        client = clients(server.url)
        client.submit(SPEC)
        tally = Worker(client, exit_when_idle=True).run()
        client.status()
        assert tally["chunks_committed"] == 6
        # Registration, leases, commits, status: all on one socket (the
        # 30 s lease timeout never lets the heartbeat thread send).
        assert len(accepted) == 1

    def test_threads_do_not_share_a_connection(self, server, clients):
        accepted = count_connections(server)
        client = clients(server.url)
        threads = [threading.Thread(target=client.status)
                   for _ in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10.0)
        assert not any(thread.is_alive() for thread in threads)
        assert len(accepted) == 3

    def test_reconnects_to_a_restarted_broker_without_a_retry(
            self, tmp_path, clients):
        first = start_server(tmp_path / "first")
        client = clients(first.url, max_attempts=1)
        assert client.status()["jobs"]["running"] == 0
        port = first.server_address[1]
        stop_server(first)
        second = start_server(tmp_path / "second", port=port)
        try:
            second.broker.submit(SPEC)
            # The kept-alive socket died with the first server; the
            # request goes out again on a fresh one to the second.
            assert client.status()["jobs"]["running"] == 1
            assert client.transport_retries == 0
        finally:
            stop_server(second)

    def test_sequential_requests_do_not_stall(self, server, clients):
        # 20 requests stalled by 40 ms delayed ACKs would take >= 0.8 s.
        client = clients(server.url)
        worker_id = client.register("probe")["worker_id"]
        client.status()
        start = time.perf_counter()
        for _ in range(20):
            client.lease(worker_id)
        assert time.perf_counter() - start < 0.4


    def test_oversized_body_closes_the_connection(self, server):
        # The unread body must not be parsed as a second request on the
        # kept-alive socket.
        smuggled = b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
        with socket.create_connection(server.server_address[:2],
                                      timeout=10.0) as sock:
            sock.sendall(b"POST /api/v1/jobs HTTP/1.1\r\nHost: x\r\n"
                         b"Content-Length: 999999999\r\n\r\n" + smuggled)
            replies = b""
            try:
                while chunk := sock.recv(65536):
                    replies += chunk
            except ConnectionResetError:
                pass  # closed with the body unread: a reset, not a FIN
        assert replies.startswith(b"HTTP/1.1 413 ")
        assert replies.count(b"HTTP/1.1 ") == 1


class TestHeartbeat:
    def test_one_thread_keeps_consecutive_leases_alive(self, tmp_path,
                                                       clients, hook):
        server = start_server(tmp_path, lease_timeout_s=0.3)
        try:
            accepted = count_connections(server)
            client = clients(server.url)
            client.submit(TWO_CHUNKS)
            worker = Worker(client, exit_when_idle=True,
                            poll_interval_s=0.01)
            threads = []

            def slow_chunk(task):
                threads.append(worker._heartbeat._thread)
                time.sleep(0.5)  # well past the 0.3 s lease timeout

            hook(slow_chunk)
            tally = worker.run()
            totals = client.status()["counters"]
        finally:
            stop_server(server)
        assert tally["chunks_committed"] == 2
        assert tally["chunks_abandoned"] == 0
        assert len(threads) == 2 and threads[0] is threads[1]
        assert not threads[0].is_alive()  # run() closed it
        assert totals["serve.heartbeats"] >= 4
        assert totals.get("serve.leases_expired", 0) == 0
        assert totals.get("serve.commits_stale", 0) == 0
        # The worker's thread and its heartbeat thread: one socket each.
        assert len(accepted) == 2

    def test_lease_dropped_mid_chunk_is_abandoned(self, tmp_path, clients,
                                                  hook):
        server = start_server(tmp_path, lease_timeout_s=0.3)
        try:
            client = clients(server.url)
            client.submit(TWO_CHUNKS)
            worker = Worker(client)

            def dropped(task):
                # The broker gives the chunk back to the queue while
                # the worker still simulates it.
                lease_id, task_id = worker._inflight
                server.broker.release(lease_id, task_id)
                time.sleep(0.4)  # long enough for a heartbeat verdict

            hook(dropped)
            assert worker.run_one() is True
            worker.close()
            totals = client.status()["counters"]
        finally:
            stop_server(server)
        assert worker.chunks_abandoned == 1
        assert worker.chunks_committed == 0
        assert totals.get("serve.chunks_committed", 0) == 0
