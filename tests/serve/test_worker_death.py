"""Worker-death recovery: SIGKILL a leased worker, the fleet heals.

A real forked worker process takes a lease over HTTP and is killed by a
:data:`repro.sim.engine._chunk_task_hook` mid-chunk — heartbeat thread
and all, exactly like a machine dying.  The lease must lapse, the chunk
must be re-leased to a healthy worker, and the finished curve must be
bit-identical to an unfaulted local :class:`RunDriver` run.
"""

import multiprocessing
import os
import signal
import time

import pytest

from repro.runs import RunDriver
from repro.serve.api import create_server
from repro.serve.broker import Broker
from repro.serve.worker import BrokerClient, Worker
from repro.sim import SweepEngine, sweep_grid

GRID = sweep_grid([2.0, 4.0])
SPEC = {"points": [{"ebn0_db": point.ebn0_db} for point in GRID],
        "num_packets": 6, "chunk_packets": 3, "seed": 11,
        "payload_bits_per_packet": 16}

LEASE_TIMEOUT_S = 0.5


def _doomed_worker(url):
    """Run one chunk, but SIGKILL ourselves the moment it starts."""
    import repro.sim.engine as engine_module

    def kill_hook(task):
        os.kill(os.getpid(), signal.SIGKILL)

    engine_module._chunk_task_hook = kill_hook
    Worker(url, name="doomed").run_one()


@pytest.fixture
def server(tmp_path):
    broker = Broker(tmp_path / "store",
                    lease_timeout_s=LEASE_TIMEOUT_S)
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


def test_killed_worker_lease_expires_and_chunk_reruns(server, client,
                                                      tmp_path):
    job = client.submit(SPEC)
    assert job["chunks_total"] == 4

    # A real separate process takes the first lease and dies mid-chunk
    # (heartbeat thread included — nothing keeps the lease alive).
    context = multiprocessing.get_context("fork")
    doomed = context.Process(target=_doomed_worker, args=(server.url,))
    doomed.start()
    doomed.join(timeout=30.0)
    assert doomed.exitcode == -signal.SIGKILL

    # The broker still counts the orphaned lease as outstanding work, so
    # a healthy exit-when-idle worker keeps polling until it lapses,
    # picks the chunk back up, and drains the queue.
    survivor = Worker(client, name="survivor", exit_when_idle=True,
                      poll_interval_s=0.05)
    tally = survivor.run()
    assert tally["chunks_committed"] == 4
    assert tally["chunks_failed"] == 0

    status = client.status()
    assert status["counters"]["serve.leases_expired"] >= 1
    assert status["counters"]["serve.chunks_leased"] >= 5  # 4 + retry
    assert status["tasks"] == {"pending": 0, "leased": 0,
                               "done": 4, "failed": 0}

    payload = client.wait_for_curve(job["job_id"])
    assert payload["complete"] is True

    # Bit-identical to a never-faulted local run of the same grid.
    local = RunDriver.create(tmp_path / "local",
                             SweepEngine(seed=11, chunk_packets=3),
                             GRID, num_packets=6,
                             payload_bits_per_packet=16)
    local.run_shard(0)
    reference = local.merge()
    remote = [entry["measurement"] for entry in payload["points"]]
    assert remote == [m.to_dict() for _, m in reference.entries]


def test_retried_chunk_commit_records_second_attempt(server, client):
    client.submit(SPEC)

    context = multiprocessing.get_context("fork")
    doomed = context.Process(target=_doomed_worker, args=(server.url,))
    doomed.start()
    doomed.join(timeout=30.0)
    assert doomed.exitcode == -signal.SIGKILL

    # Drain; the retried chunk must come back with attempt == 2.
    worker_id = client.register("inspector")["worker_id"]
    attempts = []
    engine = SweepEngine(seed=11)
    while True:
        response = client.lease(worker_id)
        task = response.get("task")
        if task is None:
            if response["outstanding"] == 0:
                break
            time.sleep(0.05)
            continue
        attempts.append(response["attempt"])
        point = GRID[[p.ebn0_db for p in GRID].index(
            task["point"]["ebn0_db"])]
        [measurement] = engine.measure_points(
            [(point, task["num_packets"], task["packet_offset"])],
            payload_bits_per_packet=task["payload_bits_per_packet"],
            chunk_packets=task["num_packets"])
        client.commit(response["lease_id"], task["task_id"],
                      measurement.to_dict())
    assert sorted(attempts) == [1, 1, 1, 2]
