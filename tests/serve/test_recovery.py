"""Broker crash recovery: the journal replays into the live queue.

Two layers.  The unit layer drives :class:`Broker` directly with a fake
clock and a ``state_dir``, restarting it as a new instance over the same
journal + store and asserting the rebuilt queue: committed chunks
dropped, attempt counts preserved, job and lease id counters advanced,
graceful releases un-counted, replay idempotent.  The end-to-end layer
SIGKILLs a real broker *process* mid-job — one chunk still leased — and
restarts it over the same ``--state-dir``, then drains with two workers
and checks the fleet curve is bit-identical to an unfaulted local
:class:`RunDriver` run.
"""

import multiprocessing
import os
import signal
import threading

import pytest

from repro.runs import RunDriver
from repro.serve.api import create_server
from repro.serve.broker import Broker, BrokerDrainingError
from repro.serve.journal import (JOURNAL_NAME, JOURNAL_SCHEMA_VERSION,
                                 BrokerJournal)
from repro.serve.worker import BrokerClient, Worker
from repro.sim import SweepEngine, sweep_grid

from tests.serve.test_broker import (GRID, SPEC, FakeClock, drain,
                                     make_simulator)


def _serial(identifier: str) -> int:
    return int(identifier.rsplit("-", 1)[-1])


def make_broker(tmp_path, clock, **kwargs):
    kwargs.setdefault("lease_timeout_s", 10.0)
    kwargs.setdefault("max_attempts", 3)
    return Broker(tmp_path / "store", clock=clock,
                  state_dir=tmp_path / "state", **kwargs)


@pytest.fixture
def clock():
    return FakeClock()


class TestRecovery:
    def test_restart_restores_queued_job(self, tmp_path, clock):
        first = make_broker(tmp_path, clock)
        job = first.submit(SPEC)
        first.close()

        second = make_broker(tmp_path, clock)
        try:
            assert second.job_ids() == (job["job_id"],)
            status = second.job_status(job["job_id"])
            assert status["state"] == "running"
            assert status["chunks_total"] == job["chunks_total"] == 6
            totals = second.recorder.counter_totals()
            assert totals["serve.jobs_recovered"] == 1
        finally:
            second.close()

    def test_committed_chunks_drop_out_of_rebuilt_queue(self, tmp_path,
                                                        clock):
        first = make_broker(tmp_path, clock)
        job = first.submit(SPEC)
        worker = first.register_worker("w")["worker_id"]
        simulate = make_simulator()
        for _ in range(2):  # commit 2 of the 6 chunks, then "crash"
            response = first.lease(worker)
            task = response["task"]
            first.commit(response["lease_id"], task["task_id"],
                         simulate(task).to_dict())
        first.close()

        second = make_broker(tmp_path, clock)
        try:
            # Replay plans against the store's *current* coverage, the
            # same way a fresh submit treats cached work: the rebuilt
            # job holds only the 4 still-missing chunks, and the fully
            # committed point counts as cached.
            status = second.job_status(job["job_id"])
            assert status["chunks_total"] == 4
            assert status["points_cached_at_submit"] == 1
            assert second.status()["tasks"] == {
                "pending": 4, "leased": 0, "done": 0, "failed": 0}
            # The pre-crash commits are already visible in the curve.
            assert second.curve(job["job_id"])["points_measured"] == 1
            # Drain the remainder; nothing is re-simulated and the
            # finished curve matches a never-crashed local run.
            worker = second.register_worker("w2")["worker_id"]
            drain(second, worker, simulate)
            payload = second.curve(job["job_id"])
            assert payload["complete"] is True
            assert second.recorder.counter_totals()[
                "serve.chunks_committed"] == 4  # 6 total minus 2 pre-crash
        finally:
            second.close()

        local = RunDriver.create(tmp_path / "local",
                                 SweepEngine(seed=7, chunk_packets=4),
                                 GRID, num_packets=8,
                                 payload_bits_per_packet=16)
        local.run_shard(0)
        reference = local.merge()
        remote = [entry["measurement"] for entry in payload["points"]]
        assert remote == [m.to_dict() for _, m in reference.entries]

    def test_leased_task_requeues_with_attempt_preserved(self, tmp_path,
                                                         clock):
        first = make_broker(tmp_path, clock)
        first.submit(SPEC)
        worker = first.register_worker("w")["worker_id"]
        leased = first.lease(worker)["task"]["task_id"]
        first.close()  # crash with the lease outstanding

        second = make_broker(tmp_path, clock)
        try:
            totals = second.recorder.counter_totals()
            assert totals["serve.tasks_requeued"] == 1
            # The orphaned grant still counts: re-leasing that chunk is
            # attempt 2, exactly as if the lease had expired live.
            worker = second.register_worker("w")["worker_id"]
            attempts = {}
            for _ in range(6):
                response = second.lease(worker)
                attempts[response["task"]["task_id"]] = response["attempt"]
            assert attempts.pop(leased) == 2
            assert set(attempts.values()) == {1}
        finally:
            second.close()

    def test_graceful_release_uncounts_attempt_on_replay(self, tmp_path,
                                                         clock):
        first = make_broker(tmp_path, clock)
        first.submit(SPEC)
        worker = first.register_worker("w")["worker_id"]
        response = first.lease(worker)
        task_id = response["task"]["task_id"]
        first.release(response["lease_id"], task_id)
        first.close()

        second = make_broker(tmp_path, clock)
        try:
            # Nothing was outstanding at the crash, and the released
            # grant never counted: every chunk re-leases as attempt 1.
            totals = second.recorder.counter_totals()
            assert totals.get("serve.tasks_requeued", 0) == 0
            worker = second.register_worker("w")["worker_id"]
            for _ in range(6):
                assert second.lease(worker)["attempt"] == 1
        finally:
            second.close()

    def test_id_counters_advance_past_journal(self, tmp_path, clock):
        first = make_broker(tmp_path, clock)
        job_one = first.submit(SPEC)["job_id"]
        worker = first.register_worker("w")["worker_id"]
        lease_one = first.lease(worker)["lease_id"]
        lease_two = first.lease(worker)["lease_id"]
        first.close()

        second = make_broker(tmp_path, clock)
        try:
            # A resubmission must not collide with the recovered job id,
            # and a fresh lease must not collide with a stale pre-crash
            # one (whose worker may still try to commit against it).
            job_two = second.submit(SPEC)["job_id"]
            assert _serial(job_two) == _serial(job_one) + 1
            worker = second.register_worker("w")["worker_id"]
            fresh = second.lease(worker)["lease_id"]
            assert _serial(fresh) > max(_serial(lease_one),
                                        _serial(lease_two))
        finally:
            second.close()

    def test_replay_is_idempotent(self, tmp_path, clock):
        first = make_broker(tmp_path, clock)
        job = first.submit(SPEC)
        worker = first.register_worker("w")["worker_id"]
        response = first.lease(worker)
        simulate = make_simulator()
        task = response["task"]
        first.commit(response["lease_id"], task["task_id"],
                     simulate(task).to_dict())
        first.lease(worker)  # leave one lease outstanding
        first.close()

        def snapshot(broker):
            return (broker.job_ids(), broker.job_status(job["job_id"]),
                    broker.status()["tasks"])

        second = make_broker(tmp_path, clock)
        state_two = snapshot(second)
        second.close()
        third = make_broker(tmp_path, clock)
        state_three = snapshot(third)
        third.close()
        assert state_two == state_three

    def test_old_journal_commit_records_replay_to_the_same_state(
            self, tmp_path, clock):
        # Older versions journaled a ``commit`` record after each store
        # ingest.  A journal carrying them must recover exactly like the
        # same history without them.
        first = make_broker(tmp_path, clock)
        job = first.submit(SPEC)
        worker = first.register_worker("w")["worker_id"]
        simulate = make_simulator()
        committed = []
        for _ in range(2):
            response = first.lease(worker)
            task = response["task"]
            first.commit(response["lease_id"], task["task_id"],
                         simulate(task).to_dict())
            committed.append(task["task_id"])
        first.lease(worker)  # leave one lease outstanding
        first.close()
        records, corrupt = BrokerJournal(
            tmp_path / "state" / JOURNAL_NAME).read()
        assert corrupt == 0
        assert "commit" not in [record["kind"] for record in records]
        old_records = []
        for record in records:
            old_records.append(record)
            if record["kind"] == "grant" and record["task_id"] in committed:
                old_records.append({"schema": JOURNAL_SCHEMA_VERSION,
                                    "kind": "commit",
                                    "task_id": record["task_id"]})
        BrokerJournal(tmp_path / "old" / JOURNAL_NAME).append(old_records)

        def recovered(state_dir):
            broker = Broker(tmp_path / "store", clock=clock,
                            lease_timeout_s=10.0, max_attempts=3,
                            state_dir=state_dir)
            try:
                totals = broker.recorder.counter_totals()
                next_worker = broker.register_worker("w2")["worker_id"]
                return (broker.job_ids(), broker.job_status(job["job_id"]),
                        broker.status()["tasks"],
                        totals["serve.tasks_requeued"],
                        broker.lease(next_worker))
            finally:
                broker.close()

        old = recovered(tmp_path / "old")
        assert old == recovered(tmp_path / "state")
        assert old[2] == {"pending": 4, "leased": 0, "done": 0, "failed": 0}
        assert old[3] == 1

    def test_terminal_failure_survives_restart(self, tmp_path, clock):
        first = make_broker(tmp_path, clock)
        job = first.submit({"points": [{"ebn0_db": 2.0}],
                            "num_packets": 4, "seed": 7,
                            "payload_bits_per_packet": 16})
        worker = first.register_worker("w")["worker_id"]
        for _ in range(3):  # max_attempts=3: expire every lease
            first.lease(worker)
            clock.advance(10.5)
        assert first.lease(worker)["task"] is None  # reap -> failed
        assert first.job_status(job["job_id"])["state"] == "failed"
        first.close()

        second = make_broker(tmp_path, clock)
        try:
            status = second.job_status(job["job_id"])
            assert status["state"] == "failed"
            assert second.status()["tasks"]["failed"] == 1
            # The failed chunk must not be re-leasable.
            worker = second.register_worker("w")["worker_id"]
            assert second.lease(worker)["task"] is None
        finally:
            second.close()

    def test_corrupt_journal_tail_is_survivable(self, tmp_path, clock):
        first = make_broker(tmp_path, clock)
        job = first.submit(SPEC)
        first.close()
        with open(tmp_path / "state" / "journal.jsonl", "a") as handle:
            handle.write('{"schema": 1, "kind": "gra')  # torn mid-append

        second = make_broker(tmp_path, clock)
        try:
            totals = second.recorder.counter_totals()
            assert totals["serve.journal_corrupt_lines"] == 1
            assert second.job_status(job["job_id"])["state"] == "running"
        finally:
            second.close()

    def test_unparseable_job_record_skipped_not_fatal(self, tmp_path,
                                                     clock):
        first = make_broker(tmp_path, clock)
        good = first.submit(SPEC)
        first.close()
        # A journal written by a newer/older code version may hold specs
        # this version rejects; the broker must come up regardless.
        from repro.serve.journal import BrokerJournal
        journal = BrokerJournal(tmp_path / "state" / "journal.jsonl")
        journal.record("job", job_id="job-0099",
                       spec={"points": [{"ebn0_db": 2.0}],
                             "generation": "gen9"})

        second = make_broker(tmp_path, clock)
        try:
            assert second.job_ids() == (good["job_id"],)
            totals = second.recorder.counter_totals()
            assert totals["serve.jobs_recovered"] == 1
            assert totals["serve.jobs_recovery_skipped"] == 1
        finally:
            second.close()


class TestDraining:
    def test_draining_blocks_submissions_and_leases(self, tmp_path, clock):
        broker = make_broker(tmp_path, clock)
        try:
            broker.submit(SPEC)
            worker = broker.register_worker("w")["worker_id"]
            broker.begin_shutdown()
            assert broker.draining is True
            with pytest.raises(BrokerDrainingError, match="draining"):
                broker.submit(SPEC)
            response = broker.lease(worker)
            assert response["task"] is None
            assert response["draining"] is True
        finally:
            broker.close()

    def test_draining_wakes_long_pollers(self, tmp_path, clock):
        broker = make_broker(tmp_path, clock)
        try:
            job = broker.submit(SPEC)
            results = []

            def poll():
                results.append(broker.curve(job["job_id"], wait_version=0,
                                            timeout_s=30.0))

            thread = threading.Thread(target=poll)
            thread.start()
            broker.begin_shutdown()
            thread.join(timeout=5.0)
            assert not thread.is_alive()
            assert results and results[0]["state"] == "running"
        finally:
            broker.close()

    def test_restart_after_drain_resumes_queue(self, tmp_path, clock):
        first = make_broker(tmp_path, clock)
        job = first.submit(SPEC)
        first.begin_shutdown()
        first.close()

        second = make_broker(tmp_path, clock)
        try:
            assert second.draining is False
            worker = second.register_worker("w")["worker_id"]
            drain(second, worker, make_simulator())
            assert second.job_status(job["job_id"])["state"] == "done"
        finally:
            second.close()


# ----------------------------------------------------------------------
# End to end: SIGKILL a real broker process, restart on the same state.
# ----------------------------------------------------------------------

E2E_GRID = sweep_grid([2.0, 4.0])
E2E_SPEC = {"points": [{"ebn0_db": point.ebn0_db} for point in E2E_GRID],
            "num_packets": 6, "chunk_packets": 3, "seed": 11,
            "payload_bits_per_packet": 16}


def _broker_process(store_dir, state_dir, conn):
    """Child: serve a durable broker and report the bound URL."""
    broker = Broker(store_dir, lease_timeout_s=5.0, state_dir=state_dir)
    server = create_server(broker)
    conn.send(server.url)
    conn.close()
    server.serve_forever()


def _simulate_e2e(task):
    engine = SweepEngine(seed=11)
    point = E2E_GRID[[p.ebn0_db for p in E2E_GRID].index(
        task["point"]["ebn0_db"])]
    [measurement] = engine.measure_points(
        [(point, task["num_packets"], task["packet_offset"])],
        payload_bits_per_packet=task["payload_bits_per_packet"],
        chunk_packets=task["num_packets"])
    return measurement


def test_sigkilled_broker_restarts_and_fleet_finishes(tmp_path):
    store_dir = tmp_path / "store"
    state_dir = tmp_path / "state"

    context = multiprocessing.get_context("fork")
    parent_conn, child_conn = context.Pipe()
    process = context.Process(target=_broker_process,
                              args=(store_dir, state_dir, child_conn))
    process.start()
    try:
        assert parent_conn.poll(timeout=30.0)
        url = parent_conn.recv()
        client = BrokerClient(url, timeout_s=10.0)
        job = client.submit(E2E_SPEC)
        assert job["chunks_total"] == 4

        # Commit 2 chunks, take (and never finish) a third lease, then
        # SIGKILL the broker mid-job — the worst crash point: work
        # committed, work queued, work leased, all at once.
        worker_id = client.register("pre-crash")["worker_id"]
        for _ in range(2):
            response = client.lease(worker_id)
            task = response["task"]
            client.commit(response["lease_id"], task["task_id"],
                          _simulate_e2e(task).to_dict())
        client.lease(worker_id)  # orphaned on purpose
        client.close()
    finally:
        os.kill(process.pid, signal.SIGKILL)
        process.join(timeout=10.0)
    assert process.exitcode == -signal.SIGKILL

    # Restart over the same state dir and store (in-process this time so
    # we can read the recovery counters directly).
    broker = Broker(store_dir, lease_timeout_s=5.0, state_dir=state_dir)
    server = create_server(broker)
    server.serve_in_thread()
    try:
        totals = broker.recorder.counter_totals()
        assert totals["serve.jobs_recovered"] == 1
        assert totals["serve.tasks_requeued"] == 1

        # The resubmitted job id resolves over HTTP with its pre-crash
        # progress intact.
        client = BrokerClient(server.url, timeout_s=10.0)
        status = client.job_status(job["job_id"])
        assert status["state"] == "running"
        # Replanned against the store: only the 2 missing chunks remain
        # (the fully committed point shows up as cached) and the curve
        # already serves the pre-crash point.
        assert status["chunks_total"] == 2
        assert status["points_cached_at_submit"] == 1
        assert client.curve(job["job_id"])["points_measured"] == 1

        # Two fresh workers drain the remainder.
        workers = [Worker(server.url, name=f"post-crash-{index}",
                          exit_when_idle=True, poll_interval_s=0.05)
                   for index in range(2)]
        threads = [threading.Thread(target=worker.run)
                   for worker in workers]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not any(thread.is_alive() for thread in threads)

        payload = client.wait_for_curve(job["job_id"])
        assert payload["complete"] is True
        assert broker.status()["tasks"] == {"pending": 0, "leased": 0,
                                            "done": 2, "failed": 0}
        client.close()
    finally:
        server.shutdown()
        server.server_close()
        broker.close()

    # Bit-identical to a never-crashed local run of the same grid.
    local = RunDriver.create(tmp_path / "local",
                             SweepEngine(seed=11, chunk_packets=3),
                             E2E_GRID, num_packets=6,
                             payload_bits_per_packet=16)
    local.run_shard(0)
    reference = local.merge()
    remote = [entry["measurement"] for entry in payload["points"]]
    assert remote == [m.to_dict() for _, m in reference.entries]
