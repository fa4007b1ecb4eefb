"""Broker planning, lease lifecycle, and at-most-once commit.

Everything here drives the broker directly (no HTTP) with a fake clock,
so lease expiry and recovery are deterministic and instant.
"""

import pytest

from repro.runs import RunDriver
from repro.serve.broker import (Broker, BrokerError, CommitConflictError,
                                JobSpec, UnknownJobError)
from repro.sim import SweepEngine, sweep_grid
from repro.sim.engine import chunk_spans


class FakeClock:
    def __init__(self, now=0.0):
        self.now = float(now)

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += float(seconds)


GRID = sweep_grid([2.0, 4.0, 6.0])
SPEC = {"points": [{"ebn0_db": point.ebn0_db} for point in GRID],
        "num_packets": 8, "chunk_packets": 4, "seed": 7,
        "payload_bits_per_packet": 16}


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def broker(tmp_path, clock):
    broker = Broker(tmp_path / "store", lease_timeout_s=10.0,
                    max_attempts=3, clock=clock)
    yield broker
    broker.close()


def drain(broker, worker_id, simulate):
    """Lease-simulate-commit until the queue is empty."""
    while True:
        response = broker.lease(worker_id)
        if response["task"] is None:
            return response["outstanding"]
        task = response["task"]
        measurement = simulate(task)
        broker.commit(response["lease_id"], task["task_id"],
                      measurement.to_dict())


def make_simulator():
    worker_engine = SweepEngine(seed=7)

    def simulate(task):
        point = GRID[[p.ebn0_db for p in GRID].index(
            task["point"]["ebn0_db"])]
        [measurement] = worker_engine.measure_points(
            [(point, task["num_packets"], task["packet_offset"])],
            payload_bits_per_packet=task["payload_bits_per_packet"],
            chunk_packets=task["num_packets"])
        return measurement

    return simulate


class TestPlanning:
    def test_submit_plans_chunk_spans(self, broker):
        job = broker.submit(SPEC)
        # 3 points x (8 packets / 4 per chunk) = 6 chunks.
        assert job["state"] == "running"
        assert job["chunks_total"] == 6
        assert job["points_cached_at_submit"] == 0
        spans = chunk_spans(8, 4)
        assert spans == ((0, 4), (4, 4))

    def test_bad_specs_rejected(self, broker):
        with pytest.raises(BrokerError, match="points"):
            broker.submit({"points": []})
        with pytest.raises(BrokerError, match="num_packets"):
            broker.submit({**SPEC, "num_packets": 0})
        with pytest.raises(BrokerError, match="generation"):
            broker.submit({**SPEC, "generation": "gen9"})
        with pytest.raises(BrokerError, match="backend"):
            broker.submit({**SPEC, "backend": "quantum"})
        with pytest.raises(BrokerError, match="seed"):
            broker.submit({**SPEC, "seed": -1})
        # A truncated or bool adc_bits would measure and cache a point
        # nobody asked for.
        for adc_bits in (2.7, True):
            with pytest.raises(BrokerError, match="adc_bits"):
                broker.submit({**SPEC, "points": [
                    {"ebn0_db": 4.0, "adc_bits": adc_bits}]})
        with pytest.raises(BrokerError, match="adc_bits"):
            broker.submit({**SPEC, "points": [
                {"ebn0_db": 4.0, "adc_bits": 0}]})
        with pytest.raises(BrokerError, match="unknown scenario 'nope'"):
            broker.submit({**SPEC, "points": [
                {"ebn0_db": 4.0, "scenario": "nope"}]})
        assert broker.job_ids() == ()
        # Whole-valued floats are integers, as for the spec's counts.
        broker.submit({**SPEC, "points": [
            {"ebn0_db": 4.0, "adc_bits": 4.0}]})
        assert broker.lease(broker.register_worker("w")["worker_id"])[
            "task"]["point"]["adc_bits"] == 4

    def test_overlapping_jobs_share_tasks(self, broker):
        first = broker.submit(SPEC)
        second = broker.submit(SPEC)
        assert second["chunks_total"] == first["chunks_total"]
        assert second["chunks_shared"] == first["chunks_total"]
        status = broker.status()
        # Shared, not duplicated: the task table holds 6 tasks, not 12.
        assert sum(status["tasks"].values()) == 6

    def test_shared_commit_advances_every_job(self, broker):
        broker.submit(SPEC)
        broker.submit(SPEC)
        worker = broker.register_worker("w")["worker_id"]
        drain(broker, worker, make_simulator())
        for job_id in broker.job_ids():
            assert broker.job_status(job_id)["state"] == "done"

    def test_fully_cached_submit_is_done_immediately(self, broker):
        worker = broker.register_worker("w")["worker_id"]
        broker.submit(SPEC)
        drain(broker, worker, make_simulator())
        resubmitted = broker.submit(SPEC)
        assert resubmitted["state"] == "done"
        assert resubmitted["points_cached_at_submit"] == len(GRID)
        assert resubmitted["chunks_total"] == 0

    def test_unknown_job_raises(self, broker):
        with pytest.raises(UnknownJobError):
            broker.job_status("job-9999")


class TestLeaseLifecycle:
    def test_lease_requires_registration(self, broker):
        broker.submit(SPEC)
        with pytest.raises(BrokerError, match="register"):
            broker.lease("worker-0042")

    def test_expired_lease_requeues_chunk(self, broker, clock):
        broker.submit(SPEC)
        worker = broker.register_worker("w")["worker_id"]
        response = broker.lease(worker)
        task_id = response["task"]["task_id"]
        clock.advance(10.5)  # the worker died; lease lapses
        # The chunk comes back out of the queue with a bumped attempt.
        seen = []
        while True:
            again = broker.lease(worker)
            assert again["task"] is not None
            seen.append(again["task"]["task_id"])
            if again["task"]["task_id"] == task_id:
                assert again["attempt"] == 2
                break
        status = broker.status()
        assert status["counters"]["serve.leases_expired"] == 1

    def test_heartbeat_keeps_lease_alive(self, broker, clock):
        broker.submit(SPEC)
        worker = broker.register_worker("w")["worker_id"]
        response = broker.lease(worker)
        for _ in range(5):
            clock.advance(8.0)
            broker.heartbeat(response["lease_id"])
        # 40s elapsed against a 10s timeout, still committable.
        simulate = make_simulator()
        task = response["task"]
        outcome = broker.commit(response["lease_id"], task["task_id"],
                                simulate(task).to_dict())
        assert outcome == {"ok": True, "duplicate": False, "stale": False}

    def test_worker_fail_requeues_immediately(self, broker):
        broker.submit(SPEC)
        worker = broker.register_worker("w")["worker_id"]
        response = broker.lease(worker)
        task_id = response["task"]["task_id"]
        broker.fail(response["lease_id"], task_id, "induced")
        # No clock advance needed: the chunk is pending again now.
        seen = set()
        while True:
            again = broker.lease(worker)
            seen.add(again["task"]["task_id"])
            if task_id in seen:
                break

    def test_attempts_cap_fails_task_and_job(self, broker, clock):
        # A single-chunk job so the same task is re-leased every time.
        job = broker.submit({"points": [{"ebn0_db": 2.0}],
                             "num_packets": 4, "seed": 7,
                             "payload_bits_per_packet": 16})
        assert job["chunks_total"] == 1
        worker = broker.register_worker("w")["worker_id"]
        for attempt in (1, 2, 3):  # max_attempts=3
            response = broker.lease(worker)
            assert response["attempt"] == attempt
            clock.advance(10.5)
        response = broker.lease(worker)  # reaps attempt 3 -> failed
        assert response["task"] is None
        status = broker.job_status(job["job_id"])
        assert status["state"] == "failed"
        assert "after 3 attempt" in status["error"]


class TestAtMostOnceCommit:
    def test_stale_identical_commit_is_duplicate_noop(self, broker, clock):
        broker.submit(SPEC)
        worker = broker.register_worker("w")["worker_id"]
        simulate = make_simulator()
        slow = broker.lease(worker)
        slow_task = slow["task"]
        slow_measurement = simulate(slow_task)
        clock.advance(10.5)  # slow worker's lease lapses
        # A second worker re-runs the same chunk and commits first.
        fast = broker.register_worker("fast")["worker_id"]
        while True:
            response = broker.lease(fast)
            task = response["task"]
            broker.commit(response["lease_id"], task["task_id"],
                          simulate(task).to_dict())
            if task["task_id"] == slow_task["task_id"]:
                break
        # The slow worker's late commit: stale lease, identical counts —
        # ingested as a duplicate, never double-counted.
        outcome = broker.commit(slow["lease_id"], slow_task["task_id"],
                                slow_measurement.to_dict())
        assert outcome["duplicate"] is True
        assert outcome["stale"] is True
        totals = broker.status()["counters"]
        assert totals["serve.commit_duplicates"] == 1
        assert totals["serve.commits_stale"] == 1

    def test_conflicting_commit_rejected(self, broker, clock):
        broker.submit(SPEC)
        worker = broker.register_worker("w")["worker_id"]
        simulate = make_simulator()
        response = broker.lease(worker)
        task = response["task"]
        good = simulate(task)
        broker.commit(response["lease_id"], task["task_id"],
                      good.to_dict())
        # A stale re-commit with different counts (a worker that is not
        # bit-reproducing) must be rejected, not merged.
        clock.advance(0.0)
        bad = dict(good.to_dict())
        bad["bit_errors"] = good.bit_errors + 1
        with pytest.raises(CommitConflictError, match="not bit-reproducing"):
            broker.commit("lease-999999", task["task_id"], bad)
        assert broker.status()["counters"]["serve.commit_conflicts"] == 1

    def test_double_count_never_reaches_curve(self, broker, clock):
        # Even after a stale duplicate commit, the assembled curve holds
        # each packet exactly once.
        broker.submit(SPEC)
        worker = broker.register_worker("w")["worker_id"]
        simulate = make_simulator()
        first = broker.lease(worker)
        first_measurement = simulate(first["task"])
        clock.advance(10.5)
        drain(broker, worker, simulate)
        broker.commit(first["lease_id"], first["task"]["task_id"],
                      first_measurement.to_dict())
        payload = broker.curve(broker.job_ids()[0])
        for entry in payload["points"]:
            assert entry["measurement"]["packets_sent"] == 8


class TestCurveParity:
    def test_fleet_curve_bit_identical_to_local_driver(self, broker,
                                                       tmp_path):
        job = broker.submit(SPEC)
        worker = broker.register_worker("w")["worker_id"]
        drain(broker, worker, make_simulator())
        payload = broker.curve(job["job_id"])
        assert payload["complete"] is True

        local = RunDriver.create(tmp_path / "local",
                                 SweepEngine(seed=7, chunk_packets=4),
                                 GRID, num_packets=8,
                                 payload_bits_per_packet=16)
        local.run_shard(0)
        reference = local.merge()
        remote = [entry["measurement"] for entry in payload["points"]]
        assert remote == [m.to_dict() for _, m in reference.entries]

    def test_partial_curve_streams_in_grid_order(self, broker):
        job = broker.submit(SPEC)
        worker = broker.register_worker("w")["worker_id"]
        simulate = make_simulator()
        # Commit both chunks of one point only.
        committed_points = set()
        while len(committed_points) == 0:
            response = broker.lease(worker)
            task = response["task"]
            broker.commit(response["lease_id"], task["task_id"],
                          simulate(task).to_dict())
            payload = broker.curve(job["job_id"])
            committed_points = {entry["point"]["ebn0_db"]
                                for entry in payload["points"]}
        payload = broker.curve(job["job_id"])
        assert payload["state"] == "running"
        assert 0 < payload["points_measured"] < len(GRID)
        ordering = [entry["point"]["ebn0_db"] for entry in payload["points"]]
        assert ordering == sorted(ordering)

    def test_curve_long_poll_times_out_cleanly(self, broker):
        job = broker.submit(SPEC)
        payload = broker.curve(job["job_id"], wait_version=0,
                               timeout_s=0.05)
        assert payload["state"] == "running"
        assert payload["points_measured"] == 0


class TestStatus:
    def test_status_shape(self, broker):
        broker.submit(SPEC)
        worker = broker.register_worker("w")["worker_id"]
        drain(broker, worker, make_simulator())
        status = broker.status()
        assert status["jobs"] == {"running": 0, "done": 1, "failed": 0}
        assert status["tasks"]["done"] == 6
        assert status["leases_active"] == 0
        awgn = status["scenarios"]["awgn"]
        assert awgn["chunks_done"] == awgn["chunks_total"] == 6
        assert awgn["packets_done"] == 24
        assert status["throughput"]["chunks_committed"] == 6
        assert status["cache"]["lookup_misses"] >= 3

    def test_metrics_exposition(self, broker):
        broker.submit(SPEC)
        text = broker.render_metrics()
        assert "serve_jobs_submitted" in text


class TestCommitCarriesNextLease:
    """``commit(..., next_lease=True)``: one request commits a chunk and
    leases the committing worker its next one."""

    def test_commit_without_flag_replies_as_before(self, broker):
        broker.submit(SPEC)
        worker = broker.register_worker("w")["worker_id"]
        response = broker.lease(worker)
        task = response["task"]
        outcome = broker.commit(response["lease_id"], task["task_id"],
                                make_simulator()(task).to_dict())
        assert outcome == {"ok": True, "duplicate": False, "stale": False}

    def test_next_is_the_lease_reply_journaled_after_the_commit(
            self, tmp_path, clock):
        broker = Broker(tmp_path / "store", lease_timeout_s=10.0,
                        clock=clock, state_dir=tmp_path / "state")
        try:
            job = broker.submit(SPEC)
            worker = broker.register_worker("w")["worker_id"]
            simulate = make_simulator()
            response = broker.lease(worker)
            granted = [response["task"]["task_id"]]
            while True:
                task = response["task"]
                outcome = broker.commit(response["lease_id"],
                                        task["task_id"],
                                        simulate(task).to_dict(),
                                        next_lease=True)
                response = outcome["next"]
                if response["task"] is None:
                    break
                assert response["attempt"] == 1
                assert response["lease_timeout_s"] == 10.0
                granted.append(response["task"]["task_id"])
            assert response == {"task": None, "outstanding": 0}
            assert broker.job_status(job["job_id"])["state"] == "done"
            records, _ = broker._journal.read()
        finally:
            broker.close()
        # Grants follow planning order, and each carried grant is
        # journaled after the commit that asked for it.
        kinds = [(record["kind"], record.get("task_id"))
                 for record in records]
        expected = [("job", None), ("grant", granted[0])]
        for done, following in zip(granted, granted[1:]):
            expected += [("commit", done), ("grant", following)]
        expected.append(("commit", granted[-1]))
        assert kinds == expected
        assert len(set(granted)) == 6

    def test_stale_commit_gets_no_next(self, broker, clock):
        broker.submit(SPEC)
        worker = broker.register_worker("w")["worker_id"]
        response = broker.lease(worker)
        task = response["task"]
        clock.advance(10.5)  # the lease lapses and is reaped
        outcome = broker.commit(response["lease_id"], task["task_id"],
                                make_simulator()(task).to_dict(),
                                next_lease=True)
        assert outcome == {"ok": True, "duplicate": False, "stale": True}
        assert broker.status()["leases_active"] == 0

    def test_draining_broker_carries_no_task(self, broker):
        broker.submit(SPEC)
        worker = broker.register_worker("w")["worker_id"]
        response = broker.lease(worker)
        task = response["task"]
        broker.begin_shutdown()
        outcome = broker.commit(response["lease_id"], task["task_id"],
                                make_simulator()(task).to_dict(),
                                next_lease=True)
        assert outcome["next"] == {"task": None, "outstanding": 5,
                                   "draining": True}
        assert broker.status()["leases_active"] == 0


class TestGrantOrder:
    def test_grants_are_fifo_and_returns_go_to_the_back(self, broker):
        job = broker.submit(SPEC)
        worker = broker.register_worker("w")["worker_id"]
        first = broker.lease(worker)
        broker.release(first["lease_id"], first["task"]["task_id"])
        order = []
        while (response := broker.lease(worker))["task"] is not None:
            order.append(response["task"]["task_id"])
        planned = list(broker._jobs[job["job_id"]].task_ids)
        assert order == planned[1:] + planned[:1]


class TestConstruction:
    @pytest.mark.parametrize("kwargs, error", [
        ({"lease_timeout_s": float("nan")}, ValueError),
        ({"lease_timeout_s": float("inf")}, ValueError),
        ({"lease_timeout_s": 0.0}, ValueError),
        ({"max_attempts": 0}, ValueError),
        ({"max_attempts": 2.5}, TypeError),
        ({"max_attempts": True}, TypeError),
    ], ids=["timeout-nan", "timeout-inf", "timeout-zero", "attempts-zero",
            "attempts-fractional", "attempts-bool"])
    def test_bad_settings_rejected_before_the_store_opens(
            self, tmp_path, kwargs, error):
        with pytest.raises(error):
            Broker(tmp_path / "store", **kwargs)
        assert not (tmp_path / "store").exists()
