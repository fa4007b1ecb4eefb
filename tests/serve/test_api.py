"""The HTTP surface: end-to-end over a real socket, in one process.

The server binds port 0 on localhost and runs on a daemon thread; the
client is the same :class:`BrokerClient` / :class:`Worker` pair that
``python -m repro worker`` uses in production.
"""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.runs import RunDriver
from repro.serve.api import create_server
from repro.serve.broker import Broker
from repro.serve.worker import BrokerClient, BrokerRequestError, Worker
from repro.sim import SweepEngine, sweep_grid

GRID = sweep_grid([2.0, 4.0, 6.0])
SPEC = {"points": [{"ebn0_db": point.ebn0_db} for point in GRID],
        "num_packets": 8, "chunk_packets": 4, "seed": 7,
        "payload_bits_per_packet": 16}


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


class TestEndToEnd:
    def test_submit_work_curve_matches_local_driver(self, server, client,
                                                    tmp_path):
        job = client.submit(SPEC)
        assert job["state"] == "running"
        assert job["chunks_total"] == 6

        tally = Worker(client, name="t1", exit_when_idle=True,
                       poll_interval_s=0.01).run()
        assert tally["chunks_committed"] == 6
        assert tally["chunks_failed"] == 0

        payload = client.wait_for_curve(job["job_id"])
        assert payload["complete"] is True

        local = RunDriver.create(tmp_path / "local",
                                 SweepEngine(seed=7, chunk_packets=4),
                                 GRID, num_packets=8,
                                 payload_bits_per_packet=16)
        local.run_shard(0)
        reference = local.merge()
        remote = [entry["measurement"] for entry in payload["points"]]
        assert remote == [m.to_dict() for _, m in reference.entries]

    def test_two_workers_split_the_queue(self, server, client):
        job = client.submit(SPEC)
        workers = [Worker(client, name=f"w{i}", exit_when_idle=True,
                          poll_interval_s=0.01) for i in range(2)]
        threads = [threading.Thread(target=worker.run)
                   for worker in workers]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        committed = sum(worker.chunks_committed for worker in workers)
        assert committed == 6
        assert client.job_status(job["job_id"])["state"] == "done"

    def test_resubmit_hits_cache(self, server, client):
        job = client.submit(SPEC)
        Worker(client, exit_when_idle=True, poll_interval_s=0.01).run()
        client.wait_for_curve(job["job_id"])
        again = client.submit(SPEC)
        assert again["state"] == "done"
        assert again["points_cached_at_submit"] == len(GRID)

    def test_status_and_metrics(self, server, client):
        client.submit(SPEC)
        Worker(client, name="metrics-worker", exit_when_idle=True,
               poll_interval_s=0.01).run()
        status = client.status()
        assert status["jobs"]["done"] == 1
        assert status["tasks"]["done"] == 6
        assert status["throughput"]["chunks_committed"] == 6
        assert [info["name"] for info in status["workers"]] \
            == ["metrics-worker"]
        with urllib.request.urlopen(server.url + "/metrics") as response:
            assert response.headers["Content-Type"].startswith("text/plain")
            text = response.read().decode("utf-8")
        assert "repro_serve_chunks_committed_total 6" in text

    def test_healthz(self, server):
        with urllib.request.urlopen(server.url + "/healthz") as response:
            assert json.loads(response.read()) == {"ok": True}


class TestErrorMapping:
    def _status_of(self, call):
        with pytest.raises(BrokerRequestError) as excinfo:
            call()
        return excinfo.value

    def test_unknown_job_is_404(self, client):
        error = self._status_of(lambda: client.job_status("job-9999"))
        assert error.status == 404
        assert error.kind == "unknown_job"

    def test_bad_spec_is_400(self, client):
        error = self._status_of(lambda: client.submit({"points": []}))
        assert error.status == 400

    @pytest.mark.parametrize("field, value", [
        ("quantize", "false"),
        ("quantize", 0),
        ("quantize", None),
        ("num_packets", 2.9),
        ("num_packets", True),
        ("num_packets", "8"),
        ("payload_bits_per_packet", 16.5),
        ("payload_bits_per_packet", False),
        ("chunk_packets", 4.5),
        ("chunk_packets", True),
        ("seed", 7.25),
        ("seed", True),
        ("seed", -1),
        ("array_backend", "cupy"),
        ("array_backend", 1),
    ])
    def test_mistyped_spec_field_is_400(self, client, field, value):
        error = self._status_of(lambda: client.submit({**SPEC,
                                                       field: value}))
        assert error.status == 400
        assert field in str(error)

    @pytest.mark.parametrize("field, value", [
        ("adc_bits", 2.7),
        ("adc_bits", True),
        ("adc_bits", 0),
        ("scenario", "nope"),
        ("modulation", "qam9"),
    ])
    def test_bad_grid_point_field_is_400(self, client, field, value):
        spec = {**SPEC, "points": [{"ebn0_db": 4.0, field: value}]}
        error = self._status_of(lambda: client.submit(spec))
        assert error.status == 400
        assert field in str(error)

    def test_nan_operating_point_is_400(self, client):
        # json.loads parses NaN; the point must not run as a noiseless link.
        spec = {**SPEC, "points": [{"ebn0_db": float("nan")}]}
        error = self._status_of(lambda: client.submit(spec))
        assert error.status == 400
        assert "NaN" in str(error)

    @pytest.mark.parametrize("ebn0_db", [float("inf"), float("-inf")])
    def test_infinite_operating_point_is_400(self, client, ebn0_db):
        # json.loads parses +-Infinity; -inf would simulate NaN decisions.
        spec = {**SPEC, "points": [{"ebn0_db": ebn0_db}]}
        error = self._status_of(lambda: client.submit(spec))
        assert error.status == 400
        assert "must be finite" in str(error)

    @pytest.mark.parametrize("extra", [
        {}, {"array_backend": None}, {"array_backend": "numpy"},
        {"num_packets": 8.0, "seed": 7.0}])
    def test_compatible_spec_fields_are_accepted(self, client, extra):
        # Older clients send the removed array_backend field (null or
        # "numpy"); whole-valued floats are integers.
        job = client.submit({**SPEC, **extra})
        assert job["chunks_total"] == 6
        assert client.job_status(job["job_id"])["state"] == "running"

    def test_unregistered_worker_is_400(self, client):
        error = self._status_of(lambda: client.lease("worker-9999"))
        assert error.status == 400

    def test_unknown_lease_is_409(self, client):
        error = self._status_of(lambda: client.heartbeat("lease-999999"))
        assert error.status == 409
        assert error.kind == "lease"

    def test_unknown_route_is_404(self, client):
        error = self._status_of(lambda: client.get("/api/v1/nope"))
        assert error.status == 404

    def test_malformed_body_is_400(self, server):
        request = urllib.request.Request(
            server.url + "/api/v1/jobs", data=b"not json",
            headers={"Content-Type": "application/json"}, method="POST")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 400

    def test_bad_query_param_is_400(self, client):
        job = client.submit(SPEC)
        error = self._status_of(lambda: client.get(
            f"/api/v1/jobs/{job['job_id']}/curve?wait_version=soon"))
        assert error.status == 400

    @pytest.mark.parametrize("query", [
        "wait_version=-1",
        "wait_version=0&timeout=-3",
        "wait_version=0&timeout=nan",
        "wait_version=0&timeout=inf",
    ])
    def test_negative_or_nonfinite_params_are_400(self, client, query):
        # Validated at the edge: a poisoned wait_version/timeout must
        # never reach the broker's long-poll arithmetic.
        job = client.submit(SPEC)
        error = self._status_of(lambda: client.get(
            f"/api/v1/jobs/{job['job_id']}/curve?{query}"))
        assert error.status == 400
        assert error.kind == "bad_request"


class TestReleaseAndDrain:
    def test_release_route_requeues_without_attempt(self, server, client):
        client.submit(SPEC)
        worker_id = client.register("releasing")["worker_id"]
        response = client.lease(worker_id)
        outcome = client.release(response["lease_id"],
                                 response["task"]["task_id"])
        assert outcome == {"ok": True, "state": "pending"}
        status = client.status()
        assert status["tasks"]["leased"] == 0
        assert status["counters"]["serve.leases_released"] == 1
        # The grant was un-counted: the chunk leases again as attempt 1.
        attempts = {client.lease(worker_id)["attempt"] for _ in range(6)}
        assert attempts == {1}

    def test_draining_broker_rejects_submissions_with_503(self, server,
                                                          client):
        client.submit(SPEC)
        server.broker.begin_shutdown()
        with pytest.raises(BrokerRequestError) as excinfo:
            client.submit(SPEC)
        assert excinfo.value.status == 503
        assert excinfo.value.kind == "draining"

    def test_draining_broker_stops_granting_leases(self, server, client):
        client.submit(SPEC)
        worker_id = client.register("late")["worker_id"]
        server.broker.begin_shutdown()
        response = client.lease(worker_id)
        assert response["task"] is None
        assert response["draining"] is True
        assert client.status()["draining"] is True
