"""Mixed-version compatibility of the removed ``array_backend`` field.

Older clients, journals and brokers carry ``"array_backend"`` (``null``
or ``"numpy"``) in job specs and chunk descriptors.  Every such record
must keep working: a journaled job replays, and a worker simulates the
same chunk bit for bit with or without the key.
"""

import pytest

from repro.serve.broker import Broker
from repro.serve.journal import JOURNAL_NAME, BrokerJournal
from repro.serve.worker import BrokerClient, Worker

from tests.serve.test_broker import SPEC, FakeClock


def _broker(tmp_path):
    return Broker(tmp_path / "store", clock=FakeClock(),
                  lease_timeout_s=10.0, state_dir=tmp_path / "state")


@pytest.mark.parametrize("array_backend", [None, "numpy"])
def test_older_journal_job_record_replays(tmp_path, array_backend):
    journal = BrokerJournal(tmp_path / "state" / JOURNAL_NAME)
    journal.record("job", job_id="job-0001",
                   spec={**SPEC, "array_backend": array_backend})
    broker = _broker(tmp_path)
    try:
        assert broker.job_ids() == ("job-0001",)
        status = broker.job_status("job-0001")
        assert status["state"] == "running"
        assert status["chunks_total"] == 6
        totals = broker.recorder.counter_totals()
        assert totals["serve.jobs_recovered"] == 1
        assert "serve.jobs_recovery_skipped" not in totals
        # A new job from the same spec shares every task: same digests.
        assert broker.submit(SPEC)["chunks_shared"] == 6
    finally:
        broker.close()


def test_journal_job_of_another_array_backend_is_skipped(tmp_path):
    journal = BrokerJournal(tmp_path / "state" / JOURNAL_NAME)
    journal.record("job", job_id="job-0001",
                   spec={**SPEC, "array_backend": "cupy"})
    broker = _broker(tmp_path)
    try:
        assert broker.job_ids() == ()
        assert broker.recorder.counter_totals()[
            "serve.jobs_recovery_skipped"] == 1
    finally:
        broker.close()


def test_worker_simulates_the_same_chunk_with_or_without_the_key(tmp_path):
    broker = _broker(tmp_path)
    try:
        broker.submit(SPEC)
        worker_id = broker.register_worker("w")["worker_id"]
        task = broker.lease(worker_id)["task"]
    finally:
        broker.close()
    assert "array_backend" not in task["engine"]
    variants = [task] + [{**task, "engine": {**task["engine"],
                                             "array_backend": value}}
                         for value in (None, "numpy")]
    measurements = []
    for variant in variants:
        # A fresh worker each time: no engine cached across variants.
        worker = Worker(BrokerClient("http://127.0.0.1:9"), name="compat")
        try:
            measurements.append(worker.simulate(variant))
        finally:
            worker.close()
    assert measurements[0].total_bits == (task["num_packets"]
                                          * task["payload_bits_per_packet"])
    assert measurements[1:] == [measurements[0]] * 2
