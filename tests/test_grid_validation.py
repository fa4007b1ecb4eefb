"""One table of unrunnable grids and engine specs, three entry points.

Every row is rejected by :meth:`SweepEngine.measure_points`, by
:meth:`RunDriver.create` and by the broker (in process and over HTTP)
before a single chunk is simulated or a byte is written: no run
directory, no journal record, no queued task.
"""

import pytest

import repro.sim.engine as engine_module
from repro.runs import RunDriver
from repro.serve.api import create_server
from repro.serve.broker import Broker, BrokerError
from repro.serve.journal import JOURNAL_NAME, BrokerJournal
from repro.serve.worker import BrokerClient, BrokerRequestError
from repro.sim import SweepEngine, SweepPoint

SPEC = {"points": [{"ebn0_db": 4.0}], "num_packets": 4,
        "payload_bits_per_packet": 16, "seed": 7}

#: (point overrides, spec overrides) per row.
BAD_GRIDS = {
    "unknown-scenario": ({"scenario": "nope"}, {}),
    "unknown-modulation": ({"modulation": "qam9"}, {}),
    "ook-on-fullstack": ({"modulation": "ook"}, {"backend": "fullstack"}),
    "ook-on-packet": ({"modulation": "ook"}, {"backend": "packet"}),
    "adc-bits-0": ({"adc_bits": 0}, {}),
    "adc-bits-fractional": ({"adc_bits": 2.7}, {}),
    "adc-bits-bool": ({"adc_bits": True}, {}),
    "generation-gen9": ({}, {"generation": "gen9"}),
    "backend-quantum": ({}, {"backend": "quantum"}),
    "seed-negative": ({}, {"seed": -1}),
    "seed-bool": ({}, {"seed": True}),
    "seed-fractional": ({}, {"seed": 1.5}),
    "quantize-string": ({}, {"quantize": "false"}),
}
ROWS = pytest.mark.parametrize("point_overrides, spec_overrides",
                               list(BAD_GRIDS.values()),
                               ids=list(BAD_GRIDS))


def _spec(point_overrides, spec_overrides) -> dict:
    return {**SPEC, **spec_overrides,
            "points": [{**SPEC["points"][0], **point_overrides}]}


@pytest.fixture
def no_chunk_runs(monkeypatch):
    """Fail the test if any chunk body starts."""
    ran = []
    monkeypatch.setattr(engine_module, "_chunk_task_hook", ran.append)
    yield
    assert ran == [], "a chunk was simulated for an unrunnable grid"


def _engine_and_points(point_overrides, spec_overrides):
    engine = SweepEngine.from_params(_spec(point_overrides, spec_overrides))
    return engine, [SweepPoint(ebn0_db=4.0, **point_overrides)]


@ROWS
def test_engine_rejects(point_overrides, spec_overrides, no_chunk_runs):
    with pytest.raises((KeyError, TypeError, ValueError)):
        engine, points = _engine_and_points(point_overrides, spec_overrides)
        engine.measure_points([(point, 4, 0) for point in points],
                              payload_bits_per_packet=16)


@ROWS
def test_driver_rejects_and_writes_nothing(tmp_path, point_overrides,
                                           spec_overrides, no_chunk_runs):
    with pytest.raises((KeyError, TypeError, ValueError)):
        engine, points = _engine_and_points(point_overrides, spec_overrides)
        RunDriver.create(tmp_path / "run", engine, points, num_packets=4,
                         payload_bits_per_packet=16)
    assert list(tmp_path.iterdir()) == []


@pytest.fixture
def broker(tmp_path):
    broker = Broker(tmp_path / "store", state_dir=tmp_path / "state")
    yield broker
    broker.close()


def _assert_nothing_queued(broker, tmp_path):
    assert broker.job_ids() == ()
    assert sum(broker.status()["tasks"].values()) == 0
    records, _ = BrokerJournal(tmp_path / "state" / JOURNAL_NAME).read()
    assert [record for record in records if record["kind"] == "job"] == []


@ROWS
def test_broker_rejects_and_journals_nothing(tmp_path, broker,
                                             point_overrides, spec_overrides,
                                             no_chunk_runs):
    with pytest.raises(BrokerError):
        broker.submit(_spec(point_overrides, spec_overrides))
    _assert_nothing_queued(broker, tmp_path)
    # The rejected submission burned no job id.
    assert broker.submit(SPEC)["job_id"] == "job-0001"


@ROWS
def test_http_rejects_with_400(tmp_path, broker, point_overrides,
                               spec_overrides, no_chunk_runs):
    server = create_server(broker)
    server.serve_in_thread()
    client = BrokerClient(server.url, timeout_s=10.0)
    try:
        with pytest.raises(BrokerRequestError) as excinfo:
            client.submit(_spec(point_overrides, spec_overrides))
        assert excinfo.value.status == 400
    finally:
        client.close()
        server.shutdown()
        server.server_close()
    _assert_nothing_queued(broker, tmp_path)
