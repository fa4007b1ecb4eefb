"""Run-directory telemetry artifacts: flushing, crash safety, counters."""

import json
import logging

import pytest

import repro.sim.engine as engine_module
from repro.obs.ledger import (LEDGER_NAME, SUMMARY_NAME, EventLedger,
                              validate_event)
from repro.obs.recorder import Recorder
from repro.runs import RunDriver
from repro.sim import SweepEngine, sweep_grid


@pytest.fixture
def chunk_hook(monkeypatch):
    """Install a test-only chunk fault hook (cleared on teardown)."""
    def install(hook):
        monkeypatch.setattr(engine_module, "_chunk_task_hook", hook)
    yield install
    monkeypatch.setattr(engine_module, "_chunk_task_hook", None)


def _poison(ebn0_db, packet_offset):
    def hook(task):
        offset = task.spawn_key[4] if len(task.spawn_key) > 4 else 0
        if task.point.ebn0_db == ebn0_db and offset == packet_offset:
            raise RuntimeError("injected chunk fault")
    return hook


def make_driver(tmp_path, name="run", telemetry=True, chunk_packets=2,
                num_packets=4, seed=13):
    recorder = Recorder() if telemetry else None
    engine = SweepEngine(seed=seed, chunk_packets=chunk_packets,
                         recorder=recorder)
    return RunDriver.create(tmp_path / name, engine,
                            sweep_grid([2.0, 4.0]), num_packets=num_packets,
                            payload_bits_per_packet=16)


class TestTelemetryFlush:
    def test_run_shard_writes_ledger_and_summary(self, tmp_path):
        driver = make_driver(tmp_path)
        driver.run_shard(0, max_workers=2)
        events, corrupt = EventLedger(driver.run_dir / LEDGER_NAME).read()
        assert corrupt == 0
        for event in events:
            validate_event(event)
        names = {event["name"] for event in events}
        assert {"driver.run_shard", "engine.chunk_plan", "chunk.run",
                "cache.points_missed", "store.chunks_added"} <= names
        chunk_spans = [e for e in events if e["name"] == "chunk.run"]
        assert len(chunk_spans) == 4  # 2 points x 2 chunks
        for span in chunk_spans:
            assert span["attrs"]["packets"] == 2
            assert span["attrs"]["scenario"] == "awgn"
        summary = json.loads(
            (driver.run_dir / SUMMARY_NAME).read_text(encoding="utf-8"))
        assert summary["events"] == len(events)
        assert summary["spans"]["chunk.run"]["count"] == 4
        # Flushed means drained: the recorder starts the next shard empty.
        assert driver.engine.recorder.events() == ()

    def test_parallel_workers_ship_queue_wait(self, tmp_path):
        driver = make_driver(tmp_path)
        driver.run_shard(0, max_workers=2)
        events, _ = EventLedger(driver.run_dir / LEDGER_NAME).read()
        waits = [event["attrs"]["queue_wait_s"] for event in events
                 if event["name"] == "chunk.run"]
        assert len(waits) == 4
        assert all(wait >= 0.0 for wait in waits)

    def test_telemetry_off_leaves_no_artifacts(self, tmp_path):
        driver = make_driver(tmp_path, telemetry=False)
        driver.run_shard(0, max_workers=2)
        assert not (driver.run_dir / LEDGER_NAME).exists()
        assert not (driver.run_dir / SUMMARY_NAME).exists()

    def test_cached_rerun_appends_hit_counters(self, tmp_path):
        driver = make_driver(tmp_path)
        driver.run_shard(0)
        first_events, _ = EventLedger(driver.run_dir / LEDGER_NAME).read()

        rerun = RunDriver.open(driver.run_dir)
        rerun.engine.recorder = Recorder()
        report = rerun.run_shard(0)
        assert report.all_cached
        events, _ = EventLedger(driver.run_dir / LEDGER_NAME).read()
        assert len(events) > len(first_events)  # append-only, both flushes
        hits = sum(event["value"] for event in events
                   if event["name"] == "cache.points_hit")
        assert hits == 2
        summary = json.loads(
            (driver.run_dir / SUMMARY_NAME).read_text(encoding="utf-8"))
        assert summary["counters"]["cache.points_hit"] == 2

    def test_resumed_chunks_counter(self, tmp_path, chunk_hook):
        # Poison the *first* chunk of the 4 dB point: its offset-2 sibling
        # still completes, leaving a gap the resume must skip over.
        chunk_hook(_poison(4.0, 0))
        driver = make_driver(tmp_path)
        with pytest.raises(RuntimeError):
            driver.run_shard(0, max_workers=2)
        chunk_hook(None)
        resumed = RunDriver.open(driver.run_dir)
        resumed.engine.recorder = Recorder()
        reports = [resumed.run_shard(index)
                   for index in resumed.pending_shards()]
        # Only the poisoned chunk is simulated again.
        assert [report.chunks_simulated for report in reports] == [1]
        events, _ = EventLedger(driver.run_dir / LEDGER_NAME).read()
        resumed_chunks = sum(event["value"] for event in events
                             if event["name"] == "cache.chunks_resumed")
        assert resumed_chunks == 1  # the beyond-the-gap chunk was reused


class TestCrashLedger:
    def test_faulted_shard_still_flushes_a_valid_partial_ledger(
            self, tmp_path, chunk_hook):
        chunk_hook(_poison(4.0, 2))
        driver = make_driver(tmp_path)
        with pytest.raises(RuntimeError, match="injected chunk fault"):
            driver.run_shard(0, max_workers=2)
        events, corrupt = EventLedger(driver.run_dir / LEDGER_NAME).read()
        assert corrupt == 0
        for event in events:
            validate_event(event)
        names = [event["name"] for event in events]
        assert "chunk.run" in names              # harvested sibling spans
        assert "chunks.failed" in names          # the failure was counted
        # The envelope span records the failure instead of vanishing.
        (envelope,) = [event for event in events
                       if event["name"] == "driver.run_shard"]
        assert envelope["attrs"].get("failed") is True
        assert (driver.run_dir / SUMMARY_NAME).exists()

    def test_recovery_after_crash_completes_and_appends(self, tmp_path,
                                                        chunk_hook):
        reference = make_driver(tmp_path, name="ref", telemetry=False)
        reference.run_shard(0)

        chunk_hook(_poison(4.0, 2))
        crashed = make_driver(tmp_path)
        with pytest.raises(RuntimeError):
            crashed.run_shard(0, max_workers=2)
        crash_events, _ = EventLedger(crashed.run_dir / LEDGER_NAME).read()

        chunk_hook(None)
        resumed = RunDriver.open(crashed.run_dir)
        resumed.engine.recorder = Recorder()
        for index in resumed.pending_shards():
            resumed.run_shard(index)
        assert resumed.is_complete
        assert resumed.merge() == reference.merge()
        events, corrupt = EventLedger(crashed.run_dir / LEDGER_NAME).read()
        assert corrupt == 0
        assert len(events) > len(crash_events)


class TestFailureLogging:
    def test_failed_chunk_identity_is_logged(self, engine_factory,
                                             chunk_hook, caplog):
        from repro.sim import SweepPoint
        chunk_hook(_poison(4.0, 2))
        engine = engine_factory(seed=6)
        prototypes, rows, _ = engine._chunk_plan(
            [(SweepPoint(ebn0_db=2.0), 4, 0),
             (SweepPoint(ebn0_db=4.0), 4, 0)], 16, 2)
        with caplog.at_level(logging.ERROR, logger="repro.sim.engine"):
            records, failure = engine._execute_chunks(prototypes, rows, 0, 2)
        assert isinstance(failure, RuntimeError)
        (message,) = [record.getMessage() for record in caplog.records
                      if "chunk failed" in record.getMessage()]
        digest = engine.point_digest(SweepPoint(ebn0_db=4.0))[:12]
        assert digest in message
        assert "offset 2" in message
        assert "awgn" in message
        assert "4 dB" in message

    def test_serial_failure_is_logged_too(self, engine_factory, chunk_hook,
                                          caplog):
        from repro.sim import SweepPoint
        chunk_hook(_poison(2.0, 0))
        engine = engine_factory(seed=6)
        prototypes, rows, _ = engine._chunk_plan(
            [(SweepPoint(ebn0_db=2.0), 4, 0)], 16, 2)
        with caplog.at_level(logging.ERROR, logger="repro.sim.engine"):
            records, failure = engine._execute_chunks(prototypes, rows,
                                                      0, None)
        assert isinstance(failure, RuntimeError)
        assert any("chunk failed" in record.getMessage()
                   and "offset 0" in record.getMessage()
                   for record in caplog.records)
        # The serial path isolates the failure like the pool: the rows
        # after the poisoned chunk still run.
        pooled, pooled_failure = engine._execute_chunks(prototypes, rows,
                                                        0, 2)
        assert isinstance(pooled_failure, RuntimeError)
        assert ([record is None for record in records]
                == [record is None for record in pooled] == [True, False])
        assert records[1][0] == pooled[1][0]

    def test_failure_note_names_the_chunk(self, engine_factory, chunk_hook):
        import sys
        if sys.version_info < (3, 11):
            pytest.skip("exception notes need Python 3.11+")
        from repro.sim import SweepPoint
        chunk_hook(_poison(4.0, 2))
        engine = engine_factory(seed=6)
        prototypes, rows, _ = engine._chunk_plan(
            [(SweepPoint(ebn0_db=4.0), 4, 0)], 16, 2)
        _, failure = engine._execute_chunks(prototypes, rows, 0, 2)
        (note,) = failure.__notes__
        assert "failed chunk(s)" in note
        assert "offset 2" in note


class TestShardProgress:
    def test_progress_reflects_store_state(self, tmp_path, chunk_hook):
        chunk_hook(_poison(4.0, 2))
        driver = make_driver(tmp_path, telemetry=False)
        with pytest.raises(RuntimeError):
            driver.run_shard(0, max_workers=2)
        chunk_hook(None)
        progress = RunDriver.open(driver.run_dir).shard_progress()
        entry = progress[0]
        assert entry["status"] == "partial"
        assert entry["points_total"] == 2
        assert entry["points_measured"] == 1   # the 2 dB point completed
        assert entry["chunks_stored"] == 3     # 2 clean + 1 of the faulted
        assert entry["packets_stored"] == 6

    def test_progress_when_done(self, tmp_path):
        driver = make_driver(tmp_path, telemetry=False)
        driver.run_shard(0)
        entry = driver.shard_progress()[0]
        assert entry == {"status": "done", "points_measured": 2,
                         "points_total": 2, "chunks_stored": 4,
                         "packets_stored": 8}
