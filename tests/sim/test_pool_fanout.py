"""Tests for the process-pool chunk fan-out (``max_workers``).

Each pool worker returns its chunk record as the future's result; these
pin that the fan-out equals the serial path bit for bit, keeps grid
order, leaks no segment, and harvests completed chunks when a sibling's
worker raises.
"""

import time

import pytest

import repro.sim.engine as engine_module
from repro.obs.recorder import Recorder
from repro.sim import SweepPoint, sweep_grid


class TestPoolFanOut:
    """Acceptance: ``max_workers`` runs are bit-identical to serial ones,
    through both the engine and the run driver."""

    def test_run_max_workers_4_bit_identical_to_serial(self, engine_factory,
                                                       small_sweep_grid):
        serial = engine_factory(seed=13).run(
            small_sweep_grid, num_packets=8, collect_errors_per_packet=True)
        shared = engine_factory(seed=13).run(
            small_sweep_grid, num_packets=8, max_workers=4,
            collect_errors_per_packet=True)
        assert shared == serial
        assert set(shared.errors_per_packet) == set(small_sweep_grid)

    def test_measure_points_parallel_matches_one_job_at_a_time(
            self, engine_factory):
        engine = engine_factory(seed=9)
        jobs = [(SweepPoint(ebn0_db=ebn0), packets, offset)
                for ebn0, packets, offset in
                ((2.0, 6, 0), (4.0, 4, 0), (2.0, 3, 6), (8.0, 5, 2))]
        parallel = engine.measure_points(jobs, payload_bits_per_packet=32,
                                         max_workers=3)
        serial = [engine.measure_points([(point, packets, offset)],
                                        payload_bits_per_packet=32,
                                        chunk_packets=packets)[0]
                  for point, packets, offset in jobs]
        assert parallel == serial

    def test_on_result_order_preserved_with_workers(self, engine_factory,
                                                    small_sweep_grid):
        seen = []
        result = engine_factory(seed=3).run(
            small_sweep_grid, num_packets=4, max_workers=4,
            on_result=lambda point, measurement: seen.append(point))
        assert seen == [point for point, _ in result.entries]
        assert seen == list(small_sweep_grid)

    def test_errors_per_packet_totals_match_measurement(self, engine_factory,
                                                        small_sweep_grid):
        result = engine_factory(seed=6).run(
            small_sweep_grid, num_packets=5, max_workers=2,
            collect_errors_per_packet=True)
        for point, measurement in result.entries:
            errors = result.errors_per_packet[point]
            assert len(errors) == measurement.packets_sent
            assert sum(errors) == measurement.bit_errors
            assert sum(1 for count in errors if count) \
                == measurement.packets_failed

    def test_no_leaked_segments_after_fan_out(self, engine_factory,
                                              small_sweep_grid):
        import glob
        before = set(glob.glob("/dev/shm/psm_*"))
        engine_factory(seed=1).run(small_sweep_grid, num_packets=2,
                                   max_workers=4)
        after = set(glob.glob("/dev/shm/psm_*"))
        assert after <= before, f"leaked segments: {after - before}"


def _chunk1_poison_channel(rng):
    """Module-level (picklable) channel factory that fails loudly — used
    to make exactly one worker chunk die in the salvage test."""
    raise RuntimeError("poisoned grid point")


class TestWorkerFailureSalvage:
    def test_completed_chunks_delivered_before_failure_raises(
            self, engine_factory):
        """A dying worker chunk must not discard the other chunks'
        finished measurements: on_result sees them, then the original
        exception propagates."""
        from repro.sim import Scenario, default_registry

        registry = default_registry()
        registry.register(Scenario(name="poison",
                                   channel=_chunk1_poison_channel))
        engine = engine_factory(seed=2, registry=registry)
        points = (SweepPoint(ebn0_db=2.0), SweepPoint(ebn0_db=4.0,
                                                      scenario="poison"),
                  SweepPoint(ebn0_db=6.0), SweepPoint(ebn0_db=8.0,
                                                      scenario="poison"))
        # Every point is its own chunk task; the poison scenario kills the
        # tasks of points 1 and 3 only, independently of worker layout.
        seen = []
        with pytest.raises(RuntimeError, match="poisoned grid point"):
            engine.run(points, num_packets=4, max_workers=2,
                       on_result=lambda point, measurement: seen.append(
                           point))
        assert seen == [points[0], points[2]]

    def test_measure_points_propagates_worker_failure(self, engine_factory):
        from repro.sim import Scenario, default_registry
        registry = default_registry()
        registry.register(Scenario(name="poison",
                                   channel=_chunk1_poison_channel))
        engine = engine_factory(seed=2, registry=registry)
        with pytest.raises(RuntimeError, match="poisoned grid point"):
            engine.measure_points(
                [(SweepPoint(ebn0_db=2.0), 2, 0),
                 (SweepPoint(ebn0_db=4.0, scenario="poison"), 2, 0)],
                max_workers=2)

    def test_measure_points_rejects_a_fractional_packet_count(
            self, engine_factory):
        engine = engine_factory(seed=1)
        with pytest.raises((TypeError, ValueError)):
            engine.measure_points([(SweepPoint(ebn0_db=2.0), 10.9, 0)])


@pytest.fixture
def chunk_hook(monkeypatch):
    """Install a test-only chunk fault hook (cleared on teardown)."""
    def install(hook):
        monkeypatch.setattr(engine_module, "_chunk_task_hook", hook)
    yield install
    monkeypatch.setattr(engine_module, "_chunk_task_hook", None)


def _task_offset(task):
    """The packet offset a materialized chunk task was keyed with."""
    return task.spawn_key[4] if len(task.spawn_key) > 4 else 0


class TestInterruptStopsTheSchedule:
    """Only an ``Exception`` is a chunk failure: a ``KeyboardInterrupt``
    stops the sweep, after the completed chunks reached ``on_chunk``."""

    def test_serial_interrupt_runs_no_further_chunk(self, engine_factory,
                                                    chunk_hook):
        started = []

        def hook(task):
            started.append(_task_offset(task))
            if _task_offset(task) == 4:
                raise KeyboardInterrupt

        chunk_hook(hook)
        delivered = []
        with pytest.raises(KeyboardInterrupt):
            engine_factory(seed=5).measure_points(
                [(SweepPoint(ebn0_db=4.0), 20, 0)],
                payload_bits_per_packet=16, chunk_packets=2,
                on_chunk=lambda point, offset, m: delivered.append(offset))
        assert started == [0, 2, 4]
        assert delivered == [0, 2]

    def test_pooled_interrupt_cancels_the_chunks_not_started(
            self, engine_factory, chunk_hook, tmp_path):
        # Workers are forked, so each chunk body that starts leaves a
        # file behind.  Offsets 0 and 2 finish at once, offset 4 raises
        # once they have, and every later chunk is slow: without the
        # interrupt all ten chunk bodies would start.
        def hook(task):
            offset = _task_offset(task)
            (tmp_path / f"started-{offset}").touch()
            if offset == 4:
                time.sleep(0.2)
                raise KeyboardInterrupt
            if offset > 4:
                time.sleep(0.5)

        chunk_hook(hook)
        delivered = []
        with pytest.raises(KeyboardInterrupt):
            engine_factory(seed=5).measure_points(
                [(SweepPoint(ebn0_db=4.0), 20, 0)],
                payload_bits_per_packet=16, chunk_packets=2, max_workers=2,
                on_chunk=lambda point, offset, m: delivered.append(offset))
        started = len(list(tmp_path.glob("started-*")))
        assert started < 10
        assert delivered[:2] == [0, 2]
        assert 4 not in delivered


class TestFailedChunkTelemetry:
    def test_failed_spans_reach_the_parent_on_both_paths(
            self, engine_factory, chunk_hook):
        # Both chunks of the 4 dB point fail: 2 of the 4 chunks.
        def hook(task):
            if task.point.ebn0_db == 4.0:
                raise RuntimeError("injected chunk fault")

        chunk_hook(hook)
        tallies = []
        for workers in (None, 2):
            recorder = Recorder()
            with pytest.raises(RuntimeError,
                               match="injected chunk fault") as caught:
                engine_factory(seed=6, chunk_packets=2,
                               recorder=recorder).run(
                    sweep_grid([2.0, 4.0]), num_packets=4,
                    max_workers=workers)
            # The events the worker hung on the failure were taken off.
            assert not hasattr(caught.value,
                               engine_module._FAILURE_EVENTS_ATTR)
            spans = [event for event in recorder.events()
                     if event["name"] == "chunk.run"]
            failed = [span for span in spans
                      if span["attrs"].get("failed") is True]
            tallies.append((len(spans), len(failed)))
        assert tallies == [(4, 2), (4, 2)]
