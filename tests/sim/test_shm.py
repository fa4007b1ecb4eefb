"""Tests for the shared-memory result transport (repro.sim.shm)."""

import numpy as np
import pytest

from repro.core.metrics import BERPoint
from repro.sim import ChunkResultBlock, SweepEngine, SweepPoint, sweep_grid
from repro.sim.shm import RECORD_WORDS


def _point(ebn0=6.0, errors=3):
    return BERPoint(ebn0_db=ebn0, bit_errors=errors, total_bits=64,
                    packets_sent=8, packets_failed=min(errors, 8))


class TestChunkResultBlock:
    def test_write_read_round_trip_is_lossless(self):
        errors = np.array([0, 2, 0, 5, 1], dtype=np.int64)
        with ChunkResultBlock.allocate(num_slots=3, max_packets=5) as block:
            block.write_result(1, _point(ebn0=7.25, errors=8), errors)
            measurement, read_errors = block.read_result(1)
            assert measurement == _point(ebn0=7.25, errors=8)
            np.testing.assert_array_equal(read_errors, errors)

    def test_float_bit_patterns_survive(self):
        # inf is what the kernel records for a noiseless point; negative
        # and fractional Eb/N0 must survive the int64 bit-pattern trip too.
        for ebn0 in (float("inf"), -3.125, 0.1):
            with ChunkResultBlock.allocate(1, 0) as block:
                block.write_result(0, _point(ebn0=ebn0), None)
                measurement, errors = block.read_result(0)
                assert measurement.ebn0_db == ebn0 or (
                    np.isnan(ebn0) and np.isnan(measurement.ebn0_db))
                assert errors.size == 0

    def test_attach_sees_writes_and_never_unlinks(self):
        owner = ChunkResultBlock.allocate(2, 4)
        try:
            # Dimensions travel in the block header: a reader needs only
            # the segment name.
            reader = ChunkResultBlock.attach(owner.name)
            assert (reader.num_slots, reader.max_packets) == (2, 4)
            owner.write_result(0, _point(), np.arange(4))
            measurement, errors = reader.read_result(0)
            assert measurement == _point()
            np.testing.assert_array_equal(errors, np.arange(4))
            with pytest.raises(RuntimeError, match="only the allocating"):
                reader.unlink()
            reader.close()
        finally:
            owner.close()
            owner.unlink()

    def test_slot_and_capacity_validation(self):
        with ChunkResultBlock.allocate(2, 3) as block:
            with pytest.raises(ValueError, match="out of range"):
                block.write_result(2, _point(), None)
            with pytest.raises(ValueError, match="out of range"):
                block.read_result(5)
            with pytest.raises(ValueError, match="sized for 3 packet"):
                block.write_result(0, _point(), np.zeros(4, dtype=np.int64))

    def test_closed_block_refuses_access(self):
        block = ChunkResultBlock.allocate(1, 1)
        block.write_result(0, _point(), [1])
        block.close()
        with pytest.raises(ValueError, match="closed"):
            block.read_result(0)
        block.close()  # idempotent
        block.unlink()

    def test_record_layout_constant(self):
        # The layout is an interprocess contract; changing RECORD_WORDS
        # silently would corrupt mixed-version reads.  7 = status word +
        # the six measurement fields.
        assert RECORD_WORDS == 7

    def test_unwritten_slot_reads_as_empty_not_garbage(self):
        with ChunkResultBlock.allocate(2, 2) as block:
            block.write_result(0, _point(), None)
            from repro.sim.shm import SLOT_EMPTY, SLOT_OK
            assert block.slot_status(0) == SLOT_OK
            assert block.slot_status(1) == SLOT_EMPTY
            with pytest.raises(ValueError, match="no completed record"):
                block.read_result(1)


class TestSharedMemoryFanOut:
    """Acceptance: shared-memory ``max_workers`` runs are bit-identical
    to serial ones, through both the engine and the run driver."""

    def test_run_max_workers_4_bit_identical_to_serial(self, engine_factory,
                                                       small_sweep_grid):
        serial = engine_factory(seed=13).run(
            small_sweep_grid, num_packets=8, collect_errors_per_packet=True)
        shared = engine_factory(seed=13).run(
            small_sweep_grid, num_packets=8, max_workers=4,
            collect_errors_per_packet=True)
        assert shared == serial
        assert set(shared.errors_per_packet) == set(small_sweep_grid)

    def test_measure_points_parallel_matches_measure_point(self,
                                                           engine_factory):
        engine = engine_factory(seed=9)
        jobs = [(SweepPoint(ebn0_db=ebn0), packets, offset)
                for ebn0, packets, offset in
                ((2.0, 6, 0), (4.0, 4, 0), (2.0, 3, 6), (8.0, 5, 2))]
        parallel = engine.measure_points(jobs, payload_bits_per_packet=32,
                                         max_workers=3)
        serial = [engine.measure_point(point, num_packets=packets,
                                       payload_bits_per_packet=32,
                                       packet_offset=offset)
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

    def test_measure_points_validates_like_measure_point(self,
                                                         engine_factory):
        engine = engine_factory(seed=1)
        with pytest.raises((TypeError, ValueError)):
            engine.measure_points([(SweepPoint(ebn0_db=2.0), 10.9, 0)])
        with pytest.raises((TypeError, ValueError)):
            engine.measure_point(SweepPoint(ebn0_db=2.0), num_packets=10.9)
