"""Chunk-granular scheduling: equivalence and fault-injection suite.

The contract pinned here (see ``docs/architecture.md``):

* the seeded packet chunk is the unit of scheduling, caching and
  merging — for a **fixed** chunk layout, results are bitwise identical
  however the chunks are scheduled (serially, over any worker count, in
  any completion order, through the run driver's cache);
* the default layout (``chunk_packets=None``) and any layout with
  ``chunk_packets >= num_packets`` are bit-exact with the historical
  unchunked engine, so existing point-level cache entries stay valid;
* a chunk fails *alone*: its siblings' results are harvested and
  persisted, its own record is ``None`` (never garbage), no shared-memory
  segment leaks, and a resume re-runs only the missing chunks.
"""

import glob
import os
import signal

import numpy as np
import pytest

import repro.sim.engine as engine_module
from repro.runs import RunDriver
from repro.sim import SweepEngine, SweepPoint, sweep_grid
from repro.sim.engine import chunk_spans, _point_spawn_key


# ----------------------------------------------------------------------
# Chunk-span decomposition
# ----------------------------------------------------------------------
class TestChunkSpans:
    def test_none_layout_is_one_span(self):
        assert chunk_spans(10, None) == ((0, 10),)
        assert chunk_spans(10, None, packet_offset=7) == ((7, 10),)

    def test_exact_division(self):
        assert chunk_spans(12, 4) == ((0, 4), (4, 4), (8, 4))

    def test_ragged_tail(self):
        assert chunk_spans(10, 4) == ((0, 4), (4, 4), (8, 2))

    def test_chunk_size_one(self):
        assert chunk_spans(3, 1) == ((0, 1), (1, 1), (2, 1))

    def test_chunk_larger_than_budget_degenerates_to_unchunked(self):
        assert chunk_spans(5, 100) == chunk_spans(5, None) == ((0, 5),)

    def test_offset_shifts_every_span(self):
        assert chunk_spans(10, 4, packet_offset=6) == \
            ((6, 4), (10, 4), (14, 2))

    def test_spans_partition_the_budget(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            budget = int(rng.integers(1, 200))
            size = int(rng.integers(1, 40))
            offset = int(rng.integers(0, 1000))
            spans = chunk_spans(budget, size, offset)
            assert sum(packets for _, packets in spans) == budget
            cursor = offset
            for start, packets in spans:
                assert start == cursor
                assert 1 <= packets <= size
                cursor += packets

    def test_validation(self):
        with pytest.raises(ValueError):
            chunk_spans(0, 4)
        with pytest.raises(ValueError):
            chunk_spans(8, 0)
        with pytest.raises(ValueError):
            chunk_spans(8, 4, packet_offset=-1)

    def test_offset_keys_an_independent_stream(self):
        point = SweepPoint(ebn0_db=4.0)
        assert _point_spawn_key(point, 0) == _point_spawn_key(point)
        assert _point_spawn_key(point, 8) != _point_spawn_key(point, 4)


# ----------------------------------------------------------------------
# Chunk equivalence: scheduling must be bitwise invisible
# ----------------------------------------------------------------------
BACKEND_MATRIX = [
    ("batch", "gen2", "awgn"),
    ("packet", "gen2", "awgn"),
    ("packet", "gen1", "awgn"),
    ("fullstack", "gen2", "awgn"),
    ("fullstack", "gen1", "awgn"),
]
SLOW_BACKEND_MATRIX = [
    ("fullstack", "gen2", "cm1"),
    ("fullstack", "gen1", "two_ray"),
    ("packet", "gen2", "cm1"),
]


def _run_both(engine_factory, backend, generation, scenario, chunk_packets,
              num_packets=7, workers=3, seed=21):
    """The same chunked sweep, serial and fanned out, with error vectors."""
    grid = sweep_grid([3.0, 6.0], scenarios=(scenario,))
    kwargs = dict(num_packets=num_packets, payload_bits_per_packet=24,
                  collect_errors_per_packet=True)
    serial = engine_factory(seed=seed, backend=backend,
                            generation=generation,
                            chunk_packets=chunk_packets).run(grid, **kwargs)
    parallel = engine_factory(seed=seed, backend=backend,
                              generation=generation,
                              chunk_packets=chunk_packets).run(
        grid, max_workers=workers, **kwargs)
    return grid, serial, parallel


@pytest.mark.parametrize("backend,generation,scenario", BACKEND_MATRIX)
@pytest.mark.parametrize("chunk_packets", [1, 3, 7])
class TestChunkEquivalence:
    """Serial == parallel for a fixed layout — counts *and* error vectors."""

    def test_serial_and_parallel_chunked_runs_are_bit_identical(
            self, engine_factory, backend, generation, scenario,
            chunk_packets):
        grid, serial, parallel = _run_both(engine_factory, backend,
                                           generation, scenario,
                                           chunk_packets)
        assert parallel.entries == serial.entries
        assert parallel.errors_per_packet == serial.errors_per_packet
        assert set(serial.errors_per_packet) == set(grid)


@pytest.mark.slow
@pytest.mark.parametrize("backend,generation,scenario", SLOW_BACKEND_MATRIX)
@pytest.mark.parametrize("chunk_packets", [1, 2, 5, 8])
class TestChunkEquivalenceMultipathMatrix:
    """The multipath legs of the matrix (slow CI leg)."""

    def test_serial_and_parallel_chunked_runs_are_bit_identical(
            self, engine_factory, backend, generation, scenario,
            chunk_packets):
        grid, serial, parallel = _run_both(engine_factory, backend,
                                           generation, scenario,
                                           chunk_packets, num_packets=8,
                                           workers=4)
        assert parallel.entries == serial.entries
        assert parallel.errors_per_packet == serial.errors_per_packet


class TestChunkLayoutContracts:
    def test_chunk_size_covering_budget_matches_unchunked_bitwise(
            self, engine_factory, small_sweep_grid):
        unchunked = engine_factory(seed=5).run(
            small_sweep_grid, num_packets=6, collect_errors_per_packet=True)
        for chunk_packets in (6, 50):
            chunked = engine_factory(seed=5, chunk_packets=chunk_packets).run(
                small_sweep_grid, num_packets=6,
                collect_errors_per_packet=True)
            assert chunked.entries == unchunked.entries
            assert chunked.errors_per_packet == unchunked.errors_per_packet

    def test_more_workers_than_chunks(self, engine_factory):
        grid = sweep_grid([4.0])
        serial = engine_factory(seed=8, chunk_packets=4).run(
            grid, num_packets=8, collect_errors_per_packet=True)
        flooded = engine_factory(seed=8, chunk_packets=4).run(
            grid, num_packets=8, max_workers=16,
            collect_errors_per_packet=True)
        assert flooded.entries == serial.entries
        assert flooded.errors_per_packet == serial.errors_per_packet

    def test_single_hot_point_fans_out(self, engine_factory):
        # One grid point, many chunks: the layout that motivates the
        # whole refactor.  Parallel must equal serial bit for bit.
        grid = sweep_grid([2.0])
        serial = engine_factory(seed=2, chunk_packets=3).run(
            grid, num_packets=20, collect_errors_per_packet=True)
        parallel = engine_factory(seed=2, chunk_packets=3).run(
            grid, num_packets=20, max_workers=4,
            collect_errors_per_packet=True)
        assert parallel.entries == serial.entries
        assert parallel.errors_per_packet == serial.errors_per_packet
        (_, measurement), = serial.entries
        assert measurement.packets_sent == 20

    def test_measure_points_chunked_matches_manual_span_merge(
            self, engine_factory):
        engine = engine_factory(seed=17)
        jobs = [(SweepPoint(ebn0_db=2.0), 9, 0),
                (SweepPoint(ebn0_db=5.0), 4, 6),
                (SweepPoint(ebn0_db=2.0), 5, 9)]
        chunked = engine.measure_points(jobs, payload_bits_per_packet=32,
                                        chunk_packets=4, max_workers=3)
        manual = []
        for point, num_packets, packet_offset in jobs:
            merged = None
            for offset, packets in chunk_spans(num_packets, 4,
                                                packet_offset):
                chunk = engine.measure_point(point, num_packets=packets,
                                             payload_bits_per_packet=32,
                                             packet_offset=offset)
                merged = chunk if merged is None else merged.merge(chunk)
            manual.append(merged)
        assert chunked == manual

    def test_randomized_layout_scheduling_invariance(self, engine_factory):
        # Property sweep: random budgets, offsets and chunk sizes (1,
        # ragged tails, oversize) — the chunked bulk call must equal the
        # per-span reference composition every time.
        rng = np.random.default_rng(99)
        engine = engine_factory(seed=31)
        for round_index in range(6):
            chunk_packets = int(rng.integers(1, 7))
            jobs = [(SweepPoint(ebn0_db=float(rng.choice([2.0, 4.0, 6.0]))),
                     int(rng.integers(1, 12)), int(rng.integers(0, 9)))
                    for _ in range(int(rng.integers(1, 4)))]
            chunked = engine.measure_points(
                jobs, payload_bits_per_packet=16,
                chunk_packets=chunk_packets)
            manual = []
            for point, num_packets, packet_offset in jobs:
                merged = None
                for offset, packets in chunk_spans(
                        num_packets, chunk_packets, packet_offset):
                    chunk = engine.measure_point(
                        point, num_packets=packets,
                        payload_bits_per_packet=16, packet_offset=offset)
                    merged = chunk if merged is None else merged.merge(chunk)
                manual.append(merged)
            assert chunked == manual, (round_index, chunk_packets, jobs)

    def test_on_chunk_delivery_order_is_deterministic(self, engine_factory):
        engine = engine_factory(seed=3)
        jobs = [(SweepPoint(ebn0_db=2.0), 5, 0),
                (SweepPoint(ebn0_db=4.0), 3, 2)]
        expected = []
        for point, num_packets, packet_offset in jobs:
            expected.extend((point, offset) for offset, _ in
                            chunk_spans(num_packets, 2, packet_offset))
        for workers in (None, 3):
            seen = []
            engine.measure_points(
                jobs, payload_bits_per_packet=16, chunk_packets=2,
                max_workers=workers,
                on_chunk=lambda point, offset, m: seen.append((point,
                                                               offset)))
            assert seen == expected


# ----------------------------------------------------------------------
# Fault injection: one chunk dies, the rest of the run survives
# ----------------------------------------------------------------------
def _task_offset(task):
    """The packet offset a materialized chunk task was keyed with."""
    return task.spawn_key[4] if len(task.spawn_key) > 4 else 0


def _poison(ebn0_db, packet_offset):
    """A hook failing exactly one (point, chunk-offset) task."""
    def hook(task):
        if (task.point.ebn0_db == ebn0_db
                and _task_offset(task) == packet_offset):
            raise RuntimeError("injected chunk fault")
    return hook


@pytest.fixture
def chunk_hook(monkeypatch):
    """Install a test-only chunk fault hook (cleared on teardown)."""
    def install(hook):
        monkeypatch.setattr(engine_module, "_chunk_task_hook", hook)
    yield install
    monkeypatch.setattr(engine_module, "_chunk_task_hook", None)


def _shm_segments():
    return set(glob.glob("/dev/shm/psm_*"))


class TestChunkFaultInjection:
    def test_failed_chunk_record_is_none_not_garbage(self, engine_factory,
                                                     chunk_hook):
        # Direct scheduler-level check: the poisoned row harvests as
        # None, every sibling harvests complete.
        chunk_hook(_poison(4.0, 2))
        engine = engine_factory(seed=6)
        prototypes, rows, _ = engine._chunk_plan(
            [(SweepPoint(ebn0_db=2.0), 4, 0), (SweepPoint(ebn0_db=4.0), 4, 0)],
            16, 2)
        records, failure = engine._execute_chunks(prototypes, rows, 0, 2)
        assert isinstance(failure, RuntimeError)
        assert len(records) == 4
        poisoned = [record is None for record in records]
        assert poisoned == [False, False, False, True]
        for record in records[:3]:
            measurement, errors = record
            assert measurement.packets_sent == 2

    def test_completed_chunks_delivered_before_failure(self, engine_factory,
                                                       chunk_hook):
        chunk_hook(_poison(6.0, 3))
        engine = engine_factory(seed=7)
        delivered = []
        with pytest.raises(RuntimeError, match="injected chunk fault"):
            engine.measure_points(
                [(SweepPoint(ebn0_db=2.0), 6, 0),
                 (SweepPoint(ebn0_db=6.0), 6, 0)],
                payload_bits_per_packet=16, chunk_packets=3, max_workers=2,
                on_chunk=lambda point, offset, m: delivered.append(
                    (point.ebn0_db, offset)))
        assert (2.0, 0) in delivered and (2.0, 3) in delivered
        assert (6.0, 0) in delivered
        assert (6.0, 3) not in delivered

    def test_surviving_points_reported_by_run(self, engine_factory,
                                              chunk_hook):
        chunk_hook(_poison(4.0, 2))
        grid = sweep_grid([2.0, 4.0, 6.0])
        seen = []
        with pytest.raises(RuntimeError, match="injected chunk fault"):
            engine_factory(seed=9, chunk_packets=2).run(
                grid, num_packets=4, max_workers=2,
                on_result=lambda point, m: seen.append(point))
        # The faulted point (4 dB) lost one chunk; both others completed
        # all chunks and were delivered, in grid order.
        assert seen == [grid[0], grid[2]]

    def test_no_segment_leak_after_fault(self, engine_factory, chunk_hook):
        chunk_hook(_poison(2.0, 0))
        before = _shm_segments()
        with pytest.raises(RuntimeError):
            engine_factory(seed=1, chunk_packets=2).run(
                sweep_grid([2.0, 4.0]), num_packets=4, max_workers=2)
        after = _shm_segments()
        assert after <= before, f"leaked segments: {after - before}"

    def test_driver_resume_reruns_only_missing_chunks(self, tmp_path,
                                                      chunk_hook):
        grid = sweep_grid([2.0, 4.0])
        reference_engine = SweepEngine(seed=11, chunk_packets=3)
        reference = RunDriver.create(tmp_path / "ref", reference_engine,
                                     grid, num_packets=9,
                                     payload_bits_per_packet=16)
        reference.run_shard(0)

        chunk_hook(_poison(4.0, 3))
        faulted = RunDriver.create(tmp_path / "run",
                                   SweepEngine(seed=11, chunk_packets=3),
                                   grid, num_packets=9,
                                   payload_bits_per_packet=16)
        with pytest.raises(RuntimeError, match="injected chunk fault"):
            faulted.run_shard(0, max_workers=2)
        assert faulted.pending_shards() == (0,)

        # Every completed chunk was persisted before the failure
        # propagated: 3 chunks of the clean point + 2 of the faulted one.
        store = faulted.store_for_shard(0)
        key_clean = faulted.manifest.key_for(grid[0])
        key_faulted = faulted.manifest.key_for(grid[1])
        assert store.chunks_for(key_clean) == {0: 3, 3: 3, 6: 3}
        assert store.chunks_for(key_faulted) == {0: 3, 6: 3}

        chunk_hook(None)
        resumed = RunDriver.open(tmp_path / "run")
        report = resumed.run_pending(max_workers=2)
        # Only the one missing chunk is simulated on resume.
        assert report.chunks_simulated == 1
        assert report.packets_simulated == 3
        assert resumed.is_complete
        assert resumed.merge() == reference.merge()

    @pytest.mark.slow
    def test_sigkilled_worker_chunk_is_isolated(self, engine_factory,
                                                chunk_hook):
        def kill_hook(task):
            if task.point.ebn0_db == 4.0 and _task_offset(task) == 2:
                os.kill(os.getpid(), signal.SIGKILL)
        chunk_hook(kill_hook)
        before = _shm_segments()
        engine = engine_factory(seed=13, chunk_packets=2)
        # A killed worker breaks the pool: the exception type depends on
        # scheduling (BrokenProcessPool for siblings, the broken-pool
        # error for the victim), but the contract is race-free — some
        # exception propagates, no segment leaks, and the store-level
        # resume below completes from whatever chunks survived.
        with pytest.raises(Exception):
            engine.run(sweep_grid([2.0, 4.0]), num_packets=4,
                       max_workers=2)
        assert _shm_segments() <= before

    @pytest.mark.slow
    def test_driver_resume_after_sigkill(self, tmp_path, chunk_hook):
        grid = sweep_grid([2.0, 4.0])
        reference = RunDriver.create(tmp_path / "ref",
                                     SweepEngine(seed=4, chunk_packets=2),
                                     grid, num_packets=6,
                                     payload_bits_per_packet=16)
        reference.run_shard(0)

        def kill_hook(task):
            if task.point.ebn0_db == 4.0 and _task_offset(task) == 2:
                os.kill(os.getpid(), signal.SIGKILL)
        chunk_hook(kill_hook)
        crashed = RunDriver.create(tmp_path / "run",
                                   SweepEngine(seed=4, chunk_packets=2),
                                   grid, num_packets=6,
                                   payload_bits_per_packet=16)
        with pytest.raises(Exception):
            crashed.run_shard(0, max_workers=2)
        assert crashed.pending_shards() == (0,)

        chunk_hook(None)
        resumed = RunDriver.open(tmp_path / "run")
        resumed.run_pending(max_workers=2)
        assert resumed.is_complete
        assert resumed.merge() == reference.merge()


# ----------------------------------------------------------------------
# Chunk-level cache reuse through the run driver
# ----------------------------------------------------------------------
class TestChunkedStoreReuse:
    def test_escalation_reuses_every_cached_chunk(self, tmp_path):
        grid = sweep_grid([2.0, 4.0, 6.0])
        engine = SweepEngine(seed=19, chunk_packets=4)
        small = RunDriver.create(tmp_path / "run", engine, grid,
                                 num_packets=8, payload_bits_per_packet=16)
        first = small.run_shard(0)
        assert first.chunks_simulated == 2 * len(grid)

        big = RunDriver.create(tmp_path / "run", engine, grid,
                               num_packets=14, payload_bits_per_packet=16)
        report = big.run_shard(0, max_workers=2)
        # Only each point's 6-packet tail (chunks of 4 + 2) is simulated;
        # all 8 cached packets per point are reused.
        assert report.packets_simulated == 6 * len(grid)
        assert report.packets_cached == 8 * len(grid)
        assert report.chunks_simulated == 2 * len(grid)
        for _, measurement in big.merge().entries:
            assert measurement.packets_sent == 14

    def test_point_level_cache_entries_compose_with_chunked_tails(
            self, tmp_path):
        # Entries written by the historical point-level driver (one chunk
        # at offset 0) must stay readable and merge with chunked tails.
        grid = sweep_grid([3.0, 5.0])
        unchunked = SweepEngine(seed=23)
        legacy = RunDriver.create(tmp_path / "run", unchunked, grid,
                                  num_packets=6, payload_bits_per_packet=16)
        legacy.run_shard(0)

        chunked_engine = SweepEngine(seed=23, chunk_packets=4)
        assert chunked_engine.config_digest() == unchunked.config_digest()
        escalated = RunDriver.create(tmp_path / "run", chunked_engine, grid,
                                     num_packets=14,
                                     payload_bits_per_packet=16)
        report = escalated.run_shard(0)
        assert report.packets_cached == 6 * len(grid)
        assert report.packets_simulated == 8 * len(grid)
        store = escalated.store_for_shard(0)
        for point in grid:
            chunks = store.chunks_for(escalated.manifest.key_for(point))
            assert chunks == {0: 6, 6: 4, 10: 4}

    def test_shard_merge_of_chunked_run_matches_unsharded(self, tmp_path):
        grid = sweep_grid([2.0, 4.0, 6.0, 8.0], adc_bits=(None, 3))
        engine = SweepEngine(seed=29, chunk_packets=3)
        unsharded = RunDriver.create(tmp_path / "one", engine, grid,
                                     num_packets=7,
                                     payload_bits_per_packet=16)
        unsharded.run_shard(0)
        sharded = RunDriver.create(tmp_path / "four", engine, grid,
                                   num_shards=4, num_packets=7,
                                   payload_bits_per_packet=16)
        for shard_index in (3, 1, 0, 2):    # deliberately out of order
            sharded.run_shard(shard_index, max_workers=2)
        assert sharded.is_complete
        assert sharded.merge() == unsharded.merge()

    def test_layout_change_on_existing_run_keeps_cache(self, tmp_path):
        grid = sweep_grid([2.0, 4.0])
        RunDriver.create(tmp_path / "run", SweepEngine(seed=1), grid,
                         num_packets=6, payload_bits_per_packet=16) \
            .run_shard(0)
        relaid = RunDriver.create(tmp_path / "run",
                                  SweepEngine(seed=1, chunk_packets=2),
                                  grid, num_packets=6,
                                  payload_bits_per_packet=16)
        assert relaid.manifest.chunk_packets == 2
        # The layout is coverage, not identity: markers survive and the
        # re-run is pure cache hits.
        assert relaid.run_shard(0).all_cached

    def test_manifest_round_trips_chunk_layout(self, tmp_path):
        from repro.runs import RunManifest
        grid = sweep_grid([2.0])
        RunDriver.create(tmp_path / "run", SweepEngine(seed=2,
                                                       chunk_packets=5),
                         grid, num_packets=10, payload_bits_per_packet=16)
        loaded = RunManifest.load(tmp_path / "run")
        assert loaded.chunk_packets == 5
        reopened = RunDriver.open(tmp_path / "run")
        assert reopened.engine.chunk_packets == 5
