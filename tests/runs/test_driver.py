"""Tests for the sharded run driver: caching, sharding, resume, merge."""

import dataclasses
import hashlib
import json

import pytest

from repro.runs import ResultStore, RunDriver, RunManifest
from repro.sim import SweepEngine, sweep_grid

GRID_KWARGS = dict(num_packets=6, payload_bits_per_packet=32)


@pytest.fixture
def grid():
    return sweep_grid([2.0, 4.0, 6.0, 8.0], scenarios=("awgn",),
                      adc_bits=(None, 3))


@pytest.fixture
def engine():
    return SweepEngine(generation="gen2", seed=5)


class TestCaching:
    def test_rerun_is_pure_cache_hits(self, tmp_path, grid, engine):
        """Acceptance: an identical re-run performs zero simulation work."""
        driver = RunDriver.create(tmp_path / "run", engine, grid,
                                  **GRID_KWARGS)
        first = driver.run_shard(0)
        assert first.points_simulated == len(grid)
        assert first.points_cached == 0

        simulated = []
        again = RunDriver.create(tmp_path / "run", engine, grid,
                                 **GRID_KWARGS)
        second = again.run_shard(0, on_point=lambda point, m, source:
                                 simulated.append(source))
        assert second.all_cached
        assert second.points_cached == len(grid)
        assert second.packets_simulated == 0
        assert set(simulated) == {"cached"}
        assert again.merge() == driver.merge()

    def test_cached_results_match_plain_engine_run(self, tmp_path, grid,
                                                   engine):
        """The store must be invisible: driver results == SweepEngine.run."""
        driver = RunDriver.create(tmp_path / "run", engine, grid,
                                  **GRID_KWARGS)
        driver.run_shard(0)
        direct = engine.run(grid, **GRID_KWARGS)
        assert driver.merge() == direct

    def test_different_seed_is_a_different_cache(self, tmp_path, grid):
        RunDriver.create(tmp_path / "a", SweepEngine(seed=1), grid,
                         **GRID_KWARGS).run_shard(0)
        other = RunDriver.create(tmp_path / "a2", SweepEngine(seed=2), grid,
                                 **GRID_KWARGS)
        report = other.run_shard(0)
        assert report.points_cached == 0
        assert other.manifest.config_digest != \
            RunManifest.load(tmp_path / "a").config_digest

    def test_escalation_reuses_partial_counts(self, tmp_path, grid, engine):
        small = RunDriver.create(tmp_path / "run", engine, grid,
                                 num_packets=6, payload_bits_per_packet=32)
        small.run_shard(0)
        assert small.is_complete
        # Re-creating the same run with a bigger packet budget is
        # escalation: completion markers are invalidated, and re-running
        # simulates only each point's missing tail chunk on top of the
        # cached counts.
        big = RunDriver.create(tmp_path / "run", engine, grid,
                               num_packets=10, payload_bits_per_packet=32)
        assert big.manifest.num_packets == 10
        assert not big.is_complete
        report = big.run_shard(0)
        assert report.points_simulated == len(grid)
        assert report.packets_simulated == 4 * len(grid)
        assert report.packets_cached == 6 * len(grid)
        for _, measurement in big.merge().entries:
            assert measurement.packets_sent == 10
            assert measurement.total_bits == 10 * 32
        # Dropping back to the small budget is served by the pooled
        # cache — zero simulation work, measurements keep all 10 packets.
        again = RunDriver.create(tmp_path / "run", engine, grid,
                                 num_packets=6, payload_bits_per_packet=32)
        assert again.run_shard(0).all_cached

    def test_workers_match_serial(self, tmp_path, grid, engine):
        serial = RunDriver.create(tmp_path / "s", engine, grid,
                                  **GRID_KWARGS)
        serial.run_shard(0)
        threaded = RunDriver.create(tmp_path / "t", engine, grid,
                                    **GRID_KWARGS)
        threaded.run_shard(0, max_workers=4)
        assert serial.merge() == threaded.merge()


class TestSharding:
    def test_shard_merge_is_bit_identical_to_unsharded(self, tmp_path, grid,
                                                       engine):
        """Acceptance: a 4-shard run merges bit-for-bit with an unsharded
        one, whatever order the shards execute in."""
        unsharded = RunDriver.create(tmp_path / "one", engine, grid,
                                     **GRID_KWARGS)
        unsharded.run_shard(0)

        sharded = RunDriver.create(tmp_path / "four", engine, grid,
                                   num_shards=4, **GRID_KWARGS)
        for shard_index in (2, 0, 3, 1):   # deliberately out of order
            sharded.run_shard(shard_index)
        assert sharded.is_complete
        assert sharded.merge() == unsharded.merge()

    def test_shards_partition_the_grid(self, grid, engine, tmp_path):
        driver = RunDriver.create(tmp_path / "run", engine, grid,
                                  num_shards=3, **GRID_KWARGS)
        owned = [driver.manifest.points_for_shard(index)
                 for index in range(3)]
        flattened = [point for shard in owned for point in shard]
        assert sorted(map(repr, flattened)) == sorted(map(repr, grid))
        assert abs(len(owned[0]) - len(owned[-1])) <= 1

    def test_merge_strict_requires_all_shards(self, tmp_path, grid, engine):
        driver = RunDriver.create(tmp_path / "run", engine, grid,
                                  num_shards=4, **GRID_KWARGS)
        driver.run_shard(1)
        with pytest.raises(ValueError, match="not fully measured"):
            driver.merge()
        partial = driver.merge(strict=False)
        assert len(partial.entries) == len(
            driver.manifest.points_for_shard(1))

    def test_shard_index_out_of_range(self, tmp_path, grid, engine):
        driver = RunDriver.create(tmp_path / "run", engine, grid,
                                  num_shards=2, **GRID_KWARGS)
        with pytest.raises(ValueError, match="out of range"):
            driver.run_shard(2)


class TestResume:
    def test_crash_resume_from_partial_manifest(self, tmp_path, grid,
                                                engine):
        """Acceptance: a run that died mid-shard resumes from the manifest
        plus whatever reached the store, without redoing finished work."""
        reference = RunDriver.create(tmp_path / "ref", engine, grid,
                                     **GRID_KWARGS)
        reference.run_shard(0)

        crashed = RunDriver.create(tmp_path / "crashed", engine, grid,
                                   num_shards=2, **GRID_KWARGS)
        crashed.run_shard(0)
        # Simulate a crash in shard 1: some points reached the store, but
        # no completion marker was written.
        store = crashed.store_for_shard(1)
        for point in crashed.manifest.points_for_shard(1)[:2]:
            key = crashed.manifest.key_for(point)
            chunk = engine.measure_point(point, **GRID_KWARGS)
            store.add_chunk(key, 0, chunk)
        assert crashed.pending_shards() == (1,)
        assert crashed.shard_status() == {0: "done", 1: "partial"}

        resumed = RunDriver.open(tmp_path / "crashed")
        report = resumed.run_pending()
        assert resumed.is_complete
        assert report.points_cached == 2         # pre-crash work reused
        assert report.points_simulated == len(
            crashed.manifest.points_for_shard(1)) - 2
        assert resumed.merge() == reference.merge()

    def test_open_rebuilds_engine_from_manifest(self, tmp_path, grid):
        creator = SweepEngine(generation="gen1", seed=9, quantize=False)
        RunDriver.create(tmp_path / "run", creator, grid, **GRID_KWARGS)
        reopened = RunDriver.open(tmp_path / "run")
        assert reopened.engine.config_digest() == creator.config_digest()

    def test_custom_config_run_needs_engine_only_to_simulate(self, tmp_path,
                                                              grid):
        from repro.core.config import Gen2Config
        engine = SweepEngine(config=Gen2Config.fast_test_config(), seed=1)
        created = RunDriver.create(tmp_path / "run", engine, grid,
                                   num_shards=2, **GRID_KWARGS)
        created.run_shard(0)
        # Without the engine the run still reads: keys come from the
        # manifest alone.
        readonly = RunDriver.open(tmp_path / "run")
        assert readonly.engine is None
        assert readonly.merge(strict=False) == created.merge(strict=False)
        assert readonly.shard_status() == {0: "done", 1: "pending"}
        with pytest.raises(ValueError, match="custom base config"):
            readonly.run_shard(1)
        reopened = RunDriver.open(tmp_path / "run", engine=engine)
        assert reopened.manifest.custom_config
        reopened.run_shard(1)
        assert reopened.is_complete

    def test_mismatched_engine_refused(self, tmp_path, grid, engine):
        RunDriver.create(tmp_path / "run", engine, grid, **GRID_KWARGS)
        with pytest.raises(ValueError, match="does not match"):
            RunDriver.open(tmp_path / "run", engine=SweepEngine(seed=99))


class TestManifest:
    def test_roundtrip(self, tmp_path, grid, engine):
        driver = RunDriver.create(tmp_path / "run", engine, grid,
                                  num_shards=2, **GRID_KWARGS)
        loaded = RunManifest.load(tmp_path / "run")
        assert loaded == driver.manifest
        assert loaded.grid_digest() == driver.manifest.grid_digest()
        import repro
        assert loaded.code_version == repro.__version__

    def test_create_refuses_mismatched_existing_run(self, tmp_path, grid,
                                                    engine):
        RunDriver.create(tmp_path / "run", engine, grid, **GRID_KWARGS)
        with pytest.raises(ValueError, match="different run"):
            RunDriver.create(tmp_path / "run", engine, grid[:-1],
                             **GRID_KWARGS)
        with pytest.raises(ValueError, match="shard plan"):
            RunDriver.create(tmp_path / "run", engine, grid, num_shards=2,
                             **GRID_KWARGS)

    @pytest.mark.parametrize("field, value, parsed", [
        ("num_packets", 6.0, 6),
        ("num_packets", 3.7, None),
        ("num_packets", True, None),
        ("num_packets", "6", None),
        ("payload_bits_per_packet", 32.0, 32),
        ("payload_bits_per_packet", 31.5, None),
        ("payload_bits_per_packet", False, None),
        ("num_shards", 1.0, 1),
        ("num_shards", 1.5, None),
        ("num_shards", True, None),
        ("chunk_packets", 4.0, 4),
        ("chunk_packets", 2.5, None),
        ("chunk_packets", True, None),
    ])
    def test_integer_fields_must_be_json_integers(self, tmp_path, grid,
                                                  engine, field, value,
                                                  parsed):
        RunDriver.create(tmp_path / "run", engine, grid, **GRID_KWARGS)
        path = tmp_path / "run" / "manifest.json"
        data = json.loads(path.read_text())
        data[field] = value
        path.write_text(json.dumps(data))
        if parsed is None:
            with pytest.raises(ValueError, match=field):
                RunManifest.load(tmp_path / "run")
        else:
            loaded = RunManifest.load(tmp_path / "run")
            assert getattr(loaded, field) == parsed
            assert type(getattr(loaded, field)) is int

    def test_tampered_manifest_detected(self, tmp_path, grid, engine):
        RunDriver.create(tmp_path / "run", engine, grid, **GRID_KWARGS)
        path = tmp_path / "run" / "manifest.json"
        data = json.loads(path.read_text())
        data["payload_bits_per_packet"] = 999
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="digest mismatch"):
            RunManifest.load(tmp_path / "run")

    def test_manifest_with_numpy_array_backend_opens(self, tmp_path, grid,
                                                     engine):
        # Manifests written before the array-backend field was removed
        # carry "array_backend": "numpy"; they open and merge unchanged.
        driver = RunDriver.create(tmp_path / "run", engine, grid,
                                  **GRID_KWARGS)
        driver.run_shard(0)
        path = tmp_path / "run" / "manifest.json"
        data = json.loads(path.read_text())
        data["array_backend"] = "numpy"
        path.write_text(json.dumps(data))
        reopened = RunDriver.open(tmp_path / "run")
        assert reopened.manifest == driver.manifest
        assert reopened.merge() == engine.run(grid, **GRID_KWARGS)

    def test_manifest_of_another_array_backend_is_refused(self, tmp_path,
                                                          grid, engine):
        # A non-NumPy array backend entered the engine's config digest;
        # such a run matches no engine, and the engine parse
        # (SweepEngine.from_params) refuses it before any digest check.
        driver = RunDriver.create(tmp_path / "run", engine, grid,
                                  **GRID_KWARGS)
        payload = {"seed": 5, "generation": "gen2", "backend": "batch",
                   "quantize": True, "config": ["default", "gen2"],
                   "array_backend": "mirror", "batch_kernel": 3}
        digest = hashlib.sha256(json.dumps(
            payload, sort_keys=True).encode("utf-8")).hexdigest()
        manifest = dataclasses.replace(driver.manifest, config_digest=digest)
        path = tmp_path / "run" / "manifest.json"
        data = json.loads(path.read_text())
        data.update(array_backend="mirror", config_digest=digest,
                    grid_digest=manifest.grid_digest())
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError,
                           match="array_backend must be null or 'numpy'"):
            RunDriver.open(tmp_path / "run")

    def test_corrupted_store_entry_triggers_resimulation(self, tmp_path,
                                                         grid, engine):
        driver = RunDriver.create(tmp_path / "run", engine, grid,
                                  **GRID_KWARGS)
        driver.run_shard(0)
        store_file = next((tmp_path / "run" / "store").glob("*.jsonl"))
        lines = store_file.read_text().strip().split("\n")
        store_file.write_text("\n".join(["corrupt{"] + lines[1:]) + "\n")

        again = RunDriver.create(tmp_path / "run", engine, grid,
                                 **GRID_KWARGS)
        with pytest.warns(UserWarning, match="corrupt result-store record"):
            report = again.run_shard(0)
        assert report.points_simulated == 1     # only the damaged point
        assert report.points_cached == len(grid) - 1
        with pytest.warns(UserWarning, match="corrupt result-store record"):
            merged = again.merge()              # the bad line is still there
        assert merged == engine.run(grid, **GRID_KWARGS)


class TestStoreLayout:
    def test_shards_write_disjoint_files(self, tmp_path, grid, engine):
        driver = RunDriver.create(tmp_path / "run", engine, grid,
                                  num_shards=2, **GRID_KWARGS)
        driver.run_shard(0)
        driver.run_shard(1)
        files = sorted(path.name
                       for path in (tmp_path / "run" / "store").iterdir())
        assert files == ["shard-000-of-002.jsonl", "shard-001-of-002.jsonl"]
        merged = ResultStore(tmp_path / "run" / "store")
        assert len(merged) == len(grid)
