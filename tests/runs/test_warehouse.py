"""Warehouse suite: ETL migration, compaction/GC, queries, validation.

The two acceptance criteria from the warehouse PR are pinned here:

* migrating a populated JSONL store to SQLite yields a **bit-identical
  lookup for every key** (multi-run, multi-escalation), and
* ``store gc`` never removes a chunk that any live ``(key,
  num_packets)`` lookup depends on.

Plus the fault-injection end-to-end: a :class:`repro.runs.RunDriver`
run on the SQLite backend that loses a chunk mid-shard resumes by
re-running exactly the missing chunk and merges bit-identical to an
unfaulted run on the JSONL backend.
"""

import sqlite3
from contextlib import closing

import pytest

from store_contract import fresh_merge, make_point

import repro.sim.engine as engine_module
from repro.core.metrics import BERPoint
from repro.runs import (ResultStore, RunDriver, RunManifest, gc_store,
                        measurement_key, migrate_run, migrate_store,
                        query_store, validate_store)
from repro.runs.store import SQLITE_FILENAME, detect_store_format
from repro.sim import SweepEngine, sweep_grid


def _all_lookups(store, keys, max_packets=64):
    """Every (key, num_packets) -> lookup answer, the equivalence probe."""
    return {(key, requested): store.lookup(key, requested)
            for key in keys for requested in range(1, max_packets + 1)}


def _registered_run_names(store):
    """Names of the runs the warehouse retains, most recent first."""
    with closing(sqlite3.connect(store.database_path)) as connection:
        return [name for name, in connection.execute(
            "SELECT name FROM runs ORDER BY run_id DESC")]


# ----------------------------------------------------------------------
# ETL: JSONL -> SQLite migration
# ----------------------------------------------------------------------
class TestMigration:
    def _populated_run(self, run_dir):
        """A run with escalated (multi-chunk) keys plus a second run's
        shard file in the same store (a foreign config digest)."""
        grid = sweep_grid([2.0, 4.0])
        engine = SweepEngine(seed=11, chunk_packets=3)
        RunDriver.create(run_dir, engine, grid, num_packets=6,
                         payload_bits_per_packet=16).run_shard(0)
        driver = RunDriver.create(run_dir, engine, grid, num_packets=9,
                                  payload_bits_per_packet=16)
        driver.run_shard(0)  # escalation: every key now holds 3 chunks
        other = ResultStore(run_dir / "store", writer_name="other.jsonl")
        foreign = measurement_key("f" * 64, "d" * 64, 16)
        other.add_chunks([
            (foreign, 0, make_point(ebn0_db=3.0, packets_sent=4,
                                    total_bits=64, bit_errors=1)),
            (foreign, 4, make_point(ebn0_db=3.0, packets_sent=4,
                                    total_bits=64, bit_errors=2,
                                    packets_failed=2))])
        return grid, driver, foreign

    def test_migrated_lookups_bit_identical_for_every_key(self, tmp_path):
        run_dir = tmp_path / "run"
        grid, driver, foreign = self._populated_run(run_dir)
        source = ResultStore(run_dir / "store")
        keys = source.keys()
        assert len(keys) == len(grid) + 1
        assert all(len(source.chunks_for(key)) >= 2 for key in keys)
        before_lookups = _all_lookups(source, keys)
        before_chunks = {key: source.chunks_for(key) for key in keys}
        before_merge = driver.merge()

        report = migrate_run(run_dir)
        assert report.chunks_copied == report.chunks > 0
        assert "manifest store_format set to sqlite" in report.summary()

        assert RunManifest.load(run_dir).store_format == "sqlite"
        migrated = ResultStore.open(run_dir / "store")
        assert migrated.format == "sqlite"
        assert migrated.keys() == keys
        assert _all_lookups(migrated, keys) == before_lookups
        assert {key: migrated.chunks_for(key)
                for key in keys} == before_chunks
        migrated.close()

        # The migrated run re-opens on the sqlite backend and a re-run
        # is pure cache hits with a bit-identical merge.
        rerun = RunDriver.create(run_dir,
                                 SweepEngine(seed=11, chunk_packets=3),
                                 grid, num_packets=9,
                                 payload_bits_per_packet=16)
        assert rerun.manifest.store_format == "sqlite"
        assert rerun.run_shard(0).all_cached
        assert rerun.merge() == before_merge

    def test_migrate_run_populates_query_metadata(self, tmp_path):
        run_dir = tmp_path / "run"
        grid, driver, _ = self._populated_run(run_dir)
        migrate_run(run_dir)
        store = ResultStore.open(run_dir / "store")
        try:
            assert _registered_run_names(store) == [driver.manifest.name]
            result = query_store(
                store, config_digest=driver.manifest.config_digest)
            assert len(result.entries) == len(grid)
            assert result.curves() == driver.merge().curves()
        finally:
            store.close()

    def test_dry_run_writes_nothing(self, tmp_path):
        run_dir = tmp_path / "run"
        self._populated_run(run_dir)
        report = migrate_run(run_dir, dry_run=True)
        assert report.dry_run
        assert report.chunks_copied == report.chunks > 0
        assert "would copy" in report.summary()
        assert not (run_dir / "store" / SQLITE_FILENAME).exists()
        assert RunManifest.load(run_dir).store_format == "jsonl"

    def test_migration_is_idempotent(self, tmp_path):
        store = ResultStore(tmp_path)
        key = measurement_key("a" * 64, "c" * 64, 64)
        store.add_chunk(key, 0, make_point())
        first = migrate_store(tmp_path)
        assert (first.chunks_copied, first.chunks_already) == (1, 0)
        again = migrate_store(tmp_path)
        assert (again.chunks_copied, again.chunks_already) == (0, 1)
        rediff = migrate_store(tmp_path, dry_run=True)
        assert (rediff.chunks_copied, rediff.chunks_already) == (0, 1)

    def test_remove_jsonl_after_verification(self, tmp_path):
        store = ResultStore(tmp_path)
        key = measurement_key("a" * 64, "c" * 64, 64)
        store.add_chunk(key, 0, make_point())
        report = migrate_store(tmp_path, remove_jsonl=True)
        assert report.removed_files == 1
        assert not list(tmp_path.glob("*.jsonl"))
        assert detect_store_format(tmp_path) == "sqlite"
        assert ResultStore.open(tmp_path).lookup(key, 10) == make_point()


# ----------------------------------------------------------------------
# Compaction / garbage collection
# ----------------------------------------------------------------------
class TestGarbageCollection:
    def _store_with_runs(self, directory):
        """Four keys across two registered runs (plus one orphan key)."""
        store = ResultStore.open(directory, format="sqlite")
        keys = {name: measurement_key(name * 32, "c" * 64, 64)
                for name in ("aa", "bb", "cc", "dd")}
        for index, key in enumerate(sorted(keys.values())):
            store.add_chunks([
                (key, 0, make_point(bit_errors=index + 1)),
                (key, 10, make_point(bit_errors=index + 2,
                                     packets_failed=2)),
                (key, 20, make_point(bit_errors=index, packets_failed=0))])
        store.register_run("old", "g1" * 32, 30,
                           [keys["aa"], keys["bb"]])
        store.register_run("new", "g2" * 32, 30,
                           [keys["bb"], keys["cc"]])
        return store, keys

    def test_gc_requires_sqlite(self, tmp_path):
        store = ResultStore(tmp_path)
        with pytest.raises(ValueError, match="store migrate"):
            gc_store(store)

    def test_compaction_never_changes_a_live_lookup(self, tmp_path):
        store, keys = self._store_with_runs(tmp_path)
        before = _all_lookups(store, store.keys())
        report = gc_store(store)  # no retention policy: everything live
        assert report.keys_dropped == 0
        assert report.chunks_compacted == 4 * 3
        assert _all_lookups(store, store.keys()) == before
        # The prefix is now one pooled row per key.
        for key in keys.values():
            assert store.chunks_for(key) == {0: 30}

    def test_memoised_prefix_matches_fresh_merge_after_gc(self, tmp_path):
        store, keys = self._store_with_runs(tmp_path)
        _all_lookups(store, store.keys())  # memoise every prefix
        gc_store(store, keep_runs=1)
        for key in keys.values():
            assert store._merge_prefix(key) == fresh_merge(store, key)
        reopened = ResultStore.open(tmp_path, format="sqlite")
        assert _all_lookups(reopened, keys.values()) \
            == _all_lookups(store, keys.values())
        reopened.close()

    def test_keep_runs_drops_only_dead_keys(self, tmp_path):
        store, keys = self._store_with_runs(tmp_path)
        live_keys = (keys["bb"], keys["cc"])
        before = _all_lookups(store, live_keys)
        report = gc_store(store, keep_runs=1)
        # "aa" (only the old run) and "dd" (no run at all) are gone;
        # every lookup a retained run depends on is untouched.
        assert report.keys_dropped == 2
        assert report.runs_dropped == 1
        assert store.keys() == tuple(sorted(live_keys))
        assert _all_lookups(store, live_keys) == before
        assert store.lookup(keys["aa"], 1) is None
        assert _registered_run_names(store) == ["new"]

    def test_protected_keys_survive_retention(self, tmp_path):
        store, keys = self._store_with_runs(tmp_path)
        report = gc_store(store, keep_runs=1,
                          protected_keys=[keys["dd"]])
        assert report.keys_dropped == 1  # only "aa"
        assert keys["dd"] in store.keys()

    def test_dry_run_reports_without_writing(self, tmp_path):
        store, keys = self._store_with_runs(tmp_path)
        before = _all_lookups(store, store.keys())
        report = gc_store(store, keep_runs=1, dry_run=True)
        assert report.dry_run
        assert report.keys_dropped == 2
        assert "would drop" in report.summary()
        store.reload()
        assert len(store.keys()) == 4
        assert _all_lookups(store, store.keys()) == before

    def test_stranded_chunks_kept_by_default(self, tmp_path):
        store = ResultStore.open(tmp_path, format="sqlite")
        key = measurement_key("a" * 64, "c" * 64, 64)
        store.add_chunk(key, 0, make_point())
        store.add_chunk(key, 20, make_point())  # beyond the gap
        gc_store(store)
        assert store.chunks_for(key) == {0: 10, 20: 10}
        report = gc_store(store, drop_stranded=True)
        assert report.stranded_dropped == 1
        assert store.chunks_for(key) == {0: 10}
        assert store.lookup(key, 10) == make_point()

    def test_gc_reclaims_disk_space(self, tmp_path):
        store, _ = self._store_with_runs(tmp_path)
        report = gc_store(store, keep_runs=1)
        assert report.bytes_before > 0
        assert report.bytes_after < report.bytes_before

    def test_empty_registry_keeps_every_key(self, tmp_path):
        store = ResultStore.open(tmp_path, format="sqlite")
        key = measurement_key("a" * 64, "c" * 64, 64)
        store.add_chunk(key, 0, make_point())
        report = gc_store(store, keep_runs=1)
        assert report.keys_dropped == 0
        assert store.lookup(key, 10) == make_point()


# ----------------------------------------------------------------------
# Cross-run queries
# ----------------------------------------------------------------------
class TestQuery:
    def _queryable_run(self, tmp_path):
        grid = sweep_grid([2.0, 4.0, 6.0])
        driver = RunDriver.create(tmp_path / "run", SweepEngine(seed=7),
                                  grid, num_packets=6,
                                  payload_bits_per_packet=16,
                                  store_format="sqlite")
        driver.run_shard(0)
        return grid, driver, driver.open_store()

    def test_query_requires_sqlite(self, tmp_path):
        store = ResultStore(tmp_path)
        with pytest.raises(ValueError, match="store migrate"):
            query_store(store)

    def test_unfiltered_query_matches_driver_merge(self, tmp_path):
        grid, driver, store = self._queryable_run(tmp_path)
        try:
            result = query_store(store)
            assert len(result.entries) == len(grid)
            assert result.curves() == driver.merge().curves()
            assert "3 point(s)" in result.summary()
        finally:
            store.close()

    def test_filters_narrow_the_result(self, tmp_path):
        grid, driver, store = self._queryable_run(tmp_path)
        try:
            banded = query_store(store, ebn0_min=3.0, ebn0_max=5.0)
            assert [entry["ebn0_db"] for entry in banded.entries] == [4.0]
            scenario = query_store(store, scenarios=["awgn"],
                                   modulations=["bpsk"])
            assert len(scenario.entries) == len(grid)
            assert query_store(store, scenarios=["cm1"]).entries == ()
            prefix = query_store(
                store, config_digest=driver.manifest.config_digest[:12])
            assert len(prefix.entries) == len(grid)
            assert query_store(store, config_digest="0123abc").entries == ()
            assert query_store(store, min_packets=7).entries == ()
        finally:
            store.close()

    def test_query_pools_escalations_across_reruns(self, tmp_path):
        grid, driver, store = self._queryable_run(tmp_path)
        store.close()
        escalated = RunDriver.create(tmp_path / "run", SweepEngine(seed=7),
                                     grid, num_packets=10,
                                     payload_bits_per_packet=16)
        escalated.run_shard(0)
        store = escalated.open_store()
        try:
            result = query_store(store)
            assert all(entry["measurement"].packets_sent == 10
                       for entry in result.entries)
            assert result.curves() == escalated.merge().curves()
        finally:
            store.close()


# ----------------------------------------------------------------------
# Escalation-consistency validation
# ----------------------------------------------------------------------
class TestValidation:
    def test_consistent_store_is_clean(self, tmp_path):
        store = ResultStore.open(tmp_path, format="sqlite")
        key = measurement_key("a" * 64, "c" * 64, 64)
        store.add_chunks([
            (key, 0, make_point(bit_errors=5, total_bits=6400,
                                packets_sent=100)),
            (key, 100, make_point(bit_errors=6, total_bits=6400,
                                  packets_sent=100))])
        assert validate_store(store) == ()

    def test_inconsistent_chunk_is_flagged(self, tmp_path):
        store = ResultStore.open(tmp_path, format="sqlite")
        key = measurement_key("a" * 64, "c" * 64, 64)
        clean = measurement_key("b" * 64, "c" * 64, 64)
        store.add_chunks([
            (key, 0, make_point(bit_errors=5, total_bits=64000,
                                packets_sent=1000)),
            (key, 1000, make_point(bit_errors=4800, total_bits=64000,
                                   packets_sent=1000,
                                   packets_failed=900)),
            (clean, 0, make_point(bit_errors=3, total_bits=64000,
                                  packets_sent=1000)),
            (clean, 1000, make_point(bit_errors=4, total_bits=64000,
                                     packets_sent=1000))])
        findings = validate_store(store)
        # The test is symmetric: both of the impossible pair flag, the
        # consistent key stays silent.
        assert {finding.key for finding in findings} == {key}
        assert {finding.packet_offset
                for finding in findings} == {0, 1000}
        worst = findings[0]
        assert worst.p_value < 1e-6
        assert key[:12] in worst.describe()

    def test_single_chunk_keys_are_skipped(self, tmp_path):
        store = ResultStore(tmp_path)  # works on either backend
        key = measurement_key("a" * 64, "c" * 64, 64)
        store.add_chunk(key, 0, make_point(bit_errors=640,
                                           total_bits=640,
                                           packets_failed=10))
        assert validate_store(store) == ()


# ----------------------------------------------------------------------
# Fault injection end-to-end on the SQLite backend
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


class TestSQLiteFaultResume:
    def test_resume_reruns_only_missing_chunks_and_matches_jsonl(
            self, tmp_path, chunk_hook):
        grid = sweep_grid([2.0, 4.0])
        reference = RunDriver.create(tmp_path / "ref",
                                     SweepEngine(seed=11, chunk_packets=3),
                                     grid, num_packets=9,
                                     payload_bits_per_packet=16,
                                     store_format="jsonl")
        reference.run_shard(0)

        chunk_hook(_poison(4.0, 3))
        faulted = RunDriver.create(tmp_path / "run",
                                   SweepEngine(seed=11, chunk_packets=3),
                                   grid, num_packets=9,
                                   payload_bits_per_packet=16,
                                   store_format="sqlite")
        with pytest.raises(RuntimeError, match="injected chunk fault"):
            faulted.run_shard(0, max_workers=2)
        assert faulted.pending_shards() == (0,)

        # Every completed chunk was committed before the failure
        # propagated: the whole clean point plus the faulted point's
        # survivors are durable rows in the warehouse.
        store = faulted.open_store()
        key_clean = faulted.manifest.key_for(grid[0])
        key_faulted = faulted.manifest.key_for(grid[1])
        assert store.chunks_for(key_clean) == {0: 3, 3: 3, 6: 3}
        assert store.chunks_for(key_faulted) == {0: 3, 6: 3}
        store.close()

        chunk_hook(None)
        resumed = RunDriver.open(tmp_path / "run")
        assert resumed.manifest.store_format == "sqlite"
        report, = [resumed.run_shard(index, max_workers=2)
                   for index in resumed.pending_shards()]
        # Exactly the one missing chunk is simulated on resume, and the
        # merged sweep is bit-identical to the unfaulted JSONL run.
        assert report.chunks_simulated == 1
        assert report.packets_simulated == 3
        assert resumed.is_complete
        assert resumed.merge() == reference.merge()


# ----------------------------------------------------------------------
# Single-writer enforcement: a locked warehouse fails loudly and
# actionably, not with sqlite3's bare "database is locked"
# ----------------------------------------------------------------------
class TestStoreLocked:
    def test_concurrent_writer_gets_actionable_error(self, tmp_path):
        from repro.runs.warehouse import SQLiteResultStore, StoreLockedError

        store = SQLiteResultStore(tmp_path, busy_timeout_s=0.2)
        point = make_point()  # a 10-packet chunk
        key = measurement_key("d" * 64, "c" * 64, 64)
        store.add_chunk(key, 0, point)

        # A competing writer holds the write lock outside our control.
        intruder = sqlite3.connect(store.database_path)
        intruder.execute("BEGIN IMMEDIATE")
        try:
            with pytest.raises(StoreLockedError) as excinfo:
                store.add_chunk(key, 10, point)
            message = str(excinfo.value)
            assert str(tmp_path) in message
            assert "single-writer" in message
            assert "repro serve" in message
        finally:
            intruder.rollback()
            intruder.close()

        # Once the intruder releases the lock, writes flow again.
        store.add_chunk(key, 10, point)
        assert store.coverage(key) == 20
        store.close()
