"""Cross-backend store-conformance contract (a library, not a test file).

``StoreConformanceContract`` is the executable specification of the
result-store contract — lookup/coverage/escalation semantics, atomic
multi-chunk ingest, corrupt-input recovery, crash-mid-write behaviour,
concurrent readers.  ``tests/runs/test_store_conformance.py`` subclasses
it once per backend (``format = "jsonl"`` / ``"sqlite"``), so every
backend passes the *same* suite; anything genuinely backend-specific
(how to damage a stored record, how to tear a write) is isolated in the
two ``_corrupt``/``_tear`` helpers that dispatch on ``self.format``.

The module name deliberately does not match ``test_*.py`` so pytest
never collects it directly.
"""

import json
import random
import sqlite3
import warnings

import pytest

from repro.core.metrics import BERPoint
from repro.obs.recorder import Recorder, activate
from repro.runs import ResultStore, measurement_key
from repro.runs.store import SQLITE_FILENAME


def make_point(ebn0_db=4.0, bit_errors=3, total_bits=640, packets_sent=10,
               packets_failed=1) -> BERPoint:
    return BERPoint(ebn0_db=ebn0_db, bit_errors=bit_errors,
                    total_bits=total_bits, packets_sent=packets_sent,
                    packets_failed=packets_failed)


KEY_A = measurement_key("a" * 64, "c" * 64, 64)
KEY_B = measurement_key("b" * 64, "c" * 64, 64)


def fresh_merge(store, key):
    """``(pooled prefix, covered packets)`` merged from the stored chunks
    — the reference the store's memoised prefix must always equal."""
    merged, covered = None, 0
    for chunk in store.stored_chunks(key):
        if chunk.packet_offset != covered:
            break
        covered += chunk.num_packets
        merged = (chunk.measurement if merged is None
                  else merged.merge(chunk.measurement))
    return merged, covered


def backend_counts(recorder, name):
    """The ``name`` counter's values summed per ``backend`` attribute."""
    counts = {}
    for event in recorder.events():
        if event["kind"] == "counter" and event["name"] == name:
            backend = event["attrs"]["backend"]
            counts[backend] = counts.get(backend, 0) + event["value"]
    return counts


class StoreConformanceContract:
    """The store contract; subclass with ``format`` set to a backend."""

    format: str = None

    # -- backend access ------------------------------------------------
    def open_store(self, directory, writer_name="store.jsonl"):
        return ResultStore.open(directory, format=self.format,
                                writer_name=writer_name)

    def _corrupt_stored_record(self, directory, key):
        """Damage ``key``'s stored record so the loader must skip it."""
        if self.format == "jsonl":
            path = directory / "store.jsonl"
            lines = path.read_text().splitlines()
            damaged = [line if json.loads(line)["key"] != key
                       else line[: len(line) // 2]
                       for line in lines]
            path.write_text("\n".join(damaged) + "\n")
        else:
            connection = sqlite3.connect(directory / SQLITE_FILENAME)
            with connection:
                connection.execute(
                    "UPDATE chunks SET bit_errors = total_bits + 999 "
                    "WHERE key = ?", (key,))
            connection.close()

    def _tear_last_write(self, directory):
        """Simulate a crash mid-write after a successful earlier write.

        JSONL: chop the final record in half (a torn ``O_APPEND`` tail).
        SQLite: roll the database back to its pre-write state the way a
        crash before COMMIT would (transactions are all-or-nothing, so
        deleting the last-inserted row models the uncommitted write).
        """
        if self.format == "jsonl":
            path = directory / "store.jsonl"
            text = path.read_text()
            lines = text.splitlines(keepends=True)
            last = lines[-1]
            path.write_text("".join(lines[:-1]) + last[: len(last) // 2])
        else:
            connection = sqlite3.connect(directory / SQLITE_FILENAME)
            with connection:
                connection.execute(
                    "DELETE FROM chunks WHERE rowid = "
                    "(SELECT MAX(rowid) FROM chunks)")
            connection.close()

    # -- round trip ----------------------------------------------------
    def test_add_then_lookup(self, tmp_path):
        store = self.open_store(tmp_path)
        measurement = make_point()
        store.add_chunk(KEY_A, 0, measurement)
        assert store.lookup(KEY_A, 10) == measurement
        assert store.lookup(KEY_B, 10) is None
        assert KEY_A in store and KEY_B not in store
        assert store.format == self.format

    def test_persists_across_instances(self, tmp_path):
        first = self.open_store(tmp_path)
        first.add_chunk(KEY_A, 0, make_point())
        first.close()
        reloaded = self.open_store(tmp_path)
        assert reloaded.lookup(KEY_A, 10) == make_point()
        assert reloaded.corrupt_records == 0
        reloaded.close()

    def test_open_detects_format_without_argument(self, tmp_path):
        store = self.open_store(tmp_path)
        store.add_chunk(KEY_A, 0, make_point())
        store.close()
        detected = ResultStore.open(tmp_path)
        assert detected.format == self.format
        assert detected.lookup(KEY_A, 10) == make_point()
        detected.close()

    # -- coverage / escalation -----------------------------------------
    def test_lookup_misses_when_coverage_short(self, tmp_path):
        store = self.open_store(tmp_path)
        store.add_chunk(KEY_A, 0, make_point(packets_sent=10))
        assert store.lookup(KEY_A, 11) is None
        assert store.coverage(KEY_A) == 10

    def test_escalation_chunks_pool(self, tmp_path):
        store = self.open_store(tmp_path)
        store.add_chunk(KEY_A, 0, make_point(bit_errors=3, total_bits=640,
                                             packets_sent=10,
                                             packets_failed=1))
        store.add_chunk(KEY_A, 10, make_point(bit_errors=5, total_bits=1280,
                                              packets_sent=20,
                                              packets_failed=2))
        pooled = store.lookup(KEY_A, 30)
        assert pooled == make_point(bit_errors=8, total_bits=1920,
                                    packets_sent=30, packets_failed=3)
        # A smaller request pools the same full prefix.
        assert store.lookup(KEY_A, 10) == pooled

    def test_gap_blocks_contiguity(self, tmp_path):
        store = self.open_store(tmp_path)
        store.add_chunk(KEY_A, 0, make_point(packets_sent=10))
        store.add_chunk(KEY_A, 20, make_point(packets_sent=10))
        assert store.coverage(KEY_A) == 10
        assert store.lookup(KEY_A, 20) is None
        # But the stranded chunk is visible to resume logic.
        assert store.chunks_for(KEY_A) == {0: 10, 20: 10}

    def test_memoised_prefix_tracks_adds_and_reloads(self, tmp_path):
        store = self.open_store(tmp_path)
        store.add_chunk(KEY_A, 0, make_point(bit_errors=1))
        store.add_chunk(KEY_A, 20, make_point(bit_errors=2))
        assert store.lookup(KEY_A, 10) == make_point(bit_errors=1)
        assert store._merge_prefix(KEY_A) == fresh_merge(store, KEY_A)
        # Filling the gap extends the memoised prefix past it.
        store.add_chunk(KEY_A, 10, make_point(bit_errors=4))
        assert store._merge_prefix(KEY_A) == fresh_merge(store, KEY_A)
        assert store.pooled(KEY_A) == make_point(
            bit_errors=7, total_bits=1920, packets_sent=30,
            packets_failed=3)
        # A second writer's chunk shows up after reload.
        other = self.open_store(tmp_path, writer_name="other.jsonl")
        other.add_chunk(KEY_A, 30, make_point(bit_errors=5))
        other.close()
        store.reload()
        assert store._merge_prefix(KEY_A) == fresh_merge(store, KEY_A)
        assert store.coverage(KEY_A) == 40
        assert store.lookup(KEY_A, 40).bit_errors == 12
        store.close()

    def test_keys_sorted(self, tmp_path):
        store = self.open_store(tmp_path)
        store.add_chunk(KEY_B, 0, make_point())
        store.add_chunk(KEY_A, 0, make_point())
        assert store.keys() == tuple(sorted((KEY_A, KEY_B)))
        assert len(store) == 2

    # -- write semantics -----------------------------------------------
    def test_duplicate_chunk_is_idempotent(self, tmp_path):
        store = self.open_store(tmp_path)
        store.add_chunk(KEY_A, 0, make_point())
        store.add_chunk(KEY_A, 0, make_point())
        store.reload()
        assert store.lookup(KEY_A, 10) == make_point()
        assert store.chunks_for(KEY_A) == {0: 10}

    def test_conflicting_chunk_rejected(self, tmp_path):
        store = self.open_store(tmp_path)
        store.add_chunk(KEY_A, 0, make_point(bit_errors=3))
        with pytest.raises(ValueError, match="different measurement"):
            store.add_chunk(KEY_A, 0, make_point(bit_errors=4))

    def test_shuffled_ingest_reads_back_in_offset_order(self, tmp_path):
        store = self.open_store(tmp_path)
        in_order = [10 * index for index in range(500)]
        shuffled = list(in_order)
        random.Random(5).shuffle(shuffled)
        items = [(KEY_A, offset, make_point(bit_errors=offset % 7))
                 for offset in shuffled]
        for start in range(0, len(items), 50):
            store.add_chunks(items[start:start + 50])
        assert [chunk.packet_offset
                for chunk in store.stored_chunks(KEY_A)] == in_order
        assert list(store.chunks_for(KEY_A)) == in_order
        assert store.coverage(KEY_A) == 5000
        assert store._merge_prefix(KEY_A) == fresh_merge(store, KEY_A)
        # Replays stay idempotent; a conflicting replay still raises.
        replayed = store.add_chunks(items[:50])
        assert [chunk.packet_offset for chunk in replayed] == shuffled[:50]
        assert len(store.stored_chunks(KEY_A)) == 500
        with pytest.raises(ValueError, match="different measurement"):
            store.add_chunk(KEY_A, shuffled[7], make_point(bit_errors=99))
        store.close()
        reloaded = self.open_store(tmp_path)
        assert [chunk.packet_offset
                for chunk in reloaded.stored_chunks(KEY_A)] == in_order
        assert reloaded.coverage(KEY_A) == 5000
        reloaded.close()

    def test_batch_ingest_is_atomic(self, tmp_path):
        store = self.open_store(tmp_path)
        store.add_chunk(KEY_A, 0, make_point(bit_errors=3))
        batch = [(KEY_B, 0, make_point()),
                 (KEY_A, 0, make_point(bit_errors=4)),   # conflict
                 (KEY_A, 10, make_point())]
        with pytest.raises(ValueError, match="different measurement"):
            store.add_chunks(batch)
        # Nothing from the failed batch landed — in memory or on disk.
        assert KEY_B not in store
        assert store.chunks_for(KEY_A) == {0: 10}
        store.close()
        reloaded = self.open_store(tmp_path)
        assert KEY_B not in reloaded
        assert reloaded.chunks_for(KEY_A) == {0: 10}
        reloaded.close()

    def test_batch_ingest_lands_together(self, tmp_path):
        store = self.open_store(tmp_path)
        chunks = store.add_chunks([
            (KEY_A, 0, make_point()), (KEY_A, 10, make_point()),
            (KEY_B, 0, make_point(ebn0_db=8.0))])
        assert [chunk.packet_offset for chunk in chunks] == [0, 10, 0]
        store.close()
        reloaded = self.open_store(tmp_path)
        assert reloaded.chunks_for(KEY_A) == {0: 10, 10: 10}
        assert reloaded.lookup(KEY_B, 10) == make_point(ebn0_db=8.0)
        reloaded.close()

    # -- damage tolerance ----------------------------------------------
    def test_corrupt_record_skipped_counted_and_warned(self, tmp_path):
        store = self.open_store(tmp_path)
        store.add_chunk(KEY_A, 0, make_point())
        store.add_chunk(KEY_B, 0, make_point(ebn0_db=8.0))
        store.close()
        self._corrupt_stored_record(tmp_path, KEY_A)
        recorder = Recorder()
        with activate(recorder), \
                pytest.warns(UserWarning,
                             match="corrupt result-store record"):
            reloaded = self.open_store(tmp_path)
        assert reloaded.corrupt_records == 1
        assert reloaded.lookup(KEY_A, 10) is None
        assert reloaded.lookup(KEY_B, 10) == make_point(ebn0_db=8.0)
        assert recorder.counter_totals()["store.corrupt_lines"] == 1
        assert backend_counts(recorder, "store.corrupt_lines") \
            == {self.format: 1}
        reloaded.close()

    def test_crash_mid_write_loses_at_most_last_record(self, tmp_path):
        store = self.open_store(tmp_path)
        store.add_chunk(KEY_A, 0, make_point())
        store.add_chunk(KEY_B, 0, make_point(ebn0_db=8.0))
        store.close()
        self._tear_last_write(tmp_path)
        with warnings.catch_warnings():
            # JSONL warns about the torn tail line; SQLite has no
            # partial record at all.
            warnings.simplefilter("ignore")
            reloaded = self.open_store(tmp_path)
        # The earlier record is intact; the torn one is gone (JSONL: a
        # skipped partial line; SQLite: an uncommitted transaction).
        assert reloaded.lookup(KEY_A, 10) == make_point()
        assert reloaded.lookup(KEY_B, 10) is None
        # The store recovers by re-simulating: re-adding works.
        reloaded.add_chunk(KEY_B, 0, make_point(ebn0_db=8.0))
        assert reloaded.lookup(KEY_B, 10) == make_point(ebn0_db=8.0)
        reloaded.close()

    # -- concurrent readers --------------------------------------------
    def test_second_reader_sees_committed_chunks(self, tmp_path):
        writer = self.open_store(tmp_path)
        writer.add_chunk(KEY_A, 0, make_point())
        reader = self.open_store(tmp_path)
        assert reader.lookup(KEY_A, 10) == make_point()
        writer.add_chunk(KEY_A, 10, make_point())
        reader.reload()
        assert reader.coverage(KEY_A) == 20
        writer.close()
        reader.close()

    # -- telemetry attribution -----------------------------------------
    def test_counters_carry_backend_attribute(self, tmp_path):
        recorder = Recorder()
        with activate(recorder):
            store = self.open_store(tmp_path)
            store.add_chunk(KEY_A, 0, make_point())
            assert store.lookup(KEY_A, 10) is not None
            assert store.lookup(KEY_B, 10) is None
            store.close()
        for name in ("store.chunks_added", "store.lookup_hits",
                     "store.lookup_misses"):
            assert backend_counts(recorder, name) == {self.format: 1}, name
        # Name-keyed totals (what reports render) are unchanged.
        assert recorder.counter_totals()["store.chunks_added"] == 1
