"""Tests for the content-addressed result store."""

import json

import pytest

from repro.core.metrics import BERPoint
from repro.runs import ResultStore, StoredChunk, measurement_key
from repro.runs.store import (
    SQLITE_FILENAME,
    detect_store_format,
    plan_missing_chunks,
)


def make_point(ebn0_db=4.0, bit_errors=3, total_bits=640, packets_sent=10,
               packets_failed=1) -> BERPoint:
    return BERPoint(ebn0_db=ebn0_db, bit_errors=bit_errors,
                    total_bits=total_bits, packets_sent=packets_sent,
                    packets_failed=packets_failed)


KEY_A = measurement_key("a" * 64, "c" * 64, 64)
KEY_B = measurement_key("b" * 64, "c" * 64, 64)


class TestMeasurementKey:
    def test_key_is_content_addressed(self):
        assert KEY_A == measurement_key("a" * 64, "c" * 64, 64)
        assert KEY_A != KEY_B
        assert KEY_A != measurement_key("a" * 64, "d" * 64, 64)
        assert KEY_A != measurement_key("a" * 64, "c" * 64, 128)


class TestRoundTrip:
    def test_add_then_lookup(self, tmp_path):
        store = ResultStore(tmp_path)
        measurement = make_point()
        store.add_chunk(KEY_A, 0, measurement)
        assert store.lookup(KEY_A, 10) == measurement
        assert store.lookup(KEY_B, 10) is None
        assert KEY_A in store and KEY_B not in store

    def test_persists_across_instances(self, tmp_path):
        ResultStore(tmp_path).add_chunk(KEY_A, 0, make_point())
        reloaded = ResultStore(tmp_path)
        assert reloaded.lookup(KEY_A, 10) == make_point()
        assert reloaded.corrupt_records == 0

    def test_lookup_misses_when_coverage_short(self, tmp_path):
        store = ResultStore(tmp_path)
        store.add_chunk(KEY_A, 0, make_point(packets_sent=10))
        assert store.lookup(KEY_A, 11) is None
        assert store.coverage(KEY_A) == 10

    def test_escalation_chunks_pool(self, tmp_path):
        store = ResultStore(tmp_path)
        store.add_chunk(KEY_A, 0, make_point(bit_errors=3, total_bits=640,
                                             packets_sent=10,
                                             packets_failed=1))
        store.add_chunk(KEY_A, 10, make_point(bit_errors=5, total_bits=1280,
                                              packets_sent=20,
                                              packets_failed=2))
        pooled = store.lookup(KEY_A, 30)
        assert pooled == make_point(bit_errors=8, total_bits=1920,
                                    packets_sent=30, packets_failed=3)
        # A smaller request is served by the same pooled prefix.
        assert store.lookup(KEY_A, 10) == pooled

    def test_gap_blocks_contiguity(self, tmp_path):
        store = ResultStore(tmp_path)
        store.add_chunk(KEY_A, 0, make_point(packets_sent=10))
        store.add_chunk(KEY_A, 20, make_point(packets_sent=10))
        assert store.coverage(KEY_A) == 10
        assert store.lookup(KEY_A, 20) is None

    def test_duplicate_chunk_is_idempotent(self, tmp_path):
        store = ResultStore(tmp_path)
        store.add_chunk(KEY_A, 0, make_point())
        store.add_chunk(KEY_A, 0, make_point())
        store.reload()
        assert store.lookup(KEY_A, 10) == make_point()

    def test_conflicting_chunk_rejected(self, tmp_path):
        store = ResultStore(tmp_path)
        store.add_chunk(KEY_A, 0, make_point(bit_errors=3))
        with pytest.raises(ValueError, match="different measurement"):
            store.add_chunk(KEY_A, 0, make_point(bit_errors=4))

    def test_chunks_for_reports_every_stored_chunk(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.chunks_for(KEY_A) == {}
        store.add_chunk(KEY_A, 0, make_point(packets_sent=10))
        # A chunk beyond a coverage gap still shows up — resume logic
        # uses this map to avoid re-running it.
        store.add_chunk(KEY_A, 20, make_point(packets_sent=5))
        assert store.chunks_for(KEY_A) == {0: 10, 20: 5}
        assert store.coverage(KEY_A) == 10


class TestStoredChunkRecord:
    def test_record_roundtrip(self):
        chunk = StoredChunk(key=KEY_A, packet_offset=20,
                            measurement=make_point(packets_sent=7))
        record = json.loads(json.dumps(chunk.to_record()))
        assert StoredChunk.from_record(record) == chunk
        assert chunk.num_packets == 7

    @pytest.mark.parametrize("change, message", [
        ({"schema": 2}, "schema"),
        ({"key": "ab"}, "key"),
        ({"key": 7}, "key"),
        ({"packet_offset": -1}, "packet_offset"),
        ({"packet_offset": 2.0}, "packet_offset"),
        ({"measurement": {"ebn0_db": 4.0}}, "malformed BER point"),
        ({"measurement": make_point(bit_errors=0, total_bits=0,
                                    packets_sent=0,
                                    packets_failed=0).to_dict()},
         "zero packets")])
    def test_malformed_record_raises(self, change, message):
        record = StoredChunk(key=KEY_A, packet_offset=0,
                             measurement=make_point()).to_record()
        record.update(change)
        with pytest.raises(ValueError, match=message):
            StoredChunk.from_record(record)

    def test_non_object_record_raises(self):
        with pytest.raises(ValueError, match="not an object"):
            StoredChunk.from_record([KEY_A, 0])


class TestPlanMissingChunks:
    def test_empty_store_needs_every_chunk(self, tmp_path):
        plan = plan_missing_chunks(ResultStore(tmp_path), KEY_A, 25, 10)
        assert plan.cached is None
        assert plan.missing == ((0, 10), (10, 10), (20, 5))
        assert (plan.covered, plan.resumed, plan.packets_stored) == (0, 0, 0)

    def test_covered_request_is_a_cache_hit(self, tmp_path):
        store = ResultStore(tmp_path)
        store.add_chunk(KEY_A, 0, make_point(packets_sent=10))
        store.add_chunk(KEY_A, 10, make_point(packets_sent=10))
        plan = plan_missing_chunks(store, KEY_A, 15, 10)
        assert plan.cached == store.lookup(KEY_A, 20)
        assert plan.missing == ()
        assert plan.covered == plan.packets_stored == 20

    def test_chunk_stored_beyond_a_gap_is_not_rerun(self, tmp_path):
        store = ResultStore(tmp_path)
        store.add_chunk(KEY_A, 0, make_point(packets_sent=10))
        store.add_chunk(KEY_A, 20, make_point(packets_sent=10))
        plan = plan_missing_chunks(store, KEY_A, 40, 10)
        assert plan.missing == ((10, 10), (30, 10))
        assert (plan.covered, plan.resumed, plan.packets_stored) == \
            (10, 1, 20)

    def test_chunk_of_another_layout_is_rerun(self, tmp_path):
        # A stored span only counts when it is exactly a span of the
        # requested layout.
        store = ResultStore(tmp_path)
        store.add_chunk(KEY_A, 20, make_point(packets_sent=5))
        plan = plan_missing_chunks(store, KEY_A, 30, 10)
        assert plan.missing == ((0, 10), (10, 10), (20, 10))
        assert plan.resumed == 0

    def test_unchunked_layout_is_one_span(self, tmp_path):
        store = ResultStore(tmp_path)
        store.add_chunk(KEY_A, 0, make_point(packets_sent=10))
        plan = plan_missing_chunks(store, KEY_A, 50, None)
        assert plan.missing == ((10, 40),)


class TestDetectStoreFormat:
    def test_empty_or_missing_directory_has_no_format(self, tmp_path):
        assert detect_store_format(tmp_path) is None
        assert detect_store_format(tmp_path / "absent") is None

    def test_jsonl_files_make_a_jsonl_store(self, tmp_path):
        ResultStore(tmp_path).add_chunk(KEY_A, 0, make_point())
        assert detect_store_format(tmp_path) == "jsonl"

    def test_sqlite_file_wins_over_jsonl_files(self, tmp_path):
        ResultStore(tmp_path).add_chunk(KEY_A, 0, make_point())
        (tmp_path / SQLITE_FILENAME).write_bytes(b"")
        assert detect_store_format(tmp_path) == "sqlite"


class TestMultiWriter:
    def test_all_jsonl_files_load(self, tmp_path):
        """Shards appending to distinct files share one directory."""
        shard0 = ResultStore(tmp_path, writer_name="shard-0.jsonl")
        shard1 = ResultStore(tmp_path, writer_name="shard-1.jsonl")
        shard0.add_chunk(KEY_A, 0, make_point())
        shard1.add_chunk(KEY_B, 0, make_point(ebn0_db=8.0))
        merged = ResultStore(tmp_path)
        assert merged.lookup(KEY_A, 10) is not None
        assert merged.lookup(KEY_B, 10) is not None
        assert set(merged.keys()) == {KEY_A, KEY_B}

    def test_writer_name_must_be_jsonl(self, tmp_path):
        with pytest.raises(ValueError, match="jsonl"):
            ResultStore(tmp_path, writer_name="store.db")


class TestCorruptionRecovery:
    def test_corrupt_lines_are_skipped_not_fatal(self, tmp_path):
        store = ResultStore(tmp_path)
        store.add_chunk(KEY_A, 0, make_point())
        path = tmp_path / "store.jsonl"
        good_line = path.read_text()
        with open(path, "a") as handle:
            handle.write("{not json at all\n")            # garbage
            handle.write(good_line.strip()[:-8] + "\n")   # truncated record
            handle.write('{"schema": 99, "key": "x"}\n')  # wrong schema
        with open(path, "a") as handle:                   # one more good one
            handle.write(json.dumps(StoredChunk(
                key=KEY_B, packet_offset=0,
                measurement=make_point(ebn0_db=8.0)).to_record()) + "\n")
        with pytest.warns(UserWarning, match="corrupt result-store record"):
            reloaded = ResultStore(tmp_path)
        assert reloaded.corrupt_records == 3
        assert reloaded.lookup(KEY_A, 10) == make_point()
        assert reloaded.lookup(KEY_B, 10) == make_point(ebn0_db=8.0)

    def test_impossible_counts_rejected(self, tmp_path):
        record = StoredChunk(key=KEY_A, packet_offset=0,
                             measurement=make_point()).to_record()
        record["measurement"]["bit_errors"] = 10 ** 9   # > total_bits
        (tmp_path / "store.jsonl").write_text(json.dumps(record) + "\n")
        with pytest.warns(UserWarning, match="more bit errors"):
            store = ResultStore(tmp_path)
        assert store.corrupt_records == 1
        assert store.lookup(KEY_A, 1) is None

    def test_empty_directory_is_fine(self, tmp_path):
        store = ResultStore(tmp_path / "does-not-exist-yet")
        assert len(store) == 0
        store.add_chunk(KEY_A, 0, make_point())
        assert (tmp_path / "does-not-exist-yet" / "store.jsonl").is_file()
