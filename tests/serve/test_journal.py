"""The broker journal: append/read round-trips, torn tails, validation.

The journal carries the broker's whole recovery story, so its unit
contract mirrors the store's: appends are atomic batches, reads
tolerate (and count) a torn tail line, and every record passes one
shared validator on both the write and the read path.  Torn tails,
garbage lines and short writes are covered once for every append-log
user in ``tests/utils/test_append_log.py``.
"""

import json

import pytest

from repro.serve.journal import (JOURNAL_SCHEMA_VERSION, BrokerJournal,
                                 validate_record)


def make_journal(tmp_path) -> BrokerJournal:
    return BrokerJournal(tmp_path / "state" / "journal.jsonl")


SAMPLE_RECORDS = [
    {"kind": "job", "job_id": "job-0001",
     "spec": {"points": [{"ebn0_db": 2.0}]}},
    {"kind": "grant", "task_id": "abc:0",
     "lease": {"lease_id": "lease-000001", "task_id": "abc:0",
               "worker_id": "worker-0001", "granted_at": 0.0,
               "deadline": 30.0, "attempt": 1}},
    {"kind": "commit", "task_id": "abc:0"},
    {"kind": "release", "task_id": "abc:4"},
    {"kind": "requeue", "task_id": "abc:4", "reason": "lease expired"},
    {"kind": "task_failed", "task_id": "abc:8", "reason": "gave up"},
]


class TestRoundTrip:
    def test_record_appends_and_reads_back(self, tmp_path):
        journal = make_journal(tmp_path)
        for record in SAMPLE_RECORDS:
            journal.record(record["kind"],
                           **{k: v for k, v in record.items()
                              if k != "kind"})
        records, corrupt = journal.read()
        assert corrupt == 0
        assert [r["kind"] for r in records] \
            == [r["kind"] for r in SAMPLE_RECORDS]
        for written, read in zip(SAMPLE_RECORDS, records):
            for field, value in written.items():
                assert read[field] == value

    def test_records_carry_schema_pin(self, tmp_path):
        journal = make_journal(tmp_path)
        record = journal.record("commit", task_id="abc:0")
        assert record["schema"] == JOURNAL_SCHEMA_VERSION
        assert journal.read()[0][0]["schema"] == JOURNAL_SCHEMA_VERSION

    def test_missing_file_reads_empty(self, tmp_path):
        assert make_journal(tmp_path).read() == ([], 0)

    def test_empty_batch_is_noop(self, tmp_path):
        journal = make_journal(tmp_path)
        assert journal.append([]) == 0
        assert not journal.path.exists()

    def test_append_is_one_line_per_record(self, tmp_path):
        journal = make_journal(tmp_path)
        journal.append([{"schema": JOURNAL_SCHEMA_VERSION, **record}
                        for record in SAMPLE_RECORDS])
        lines = journal.path.read_text().splitlines()
        assert len(lines) == len(SAMPLE_RECORDS)
        for line in lines:
            json.loads(line)  # every line is standalone-parseable


class TestValidation:
    def test_known_kinds_validate(self):
        for record in SAMPLE_RECORDS:
            validate_record({"schema": JOURNAL_SCHEMA_VERSION, **record})

    @pytest.mark.parametrize("record, match", [
        ("not a dict", "must be a dict"),
        ({"kind": "commit", "task_id": "x"}, "schema"),
        ({"schema": 99, "kind": "commit", "task_id": "x"}, "schema"),
        ({"schema": 1, "kind": "nope"}, "kind"),
        ({"schema": 1, "kind": "commit"}, "task_id"),
        ({"schema": 1, "kind": "job", "job_id": "j"}, "spec"),
        ({"schema": 1, "kind": "job", "job_id": 7, "spec": {}},
         "string"),
        ({"schema": 1, "kind": "grant", "task_id": "x", "lease": "no"},
         "object"),
        ({"schema": 1, "kind": "requeue", "task_id": "x"}, "reason"),
    ])
    def test_malformed_records_raise(self, record, match):
        with pytest.raises(ValueError, match=match):
            validate_record(record)

    def test_append_rejects_malformed_without_writing(self, tmp_path):
        journal = make_journal(tmp_path)
        with pytest.raises(ValueError):
            journal.append([{"schema": 1, "kind": "commit"}])
        assert not journal.path.exists()

    def test_unserializable_record_raises(self):
        with pytest.raises(ValueError, match="JSON"):
            validate_record({"schema": 1, "kind": "commit",
                             "task_id": "x", "extra": object()})
