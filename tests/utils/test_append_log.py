"""One crash contract for every append-only JSONL log.

The result store, the telemetry ledger and the broker journal all write
through :class:`repro.utils.io.AppendLog`; this suite pins the contract
once per user, through each user's own public API:

* **torn tail** — a crash tore the last line; the next append must not
  be glued onto it, so it survives a reload and only the torn line is
  lost (and counted);
* **garbage line** — damage mid-file (bad JSON, bytes that are not
  UTF-8) is skipped and counted, and its neighbours survive;
* **short write** — ``os.write`` returns after half the bytes; the full
  batch must still land.
"""

import os
import warnings

import pytest

from repro.core.metrics import BERPoint
from repro.obs.ledger import EventLedger
from repro.runs.store import ResultStore
from repro.serve.journal import BrokerJournal
from repro.utils.io import AppendLog

KEY = "a" * 64
CHUNK_PACKETS = 4


class StoreLog:
    """The JSONL result store: record ``i`` is the chunk at offset 4*i."""

    def __init__(self, tmp_path):
        self.directory = tmp_path / "store"
        self.path = self.directory / "store.jsonl"

    def append(self, ids):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # corrupt-line warnings
            store = ResultStore(self.directory)
        store.add_chunks([
            (KEY, CHUNK_PACKETS * i,
             BERPoint(ebn0_db=4.0, bit_errors=i, total_bits=256,
                      packets_sent=CHUNK_PACKETS, packets_failed=0))
            for i in ids])

    def read(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            store = ResultStore(self.directory)
        offsets = sorted(store.chunks_for(KEY))
        return [offset // CHUNK_PACKETS for offset in offsets], \
            store.corrupt_records


class LedgerLog:
    """The telemetry ledger: record ``i`` is a counter named ``e<i>``."""

    def __init__(self, tmp_path):
        self.path = tmp_path / "run" / "events.jsonl"

    def append(self, ids):
        EventLedger(self.path).append([
            {"schema": 1, "kind": "counter", "name": f"e{i}", "ts": 1.0,
             "pid": 1, "attrs": {}, "value": 1} for i in ids])

    def read(self):
        events, corrupt = EventLedger(self.path).read()
        return [int(event["name"][1:]) for event in events], corrupt


class JournalLog:
    """The broker journal: record ``i`` commits task ``t:<i>``."""

    def __init__(self, tmp_path):
        self.path = tmp_path / "state" / "journal.jsonl"

    def append(self, ids):
        BrokerJournal(self.path).append([
            {"schema": 1, "kind": "commit", "task_id": f"t:{i}"}
            for i in ids])

    def read(self):
        records, corrupt = BrokerJournal(self.path).read()
        return [int(record["task_id"][2:]) for record in records], corrupt


@pytest.fixture(params=[StoreLog, LedgerLog, JournalLog],
                ids=["store", "ledger", "journal"])
def log(request, tmp_path):
    return request.param(tmp_path)


def test_torn_tail_then_append_survives_reload(log):
    log.append([0])
    log.append([1])
    content = log.path.read_bytes()
    log.path.write_bytes(content[:-10])  # a crash tore record 1
    log.append([2])
    assert log.read() == ([0, 2], 1)


def test_garbage_line_is_skipped_and_counted(log):
    log.append([0])
    with open(log.path, "ab") as handle:
        handle.write(b"{not json at all\n")
        handle.write(b"\x80\x81 bit rot, not even UTF-8\n")
    log.append([1])
    assert log.read() == ([0, 1], 2)


def test_short_write_still_lands_the_full_batch(log, monkeypatch):
    log.append([0])
    real_write = os.write
    shortened = []

    def half_write(descriptor, data):
        if not shortened:
            shortened.append(len(data))
            return real_write(descriptor, bytes(data[:len(data) // 2]))
        return real_write(descriptor, data)

    monkeypatch.setattr(os, "write", half_write)
    log.append([1, 2, 3])
    monkeypatch.undo()
    assert shortened, "the append never called os.write"
    assert log.read() == ([0, 1, 2, 3], 0)


def test_read_skips_blank_lines_and_reports_corrupt_line_numbers(tmp_path):
    path = tmp_path / "log.jsonl"
    path.write_bytes(b'{"n": 1}\n\nnope\n{"n": 2}\n')
    seen = []
    items, corrupt = AppendLog(path, dict).read(
        on_corrupt=lambda line, error: seen.append(line))
    assert items == [{"n": 1}, {"n": 2}]
    assert corrupt == 1
    assert seen == [3]
