"""Filesystem helpers shared by the run/artifact persistence layers.

Two durable-write primitives live here, and nowhere else:

:func:`atomic_write_text`
    Whole-file replacement (temp file + fsync + rename) — manifests,
    shard markers, summaries.
:class:`AppendLog`
    The append-only JSONL log behind the result store, the telemetry
    ledger and the broker journal.  Each of those keeps only its record
    schema (the ``parse`` callable); the write and read disciplines are
    this one class.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

__all__ = ["AppendLog", "atomic_write_text"]


def atomic_write_text(path, text: str) -> None:
    """Write ``text`` to ``path`` atomically (all-or-nothing).

    The content goes to a sibling temporary file, is fsynced, and then
    renamed over the target, so readers never observe a half-written
    file and a crash leaves either the old content or the new — never a
    torn mix.
    """
    path = Path(path)
    temporary = path.with_name(path.name + ".tmp")
    with open(temporary, "w", encoding="utf-8") as handle:
        handle.write(text)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(temporary, path)


class AppendLog:
    """An append-only, fsynced JSONL file of validated records.

    ``parse`` maps one decoded JSON object to the stored item and raises
    ``ValueError`` when the record is malformed.  It runs on both paths:
    :meth:`append` parses every record before writing any of them, so a
    bad batch leaves the file untouched, and :meth:`read` skips and
    counts every line that does not parse.

    Write discipline, per batch:

    * the whole batch is one buffer on one ``O_APPEND`` descriptor, so
      concurrent appenders never interleave partial lines;
    * **heal on append** — when the file's last byte is not a newline
      (a crash tore the previous append), the batch is prefixed with one,
      so the torn line stays the only casualty instead of swallowing the
      first new record;
    * short writes are retried until every byte is out;
    * ``fsync`` before returning, so a returned append survives a crash.
    """

    def __init__(self, path, parse) -> None:
        self.path = Path(path)
        self.parse = parse

    def append(self, records) -> int:
        """Validate and durably append a batch of records; returns the count.

        An empty batch writes nothing (not even an empty file).
        """
        records = list(records)
        if not records:
            return 0
        for record in records:
            self.parse(record)
        data = "".join(json.dumps(record, sort_keys=True) + "\n"
                       for record in records).encode("utf-8")
        self.path.parent.mkdir(parents=True, exist_ok=True)
        descriptor = os.open(self.path,
                             os.O_RDWR | os.O_CREAT | os.O_APPEND, 0o644)
        try:
            size = os.fstat(descriptor).st_size
            if size and os.pread(descriptor, 1, size - 1) != b"\n":
                data = b"\n" + data
            view = memoryview(data)
            while view:
                view = view[os.write(descriptor, view):]
            os.fsync(descriptor)
        finally:
            os.close(descriptor)
        return len(records)

    def read(self, on_corrupt=None) -> tuple[list, int]:
        """Load the log; returns ``(items, corrupt_count)``.

        Blank lines are ignored.  A line that is not UTF-8 JSON, or that
        ``parse`` rejects — a torn tail, bit rot, a schema violation — is
        skipped and counted, never fatal; ``on_corrupt(line_number,
        error)`` (optional) is told about each one.  A missing file reads
        as empty.
        """
        if not self.path.exists():
            return [], 0
        items = []
        corrupt = 0
        with open(self.path, "rb") as handle:
            for line_number, line in enumerate(handle, start=1):
                if not line.strip():
                    continue
                try:
                    items.append(self.parse(json.loads(line)))
                except ValueError as error:
                    corrupt += 1
                    if on_corrupt is not None:
                        on_corrupt(line_number, error)
        return items, corrupt
