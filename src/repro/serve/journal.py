"""Durable broker state: the append-only, fsynced recovery journal.

The broker's queue — submitted :class:`~repro.serve.broker.JobSpec`\\ s,
task attempt counts, lease grants, terminal failures — used to live
only in memory; a broker crash dropped every queued job even though the
committed chunks themselves are durable in the content-addressed store.
``journal.jsonl`` closes that gap with the primitive the result store
and :class:`repro.obs.ledger.EventLedger` also use,
:class:`repro.utils.io.AppendLog`: every record is one JSON line,
appended in one atomic fsynced batch, so concurrent appends never
interleave partial lines and a crash tears at worst the final line —
which :meth:`BrokerJournal.read` skips and counts, never fatal, and the
next append heals.

The journal is a *redo log of intent*, not a state snapshot: recovery
(:meth:`repro.serve.Broker` with ``state_dir=``) replays the records
**against the store's actual chunk coverage** — each ``job`` record is
re-planned with the exact submit-time planning code, so chunks that
were committed before (or after!) the crash drop out of the rebuilt
queue automatically, and nothing is ever re-simulated.  ``grant``
records restore per-task attempt counts and advance the lease-id
counter past every id ever issued (a stale pre-crash worker can then
never collide with a post-restart lease); outstanding leases themselves
are *not* restored — they are reaped as expired, which requeues their
tasks exactly like a worker death.

Record kinds (all carry ``schema`` + ``kind``):

``job``
    ``{job_id, spec}`` — a validated submission; ``spec`` is the
    :meth:`JobSpec.to_dict` payload and round-trips losslessly.
``grant``
    ``{task_id, lease}`` — a lease grant; ``lease`` is
    :meth:`repro.serve.leases.Lease.to_dict` (the serialized claim).
``commit``
    ``{task_id}`` — written by older versions after the store ingest
    succeeded.  A commit's one durable write is now the store chunk
    itself: replay plans against the store, which drops a committed
    chunk and so its task, so the record adds nothing.  Replay still
    accepts it.
``release``
    ``{task_id}`` — a graceful worker shutdown returned the lease; the
    grant's attempt is un-counted on replay.
``requeue``
    ``{task_id, reason}`` — an expired lease or reported worker
    failure put the task back in the queue (attempts stay counted).
``task_failed``
    ``{task_id, reason}`` — terminal: the attempt cap was reached and
    the task plus every attached job failed.
"""

from __future__ import annotations

import json

from repro.utils.io import AppendLog

__all__ = ["JOURNAL_NAME", "JOURNAL_SCHEMA_VERSION", "BrokerJournal",
           "validate_record"]

#: File name of the broker journal inside a ``--state-dir`` directory.
JOURNAL_NAME = "journal.jsonl"

#: Journal record schema version (bump on incompatible shape changes).
JOURNAL_SCHEMA_VERSION = 1

_KINDS = ("job", "grant", "commit", "release", "requeue", "task_failed")

_REQUIRED_FIELDS = {
    "job": ("job_id", "spec"),
    "grant": ("task_id", "lease"),
    "commit": ("task_id",),
    "release": ("task_id",),
    "requeue": ("task_id", "reason"),
    "task_failed": ("task_id", "reason"),
}


def validate_record(record) -> dict:
    """Validate a journal record; return it unchanged or raise ValueError.

    Checks the envelope (``schema`` pin, known ``kind``), the
    kind-specific required fields, and JSON-serializability — the single
    source of truth both the appender and the replayer trust.
    """
    if not isinstance(record, dict):
        raise ValueError(
            f"journal record must be a dict, got {type(record).__name__}")
    if record.get("schema") != JOURNAL_SCHEMA_VERSION:
        raise ValueError(
            f"unsupported journal schema {record.get('schema')!r} "
            f"(expected {JOURNAL_SCHEMA_VERSION})")
    kind = record.get("kind")
    if kind not in _KINDS:
        raise ValueError(f"unknown journal record kind {kind!r}")
    for field in _REQUIRED_FIELDS[kind]:
        value = record.get(field)
        if value is None:
            raise ValueError(f"{kind!r} journal record needs {field!r}")
        if field in ("job_id", "task_id", "reason") \
                and not isinstance(value, str):
            raise ValueError(f"journal field {field!r} must be a string, "
                             f"got {value!r}")
        if field in ("spec", "lease") and not isinstance(value, dict):
            raise ValueError(f"journal field {field!r} must be an object, "
                             f"got {value!r}")
    try:
        json.dumps(record)
    except (TypeError, ValueError) as error:
        raise ValueError(
            f"journal record is not JSON-serializable: {error}") from None
    return record


class BrokerJournal:
    """The append-only ``journal.jsonl`` of one broker state directory.

    Holds a :class:`repro.utils.io.AppendLog` of journal records:
    writes are validated, serialized with sorted keys and fsynced in one
    atomic batch, a torn tail from a crashed append is healed by the
    next one, and reads skip (and count) corrupt lines.  Losing the
    final grant or requeue record to a tear costs at most one redundant
    (and bit-identical) chunk re-execution, exactly like a worker death.
    """

    def __init__(self, path) -> None:
        self._log = AppendLog(path, validate_record)
        self.path = self._log.path

    def record(self, kind: str, **fields) -> dict:
        """Append one record of ``kind`` with ``fields``; returns it."""
        record = {"schema": JOURNAL_SCHEMA_VERSION, "kind": kind, **fields}
        self.append([record])
        return record

    def append(self, records) -> int:
        """Validate and append a batch of records; returns the count."""
        return self._log.append(records)

    def read(self) -> tuple[list[dict], int]:
        """Load the journal; returns ``(records, corrupt_count)``."""
        return self._log.read()
