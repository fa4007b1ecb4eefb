"""Per-run telemetry event ledger and aggregated summary.

Every telemetry-enabled :meth:`repro.runs.RunDriver.run_shard` call
flushes its :class:`~repro.obs.recorder.Recorder` into two artifacts in
the run directory, next to ``manifest.json``:

``events.jsonl``
    The append-only raw ledger — one JSON event per line, written
    through :class:`repro.utils.io.AppendLog` (the same primitive as the
    result store and the broker journal), so concurrent shard processes
    never interleave partial lines, a crash loses at most the final
    batch, and the next append heals a torn tail.  Because
    the driver flushes in a ``finally`` block, a crashed run still
    leaves the events recorded up to the failure on disk — the partial
    ledger is valid and :func:`EventLedger.read` tolerates a truncated
    tail line.

``telemetry.json``
    The aggregated summary (:func:`repro.obs.recorder.summarize` of the
    *whole* ledger, re-derived atomically after every append): span
    statistics, counter totals, last/max gauges.  ``repro report`` renders either artifact;
    dashboards can poll this one cheaply.

Events follow schema version 1 (see
:data:`repro.obs.recorder.EVENT_SCHEMA_VERSION`): every event carries
``schema``/``kind``/``name``/``ts``/``pid``/``attrs``, spans add
``duration_s`` and counters/gauges add ``value``.  :func:`validate_event`
is the single source of truth for that shape — CI validates smoke-run
ledgers with it.
"""

from __future__ import annotations

import json

from repro.obs.recorder import EVENT_SCHEMA_VERSION, summarize
from repro.utils.io import AppendLog, atomic_write_text

__all__ = [
    "LEDGER_NAME",
    "SUMMARY_NAME",
    "EventLedger",
    "summarize",
    "validate_event",
    "write_summary",
]

#: File name of the raw event ledger inside a run directory.
LEDGER_NAME = "events.jsonl"

#: File name of the aggregated telemetry summary inside a run directory.
SUMMARY_NAME = "telemetry.json"

_KINDS = ("span", "counter", "gauge")


def validate_event(event) -> dict:
    """Validate a schema-1 event; return it unchanged or raise ValueError.

    Checks the common envelope (``schema`` == 1, known ``kind``,
    non-empty ``name``, numeric ``ts``, integer ``pid``, dict ``attrs``)
    plus the kind-specific payload (``duration_s`` for spans, ``value``
    for counters and gauges), and that the whole event is JSON-safe.
    """
    if not isinstance(event, dict):
        raise ValueError(f"event must be a dict, got {type(event).__name__}")
    if event.get("schema") != EVENT_SCHEMA_VERSION:
        raise ValueError(f"unsupported event schema {event.get('schema')!r} "
                         f"(expected {EVENT_SCHEMA_VERSION})")
    kind = event.get("kind")
    if kind not in _KINDS:
        raise ValueError(f"unknown event kind {kind!r}")
    name = event.get("name")
    if not isinstance(name, str) or not name:
        raise ValueError(f"event name must be a non-empty string, "
                         f"got {name!r}")
    if not isinstance(event.get("ts"), (int, float)):
        raise ValueError(f"event ts must be numeric, got {event.get('ts')!r}")
    if not isinstance(event.get("pid"), int):
        raise ValueError(f"event pid must be an int, got {event.get('pid')!r}")
    if not isinstance(event.get("attrs"), dict):
        raise ValueError(f"event attrs must be a dict, "
                         f"got {event.get('attrs')!r}")
    if kind == "span":
        if not isinstance(event.get("duration_s"), (int, float)):
            raise ValueError(f"span event needs a numeric duration_s, "
                             f"got {event.get('duration_s')!r}")
    elif not isinstance(event.get("value"), (int, float)):
        raise ValueError(f"{kind} event needs a numeric value, "
                         f"got {event.get('value')!r}")
    try:
        json.dumps(event)
    except (TypeError, ValueError) as error:
        raise ValueError(f"event is not JSON-serializable: {error}") from None
    return event


class EventLedger(AppendLog):
    """The append-only ``events.jsonl`` file of one run directory.

    An :class:`~repro.utils.io.AppendLog` of schema-1 events:
    :meth:`append` validates the whole batch before one atomic, fsynced
    write and returns the count; :meth:`read` returns ``(events,
    corrupt_count)``, skipping corrupt or truncated lines (e.g. the tail
    of a crashed write) — mirroring the result store's damaged-cache
    policy.
    """

    def __init__(self, path) -> None:
        super().__init__(path, validate_event)


def write_summary(path, events) -> dict:
    """Atomically write :func:`summarize` of ``events`` to ``path``.

    Returns the summary payload.  Atomic (temp file + rename) so a
    dashboard polling ``telemetry.json`` never reads a torn file.
    """
    summary = summarize(events)
    atomic_write_text(path, json.dumps(summary, sort_keys=True, indent=2)
                      + "\n")
    return summary
