"""repro.obs: lightweight, dependency-free run telemetry.

Instrumentation for the sweep stack with one hard contract: **off by
default and bitwise invisible**.  Results, ``config_digest``, store
keys, and golden fixtures are identical whether recording is on or off,
and the disabled path is a true no-op (a null recorder, zero clock
reads).

* :mod:`repro.obs.recorder` — :class:`Recorder` (``span()`` context
  managers, counters, gauges, Prometheus text exposition via
  :meth:`Recorder.render_prom`), the no-op :class:`NullRecorder`, and
  the :func:`active`/:func:`activate` pattern that lets leaf code (the
  batched receiver stages, the result store) record against whatever
  recorder the orchestration layer installed.
* :mod:`repro.obs.ledger` — the per-run append-only ``events.jsonl``
  ledger and aggregated ``telemetry.json`` summary written next to
  ``manifest.json``, plus the schema validator CI runs against them.
* :mod:`repro.obs.progress` — the ``--progress`` live single-line CLI
  readout (chunks, points, throughput, cache-hit share).
* :mod:`repro.obs.report` — the ``python -m repro report`` renderer
  (span tables, chunk latency histogram, per-scenario throughput,
  slowest-chunk top-k).

Enable telemetry with ``SweepEngine(recorder=Recorder())`` or the CLI's
``--telemetry`` flag; drive progress with ``--progress``.
"""

from repro.obs.ledger import (
    LEDGER_NAME,
    SUMMARY_NAME,
    EventLedger,
    summarize,
    validate_event,
    write_summary,
)
from repro.obs.progress import ProgressLine
from repro.obs.recorder import (
    EVENT_SCHEMA_VERSION,
    NULL_RECORDER,
    NullRecorder,
    Recorder,
    activate,
    active,
)
from repro.obs.report import load_run_events, render_report

__all__ = [
    "EVENT_SCHEMA_VERSION",
    "LEDGER_NAME",
    "NULL_RECORDER",
    "SUMMARY_NAME",
    "EventLedger",
    "NullRecorder",
    "ProgressLine",
    "Recorder",
    "activate",
    "active",
    "load_run_events",
    "render_report",
    "summarize",
    "validate_event",
    "write_summary",
]
