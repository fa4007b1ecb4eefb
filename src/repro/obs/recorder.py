"""In-process telemetry recorder: spans, counters, gauges.

A :class:`Recorder` accumulates a flat list of *events* — timed spans
(``with recorder.span("chunk.run", ...)``), monotonic counters
(``recorder.counter("store.chunks_added")``) and point-in-time gauges
(``recorder.gauge("shm.result_block_bytes", n)``) — as plain JSON-safe
dictionaries, cheap enough to thread through the hot orchestration paths
of :class:`repro.sim.SweepEngine` and :class:`repro.runs.RunDriver`.

The hard contract of the whole :mod:`repro.obs` layer is that telemetry
is **off by default and bitwise invisible**: recording never touches a
random stream, never reorders work, and the disabled path is a true
no-op.  :data:`NULL_RECORDER` (a :class:`NullRecorder`) implements every
recording method as a constant-time pass that performs **zero clock
reads** — its :meth:`~NullRecorder.span` hands back one shared inert
context manager — so instrumented code needs no ``if enabled`` guards.

Instrumentation deep inside the stack (the batched receiver stages, the
shared-memory blocks, the result store) reaches the current recorder
through the *active-recorder* pattern: orchestration code installs its
recorder with :func:`activate` (a re-entrant context manager) and leaf
code calls :func:`active` to record against it.  The active recorder is
a per-process module global, **not** thread-local: worker *processes*
each activate their own recorder (a fork inherits the parent's — always
replace it, never record into it), while helper threads (e.g. the
channel-FFT pool) must not record.

Durations come from ``time.perf_counter`` and event timestamps from
``time.time``; both are injectable for tests.  Worker processes ship
their drained event batches back to the parent, which merges them with
:meth:`Recorder.absorb`.  :meth:`Recorder.render_prom` exposes the
aggregated state in the Prometheus text exposition format, ready for a
future ``repro.serve`` dashboard to scrape.
"""

from __future__ import annotations

import os
import time

__all__ = [
    "EVENT_SCHEMA_VERSION",
    "NULL_RECORDER",
    "NullRecorder",
    "Recorder",
    "activate",
    "active",
    "summarize",
]

#: Schema version stamped on every event (see :mod:`repro.obs.ledger`).
EVENT_SCHEMA_VERSION = 1


class _NullSpan:
    """Shared inert context manager returned by :meth:`NullRecorder.span`."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        """No-op entry (no clock read)."""
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        """No-op exit; never swallows exceptions."""
        return False


_NULL_SPAN = _NullSpan()


class _Span:
    """A live timed span; records one ``span`` event when it exits."""

    __slots__ = ("_recorder", "_name", "_attrs", "_start")

    def __init__(self, recorder: "Recorder", name: str, attrs: dict) -> None:
        self._recorder = recorder
        self._name = name
        self._attrs = attrs
        self._start = None

    def __enter__(self) -> "_Span":
        """Start the clock."""
        self._start = self._recorder._clock()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        """Record the span (marking it failed when an exception passed
        through); never swallows the exception."""
        duration = self._recorder._clock() - self._start
        attrs = self._attrs
        if exc_type is not None:
            attrs = dict(attrs, failed=True)
        self._recorder._append("span", self._name, attrs,
                               duration_s=float(duration))
        return False


class Recorder:
    """Accumulates telemetry events for one process (or one worker task).

    Parameters
    ----------
    clock:
        Monotonic duration source (default ``time.perf_counter``).
    time_source:
        Wall-clock timestamp source for events (default ``time.time``).
    """

    enabled = True

    def __init__(self, clock=time.perf_counter,
                 time_source=time.time) -> None:
        self._clock = clock
        self._time = time_source
        self._pid = os.getpid()
        self._events: list[dict] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _append(self, kind: str, name: str, attrs: dict, **payload) -> None:
        event = {"schema": EVENT_SCHEMA_VERSION, "kind": kind,
                 "name": str(name), "ts": float(self._time()),
                 "pid": self._pid, "attrs": attrs}
        event.update(payload)
        self._events.append(event)

    def span(self, name: str, **attrs) -> _Span:
        """A context manager timing one operation.

        The span event is recorded when the ``with`` block exits, with
        its wall duration in ``duration_s`` and ``attrs`` attached (plus
        ``failed: true`` when the block raised).
        """
        return _Span(self, name, attrs)

    def counter(self, name: str, value: float = 1, **attrs) -> None:
        """Record a monotonic increment (totals are summed per name)."""
        self._append("counter", name, attrs, value=value)

    def gauge(self, name: str, value: float, **attrs) -> None:
        """Record a point-in-time measurement (last value wins)."""
        self._append("gauge", name, attrs, value=value)

    # ------------------------------------------------------------------
    # Event access / transport
    # ------------------------------------------------------------------
    def events(self) -> tuple[dict, ...]:
        """Every recorded event, oldest first (a snapshot copy)."""
        return tuple(self._events)

    def drain(self) -> list[dict]:
        """Take (and clear) the recorded events — the worker-to-parent
        shipping primitive: workers drain, the parent absorbs."""
        events, self._events = self._events, []
        return events

    def absorb(self, events) -> None:
        """Merge a batch of serialized events (e.g. shipped back from a
        worker process) into this recorder."""
        if events:
            self._events.extend(events)

    def clear(self) -> None:
        """Discard every recorded event."""
        self._events = []

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    def counter_totals(self) -> dict[str, float]:
        """Summed counter values keyed by counter name."""
        return summarize(self._events)["counters"]

    def gauge_values(self) -> dict[str, float]:
        """Most recent gauge value keyed by gauge name."""
        return {name: entry["last"] for name, entry
                in summarize(self._events)["gauges"].items()}

    def span_stats(self) -> dict[str, dict]:
        """Per-span-name aggregates: count, total/min/max/mean seconds."""
        return summarize(self._events)["spans"]

    def render_prom(self) -> str:
        """The aggregated state in Prometheus text exposition format.

        Counters render as ``repro_<name>_total``, gauges as
        ``repro_<name>``, spans as ``repro_<name>_seconds`` summaries
        (``_count`` + ``_sum``).  Names are sanitized to the Prometheus
        charset (dots and dashes become underscores).  The output ends
        with a newline, ready to serve as ``text/plain; version=0.0.4``
        (what the future ``repro.serve`` dashboard scrapes).
        """
        lines: list[str] = []
        for name, total in sorted(self.counter_totals().items()):
            metric = f"repro_{_prom_name(name)}_total"
            lines.append(f"# TYPE {metric} counter")
            lines.append(f"{metric} {_prom_value(total)}")
        for name, value in sorted(self.gauge_values().items()):
            metric = f"repro_{_prom_name(name)}"
            lines.append(f"# TYPE {metric} gauge")
            lines.append(f"{metric} {_prom_value(value)}")
        for name, stats in sorted(self.span_stats().items()):
            metric = f"repro_{_prom_name(name)}_seconds"
            lines.append(f"# TYPE {metric} summary")
            lines.append(f"{metric}_count {stats['count']}")
            lines.append(f"{metric}_sum {_prom_value(stats['total_s'])}")
        return "\n".join(lines) + "\n" if lines else ""


def summarize(events) -> dict:
    """Aggregate events into the ``telemetry.json`` payload.

    The one aggregation behind :class:`Recorder`'s views and the run
    ledger's summary.  Returns ``{"schema", "events", "spans", "counters", "gauges"}``:
    per-span-name count/total/min/max/mean seconds, per-counter-name
    totals, per-gauge-name last and max values.
    """
    spans: dict[str, dict] = {}
    counters: dict[str, float] = {}
    gauges: dict[str, dict] = {}
    count = 0
    for event in events:
        count += 1
        kind = event["kind"]
        name = event["name"]
        if kind == "span":
            entry = spans.setdefault(name, {
                "count": 0, "total_s": 0.0,
                "min_s": float("inf"), "max_s": 0.0})
            duration = float(event["duration_s"])
            entry["count"] += 1
            entry["total_s"] += duration
            entry["min_s"] = min(entry["min_s"], duration)
            entry["max_s"] = max(entry["max_s"], duration)
        elif kind == "counter":
            counters[name] = counters.get(name, 0) + event["value"]
        else:
            value = float(event["value"])
            entry = gauges.setdefault(name, {"last": value, "max": value})
            entry["last"] = value
            entry["max"] = max(entry["max"], value)
    for entry in spans.values():
        entry["mean_s"] = entry["total_s"] / entry["count"]
    return {"schema": EVENT_SCHEMA_VERSION, "events": count,
            "spans": spans, "counters": counters, "gauges": gauges}


class NullRecorder:
    """The disabled recorder: every method is a constant-time no-op.

    This is what makes telemetry *bitwise invisible* when off: no clock
    is ever read (``span`` returns a shared inert context manager), no
    allocation grows, and instrumented code needs no conditionals.
    """

    enabled = False

    def span(self, name: str, **attrs) -> _NullSpan:
        """The shared inert context manager (no clock reads)."""
        return _NULL_SPAN

    def counter(self, name: str, value: float = 1, **attrs) -> None:
        """No-op."""

    def gauge(self, name: str, value: float, **attrs) -> None:
        """No-op."""

    def events(self) -> tuple:
        """Always empty."""
        return ()

    def drain(self) -> list:
        """Always empty."""
        return []

    def absorb(self, events) -> None:
        """Discards the batch."""

    def clear(self) -> None:
        """No-op."""

    def counter_totals(self) -> dict:
        """Always empty."""
        return {}

    def gauge_values(self) -> dict:
        """Always empty."""
        return {}

    def span_stats(self) -> dict:
        """Always empty."""
        return {}

    def render_prom(self) -> str:
        """Always empty."""
        return ""


#: The process-wide disabled recorder (safe to share: it holds no state).
NULL_RECORDER = NullRecorder()

_active: Recorder | NullRecorder = NULL_RECORDER


def active() -> Recorder | NullRecorder:
    """The recorder leaf code should record against right now.

    Defaults to :data:`NULL_RECORDER`; orchestration code swaps it in
    with :func:`activate`.  Per process, not per thread — helper threads
    must not record.
    """
    return _active


class activate:
    """Install ``recorder`` as the active recorder for a ``with`` block.

    Re-entrant (the previous active recorder is restored on exit) and
    ``None``-tolerant (``None`` activates :data:`NULL_RECORDER`), so
    call sites can pass an optional recorder straight through.
    """

    __slots__ = ("_recorder", "_previous")

    def __init__(self, recorder: Recorder | NullRecorder | None) -> None:
        self._recorder = recorder if recorder is not None else NULL_RECORDER
        self._previous = None

    def __enter__(self) -> Recorder | NullRecorder:
        """Swap the recorder in; returns it for convenience."""
        global _active
        self._previous = _active
        _active = self._recorder
        return self._recorder

    def __exit__(self, exc_type, exc, tb) -> bool:
        """Restore the previously active recorder."""
        global _active
        _active = self._previous
        return False


def _prom_name(name: str) -> str:
    """Sanitize an event name to the Prometheus metric charset."""
    return "".join(ch if ch.isalnum() or ch == "_" else "_" for ch in name)


def _prom_value(value: float) -> str:
    """Render a metric value (integers without a trailing ``.0``)."""
    number = float(value)
    if number.is_integer():
        return str(int(number))
    return repr(number)
