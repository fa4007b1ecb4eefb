"""Out-of-program tracing: time calls into each layer's public functions.

The traced run patches the public functions and methods named in
:data:`layers.TARGETS` with thin timing wrappers, runs the workload, and
restores every original afterwards.  Nothing under ``src/`` knows it is
being traced.

Each call becomes a :class:`Span` (name, start, end, parent, task id).
Parents come from a per-thread stack.  A span opened on a thread whose
stack is empty (the HTTP handler threads serving the broker) takes the
open client-call span as its parent: one client talks to the broker at a
time, so the broker method a handler runs is always inside the client
call waiting for it.  Spans stay in memory and are written out at the
end (:meth:`Tracer.write`).
"""

from __future__ import annotations

import functools
import inspect
import json
import threading
import time


class Span:
    """One timed call into a layer."""

    __slots__ = ("name", "start", "end", "parent", "task", "thread",
                 "children")

    def __init__(self, name, start, parent, task, thread):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.task = task
        self.thread = thread
        self.children = []

    @property
    def duration(self) -> float:
        return self.end - self.start


def union_length(intervals, lo=None, hi=None) -> float:
    """Total length covered by ``(start, end)`` intervals, clipped to
    ``[lo, hi]`` when given."""
    covered = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if lo is not None:
            start = max(start, lo)
        if hi is not None:
            end = min(end, hi)
        if end <= start:
            continue
        if current_end is None or start > current_end:
            if current_end is not None:
                covered += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        covered += current_end - current_start
    return covered


class Tracer:
    """Collects spans from patched functions; see the module docstring."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self.recording = False
        self._local = threading.local()
        self._fallback: Span | None = None
        self._patches: list[tuple[object, str, object]] = []
        self._chunk_serial = 0

    # -- span bookkeeping ----------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, value: float = 1) -> None:
        """Add ``value`` to the counter ``name`` (while recording)."""
        if self.recording:
            self.counts[name] = self.counts.get(name, 0) + value

    def next_chunk_id(self) -> str:
        self._chunk_serial += 1
        return f"chunk-{self._chunk_serial}"

    def _open(self, name, task) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else self._fallback
        if task is None and parent is not None:
            task = parent.task
        span = Span(name, time.perf_counter(), parent, task,
                    threading.get_ident())
        self.spans.append(span)
        stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()

    # -- patching ------------------------------------------------------
    def wrap(self, func, name, task_of=None, on_exit=None,
             client_call=False):
        """A timing wrapper around ``func``.

        ``name`` is a span name or ``name(args, result)``; ``task_of
        (args)`` names the chunk/task the call works on (``"chunk"``
        draws a fresh chunk id); ``on_exit(tracer, args, result)`` adds
        counts; ``client_call`` marks calls whose server-side work runs
        on other threads (they become those spans' parents).
        """
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return func(*args, **kwargs)
            if task_of == "chunk":
                task = tracer.next_chunk_id()
            else:
                task = task_of(args) if task_of is not None else None
            span = tracer._open(name if isinstance(name, str) else "?",
                                task)
            previous = tracer._fallback
            if client_call:
                tracer._fallback = span
            try:
                result = func(*args, **kwargs)
            finally:
                if client_call:
                    tracer._fallback = previous
                tracer._close(span)
            if not isinstance(name, str):
                span.name = name(args, result)
            if on_exit is not None:
                on_exit(tracer, args, result)
            return result

        return traced

    def patch(self, owner, attr: str, name, **options) -> None:
        """Replace ``owner.attr`` (a module function or a method found on
        the class's MRO) with a timing wrapper; :meth:`restore` undoes
        it.  Patching the same defining attribute twice is a no-op."""
        if inspect.isclass(owner):
            holder = next(klass for klass in owner.__mro__
                          if attr in klass.__dict__)
        else:
            holder = owner
        if any(h is holder and a == attr for h, a, _ in self._patches):
            return
        raw = holder.__dict__[attr]
        if isinstance(raw, (classmethod, staticmethod)):
            replacement = type(raw)(self.wrap(raw.__func__, name, **options))
        else:
            replacement = self.wrap(raw, name, **options)
        setattr(holder, attr, replacement)
        self._patches.append((holder, attr, raw))

    def restore(self) -> None:
        """Put every patched original back (reverse order)."""
        while self._patches:
            holder, attr, raw = self._patches.pop()
            setattr(holder, attr, raw)

    # -- analysis ------------------------------------------------------
    def finished_spans(self) -> list[Span]:
        return [span for span in self.spans if span.end is not None]

    def link_children(self) -> None:
        for span in self.finished_spans():
            span.children = []
        for span in self.finished_spans():
            if span.parent is not None:
                span.parent.children.append(span)

    @staticmethod
    def self_time(span: Span) -> float:
        """Duration minus the part of it the child spans cover."""
        covered = union_length(((child.start, child.end)
                                for child in span.children
                                if child.end is not None),
                               span.start, span.end)
        return span.duration - covered

    def write(self, path) -> int:
        """Write the spans as JSON lines; returns how many."""
        spans = self.finished_spans()
        ids = {id(span): index for index, span in enumerate(spans)}
        with open(path, "w", encoding="utf-8") as handle:
            for index, span in enumerate(spans):
                handle.write(json.dumps({
                    "id": index, "name": span.name,
                    "start": span.start, "end": span.end,
                    "parent": ids.get(id(span.parent)),
                    "task": span.task, "thread": span.thread}) + "\n")
        return len(spans)
