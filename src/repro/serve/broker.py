"""The sweep broker: grids in, chunk leases out, curves assembled.

The broker is the service-side twin of :class:`repro.runs.RunDriver`:
it plans work with the very same code — per-point
:func:`repro.runs.store.measurement_key` content addresses fed to
:func:`repro.runs.store.plan_missing_chunks` — but instead of
simulating the missing chunks itself it queues them as
:class:`ChunkTask` units and hands them to pull-based workers under
time-limited leases (:class:`repro.serve.leases.LeaseTable`).

Because tasks are keyed by ``(measurement key, packet offset)`` they are
shared *across jobs*: two clients submitting overlapping grids against
one broker deduplicate into one simulation pass and one cache entry —
the ROADMAP's "millions of users, one warehouse" shape in miniature.

At-most-once commit falls out of the content-addressed store: commits
are idempotent for identical replays and raise on conflicting
measurements, so a stale worker (lease expired, chunk re-leased and
possibly already committed by someone else) can never double-count —
its late commit is either a recorded duplicate or a rejected conflict.
Seeded chunks make the duplicate case the only one a healthy fleet ever
produces: every worker simulating a given chunk produces bit-identical
counts.

All queue state lives in one process behind one lock; the store holds
the committed chunks durably either way.  With a ``state_dir`` the
queue state is durable too: submissions, lease grants, attempt counts
and terminal failures are journaled to an append-only fsynced
``journal.jsonl`` (:mod:`repro.serve.journal`), and a restarted broker
replays it against the store's actual chunk coverage — committed chunks
drop out of the rebuilt queue, outstanding leases are reaped as
expired, and job ids (hence in-flight ``curve()`` clients) survive the
restart.  Without a ``state_dir`` the historical behaviour remains:
queued jobs die with the process, committed chunks never do.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.metrics import BERPoint
from repro.obs.recorder import Recorder, activate
from repro.runs.store import (ResultStore, measurement_key,
                              plan_missing_chunks)
from repro.serve.journal import JOURNAL_NAME, BrokerJournal
from repro.serve.leases import LeaseTable, UnknownLeaseError
from repro.sim.engine import SweepEngine, SweepPoint, SweepResult
from repro.utils.validation import require_int, require_json_int

__all__ = ["Broker", "BrokerDrainingError", "BrokerError", "ChunkTask",
           "CommitConflictError", "JobSpec", "UnknownJobError",
           "result_from_curve_payload"]


def result_from_curve_payload(payload: dict) -> SweepResult:
    """Rebuild a :class:`SweepResult` from a ``curve`` response payload.

    The inverse of :meth:`Broker.curve`'s ``points`` encoding — what a
    remote client (``python -m repro submit --export``) uses to feed the
    standard artifact exporter with a fleet-produced curve.
    """
    result = SweepResult()
    for entry in payload.get("points", ()):
        result.entries.append((SweepPoint.from_dict(entry["point"]),
                               BERPoint.from_dict(entry["measurement"])))
    return result


class BrokerError(ValueError):
    """Base class for broker request errors (bad specs, unknown ids)."""


class UnknownJobError(BrokerError):
    """The job id names no submitted job."""


class BrokerDrainingError(BrokerError):
    """The broker is shutting down and no longer accepts new work."""


class CommitConflictError(BrokerError):
    """A committed measurement conflicts with what the store already
    holds for that chunk — a nondeterministic or misconfigured worker,
    never a healthy retry (seeded chunks replay bit-identically)."""


def _id_serial(identifier: str) -> int:
    """The numeric suffix of ids like ``job-0007``/``lease-000012``
    (0 when there is none) — how recovery restores id counters."""
    try:
        return int(str(identifier).rsplit("-", 1)[-1])
    except ValueError:
        return 0


def _request_error(error: Exception) -> BrokerError:
    """A parse or grid-check failure as a client-facing :class:`BrokerError`
    (a ``KeyError``'s message without its quotes)."""
    return BrokerError(str(error.args[0]) if error.args else str(error))


@dataclass(frozen=True)
class JobSpec:
    """One submitted grid: the points, the engine and the packet budget.

    The JSON-able subset of a :class:`repro.sim.SweepEngine` + budget —
    deliberately mirroring the ``python -m repro sweep`` arguments, and
    deliberately *excluding* custom base configs (they do not round-trip
    through JSON; a grid needing one runs through the local driver).
    The engine (``chunk_packets`` included) is parsed by
    :meth:`repro.sim.SweepEngine.from_params`.
    """

    points: tuple[SweepPoint, ...]
    engine: SweepEngine
    num_packets: int = 32
    payload_bits_per_packet: int = 64
    name: str | None = None

    @property
    def chunk_packets(self) -> int | None:
        """The job's chunk layout (``None``: one chunk per point)."""
        return self.engine.chunk_packets

    @classmethod
    def from_dict(cls, data) -> "JobSpec":
        """Parse and validate a submission payload (raises
        :class:`BrokerError` with a client-actionable message)."""
        if not isinstance(data, dict):
            raise BrokerError("job spec must be a JSON object")
        points_data = data.get("points")
        if not isinstance(points_data, list) or not points_data:
            raise BrokerError("job spec needs a non-empty 'points' list")
        try:
            chunk_packets = data.get("chunk_packets")
            return cls(
                points=tuple(SweepPoint.from_dict(entry)
                             for entry in points_data),
                engine=SweepEngine.from_params(
                    data, chunk_packets=(
                        None if chunk_packets is None
                        else require_json_int(chunk_packets,
                                              "chunk_packets"))),
                num_packets=require_json_int(data.get("num_packets", 32),
                                             "num_packets", minimum=1),
                payload_bits_per_packet=require_json_int(
                    data.get("payload_bits_per_packet", 64),
                    "payload_bits_per_packet", minimum=1),
                name=(None if data.get("name") is None
                      else str(data["name"])))
        except (TypeError, ValueError) as error:
            raise _request_error(error) from None

    def to_dict(self) -> dict:
        """The submission payload this spec round-trips through."""
        return {"points": [point.to_dict() for point in self.points],
                "num_packets": self.num_packets,
                "payload_bits_per_packet": self.payload_bits_per_packet,
                "chunk_packets": self.chunk_packets,
                **self.engine.params(),
                "name": self.name}

    def build_engine(self) -> SweepEngine:
        """The engine this spec describes (default base config)."""
        return self.engine


@dataclass
class ChunkTask:
    """One leasable unit of work: a seeded packet chunk of one point.

    Identity is ``(measurement key, packet offset)`` — the same pair the
    store caches under — so overlapping jobs share tasks and a committed
    chunk satisfies every job that wanted it.
    """

    task_id: str
    key: str
    point: SweepPoint
    packet_offset: int
    num_packets: int
    payload_bits_per_packet: int
    engine_params: dict
    state: str = "pending"  # pending | leased | done | failed
    attempts: int = 0
    job_ids: set = field(default_factory=set)
    last_error: str | None = None

    def descriptor(self) -> dict:
        """The self-contained work order a worker receives with a lease."""
        return {"task_id": self.task_id,
                "point": self.point.to_dict(),
                "packet_offset": self.packet_offset,
                "num_packets": self.num_packets,
                "payload_bits_per_packet": self.payload_bits_per_packet,
                "engine": dict(self.engine_params)}


@dataclass
class _Job:
    job_id: str
    spec: JobSpec
    keys: tuple[str, ...]
    task_ids: tuple[str, ...]
    remaining: int
    points_cached: int
    chunks_shared: int
    state: str = "running"  # running | done | failed
    version: int = 0
    error: str | None = None


class Broker:
    """Plans submitted grids into chunk tasks and leases them to workers.

    Parameters
    ----------
    store_dir:
        Directory of the shared content-addressed result store (opened
        via :meth:`repro.runs.ResultStore.open` — JSONL or SQLite).
    store_format:
        Explicit store backend for a fresh directory (``None``: detect,
        then JSONL).
    lease_timeout_s:
        Seconds a chunk lease survives without a heartbeat.
    max_attempts:
        Lease grants per task before it (and every job needing it) is
        marked failed.
    clock:
        Monotonic time source shared with the lease table; tests inject
        a fake to drive expiry deterministically.
    recorder:
        The :class:`repro.obs.Recorder` service counters land in
        (default: a fresh one).  Store hit/miss counters accumulate here
        too, which is where the status endpoint's cache hit rates come
        from.
    state_dir:
        Directory for durable broker state.  When given, every
        submission, lease grant, commit and failure is appended to an
        fsynced ``journal.jsonl`` there, and an existing journal is
        replayed on construction: jobs are re-planned against the
        store's current coverage (committed chunks drop out), attempt
        counts are restored, and outstanding pre-crash leases are
        reaped as expired so their chunks requeue.  ``None`` (default)
        keeps the historical in-memory-only queue.
    """

    def __init__(self, store_dir, store_format: str | None = None,
                 lease_timeout_s: float = 30.0, max_attempts: int = 5,
                 clock=time.monotonic, recorder: Recorder | None = None,
                 state_dir=None):
        self.max_attempts = require_int(max_attempts, "max_attempts",
                                        minimum=1)
        # Before the store opens: a bad timeout leaves no directory.
        self._leases = LeaseTable(timeout_s=lease_timeout_s, clock=clock)
        self.recorder = Recorder() if recorder is None else recorder
        self.store = ResultStore.open(store_dir, format=store_format,
                                      writer_name="serve.jsonl")
        self._clock = clock
        self._started = clock()
        self._lock = threading.RLock()
        self._changed = threading.Condition(self._lock)
        self._jobs: dict[str, _Job] = {}
        self._tasks: dict[str, ChunkTask] = {}
        self._queue: deque[str] = deque()
        self._workers: dict[str, dict] = {}
        self._job_counter = 0
        self._worker_counter = 0
        self._draining = False
        self._journal: BrokerJournal | None = None
        if state_dir is not None:
            self._journal = BrokerJournal(Path(state_dir) / JOURNAL_NAME)
            self._recover()

    @property
    def draining(self) -> bool:
        """Whether :meth:`begin_shutdown` stopped new submissions/leases."""
        with self._lock:
            return self._draining

    def begin_shutdown(self) -> None:
        """Stop accepting submissions and lease grants (graceful drain).

        Called from the SIGTERM path before the process exits: the
        journal is already flushed per append, in-flight leases stay
        journaled (a restarted broker reaps them as expired), and
        long-polling ``curve()`` clients are woken so they observe the
        current state instead of blocking on a dying process.
        """
        with self._changed:
            self._draining = True
            self._changed.notify_all()

    def close(self) -> None:
        """Release the store's backend resources."""
        self.store.close()

    def _journal_record(self, kind: str, **fields) -> None:
        if self._journal is not None:
            self._journal.record(kind, **fields)

    # ------------------------------------------------------------------
    # Submission and planning
    # ------------------------------------------------------------------
    def submit(self, spec_data) -> dict:
        """Plan a submitted grid into tasks; returns the job descriptor.

        Planning is :func:`repro.runs.store.plan_missing_chunks`, the
        same call :meth:`repro.runs.RunDriver.run_shard` makes: fully
        covered points are cache hits, partially covered points
        contribute only their missing chunks, and chunks already queued
        by an earlier overlapping job are attached rather than
        duplicated.  A grid that is entirely cached completes without a
        single lease being granted.
        """
        spec = (spec_data if isinstance(spec_data, JobSpec)
                else JobSpec.from_dict(spec_data))
        with self._changed, activate(self.recorder):
            if self._draining:
                raise BrokerDrainingError(
                    "broker is draining for shutdown; submit to a "
                    "restarted broker (queued state is journaled)")
            self._reap()
            job_id = f"job-{self._job_counter + 1:04d}"
            job = self._plan_job(spec, job_id)
            self._job_counter += 1
            self._journal_record("job", job_id=job_id, spec=spec.to_dict())
            self.recorder.counter("serve.jobs_submitted")
            self._changed.notify_all()
            return self._job_descriptor(job)

    def _plan_job(self, spec: JobSpec, job_id: str) -> _Job:
        """Plan ``spec`` into tasks under ``job_id`` (caller holds the
        lock).  Shared verbatim by :meth:`submit` and journal replay —
        replaying a ``job`` record against the *current* store coverage
        is exactly what drops already-committed chunks from a rebuilt
        queue.  A grid the engine cannot run raises :class:`BrokerError`
        before any task is created."""
        engine = spec.build_engine()
        try:
            engine.validate_points(spec.points)
        except (KeyError, TypeError, ValueError) as error:
            raise _request_error(error) from None
        config_digest = engine.config_digest()
        engine_params = engine.params()
        keys = []
        task_ids: list[str] = []
        points_cached = 0
        chunks_shared = 0
        for point in spec.points:
            key = measurement_key(engine.point_digest(point),
                                  config_digest,
                                  spec.payload_bits_per_packet)
            keys.append(key)
            plan = plan_missing_chunks(self.store, key, spec.num_packets,
                                       spec.chunk_packets)
            if plan.cached is not None:
                points_cached += 1
                continue
            for offset, packets in plan.missing:
                task_id = f"{key}:{offset}"
                task = self._tasks.get(task_id)
                if task is not None and task.state != "failed":
                    chunks_shared += 1
                else:
                    task = ChunkTask(
                        task_id=task_id, key=key, point=point,
                        packet_offset=int(offset),
                        num_packets=int(packets),
                        payload_bits_per_packet=spec.payload_bits_per_packet,
                        engine_params=engine_params)
                    self._tasks[task_id] = task
                    self._queue.append(task_id)
                task.job_ids.add(job_id)
                task_ids.append(task_id)
        job = _Job(job_id=job_id, spec=spec, keys=tuple(keys),
                   task_ids=tuple(task_ids), remaining=len(task_ids),
                   points_cached=points_cached,
                   chunks_shared=chunks_shared)
        if job.remaining == 0:
            job.state = "done"
        self._jobs[job_id] = job
        self.recorder.counter("serve.chunks_planned",
                              len(task_ids) - chunks_shared)
        self.recorder.counter("serve.chunks_shared", chunks_shared)
        return job

    # ------------------------------------------------------------------
    # Journal recovery
    # ------------------------------------------------------------------
    def _recover(self) -> None:
        """Rebuild queue state by replaying the journal (constructor).

        The journal is a redo log of intent, not a snapshot: ``job``
        records re-run the exact submit-time planning against the
        store's *current* coverage, so chunks committed at any time —
        before or after the crash — are dropped rather than
        re-simulated.  ``grant`` records restore attempt counts and
        advance the lease-id counter past every id ever issued; the
        leases themselves are not restored (reaped as expired), so any
        task that was leased at the crash sits requeued as pending.
        Replay is idempotent: recovering twice from the same journal
        (and store) reaches the same state.
        """
        records, corrupt = self._journal.read()
        if corrupt:
            self.recorder.counter("serve.journal_corrupt_lines", corrupt)
        if not records:
            return
        outstanding: dict[str, int] = {}  # task_id -> live grants at crash
        max_lease_serial = 0
        with self._lock, activate(self.recorder):
            for record in records:
                kind = record["kind"]
                task = self._tasks.get(record.get("task_id", ""))
                if kind == "job":
                    job_id = str(record["job_id"])
                    try:
                        spec = JobSpec.from_dict(record["spec"])
                        self._job_counter = max(
                            self._job_counter, _id_serial(job_id))
                        self._plan_job(spec, job_id)
                    except (BrokerError, ValueError):
                        # A journal written by an incompatible code
                        # version; skip the job, keep the broker up.
                        self.recorder.counter(
                            "serve.jobs_recovery_skipped")
                        continue
                    self.recorder.counter("serve.jobs_recovered")
                elif kind == "grant":
                    lease_data = record["lease"]
                    max_lease_serial = max(
                        max_lease_serial,
                        _id_serial(str(lease_data.get("lease_id", ""))))
                    if task is not None:
                        task.attempts = max(
                            task.attempts, int(lease_data.get("attempt", 1)))
                        outstanding[task.task_id] = \
                            outstanding.get(task.task_id, 0) + 1
                elif kind == "release":
                    if task is not None:
                        # A graceful worker shutdown returned the lease;
                        # that grant never counts toward max_attempts.
                        task.attempts = max(task.attempts - 1, 0)
                        outstanding[task.task_id] = max(
                            outstanding.get(task.task_id, 0) - 1, 0)
                elif kind == "commit":
                    # Written by older versions after the store ingest;
                    # planning already dropped the committed chunk, so
                    # its task no longer exists to count as requeued.
                    outstanding.pop(record["task_id"], None)
                elif kind == "requeue":
                    outstanding.pop(record["task_id"], None)
                elif kind == "task_failed":
                    outstanding.pop(record["task_id"], None)
                    if task is not None and task.state != "failed":
                        self._fail_task(task, str(record["reason"]))
            self._leases.advance_ids(max_lease_serial)
            requeued = sum(
                1 for task_id, grants in outstanding.items() if grants > 0
                and (task := self._tasks.get(task_id)) is not None
                and task.state == "pending")
            self.recorder.counter("serve.tasks_requeued", requeued)

    # ------------------------------------------------------------------
    # Worker-facing: register / lease / heartbeat / commit
    # ------------------------------------------------------------------
    def register_worker(self, name: str | None = None) -> dict:
        """Register a worker; returns its assigned id."""
        with self._lock:
            self._worker_counter += 1
            worker_id = f"worker-{self._worker_counter:04d}"
            self._workers[worker_id] = {
                "worker_id": worker_id,
                "name": name or worker_id,
                "registered_at": self._clock(),
                "last_seen": self._clock(),
                "chunks_committed": 0,
            }
            self.recorder.counter("serve.workers_registered")
            return {"worker_id": worker_id,
                    "lease_timeout_s": self._leases.timeout_s}

    def lease(self, worker_id: str) -> dict:
        """Hand the next pending chunk to ``worker_id`` (the pull).

        Returns ``{"task": <descriptor>, "lease_id": ..., ...}`` or,
        when nothing is pending, ``{"task": None, "outstanding": N}``
        with the number of chunks still leased or queued — workers use
        ``outstanding == 0`` as their exit-when-idle signal.
        """
        with self._lock:
            self._touch_worker(worker_id)
            self._reap()
            while self._queue and not self._draining:
                task = self._tasks.get(self._queue.popleft())
                if task is None or task.state != "pending":
                    continue  # committed or failed while queued
                task.state = "leased"
                task.attempts += 1
                lease = self._leases.grant(task.task_id, worker_id,
                                           attempt=task.attempts)
                self._journal_record("grant", task_id=task.task_id,
                                     lease=lease.to_dict())
                self.recorder.counter("serve.chunks_leased")
                return {"task": task.descriptor(),
                        "lease_id": lease.lease_id,
                        "attempt": lease.attempt,
                        "lease_timeout_s": self._leases.timeout_s}
            outstanding = sum(1 for task in self._tasks.values()
                              if task.state in ("pending", "leased"))
            response = {"task": None, "outstanding": outstanding}
            if self._draining:
                response["draining"] = True
            return response

    def heartbeat(self, lease_id: str) -> dict:
        """Renew a lease (raises :class:`repro.serve.leases.LeaseError`
        when it is unknown or already expired)."""
        with self._lock:
            self._reap()
            lease = self._leases.renew(lease_id)
            self._touch_worker(lease.worker_id)
            self.recorder.counter("serve.heartbeats")
            return {"lease_id": lease.lease_id,
                    "lease_timeout_s": self._leases.timeout_s}

    def commit(self, lease_id: str, task_id: str, measurement_data,
               next_lease: bool = False) -> dict:
        """Ingest one simulated chunk (the at-most-once commit point).

        The happy path releases the lease and stores the chunk.  A
        *stale* commit — the lease expired and was reaped, possibly with
        the chunk already re-executed by another worker — is still
        ingested through the store's idempotent replay check: identical
        counts land as a duplicate (a no-op beyond telemetry), different
        counts raise :class:`CommitConflictError`.  Either way packets
        are never double-counted.

        With ``next_lease`` a commit that is not stale also leases the
        committing worker its next chunk: the reply's ``"next"`` is the
        :meth:`lease` reply for the released lease's worker (journaled
        after the ``commit`` record).  Without it the reply is unchanged.
        """
        measurement = BERPoint.from_dict(measurement_data)
        with self._changed, activate(self.recorder):
            self._reap()
            stale = False
            worker_id = None
            try:
                lease = self._leases.release(lease_id)
                if lease.task_id != task_id:
                    raise BrokerError(
                        f"lease {lease_id} covers task {lease.task_id}, "
                        f"not {task_id}")
                if lease.expired(self._clock()):
                    stale = True
                worker_id = lease.worker_id
                self._touch_worker(worker_id)
            except UnknownLeaseError:
                stale = True
            task = self._tasks.get(task_id)
            if task is None:
                raise BrokerError(f"unknown task {task_id!r}")
            duplicate = task.state == "done"
            try:
                self.store.add_chunk(task.key, task.packet_offset,
                                     measurement)
            except ValueError as error:
                self.recorder.counter("serve.commit_conflicts")
                raise CommitConflictError(
                    f"chunk {task_id} commit conflicts with the stored "
                    f"measurement ({error}); the committing worker is "
                    "not bit-reproducing this chunk — check its code "
                    "version") from None
            self.recorder.counter("serve.chunks_committed")
            self.recorder.counter("serve.packets_committed",
                                  measurement.packets_sent)
            if stale:
                self.recorder.counter("serve.commits_stale")
            if duplicate:
                self.recorder.counter("serve.commit_duplicates")
            else:
                # The store ingest above is the commit's one durable
                # write: replay re-plans against the store, so a
                # committed chunk needs no journal record.
                task.state = "done"
                task.last_error = None
                for job_id in task.job_ids:
                    job = self._jobs[job_id]
                    job.version += 1
                    job.remaining -= 1
                    if job.remaining == 0 and job.state == "running":
                        job.state = "done"
                self._changed.notify_all()
            reply = {"ok": True, "duplicate": duplicate, "stale": stale}
            if next_lease and not stale:
                reply["next"] = self.lease(worker_id)
            return reply

    def fail(self, lease_id: str, task_id: str, error: str) -> dict:
        """A worker reporting it cannot complete its chunk.

        Releases the lease and requeues the chunk immediately (rather
        than waiting out the lease timeout); the attempt still counts
        toward ``max_attempts``.
        """
        with self._changed:
            try:
                self._leases.release(lease_id)
            except UnknownLeaseError:
                pass  # already reaped; the task was requeued then
            task = self._tasks.get(task_id)
            if task is None:
                raise BrokerError(f"unknown task {task_id!r}")
            if task.state == "leased":
                self._requeue(task, f"worker error: {error}")
                self._changed.notify_all()
            return {"ok": True, "state": task.state}

    def release(self, lease_id: str, task_id: str) -> dict:
        """A worker gracefully returning a lease it will not finish.

        The shutdown path (SIGTERM'd worker): the chunk requeues
        immediately *and the grant is un-counted* — unlike :meth:`fail`,
        a graceful release never moves a task toward ``max_attempts``,
        because nothing went wrong with the chunk.
        """
        with self._changed:
            try:
                self._leases.release(lease_id)
            except UnknownLeaseError:
                pass  # already reaped; the task was requeued then
            task = self._tasks.get(task_id)
            if task is None:
                raise BrokerError(f"unknown task {task_id!r}")
            if task.state == "leased":
                task.attempts = max(task.attempts - 1, 0)
                task.state = "pending"
                task.last_error = None
                self._queue.append(task.task_id)
                self._journal_record("release", task_id=task.task_id)
                self.recorder.counter("serve.leases_released")
                self._changed.notify_all()
            return {"ok": True, "state": task.state}

    # ------------------------------------------------------------------
    # Client-facing: status / curves
    # ------------------------------------------------------------------
    def job_ids(self) -> tuple[str, ...]:
        """Every submitted job id, in submission order."""
        with self._lock:
            return tuple(self._jobs)

    def job_status(self, job_id: str) -> dict:
        """One job's descriptor: state, version, progress."""
        with self._lock:
            self._reap()
            return self._job_descriptor(self._require_job(job_id))

    def curve(self, job_id: str, wait_version: int | None = None,
              timeout_s: float | None = None) -> dict:
        """The job's measured points, in grid order (the partial curve).

        With ``wait_version`` the call long-polls: it blocks until the
        job's version exceeds it (another chunk landed), the job reaches
        a terminal state, or ``timeout_s`` passes — so clients stream
        curve updates without busy-polling.  Assembly reads the shared
        store exactly like :meth:`repro.runs.RunDriver.merge` (pooled
        contiguous chunks per key, grid order), which is what makes a
        completed fleet curve bit-identical to a local driver run.
        """
        with self._changed:
            job = self._require_job(job_id)
            if wait_version is not None:
                deadline = None if timeout_s is None \
                    else self._clock() + timeout_s
                while (job.version <= wait_version
                       and job.state == "running"
                       and not self._draining):
                    remaining = None if deadline is None \
                        else deadline - self._clock()
                    if remaining is not None and remaining <= 0:
                        break
                    if not self._changed.wait(timeout=remaining):
                        break
            requested = job.spec.num_packets
            entries = []
            for point, key in zip(job.spec.points, job.keys):
                measurement = self.store.lookup(key, requested)
                if measurement is not None:
                    entries.append((point, measurement))
            descriptor = self._job_descriptor(job)
            descriptor["points_measured"] = len(entries)
            descriptor["complete"] = len(entries) == len(job.spec.points)
            descriptor["points"] = [
                {"point": point.to_dict(),
                 "measurement": measurement.to_dict()}
                for point, measurement in entries]
            return descriptor

    def result(self, job_id: str) -> SweepResult:
        """The job's measured points as a :class:`SweepResult` (in-process
        convenience; the HTTP path goes through :meth:`curve`)."""
        return result_from_curve_payload(self.curve(job_id))

    def status(self) -> dict:
        """Service-level status: workers, queue depths, throughput,
        per-scenario progress and store cache hit rates."""
        with self._lock:
            self._reap()
            states = {"pending": 0, "leased": 0, "done": 0, "failed": 0}
            scenarios: dict[str, dict] = {}
            for task in self._tasks.values():
                states[task.state] += 1
                entry = scenarios.setdefault(task.point.scenario, {
                    "chunks_total": 0, "chunks_done": 0,
                    "packets_total": 0, "packets_done": 0})
                entry["chunks_total"] += 1
                entry["packets_total"] += task.num_packets
                if task.state == "done":
                    entry["chunks_done"] += 1
                    entry["packets_done"] += task.num_packets
            totals = self.recorder.counter_totals()
            hits = totals.get("store.lookup_hits", 0)
            misses = totals.get("store.lookup_misses", 0)
            lookups = hits + misses
            elapsed = max(self._clock() - self._started, 1e-9)
            committed = totals.get("serve.chunks_committed", 0)
            jobs = {"running": 0, "done": 0, "failed": 0}
            for job in self._jobs.values():
                jobs[job.state] += 1
            return {
                "workers": sorted(self._workers.values(),
                                  key=lambda info: info["worker_id"]),
                "draining": self._draining,
                "durable": self._journal is not None,
                "jobs": jobs,
                "tasks": states,
                "leases_active": len(self._leases),
                "scenarios": scenarios,
                "throughput": {
                    "elapsed_s": elapsed,
                    "chunks_committed": committed,
                    "packets_committed":
                        totals.get("serve.packets_committed", 0),
                    "chunks_per_s": committed / elapsed,
                },
                "cache": {
                    "lookup_hits": hits,
                    "lookup_misses": misses,
                    "hit_rate": hits / lookups if lookups else None,
                },
                "counters": totals,
            }

    def render_metrics(self) -> str:
        """The recorder's Prometheus text exposition (``/metrics``)."""
        with self._lock:
            return self.recorder.render_prom()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _require_job(self, job_id: str) -> _Job:
        job = self._jobs.get(job_id)
        if job is None:
            raise UnknownJobError(f"unknown job {job_id!r}")
        return job

    def _job_descriptor(self, job: _Job) -> dict:
        done = sum(1 for task_id in set(job.task_ids)
                   if self._tasks[task_id].state == "done")
        return {"job_id": job.job_id,
                "name": job.spec.name,
                "state": job.state,
                "version": job.version,
                "error": job.error,
                "points_total": len(job.spec.points),
                "points_cached_at_submit": job.points_cached,
                "chunks_total": len(job.task_ids),
                "chunks_done": done,
                "chunks_shared": job.chunks_shared,
                "num_packets": job.spec.num_packets}

    def _touch_worker(self, worker_id: str) -> None:
        info = self._workers.get(worker_id)
        if info is None:
            raise BrokerError(f"unknown worker {worker_id!r}; register "
                              "first (POST /api/v1/workers)")
        info["last_seen"] = self._clock()

    def _reap(self) -> None:
        """Expire overdue leases, requeueing or failing their tasks."""
        for lease in self._leases.reap():
            task = self._tasks.get(lease.task_id)
            if task is None or task.state != "leased":
                continue
            self.recorder.counter("serve.leases_expired")
            self._requeue(task,
                          f"lease {lease.lease_id} expired on worker "
                          f"{lease.worker_id} (attempt {lease.attempt})")

    def _requeue(self, task: ChunkTask, reason: str) -> None:
        task.last_error = reason
        if task.attempts >= self.max_attempts:
            self._fail_task(task, reason)
            self._journal_record("task_failed", task_id=task.task_id,
                                 reason=reason)
            self._changed.notify_all()
        else:
            task.state = "pending"
            self._queue.append(task.task_id)
            self._journal_record("requeue", task_id=task.task_id,
                                 reason=reason)

    def _fail_task(self, task: ChunkTask, reason: str) -> None:
        """Mark a task terminally failed and fail every attached job
        (shared by the live attempt-cap path and journal replay)."""
        task.state = "failed"
        task.last_error = reason
        self.recorder.counter("serve.chunks_failed")
        for job_id in task.job_ids:
            job = self._jobs[job_id]
            if job.state == "running":
                job.state = "failed"
                job.error = (f"chunk {task.task_id} failed after "
                             f"{task.attempts} attempt(s): {reason}")
                job.version += 1
