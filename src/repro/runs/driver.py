"""Sharded, resumable run driver over the content-addressed result store.

A *run* is a directory:

.. code-block:: text

    runs/<name>/
        manifest.json               # grid, seed, digests, shard plan
        store/                      # ResultStore cache directory
            shard-000-of-004.jsonl  # one append-only file per shard writer
            ...
        shards/
            shard-000-of-004.done   # completion marker per shard
        artifacts/                  # named curve exports (repro.runs.artifacts)

The manifest pins everything needed to reproduce the grid — the explicit
point list, engine seed/generation/backend, config digest, packet budget
and the code version that created it — so a shard can execute on any
machine that sees the directory (or a copy of it): shard ``i`` of ``k``
always owns points ``i, i+k, i+2k, ...`` of the manifest order.  Because
the sweep engine keys every point's random stream on point *content*,
shard outputs merge into results bit-identical to an unsharded run, in
any execution order, and a crashed shard resumes by re-running: points
already in the store are served from cache.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.metrics import BERPoint
from repro.obs.ledger import (LEDGER_NAME, SUMMARY_NAME, EventLedger,
                              write_summary)
from repro.obs.recorder import activate
from repro.sim.engine import SweepEngine, SweepPoint, SweepResult
from repro.runs.store import (STORE_FORMATS, ResultStore,
                              detect_store_format, measurement_key,
                              plan_missing_chunks)
from repro.utils.io import atomic_write_text
from repro.utils.validation import require_int, require_json_int

__all__ = ["RunManifest", "RunReport", "RunDriver", "grid_digest"]

_MANIFEST_VERSION = 1
_MANIFEST_NAME = "manifest.json"
_STORE_DIR = "store"
_SHARDS_DIR = "shards"
_ARTIFACTS_DIR = "artifacts"


def _code_version() -> str:
    import repro
    return getattr(repro, "__version__", "unknown")


def grid_digest(points, config_digest: str,
                payload_bits_per_packet: int) -> str:
    """Digest of a grid's identity: points, config digest, payload size.

    What :meth:`RunManifest.grid_digest` returns, computable before a
    manifest exists (``python -m repro sweep`` names runs with it).
    """
    payload = json.dumps({
        "points": [point.to_dict() for point in points],
        "config": config_digest,
        "payload_bits_per_packet": payload_bits_per_packet,
    }, sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class RunManifest:
    """Everything that identifies and reproduces one sharded run.

    ``chunk_packets`` records the run's chunk layout — how each point's
    packet budget splits into seeded chunks (``None``, the historical
    default, is one chunk per point).  The layout determines which
    independent random streams are drawn, so it must be replayed exactly
    for resumed shards to merge bit-identically; like ``num_packets`` it
    is coverage, not identity, and is excluded from :meth:`grid_digest`
    (manifests written before chunking load as ``None`` and old
    point-level cache entries stay readable).

    ``engine_params`` is the engine's :meth:`repro.sim.SweepEngine.params`
    dict (seed, generation, backend, quantize), stored as top-level keys
    of ``manifest.json``.

    ``store_format`` records which result-store backend the run's cache
    directory uses (``"jsonl"``, the historical default, or
    ``"sqlite"`` — see :mod:`repro.runs.warehouse`); every store access
    goes through it, so a migrated run keeps opening with the right
    backend.  Like the coverage fields it is excluded from
    :meth:`grid_digest` — the backend changes where bytes live, never
    what they mean.
    """

    name: str
    engine_params: dict
    custom_config: bool
    config_digest: str
    num_packets: int
    payload_bits_per_packet: int
    num_shards: int
    code_version: str
    chunk_packets: int | None = None
    store_format: str = "jsonl"
    points: tuple[SweepPoint, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        require_int(self.num_shards, "num_shards", minimum=1)
        if self.store_format not in STORE_FORMATS:
            raise ValueError(
                f"run manifest names unknown store format "
                f"{self.store_format!r}; known formats: "
                f"{', '.join(STORE_FORMATS)}")
        require_int(self.num_packets, "num_packets", minimum=1)
        if self.chunk_packets is not None:
            require_int(self.chunk_packets, "chunk_packets", minimum=1)
        require_int(self.payload_bits_per_packet,
                    "payload_bits_per_packet", minimum=1)
        if not self.points:
            raise ValueError("a run needs at least one grid point")

    # -- identity -------------------------------------------------------
    def grid_digest(self) -> str:
        """Digest of the grid's identity: points, config, payload size.

        Two manifests with equal grid digests cache into the same key
        space, so the digest guards against resuming a run directory with
        mismatched arguments.  ``num_packets`` is deliberately excluded —
        packet count is coverage, not identity (the same store tops a
        point up when the budget is raised), mirroring
        :func:`repro.runs.store.measurement_key`.
        """
        return grid_digest(self.points, self.config_digest,
                           self.payload_bits_per_packet)

    def key_for(self, point: SweepPoint) -> str:
        """The result-store key of ``point``'s measurements in this run.

        Derived from the manifest alone (no engine needed), so runs with
        a custom base config are as readable as any other.
        """
        return measurement_key(SweepEngine.point_digest(point),
                               self.config_digest,
                               self.payload_bits_per_packet)

    # -- sharding -------------------------------------------------------
    def points_for_shard(self, shard_index: int) -> tuple[SweepPoint, ...]:
        """Shard ``i`` of ``k`` owns manifest points ``i, i+k, i+2k, ...``.

        Round-robin keeps every shard's load balanced across curves (the
        grid orders Eb/N0 fastest, so contiguous slices would give one
        shard all the slow low-SNR points of a curve).
        """
        require_int(shard_index, "shard_index", minimum=0)
        if shard_index >= self.num_shards:
            raise ValueError(f"shard_index {shard_index} out of range for "
                             f"{self.num_shards} shard(s)")
        return self.points[shard_index::self.num_shards]

    def shard_file_stem(self, shard_index: int) -> str:
        """Base name shared by a shard's store file and completion marker."""
        return f"shard-{shard_index:03d}-of-{self.num_shards:03d}"

    # -- persistence ----------------------------------------------------
    def to_dict(self) -> dict:
        """Plain-type mapping persisted as ``manifest.json``."""
        return {
            "manifest_version": _MANIFEST_VERSION,
            "name": self.name,
            **self.engine_params,
            "custom_config": self.custom_config,
            "config_digest": self.config_digest,
            "grid_digest": self.grid_digest(),
            "num_packets": self.num_packets,
            "payload_bits_per_packet": self.payload_bits_per_packet,
            "num_shards": self.num_shards,
            "code_version": self.code_version,
            "chunk_packets": self.chunk_packets,
            "store_format": self.store_format,
            "points": [point.to_dict() for point in self.points],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RunManifest":
        """Parse a manifest mapping, verifying version and grid digest.

        The engine fields go through :meth:`repro.sim.SweepEngine
        .from_params`, so a manifest naming an unknown backend (one from
        a newer code version, say) is rejected here.  The counts must be
        JSON integers (``4.0`` counts as 4; ``3.7`` and ``true`` are
        rejected).
        """
        if data.get("manifest_version") != _MANIFEST_VERSION:
            raise ValueError("unsupported manifest version "
                             f"{data.get('manifest_version')!r}")
        try:
            manifest = cls(
                name=str(data["name"]),
                engine_params=SweepEngine.from_params(data).params(),
                custom_config=bool(data["custom_config"]),
                config_digest=str(data["config_digest"]),
                num_packets=require_json_int(data["num_packets"],
                                             "num_packets"),
                payload_bits_per_packet=require_json_int(
                    data["payload_bits_per_packet"],
                    "payload_bits_per_packet"),
                num_shards=require_json_int(data["num_shards"],
                                            "num_shards"),
                code_version=str(data["code_version"]),
                chunk_packets=(None if data.get("chunk_packets") is None
                               else require_json_int(data["chunk_packets"],
                                                     "chunk_packets")),
                store_format=str(data.get("store_format", "jsonl")),
                points=tuple(SweepPoint.from_dict(point)
                             for point in data["points"]))
        except (KeyError, TypeError) as error:
            raise ValueError(f"malformed run manifest: {error}") from None
        recorded = data.get("grid_digest")
        if recorded is not None and recorded != manifest.grid_digest():
            raise ValueError("run manifest grid digest mismatch (edited "
                             "points or parameters?)")
        return manifest

    def save(self, run_dir) -> Path:
        """Atomically write ``manifest.json`` into ``run_dir``; returns its path."""
        run_dir = Path(run_dir)
        run_dir.mkdir(parents=True, exist_ok=True)
        path = run_dir / _MANIFEST_NAME
        atomic_write_text(path, json.dumps(self.to_dict(), indent=2,
                                           sort_keys=True) + "\n")
        return path

    @classmethod
    def load(cls, run_dir) -> "RunManifest":
        """Read and validate ``run_dir``'s ``manifest.json``."""
        path = Path(run_dir) / _MANIFEST_NAME
        if not path.is_file():
            raise FileNotFoundError(f"no run manifest at {path}")
        return cls.from_dict(json.loads(path.read_text(encoding="utf-8")))


@dataclass
class RunReport:
    """What one shard execution did: served from cache vs simulated."""

    shard_index: int
    num_shards: int
    points_total: int = 0
    points_cached: int = 0
    points_simulated: int = 0
    packets_cached: int = 0
    packets_simulated: int = 0
    chunks_simulated: int = 0

    @property
    def all_cached(self) -> bool:
        """True when the shard performed zero simulation work."""
        return self.points_simulated == 0 and self.packets_simulated == 0

    def summary(self) -> str:
        """One-line human-readable account of the shard execution."""
        text = (f"shard {self.shard_index}/{self.num_shards}: "
                f"{self.points_total} point(s) -> "
                f"{self.points_simulated} simulated, "
                f"{self.points_cached} cached "
                f"({self.packets_simulated} packets simulated in "
                f"{self.chunks_simulated} chunk(s), "
                f"{self.packets_cached} served from cache)")
        if self.points_total and self.all_cached:
            text += " [all points served from cache]"
        return text


class RunDriver:
    """Executes, resumes and merges one manifest's shards.

    Build one with :meth:`create` (new run directory) or :meth:`open`
    (existing directory, e.g. to resume after a crash or to execute a
    different shard of the same run on another machine).  ``engine`` is
    ``None`` for a run opened without one that was created with a custom
    base config: such a driver reads, merges and reports, but
    :meth:`run_shard` refuses to simulate.
    """

    def __init__(self, run_dir, manifest: RunManifest,
                 engine: SweepEngine | None) -> None:
        self.run_dir = Path(run_dir)
        self.manifest = manifest
        self.engine = engine
        if engine is not None \
                and engine.config_digest() != manifest.config_digest:
            raise ValueError(
                "engine configuration does not match the run manifest "
                "(different seed, generation, backend, quantize or base "
                "config); refusing to mix results")

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def create(cls, run_dir, engine: SweepEngine, points,
               num_packets: int = 32, payload_bits_per_packet: int = 64,
               num_shards: int = 1, name: str | None = None,
               store_format: str | None = None) -> "RunDriver":
        """Start (or idempotently re-open) a run directory for a grid.

        When ``run_dir`` already holds a manifest, the requested grid must
        digest identically — then the existing run is reused (that is what
        makes ``sweep`` re-invocations cache hits) — otherwise a
        ``ValueError`` explains the mismatch.  A different ``num_packets``
        on the same grid is *escalation*, not a different run: the
        manifest adopts the new budget and shard completion markers are
        cleared, so re-running shards simulates only each point's missing
        tail chunk.

        ``store_format`` picks the result-store backend for a *new* run
        (``None`` defers to whatever the store directory already holds,
        then ``"jsonl"``).  An existing run keeps its recorded format;
        explicitly requesting a different one raises and points at
        ``python -m repro store migrate``.

        The grid is checked with
        :meth:`repro.sim.SweepEngine.validate_points` before anything is
        written, so a grid the engine cannot run leaves no directory.
        """
        from dataclasses import replace

        run_dir = Path(run_dir)
        points = tuple(points)
        engine.validate_points(points)
        resolved_format = store_format
        if resolved_format is None:
            resolved_format = detect_store_format(run_dir / _STORE_DIR) \
                or "jsonl"
        manifest = RunManifest(
            name=name if name is not None else run_dir.name,
            engine_params=engine.params(),
            custom_config=engine.config is not None,
            config_digest=engine.config_digest(),
            num_packets=num_packets,
            payload_bits_per_packet=payload_bits_per_packet,
            num_shards=num_shards,
            code_version=_code_version(),
            chunk_packets=engine.chunk_packets,
            store_format=resolved_format,
            points=points)
        if (run_dir / _MANIFEST_NAME).is_file():
            existing = RunManifest.load(run_dir)
            if store_format is not None \
                    and store_format != existing.store_format:
                raise ValueError(
                    f"run {run_dir} uses the {existing.store_format!r} "
                    f"store format, not {store_format!r}; convert it "
                    f"with: python -m repro store migrate {run_dir}")
            manifest = replace(manifest,
                               store_format=existing.store_format)
            if existing.grid_digest() != manifest.grid_digest():
                raise ValueError(
                    f"run directory {run_dir} already holds a different "
                    "run (grid digest mismatch); pick another directory "
                    "or delete the old run")
            if existing.num_shards != manifest.num_shards:
                raise ValueError(
                    f"run {run_dir} was created with "
                    f"{existing.num_shards} shard(s), not "
                    f"{manifest.num_shards}; the shard plan is fixed at "
                    "creation")
            if (existing.num_packets == manifest.num_packets
                    and existing.chunk_packets == manifest.chunk_packets):
                manifest = existing
            else:
                # A coverage change on the same grid: record it.  The
                # store is untouched; every cached chunk still counts.
                manifest.save(run_dir)
                if existing.num_packets != manifest.num_packets:
                    # Escalated (or reduced) packet budget: invalidate
                    # completion markers — they certified coverage of the
                    # old budget.  A mere chunk-layout change keeps them:
                    # the packets they certify are still covered.
                    for marker in (run_dir / _SHARDS_DIR).glob("*.done"):
                        marker.unlink()
        else:
            manifest.save(run_dir)
        return cls(run_dir, manifest, engine)

    @classmethod
    def open(cls, run_dir, engine: SweepEngine | None = None) -> "RunDriver":
        """Open an existing run, rebuilding the engine from the manifest.

        Runs created from an engine with a custom base config cannot
        rebuild it from JSON.  Without an ``engine`` such a run opens
        read-only (``self.engine`` is ``None``); to simulate, pass the
        same ``engine`` explicitly (it is digest-checked against the
        manifest).
        """
        manifest = RunManifest.load(run_dir)
        if engine is None and not manifest.custom_config:
            engine = SweepEngine.from_params(
                manifest.engine_params, chunk_packets=manifest.chunk_packets)
        return cls(run_dir, manifest, engine)

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------
    @property
    def store_dir(self) -> Path:
        """The run's content-addressed result store directory."""
        return self.run_dir / _STORE_DIR

    @property
    def artifacts_dir(self) -> Path:
        """Where ``merge`` exports named curve artifacts."""
        return self.run_dir / _ARTIFACTS_DIR

    def _marker_path(self, shard_index: int) -> Path:
        return (self.run_dir / _SHARDS_DIR
                / (self.manifest.shard_file_stem(shard_index) + ".done"))

    def open_store(self, writer_name: str = "store.jsonl") -> ResultStore:
        """Open the run's store with the manifest's recorded backend."""
        return ResultStore.open(self.store_dir,
                                format=self.manifest.store_format,
                                writer_name=writer_name)

    def store_for_shard(self, shard_index: int) -> ResultStore:
        """The shared store, writing under this shard's own writer name.

        On the JSONL backend that is the shard's private append file; on
        the SQLite backend the name becomes each chunk row's provenance
        tag.
        """
        stem = self.manifest.shard_file_stem(shard_index)
        return self.open_store(writer_name=stem + ".jsonl")

    def register_with_warehouse(self, store: ResultStore) -> None:
        """Populate a warehouse store's point metadata and run registry.

        Describes every manifest point's measurement key (scenario,
        modulation, Eb/N0, config digest — what ``python -m repro
        query`` filters on) and registers the run's key requirements
        (what ``store gc --keep-runs`` retains by).  A no-op on backends
        without a registry (the JSONL format).
        """
        if not hasattr(store, "register_run"):
            return
        manifest = self.manifest
        entries = []
        keys = []
        for point in manifest.points:
            key = manifest.key_for(point)
            keys.append(key)
            entries.append((key, {
                "scenario": point.scenario,
                "modulation": point.modulation,
                "adc_bits": point.adc_bits,
                "ebn0_db": point.ebn0_db,
                "config_digest": manifest.config_digest,
                "payload_bits_per_packet":
                    manifest.payload_bits_per_packet,
            }))
        store.describe_keys(entries)
        store.register_run(manifest.name, manifest.grid_digest(),
                           manifest.num_packets, keys)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run_shard(self, shard_index: int = 0,
                  max_workers: int | None = None,
                  on_point=None, on_chunk=None, on_plan=None) -> RunReport:
        """Execute one shard: cached chunks are served, the rest simulated.

        Each point is planned with
        :func:`repro.runs.store.plan_missing_chunks` (the broker's
        planner too): its uncovered tail is decomposed into the
        manifest's chunk layout and chunks already in the store (even
        beyond a coverage gap left by a crashed or faulted run) are
        skipped, so a resume re-runs *only* the missing chunks.  The
        chunk tasks of all points fan out together when ``max_workers``
        is set (through :meth:`repro.sim.SweepEngine.measure_points`,
        shared-memory input/result transport) — results are
        bit-identical to a serial run of the same layout, and every
        completed chunk is persisted even when another chunk's worker
        fails mid-shard.  Safe to re-run after a crash — completed chunks
        are already in the store and skipped.

        Progress hooks (all optional; what ``--progress`` drives):
        ``on_plan(num_chunks, packets_cached)`` once after cache
        resolution, ``on_chunk(point, packet_offset, measurement)`` per
        freshly simulated chunk (after it is persisted), ``on_point
        (point, measurement, source)`` per point in shard order with
        ``source`` ``"cached"`` or ``"simulated"``.

        When the engine carries an enabled :class:`repro.obs.Recorder`,
        the shard's telemetry (cache hit/miss counters, chunk spans, the
        ``driver.run_shard`` envelope span) is flushed — in a
        ``finally``, so a crashed shard still leaves its partial ledger
        — to ``events.jsonl`` + ``telemetry.json`` in the run directory.

        Raises ``ValueError`` on a custom-config run opened without its
        engine: there is nothing to simulate with.
        """
        if self.engine is None:
            raise ValueError(
                "this run was created with a custom base config; pass "
                "the same engine to RunDriver.open()")
        recorder = self.engine.recorder
        try:
            with activate(recorder), \
                    recorder.span("driver.run_shard",
                                  shard=int(shard_index)):
                return self._run_shard_inner(shard_index, max_workers,
                                             on_point, on_chunk, on_plan)
        finally:
            if recorder.enabled:
                self.flush_telemetry()

    def _run_shard_inner(self, shard_index: int, max_workers, on_point,
                         on_chunk, on_plan) -> RunReport:
        manifest = self.manifest
        recorder = self.engine.recorder
        points = manifest.points_for_shard(shard_index)
        store = self.store_for_shard(shard_index)
        self.register_with_warehouse(store)
        report = RunReport(shard_index=shard_index,
                           num_shards=manifest.num_shards,
                           points_total=len(points))
        requested = manifest.num_packets
        payload_bits = manifest.payload_bits_per_packet

        resolved: dict[int, BERPoint] = {}
        jobs: list[tuple[int, str]] = []
        chunk_jobs: list[tuple[SweepPoint, int, int]] = []
        key_by_point: dict[SweepPoint, str] = {}
        chunks_resumed = 0
        for index, point in enumerate(points):
            key = manifest.key_for(point)
            key_by_point[point] = key
            plan = plan_missing_chunks(store, key, requested,
                                       manifest.chunk_packets)
            report.packets_cached += plan.packets_stored
            if plan.cached is not None:
                resolved[index] = plan.cached
                report.points_cached += 1
                continue
            chunks_resumed += plan.resumed
            jobs.append((index, key))
            chunk_jobs.extend((point, packets, offset)
                              for offset, packets in plan.missing)
        recorder.counter("cache.points_hit", report.points_cached)
        recorder.counter("cache.points_missed", len(jobs))
        recorder.counter("cache.chunks_resumed", chunks_resumed)
        recorder.counter("cache.packets_cached", report.packets_cached)
        if on_plan is not None:
            on_plan(len(chunk_jobs), report.packets_cached)

        def persist(point, packet_offset, measurement) -> None:
            # Store writes stay on the driver thread, in deterministic
            # schedule order — and they happen for every completed chunk
            # even when a sibling chunk's failure is about to propagate,
            # which is what makes a faulted shard resumable.
            store.add_chunk(key_by_point[point], packet_offset, measurement)
            report.chunks_simulated += 1
            report.packets_simulated += measurement.packets_sent
            if on_chunk is not None:
                on_chunk(point, packet_offset, measurement)

        if chunk_jobs:
            # The spans above already realize the manifest's layout; a
            # chunk size >= any span keeps each one a single chunk, so
            # the engine's own default layout can never re-split them.
            self.engine.measure_points(
                chunk_jobs, payload_bits_per_packet=payload_bits,
                max_workers=max_workers, chunk_packets=requested,
                on_chunk=persist)

        for index, key in jobs:
            resolved[index] = store.lookup(key, requested)
            report.points_simulated += 1

        if on_point is not None:
            simulated = {index for index, _ in jobs}
            for index, point in enumerate(points):
                source = "simulated" if index in simulated else "cached"
                on_point(point, resolved[index], source)

        marker = self._marker_path(shard_index)
        marker.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_text(marker, json.dumps({
            "shard_index": shard_index,
            "num_shards": manifest.num_shards,
            "points_total": report.points_total,
            "points_simulated": report.points_simulated,
            "points_cached": report.points_cached,
        }, sort_keys=True) + "\n")
        return report

    def flush_telemetry(self) -> dict:
        """Flush the engine recorder into the run's telemetry artifacts.

        Drains the recorder's events into the append-only
        ``events.jsonl`` ledger (one atomic append per flush), then
        atomically rewrites ``telemetry.json`` as the aggregate of the
        *whole* ledger — so concurrent or sequential shard executions
        compose, and a crash between the two writes costs only summary
        freshness, never raw events.  Returns the summary payload.
        """
        ledger = EventLedger(self.run_dir / LEDGER_NAME)
        ledger.append(self.engine.recorder.drain())
        events, _corrupt = ledger.read()
        return write_summary(self.run_dir / SUMMARY_NAME, events)

    def pending_shards(self) -> tuple[int, ...]:
        """Shards without a completion marker (crashed, or never started)."""
        return tuple(index for index in range(self.manifest.num_shards)
                     if not self._marker_path(index).is_file())

    def shard_status(self) -> dict[int, str]:
        """Per-shard state: ``done``, ``partial`` (some points cached) or
        ``pending``."""
        status: dict[int, str] = {}
        store = self.open_store()
        for index in range(self.manifest.num_shards):
            if self._marker_path(index).is_file():
                status[index] = "done"
                continue
            covered = sum(
                1 for point in self.manifest.points_for_shard(index)
                if store.lookup(self.manifest.key_for(point),
                                self.manifest.num_packets) is not None)
            status[index] = "partial" if covered else "pending"
        return status

    def shard_progress(self) -> dict[int, dict]:
        """Per-shard chunk/cache detail (what ``python -m repro show``
        renders).

        For every shard: its :meth:`shard_status` state, how many of its
        points are fully measured, its point total, how many store
        chunks cover its points, and how many packets those chunks hold.
        Derived from the manifest and the content-addressed store alone,
        so it works on live, crashed, and finished runs alike.
        """
        statuses = self.shard_status()
        store = self.open_store()
        progress: dict[int, dict] = {}
        for index in range(self.manifest.num_shards):
            points = self.manifest.points_for_shard(index)
            measured = 0
            chunks = 0
            packets = 0
            for point in points:
                key = self.manifest.key_for(point)
                if store.lookup(key,
                                self.manifest.num_packets) is not None:
                    measured += 1
                stored = store.chunks_for(key)
                chunks += len(stored)
                packets += sum(stored.values())
            progress[index] = {
                "status": statuses[index],
                "points_measured": measured,
                "points_total": len(points),
                "chunks_stored": chunks,
                "packets_stored": packets,
            }
        return progress

    @property
    def is_complete(self) -> bool:
        """True when every shard has a completion marker."""
        return not self.pending_shards()

    # ------------------------------------------------------------------
    # Merge
    # ------------------------------------------------------------------
    def merge(self, strict: bool = True) -> SweepResult:
        """Merge every shard's stored measurements into one result.

        The result is assembled in manifest point order from the content-
        addressed store, so it is identical whatever machines, shard
        counts, or execution orders produced the cache.  With ``strict``
        (default) a missing point raises; ``strict=False`` returns the
        measured subset (useful for eyeballing a run in flight).
        """
        store = self.open_store()
        entries = []
        missing = []
        for point in self.manifest.points:
            measurement = store.lookup(self.manifest.key_for(point),
                                       self.manifest.num_packets)
            if measurement is None:
                missing.append(point)
            else:
                entries.append((point, measurement))
        if missing and strict:
            raise ValueError(
                f"{len(missing)} of {len(self.manifest.points)} point(s) "
                f"are not fully measured yet (e.g. {missing[0]}); run the "
                "pending shards or merge with strict=False")
        return SweepResult(entries=entries)
