"""SQLite-backed result warehouse: the queryable store backend.

The JSONL store (:mod:`repro.runs.store`) is append-only: perfect for
crash-safe shard writers, hopeless for "assemble BER vs Eb/N0 across
every CM1 run ever" — that is a full scan of every chunk file.  This
module keeps the exact store contract (reads are bit-identical: the
in-memory index and every query method are inherited from
:class:`~repro.runs.store.ResultStore`) while persisting into a single
WAL-mode SQLite database, which buys:

* **atomic multi-chunk ingest** — :meth:`ResultStore.add_chunks` commits
  one transaction, all rows or none;
* **indexed cross-run queries** — :func:`query_store` assembles curves
  by scenario / Eb-N0 range / config digest across all runs in a store
  without touching the simulator (``python -m repro query``);
* **compaction and garbage collection** — :func:`gc_store` merges each
  key's contiguous chunk prefix into one pooled row and applies a
  ``--keep-runs N`` retention policy (``python -m repro store gc``);
* **validation** — :func:`validate_store` flags chunks whose error
  counts are statistically inconsistent with the rest of their key's
  escalations (a stale cache, a seed bug, or a broken merge).

:func:`migrate_store` is the ETL path from the JSONL format
(``python -m repro store migrate``): it copies every chunk in one
transaction and verifies the result is lookup-identical before touching
anything else.  The database also carries two metadata tables the JSONL
format cannot express — per-key *point* descriptions (scenario,
modulation, Eb/N0, config digest) and a *run registry* (which run
required which keys) — populated by :class:`repro.runs.RunDriver`
whenever a shard executes against a SQLite store.

The store stays **single-writer**: one process ingests at a time
(SQLite's write lock enforces it; a 30 s busy timeout absorbs handoffs),
while concurrent readers are free under WAL.  A writer that out-waits
the timeout gets a :class:`StoreLockedError` naming the store directory
and the remediation — route concurrent writers through one broker
(``python -m repro serve``) or retry — rather than a bare
``sqlite3.OperationalError: database is locked``.
"""

from __future__ import annotations

import math
import sqlite3
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.metrics import BERCurve, BERPoint
from repro.runs.store import (SQLITE_FILENAME, ResultStore, StoredChunk,
                              _SCHEMA_VERSION)

__all__ = [
    "GCReport",
    "MigrationReport",
    "QueryResult",
    "SQLiteResultStore",
    "StoreLockedError",
    "ValidationFinding",
    "gc_store",
    "migrate_run",
    "migrate_store",
    "query_store",
    "validate_store",
]


class StoreLockedError(RuntimeError):
    """Another process holds the warehouse's write lock.

    SQLite stores are **single-writer**: concurrent ingest from several
    processes serializes on the database write lock, and a writer that
    out-waits the busy timeout surfaces here (instead of as a raw
    ``sqlite3.OperationalError: database is locked`` deep in a shard).
    The message names the store and the two remediations: route
    concurrent writers through one broker (``python -m repro serve``,
    whose lease queue makes every commit a single-process write), or
    retry after the competing writer finishes.
    """

#: Version of the warehouse database schema (the ``meta`` table pins it).
WAREHOUSE_SCHEMA_VERSION = 1

_SCHEMA_SQL = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS chunks (
    key            TEXT NOT NULL,
    packet_offset  INTEGER NOT NULL,
    packets_sent   INTEGER NOT NULL,
    ebn0_db        REAL NOT NULL,
    bit_errors     INTEGER NOT NULL,
    total_bits     INTEGER NOT NULL,
    packets_failed INTEGER NOT NULL,
    writer         TEXT NOT NULL DEFAULT '',
    PRIMARY KEY (key, packet_offset)
);
CREATE TABLE IF NOT EXISTS points (
    key                     TEXT PRIMARY KEY,
    scenario                TEXT NOT NULL,
    modulation              TEXT NOT NULL,
    adc_bits                INTEGER,
    ebn0_db                 REAL NOT NULL,
    config_digest           TEXT NOT NULL,
    payload_bits_per_packet INTEGER NOT NULL
);
CREATE INDEX IF NOT EXISTS points_by_scenario
    ON points (scenario, ebn0_db);
CREATE INDEX IF NOT EXISTS points_by_config
    ON points (config_digest);
CREATE TABLE IF NOT EXISTS runs (
    run_id      INTEGER PRIMARY KEY AUTOINCREMENT,
    name        TEXT NOT NULL,
    grid_digest TEXT NOT NULL,
    num_packets INTEGER NOT NULL
);
CREATE TABLE IF NOT EXISTS requirements (
    run_id INTEGER NOT NULL,
    key    TEXT NOT NULL,
    PRIMARY KEY (run_id, key)
);
"""


class SQLiteResultStore(ResultStore):
    """The ``"sqlite"`` store backend: one WAL-mode database per store.

    Derives everything query-shaped from :class:`ResultStore` — only the
    persistence primitives differ: :meth:`reload` reads the ``chunks``
    table instead of JSONL files, and ingest commits one transaction per
    :meth:`~ResultStore.add_chunks` batch.  The database file is
    ``warehouse.sqlite`` inside the store directory and is created
    lazily on first write, so opening a not-yet-existing store never
    litters the filesystem.

    ``writer_name`` (the per-shard JSONL file name in the base class) is
    kept as a per-chunk provenance tag in the ``writer`` column.

    ``busy_timeout_s`` is how long a write waits for a competing
    writer's lock before raising :class:`StoreLockedError` (default
    30 s — generous enough to absorb shard handoffs; tests shrink it to
    exercise the conflict path without waiting).
    """

    #: The backend's format name (what ``--store-format`` selects).
    format = "sqlite"

    def __init__(self, directory, writer_name: str = "store.jsonl",
                 busy_timeout_s: float = 30.0) -> None:
        self._connection: sqlite3.Connection | None = None
        self.busy_timeout_s = float(busy_timeout_s)
        super().__init__(directory, writer_name=writer_name)

    # ------------------------------------------------------------------
    # Connection / schema
    # ------------------------------------------------------------------
    @property
    def database_path(self) -> Path:
        """Path of the warehouse database file inside the store directory."""
        return self.directory / SQLITE_FILENAME

    def _connect(self, create: bool = False) -> sqlite3.Connection | None:
        if self._connection is not None:
            return self._connection
        if not create and not self.database_path.is_file():
            return None
        self.directory.mkdir(parents=True, exist_ok=True)
        connection = sqlite3.connect(self.database_path,
                                     timeout=self.busy_timeout_s,
                                     isolation_level=None)
        connection.execute("PRAGMA journal_mode=WAL")
        connection.execute("PRAGMA synchronous=FULL")
        connection.executescript(_SCHEMA_SQL)
        row = connection.execute(
            "SELECT value FROM meta WHERE key = 'schema_version'").fetchone()
        if row is None:
            connection.execute(
                "INSERT INTO meta (key, value) VALUES ('schema_version', ?)",
                (str(WAREHOUSE_SCHEMA_VERSION),))
        elif int(row[0]) != WAREHOUSE_SCHEMA_VERSION:
            connection.close()
            raise ValueError(
                f"warehouse {self.database_path} uses schema version "
                f"{row[0]}, this code understands "
                f"{WAREHOUSE_SCHEMA_VERSION} (written by a newer version?)")
        self._connection = connection
        return connection

    def close(self) -> None:
        """Close the database connection (reopened lazily on next use)."""
        if self._connection is not None:
            self._connection.close()
            self._connection = None

    def _begin_write(self, connection) -> None:
        """Open the single-writer transaction (``BEGIN IMMEDIATE``).

        A lock held past the busy timeout raises
        :class:`StoreLockedError` naming the store directory and the
        remediation, instead of leaking SQLite's bare ``database is
        locked`` with no hint of *which* database or what to do.
        """
        try:
            connection.execute("BEGIN IMMEDIATE")
        except sqlite3.OperationalError as error:
            text = str(error).lower()
            if "locked" not in text and "busy" not in text:
                raise
            raise StoreLockedError(
                f"result store {self.directory} is locked by another "
                f"writer (waited {self.busy_timeout_s:g}s for "
                f"{self.database_path.name}).  The SQLite warehouse is "
                "single-writer: route concurrent writers through one "
                f"broker (python -m repro serve --store {self.directory} "
                "serializes commits via chunk leases), or retry after "
                "the competing writer finishes") from None

    # ------------------------------------------------------------------
    # Persistence primitives (the backend contract)
    # ------------------------------------------------------------------
    def reload(self) -> None:
        """Rebuild the in-memory chunk index from the ``chunks`` table."""
        self._clear_index()
        self.corrupt_records = 0
        connection = self._connect(create=False)
        if connection is None:
            return
        rows = connection.execute(
            "SELECT key, packet_offset, ebn0_db, bit_errors, total_bits, "
            "packets_sent, packets_failed FROM chunks "
            "ORDER BY key, packet_offset")
        for row in rows:
            try:
                chunk = StoredChunk.from_record(self._row_to_record(row))
            except ValueError as error:
                self._note_corrupt_record(
                    f"{SQLITE_FILENAME}:{row[0][:12]}@{row[1]}", error)
                continue
            self._index(chunk)

    @staticmethod
    def _row_to_record(row) -> dict:
        # Chunk rows round-trip through the same record dict (and the
        # same from_record validation) as JSONL lines — one parse path,
        # bit-identical across backends.
        (key, offset, ebn0_db, bit_errors, total_bits, packets_sent,
         packets_failed) = row
        return {"schema": _SCHEMA_VERSION, "key": key,
                "packet_offset": offset,
                "measurement": {"ebn0_db": ebn0_db,
                                "bit_errors": bit_errors,
                                "total_bits": total_bits,
                                "packets_sent": packets_sent,
                                "packets_failed": packets_failed}}

    def _persist(self, chunks: list[StoredChunk]) -> None:
        connection = self._connect(create=True)
        fresh = self._drop_already_stored(connection, chunks)
        if not fresh:
            return
        rows = [(chunk.key, chunk.packet_offset,
                 chunk.measurement.packets_sent,
                 float(chunk.measurement.ebn0_db),
                 chunk.measurement.bit_errors,
                 chunk.measurement.total_bits,
                 chunk.measurement.packets_failed,
                 self.writer_name) for chunk in fresh]
        self._begin_write(connection)
        try:
            connection.executemany(
                "INSERT INTO chunks (key, packet_offset, packets_sent, "
                "ebn0_db, bit_errors, total_bits, packets_failed, writer) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?)", rows)
        except BaseException:
            connection.execute("ROLLBACK")
            raise
        connection.execute("COMMIT")

    def _drop_already_stored(self, connection, chunks):
        # The in-memory index already vetoed known duplicates, but the
        # database may hold rows this process has not loaded (another
        # writer got there first).  Identical rows are idempotent
        # replays; a differing row is a conflict — raised before any
        # insert, keeping the whole batch all-or-nothing.
        fresh = []
        for chunk in chunks:
            row = connection.execute(
                "SELECT key, packet_offset, ebn0_db, bit_errors, "
                "total_bits, packets_sent, packets_failed FROM chunks "
                "WHERE key = ? AND packet_offset = ?",
                (chunk.key, chunk.packet_offset)).fetchone()
            if row is None:
                fresh.append(chunk)
                continue
            stored = StoredChunk.from_record(self._row_to_record(row))
            if stored.measurement != chunk.measurement:
                raise ValueError(
                    f"store already holds a different measurement for "
                    f"key {chunk.key[:12]}... at offset "
                    f"{chunk.packet_offset}")
        return fresh

    # ------------------------------------------------------------------
    # Warehouse metadata (what JSONL cannot express)
    # ------------------------------------------------------------------
    def describe_keys(self, entries) -> None:
        """Record point metadata for measurement keys.

        ``entries`` is an iterable of ``(key, info)`` pairs where
        ``info`` maps ``scenario`` / ``modulation`` / ``adc_bits`` /
        ``ebn0_db`` / ``config_digest`` / ``payload_bits_per_packet``.
        The metadata is what makes :func:`query_store` able to filter by
        physics rather than by opaque hash; re-describing a key
        overwrites (the description is derived, not measured).
        """
        rows = [(key,
                 str(info["scenario"]), str(info["modulation"]),
                 None if info.get("adc_bits") is None
                 else int(info["adc_bits"]),
                 float(info["ebn0_db"]), str(info["config_digest"]),
                 int(info["payload_bits_per_packet"]))
                for key, info in entries]
        if not rows:
            return
        connection = self._connect(create=True)
        self._begin_write(connection)
        try:
            connection.executemany(
                "INSERT OR REPLACE INTO points (key, scenario, modulation, "
                "adc_bits, ebn0_db, config_digest, "
                "payload_bits_per_packet) VALUES (?, ?, ?, ?, ?, ?, ?)",
                rows)
        except BaseException:
            connection.execute("ROLLBACK")
            raise
        connection.execute("COMMIT")

    def register_run(self, name: str, grid_digest: str, num_packets: int,
                     keys) -> int:
        """Record that a run requires ``keys`` (the GC retention unit).

        Re-registering the same ``(name, grid_digest, num_packets)``
        replaces the old entry with a fresh (more recent) ``run_id``, so
        re-executions refresh a run's retention recency instead of
        duplicating it.  Returns the new ``run_id``.
        """
        keys = tuple(keys)
        connection = self._connect(create=True)
        self._begin_write(connection)
        try:
            stale = [row[0] for row in connection.execute(
                "SELECT run_id FROM runs WHERE name = ? AND "
                "grid_digest = ? AND num_packets = ?",
                (name, grid_digest, int(num_packets)))]
            for run_id in stale:
                connection.execute(
                    "DELETE FROM requirements WHERE run_id = ?", (run_id,))
                connection.execute(
                    "DELETE FROM runs WHERE run_id = ?", (run_id,))
            cursor = connection.execute(
                "INSERT INTO runs (name, grid_digest, num_packets) "
                "VALUES (?, ?, ?)", (name, grid_digest, int(num_packets)))
            run_id = int(cursor.lastrowid)
            connection.executemany(
                "INSERT OR IGNORE INTO requirements (run_id, key) "
                "VALUES (?, ?)", [(run_id, key) for key in keys])
        except BaseException:
            connection.execute("ROLLBACK")
            raise
        connection.execute("COMMIT")
        return run_id


# ----------------------------------------------------------------------
# ETL: JSONL -> SQLite migration
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MigrationReport:
    """What a JSONL -> SQLite migration did (or would do, on dry run)."""

    directory: Path
    dry_run: bool
    keys: int
    chunks: int
    chunks_copied: int
    chunks_already: int
    jsonl_files: int
    removed_files: int = 0
    notes: tuple[str, ...] = ()

    def summary(self) -> str:
        """A short human-readable account of the migration."""
        verb = "would copy" if self.dry_run else "copied"
        text = (f"{verb} {self.chunks_copied} of {self.chunks} chunk(s) "
                f"across {self.keys} key(s) from {self.jsonl_files} JSONL "
                f"file(s) into {SQLITE_FILENAME}")
        if self.chunks_already:
            text += f" ({self.chunks_already} already present)"
        if self.removed_files:
            text += f"; removed {self.removed_files} JSONL file(s)"
        for note in self.notes:
            text += f"\n{note}"
        return text


def migrate_store(directory, dry_run: bool = False,
                  remove_jsonl: bool = False) -> MigrationReport:
    """Convert a JSONL store directory to the SQLite warehouse format.

    Every chunk of every key is ingested in **one transaction** and the
    result is verified lookup-identical (same ``chunks_for`` and pooled
    prefix for every key) before anything else happens; a verification
    failure raises with the database rolled into a consistent state but
    the JSONL sources untouched.  With ``dry_run`` nothing is written —
    the report describes what a real run would copy, diffed against any
    warehouse already present.  With ``remove_jsonl`` the JSONL source
    files are deleted *after* verification (the default keeps them;
    :func:`repro.runs.store.detect_store_format` prefers the warehouse
    either way).
    """
    directory = Path(directory)
    source = ResultStore(directory)
    items = [(chunk.key, chunk.packet_offset, chunk.measurement)
             for key in source.keys()
             for chunk in source.stored_chunks(key)]
    jsonl_files = sorted(directory.glob("*.jsonl")) \
        if directory.is_dir() else []

    if dry_run:
        existing = SQLiteResultStore(directory) \
            if (directory / SQLITE_FILENAME).is_file() else None
        already = 0
        if existing is not None:
            for key, offset, measurement in items:
                stored = existing.chunks_for(key)
                if offset in stored:
                    already += 1
            existing.close()
        return MigrationReport(
            directory=directory, dry_run=True, keys=len(source),
            chunks=len(items), chunks_copied=len(items) - already,
            chunks_already=already, jsonl_files=len(jsonl_files))

    target = SQLiteResultStore(directory)
    try:
        before = sum(len(target.chunks_for(key)) for key in target.keys())
        target.add_chunks(items)
        copied = sum(len(target.chunks_for(key))
                     for key in target.keys()) - before
        _verify_equivalent(source, target)
    finally:
        target.close()
    removed = 0
    if remove_jsonl:
        for path in jsonl_files:
            path.unlink()
            removed += 1
    return MigrationReport(
        directory=directory, dry_run=False, keys=len(source),
        chunks=len(items), chunks_copied=copied,
        chunks_already=len(items) - copied,
        jsonl_files=len(jsonl_files), removed_files=removed)


def _verify_equivalent(source: ResultStore, target: ResultStore) -> None:
    """Raise unless ``target`` serves every ``source`` key identically."""
    for key in source.keys():
        if source.chunks_for(key) != target.chunks_for(key):
            raise ValueError(
                f"migration verification failed: chunk layout differs for "
                f"key {key[:12]}...")
        if source.pooled(key) != target.pooled(key):
            raise ValueError(
                f"migration verification failed: pooled measurement "
                f"differs for key {key[:12]}...")


def migrate_run(run_dir, dry_run: bool = False,
                remove_jsonl: bool = False) -> MigrationReport:
    """Migrate a run directory's store and update its manifest.

    On top of :func:`migrate_store` over ``<run>/store``, this flips the
    manifest's ``store_format`` to ``"sqlite"`` and populates the
    warehouse's point metadata and run registry (both derived from the
    manifest alone), so the migrated store is immediately queryable and
    GC-able.
    """
    from dataclasses import replace

    from repro.runs.driver import RunDriver, RunManifest

    run_dir = Path(run_dir)
    manifest = RunManifest.load(run_dir)
    report = migrate_store(run_dir / "store", dry_run=dry_run,
                           remove_jsonl=remove_jsonl)
    notes = list(report.notes)
    if dry_run:
        notes.append(f"would set store_format=sqlite in {run_dir}"
                     "/manifest.json")
        return replace(report, notes=tuple(notes))
    # Flip the manifest before registering: the driver opens whatever
    # backend the manifest names, and the registry lives in sqlite.
    replace(manifest, store_format="sqlite").save(run_dir)
    notes.append(f"manifest store_format set to sqlite in {run_dir}")
    driver = RunDriver.open(run_dir)
    store = driver.open_store()
    try:
        driver.register_with_warehouse(store)
    finally:
        store.close()
    notes.append("point metadata and run registry populated")
    return replace(report, notes=tuple(notes))


# ----------------------------------------------------------------------
# Compaction / garbage collection
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class GCReport:
    """What :func:`gc_store` did (or would do, on dry run)."""

    dry_run: bool
    keys_total: int
    keys_live: int
    keys_dropped: int
    chunks_dropped: int
    chunks_compacted: int
    stranded_dropped: int
    runs_dropped: int
    bytes_before: int
    bytes_after: int

    def summary(self) -> str:
        """A short human-readable account of the collection."""
        verb = "would drop" if self.dry_run else "dropped"
        text = (f"{verb} {self.keys_dropped} of {self.keys_total} key(s) "
                f"({self.chunks_dropped} chunk(s)), compacted "
                f"{self.chunks_compacted} chunk(s), retired "
                f"{self.runs_dropped} run registry entr(y/ies)")
        if self.stranded_dropped:
            text += f", dropped {self.stranded_dropped} stranded chunk(s)"
        if not self.dry_run:
            text += (f"; {self.bytes_before} -> {self.bytes_after} bytes "
                     "on disk")
        return text


def gc_store(store: ResultStore, keep_runs: int | None = None,
             compact: bool = True, drop_stranded: bool = False,
             dry_run: bool = False, protected_keys=()) -> GCReport:
    """Compact and garbage-collect a SQLite result store.

    The invariant this function is built around: **no live lookup ever
    changes**.  A key is *live* when any retained run requires it (or it
    is in ``protected_keys``, or no retention policy applies); live keys
    keep their entire contiguous chunk prefix — :meth:`ResultStore.
    lookup` pools the whole prefix, so even chunks beyond a run's
    current ``num_packets`` are load-bearing.  What GC does instead:

    * With ``keep_runs=N``, keys required only by runs *older* than the
      ``N`` most recently registered are dropped entirely (the deletion
      unit is the key, never a chunk a live lookup could reach).
      ``keep_runs=None`` (default) keeps every key; an empty run
      registry also keeps every key (nothing to attribute them to).
    * With ``compact`` (default), each live key's contiguous prefix of
      two or more chunks is merged into a single pooled chunk at offset
      0 — counts are additive, so every ``lookup``/``pooled`` result is
      unchanged by construction.
    * With ``drop_stranded``, chunks *beyond a coverage gap* (written
      past a fault, unreachable by any lookup until the gap fills) are
      deleted too; off by default because a resuming driver can still
      use them.

    Ends with a WAL checkpoint and ``VACUUM``; ``dry_run`` computes the
    full report without writing anything.
    """
    if store.format != "sqlite":
        raise ValueError(
            "store gc requires the sqlite backend; convert the store "
            "first with: python -m repro store migrate <dir>")
    connection = store._connect(create=False)
    all_keys = set(store.keys())
    bytes_before = _database_bytes(store)

    retained_run_ids: set[int] = set()
    dropped_run_ids: set[int] = set()
    if keep_runs is not None and connection is not None:
        rows = [row[0] for row in connection.execute(
            "SELECT run_id FROM runs ORDER BY run_id DESC")]
        retained_run_ids = set(rows[:max(0, int(keep_runs))])
        dropped_run_ids = set(rows) - retained_run_ids

    if keep_runs is None or connection is None or not (
            retained_run_ids or dropped_run_ids):
        live = set(all_keys)
    else:
        live = set(protected_keys) & all_keys
        for run_id in retained_run_ids:
            live.update(row[0] for row in connection.execute(
                "SELECT key FROM requirements WHERE run_id = ?", (run_id,)))
        live &= all_keys
    dropped_keys = all_keys - live

    chunks_dropped = sum(len(store.stored_chunks(key))
                         for key in dropped_keys)
    chunks_compacted = 0
    stranded_dropped = 0
    compactions: list[tuple[str, BERPoint, int]] = []
    stranded: list[tuple[str, int]] = []
    for key in sorted(live):
        merged, covered = store._merge_prefix(key)
        chunks = store.stored_chunks(key)
        prefix = [c for c in chunks if c.packet_offset < covered]
        if compact and merged is not None and len(prefix) > 1:
            chunks_compacted += len(prefix)
            compactions.append((key, merged, covered))
        if drop_stranded:
            for chunk in chunks:
                if chunk.packet_offset >= covered:
                    stranded.append((key, chunk.packet_offset))
                    stranded_dropped += 1

    report = GCReport(
        dry_run=dry_run, keys_total=len(all_keys), keys_live=len(live),
        keys_dropped=len(dropped_keys), chunks_dropped=chunks_dropped,
        chunks_compacted=chunks_compacted,
        stranded_dropped=stranded_dropped,
        runs_dropped=len(dropped_run_ids),
        bytes_before=bytes_before, bytes_after=bytes_before)
    if dry_run or connection is None:
        return report

    store._begin_write(connection)
    try:
        for key in dropped_keys:
            connection.execute("DELETE FROM chunks WHERE key = ?", (key,))
            connection.execute("DELETE FROM points WHERE key = ?", (key,))
            connection.execute(
                "DELETE FROM requirements WHERE key = ?", (key,))
        for run_id in dropped_run_ids:
            connection.execute(
                "DELETE FROM requirements WHERE run_id = ?", (run_id,))
            connection.execute(
                "DELETE FROM runs WHERE run_id = ?", (run_id,))
        for key, merged, covered in compactions:
            connection.execute(
                "DELETE FROM chunks WHERE key = ? AND packet_offset < ?",
                (key, covered))
            connection.execute(
                "INSERT INTO chunks (key, packet_offset, packets_sent, "
                "ebn0_db, bit_errors, total_bits, packets_failed, writer) "
                "VALUES (?, 0, ?, ?, ?, ?, ?, 'gc')",
                (key, merged.packets_sent, float(merged.ebn0_db),
                 merged.bit_errors, merged.total_bits,
                 merged.packets_failed))
        for key, offset in stranded:
            connection.execute(
                "DELETE FROM chunks WHERE key = ? AND packet_offset = ?",
                (key, offset))
    except BaseException:
        connection.execute("ROLLBACK")
        raise
    connection.execute("COMMIT")
    connection.execute("PRAGMA wal_checkpoint(TRUNCATE)")
    connection.execute("VACUUM")
    # VACUUM writes its fresh pages through the WAL; checkpoint again so
    # the measured on-disk size reflects the compacted database, not the
    # vacuum's own journal.
    connection.execute("PRAGMA wal_checkpoint(TRUNCATE)")
    store.reload()
    return GCReport(
        dry_run=False, keys_total=report.keys_total,
        keys_live=report.keys_live, keys_dropped=report.keys_dropped,
        chunks_dropped=report.chunks_dropped,
        chunks_compacted=report.chunks_compacted,
        stranded_dropped=report.stranded_dropped,
        runs_dropped=report.runs_dropped,
        bytes_before=bytes_before, bytes_after=_database_bytes(store))


def _database_bytes(store: ResultStore) -> int:
    # Main database plus WAL sidecars: before a checkpoint most freshly
    # written bytes live in -wal, so the main file alone undercounts.
    path = getattr(store, "database_path", None)
    if path is None:
        return 0
    total = 0
    for candidate in (path, path.with_name(path.name + "-wal"),
                      path.with_name(path.name + "-shm")):
        if candidate.is_file():
            total += candidate.stat().st_size
    return total


# ----------------------------------------------------------------------
# Cross-run queries
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class QueryResult:
    """Curves assembled from a warehouse by :func:`query_store`.

    ``entries`` pairs each matching point's metadata with its pooled
    measurement; :meth:`curves` groups them into labeled
    :class:`~repro.core.metrics.BERCurve` objects (the same
    ``scenario/modulation[/adcN]`` labels the sweep engine uses), so a
    query result plugs straight into
    :func:`repro.runs.artifacts.export_curves`.
    """

    entries: tuple[dict, ...] = field(default_factory=tuple)

    def curves(self) -> dict[str, BERCurve]:
        """The matching measurements grouped into labeled BER curves."""
        curves: dict[str, BERCurve] = {}
        for entry in sorted(self.entries,
                            key=lambda e: (e["label"], e["ebn0_db"])):
            curve = curves.setdefault(entry["label"],
                                      BERCurve(label=entry["label"]))
            curve.add(entry["measurement"])
        return curves

    def summary(self) -> str:
        """One line: how many points across how many curves matched."""
        return (f"{len(self.entries)} point(s) across "
                f"{len(self.curves())} curve(s)")


def _engine_label(scenario: str, modulation: str, adc_bits) -> str:
    label = f"{scenario}/{modulation}"
    if adc_bits is not None:
        label += f"/adc{int(adc_bits)}"
    return label


def query_store(store: ResultStore, scenarios=None, modulations=None,
                ebn0_min: float | None = None,
                ebn0_max: float | None = None,
                config_digest: str | None = None,
                min_packets: int | None = None) -> QueryResult:
    """Assemble curves across every run in a warehouse, by physics.

    Filters run over the indexed ``points`` metadata — ``scenarios`` and
    ``modulations`` are exact-match sets, ``ebn0_min``/``ebn0_max`` an
    inclusive dB range, ``config_digest`` a hex-digest *prefix* (so a
    truncated digest from a log line works) — and each surviving key
    contributes its pooled contiguous measurement
    (:meth:`ResultStore.pooled`).  ``min_packets`` drops points with
    less contiguous coverage than that.  Requires the SQLite backend
    (the JSONL format has no point metadata to filter on).
    """
    if store.format != "sqlite":
        raise ValueError(
            "query requires the sqlite backend; convert the store first "
            "with: python -m repro store migrate <dir>")
    connection = store._connect(create=False)
    if connection is None:
        return QueryResult()
    conditions = []
    parameters: list = []
    if scenarios:
        names = tuple(str(name) for name in scenarios)
        conditions.append(
            f"scenario IN ({', '.join('?' * len(names))})")
        parameters.extend(names)
    if modulations:
        names = tuple(str(name) for name in modulations)
        conditions.append(
            f"modulation IN ({', '.join('?' * len(names))})")
        parameters.extend(names)
    if ebn0_min is not None:
        conditions.append("ebn0_db >= ?")
        parameters.append(float(ebn0_min))
    if ebn0_max is not None:
        conditions.append("ebn0_db <= ?")
        parameters.append(float(ebn0_max))
    if config_digest:
        conditions.append("config_digest LIKE ?")
        parameters.append(str(config_digest) + "%")
    sql = ("SELECT key, scenario, modulation, adc_bits, ebn0_db, "
           "config_digest FROM points")
    if conditions:
        sql += " WHERE " + " AND ".join(conditions)
    sql += " ORDER BY scenario, modulation, adc_bits, ebn0_db"
    entries = []
    for row in connection.execute(sql, parameters):
        key, scenario, modulation, adc_bits, ebn0_db, digest = row
        measurement = store.pooled(key)
        if measurement is None:
            continue
        if min_packets is not None \
                and measurement.packets_sent < int(min_packets):
            continue
        entries.append({
            "key": key, "scenario": scenario, "modulation": modulation,
            "adc_bits": adc_bits, "ebn0_db": ebn0_db,
            "config_digest": digest,
            "label": _engine_label(scenario, modulation, adc_bits),
            "measurement": measurement})
    return QueryResult(entries=tuple(entries))


# ----------------------------------------------------------------------
# Escalation-consistency validation
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ValidationFinding:
    """One chunk statistically inconsistent with its key's other chunks."""

    key: str
    packet_offset: int
    num_packets: int
    chunk_errors: int
    chunk_bits: int
    rest_errors: int
    rest_bits: int
    p_value: float

    def describe(self) -> str:
        """One line naming the suspect chunk and the evidence against it."""
        chunk_ber = self.chunk_errors / self.chunk_bits
        rest_ber = self.rest_errors / self.rest_bits
        return (f"key {self.key[:12]}... chunk@{self.packet_offset} "
                f"({self.num_packets} pkt): BER {chunk_ber:.3e} vs "
                f"{rest_ber:.3e} elsewhere (p={self.p_value:.2e})")


def validate_store(store: ResultStore,
                   p_threshold: float = 1e-6) \
        -> tuple[ValidationFinding, ...]:
    """Flag chunks whose error counts disagree with their siblings.

    Every chunk of a key measures the *same* operating point with
    independent packets, so each chunk's bit-error proportion and the
    pooled proportion of its sibling chunks estimate one underlying BER.
    A two-proportion z-test per chunk (p-value via the normal
    approximation, ``erfc``) flags escalations that are statistically
    impossible together — the signature of a stale cache entry, a
    seed-derivation bug, or a corrupted merge.  ``p_threshold`` is
    deliberately tiny (default ``1e-6``): with many chunks tested, only
    wildly inconsistent counts should surface.  Works on either backend
    (it only reads chunks).
    """
    findings = []
    for key in store.keys():
        chunks = store.stored_chunks(key)
        if len(chunks) < 2:
            continue
        total_errors = sum(c.measurement.bit_errors for c in chunks)
        total_bits = sum(c.measurement.total_bits for c in chunks)
        for chunk in chunks:
            chunk_errors = chunk.measurement.bit_errors
            chunk_bits = chunk.measurement.total_bits
            rest_errors = total_errors - chunk_errors
            rest_bits = total_bits - chunk_bits
            if chunk_bits == 0 or rest_bits == 0:
                continue
            pooled = total_errors / total_bits
            if pooled in (0.0, 1.0):
                continue  # identical degenerate proportions: consistent
            variance = pooled * (1.0 - pooled) \
                * (1.0 / chunk_bits + 1.0 / rest_bits)
            z = (chunk_errors / chunk_bits - rest_errors / rest_bits) \
                / math.sqrt(variance)
            p_value = math.erfc(abs(z) / math.sqrt(2.0))
            if p_value < p_threshold:
                findings.append(ValidationFinding(
                    key=key, packet_offset=chunk.packet_offset,
                    num_packets=chunk.num_packets,
                    chunk_errors=chunk_errors, chunk_bits=chunk_bits,
                    rest_errors=rest_errors, rest_bits=rest_bits,
                    p_value=p_value))
    return tuple(findings)
