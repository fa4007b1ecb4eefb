"""Content-addressed result store for sweep measurements.

The store maps a *measurement key* — everything that determines a grid
point's result bit-for-bit: the point's content digest, the engine's
config digest (seed, generation, backend, quantization, base config) and
the payload size — to the measured :class:`repro.core.metrics.BERPoint`
counts.  Re-running any grid against a warm store therefore performs zero
simulation work, and partially measured points are topped up instead of
re-simulated.

Measurements are stored as *chunks*: ``(packet_offset, num_packets)``
spans of independent packets.  A point first measured with 20 000 packets
and later requested at 50 000 keeps its original chunk and only simulates
the 30 000-packet tail; counts are additive, so chunks merge into one
pooled :class:`BERPoint`.

Two persistence backends implement the same store contract
(``lookup`` / ``add_chunk`` / ``add_chunks`` / ``chunks_for`` /
``coverage`` / ``keys``, pinned cross-backend by
``tests/runs/store_contract.py``):

``"jsonl"`` (this module, the historical default)
    Append-only JSONL — one record per line, one file per writer —
    written through :class:`repro.utils.io.AppendLog`, so concurrent
    shard processes never interleave partial lines, a crash can at worst
    lose the final record, and the next append heals the torn line.
``"sqlite"`` (:mod:`repro.runs.warehouse`)
    A single WAL-mode SQLite database with transactional multi-chunk
    ingest and indexed point metadata powering cross-run queries,
    compaction/GC and the ``python -m repro query`` command.

:meth:`ResultStore.open` selects a backend explicitly or by sniffing
what a directory already holds (a new store is JSONL); reads are bit-identical across backends and
:func:`repro.runs.warehouse.migrate_store` converts between them.

Loading tolerates corrupt or truncated records (it skips them with a
warning, counts them in :attr:`ResultStore.corrupt_records` and bumps
the ``store.corrupt_lines`` telemetry counter), so a damaged cache
degrades to re-simulating the affected points rather than failing the
run.
"""

from __future__ import annotations

import hashlib
import json
import warnings
from dataclasses import dataclass
from pathlib import Path

from repro.core.metrics import BERPoint
from repro.obs.recorder import active
from repro.sim.engine import chunk_spans
from repro.utils.io import AppendLog
from repro.utils.validation import require_int

__all__ = [
    "ChunkPlan",
    "ResultStore",
    "STORE_FORMATS",
    "StoredChunk",
    "detect_store_format",
    "measurement_key",
    "plan_missing_chunks",
]

_SCHEMA_VERSION = 1

#: The store backends :meth:`ResultStore.open` can dispatch to.
STORE_FORMATS = ("jsonl", "sqlite")

#: File name of the SQLite warehouse inside a store directory.
SQLITE_FILENAME = "warehouse.sqlite"


def detect_store_format(directory) -> str | None:
    """The format an existing store directory holds, or ``None`` if empty.

    A ``warehouse.sqlite`` file wins over stray JSONL files (a migrated
    store keeps its JSONL sources around until they are removed), so a
    migrated directory keeps opening as SQLite.
    """
    directory = Path(directory)
    if (directory / SQLITE_FILENAME).is_file():
        return "sqlite"
    if directory.is_dir() and any(directory.glob("*.jsonl")):
        return "jsonl"
    return None


def measurement_key(point_digest: str, config_digest: str,
                    payload_bits_per_packet: int) -> str:
    """The content address of one grid point's measurement.

    ``num_packets`` is deliberately absent: packet count is coverage, not
    identity — the same key accumulates chunks as the budget escalates.
    """
    payload = json.dumps({
        "point": point_digest,
        "config": config_digest,
        "payload_bits_per_packet": int(payload_bits_per_packet),
        "schema": _SCHEMA_VERSION,
    }, sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class ChunkPlan:
    """What one point still needs: see :func:`plan_missing_chunks`."""

    #: The pooled measurement when the store already covers the request.
    cached: BERPoint | None
    #: Packets contiguously covered from offset 0.
    covered: int
    #: ``(packet_offset, num_packets)`` chunks to simulate, offset order.
    missing: tuple[tuple[int, int], ...]
    #: Chunks of the layout already stored beyond a coverage gap.
    resumed: int
    #: Packets the store already holds for the key (prefix and beyond).
    packets_stored: int


def plan_missing_chunks(store, key: str, requested: int,
                        chunk_packets: int | None) -> ChunkPlan:
    """Plan one point against ``store``: a cache hit, or its missing chunks.

    A hit (contiguous coverage >= ``requested``) returns the pooled
    measurement.  Otherwise the uncovered tail is decomposed with
    :func:`repro.sim.engine.chunk_spans` in the ``chunk_packets`` layout
    and every span already stored (even beyond a gap a faulted run left)
    is dropped, so only the truly missing chunks are simulated.  The
    local :class:`repro.runs.RunDriver` and the fleet
    :class:`repro.serve.Broker` both plan with this one function, which
    is what keeps fleet and local runs of a grid bit-identical.
    """
    cached = store.lookup(key, requested)
    if cached is not None:
        return ChunkPlan(cached=cached, covered=cached.packets_sent,
                         missing=(), resumed=0,
                         packets_stored=cached.packets_sent)
    covered = store.coverage(key)
    stored = store.chunks_for(key)
    spans = chunk_spans(requested - covered, chunk_packets, covered)
    missing = tuple((offset, packets) for offset, packets in spans
                    if stored.get(offset) != packets)
    return ChunkPlan(
        cached=None, covered=covered, missing=missing,
        resumed=len(spans) - len(missing),
        packets_stored=covered + sum(packets for offset, packets
                                     in stored.items() if offset >= covered))


@dataclass(frozen=True)
class StoredChunk:
    """One contiguous span of simulated packets for a measurement key."""

    key: str
    packet_offset: int
    measurement: BERPoint

    @property
    def num_packets(self) -> int:
        """Packets this chunk contributes (its measurement's batch size)."""
        return self.measurement.packets_sent

    def to_record(self) -> dict:
        """Plain-type mapping written as one JSONL store line."""
        return {"schema": _SCHEMA_VERSION,
                "key": self.key,
                "packet_offset": int(self.packet_offset),
                "measurement": self.measurement.to_dict()}

    @classmethod
    def from_record(cls, record: dict) -> "StoredChunk":
        """Parse one store record, raising ``ValueError`` on malformed data."""
        if not isinstance(record, dict):
            raise ValueError("store record is not an object")
        if record.get("schema") != _SCHEMA_VERSION:
            raise ValueError(
                f"unsupported store schema {record.get('schema')!r}")
        key = record.get("key")
        if not isinstance(key, str) or len(key) != 64:
            raise ValueError("store record has a malformed key")
        try:
            offset = require_int(record.get("packet_offset"),
                                 "packet_offset", minimum=0)
        except (TypeError, ValueError):
            raise ValueError(
                "store record has a malformed packet_offset") from None
        measurement = BERPoint.from_dict(record.get("measurement", {}))
        if measurement.packets_sent == 0:
            raise ValueError("store record covers zero packets")
        return cls(key=key, packet_offset=offset, measurement=measurement)


class ResultStore:
    """JSONL-backed, content-addressed cache of sweep measurements.

    This class is both the ``"jsonl"`` backend and the base class every
    store backend derives from: the in-memory chunk index and all query
    methods (:meth:`lookup`, :meth:`coverage`, :meth:`chunks_for`, ...)
    are shared, so reads are bit-identical across backends by
    construction — a backend only overrides how chunks persist
    (:meth:`reload` and ``_persist``).

    Parameters
    ----------
    directory:
        The cache directory.  *Every* ``*.jsonl`` file in it is loaded, so
        shards that each append to their own file (``writer_name``) merge
        by simply sharing — or syncing into — one directory.
    writer_name:
        File new chunks are appended to (default ``store.jsonl``).  Shard
        drivers pass a per-shard name so concurrent machines never write
        the same file.  The SQLite backend keeps the name as a per-chunk
        provenance tag instead.
    """

    #: The backend's format name (what ``--store-format`` selects).
    format = "jsonl"

    def __init__(self, directory, writer_name: str = "store.jsonl") -> None:
        if not writer_name.endswith(".jsonl"):
            raise ValueError("writer_name must end in '.jsonl'")
        self.directory = Path(directory)
        self.writer_name = writer_name
        self.corrupt_records = 0
        self._clear_index()
        self.reload()

    @classmethod
    def open(cls, directory, format: str | None = None,
             writer_name: str = "store.jsonl") -> "ResultStore":
        """Open a store directory with the right backend (the factory).

        ``format`` resolution, in order: an explicit ``"jsonl"`` /
        ``"sqlite"`` argument wins; otherwise whatever format the
        directory already holds (:func:`detect_store_format`) — an
        existing store never silently switches backend; otherwise
        ``"jsonl"`` for brand-new stores.
        """
        if format is None:
            format = detect_store_format(directory) or "jsonl"
        if format == "jsonl":
            return ResultStore(directory, writer_name=writer_name)
        if format == "sqlite":
            from repro.runs.warehouse import SQLiteResultStore
            return SQLiteResultStore(directory, writer_name=writer_name)
        raise ValueError(f"unknown store format {format!r}; known formats: "
                         f"{', '.join(STORE_FORMATS)}")

    def close(self) -> None:
        """Release backend resources (a no-op for the JSONL backend)."""

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------
    def reload(self) -> None:
        """Re-read every JSONL file in the store directory from scratch."""
        self._clear_index()
        self.corrupt_records = 0
        if not self.directory.is_dir():
            return
        for path in sorted(self.directory.glob("*.jsonl")):
            chunks, _ = AppendLog(path, StoredChunk.from_record).read(
                on_corrupt=lambda line, error: self._note_corrupt_record(
                    f"{path.name}:{line}", error))
            for chunk in chunks:
                self._index(chunk)

    def _note_corrupt_record(self, location: str, error) -> None:
        # One warning + one telemetry tick per damaged record, shared by
        # every backend's loader: `python -m repro show` surfaces the
        # count, the `store.corrupt_lines` counter lands in the ledger.
        self.corrupt_records += 1
        warnings.warn(
            f"skipping corrupt result-store record ({location}): {error}",
            stacklevel=3)
        active().counter("store.corrupt_lines", backend=self.format)

    def _clear_index(self) -> None:
        # key -> {packet_offset: chunk}, kept in offset order, so a replay
        # check is one dict probe and an in-order add is one insert.
        self._chunks: dict[str, dict[int, StoredChunk]] = {}
        # key -> _merge_prefix(key), dropped whenever the key's chunks
        # change: pooling a long prefix on every lookup dominates cached
        # queries (a 200-chunk key costs ~0.65 ms to re-merge).
        self._prefix_memo: dict[str, tuple[BERPoint | None, int]] = {}

    def _index(self, chunk: StoredChunk) -> None:
        chunks = self._chunks.setdefault(chunk.key, {})
        # Replays (the same chunk appended by a re-run shard, or the same
        # file loaded via reload) are idempotent.
        if chunk.packet_offset in chunks:
            return
        self._prefix_memo.pop(chunk.key, None)
        last_offset = next(reversed(chunks), None)
        chunks[chunk.packet_offset] = chunk
        if last_offset is not None and chunk.packet_offset < last_offset:
            # An out-of-order arrival (a gap filled late, or shard files
            # interleaving on reload) re-sorts; in-order adds never do.
            self._chunks[chunk.key] = dict(sorted(chunks.items()))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._chunks)

    def __contains__(self, key: str) -> bool:
        return key in self._chunks

    def keys(self) -> tuple[str, ...]:
        """Every measurement key present in the store, sorted."""
        return tuple(sorted(self._chunks))

    def stored_chunks(self, key: str) -> tuple[StoredChunk, ...]:
        """Every stored chunk for ``key``, ordered by packet offset.

        The raw records — what the migration ETL copies between backends
        and what the escalation-consistency validation pass inspects.
        """
        return tuple(self._chunks.get(key, {}).values())

    def chunks_for(self, key: str) -> dict[int, int]:
        """Every stored chunk for ``key`` as ``{packet_offset: num_packets}``.

        Unlike :meth:`coverage` this includes chunks *beyond* a gap —
        what a resuming driver needs to re-run only the chunks that are
        actually missing (a fault can leave the store with, say, offsets
        0 and 8 but not 4; re-simulating offset 8 would be wasted work).
        """
        return {offset: chunk.num_packets
                for offset, chunk in self._chunks.get(key, {}).items()}

    def coverage(self, key: str) -> int:
        """Packets contiguously covered from offset 0 for ``key``."""
        covered = 0
        for chunk in self._chunks.get(key, {}).values():
            if chunk.packet_offset != covered:
                break  # a gap: later chunks are unreachable until filled
            covered += chunk.num_packets
        return covered

    def lookup(self, key: str, num_packets: int) -> BERPoint | None:
        """The pooled measurement for ``key`` when coverage suffices.

        Returns ``None`` (a miss) while fewer than ``num_packets`` packets
        are contiguously cached.  On a hit the *entire* contiguous prefix
        is pooled — a store holding 50 000 packets serves a 20 000-packet
        request with all 50 000 (more packets, tighter estimate); exact
        re-runs get bit-identical results because coverage then equals the
        request.
        """
        merged, covered = self._merge_prefix(key)
        if covered < num_packets:
            active().counter("store.lookup_misses", backend=self.format)
            return None
        active().counter("store.lookup_hits", backend=self.format)
        return merged

    def pooled(self, key: str) -> BERPoint | None:
        """The pooled contiguous-prefix measurement, however much is there.

        Unlike :meth:`lookup` there is no coverage requirement (and no
        hit/miss accounting): this is the query-layer accessor — curve
        assembly across runs wants whatever each key currently holds.
        Returns ``None`` when the store has no offset-0 chunk for
        ``key``.
        """
        merged, _ = self._merge_prefix(key)
        return merged

    def _merge_prefix(self, key: str) -> tuple[BERPoint | None, int]:
        if key not in self._chunks:
            return None, 0
        memo = self._prefix_memo.get(key)
        if memo is not None:
            return memo
        merged: BERPoint | None = None
        covered = 0
        for chunk in self._chunks[key].values():
            if chunk.packet_offset != covered:
                break
            covered += chunk.num_packets
            merged = (chunk.measurement if merged is None
                      else merged.merge(chunk.measurement))
        self._prefix_memo[key] = (merged, covered)
        return merged, covered

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def add_chunk(self, key: str, packet_offset: int,
                  measurement: BERPoint) -> StoredChunk:
        """Persist one simulated chunk and index it.

        A single-item :meth:`add_chunks`; see there for the atomicity
        contract.
        """
        return self.add_chunks([(key, packet_offset, measurement)])[0]

    def add_chunks(self, items) -> list[StoredChunk]:
        """Ingest ``(key, packet_offset, measurement)`` triples as one batch.

        All conflict checking happens *before* anything is written, so a
        failing ingest (a chunk that collides with a different stored
        measurement) raises ``ValueError`` and leaves the store
        untouched.  Replays — chunks already present with identical
        measurements — are idempotent and skipped.  The fresh remainder
        persists as one unit: the JSONL backend appends the batch as
        one :class:`repro.utils.io.AppendLog` write + fsync (atomic with
        respect to concurrent appenders, torn at worst at the final
        record on crash), the SQLite backend commits one
        transaction (all rows or none).  Returns the stored chunk per
        item, in input order.
        """
        staged: list[StoredChunk] = []
        staged_slots: dict[tuple[str, int], StoredChunk] = {}
        results: list[StoredChunk] = []
        for key, packet_offset, measurement in items:
            chunk = StoredChunk(key=key, packet_offset=int(packet_offset),
                                measurement=measurement)
            slot = (chunk.key, chunk.packet_offset)
            existing = self._existing_chunk(chunk) or staged_slots.get(slot)
            if existing is not None:
                if existing.measurement != measurement:
                    raise ValueError(
                        f"store already holds a different measurement for "
                        f"key {key[:12]}... at offset {packet_offset}")
                results.append(existing)
                continue
            staged.append(chunk)
            staged_slots[slot] = chunk
            results.append(chunk)
        if staged:
            self._persist(staged)
            for chunk in staged:
                self._index(chunk)
            active().counter("store.chunks_added", len(staged),
                             backend=self.format)
            active().counter("store.packets_added",
                             sum(chunk.num_packets for chunk in staged),
                             backend=self.format)
        return results

    def _existing_chunk(self, chunk: StoredChunk) -> StoredChunk | None:
        return self._chunks.get(chunk.key, {}).get(chunk.packet_offset)

    def _persist(self, chunks: list[StoredChunk]) -> None:
        # The JSONL backend's write primitive: the whole batch as one
        # durable AppendLog append on this store's writer file.
        AppendLog(self.directory / self.writer_name,
                  StoredChunk.from_record).append(
            [chunk.to_record() for chunk in chunks])
