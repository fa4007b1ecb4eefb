"""repro.runs: persistent, sharded, resumable sweep runs.

:mod:`repro.sim` made grids fast; this package makes them *cumulative*.
A :class:`ResultStore` content-addresses every measured grid point —
keyed on the point's content, the engine's config digest and the payload
size — so re-running any grid serves already-measured points from a
JSONL cache with zero simulation work, and raising ``num_packets`` only
simulates the missing tail chunk.  A :class:`RunDriver` splits a grid
into deterministic shards (``i`` of ``k``, executable on any machine
that sees the run directory), records a :class:`RunManifest` for crash
resume, and merges shard outputs into results bit-identical to an
unsharded run.  :func:`export_curves` writes merged curves as named
CSV/JSON artifacts that benchmarks and examples consume.

Two store backends implement the same contract: the append-only JSONL
format (the default) and the SQLite warehouse
(:class:`SQLiteResultStore`, selected with ``--store-format sqlite``),
which adds transactional ingest, indexed
cross-run queries (:func:`query_store`, ``python -m repro query``),
compaction/GC (:func:`gc_store`) and a verified JSONL-to-SQLite
migration path (:func:`migrate_store`, ``python -m repro store
migrate``).  Reads are bit-identical across backends.

Usage::

    from repro.runs import RunDriver
    from repro.sim import SweepEngine, sweep_grid

    engine = SweepEngine(generation="gen2", seed=7)
    grid = sweep_grid(range(0, 13), scenarios=("cm1",))

    driver = RunDriver.create("runs/cm1", engine, grid, num_packets=20000)
    driver.run_shard(0)            # simulates; a re-run is all cache hits
    result = driver.merge()        # -> repro.sim.SweepResult

Command line (same store format)::

    python -m repro sweep --scenario cm1 --ebn0 0:12:1 --packets 20000 \\
        --shard 0/4 --out runs/
    python -m repro resume --run runs/<name>
    python -m repro merge  --run runs/<name>
    python -m repro show   --run runs/<name>
"""

from repro.runs.artifacts import Artifact, export_curves, load_artifact
from repro.runs.driver import RunDriver, RunManifest, RunReport
from repro.runs.store import (STORE_FORMATS, ChunkPlan, ResultStore,
                              StoredChunk, detect_store_format,
                              measurement_key, plan_missing_chunks)
from repro.runs.warehouse import (SQLiteResultStore, gc_store, migrate_run,
                                  migrate_store, query_store,
                                  validate_store)

__all__ = [
    "Artifact",
    "ChunkPlan",
    "ResultStore",
    "RunDriver",
    "RunManifest",
    "RunReport",
    "SQLiteResultStore",
    "STORE_FORMATS",
    "StoredChunk",
    "detect_store_format",
    "export_curves",
    "gc_store",
    "load_artifact",
    "measurement_key",
    "migrate_run",
    "migrate_store",
    "plan_missing_chunks",
    "query_store",
    "validate_store",
]
