"""``python -m repro`` — run sweeps against the content-addressed store.

Subcommands:

``sweep``
    Create (or re-open) a run directory and execute one shard of the
    grid.  Re-invoking with identical arguments performs zero simulation
    work: every point is served from the store.

    .. code-block:: shell

        python -m repro sweep --scenario cm1 --mod bpsk --ebn0 0:12:1 \\
            --packets 20000 --shard 0/4 --out runs/

``resume``
    Execute every shard of an existing run that has no completion marker
    (after a crash, or to finish shards locally that were planned for
    other machines).

``merge``
    Merge all shard outputs into one curve set, print it and export it as
    a named CSV/JSON artifact under ``<run>/artifacts/``.

``show``
    Print a run's manifest summary, per-shard chunk/cache status and
    coverage.

``report``
    Render a run's telemetry ledger (``events.jsonl``, recorded with
    ``--telemetry``): per-span timing, a chunk latency histogram,
    per-scenario throughput, the slowest chunks.

``store migrate`` / ``store gc``
    Warehouse maintenance: convert a JSONL store (or whole run
    directory) to the SQLite warehouse format with verified
    bit-identical lookups (``migrate``, with ``--dry-run`` diffing),
    and compact / garbage-collect a warehouse under a ``--keep-runs N``
    retention policy (``gc``) — see :mod:`repro.runs.warehouse`.

``query``
    Assemble BER curves across *all* runs in a warehouse by scenario,
    modulation, Eb/N0 range or config-digest prefix; optionally
    validate escalation consistency (``--validate``) and export the
    result as a named artifact (``--export``).

    .. code-block:: shell

        python -m repro query runs/cm1 --scenario cm1 --ebn0-min 4 \\
            --export cm1-curves

``serve`` / ``worker`` / ``submit``
    The sweep service (:mod:`repro.serve`): ``serve`` runs the broker —
    grids in over HTTP, seeded packet-chunk leases out to pull workers,
    results into one shared content-addressed store; ``worker`` runs a
    puller against a broker; ``submit`` sends a grid (same axes as
    ``sweep``) and with ``--wait`` streams the curve as chunks land.

    .. code-block:: shell

        python -m repro serve --store runs/shared &
        python -m repro worker --broker http://127.0.0.1:8765 &
        python -m repro submit --broker http://127.0.0.1:8765 \\
            --ebn0 0:8:2 --packets 64 --wait

Grid axes accept comma-separated lists (``--scenario awgn,cm1``); the
Eb/N0 axis also accepts ``start:stop[:step]`` with an *inclusive* stop
and a default step of 1 (``--ebn0 0:12:1`` is the thirteen integer
points 0..12 dB).  ``--workers N`` fans cache misses over worker
processes with shared-memory chunk transport, and ``--chunk-packets N``
makes the seeded packet chunk the unit of scheduling and caching so even
a single hot point spreads over the pool.  ``--progress`` draws a live
one-line status on stderr and ``--telemetry`` records the run's event
ledger (both off by default; neither changes results — telemetry is
bitwise invisible).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.obs.ledger import LEDGER_NAME, SUMMARY_NAME
from repro.obs.progress import ProgressLine
from repro.obs.recorder import Recorder
from repro.obs.report import load_run_events, render_report
from repro.runs.artifacts import export_curves
from repro.runs.driver import RunDriver, RunManifest, grid_digest
from repro.runs.store import STORE_FORMATS, ResultStore
from repro.runs.warehouse import (gc_store, migrate_run, migrate_store,
                                  query_store, validate_store)
from repro.sim.engine import (BACKENDS, GENERATIONS, SweepEngine,
                              sweep_grid)
from repro.utils.validation import require_int

__all__ = ["build_parser", "main"]


# ----------------------------------------------------------------------
# Argument parsing helpers
# ----------------------------------------------------------------------
def parse_ebn0_axis(text: str) -> tuple[float, ...]:
    """``"0:12:1"`` (inclusive stop) or ``"0,4,8"`` -> Eb/N0 values in dB."""
    text = text.strip()
    try:
        if ":" in text:
            parts = text.split(":")
            if len(parts) == 2:
                parts.append("1")
            if len(parts) != 3:
                raise ValueError("expected start:stop[:step]")
            start, stop, step = (float(part) for part in parts)
            if not np.isfinite([start, stop, step]).all():
                raise ValueError("values must be finite")
            if step <= 0:
                raise ValueError("step must be positive")
            if stop < start:
                raise ValueError("stop must be >= start")
            count = int(np.floor((stop - start) / step + 1e-9)) + 1
            return tuple(float(start + index * step)
                         for index in range(count))
        values = tuple(float(part) for part in text.split(",")
                       if part.strip())
        if not np.isfinite(values).all():
            raise ValueError("values must be finite")
        return values
    except ValueError as error:
        raise argparse.ArgumentTypeError(
            f"bad Eb/N0 axis {text!r}: {error} (use start:stop:step with "
            "an inclusive stop, or a comma-separated list)") from None


def parse_name_axis(text: str) -> tuple[str, ...]:
    values = tuple(part.strip() for part in text.split(",") if part.strip())
    if not values:
        raise argparse.ArgumentTypeError(f"empty axis {text!r}")
    return values


def parse_adc_bits_axis(text: str) -> tuple[int | None, ...]:
    """``"none"`` (config default), ``"1,4"``, or a mix of both."""
    values: list[int | None] = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if part.lower() in ("none", "default"):
            values.append(None)
            continue
        try:
            values.append(int(part))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"bad adc-bits axis value {part!r} (integer or 'none')") \
                from None
    if not values:
        raise argparse.ArgumentTypeError(f"empty adc-bits axis {text!r}")
    return tuple(values)


def parse_shard_spec(text: str) -> tuple[int, int]:
    """``"i/k"`` -> (shard index, shard count), validated."""
    try:
        index_text, _, total_text = text.partition("/")
        index, total = int(index_text), int(total_text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad shard spec {text!r} (expected i/k, e.g. 0/4)") from None
    if total < 1 or not 0 <= index < total:
        raise argparse.ArgumentTypeError(
            f"bad shard spec {text!r}: need 0 <= i < k")
    return index, total


def _add_grid_arguments(command: argparse.ArgumentParser) -> None:
    """Attach the shared grid/engine axes (used by sweep and submit)."""
    command.add_argument("--ebn0", type=parse_ebn0_axis, required=True,
                         metavar="START:STOP[:STEP]|DB[,DB...]",
                         help="Eb/N0 axis in dB: START:STOP[:STEP] with an "
                              "inclusive stop and a default step of 1 "
                              "(e.g. 0:12:1 is the thirteen points 0..12), "
                              "or a comma-separated list (e.g. 0,4,8.5)")
    command.add_argument("--scenario", type=parse_name_axis,
                         default=("awgn",), metavar="NAME[,NAME...]",
                         help="channel scenario axis, comma-separated "
                              "registry names (default: awgn; see "
                              "repro.sim.SCENARIOS, e.g. awgn,two_ray,cm1)")
    command.add_argument("--mod", type=parse_name_axis, default=("bpsk",),
                         metavar="NAME[,NAME...]",
                         help="modulation axis, comma-separated (default: "
                              "bpsk; also ook, ppm, pam4)")
    command.add_argument("--adc-bits", type=parse_adc_bits_axis,
                         default=(None,), metavar="BITS[,BITS...]",
                         help="ADC resolution axis, comma-separated "
                              "integers; 'none' (or 'default') keeps the "
                              "config default and may be mixed in "
                              "(e.g. none,1,4)")
    command.add_argument("--packets", type=int, default=32, metavar="N",
                         help="packets per grid point (default: 32); "
                              "raising it on an existing run simulates "
                              "only the missing tail chunk per point")
    command.add_argument("--payload-bits", type=int, default=64,
                         metavar="N",
                         help="payload bits per packet (default: 64)")
    command.add_argument("--chunk-packets", type=int, default=None,
                         metavar="N",
                         help="split every point's packet budget into "
                              "seeded chunks of N packets — the "
                              "schedulable, cacheable unit of work, "
                              "recorded in the manifest; with --workers, "
                              "the chunks of all points (hot single points "
                              "included) fan out over the pool (default: "
                              "one chunk per point, the historical layout)")
    command.add_argument("--seed", type=int, default=0, metavar="N",
                         help="engine root seed (default: 0)")
    command.add_argument("--generation", default="gen2",
                         help="transceiver generation: "
                              + " or ".join(GENERATIONS)
                              + " (default: gen2)")
    command.add_argument("--backend", default="batch",
                         help="simulation backend, one of "
                              + ", ".join(BACKENDS) + ": 'batch' is the "
                              "vectorized genie-timed kernel, 'fullstack' "
                              "the batched full receiver chain (real "
                              "acquisition/channel estimation/RAKE, bit-"
                              "decision-identical to 'packet'; batches end "
                              "to end for both generations, including the "
                              "gen-1 interleaved-flash front end), "
                              "'packet' the per-packet reference stack "
                              "(default: batch)")
    command.add_argument("--no-quantize", action="store_true",
                         help="batch backend: skip AGC + ADC quantization")


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro`` argument parser (sweep/resume/merge/show)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Cached, sharded Monte-Carlo sweeps over the UWB link "
                    "simulator.")
    commands = parser.add_subparsers(dest="command", required=True)

    sweep = commands.add_parser(
        "sweep", help="execute one shard of a (possibly new) sweep run",
        epilog="examples: --ebn0 0:12:1 (0..12 dB in 1 dB steps, stop "
               "inclusive); --ebn0 0:12 (step defaults to 1); "
               "--ebn0 0,4,8.5 (explicit list); --scenario awgn,cm1 "
               "--mod bpsk,ook --adc-bits none,1,4 sweeps the full "
               "cartesian grid; --shard 1/4 runs the second of four "
               "round-robin shards.")
    _add_grid_arguments(sweep)
    sweep.add_argument("--shard", type=parse_shard_spec, default=(0, 1),
                       metavar="I/K",
                       help="execute shard I of K (0 <= I < K, default "
                            "0/1); shard I owns manifest points I, I+K, "
                            "I+2K, ... and any machine seeing the run "
                            "directory may execute it")
    sweep.add_argument("--out", default="runs", metavar="DIR",
                       help="directory holding run directories "
                            "(default: runs)")
    sweep.add_argument("--name", default=None, metavar="NAME",
                       help="run name (default: derived from the grid "
                            "digest)")
    sweep.add_argument("--store-format", choices=STORE_FORMATS,
                       default=None,
                       help="result-store backend for a new run: 'jsonl' "
                            "(append-only files, the historical default) "
                            "or 'sqlite' (the queryable warehouse; see "
                            "python -m repro query).  Default: whatever "
                            "the store already holds, else jsonl.  An "
                            "existing run keeps its format (convert with "
                            "python -m repro store migrate)")
    sweep.add_argument("--workers", type=int, default=None, metavar="N",
                       help="simulate cache misses on N worker processes "
                            "(results return through shared memory, "
                            "bit-identical to serial; default: serial)")
    _add_obs_arguments(sweep)

    resume = commands.add_parser(
        "resume", help="finish every incomplete shard of an existing run")
    resume.add_argument("--run", required=True, metavar="DIR",
                        help="run directory (as printed by sweep)")
    resume.add_argument("--workers", type=int, default=None, metavar="N",
                        help="simulate cache misses on N worker processes "
                             "(shared-memory transport; default: serial)")
    _add_obs_arguments(resume)

    merge = commands.add_parser(
        "merge", help="merge shard outputs and export a curve artifact")
    merge.add_argument("--run", required=True, metavar="DIR",
                       help="run directory (as printed by sweep)")
    merge.add_argument("--name", default=None, metavar="NAME",
                       help="artifact name (default: the run name)")
    merge.add_argument("--allow-partial", action="store_true",
                       help="merge whatever is measured so far instead of "
                            "failing on unmeasured points")

    show = commands.add_parser(
        "show", help="print a run's manifest, shard status and coverage")
    show.add_argument("--run", required=True, metavar="DIR",
                      help="run directory (as printed by sweep)")

    report = commands.add_parser(
        "report", help="render a run's telemetry ledger (needs a sweep "
                       "or resume recorded with --telemetry)")
    report.add_argument("run", metavar="DIR",
                        help="run directory holding events.jsonl")
    report.add_argument("--top", type=int, default=5, metavar="K",
                        help="how many slowest chunks to list (default: 5)")

    store = commands.add_parser(
        "store", help="warehouse maintenance: migrate a JSONL store to "
                      "SQLite, compact/garbage-collect a warehouse")
    actions = store.add_subparsers(dest="store_command", required=True)

    migrate = actions.add_parser(
        "migrate", help="convert a JSONL store (or run directory) to the "
                        "SQLite warehouse format, verified bit-identical")
    migrate.add_argument("dir", metavar="DIR",
                         help="a store directory, or a run directory "
                              "(its manifest is updated too)")
    migrate.add_argument("--dry-run", action="store_true",
                         help="report what would be copied without "
                              "writing anything")
    migrate.add_argument("--remove-jsonl", action="store_true",
                         help="delete the JSONL source files after the "
                              "migration verifies (default: keep them)")

    gc = actions.add_parser(
        "gc", help="compact a warehouse and apply a retention policy "
                   "(never changes any live lookup result)")
    gc.add_argument("dir", metavar="DIR",
                    help="a store directory, or a run directory")
    gc.add_argument("--keep-runs", type=int, default=None, metavar="N",
                    help="drop keys required only by runs older than the "
                         "N most recently registered (default: keep "
                         "every key)")
    gc.add_argument("--no-compact", action="store_true",
                    help="skip merging each key's contiguous chunks into "
                         "one pooled row")
    gc.add_argument("--drop-stranded", action="store_true",
                    help="also delete chunks stranded beyond a coverage "
                         "gap (unreachable by lookups, but usable by a "
                         "resuming driver)")
    gc.add_argument("--dry-run", action="store_true",
                    help="report what would happen without writing "
                         "anything")

    query = commands.add_parser(
        "query", help="assemble curves across all runs in a warehouse "
                      "by scenario/modulation/Eb-N0/config")
    query.add_argument("dir", metavar="DIR",
                       help="a store directory, or a run directory")
    query.add_argument("--scenario", type=parse_name_axis, default=None,
                       metavar="NAME[,NAME...]",
                       help="only these channel scenarios")
    query.add_argument("--mod", type=parse_name_axis, default=None,
                       metavar="NAME[,NAME...]",
                       help="only these modulations")
    query.add_argument("--ebn0-min", type=float, default=None,
                       metavar="DB", help="inclusive lower Eb/N0 bound")
    query.add_argument("--ebn0-max", type=float, default=None,
                       metavar="DB", help="inclusive upper Eb/N0 bound")
    query.add_argument("--config", default=None, metavar="PREFIX",
                       help="only points whose config digest starts with "
                            "this hex prefix")
    query.add_argument("--min-packets", type=int, default=None,
                       metavar="N",
                       help="only points with at least N contiguously "
                            "covered packets")
    query.add_argument("--validate", action="store_true",
                       help="also run the escalation-consistency check "
                            "and list statistically inconsistent chunks")
    query.add_argument("--export", default=None, metavar="NAME",
                       help="export the assembled curves as a named "
                            "CSV/JSON artifact")
    query.add_argument("--export-dir", default=None, metavar="DIR",
                       help="directory for --export (default: "
                            "<run>/artifacts next to a run directory, "
                            "else the store directory)")

    serve = commands.add_parser(
        "serve", help="run the sweep broker: lease chunks of submitted "
                      "grids to pull workers over HTTP")
    serve.add_argument("--store", required=True, metavar="DIR",
                       help="shared content-addressed result store "
                            "directory every job caches into")
    serve.add_argument("--store-format", choices=STORE_FORMATS,
                       default=None,
                       help="store backend for a fresh directory "
                            "(default: detect, then jsonl)")
    serve.add_argument("--host", default="127.0.0.1", metavar="ADDR",
                       help="bind address (default: 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8765, metavar="N",
                       help="bind port; 0 picks a free one (default: 8765)")
    serve.add_argument("--lease-timeout", type=float, default=30.0,
                       metavar="S",
                       help="seconds a chunk lease survives without a "
                            "heartbeat before it is re-queued "
                            "(default: 30)")
    serve.add_argument("--max-attempts", type=int, default=5, metavar="N",
                       help="lease grants per chunk before it and its "
                            "jobs are failed (default: 5)")
    serve.add_argument("--state-dir", default=None, metavar="DIR",
                       help="directory for durable broker state: "
                            "submissions, grants, attempt counts and "
                            "failures are journaled to an append-only "
                            "fsynced journal.jsonl there, and a "
                            "restarted broker replays it against the "
                            "store — queued jobs survive crashes and "
                            "committed chunks are never re-simulated "
                            "(default: in-memory queue only)")
    serve.add_argument("--verbose", action="store_true",
                       help="log each HTTP request to stderr")

    worker = commands.add_parser(
        "worker", help="run a pull worker against a sweep broker")
    worker.add_argument("--broker", required=True, metavar="URL",
                        help="broker base URL (as printed by serve, e.g. "
                             "http://127.0.0.1:8765)")
    worker.add_argument("--name", default=None, metavar="NAME",
                        help="worker name reported at registration "
                             "(default: broker-assigned id)")
    worker.add_argument("--poll-interval", type=float, default=0.2,
                        metavar="S",
                        help="seconds between lease polls while idle "
                             "(default: 0.2)")
    worker.add_argument("--exit-when-idle", action="store_true",
                        help="stop once the broker has no pending or "
                             "leased chunks (instead of idling)")
    worker.add_argument("--max-chunks", type=int, default=None,
                        metavar="N",
                        help="stop after committing N chunks "
                             "(default: unlimited)")
    worker.add_argument("--retry-attempts", type=int, default=5,
                        metavar="N",
                        help="tries per request against transient "
                             "transport errors (broker restarting, "
                             "connection reset) before failing loudly; "
                             "backoff is exponential with seeded "
                             "jitter (default: 5)")
    worker.add_argument("--retry-seed", type=int, default=0, metavar="N",
                        help="seed for the retry jitter stream; give "
                             "each worker its own to desynchronize a "
                             "reconnect stampede (default: 0)")

    submit = commands.add_parser(
        "submit", help="submit a sweep grid to a broker over HTTP",
        epilog="the grid axes are identical to sweep's; the broker "
               "decomposes the grid into seeded packet chunks and "
               "workers execute them — the merged curve is bit-identical "
               "to a local sweep of the same grid.")
    submit.add_argument("--broker", required=True, metavar="URL",
                        help="broker base URL (as printed by serve)")
    _add_grid_arguments(submit)
    submit.add_argument("--name", default=None, metavar="NAME",
                        help="job name shown in broker status")
    submit.add_argument("--wait", action="store_true",
                        help="long-poll until the job completes, "
                             "printing the curve as chunks land")
    submit.add_argument("--export", default=None, metavar="NAME",
                        help="with --wait: export the final curves as a "
                             "named CSV/JSON artifact")
    submit.add_argument("--export-dir", default="artifacts", metavar="DIR",
                        help="directory for --export "
                             "(default: artifacts)")
    return parser


def _add_obs_arguments(command: argparse.ArgumentParser) -> None:
    """Attach the shared observability flags to sweep/resume."""
    command.add_argument("--progress", action="store_true",
                         help="draw a live one-line chunk/point/throughput "
                              "status on stderr while the shard runs")
    command.add_argument("--telemetry", action="store_true",
                         help="record spans and counters into the run's "
                              "events.jsonl + telemetry.json; results are "
                              "bitwise identical with or without it "
                              "(render with: python -m repro report)")


# ----------------------------------------------------------------------
# Output helpers
# ----------------------------------------------------------------------
def _print_curves(result, out) -> None:
    print(f"{'curve':<24} {'Eb/N0 [dB]':>10} {'BER':>12} {'PER':>8}",
          file=out)
    curves = result.curves()
    for label in sorted(curves):
        for point in curves[label].points:
            print(f"{label:<24} {point.ebn0_db:>10.2f} {point.ber:>12.3e} "
                  f"{point.per:>8.3f}", file=out)


def _engine_from_args(args, recorder=None) -> SweepEngine:
    """Build the sweep engine a ``sweep``/``submit`` invocation describes."""
    return SweepEngine(generation=args.generation, seed=args.seed,
                       backend=args.backend, quantize=not args.no_quantize,
                       chunk_packets=args.chunk_packets, recorder=recorder)


def _progress_for(args, points_total: int) -> ProgressLine | None:
    """A live progress line when ``--progress`` was given, else ``None``."""
    if not args.progress:
        return None
    return ProgressLine(points_total=points_total)


def _run_shard_with_progress(driver, shard_index, args) -> "RunReport":
    """Execute one shard, driving the optional ``--progress`` line."""
    progress = _progress_for(
        args, len(driver.manifest.points_for_shard(shard_index)))
    if progress is None:
        return driver.run_shard(shard_index, max_workers=args.workers)
    try:
        return driver.run_shard(
            shard_index, max_workers=args.workers,
            on_plan=progress.plan, on_chunk=progress.chunk,
            on_point=progress.point)
    finally:
        progress.close()


def _print_telemetry_notice(args, run_dir, out) -> None:
    if args.telemetry:
        print(f"telemetry: {LEDGER_NAME} + {SUMMARY_NAME} written; render "
              f"with: python -m repro report {run_dir}", file=out)


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------
def _command_sweep(args, out) -> int:
    from pathlib import Path
    engine = _engine_from_args(
        args, recorder=Recorder() if args.telemetry else None)
    points = sweep_grid(args.ebn0, scenarios=args.scenario,
                        modulations=args.mod, adc_bits=args.adc_bits)
    if args.workers is not None:
        require_int(args.workers, "--workers", minimum=1)
    shard_index, num_shards = args.shard
    name = args.name
    if name is None:
        name = "sweep-" + grid_digest(points, engine.config_digest(),
                                      args.payload_bits)[:12]
    run_dir = Path(args.out) / name
    driver = RunDriver.create(run_dir, engine, points,
                              num_packets=args.packets,
                              payload_bits_per_packet=args.payload_bits,
                              num_shards=num_shards, name=name,
                              store_format=args.store_format)
    manifest = driver.manifest
    print(f"run: {run_dir} (grid {manifest.grid_digest()[:12]}, "
          f"seed {engine.seed}, {len(manifest.points)} point(s), "
          f"{manifest.num_packets} packets/point)", file=out)
    report = _run_shard_with_progress(driver, shard_index, args)
    print(report.summary(), file=out)
    _print_telemetry_notice(args, run_dir, out)
    if driver.is_complete:
        print(f"run complete: all {manifest.num_shards} shard(s) done; "
              f"merge with: python -m repro merge --run {run_dir}",
              file=out)
    else:
        pending = ", ".join(str(index) for index in driver.pending_shards())
        print(f"pending shard(s): {pending} (execute them with --shard, or "
              f"python -m repro resume --run {run_dir})", file=out)
    return 0


def _command_resume(args, out) -> int:
    driver = RunDriver.open(args.run)
    if args.telemetry and driver.engine is not None:
        # The engine is rebuilt from the manifest, so attach the recorder
        # after the fact (it is excluded from the config digest).  A
        # custom-config run has no engine; run_shard refuses it below.
        driver.engine.recorder = Recorder()
    pending = driver.pending_shards()
    if not pending:
        print(f"run {args.run}: nothing to resume, all "
              f"{driver.manifest.num_shards} shard(s) done", file=out)
        return 0
    for shard_index in pending:
        report = _run_shard_with_progress(driver, shard_index, args)
        print(report.summary(), file=out)
    _print_telemetry_notice(args, driver.run_dir, out)
    print(f"run complete: all {driver.manifest.num_shards} shard(s) done",
          file=out)
    return 0


def _command_merge(args, out) -> int:
    driver = RunDriver.open(args.run)
    result = driver.merge(strict=not args.allow_partial)
    manifest = driver.manifest
    name = args.name if args.name is not None else manifest.name
    artifact = export_curves(result, driver.artifacts_dir, name, metadata={
        "run": manifest.name,
        "seed": manifest.engine_params["seed"],
        "grid_digest": manifest.grid_digest(),
        "config_digest": manifest.config_digest,
        "num_packets": manifest.num_packets,
        "payload_bits_per_packet": manifest.payload_bits_per_packet,
        "num_shards": manifest.num_shards,
        "code_version": manifest.code_version,
    })
    print(f"merged {len(result.entries)} of {len(manifest.points)} "
          f"point(s) into {artifact.json_path} (+ .csv)", file=out)
    _print_curves(result, out)
    return 0


def _command_show(args, out) -> int:
    driver = RunDriver.open(args.run)
    manifest = driver.manifest
    store = driver.open_store()
    measured = sum(
        1 for point in manifest.points
        if store.lookup(manifest.key_for(point), manifest.num_packets)
        is not None)
    print(f"run       : {manifest.name}", file=out)
    print(f"grid      : {len(manifest.points)} point(s), digest "
          f"{manifest.grid_digest()[:12]}", file=out)
    engine = manifest.engine_params
    print(f"engine    : {engine['generation']}/{engine['backend']} seed "
          f"{engine['seed']} quantize={engine['quantize']}", file=out)
    print(f"budget    : {manifest.num_packets} packets/point x "
          f"{manifest.payload_bits_per_packet} payload bits", file=out)
    if manifest.chunk_packets is not None:
        print(f"chunking  : {manifest.chunk_packets} packets/chunk",
              file=out)
    print(f"code      : {manifest.code_version}", file=out)
    print(f"coverage  : {measured}/{len(manifest.points)} point(s) measured",
          file=out)
    if store.corrupt_records:
        print(f"warning   : {store.corrupt_records} corrupt store "
              "record(s) skipped", file=out)
    progress = driver.shard_progress()
    total_chunks = sum(entry["chunks_stored"] for entry in progress.values())
    total_packets = sum(entry["packets_stored"]
                        for entry in progress.values())
    print(f"store     : {total_chunks} chunk(s) holding {total_packets} "
          f"packet(s) [{manifest.store_format}]", file=out)
    for shard_index, entry in sorted(progress.items()):
        print(f"shard {shard_index:>3} : {entry['status']} "
              f"({entry['points_measured']}/{entry['points_total']} "
              f"point(s), {entry['chunks_stored']} chunk(s), "
              f"{entry['packets_stored']} packet(s))", file=out)
    if (driver.run_dir / LEDGER_NAME).is_file():
        print(f"telemetry : {LEDGER_NAME} present; render with: "
              f"python -m repro report {driver.run_dir}", file=out)
    if measured:
        _print_curves(driver.merge(strict=False), out)
    return 0


def _command_report(args, out) -> int:
    events, corrupt = load_run_events(args.run)
    if corrupt:
        print(f"warning: {corrupt} corrupt ledger line(s) skipped",
              file=sys.stderr)
    print(render_report(events, top_k=args.top), file=out)
    return 0


def _resolve_store_dir(path):
    """``DIR`` may be a run directory or a bare store directory.

    Returns ``(store_dir, run_dir_or_None)``: a directory holding a
    ``manifest.json`` is a run directory whose store lives in
    ``store/``; anything else is treated as the store itself.
    """
    from pathlib import Path
    path = Path(path)
    if (path / "manifest.json").is_file():
        return path / "store", path
    return path, None


def _command_store(args, out) -> int:
    if args.store_command == "migrate":
        store_dir, run_dir = _resolve_store_dir(args.dir)
        if run_dir is not None:
            report = migrate_run(run_dir, dry_run=args.dry_run,
                                 remove_jsonl=args.remove_jsonl)
        else:
            report = migrate_store(store_dir, dry_run=args.dry_run,
                                   remove_jsonl=args.remove_jsonl)
        print(report.summary(), file=out)
        return 0
    # gc
    store_dir, run_dir = _resolve_store_dir(args.dir)
    store = ResultStore.open(store_dir)
    try:
        protected = []
        if run_dir is not None:
            manifest = RunManifest.load(run_dir)
            protected = [manifest.key_for(point)
                         for point in manifest.points]
        report = gc_store(store, keep_runs=args.keep_runs,
                          compact=not args.no_compact,
                          drop_stranded=args.drop_stranded,
                          dry_run=args.dry_run, protected_keys=protected)
    finally:
        store.close()
    print(report.summary(), file=out)
    return 0


def _command_query(args, out) -> int:
    store_dir, run_dir = _resolve_store_dir(args.dir)
    store = ResultStore.open(store_dir)
    try:
        result = query_store(store, scenarios=args.scenario,
                             modulations=args.mod,
                             ebn0_min=args.ebn0_min,
                             ebn0_max=args.ebn0_max,
                             config_digest=args.config,
                             min_packets=args.min_packets)
        print(f"query matched {result.summary()}", file=out)
        if result.entries:
            _print_curves(result, out)
        if args.validate:
            findings = validate_store(store)
            if findings:
                print(f"validation: {len(findings)} statistically "
                      "inconsistent chunk(s)", file=out)
                for finding in findings:
                    print(f"  {finding.describe()}", file=out)
            else:
                print("validation: all escalations consistent", file=out)
        if args.export is not None:
            if args.export_dir is not None:
                export_dir = args.export_dir
            elif run_dir is not None:
                export_dir = run_dir / "artifacts"
            else:
                export_dir = store_dir
            artifact = export_curves(result, export_dir, args.export,
                                     metadata={
                                         "source": "query",
                                         "store": str(store_dir),
                                         "points": len(result.entries),
                                     })
            print(f"exported {artifact.json_path} (+ .csv)", file=out)
    finally:
        store.close()
    return 0


def _command_serve(args, out) -> int:
    import signal
    import threading
    from repro.serve.api import create_server
    from repro.serve.broker import Broker
    broker = Broker(args.store, store_format=args.store_format,
                    lease_timeout_s=args.lease_timeout,
                    max_attempts=args.max_attempts,
                    state_dir=args.state_dir)
    server = create_server(broker, host=args.host, port=args.port,
                           verbose=args.verbose)
    state = (f", state: {args.state_dir} [durable]"
             if args.state_dir is not None else "")
    print(f"serving on {server.url} (store: {args.store} "
          f"[{broker.store.format}], lease timeout "
          f"{args.lease_timeout:g}s{state})", file=out, flush=True)
    totals = broker.recorder.counter_totals()
    if totals.get("serve.jobs_recovered") \
            or totals.get("serve.tasks_requeued"):
        print(f"recovered {totals.get('serve.jobs_recovered', 0)} job(s) "
              f"from the journal, requeued "
              f"{totals.get('serve.tasks_requeued', 0)} leased task(s)",
              file=out, flush=True)
    # Graceful shutdown: the signal handler only flips flags (the broker
    # stops granting leases and the journal is already fsynced per
    # append); the main thread then tears the server down and exits 0.
    stop = threading.Event()

    def _graceful(signum, frame):
        broker.begin_shutdown()
        stop.set()

    previous = {signum: signal.signal(signum, _graceful)
                for signum in (signal.SIGTERM, signal.SIGINT)}
    thread = server.serve_in_thread()
    try:
        stop.wait()
        print("shutdown: draining — no new submissions or leases; "
              "journal is flushed (restart with the same --state-dir "
              "to resume queued jobs)", file=out, flush=True)
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
        server.shutdown()
        thread.join(timeout=5.0)
        server.server_close()
        broker.close()
    return 0


def _command_worker(args, out) -> int:
    import signal
    from repro.serve.worker import BrokerClient, Worker, WorkerShutdown
    client = BrokerClient(args.broker, max_attempts=args.retry_attempts,
                          retry_seed=args.retry_seed)
    worker = Worker(client, name=args.name,
                    poll_interval_s=args.poll_interval,
                    exit_when_idle=args.exit_when_idle)

    def _graceful(signum, frame):
        # Raised into the worker loop: the in-flight lease is released
        # (requeued immediately, grant un-counted), not abandoned.
        worker.request_stop()
        raise WorkerShutdown(signal.Signals(signum).name)

    from repro.serve.worker import BrokerTransportError
    previous = {signum: signal.signal(signum, _graceful)
                for signum in (signal.SIGTERM, signal.SIGINT)}
    try:
        tally = worker.run(max_chunks=args.max_chunks)
    except BrokerTransportError as error:
        print(f"error: {error} (worker {worker.worker_id or 'unregistered'}"
              f" giving up; raise --retry-attempts to outlast longer "
              "broker restarts)", file=sys.stderr)
        return 1
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
    stopped = " (stopped by signal, lease released)" \
        if tally.get("stopped") else ""
    print(f"worker {tally['worker_id']}: "
          f"{tally['chunks_committed']} chunk(s) committed, "
          f"{tally['chunks_abandoned']} abandoned, "
          f"{tally['chunks_failed']} failed{stopped}", file=out)
    return 0


def _command_submit(args, out) -> int:
    from repro.serve.broker import JobSpec, result_from_curve_payload
    from repro.serve.worker import BrokerClient
    spec = JobSpec(points=sweep_grid(args.ebn0, scenarios=args.scenario,
                                     modulations=args.mod,
                                     adc_bits=args.adc_bits),
                   engine=_engine_from_args(args),
                   num_packets=args.packets,
                   payload_bits_per_packet=args.payload_bits,
                   name=args.name)
    client = BrokerClient(args.broker)
    job = client.submit(spec.to_dict())
    print(f"job {job['job_id']}: {job['points_total']} point(s), "
          f"{job['chunks_total']} chunk(s) "
          f"({job['points_cached_at_submit']} point(s) already cached, "
          f"{job['chunks_shared']} chunk(s) shared with other jobs)",
          file=out, flush=True)
    if not args.wait:
        print(f"poll with: GET {args.broker}/api/v1/jobs/{job['job_id']}"
              "/curve", file=out)
        return 0
    payload = client.wait_for_curve(job["job_id"])
    print(f"job {job['job_id']} {payload['state']}: "
          f"{payload['points_measured']}/{payload['points_total']} "
          "point(s) measured", file=out)
    result = result_from_curve_payload(payload)
    _print_curves(result, out)
    if args.export is not None:
        artifact = export_curves(result, args.export_dir, args.export,
                                 metadata={
                                     "source": "serve",
                                     "broker": args.broker,
                                     "job_id": job["job_id"],
                                     "num_packets": args.packets,
                                     "payload_bits_per_packet":
                                         args.payload_bits,
                                     "seed": args.seed,
                                 })
        print(f"exported {artifact.json_path} (+ .csv)", file=out)
    return 0


def main(argv=None, out=None) -> int:
    """CLI entry point; returns the process exit code."""
    out = sys.stdout if out is None else out
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = {"sweep": _command_sweep, "resume": _command_resume,
               "merge": _command_merge, "show": _command_show,
               "report": _command_report, "store": _command_store,
               "query": _command_query, "serve": _command_serve,
               "worker": _command_worker, "submit": _command_submit}[
                   args.command]
    try:
        return handler(args, out)
    except (ValueError, KeyError, FileNotFoundError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; exit quietly (and point
        # stdout at devnull so the interpreter's exit flush stays silent).
        import os
        try:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        except OSError:
            pass
        return 0
