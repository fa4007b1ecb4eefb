"""The benchmark's workloads, driven through the public entry points.

``genie-sweep`` and ``fullstack-cm1`` run grids serially through
:meth:`repro.runs.RunDriver.run_shard` on fresh run directories;
``service-small-chunks`` drives a durable :class:`repro.serve.Broker`
over loopback HTTP with one in-process :class:`repro.serve.Worker`.
README.md says why each workload exists and which layers it stresses.

A run repeats *rounds* until ``--seconds`` have passed.  A round makes
fresh state (run directories, or a fresh broker and store) and replays
the same seeded inputs, so every round must produce identical curves.
"""

from __future__ import annotations

import os
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.config import Gen1Config, Gen2Config
from repro.core.metrics import BERPoint
from repro.obs.ledger import LEDGER_NAME, EventLedger
from repro.obs.recorder import Recorder
from repro.runs.driver import RunDriver
from repro.serve.api import create_server
from repro.serve.broker import Broker, JobSpec
from repro.serve.worker import BrokerClient, Worker
from repro.sim import SweepEngine, sweep_grid

import checks
import hostref
import layers

from tracing import Tracer

_clock = time.perf_counter


@dataclass
class Outcome:
    """Everything one benchmark run measured and checked."""

    samples: dict = field(default_factory=lambda: defaultdict(list))
    extras: dict = field(default_factory=lambda: defaultdict(list))
    windows: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    checks: list = field(default_factory=list)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        """Record one output check; a failed check is a failed op."""
        self.checks.append((name, bool(ok), detail))
        if not ok:
            self.failed += 1

    @property
    def correct(self) -> bool:
        return (bool(self.checks) and self.failed == 0
                and all(ok for _, ok, _ in self.checks))


class _Timed:
    """The timed part of a round; when traced, the trace window too."""

    def __init__(self, outcome: Outcome, tracer: Tracer | None):
        self.outcome = outcome
        self.tracer = tracer
        self.start = self.end = None

    def __enter__(self) -> "_Timed":
        if self.tracer is not None:
            layers.install(self.tracer)
            self.tracer.recording = True
        self.start = _clock()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.end = _clock()
        if self.tracer is not None:
            self.tracer.recording = False
            self.tracer.restore()
            self.outcome.windows.append((self.start, self.end))
        return False

    @property
    def seconds(self) -> float:
        return self.end - self.start



def _bytes_under(directory: Path) -> int:
    return sum(path.stat().st_size for path in directory.rglob("*")
               if path.is_file())


def _kernel_seconds(tracer: Tracer, since: float) -> float:
    return sum(span.duration for span in tracer.finished_spans()
               if span.name in layers.KERNELS and span.start >= since)


# ----------------------------------------------------------------------
# Local sweeps through RunDriver
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Grid:
    """One grid of a local workload, with its engine and store shape."""

    label: str
    generation: str
    backend: str
    scenarios: tuple
    ebn0_db: tuple
    num_packets: int
    chunk_packets: int
    payload_bits: int
    store_format: str
    config_changes: tuple = ()

    def config(self):
        if not self.config_changes:
            return None     # the engine's default config
        base = (Gen1Config if self.generation == "gen1"
                else Gen2Config).fast_test_config()
        return base.with_changes(**dict(self.config_changes))

    def points(self):
        return sweep_grid(self.ebn0_db, scenarios=self.scenarios)

    def engine(self, seed: int, recorder=None) -> SweepEngine:
        return SweepEngine(config=self.config(), generation=self.generation,
                           seed=seed, backend=self.backend,
                           chunk_packets=self.chunk_packets,
                           recorder=recorder)

    def layout(self) -> dict:
        return {"label": self.label, "generation": self.generation,
                "backend": self.backend, "scenarios": list(self.scenarios),
                "ebn0_db": list(self.ebn0_db),
                "num_packets": self.num_packets,
                "chunk_packets": self.chunk_packets,
                "payload_bits": self.payload_bits,
                "config_changes": [list(item)
                                   for item in self.config_changes]}


class LocalWorkload:
    """Grids run serially through ``RunDriver``, one shard per point.

    A shard per point makes each point's chunk time observable from
    outside (shard wall / chunks simulated); that is the local
    workloads' ``chunk_rtt`` sample.  After the grids, the round reads
    every grid's curve back from its filled run directory
    ``cached_repeats`` times (``RunDriver.open`` + ``merge``, what
    ``python -m repro merge`` does): the local ``cached_curve_ms``.
    """

    def __init__(self, name: str, grids, cached_repeats: int):
        self.name = name
        self.grids = tuple(grids)
        self.cached_repeats = cached_repeats

    def layout(self) -> str:
        return checks.layout_digest(self.grids)

    def setup(self, seed: int, work: Path) -> dict:
        engines = [grid.engine(seed) for grid in self.grids]
        for grid, engine in zip(self.grids, engines):
            # Warm-up chunk: pulse templates, FFT plans, keystream memo.
            engine.measure_points([(grid.points()[0], 2, 0)],
                                  payload_bits_per_packet=grid.payload_bits)
        hostref.warm_up()
        return {"seed": seed, "work": work, "engines": engines,
                "point_ms": defaultdict(list),
                "point_ref_ms": defaultdict(list)}

    def _create(self, grid: Grid, engine, run_dir: Path) -> RunDriver:
        points = grid.points()
        return RunDriver.create(run_dir, engine, points,
                                num_packets=grid.num_packets,
                                payload_bits_per_packet=grid.payload_bits,
                                num_shards=len(points),
                                store_format=grid.store_format)

    def run_round(self, state: dict, index: int, outcome: Outcome,
                  tracer: Tracer | None = None):
        """One timed pass over every grid, then the cached re-runs.
        Returns ``(curves, timed)``."""
        engines = state["engines"]
        if tracer is not None:
            # Cross-check: the program's own spans (chunk.run, rx.*).
            engines = [grid.engine(state["seed"], recorder=Recorder())
                       for grid in self.grids]
        round_dir = state["work"] / f"round-{index:02d}"
        curves = {}
        packets = chunks = 0
        run_dirs = []
        # Timings come from untraced rounds only.
        samples = outcome.samples if tracer is None else defaultdict(list)
        point_ms = state["point_ms"] if tracer is None else defaultdict(list)
        point_ref_ms = (state["point_ref_ms"] if tracer is None
                        else defaultdict(list))
        reference = hostref.Reference()
        pieces = []     # (point, its chunks' pieces, chunks) per shard
        with _Timed(outcome, tracer) as timed:
            start = timed.start
            if tracer is None:
                reference.mark()
            for grid, engine in zip(self.grids, engines):
                run_dir = round_dir / grid.label
                run_dirs.append(run_dir)
                driver = self._create(grid, engine, run_dir)
                for shard in range(driver.manifest.num_shards):
                    planned = []
                    # Untraced, the reference is sampled after every
                    # chunk: a piece is one chunk and what led up to it.
                    marks = []
                    on_chunk = None if tracer is not None else (
                        lambda *_: marks.append(reference.mark()))
                    sampling_s = reference.wall_s
                    shard_start = _clock()
                    report = driver.run_shard(
                        shard, on_plan=lambda n, _cached: planned.append(n),
                        on_chunk=on_chunk)
                    shard_s = (_clock() - shard_start
                               - (reference.wall_s - sampling_s))
                    outcome.attempted += planned[0]
                    if report.chunks_simulated:
                        point_ms[grid.label, shard].append(
                            shard_s * 1e3 / report.chunks_simulated)
                        pieces.append(((grid.label, shard), marks,
                                       report.chunks_simulated))
                    packets += report.packets_simulated
                    chunks += report.chunks_simulated
                curves[grid.label] = driver.merge().entries
            if tracer is None:
                reference.mark()    # the last shard's tail and merge
            grid_s = _clock() - start - reference.wall_s
            mismatches = 0
            for _ in range(self.cached_repeats):
                for grid, engine, run_dir in zip(self.grids,
                                                 state["engines"], run_dirs):
                    query_start = _clock()
                    entries = RunDriver.open(run_dir, engine).merge().entries
                    samples["cached_curve_ms"].append(
                        (_clock() - query_start) * 1e3)
                    mismatches += entries != curves[grid.label]
        outcome.check(f"round {index}: cached curves identical",
                      mismatches == 0, f"{mismatches} mismatching curve(s)")
        samples["pkt_per_s"].append(packets / grid_s)
        samples["chunks_per_s"].append(chunks / grid_s)
        # One sample per point: its median over the rounds so far, so a
        # stall in one round does not become the slowest point.
        samples["chunk_rtt_ms"] = [statistics.median(times)
                                   for times in point_ms.values()]
        if tracer is None:
            grid_ref_ms = reference.total_ref_ms()
            samples["pkt_per_ref_s"].append(packets * 1e3 / grid_ref_ms)
            samples["chunks_per_ref_s"].append(chunks * 1e3 / grid_ref_ms)
            for point, marks, point_chunks in pieces:
                point_ref_ms[point].append(
                    sum(map(reference.ref_ms, marks)) / point_chunks)
            samples["chunk_ref_ms"] = [statistics.median(costs)
                                       for costs in point_ref_ms.values()]
            samples["host_ref_ms"].extend(
                seconds * 1e3 for seconds in reference.samples)
        if tracer is not None:
            store_bytes = sum(_bytes_under(run_dir / "store")
                              for run_dir in run_dirs)
            outcome.extras["runs.store.bytes_per_chunk"].append(
                store_bytes / max(chunks, 1))
            chunk_run = sum(
                event["duration_s"] for run_dir in run_dirs
                for event in EventLedger(run_dir / LEDGER_NAME).read()[0]
                if event["kind"] == "span" and event["name"] == "chunk.run")
            outcome.extras["obs.recorder.chunk_run_ratio"].append(
                _kernel_seconds(tracer, start) / chunk_run
                if chunk_run else 0.0)
        return curves, timed

    def verify(self, state: dict, curves_by_round, outcome: Outcome) -> None:
        """Off-clock checks: rounds agree, and the counts are right."""
        first = curves_by_round[0]
        outcome.check("rounds bit-identical",
                      all(curves == first for curves in curves_by_round))
        digests = [engine.config_digest() for engine in state["engines"]]
        counts = {label: checks.counts_of(entries)
                  for label, entries in first.items()}
        for name, ok, detail in checks.check_counts(
                self.name, self.layout(), state["seed"], digests, counts):
            outcome.check(name, ok, detail)

    def pin(self, seed: int, work: Path) -> dict:
        """One untimed round's counts and digests, for ``pinned.json``."""
        state = self.setup(seed, work)
        curves, _ = self.run_round(state, 0, Outcome())
        return {"digests": [engine.config_digest()
                            for engine in state["engines"]],
                "counts": {label: checks.counts_of(entries)
                           for label, entries in curves.items()}}

    def teardown(self, state: dict) -> None:
        """Nothing to release (run directories go with the work dir)."""


# ----------------------------------------------------------------------
# The sweep service over loopback HTTP
# ----------------------------------------------------------------------
class ServiceWorkload:
    """One durable broker, one HTTP server thread, one pull worker.

    A round starts a fresh broker (JSONL store plus ``state_dir``
    journal), drains one job chunk by chunk with ``Worker.run_one`` (the
    chunk round trip: lease request to commit acknowledgement), then
    resubmits the same job ``cached_repeats`` times (submit -> complete
    curve, all cache hits).
    """

    name = "service-small-chunks"
    #: Chunks between two host reference samples (~50 ms).
    ref_every = 10

    def __init__(self, ebn0_db, num_packets: int, chunk_packets: int,
                 payload_bits: int, cached_repeats: int):
        self.ebn0_db = tuple(ebn0_db)
        self.num_packets = num_packets
        self.chunk_packets = chunk_packets
        self.payload_bits = payload_bits
        self.cached_repeats = cached_repeats

    @property
    def num_chunks(self) -> int:
        return len(self.ebn0_db) * -(-self.num_packets // self.chunk_packets)

    def spec(self, seed: int, ebn0_db=None, num_packets=None) -> dict:
        ebn0_db = self.ebn0_db if ebn0_db is None else ebn0_db
        return {"points": [{"ebn0_db": float(value), "scenario": "awgn",
                            "modulation": "bpsk", "adc_bits": None}
                           for value in ebn0_db],
                "num_packets": num_packets or self.num_packets,
                "payload_bits_per_packet": self.payload_bits,
                "chunk_packets": self.chunk_packets,
                "seed": seed, "generation": "gen2", "backend": "batch",
                "quantize": True, "name": "perfbench"}

    def _start(self, seed: int, directory: Path) -> dict:
        broker = Broker(directory / "store", store_format="jsonl",
                        state_dir=directory / "state", recorder=Recorder())
        server = create_server(broker)
        thread = server.serve_in_thread()
        client = BrokerClient(server.url)
        worker = Worker(client, name="perfbench", exit_when_idle=True)
        # Warm-up job off the grid (same engine parameters): registers
        # the worker and pays first-chunk costs on every layer.
        job = client.submit(self.spec(seed, ebn0_db=(20.0,),
                                      num_packets=self.chunk_packets))
        while worker.run_one():
            pass
        client.curve(job["job_id"])
        return {"broker": broker, "server": server, "thread": thread,
                "client": client, "worker": worker, "dir": directory}

    @staticmethod
    def _stop(service: dict) -> None:
        service["server"].shutdown()
        service["server"].server_close()
        service["thread"].join(timeout=30)
        service["broker"].close()

    def setup(self, seed: int, work: Path) -> dict:
        # The client, the HTTP handler threads and the broker take turns
        # (one closed-loop client), so the process runs on one CPU: left
        # free, the scheduler splits the ping-pong across cores in some
        # runs and not others, and throughput flips by ~25% between runs.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
        hostref.warm_up()
        return {"seed": seed, "work": work,
                "service": self._start(seed, work / "round-00")}

    def run_round(self, state: dict, index: int, outcome: Outcome,
                  tracer: Tracer | None = None):
        """Drain one job, then time the cached resubmits.  Returns
        ``(curve_points, timed)``."""
        seed = state["seed"]
        service = state.pop("service", None) \
            or self._start(seed, state["work"] / f"round-{index:02d}")
        try:
            return self._drain(service, seed, index, outcome, tracer)
        finally:
            self._stop(service)

    def _drain(self, service, seed, index, outcome, tracer):
        broker, client, worker = (service["broker"], service["client"],
                                  service["worker"])
        spec = self.spec(seed)
        journal = service["dir"] / "state" / "journal.jsonl"
        store_dir = service["dir"] / "store"
        before = (journal.stat().st_size, _bytes_under(store_dir),
                  len(broker.recorder.events()))
        retries = client.transport_retries
        rtts = []
        costs = []      # each chunk's process CPU seconds
        pieces = []     # and the reference piece it falls in
        cached = []
        reference = hostref.Reference()
        with _Timed(outcome, tracer) as timed:
            if tracer is None:
                reference.mark()
            job = client.submit(spec)
            requests = 1
            while True:
                chunk_start = _clock()
                cpu_start = time.process_time()
                if not worker.run_one():
                    requests += 1
                    break
                costs.append(time.process_time() - cpu_start)
                rtts.append(_clock() - chunk_start)
                requests += 2
                if tracer is None and len(costs) % self.ref_every == 0:
                    piece = reference.mark()
                    pieces += [piece] * (len(costs) - len(pieces))
            if tracer is None:
                piece = reference.mark()
                pieces += [piece] * (len(costs) - len(pieces))
            drain_s = _clock() - timed.start - reference.wall_s
            curve = client.curve(job["job_id"])
            requests += 1
            after = (journal.stat().st_size, _bytes_under(store_dir),
                     len(broker.recorder.events()))
            leased = broker.recorder.counter_totals().get(
                "serve.chunks_leased", 0)
            for _ in range(self.cached_repeats):
                query_start = _clock()
                submitted = client.submit(spec)
                resubmit = client.curve(submitted["job_id"])
                cached.append((_clock() - query_start, submitted, resubmit))
                requests += 2
        leased_after = broker.recorder.counter_totals().get(
            "serve.chunks_leased", 0)
        outcome.attempted += requests
        outcome.failed += client.transport_retries - retries
        chunks = len(rtts)
        # Timings come from untraced rounds only.
        samples = outcome.samples if tracer is None else defaultdict(list)
        samples["chunk_rtt_ms"].extend(rtt * 1e3 for rtt in rtts)
        samples["chunks_per_s"].append(chunks / drain_s)
        samples["pkt_per_s"].append(chunks * self.chunk_packets / drain_s)
        if tracer is None:
            drain_ref_ms = reference.total_ref_ms()
            samples["chunk_ref_ms"].extend(
                reference.ref_ms(piece, cost)
                for cost, piece in zip(costs, pieces))
            samples["chunks_per_ref_s"].append(chunks * 1e3 / drain_ref_ms)
            samples["pkt_per_ref_s"].append(
                chunks * self.chunk_packets * 1e3 / drain_ref_ms)
            samples["host_ref_ms"].extend(
                seconds * 1e3 for seconds in reference.samples)
        samples["cached_curve_ms"].extend(
            seconds * 1e3 for seconds, _, _ in cached)
        outcome.check(f"round {index}: drained {self.num_chunks} chunks, "
                      "curve complete",
                      chunks == self.num_chunks and curve["complete"]
                      and curve["state"] == "done",
                      f"{chunks} chunk(s), state {curve['state']}")
        outcome.check(
            f"round {index}: cached resubmits identical, zero leases",
            leased_after == leased and all(
                submitted["state"] == "done"
                and submitted["chunks_total"] == 0
                and resubmit["points"] == curve["points"]
                for _, submitted, resubmit in cached),
            f"leases granted during resubmits: {leased_after - leased}")
        if tracer is not None:
            outcome.extras["serve.journal.bytes_per_chunk"].append(
                (after[0] - before[0]) / max(chunks, 1))
            outcome.extras["runs.store.bytes_per_chunk"].append(
                (after[1] - before[1]) / max(chunks, 1))
            outcome.extras["obs.recorder.events_per_chunk"].append(
                (after[2] - before[2]) / max(chunks, 1))
        return curve["points"], timed

    def verify(self, state: dict, curves_by_round, outcome: Outcome) -> None:
        """Off-clock: the fleet curve equals a local ``measure_points``
        of the same chunk layout, bit for bit, in every round."""
        spec = JobSpec.from_dict(self.spec(state["seed"]))
        engine = spec.build_engine()
        reference = engine.measure_points(
            [(point, spec.num_packets, 0) for point in spec.points],
            payload_bits_per_packet=spec.payload_bits_per_packet,
            chunk_packets=spec.chunk_packets)
        for index, points in enumerate(curves_by_round):
            fleet = [BERPoint.from_dict(entry["measurement"])
                     for entry in points]
            outcome.check(f"round {index}: fleet curve == local "
                          "measure_points", fleet == reference)

    def teardown(self, state: dict) -> None:
        service = state.pop("service", None)
        if service is not None:
            self._stop(service)


def build(name: str, smoke: bool = False):
    """The workload called ``name`` (tiny grids with ``smoke``)."""
    if name == "genie-sweep":
        grid = Grid("gen2-batch", "gen2", "batch", ("awgn", "cm1"),
                    (0, 2, 4, 6, 8), 2048, 512, 256, "jsonl")
        if smoke:
            grid = Grid("gen2-batch", "gen2", "batch", ("awgn", "cm1"),
                        (0, 8), 64, 32, 256, "jsonl")
        return LocalWorkload(name, [grid], cached_repeats=2 if smoke else 30)
    if name == "fullstack-cm1":
        paper_grade = (("use_mlse", True), ("mlse_max_taps", 5),
                       ("rake_fingers", 16), ("channel_estimate_taps", 64),
                       ("adc_comparator_noise_std", 0.0))
        one_pulse = (("pulses_per_bit", 1),)
        if smoke:
            grids = [Grid("gen2-paper-grade", "gen2", "fullstack", ("cm1",),
                          (6,), 8, 4, 256, "sqlite", paper_grade),
                     Grid("gen1-1ppb", "gen1", "fullstack", ("cm1",),
                          (12,), 8, 4, 256, "sqlite", one_pulse)]
        else:
            grids = [Grid("gen2-paper-grade", "gen2", "fullstack", ("cm1",),
                          (4, 6, 8), 256, 64, 256, "sqlite", paper_grade),
                     Grid("gen1-1ppb", "gen1", "fullstack", ("cm1",),
                          (10, 12, 14), 192, 64, 256, "sqlite", one_pulse)]
        return LocalWorkload(name, grids, cached_repeats=2 if smoke else 30)
    if name == ServiceWorkload.name:
        if smoke:
            return ServiceWorkload((0, 6), 8, 2, 64, cached_repeats=3)
        return ServiceWorkload(range(10), 400, 2, 64, cached_repeats=40)
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("genie-sweep", "fullstack-cm1", ServiceWorkload.name)
