"""Grid-level Monte-Carlo sweep engine.

A :class:`SweepEngine` runs whole grids of operating points — Eb/N0 x
modulation x channel scenario x ADC resolution — through one of three
backends: the vectorized genie-timed batch kernel
(:class:`repro.sim.batch.BatchedLinkModel`, the default), the batched
full-stack receiver (``backend="fullstack"``,
:class:`repro.sim.batch_rx.BatchedFullStackModel` — real acquisition,
channel estimation, RAKE and Viterbi, bit-decision-identical to the
packet loop), or the full per-packet transceiver stack
(``backend="packet"``, the reference oracle and the only per-packet BER
loop in the library).

Reproducibility: every grid point gets its own :class:`numpy.random
.Generator` keyed on the engine seed *and the point's content* (not its
grid position), so results are identical for the same seed no matter how
the grid is ordered, chunked, or spread across worker processes.  The flip
side: duplicated points in one grid share a stream and return identical
measurements — use different seeds (or engines) to replicate a point.

Parallelism: the schedulable unit is the seeded *packet chunk* — a
``(point, num_packets, packet_offset)`` span with its own content-keyed
random stream.  ``chunk_packets`` splits every point into chunks of that
size (ragged tail allowed) and ``max_workers`` fans the chunks of *all*
points out over one ``concurrent.futures.ProcessPoolExecutor``, so a
single hot point no longer serializes on one core.  Both calls —
:meth:`SweepEngine.run` and :meth:`~SweepEngine.measure_points` — run one
validate → plan → execute body.  The per-point task prototypes reach
each pool worker once, through the pool initializer, so a chunk
submission carries only a few integers; results come back through a
:class:`repro.sim.shm.ChunkResultBlock` (written in place, never
pickled).  Each chunk fails independently, and
completed chunks are still harvested when a sibling's worker raises or
dies.  For a fixed chunk layout, results are bitwise identical however
the chunks are scheduled — serial, any worker count, any completion
order; the default layout (``chunk_packets=None``, one chunk per point
at offset 0) is bit-exact with the historical unchunked engine.
Scenarios shipped to workers must be picklable under the ``spawn`` and
``forkserver`` start methods — every built-in scenario is; custom
scenarios should use module-level factory functions rather than
lambdas.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import struct
import time
import warnings
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from itertools import product

import numpy as np

from repro.core.config import Gen1Config, Gen2Config
from repro.core.metrics import BERCurve, BERPoint
from repro.obs.recorder import NULL_RECORDER, Recorder, activate
from repro.pulses.modulation import make_modulator
from repro.sim.batch import BatchedLinkModel
from repro.sim.scenarios import SCENARIOS, Scenario, ScenarioRegistry
from repro.sim.shm import SLOT_OK, ChunkResultBlock
from repro.utils.validation import require_int, require_json_int

_logger = logging.getLogger(__name__)

__all__ = ["SweepPoint", "SweepResult", "SweepEngine", "sweep_grid",
           "chunk_spans", "GENERATIONS", "BACKENDS"]

#: Transceiver generations an engine can simulate.
GENERATIONS = ("gen1", "gen2")
#: Simulation backends (see :class:`SweepEngine`).
BACKENDS = ("batch", "packet", "fullstack")
# 2: the gen-1 front half (pulse synthesis, real-waveform channel conv,
# AGC, interleaved-flash ADC) went batched — decisions are pinned to the
# packet oracle, but the batch FFT widths shift float intermediates at
# rounding level, so gen-1 fullstack cache entries must not be reused.
_FULLSTACK_RX_VERSION = 2
# 2: the genie kernel draws its noise after decimation, only at the
# samples the ADC keeps — distributionally identical, but a different
# random stream, so batch cache entries of version 1 must not be reused.
# 3: the received signal is synthesized in closed form at the ADC rate (a
# Toeplitz matmul instead of the sim-rate channel FFT) and the energy per
# bit is a closed form — equal to rounding level, but a ULP can still move
# an AGC peak or a quantizer bin.
_BATCH_KERNEL_VERSION = 3
_FULL_STACK_BPSK_MESSAGE = (
    "backend={backend!r} drives the full transceiver stack, which is "
    "BPSK-only, but the grid sweeps modulation(s) {modulations}; use "
    "backend='batch' for other modulations or drop them from the grid")


@dataclass(frozen=True)
class SweepPoint:
    """One operating point of a sweep grid.

    ``ebn0_db`` is stored as a finite ``float``, with ``-0.0`` made
    ``0.0``: points that compare equal then also digest and seed
    identically.  A NaN or infinite value raises ``ValueError``.
    """

    ebn0_db: float
    scenario: str = "awgn"
    modulation: str = "bpsk"
    adc_bits: int | None = None

    def __post_init__(self) -> None:
        ebn0_db = float(self.ebn0_db)
        if not math.isfinite(ebn0_db):
            raise ValueError(f"ebn0_db must be finite (not NaN or "
                             f"infinite), got {ebn0_db}")
        # Adding +0.0 turns -0.0 into 0.0 and leaves every other value.
        object.__setattr__(self, "ebn0_db", ebn0_db + 0.0)

    def curve_key(self) -> tuple[str, str, int | None]:
        """Grouping key: all points sharing it belong to one BER curve."""
        return (self.scenario, self.modulation, self.adc_bits)

    def to_dict(self) -> dict:
        """The plain-JSON form run manifests, job specs and leases carry."""
        return {"ebn0_db": float(self.ebn0_db), "scenario": self.scenario,
                "modulation": self.modulation, "adc_bits": self.adc_bits}

    @classmethod
    def from_dict(cls, data) -> "SweepPoint":
        """Parse :meth:`to_dict` output (the one point codec).

        ``scenario``/``modulation`` default to ``"awgn"``/``"bpsk"``;
        anything malformed, a NaN or infinite ``ebn0_db`` or a bool or
        fractional ``adc_bits`` included, raises ``ValueError``.  Whether
        the point is runnable is :meth:`SweepEngine.validate_points`'s
        call.
        """
        if not isinstance(data, dict):
            raise ValueError("each grid point must be an object with "
                             "ebn0_db/scenario/modulation/adc_bits")
        try:
            adc_bits = data.get("adc_bits")
            return cls(ebn0_db=data["ebn0_db"],
                       scenario=str(data.get("scenario", "awgn")),
                       modulation=str(data.get("modulation", "bpsk")),
                       adc_bits=(None if adc_bits is None
                                 else require_json_int(adc_bits, "adc_bits")))
        except (KeyError, TypeError, ValueError) as error:
            raise ValueError(f"malformed grid point {data!r}: {error}") \
                from None


def sweep_grid(ebn0_values_db, scenarios=("awgn",), modulations=("bpsk",),
               adc_bits=(None,)) -> tuple[SweepPoint, ...]:
    """The Cartesian product of the sweep axes as grid points.

    Eb/N0 varies fastest, so consecutive points of the same curve stay
    adjacent (helpful when eyeballing partial results).

    Every axis must be non-empty and the Eb/N0 values finite; an empty axis
    or a NaN/inf operating point would otherwise surface far downstream as
    an empty grid or a NaN curve.
    """
    ebn0_values_db = tuple(ebn0_values_db)
    scenarios = tuple(scenarios)
    modulations = tuple(modulations)
    adc_bits = tuple(adc_bits)
    for name, axis in (("ebn0_values_db", ebn0_values_db),
                       ("scenarios", scenarios),
                       ("modulations", modulations),
                       ("adc_bits", adc_bits)):
        if len(axis) == 0:
            raise ValueError(f"sweep axis {name!r} is empty; every axis "
                             "needs at least one value")
    ebn0_array = np.asarray(ebn0_values_db, dtype=float)
    if not np.all(np.isfinite(ebn0_array)):
        bad = ebn0_array[~np.isfinite(ebn0_array)]
        raise ValueError("ebn0_values_db must be finite; got "
                         f"{bad.tolist()}")
    return tuple(
        SweepPoint(ebn0_db=float(ebn0), scenario=scenario,
                   modulation=modulation, adc_bits=bits)
        for scenario, modulation, bits, ebn0
        in product(scenarios, modulations, adc_bits, ebn0_values_db))


@dataclass
class SweepResult:
    """All measured points of one sweep, grouped into curves on demand.

    Attributes
    ----------
    entries:
        ``(point, measurement)`` pairs in grid order.
    errors_per_packet:
        Only populated when the sweep ran with
        ``collect_errors_per_packet=True``: maps each grid point to its
        per-packet bit-error counts (a tuple of ints, one per packet).
    """

    entries: list[tuple[SweepPoint, BERPoint]] = field(default_factory=list)
    errors_per_packet: dict = field(default_factory=dict)

    def curve(self, scenario: str = "awgn", modulation: str = "bpsk",
              adc_bits: int | None = None,
              label: str | None = None) -> BERCurve:
        """The BER curve of one (scenario, modulation, adc_bits) combination.

        Raises ``KeyError`` when no swept point matches, so a mistyped (or
        forgotten) axis value fails here rather than as an empty plot
        downstream.
        """
        key = (scenario, modulation, adc_bits)
        if label is None:
            label = self._label_for(key)
        curve = BERCurve(label=label)
        for point, measurement in self.entries:
            if point.curve_key() == key:
                curve.add(measurement)
        if not curve.points:
            available = sorted({self._label_for(point.curve_key())
                                for point, _ in self.entries})
            raise KeyError(f"no swept points match {self._label_for(key)!r}; "
                           f"swept curves: {', '.join(available) or '(none)'}")
        return curve

    def curves(self) -> dict[str, BERCurve]:
        """Every curve in the sweep, keyed by a readable label."""
        result: dict[str, BERCurve] = {}
        for point, measurement in self.entries:
            label = self._label_for(point.curve_key())
            result.setdefault(label, BERCurve(label=label)).add(measurement)
        return result

    @staticmethod
    def _label_for(key: tuple[str, str, int | None]) -> str:
        scenario, modulation, adc_bits = key
        label = f"{scenario}/{modulation}"
        if adc_bits is not None:
            label += f"/adc{adc_bits}"
        return label


@dataclass(frozen=True)
class _PointTask:
    """Everything a worker process needs to measure one grid point.

    ``config`` is the resolved configuration (the engine's base config,
    or the generation's ``fast_test_config``, with the point's
    ``adc_bits`` applied) and ``model`` the genie kernel of the ``batch``
    backend (``None`` on the full-stack backends).  Both are per-engine
    constants shared by every chunk and every point that resolves to
    them; pool workers receive them once, with the prototypes.
    """

    point: SweepPoint
    scenario: Scenario
    config: object
    backend: str
    num_packets: int
    payload_bits_per_packet: int
    seed_entropy: object
    spawn_key: tuple
    model: BatchedLinkModel | None = None


def _point_digest_text(point: SweepPoint) -> str:
    """Canonical text identifying a point's content (not its grid position)."""
    return repr((float(point.ebn0_db), point.scenario, point.modulation,
                 point.adc_bits))


def _chunk_spawn_key(key_base: tuple[int, ...],
                     packet_offset: int) -> tuple[int, ...]:
    """The spawn key of a point's chunk at ``packet_offset``: the point's
    offset-0 key, extended by a non-zero offset."""
    return key_base + (int(packet_offset),) if packet_offset else key_base


def _point_spawn_key(point: SweepPoint,
                     packet_offset: int = 0) -> tuple[int, ...]:
    """A stable ``SeedSequence`` spawn key derived from the point's content.

    Keying streams on content rather than grid position keeps results
    identical when the grid is reordered, chunked, or sharded.  A non-zero
    ``packet_offset`` extends the key, giving escalation chunks (packets
    simulated *on top of* an earlier measurement of the same point) an
    independent stream; offset 0 is bit-exact with the historical scheme.
    """
    digest = hashlib.sha256(
        _point_digest_text(point).encode("utf-8")).digest()
    # The first 16 bytes as four little-endian 32-bit words.
    return _chunk_spawn_key(struct.unpack("<4I", digest[:16]),
                            packet_offset)


def _resolve_config(config, generation: str, adc_bits: int | None):
    """The effective transceiver configuration of a point: the base
    ``config`` (``None``: the generation's ``fast_test_config``) with the
    point's ``adc_bits`` applied."""
    if config is None:
        config = (Gen1Config.fast_test_config() if generation == "gen1"
                  else Gen2Config.fast_test_config())
    if adc_bits is not None:
        config = config.with_changes(adc_bits=adc_bits)
    return config


def _task_rng(task: _PointTask, child: int) -> np.random.Generator:
    """The generator of a task's ``child``-th stream: 0 scenario, 1 noise,
    2 hardware.

    Exactly the child ``SeedSequence(entropy, spawn_key).spawn(3)`` yields
    at that index (``spawn`` builds each child with the parent's entropy
    and ``spawn_key + (child,)``), built alone so that a chunk pays only
    for the streams its backend draws from.
    """
    return np.random.default_rng(np.random.SeedSequence(
        task.seed_entropy, spawn_key=tuple(task.spawn_key) + (child,)))


def _run_point_record(task: _PointTask) -> tuple[BERPoint, np.ndarray]:
    """Measure one grid point, returning the measurement *and* the
    per-packet bit-error counts (runs in the caller or a worker process)."""
    scenario = task.scenario
    point = task.point
    config = task.config
    # Only a scenario that draws a channel or an interferer needs its
    # stream; the noise stream is independent of it either way.
    scenario_rng = (_task_rng(task, 0) if scenario.channel is not None
                    or scenario.interferer is not None else None)
    noise_rng = _task_rng(task, 1)

    if task.backend == "batch":
        result = task.model.simulate(
            point.ebn0_db, task.num_packets, task.payload_bits_per_packet,
            rng=noise_rng,
            channel=scenario.make_channel(scenario_rng),
            interferer=scenario.make_interferer(scenario_rng))
        errors = np.asarray(result.errors_per_packet, dtype=np.int64)
        return result.to_ber_point(), errors

    from repro.core.transceiver import Gen1Transceiver, Gen2Transceiver
    hardware_rng = _task_rng(task, 2)
    transceiver_cls = (Gen1Transceiver if isinstance(config, Gen1Config)
                       else Gen2Transceiver)
    transceiver = transceiver_cls(config, rng=hardware_rng)

    if task.backend == "fullstack":
        # Batched full-stack receiver: same per-packet random-stream order
        # as the packet loop below (bit-decision-identical), DSP batched.
        from repro.sim.batch_rx import BatchedFullStackModel
        model = BatchedFullStackModel(transceiver)
        batch = model.simulate(
            point.ebn0_db, task.num_packets, task.payload_bits_per_packet,
            rng=noise_rng,
            make_channel=lambda: scenario.make_channel(scenario_rng),
            make_interferer=lambda: scenario.make_interferer(scenario_rng))
        return batch.to_ber_point(), batch.errors_per_packet

    # backend == "packet": the reference full-stack flow, one packet at a
    # time (kept as the oracle the fullstack backend is pinned against).
    bit_errors = 0
    total_bits = 0
    packets_failed = 0
    errors_per_packet = np.zeros(task.num_packets, dtype=np.int64)
    for index in range(task.num_packets):
        simulation = transceiver.simulate_packet(
            num_payload_bits=task.payload_bits_per_packet,
            ebn0_db=point.ebn0_db,
            channel=scenario.make_channel(scenario_rng),
            interferer=scenario.make_interferer(scenario_rng),
            rng=noise_rng)
        errors_per_packet[index] = simulation.result.payload_bit_errors
        bit_errors += simulation.result.payload_bit_errors
        total_bits += simulation.result.num_payload_bits
        if not simulation.result.packet_success:
            packets_failed += 1
    measurement = BERPoint(ebn0_db=point.ebn0_db, bit_errors=bit_errors,
                           total_bits=total_bits,
                           packets_sent=task.num_packets,
                           packets_failed=packets_failed)
    return measurement, errors_per_packet


# ----------------------------------------------------------------------
# Chunk decomposition and scheduling
# ----------------------------------------------------------------------
def chunk_spans(num_packets: int, chunk_packets: int | None,
                packet_offset: int = 0) -> tuple[tuple[int, int], ...]:
    """Split a packet budget into ``(packet_offset, num_packets)`` chunk
    spans.

    ``chunk_packets=None`` keeps the budget as one span (the historical
    unchunked layout); otherwise consecutive spans of ``chunk_packets``
    packets starting at ``packet_offset``, the last one ragged.  A span is
    exactly the unit :class:`repro.runs.ResultStore` caches and
    :func:`_point_spawn_key` seeds, so the decomposition is deterministic
    for a given ``(num_packets, chunk_packets, packet_offset)`` whatever
    the scheduling: ``chunk_packets >= num_packets`` degenerates to the
    unchunked span, bit-exact included.
    """
    require_int(num_packets, "num_packets", minimum=1)
    require_int(packet_offset, "packet_offset", minimum=0)
    if chunk_packets is None:
        return ((packet_offset, num_packets),)
    require_int(chunk_packets, "chunk_packets", minimum=1)
    return tuple(
        (packet_offset + start, min(chunk_packets, num_packets - start))
        for start in range(0, num_packets, chunk_packets))


#: Test-only fault-injection hook.  When set (in the parent process,
#: before the worker pool forks), it is called as ``hook(task)``
#: immediately before every chunk task body — on the serial and
#: process-pool paths alike.  Raising (or killing the process) from
#: it makes exactly that chunk fail, which is how the fault-injection
#: suite exercises per-chunk isolation.  Never set this outside tests.
_chunk_task_hook = None

#: Worker-process copy of the current pool's task prototypes, installed
#: once per worker by :func:`_install_prototypes` (the pool initializer).
_worker_prototypes: tuple = ()


def _install_prototypes(prototypes: tuple) -> None:
    """Pool initializer: keep the fan-out's task prototypes in the worker."""
    global _worker_prototypes
    _worker_prototypes = prototypes


def _materialize_chunk(prototype: _PointTask, num_packets: int,
                       packet_offset: int) -> _PointTask:
    """One chunk task from its point prototype (which carries the point's
    offset-0 spawn key): the chunk's packet budget plus the offset-keyed
    spawn key that gives it an independent stream."""
    return replace(prototype, num_packets=int(num_packets),
                   spawn_key=_chunk_spawn_key(prototype.spawn_key,
                                              int(packet_offset)))


def _run_chunk_task(task: _PointTask) -> tuple[BERPoint, np.ndarray]:
    """Run one chunk task body (through the fault-injection hook)."""
    if _chunk_task_hook is not None:
        _chunk_task_hook(task)
    return _run_point_record(task)


def _chunk_attrs(task: _PointTask, packet_offset: int) -> dict:
    """The telemetry identity of one chunk task (span attributes)."""
    point = task.point
    digest = hashlib.sha256(
        _point_digest_text(point).encode("utf-8")).hexdigest()[:12]
    return {"point": digest, "scenario": point.scenario,
            "ebn0_db": float(point.ebn0_db),
            "packet_offset": int(packet_offset),
            "packets": int(task.num_packets), "backend": task.backend}


def _run_chunk_traced(task: _PointTask, packet_offset: int, recorder,
                      queue_wait_s: float | None = None):
    """Run one chunk task under a ``chunk.run`` telemetry span.

    With the null recorder this *is* :func:`_run_chunk_task` — no clock
    read, no attribute hashing — keeping the disabled path a true no-op.
    The recorder is also installed as the active one for the chunk body,
    so the per-stage receiver spans land in the same event stream.
    """
    if not recorder.enabled:
        return _run_chunk_task(task)
    attrs = _chunk_attrs(task, packet_offset)
    if queue_wait_s is not None:
        attrs["queue_wait_s"] = float(queue_wait_s)
    with activate(recorder):
        with recorder.span("chunk.run", **attrs):
            return _run_chunk_task(task)


def _run_slot_task(result_block_name: str, slot: int, proto_index: int,
                   num_packets: int, packet_offset: int,
                   record_errors: bool, telemetry: bool = False,
                   submit_t: float | None = None) -> tuple[int, list | None]:
    """Worker body: simulate one chunk of prototype ``proto_index`` and
    write its record into ``slot`` of the shared result block.

    The prototypes arrived once per worker through the pool initializer,
    so a submission carries only a block name and a few integers.
    Returns ``(slot, events)`` where ``events`` is the worker-side
    telemetry batch (``None`` when telemetry is off).

    Workers never record into the recorder a fork inherited from the
    parent — each task gets a fresh one (or the null recorder) and ships
    its drained events back with the result.  The queue wait is measured
    against the parent's ``time.monotonic`` submission stamp
    (``CLOCK_MONOTONIC`` is system-wide on Linux, so the delta is valid
    across processes); clock adjustments clamp to zero, never negative.
    """
    recorder = Recorder() if telemetry else NULL_RECORDER
    queue_wait = None
    if telemetry and submit_t is not None:
        queue_wait = max(time.monotonic() - float(submit_t), 0.0)
    with activate(recorder):
        task = _materialize_chunk(_worker_prototypes[proto_index],
                                  num_packets, packet_offset)
        measurement, errors = _run_chunk_traced(task, packet_offset,
                                                recorder, queue_wait)
        with ChunkResultBlock.attach(result_block_name) as results:
            results.write_result(slot, measurement,
                                 errors if record_errors else None)
    return slot, (recorder.drain() if telemetry else None)


def _run_chunks_pooled(prototypes, rows, error_packets: int,
                       max_workers: int,
                       recorder=NULL_RECORDER) -> tuple[list,
                                                        BaseException | None]:
    """Fan chunk tasks over a process pool, results through shared memory.

    The prototypes reach every worker once, as the pool initializer's
    argument; ``rows`` are ``(prototype_index, num_packets,
    packet_offset)`` chunk tasks, each submitted as its own future, so
    chunks from every point interleave freely over the pool and fail
    independently.  Returns ``(records, failure)``: one ``(measurement,
    errors_per_packet)`` pair per row in row order — ``None`` for a chunk
    whose worker raised or died (its slot status never flipped, so a
    half-written record is never read back as garbage) — and the first
    failure in submission order, or ``None``.  Completed chunks are
    always harvested, whatever happened to their siblings, and the
    result block is torn down in a ``finally``.  A block allocation
    failure raises a ``RuntimeError`` before any task runs — tasks are
    never silently dropped.

    With an enabled ``recorder``, the parent records the block
    allocation span and size plus the pool fan-out span, each worker
    records its own ``chunk.run`` span (including pool queue wait) and
    ships the batch back with its future, and harvested-after-failure
    slots are counted — telemetry rides the existing transport, never a
    second channel.
    """
    telemetry = recorder.enabled
    with recorder.span("shm.alloc", tasks=len(rows)):
        try:
            results = ChunkResultBlock.allocate(len(rows), error_packets)
        except OSError as error:
            raise RuntimeError(
                f"failed to allocate the shared-memory result block for "
                f"{len(rows)} chunk task(s) x {error_packets} error "
                f"word(s): {error}; no chunk was run "
                "(is /dev/shm full?)") from error
    failure: BaseException | None = None
    try:
        recorder.gauge("shm.result_block_bytes", results.size_bytes)
        workers = min(int(max_workers), len(rows))
        recorder.gauge("pool.workers", workers)
        with recorder.span("pool.run", workers=workers, tasks=len(rows)):
            with ProcessPoolExecutor(max_workers=workers,
                                     initializer=_install_prototypes,
                                     initargs=(tuple(prototypes),)) as pool:
                futures = [pool.submit(_run_slot_task, results.name, slot,
                                       index, packets, offset,
                                       error_packets > 0, telemetry,
                                       time.monotonic() if telemetry
                                       else None)
                           for slot, (index, packets, offset)
                           in enumerate(rows)]
                for future in futures:
                    try:
                        _, events = future.result()
                        recorder.absorb(events)
                    except BaseException as error:  # noqa: BLE001 re-raised
                        if failure is None:
                            failure = error
        records = [results.read_result(slot)
                   if results.slot_status(slot) == SLOT_OK else None
                   for slot in range(len(rows))]
    finally:
        results.close()
        try:
            results.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass
    if failure is not None:
        harvested = sum(1 for record in records if record is not None)
        if harvested:
            recorder.counter("shm.slots_harvested_after_failure", harvested)
    return records, failure


class SweepEngine:
    """Batched Monte-Carlo driver for grids of link operating points.

    Parameters
    ----------
    config:
        Base transceiver configuration; ``None`` picks the generation's
        ``fast_test_config``.  Per-point ``adc_bits`` overrides are applied
        on top of it.
    generation:
        One of :data:`GENERATIONS` (``"gen1"`` or ``"gen2"``); scenarios
        with a pinned generation override this.
    registry:
        Scenario registry to resolve names against (default: the shared
        :data:`repro.sim.scenarios.SCENARIOS`).
    seed:
        Root seed, a non-negative integer; each grid point derives an
        independent child stream, so equal seeds give identical results
        whatever the execution order.
    backend:
        One of :data:`BACKENDS`: ``"batch"`` (vectorized genie-timed
        kernel), ``"fullstack"``
        (batched full receiver chain — acquisition, channel estimation,
        RAKE, Viterbi — bit-decision-identical to the packet loop at a
        fraction of its cost; see :mod:`repro.sim.batch_rx`), or
        ``"packet"`` (the per-packet reference oracle, one
        ``simulate_packet`` call per packet).  The full-stack backends are
        BPSK-only and reject other modulations when the grid is submitted.
    quantize:
        Batch backend only: model AGC + ADC quantization (a bool, default
        on).
    chunk_packets:
        Default chunk layout: every point's packet budget is split into
        seeded chunks of this many packets (ragged tail allowed), which
        become the schedulable, cacheable unit of work — a single hot
        point then scales across the worker pool.  ``None`` (default)
        keeps one chunk per point, bit-exact with the historical
        unchunked engine.  The layout shapes *which* independent streams
        are drawn, so different layouts give statistically equivalent but
        not bitwise-equal results; for a fixed layout, results are
        bitwise invariant under scheduling (serial vs. any worker count).
        Overridable per call via :meth:`measure_points`; excluded from :meth:`config_digest` (layout is coverage, not
        identity — mirroring ``num_packets``).
    recorder:
        Optional :class:`repro.obs.Recorder` collecting run telemetry
        (chunk latency spans, pool queue waits, shm block sizes,
        per-stage receiver timing).  ``None`` (default) installs the
        no-op null recorder: zero clock reads, zero events.  Telemetry
        is *bitwise invisible* — results and :meth:`config_digest` are
        identical whether recording is on or off, and the recorder is
        deliberately excluded from the digest so enabling it never
        invalidates :mod:`repro.runs` caches.
    """

    def __init__(self, config=None, generation: str = "gen2",
                 registry: ScenarioRegistry | None = None, seed: int = 0,
                 backend: str = "batch", quantize: bool = True,
                 chunk_packets: int | None = None,
                 recorder=None) -> None:
        if generation not in GENERATIONS:
            raise ValueError(f"unknown generation {generation!r}; known: "
                             + ", ".join(GENERATIONS))
        if backend not in BACKENDS:
            raise ValueError(f"unknown backend {backend!r}; known: "
                             + ", ".join(BACKENDS))
        if not isinstance(quantize, bool):
            raise TypeError(f"quantize must be true or false, "
                            f"not {quantize!r}")
        if chunk_packets is not None:
            require_int(chunk_packets, "chunk_packets", minimum=1)
        self.config = config
        self.generation = generation
        self.registry = registry if registry is not None else SCENARIOS
        self.seed = require_int(seed, "seed", minimum=0)
        self.backend = backend
        self.quantize = quantize
        self.chunk_packets = chunk_packets
        # Never part of config_digest(): telemetry is observability, not
        # identity — recording on/off must not split the result cache.
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        # Per-engine constants of the chunk path (see _resolved).
        self._configs: dict[tuple, object] = {}
        self._models: dict[tuple, BatchedLinkModel] = {}

    # ------------------------------------------------------------------
    # Identity: the JSON codec and the digests (repro.runs, repro.serve)
    # ------------------------------------------------------------------
    def params(self) -> dict:
        """The engine's identity as a plain-JSON dict.

        Seed, generation, backend and quantize: what run manifests, job
        specs and chunk leases carry.  The base config, chunk layout
        and recorder are not part of it; :meth:`from_params`
        is the inverse.
        """
        return {"seed": self.seed, "generation": self.generation,
                "backend": self.backend, "quantize": self.quantize}

    @classmethod
    def from_params(cls, data, **kwargs) -> "SweepEngine":
        """Build an engine from a parsed :meth:`params` dict.

        The one parse of an engine description.  Missing keys take the
        constructor defaults and other keys are ignored, so a whole job
        spec or manifest can be passed.  A seed may be a whole-valued
        float (``7.0``); anything the constructor rejects raises
        ``TypeError``/``ValueError`` naming the field.  ``kwargs``
        (``chunk_packets``, ``recorder``, ...) go to the constructor
        unchanged.
        """
        # Older clients, journals and manifests carry the removed
        # array-backend field; only the NumPy value it always resolved to
        # is accepted.
        if data.get("array_backend") not in (None, "numpy"):
            raise ValueError(f"array_backend must be null or 'numpy', "
                             f"not {data['array_backend']!r}")
        return cls(seed=require_json_int(data.get("seed", 0), "seed"),
                   generation=data.get("generation", "gen2"),
                   backend=data.get("backend", "batch"),
                   quantize=data.get("quantize", True), **kwargs)

    @staticmethod
    def point_digest(point: SweepPoint) -> str:
        """A stable hex digest of a grid point's content.

        Two points with equal content digest identically no matter where
        they sit in a grid, so the digest is a safe cache-key component for
        the :mod:`repro.runs` result store.
        """
        return hashlib.sha256(
            _point_digest_text(point).encode("utf-8")).hexdigest()

    def config_digest(self) -> str:
        """A stable hex digest of everything engine-level that shapes results.

        Covers the seed, generation, backend, quantization choice, the
        full base configuration (field by field, ``None`` meaning the
        generation's ``fast_test_config``) and the version of the batched
        kernel behind ``backend="batch"`` or ``"fullstack"``, so existing
        :mod:`repro.runs` caches stay valid until a kernel version moves.
        Two engines with equal digests produce bit-identical measurements
        for the same point and packet budget.
        """
        if self.config is None:
            config_description = ["default", self.generation]
        else:
            config_description = [type(self.config).__name__,
                                  repr(self.config)]
        payload = {
            "seed": self.seed,
            "generation": self.generation,
            "backend": self.backend,
            "quantize": self.quantize,
            "config": config_description,
        }
        # Version each batched kernel separately: a revision of its random
        # stream or numerics bumps its component, so stale repro.runs
        # cache entries can never collide with new measurements.  Packet
        # digests stay byte-identical to earlier releases.
        if self.backend == "fullstack":
            payload["fullstack_rx"] = _FULLSTACK_RX_VERSION
        elif self.backend == "batch":
            payload["batch_kernel"] = _BATCH_KERNEL_VERSION
        return hashlib.sha256(
            json.dumps(payload, sort_keys=True).encode("utf-8")).hexdigest()

    # ------------------------------------------------------------------
    # Grid execution
    # ------------------------------------------------------------------
    def validate_points(self, points) -> None:
        """Check that this engine can run every grid point.

        The one grid check.  Raises ``KeyError`` for a scenario missing
        from the registry, ``ValueError`` for an unknown modulation, a
        non-BPSK point on the BPSK-only ``packet``/``fullstack`` backends
        or ``adc_bits < 1``, and ``TypeError`` for a bool or non-integral
        ``adc_bits``.  Every entry point — :meth:`run`,
        :meth:`measure_points`, :meth:`repro.runs.RunDriver.create` and
        the broker's submit — calls it before anything is simulated or
        written.
        """
        points = tuple(points)
        for scenario in {point.scenario for point in points}:
            self.registry.get(scenario)
        modulations = {point.modulation for point in points}
        for modulation in modulations:
            try:
                make_modulator(modulation)
            except ValueError as error:
                raise ValueError(f"grid modulation {modulation!r} is not "
                                 f"runnable: {error}") from None
        unsupported = sorted(modulations - {"bpsk"})
        if self.backend != "batch" and unsupported:
            raise ValueError(_FULL_STACK_BPSK_MESSAGE.format(
                backend=self.backend, modulations=", ".join(unsupported)))
        for point in points:
            if point.adc_bits is not None:
                require_int(point.adc_bits, "adc_bits", minimum=1)

    def _task_for(self, point: SweepPoint, num_packets: int,
                  payload_bits_per_packet: int,
                  packet_offset: int = 0) -> _PointTask:
        """Bundle one grid point into a self-contained worker task."""
        scenario = self.registry.get(point.scenario)
        config, model = self._resolved(scenario, point)
        return _PointTask(
            point=point,
            scenario=scenario,
            config=config,
            backend=self.backend,
            num_packets=num_packets,
            payload_bits_per_packet=payload_bits_per_packet,
            seed_entropy=self.seed,
            spawn_key=_point_spawn_key(point, packet_offset),
            model=model)

    def _resolved(self, scenario: Scenario, point: SweepPoint):
        """A point's resolved configuration and, on the ``batch``
        backend, its genie model (else ``None``).

        Both are memoized on the engine — the configuration per
        ``(generation, adc_bits)``, the model per ``(generation,
        adc_bits, modulation, notch)`` — because the service measures
        one chunk per :meth:`measure_points` call and neither depends on
        the chunk.  The base config and ``quantize`` are fixed for the
        engine's lifetime, so these keys determine ``(resolved config,
        modulation, quantize, notch)``; the memos hold one entry per
        distinct combination the engine has measured.
        """
        generation = scenario.generation or self.generation
        config_key = (generation, point.adc_bits)
        config = self._configs.get(config_key)
        if config is None:
            config = self._configs[config_key] = _resolve_config(
                self.config, generation, point.adc_bits)
        if self.backend != "batch":
            return config, None
        notch = (scenario.notch_frequency_hz
                 if getattr(config, "enable_digital_notch", False) else None)
        model_key = config_key + (point.modulation, notch)
        model = self._models.get(model_key)
        if model is None:
            model = self._models[model_key] = BatchedLinkModel(
                config, modulation=point.modulation, quantize=self.quantize,
                notch_frequency_hz=notch)
        return config, model

    def _chunk_plan(self, jobs, payload_bits_per_packet: int,
                    chunk_packets: int | None):
        """Decompose ``(point, num_packets, packet_offset)`` jobs into the
        chunk-task schedule.

        Returns ``(prototypes, rows, job_rows)``: one task prototype per
        distinct point (the expensive part, shipped once to each pool
        worker), ``rows`` of ``(prototype_index, num_packets,
        packet_offset)`` chunk tasks in schedule order, and per job the
        slice of rows (in offset order) whose results merge into that
        job's measurement.
        """
        prototypes: list[_PointTask] = []
        proto_index: dict[SweepPoint, int] = {}
        rows: list[tuple[int, int, int]] = []
        job_rows: list[slice] = []
        for point, num_packets, packet_offset in jobs:
            index = proto_index.get(point)
            if index is None:
                index = len(prototypes)
                proto_index[point] = index
                prototypes.append(
                    self._task_for(point, 1, payload_bits_per_packet, 0))
            spans = chunk_spans(int(num_packets), chunk_packets,
                                int(packet_offset))
            job_rows.append(slice(len(rows), len(rows) + len(spans)))
            rows.extend((index, packets, offset)
                        for offset, packets in spans)
        return prototypes, rows, job_rows

    def _measure(self, jobs, payload_bits_per_packet: int,
                 max_workers: int | None, chunk_packets: int | None,
                 collect_errors: bool = False, on_chunk=None) -> tuple[
                     list, BaseException | None]:
        """Validate, plan and execute ``(point, num_packets,
        packet_offset)`` jobs: the one body behind :meth:`run` and
        :meth:`measure_points`.

        Every argument and grid point is checked before anything runs;
        ``chunk_packets=None`` takes the engine's layout.
        ``on_chunk(point, packet_offset, measurement)`` sees every
        completed chunk in schedule order (job order, then offset order),
        failure or not.  Returns ``(job_records, failure)``: per job, its
        chunk records ``(measurement, errors_per_packet)`` in offset
        order, ``None`` for a failed chunk; and the first failure, or
        ``None``.
        """
        for _, num_packets, packet_offset in jobs:
            # Validate before the plan coerces them.
            require_int(num_packets, "num_packets", minimum=1)
            require_int(packet_offset, "packet_offset", minimum=0)
        require_int(payload_bits_per_packet, "payload_bits_per_packet",
                    minimum=1)
        if max_workers is not None:
            require_int(max_workers, "max_workers", minimum=1)
        if chunk_packets is None:
            chunk_packets = self.chunk_packets
        else:
            require_int(chunk_packets, "chunk_packets", minimum=1)
        self.validate_points(point for point, _, _ in jobs)
        recorder = self.recorder
        with activate(recorder):
            with recorder.span("engine.chunk_plan", jobs=len(jobs)):
                prototypes, rows, job_rows = self._chunk_plan(
                    jobs, payload_bits_per_packet, chunk_packets)
            recorder.counter("chunks.scheduled", len(rows))
            error_packets = (max(packets for _, packets, _ in rows)
                             if collect_errors and rows else 0)
            records, failure = self._execute_chunks(
                prototypes, rows, error_packets, max_workers)
        if on_chunk is not None:
            for (index, _, offset), record in zip(rows, records):
                if record is not None:
                    on_chunk(prototypes[index].point, offset, record[0])
        return [records[job] for job in job_rows], failure

    def _execute_chunks(self, prototypes, rows, error_packets: int,
                        max_workers: int | None):
        """Run the chunk-task schedule serially or over the process pool.

        Returns ``(records, failure)`` exactly like
        :func:`_run_chunks_pooled`; the serial and pooled paths produce
        the same per-chunk records (same seeds, same layout), so
        scheduling is bitwise invisible for a fixed chunk layout.  On both
        paths every chunk fails independently: a failed chunk records
        ``None``, the remaining rows still run, and the first failure (in
        row order) is returned.  Before a failure is returned, every
        failed chunk is logged with its identity — point digest,
        scenario, Eb/N0, packet offset — and the identities are attached
        to the exception as a note (Python 3.11+), so a worker traceback
        never strands the caller without knowing *which* chunk died.
        """
        recorder = self.recorder
        if max_workers is not None and max_workers > 1 and len(rows) > 1:
            records, failure = _run_chunks_pooled(
                prototypes, rows, error_packets, max_workers, recorder)
        else:
            records = []
            failure = None
            for index, packets, offset in rows:
                try:
                    records.append(_run_chunk_traced(
                        _materialize_chunk(prototypes[index], packets,
                                           offset), offset, recorder))
                except BaseException as error:  # noqa: BLE001 - re-raised
                    records.append(None)
                    if failure is None:
                        failure = error
        if failure is not None:
            self._note_chunk_failures(prototypes, rows, records, failure)
        return records, failure

    def _note_chunk_failures(self, prototypes, rows, records,
                             failure: BaseException) -> None:
        """Log (and annotate onto ``failure``) which chunks failed."""
        identities = []
        for (proto_index, packets, offset), record in zip(rows, records):
            if record is not None:
                continue
            point = prototypes[proto_index].point
            identity = (f"point {self.point_digest(point)[:12]} "
                        f"({point.scenario}, {point.ebn0_db:g} dB) "
                        f"offset {offset} ({packets} packet(s))")
            identities.append(identity)
            _logger.error("chunk failed: %s: %r", identity, failure)
        if not identities:
            return
        self.recorder.counter("chunks.failed", len(identities))
        if hasattr(failure, "add_note"):  # Python 3.11+
            failure.add_note("failed chunk(s): " + "; ".join(identities))

    @staticmethod
    def _merge(parts) -> BERPoint:
        """Pool one job's chunk records (offset order) into its BERPoint."""
        merged = parts[0][0]
        for measurement, _ in parts[1:]:
            merged = merged.merge(measurement)
        return merged

    def measure_points(self, jobs, payload_bits_per_packet: int = 64,
                       max_workers: int | None = None,
                       chunk_packets: int | None = None,
                       on_chunk=None) -> list[BERPoint]:
        """Measure a batch of ``(point, num_packets, packet_offset)`` jobs.

        ``packet_offset`` names the job's first chunk: with
        ``chunk_packets >= num_packets``, offset 0 is bit-exact with
        :meth:`run` on a one-point grid, while a positive offset draws an
        independent stream, so escalating a cached measurement from ``n``
        to ``n + m`` packets simulates only the ``m``-packet tail chunk.
        ``chunk_packets`` (``None``: the engine default) splits every job
        into seeded chunks, and the chunks of *all* jobs fan out over one
        ``max_workers`` process pool — the entry point
        :class:`repro.runs.RunDriver` uses to simulate a shard's cache
        misses, and the reason one hot point scales across the pool.

        ``on_chunk`` (optional) is called as ``on_chunk(point,
        packet_offset, measurement)`` for every *completed* chunk, in
        deterministic schedule order (job order, then offset order).  On
        a chunk failure every completed chunk is still delivered before
        the exception propagates — that is what lets a result store keep
        partial progress, so a resume re-runs only the missing chunks.
        """
        job_records, failure = self._measure(
            list(jobs), payload_bits_per_packet, max_workers,
            chunk_packets, on_chunk=on_chunk)
        if failure is not None:
            raise failure
        return [self._merge(parts) for parts in job_records]

    def run(self, points, num_packets: int = 32,
            payload_bits_per_packet: int = 64,
            on_result=None, max_workers: int | None = None,
            collect_errors_per_packet: bool = False) -> SweepResult:
        """Measure every grid point and return the collected results.

        Parameters
        ----------
        points:
            Grid points (e.g. from :func:`sweep_grid`).
        num_packets, payload_bits_per_packet:
            Monte-Carlo budget per grid point, split into chunks by the
            engine's ``chunk_packets`` layout.
        on_result:
            Optional hook called as ``on_result(point, measurement)`` for
            every completed grid point, in grid order — what result
            stores use to persist points without waiting on the caller.
            Delivery happens after the chunk schedule finishes; on a
            chunk failure every point whose chunks all completed is still
            delivered before the exception propagates.
        max_workers:
            When above 1, the chunk tasks of all points fan out over that
            many worker processes, results returning through shared
            memory (:mod:`repro.sim.shm`).
        collect_errors_per_packet:
            Also record each point's per-packet bit-error counts in
            ``SweepResult.errors_per_packet`` (transported through shared
            memory on the parallel path, so a million-packet point's
            error vector never crosses a pickle).  Chunk error vectors
            concatenate in offset order, identical to the serial order.
        """
        points = tuple(points)
        duplicates = [point for point, count in Counter(points).items()
                      if count > 1]
        if duplicates:
            warnings.warn(
                f"sweep grid contains {len(duplicates)} duplicated point(s) "
                f"(e.g. {duplicates[0]}); duplicates share one seed stream "
                "and return identical measurements — use different seeds "
                "(or engines) to replicate a point",
                stacklevel=2)
        job_records, failure = self._measure(
            [(point, num_packets, 0) for point in points],
            payload_bits_per_packet, max_workers, None,
            collect_errors=collect_errors_per_packet)
        result = SweepResult()
        for point, parts in zip(points, job_records):
            if any(part is None for part in parts):
                continue    # a chunk of this point failed; salvage others
            merged = self._merge(parts)
            if on_result is not None:
                on_result(point, merged)
            result.entries.append((point, merged))
            if collect_errors_per_packet:
                result.errors_per_packet[point] = tuple(
                    int(count) for _, errors in parts for count in errors)
        if failure is not None:
            raise failure
        return result

    def ber_curve(self, ebn0_values_db, scenario: str = "awgn",
                  modulation: str = "bpsk", adc_bits: int | None = None,
                  num_packets: int = 32, payload_bits_per_packet: int = 64,
                  label: str | None = None) -> BERCurve:
        """Sweep Eb/N0 for one environment and return the BER curve."""
        points = sweep_grid(ebn0_values_db, scenarios=(scenario,),
                            modulations=(modulation,), adc_bits=(adc_bits,))
        result = self.run(points, num_packets=num_packets,
                          payload_bits_per_packet=payload_bits_per_packet)
        return result.curve(scenario=scenario, modulation=modulation,
                            adc_bits=adc_bits, label=label)
