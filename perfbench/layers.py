"""Which layer functions the traced run times, and the per-layer metrics.

:func:`install` patches the public entry points of every layer on the
measured paths (see README.md for the layer -> metric -> workload
table).  :func:`layer_metrics` turns the spans and counts of the traced
rounds into the ``per_layer`` metrics of ``BENCHMARK.json``.  Busy times
(``_s``) and counts are per round, one round being one pass over the
workload's grid(s); ``_ms`` values are per call.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from tracing import Tracer, union_length

#: (name, unit) of every per-layer metric, in report order.
PER_LAYER = (
    ("channel.awgn.s", "s"),
    ("channel.awgn.samples_drawn", "count"),
    ("channel.awgn.kept_ratio", "ratio"),
    ("sim.batch.simulate_s", "s"),
    ("sim.batch.synthesize_s", "s"),
    ("sim.batch.self_s", "s"),
    ("sim.backends.quantize_s", "s"),
    ("sim.backends.symbol_windows_s", "s"),
    ("channel.multipath.apply_batch_s", "s"),
    ("channel.multipath.apply_channels_batch_s", "s"),
    ("channel.sv.realize_s", "s"),
    ("core.transmitter.transmit_batch_s", "s"),
    ("phy.packet.build_s", "s"),
    ("dsp.agc.s", "s"),
    ("adc.convert_s", "s"),
    ("dsp.acquisition.s", "s"),
    ("dsp.acquisition.detect_ratio", "ratio"),
    ("dsp.channel_estimation.s", "s"),
    ("dsp.rake.s", "s"),
    ("dsp.viterbi.mlse_s", "s"),
    ("phy.packet.parse_s", "s"),
    ("phy.packet.crc_ok_ratio", "ratio"),
    ("sim.batch_rx.simulate_s", "s"),
    ("sim.batch_rx.self_s", "s"),
    ("sim.engine.chunks", "count"),
    ("sim.engine.chunk_ms_p50", "ms"),
    ("sim.engine.overhead_s", "s"),
    ("runs.driver.run_shard_s", "s"),
    ("runs.driver.overhead_s", "s"),
    ("runs.store.add_chunk_ms_p50", "ms"),
    ("runs.store.add_chunk_ms_p99", "ms"),
    ("runs.store.add_chunk_calls", "count"),
    ("runs.store.bytes_per_chunk", "bytes"),
    ("runs.store.lookup_ms", "ms"),
    ("runs.store.hit_ratio", "ratio"),
    ("runs.warehouse.add_chunk_ms", "ms"),
    ("runs.warehouse.lookup_ms", "ms"),
    ("serve.worker.simulate_ms", "ms"),
    ("serve.worker.useful_frac", "ratio"),
    ("serve.client.lease_ms_p50", "ms"),
    ("serve.client.lease_ms_p99", "ms"),
    ("serve.client.commit_ms_p50", "ms"),
    ("serve.client.commit_ms_p99", "ms"),
    ("serve.api.transport_ms", "ms"),
    ("serve.broker.lease_ms", "ms"),
    ("serve.broker.commit_ms", "ms"),
    ("serve.broker.submit_ms", "ms"),
    ("serve.broker.curve_ms", "ms"),
    ("serve.broker.commit_duplicates", "count"),
    ("serve.broker.commits_stale", "count"),
    ("serve.journal.append_ms_p50", "ms"),
    ("serve.journal.append_ms_p99", "ms"),
    ("serve.journal.bytes_per_chunk", "bytes"),
    ("obs.recorder.events_per_chunk", "count"),
    ("obs.recorder.chunk_run_ratio", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("trace.unattributed_frac", "ratio"),
    ("trace.reconcile_error_frac", "ratio"),
)

#: Span names of the simulation kernels (one call per chunk).
KERNELS = ("sim.batch.simulate", "sim.batch_rx.simulate")
_STORE_OPS = ("runs.store.add_chunk", "runs.store.lookup", "runs.store.open",
              "runs.warehouse.add_chunk", "runs.warehouse.lookup",
              "runs.warehouse.open", "runs.warehouse.register")
_DRIVER_OPS = ("runs.driver.create", "runs.driver.run_shard",
               "runs.driver.merge")
_CLIENT_RPCS = ("serve.client.lease", "serve.client.commit")


def _store_layer(store) -> str:
    return "runs.warehouse" if store.format == "sqlite" else "runs.store"


def _count_size(counter: str, index: int):
    def hook(tracer, args, result):
        tracer.count(counter, int(np.size(args[index] if index >= 0
                                          else result)))
    return hook


def _count_acquisition(tracer, args, result):
    detected = np.asarray(result.detected)
    tracer.count("dsp.acquisition.packets", int(detected.size))
    tracer.count("dsp.acquisition.detected", int(np.count_nonzero(detected)))


def _count_parses(tracer, args, result):
    tracer.count("phy.packet.parsed", len(result))
    tracer.count("phy.packet.crc_ok", sum(1 for parse in result
                                          if parse.crc_ok))


def _count_lookup(tracer, args, result):
    layer = _store_layer(args[0])
    tracer.count(layer + ".lookups")
    if result is not None:
        tracer.count(layer + ".hits")


def _count_commit(tracer, args, result):
    tracer.count("serve.broker.commit_duplicates",
                 int(bool(result.get("duplicate"))))
    tracer.count("serve.broker.commits_stale", int(bool(result.get("stale"))))


def install(tracer: Tracer) -> None:
    """Patch every traced layer function (undo with ``tracer.restore``)."""
    import repro.sim.batch as batch
    import repro.sim.batch_rx as batch_rx
    from repro.adc.interleaved import TimeInterleavedADC
    from repro.adc.sar import QuadratureSARADC
    from repro.channel.multipath import MultipathChannel
    from repro.channel.saleh_valenzuela import SalehValenzuelaChannelGenerator
    from repro.core.transmitter import Gen1Transmitter, Gen2Transmitter
    from repro.dsp.acquisition import CoarseAcquisition
    from repro.dsp.agc import AutomaticGainControl
    from repro.dsp.channel_estimation import ChannelEstimator
    from repro.phy.packet import PacketBuilder, PacketParser
    from repro.runs.driver import RunDriver
    from repro.runs.store import ResultStore
    from repro.runs.warehouse import SQLiteResultStore
    from repro.serve.broker import Broker
    from repro.serve.journal import BrokerJournal
    from repro.serve.worker import BrokerClient, Worker
    from repro.sim.backends import NumpyBackend
    from repro.sim.batch import BatchedLinkModel
    from repro.sim.batch_rx import BatchedFullStackModel
    from repro.sim.engine import SweepEngine

    patch = tracer.patch
    # Genie kernel and what it calls.
    patch(batch, "awgn", "channel.awgn",
          on_exit=_count_size("channel.awgn.samples_drawn", -1))
    patch(BatchedLinkModel, "simulate", "sim.batch.simulate",
          task_of="chunk")
    patch(BatchedLinkModel, "modulate", "sim.batch.modulate")
    patch(BatchedLinkModel, "synthesize", "sim.batch.synthesize")
    patch(NumpyBackend, "quantize_uniform", "sim.backends.quantize",
          on_exit=_count_size("sim.backends.kept_samples", 1))
    patch(NumpyBackend, "symbol_windows", "sim.backends.symbol_windows")
    patch(MultipathChannel, "apply_batch", "channel.multipath.apply_batch")
    patch(SalehValenzuelaChannelGenerator, "realize", "channel.sv.realize")
    # Full-stack kernel: TX, channel, front end, DSP back half, parse.
    patch(BatchedFullStackModel, "simulate", "sim.batch_rx.simulate",
          task_of="chunk")
    patch(batch_rx, "apply_channels_batch",
          "channel.multipath.apply_channels_batch")
    for transmitter in (Gen1Transmitter, Gen2Transmitter):
        patch(transmitter, "transmit_batch", "core.transmitter.transmit_batch")
    patch(PacketBuilder, "build", "phy.packet.build")
    patch(AutomaticGainControl, "apply_from_peak_batch", "dsp.agc")
    patch(QuadratureSARADC, "convert", "adc.convert")
    patch(TimeInterleavedADC, "convert_presampled_batch", "adc.convert")
    patch(CoarseAcquisition, "acquire_batch", "dsp.acquisition",
          on_exit=_count_acquisition)
    patch(ChannelEstimator, "estimate_averaged_batch",
          "dsp.channel_estimation")
    patch(batch_rx, "combine_streams_batch", "dsp.rake")
    patch(batch_rx, "equalize_to_bits_batch", "dsp.viterbi.mlse")
    patch(PacketParser, "parse_many", "phy.packet.parse",
          on_exit=_count_parses)
    # Engine, driver, stores.
    patch(SweepEngine, "measure_points", "sim.engine.measure_points")
    patch(RunDriver, "create", "runs.driver.create")
    patch(RunDriver, "run_shard", "runs.driver.run_shard")
    patch(RunDriver, "merge", "runs.driver.merge")
    patch(ResultStore, "open",
          lambda args, result: _store_layer(result) + ".open")
    patch(ResultStore, "add_chunk",
          lambda args, result: _store_layer(args[0]) + ".add_chunk")
    patch(ResultStore, "lookup",
          lambda args, result: _store_layer(args[0]) + ".lookup",
          on_exit=_count_lookup)
    patch(SQLiteResultStore, "describe_keys", "runs.warehouse.register")
    patch(SQLiteResultStore, "register_run", "runs.warehouse.register")
    # Service: client RPCs (main thread), broker methods (handler
    # threads), journal, worker.
    for method in ("lease", "commit", "submit", "curve"):
        patch(BrokerClient, method, f"serve.client.{method}",
              client_call=True)
        patch(Broker, method, f"serve.broker.{method}",
              on_exit=_count_commit if method == "commit" else None)
    patch(BrokerJournal, "append", "serve.journal.append")
    patch(Worker, "run_one", "serve.worker.run_one")
    patch(Worker, "simulate", "serve.worker.simulate",
          task_of=lambda args: args[1]["task_id"])


def _percentile_ms(durations, q: float) -> float:
    return float(np.percentile(durations, q)) * 1e3 if durations else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _excluding(span, names) -> float:
    """``span``'s duration minus the time of its nearest descendants
    named in ``names``."""
    excluded = 0.0
    stack = list(span.children)
    while stack:
        child = stack.pop()
        if child.name in names:
            excluded += child.duration
        else:
            stack.extend(child.children)
    return span.duration - excluded


def _count_descendants(span, names) -> int:
    count = 0
    stack = list(span.children)
    while stack:
        child = stack.pop()
        count += child.name in names
        stack.extend(child.children)
    return count


def layer_metrics(tracer: Tracer, windows, rounds: int,
                  extras: dict) -> dict[str, float]:
    """The per-layer metrics of the traced rounds.

    ``windows`` are the traced rounds' ``(start, end)`` clock intervals;
    ``extras`` carries what the workload measured around the rounds
    (bytes per chunk, recorder events, the traced-vs-untraced round
    walls), each as a list of per-round values.
    """
    tracer.link_children()
    spans = tracer.finished_spans()
    by_name = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)
    counts = tracer.counts
    rounds = max(rounds, 1)

    def busy(*names) -> float:
        return sum(span.duration for name in names
                   for span in by_name[name]) / rounds

    def self_busy(name) -> float:
        return sum(Tracer.self_time(span) for span in by_name[name]) / rounds

    def per_call(name, q=50.0) -> float:
        return _percentile_ms([span.duration for span in by_name[name]], q)

    def extra(name) -> float:
        values = extras.get(name) or [0.0]
        return float(np.median(values))

    wall = sum(end - start for start, end in windows)
    leaves = [(span.start, span.end) for span in spans if not span.children]
    every = [(span.start, span.end) for span in spans]
    covered_by_leaves = sum(union_length(leaves, lo, hi)
                            for lo, hi in windows)
    covered = sum(union_length(every, lo, hi) for lo, hi in windows)
    self_total = sum(Tracer.self_time(span) for span in spans)

    drawn = counts.get("channel.awgn.samples_drawn", 0)
    lookups = counts.get("runs.store.lookups", 0)
    client_self = [Tracer.self_time(span) for name in _CLIENT_RPCS
                   for span in by_name[name]]
    measure = by_name["sim.engine.measure_points"]
    per_chunk_engine = [span.duration / max(1, _count_descendants(
        span, KERNELS)) for span in measure]
    worker_chunk = busy("serve.worker.run_one")
    return {
        "channel.awgn.s": busy("channel.awgn"),
        "channel.awgn.samples_drawn": drawn / rounds,
        "channel.awgn.kept_ratio": _ratio(
            counts.get("sim.backends.kept_samples", 0), drawn),
        "sim.batch.simulate_s": busy("sim.batch.simulate"),
        "sim.batch.synthesize_s": busy("sim.batch.modulate",
                                       "sim.batch.synthesize"),
        "sim.batch.self_s": self_busy("sim.batch.simulate"),
        "sim.backends.quantize_s": busy("sim.backends.quantize"),
        "sim.backends.symbol_windows_s": busy("sim.backends.symbol_windows"),
        "channel.multipath.apply_batch_s":
            busy("channel.multipath.apply_batch"),
        "channel.multipath.apply_channels_batch_s":
            busy("channel.multipath.apply_channels_batch"),
        "channel.sv.realize_s": busy("channel.sv.realize"),
        "core.transmitter.transmit_batch_s":
            busy("core.transmitter.transmit_batch"),
        "phy.packet.build_s": busy("phy.packet.build"),
        "dsp.agc.s": busy("dsp.agc"),
        "adc.convert_s": busy("adc.convert"),
        "dsp.acquisition.s": busy("dsp.acquisition"),
        "dsp.acquisition.detect_ratio": _ratio(
            counts.get("dsp.acquisition.detected", 0),
            counts.get("dsp.acquisition.packets", 0)),
        "dsp.channel_estimation.s": busy("dsp.channel_estimation"),
        "dsp.rake.s": busy("dsp.rake"),
        "dsp.viterbi.mlse_s": busy("dsp.viterbi.mlse"),
        "phy.packet.parse_s": busy("phy.packet.parse"),
        "phy.packet.crc_ok_ratio": _ratio(counts.get("phy.packet.crc_ok", 0),
                                          counts.get("phy.packet.parsed", 0)),
        "sim.batch_rx.simulate_s": busy("sim.batch_rx.simulate"),
        "sim.batch_rx.self_s": self_busy("sim.batch_rx.simulate"),
        "sim.engine.chunks": sum(len(by_name[name])
                                 for name in KERNELS) / rounds,
        "sim.engine.chunk_ms_p50": (float(np.median(per_chunk_engine)) * 1e3
                                    if per_chunk_engine else 0.0),
        "sim.engine.overhead_s": sum(
            _excluding(span, KERNELS + _STORE_OPS)
            for span in measure) / rounds,
        "runs.driver.run_shard_s": busy("runs.driver.run_shard"),
        "runs.driver.overhead_s": sum(
            _excluding(span, ("sim.engine.measure_points",) + _STORE_OPS)
            for name in _DRIVER_OPS for span in by_name[name]) / rounds,
        "runs.store.add_chunk_ms_p50": per_call("runs.store.add_chunk"),
        "runs.store.add_chunk_ms_p99": per_call("runs.store.add_chunk", 99),
        "runs.store.add_chunk_calls":
            len(by_name["runs.store.add_chunk"]) / rounds,
        "runs.store.bytes_per_chunk": extra("runs.store.bytes_per_chunk"),
        "runs.store.lookup_ms": per_call("runs.store.lookup"),
        "runs.store.hit_ratio": _ratio(counts.get("runs.store.hits", 0),
                                       lookups),
        "runs.warehouse.add_chunk_ms": per_call("runs.warehouse.add_chunk"),
        "runs.warehouse.lookup_ms": per_call("runs.warehouse.lookup"),
        "serve.worker.simulate_ms": per_call("serve.worker.simulate"),
        "serve.worker.useful_frac": _ratio(busy("serve.worker.simulate"),
                                           worker_chunk),
        "serve.client.lease_ms_p50": per_call("serve.client.lease"),
        "serve.client.lease_ms_p99": per_call("serve.client.lease", 99),
        "serve.client.commit_ms_p50": per_call("serve.client.commit"),
        "serve.client.commit_ms_p99": per_call("serve.client.commit", 99),
        "serve.api.transport_ms": _percentile_ms(client_self, 50),
        "serve.broker.lease_ms": per_call("serve.broker.lease"),
        "serve.broker.commit_ms": per_call("serve.broker.commit"),
        "serve.broker.submit_ms": per_call("serve.broker.submit"),
        "serve.broker.curve_ms": per_call("serve.broker.curve"),
        "serve.broker.commit_duplicates":
            counts.get("serve.broker.commit_duplicates", 0) / rounds,
        "serve.broker.commits_stale":
            counts.get("serve.broker.commits_stale", 0) / rounds,
        "serve.journal.append_ms_p50": per_call("serve.journal.append"),
        "serve.journal.append_ms_p99": per_call("serve.journal.append", 99),
        "serve.journal.bytes_per_chunk":
            extra("serve.journal.bytes_per_chunk"),
        "obs.recorder.events_per_chunk": extra("obs.recorder.events_per_chunk"),
        "obs.recorder.chunk_run_ratio": extra("obs.recorder.chunk_run_ratio"),
        "trace.overhead_frac": extra("trace.overhead_frac"),
        "trace.unattributed_frac": _ratio(wall - covered_by_leaves, wall),
        "trace.reconcile_error_frac": _ratio(
            abs(self_total + (wall - covered) - wall), wall),
    }
