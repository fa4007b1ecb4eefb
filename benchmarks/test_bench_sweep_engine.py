"""BENCH-SWEEP — the batch backend vs the per-packet backend.

The ROADMAP north star asks for hardware-speed sweeps across many
scenarios.  This benchmark runs the same 20-point Eb/N0 BER sweep through
:class:`repro.sim.SweepEngine` two ways:

* **packet**: ``backend="packet"``, one packet at a time through the full
  transceiver stack;
* **batched**: ``backend="batch"``, the vectorized genie-timed kernel.

and checks the batched path is at least 10x faster while producing a sane
BER curve (monotone trend, tracks the waterfall region).  The curve
assertions are unconditional; the timing floor goes through the shared
:func:`bench_utils.required_speedup` policy, which derates it on hosts
with fewer than two usable CPUs unless ``REPRO_BENCH_STRICT=1``.
"""

import time

import numpy as np
import pytest

from repro.sim import SweepEngine

from bench_utils import (format_ber, print_header, print_table,
                         required_speedup)

EBN0_GRID_DB = np.arange(0.0, 10.0, 0.5)          # 20 operating points
NUM_PACKETS = 6
PAYLOAD_BITS = 48
MIN_SPEEDUP = 10.0


def _packet_sweep():
    engine = SweepEngine(generation="gen2", seed=18, backend="packet")
    return engine.ber_curve(EBN0_GRID_DB, scenario="awgn",
                            num_packets=NUM_PACKETS,
                            payload_bits_per_packet=PAYLOAD_BITS,
                            label="packet")


def _batched_sweep():
    engine = SweepEngine(generation="gen2", seed=17)
    return engine.ber_curve(EBN0_GRID_DB, scenario="awgn",
                            num_packets=NUM_PACKETS,
                            payload_bits_per_packet=PAYLOAD_BITS,
                            label="batched")


def _run_comparison():
    start = time.perf_counter()
    packet = _packet_sweep()
    packet_s = time.perf_counter() - start

    # Warm once so one-time imports/pulse construction don't bill the sweep.
    _batched_sweep()
    start = time.perf_counter()
    batched = _batched_sweep()
    batched_s = time.perf_counter() - start
    return {"packet": packet, "batched": batched,
            "packet_s": packet_s, "batched_s": batched_s}


@pytest.mark.benchmark(group="bench-sweep")
def test_bench_sweep_engine(benchmark):
    results = benchmark.pedantic(_run_comparison, rounds=1, iterations=1)
    packet, batched = results["packet"], results["batched"]
    speedup = results["packet_s"] / max(results["batched_s"], 1e-9)

    print_header("BENCH-SWEEP",
                 "20-point BER sweep: packet backend vs batch backend")
    required, floor_note = required_speedup(MIN_SPEEDUP)
    print(f"packet  : {results['packet_s'] * 1e3:8.1f} ms")
    print(f"batched : {results['batched_s'] * 1e3:8.1f} ms")
    print(f"speedup : {speedup:8.1f}x (floor: {required:.0f}x [{floor_note}])")
    print()
    print_table(
        ["Eb/N0 [dB]", "BER (packet)", "BER (batched)"],
        [[f"{point.ebn0_db:.1f}", format_ber(point.ber), format_ber(fast.ber)]
         for point, fast in zip(packet.points, batched.points)])

    assert speedup >= required, (
        f"batched sweep managed only {speedup:.1f}x over the per-packet "
        f"loop (timing floor: >= {required:.1f}x, {floor_note})")

    # The batched curve must behave like a BER waterfall: high at 0 dB,
    # (near) error-free at the top of the sweep.
    bers = batched.ber_values()
    assert bers[0] > 1e-2
    assert bers[-1] <= 1e-2
    # And the two paths agree where the full stack is past its
    # synchronization cliff (top quarter of the sweep).
    tail = len(EBN0_GRID_DB) * 3 // 4
    assert float(np.max(packet.ber_values()[tail:])) <= 5e-2
    assert float(np.max(bers[tail:])) <= 5e-2
