"""FIG1 — First-generation single-chip transceiver (Fig. 1).

Paper claims regenerated here:

* a wireless link of 193 kbps was demonstrated;
* the 2 GSPS 4-way time-interleaved flash ADC parallelizes the signal;
* packet synchronization is obtained in less than 70 us;
* timing synchronization is performed fully in the digital back end.

The benchmark runs the gen-1 transceiver at its paper-rate configuration
(104 pulses per bit at a 20 MHz PRF -> 192.3 kbps) for the rate/sync
accounting, and a reduced-pulses-per-bit configuration for the Monte-Carlo
BER measurement so the benchmark stays fast.
"""

import numpy as np
import pytest

from repro.constants import GEN1_DEMONSTRATED_RATE_BPS, GEN1_SYNC_TIME_LIMIT_S
from repro.core.config import Gen1Config
from repro.core.link import LinkSimulator
from repro.core.transceiver import Gen1Transceiver
from repro.dsp.parallelizer import acquisition_time_s
from repro.sim import SweepEngine

from bench_utils import format_ber, print_header, print_table


def _paper_rate_config() -> Gen1Config:
    """The gen-1 configuration at the paper's demonstrated data rate."""
    return Gen1Config()


def _fast_link_config() -> Gen1Config:
    """Same architecture, fewer pulses per bit, for Monte-Carlo BER."""
    return Gen1Config.fast_test_config()


def _run_gen1_experiment():
    paper_config = _paper_rate_config()

    # --- data rate and ADC bookkeeping -------------------------------
    data_rate = paper_config.data_rate_bps
    adc_rate = paper_config.adc_rate_hz
    interleave = paper_config.adc_interleave_factor

    # --- packet synchronization latency -------------------------------
    # The coarse search sweeps one full PRI of timing hypotheses at the ADC
    # rate; with the back end's hypothesis parallelism the search time is:
    hypotheses = paper_config.samples_per_pri_adc * \
        paper_config.packet.preamble.sequence_length
    search_time = acquisition_time_s(
        num_hypotheses=hypotheses,
        parallelism=paper_config.acquisition_parallelism,
        backend_clock_hz=paper_config.backend_clock_hz)
    sync_time = paper_config.preamble_duration_s + search_time

    # --- Monte-Carlo link at reduced pulses-per-bit --------------------
    link_config = _fast_link_config()
    engine = SweepEngine(config=link_config, generation="gen1", seed=12,
                         backend="fullstack")
    curve = engine.ber_curve([6.0, 10.0, 14.0], scenario="awgn",
                             num_packets=4, payload_bits_per_packet=48,
                             label="gen1_awgn")
    transceiver = Gen1Transceiver(link_config, rng=np.random.default_rng(11))
    simulator = LinkSimulator(transceiver, rng=np.random.default_rng(12))
    stats = simulator.acquisition_statistics(ebn0_db=12.0, num_packets=6,
                                             payload_bits_per_packet=16)
    return {
        "data_rate_bps": data_rate,
        "adc_rate_hz": adc_rate,
        "interleave": interleave,
        "sync_time_s": sync_time,
        "curve": curve,
        "detection_probability": stats.detection_probability,
        "rms_timing_error": stats.rms_timing_error_samples,
    }


@pytest.mark.benchmark(group="fig1")
def test_fig1_gen1_transceiver(benchmark):
    results = benchmark.pedantic(_run_gen1_experiment, rounds=1, iterations=1)

    print_header("FIG1", "Gen-1 baseband pulsed transceiver (Fig. 1)")
    print_table(
        ["quantity", "paper", "measured"],
        [
            ["link data rate", "193 kbps",
             f"{results['data_rate_bps'] / 1e3:.1f} kbps"],
            ["ADC aggregate rate", "2 GSPS",
             f"{results['adc_rate_hz'] / 1e9:.1f} GSPS"],
            ["ADC interleave factor", "4", str(results["interleave"])],
            ["packet sync time", "< 70 us",
             f"{results['sync_time_s'] * 1e6:.1f} us"],
            ["preamble detection prob. (12 dB)", "(not reported)",
             f"{results['detection_probability']:.2f}"],
            ["RMS timing error", "(not reported)",
             f"{results['rms_timing_error']:.2f} samples"],
        ])
    print()
    print_table(
        ["Eb/N0 [dB]", "BER", "PER"],
        [[f"{p.ebn0_db:.1f}", format_ber(p.ber), f"{p.per:.2f}"]
         for p in results["curve"].points])

    # Shape checks against the paper's claims.
    assert results["data_rate_bps"] == pytest.approx(
        GEN1_DEMONSTRATED_RATE_BPS, rel=0.01)
    assert results["sync_time_s"] < GEN1_SYNC_TIME_LIMIT_S
    assert results["detection_probability"] >= 0.8
    # BER improves monotonically with Eb/N0 (allowing Monte-Carlo ties).
    bers = results["curve"].ber_values()
    assert bers[-1] <= bers[0]
