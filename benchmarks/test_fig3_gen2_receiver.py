"""FIG3 — Second-generation direct-conversion receiver (Fig. 3).

Paper claims regenerated here:

* the system is designed to transmit 100 Mbps using 500 MHz pulses
  up-converted to one of 14 channels;
* the receiver is a direct-conversion front end with two 5-bit SAR ADCs;
* the channel estimate (4-bit precision), RAKE, and Viterbi demodulator in
  the digital back end close the link under multipath.

The benchmark closes an end-to-end gen-2 link over AWGN and over an
802.15.3a CM1 multipath channel and reports BER versus Eb/N0 plus the
back-end configuration actually exercised.
"""

import pytest

from repro.constants import GEN2_TARGET_DATA_RATE_BPS
from repro.core.config import Gen2Config
from repro.sim import SweepEngine

from bench_utils import format_ber, print_header, print_table


def _link_config() -> Gen2Config:
    """Paper-rate waveform (10 ns PRI -> 100 Mbps) with a compact preamble."""
    return Gen2Config.fast_test_config().with_changes(
        pulse_repetition_interval_s=10e-9,
        pulses_per_bit=1,
        rake_fingers=6,
        channel_estimate_taps=48,
        use_mlse=False)


def _run_gen2_experiment():
    config = _link_config()
    engine = SweepEngine(config=config, seed=32, backend="fullstack")

    # AWGN link.
    awgn_curve = engine.ber_curve([6.0, 10.0, 14.0], scenario="awgn",
                                  num_packets=4, payload_bits_per_packet=64,
                                  label="gen2_awgn")

    # CM1 multipath link (LOS 0-4 m), new channel realization per packet.
    cm1_curve = engine.ber_curve([10.0, 16.0], scenario="cm1",
                                 num_packets=6, payload_bits_per_packet=64,
                                 label="gen2_cm1")

    return {
        "config": config,
        "awgn_curve": awgn_curve,
        "cm1_curve": cm1_curve,
    }


@pytest.mark.benchmark(group="fig3")
def test_fig3_gen2_receiver(benchmark):
    results = benchmark.pedantic(_run_gen2_experiment, rounds=1, iterations=1)
    config = results["config"]

    print_header("FIG3", "Gen-2 direct-conversion receiver (Fig. 3)")
    print_table(
        ["quantity", "paper", "measured / configured"],
        [
            ["uncoded channel bit rate", "100 Mbps",
             f"{config.data_rate_bps / 1e6:.0f} Mbps"],
            ["number of sub-bands", "14", "14 (band plan)"],
            ["ADC", "two 5-bit SAR, > 500 MSps",
             f"two {config.adc_bits}-bit SAR, {config.adc_rate_hz / 1e6:.0f} MSps"],
            ["channel-estimate precision", "up to 4 bits",
             f"{config.channel_estimate_bits} bits"],
            ["RAKE fingers (programmable)", "(programmable)",
             str(config.rake_fingers)],
        ])
    print()
    print("AWGN link:")
    print_table(
        ["Eb/N0 [dB]", "BER", "PER"],
        [[f"{p.ebn0_db:.1f}", format_ber(p.ber), f"{p.per:.2f}"]
         for p in results["awgn_curve"].points])
    print()
    print("CM1 multipath link (fresh realization per packet):")
    print_table(
        ["Eb/N0 [dB]", "BER", "PER"],
        [[f"{p.ebn0_db:.1f}", format_ber(p.ber), f"{p.per:.2f}"]
         for p in results["cm1_curve"].points])

    # Shape checks.
    assert config.data_rate_bps == pytest.approx(GEN2_TARGET_DATA_RATE_BPS)
    awgn_bers = results["awgn_curve"].ber_values()
    assert awgn_bers[-1] <= awgn_bers[0]
    # The link closes (error-free packets) at the top of the sweep in AWGN.
    assert awgn_bers[-1] < 0.05
    # Multipath costs something relative to AWGN at the same Eb/N0 but the
    # RAKE still brings the link to a usable operating point at high Eb/N0
    # (an occasional deep CM1 realization can still drop a whole packet in
    # this small Monte-Carlo sample, so the bound is loose).
    assert results["cm1_curve"].ber_values()[-1] < 0.3
