"""Integration tests: RF impairments and the interferer-mitigation loop."""

import numpy as np
import pytest

from repro.channel.interference import MultiToneInterferer, ToneInterferer
from repro.core.config import Gen2Config
from repro.core.transceiver import Gen2Transceiver


@pytest.fixture
def fast_config():
    return Gen2Config.fast_test_config()


def _run_packets(config, num_packets=3, ebn0_db=16.0, interferer_factory=None,
                 seed=0):
    transceiver = Gen2Transceiver(config, rng=np.random.default_rng(seed))
    errors = 0
    total = 0
    successes = 0
    for index in range(num_packets):
        interferer = interferer_factory() if interferer_factory else None
        simulation = transceiver.simulate_packet(
            num_payload_bits=48, ebn0_db=ebn0_db, interferer=interferer,
            rng=np.random.default_rng(500 + seed * 31 + index))
        errors += simulation.result.payload_bit_errors
        total += simulation.result.num_payload_bits
        successes += 1 if simulation.result.packet_success else 0
    return errors / total, successes / num_packets


class TestDirectConversionImpairments:
    def test_small_iq_imbalance_tolerated(self, fast_config):
        config = fast_config.with_changes(iq_gain_imbalance_db=0.5,
                                          iq_phase_imbalance_deg=3.0)
        ber, success = _run_packets(config, seed=1)
        assert ber < 0.05
        assert success >= 2 / 3

    def test_small_dc_offset_tolerated(self, fast_config):
        config = fast_config.with_changes(dc_offset=0.02)
        ber, _ = _run_packets(config, seed=2)
        assert ber < 0.05

    def test_moderate_cfo_tolerated(self, fast_config):
        # 100 kHz offset rotates the constellation by ~14 degrees over the
        # short fast-config packet; the RAKE's channel-matched weights absorb
        # the common rotation.
        config = fast_config.with_changes(carrier_frequency_offset_hz=100e3)
        ber, _ = _run_packets(config, seed=3)
        assert ber < 0.1

    def test_severe_iq_imbalance_degrades(self, fast_config):
        clean_ber, _ = _run_packets(fast_config, seed=4, ebn0_db=8.0)
        config = fast_config.with_changes(iq_gain_imbalance_db=5.0,
                                          iq_phase_imbalance_deg=35.0)
        impaired_ber, _ = _run_packets(config, seed=4, ebn0_db=8.0)
        assert impaired_ber >= clean_ber


class TestInterfererMitigationLoop:
    def test_notch_recovers_strong_tone_interferer(self, fast_config):
        tone = lambda: ToneInterferer(frequency_hz=140e6, amplitude=1.5)
        without_ber, _ = _run_packets(
            fast_config.with_changes(enable_digital_notch=False),
            interferer_factory=tone, seed=5)
        with_ber, _ = _run_packets(
            fast_config.with_changes(enable_digital_notch=True),
            interferer_factory=tone, seed=5)
        assert with_ber < without_ber
        assert with_ber < 0.05

    def test_notch_helps_against_a_two_tone_interferer(self, fast_config):
        """Two tones 10 MHz apart are harder than one — a single notch
        cannot remove both — but the mitigation loop must never make
        things worse."""
        interferer = lambda: MultiToneInterferer((
            ToneInterferer(frequency_hz=-125e6, amplitude=1.1),
            ToneInterferer(frequency_hz=-115e6, amplitude=1.1)))
        without_ber, _ = _run_packets(
            fast_config.with_changes(enable_digital_notch=False),
            interferer_factory=interferer, seed=6)
        with_ber, _ = _run_packets(
            fast_config.with_changes(enable_digital_notch=True),
            interferer_factory=interferer, seed=6)
        assert with_ber <= without_ber

    def test_notch_loop_harmless_without_interferer(self, fast_config):
        ber, success = _run_packets(
            fast_config.with_changes(enable_digital_notch=True), seed=7)
        assert ber < 0.05
        assert success >= 2 / 3

    def test_monitor_report_attached_when_requested(self, fast_config):
        transceiver = Gen2Transceiver(fast_config,
                                      rng=np.random.default_rng(8))
        simulation = transceiver.simulate_packet(
            num_payload_bits=32, ebn0_db=16.0,
            interferer=ToneInterferer(frequency_hz=100e6, amplitude=1.0),
            rng=np.random.default_rng(9), monitor_spectrum=True)
        report = simulation.receive.interferer_report
        assert report is not None
        assert report.detected
