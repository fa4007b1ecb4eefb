"""End-to-end integration tests for the gen-2 direct-conversion link."""

import numpy as np
import pytest

from repro.channel.interference import ToneInterferer
from repro.channel.multipath import exponential_decay_channel
from repro.core.config import Gen2Config
from repro.core.link import LinkSimulator
from repro.core.transceiver import Gen2Transceiver
from repro.sim import SweepEngine


@pytest.fixture
def fast_config():
    return Gen2Config.fast_test_config()


class TestGen2PacketLevel:
    def test_clean_packet_at_high_ebn0(self, fast_config):
        transceiver = Gen2Transceiver(fast_config, rng=np.random.default_rng(1))
        simulation = transceiver.simulate_packet(
            num_payload_bits=64, ebn0_db=16.0, rng=np.random.default_rng(2))
        assert simulation.result.detected
        assert simulation.result.crc_ok
        assert simulation.result.payload_bit_errors == 0

    def test_timing_error_small(self, fast_config):
        transceiver = Gen2Transceiver(fast_config, rng=np.random.default_rng(3))
        simulation = transceiver.simulate_packet(
            num_payload_bits=32, ebn0_db=16.0, rng=np.random.default_rng(4))
        assert abs(simulation.result.timing_error_samples) <= 2

    def test_known_payload_recovered(self, fast_config):
        transceiver = Gen2Transceiver(fast_config, rng=np.random.default_rng(5))
        payload = np.array([1, 0, 1, 1, 0, 0, 1, 0] * 4)
        simulation = transceiver.simulate_packet(
            payload_bits=payload, ebn0_db=18.0, rng=np.random.default_rng(6))
        assert np.array_equal(simulation.receive.payload_bits, payload)

    def test_noiseless_packet_perfect(self, fast_config):
        transceiver = Gen2Transceiver(fast_config, rng=np.random.default_rng(7))
        simulation = transceiver.simulate_packet(
            num_payload_bits=64, ebn0_db=None, rng=np.random.default_rng(8))
        assert simulation.result.crc_ok
        assert simulation.result.payload_bit_errors == 0

    def test_very_low_snr_fails(self, fast_config):
        transceiver = Gen2Transceiver(fast_config, rng=np.random.default_rng(9))
        simulation = transceiver.simulate_packet(
            num_payload_bits=64, ebn0_db=-12.0, rng=np.random.default_rng(10))
        assert (not simulation.result.crc_ok
                or simulation.result.payload_bit_errors > 0
                or not simulation.result.detected)

    def test_multipath_packet_with_rake(self, fast_config):
        config = fast_config.with_changes(rake_fingers=6,
                                          channel_estimate_taps=32)
        transceiver = Gen2Transceiver(config, rng=np.random.default_rng(11))
        rng = np.random.default_rng(12)
        channel = exponential_decay_channel(6e-9, 1e-9, rng=rng,
                                            complex_gains=True)
        simulation = transceiver.simulate_packet(
            num_payload_bits=32, ebn0_db=20.0, channel=channel, rng=rng)
        assert simulation.result.detected
        result = simulation.result
        assert result.payload_bit_errors / result.num_payload_bits < 0.2

    def test_cfo_tolerated(self, fast_config):
        config = fast_config.with_changes(carrier_frequency_offset_hz=50e3)
        transceiver = Gen2Transceiver(config, rng=np.random.default_rng(13))
        simulation = transceiver.simulate_packet(
            num_payload_bits=32, ebn0_db=18.0, rng=np.random.default_rng(14))
        assert simulation.result.detected

    def test_interferer_detected_by_monitor(self, fast_config):
        transceiver = Gen2Transceiver(fast_config, rng=np.random.default_rng(15))
        interferer = ToneInterferer(frequency_hz=120e6, amplitude=0.6)
        simulation = transceiver.simulate_packet(
            num_payload_bits=32, ebn0_db=18.0, interferer=interferer,
            rng=np.random.default_rng(16), monitor_spectrum=True)
        report = simulation.receive.interferer_report
        assert report is not None
        assert report.detected
        assert abs(report.frequency_hz - 120e6) < 25e6


class TestGen2PacketSweep:
    def test_ber_improves_with_ebn0(self, fast_config):
        engine = SweepEngine(config=fast_config, seed=21, backend="packet")
        curve = engine.ber_curve([2.0, 14.0], num_packets=4,
                                 payload_bits_per_packet=48)
        assert curve.points[1].ber <= curve.points[0].ber


class TestGen2LinkSimulator:
    def test_acquisition_statistics(self, fast_config):
        transceiver = Gen2Transceiver(fast_config, rng=np.random.default_rng(22))
        simulator = LinkSimulator(transceiver, rng=np.random.default_rng(23))
        stats = simulator.acquisition_statistics(ebn0_db=14.0, num_packets=6,
                                                 payload_bits_per_packet=16)
        assert stats.detection_probability >= 0.8
        assert stats.mean_search_time_s > 0
        assert stats.rms_timing_error_samples < 4
