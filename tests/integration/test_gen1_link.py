"""End-to-end integration tests for the gen-1 baseband pulsed link."""

import numpy as np
import pytest

from repro.channel.multipath import exponential_decay_channel, two_ray_channel
from repro.core.config import Gen1Config
from repro.core.transceiver import Gen1Transceiver
from repro.sim import Scenario, SweepEngine, SweepPoint, default_registry


@pytest.fixture
def fast_config():
    return Gen1Config.fast_test_config()


class TestGen1PacketLevel:
    def test_clean_packet(self, fast_config):
        transceiver = Gen1Transceiver(fast_config, rng=np.random.default_rng(1))
        simulation = transceiver.simulate_packet(
            num_payload_bits=32, ebn0_db=14.0, rng=np.random.default_rng(2))
        assert simulation.result.detected
        assert simulation.result.crc_ok
        assert simulation.result.payload_bit_errors == 0

    def test_noiseless_packet(self, fast_config):
        transceiver = Gen1Transceiver(fast_config, rng=np.random.default_rng(3))
        simulation = transceiver.simulate_packet(
            num_payload_bits=48, ebn0_db=None, rng=np.random.default_rng(4))
        assert simulation.result.crc_ok

    def test_timing_recovered(self, fast_config):
        transceiver = Gen1Transceiver(fast_config, rng=np.random.default_rng(5))
        simulation = transceiver.simulate_packet(
            num_payload_bits=16, ebn0_db=14.0, rng=np.random.default_rng(6))
        assert abs(simulation.result.timing_error_samples) <= 2

    def test_pulses_per_bit_improves_low_snr(self, fast_config):
        """Spreading each bit over more pulses buys SNR (the paper's data
        rate / robustness knob): at a poor per-bit Eb/N0 the 8-pulse-per-bit
        configuration should make no more errors than 1-pulse-per-bit."""
        rng = np.random.default_rng(7)
        errors = {}
        for ppb in (1, 8):
            config = fast_config.with_changes(pulses_per_bit=ppb)
            transceiver = Gen1Transceiver(config, rng=np.random.default_rng(8))
            total = 0
            for trial in range(3):
                simulation = transceiver.simulate_packet(
                    num_payload_bits=32, ebn0_db=8.0,
                    rng=np.random.default_rng(100 + trial))
                total += simulation.result.payload_bit_errors
            errors[ppb] = total
        assert errors[8] <= errors[1]

    def test_two_ray_multipath(self, fast_config):
        config = fast_config.with_changes(rake_fingers=2)
        transceiver = Gen1Transceiver(config, rng=np.random.default_rng(9))
        channel = two_ray_channel(6e-9, relative_gain_db=-3.0)
        simulation = transceiver.simulate_packet(
            num_payload_bits=32, ebn0_db=18.0, channel=channel,
            rng=np.random.default_rng(10))
        assert simulation.result.detected
        result = simulation.result
        assert result.payload_bit_errors / result.num_payload_bits < 0.2

    def test_acquisition_time_accounted(self, fast_config):
        transceiver = Gen1Transceiver(fast_config, rng=np.random.default_rng(11))
        simulation = transceiver.simulate_packet(
            num_payload_bits=16, ebn0_db=14.0, rng=np.random.default_rng(12))
        assert simulation.result.acquisition_time_s > 0


def _short_exp_decay_channel(rng):
    return exponential_decay_channel(4e-9, 1e-9, rng=rng, complex_gains=False)


class TestGen1PacketSweep:
    """BER points through the sweep engine's per-packet backend."""

    def test_ber_point_runs(self, fast_config):
        engine = SweepEngine(config=fast_config, generation="gen1", seed=14,
                             backend="packet")
        point, = engine.measure_points([(SweepPoint(ebn0_db=12.0), 3, 0)],
                                       payload_bits_per_packet=24)
        assert point.total_bits == 72
        assert 0.0 <= point.ber <= 1.0

    def test_custom_multipath_scenario(self, fast_config):
        registry = default_registry()
        registry.register(Scenario(name="short_exp_decay",
                                   description="4 ns RMS, real ray gains",
                                   channel=_short_exp_decay_channel))
        engine = SweepEngine(config=fast_config, generation="gen1",
                             registry=registry, seed=16, backend="packet")
        point, = engine.measure_points(
            [(SweepPoint(ebn0_db=16.0, scenario="short_exp_decay"), 2, 0)],
            payload_bits_per_packet=24)
        assert point.total_bits == 48
        assert 0.0 <= point.ber <= 1.0
