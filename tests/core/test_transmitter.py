"""Tests for the gen-1 and gen-2 transmitters."""

import numpy as np
import pytest

from repro.constants import DEFAULT_BAND_PLAN
from repro.core.config import Gen1Config, Gen2Config
from repro.core.transmitter import Gen1Transmitter, Gen2Transmitter
from repro.utils import dsp
from repro.utils.bits import random_bits


class TestGen1Transmitter:
    def test_waveform_is_real(self, rng):
        tx = Gen1Transmitter(Gen1Config.fast_test_config())
        out = tx.transmit(random_bits(16, rng))
        assert not np.iscomplexobj(out.waveform)

    def test_structure_offsets(self, rng):
        config = Gen1Config.fast_test_config()
        tx = Gen1Transmitter(config)
        out = tx.transmit(random_bits(16, rng), lead_in_s=100e-9)
        expected_lead = int(round(100e-9 * config.simulation_rate_hz))
        assert out.preamble_start_sample == expected_lead
        preamble_samples = (config.packet.preamble.total_symbols
                            * tx.samples_per_chip)
        assert out.body_start_sample == expected_lead + preamble_samples

    def test_body_symbol_count_matches_packet(self, rng):
        tx = Gen1Transmitter(Gen1Config.fast_test_config())
        out = tx.transmit(random_bits(16, rng))
        assert out.num_body_symbols == out.packet.body_bits.size

    def test_energy_per_bit_scales_with_pulses_per_bit(self, rng):
        base = Gen1Config.fast_test_config()
        bits = random_bits(16, rng)
        e1 = Gen1Transmitter(base.with_changes(pulses_per_bit=1)) \
            .transmit(bits).energy_per_body_bit()
        e4 = Gen1Transmitter(base.with_changes(pulses_per_bit=4)) \
            .transmit(bits).energy_per_body_bit()
        assert e4 == pytest.approx(4 * e1, rel=0.05)

    def test_duration_matches_rate(self, rng):
        config = Gen1Config.fast_test_config()
        tx = Gen1Transmitter(config)
        payload = random_bits(16, rng)
        out = tx.transmit(payload, lead_in_s=0.0, lead_out_s=0.0)
        expected = (config.packet.preamble.total_symbols
                    + out.packet.body_bits.size * config.pulses_per_bit) \
            * config.pulse_repetition_interval_s
        assert out.duration_s == pytest.approx(expected, rel=1e-6)


class TestGen2Transmitter:
    def test_waveform_is_complex(self, rng):
        tx = Gen2Transmitter(Gen2Config.fast_test_config())
        out = tx.transmit(random_bits(16, rng))
        assert np.iscomplexobj(out.waveform)

    def test_default_rate_is_100mbps(self):
        tx = Gen2Transmitter(Gen2Config())
        assert tx.config.data_rate_bps == pytest.approx(100e6)

    def test_carrier_frequency_follows_channel_index(self):
        for channel in (0, 7, 13):
            tx = Gen2Transmitter(Gen2Config(channel_index=channel))
            assert tx.carrier_frequency_hz() == pytest.approx(
                DEFAULT_BAND_PLAN.center_frequency(channel))

    def test_occupied_bandwidth_near_500mhz(self, rng):
        tx = Gen2Transmitter(Gen2Config.fast_test_config())
        out = tx.transmit(random_bits(64, rng))
        bandwidth = dsp.occupied_bandwidth(out.waveform,
                                           out.sample_rate_hz,
                                           power_fraction=0.99)
        assert 200e6 < bandwidth < 900e6

    def test_amplitude_scaling(self, rng):
        tx = Gen2Transmitter(Gen2Config.fast_test_config())
        bits = random_bits(16, rng)
        small = tx.transmit(bits, amplitude=0.1)
        large = tx.transmit(bits, amplitude=1.0)
        assert dsp.signal_energy(large.waveform) == pytest.approx(
            100 * dsp.signal_energy(small.waveform), rel=1e-6)

    def test_preamble_chips_are_bipolar(self, rng):
        tx = Gen2Transmitter(Gen2Config.fast_test_config())
        out = tx.transmit(random_bits(8, rng))
        assert set(np.unique(out.packet.preamble_symbols)) == {-1.0, 1.0}
