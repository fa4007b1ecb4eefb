"""Property-based tests for invariants that span multiple modules."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.adc.flash import FlashADC
from repro.adc.quantizer import UniformQuantizer
from repro.adc.sar import SARADC
from repro.channel.multipath import MultipathChannel
from repro.core.metrics import theoretical_bpsk_ber, theoretical_ook_ber
from repro.phy.packet import PacketBuilder, PacketConfig, PacketParser
from repro.phy.preamble import PreambleConfig
from repro.pulses.modulation import make_modulator
from repro.pulses.shapes import gaussian_derivative_pulse
from repro.pulses.train import PulseTrainConfig, PulseTrainGenerator
from repro.utils import dsp
from repro.utils.bits import random_bits


class TestTransmitChainInvariants:
    @given(st.integers(min_value=1, max_value=4),
           st.integers(min_value=1, max_value=3),
           st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_pulse_train_energy_scales_with_symbol_count(self, pulses_per_bit,
                                                         order, seed):
        """Doubling the number of symbols doubles the transmitted energy
        (each symbol carries the same energy regardless of its sign)."""
        rng = np.random.default_rng(seed)
        pulse = gaussian_derivative_pulse(order, 500e6, 2e9)
        config = PulseTrainConfig(pulse_repetition_interval_s=20e-9,
                                  pulses_per_symbol=pulses_per_bit)
        generator = PulseTrainGenerator(pulse, config, make_modulator("bpsk"))
        bits = random_bits(8, rng)
        single = generator.generate_from_bits(bits)
        double = generator.generate_from_bits(np.concatenate((bits, bits)))
        assert dsp.signal_energy(double.waveform) == pytest.approx(
            2.0 * dsp.signal_energy(single.waveform), rel=1e-9)

    @given(st.sampled_from(["bpsk", "ook", "ppm", "pam4"]),
           st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_modulator_roundtrip_through_clean_statistics(self, scheme, seed):
        """Any modulator demodulates its own clean symbols without error
        (PPM's decision statistic is the late-minus-early difference)."""
        rng = np.random.default_rng(seed)
        modulator = make_modulator(scheme)
        bits = random_bits(4 * modulator.bits_per_symbol * 5, rng)
        symbols = modulator.modulate(bits)
        if scheme == "ppm":
            statistics = 2.0 * np.asarray(symbols, dtype=float) - 1.0
        else:
            statistics = symbols
        assert np.array_equal(modulator.demodulate(statistics), bits)


class TestPacketInvariants:
    @given(st.integers(min_value=0, max_value=120),
           st.booleans(),
           st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_packet_roundtrip_any_length_and_coding(self, num_bits, use_coding,
                                                    seed):
        config = PacketConfig(
            preamble=PreambleConfig(sequence_degree=5, num_repetitions=2),
            use_coding=use_coding)
        payload = random_bits(num_bits, np.random.default_rng(seed))
        packet = PacketBuilder(config).build(payload)
        parsed = PacketParser(config).parse(packet.body_bits)
        assert parsed.crc_ok
        assert np.array_equal(parsed.payload_bits, payload)

    @given(st.integers(min_value=8, max_value=64),
           st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_body_is_deterministic(self, num_bits, seed):
        """Building the same payload twice produces identical body bits."""
        config = PacketConfig(
            preamble=PreambleConfig(sequence_degree=5, num_repetitions=2))
        payload = random_bits(num_bits, np.random.default_rng(seed))
        first = PacketBuilder(config).build(payload)
        second = PacketBuilder(config).build(payload)
        assert np.array_equal(first.body_bits, second.body_bits)


class TestConverterInvariants:
    @given(st.integers(min_value=1, max_value=8),
           st.floats(min_value=-2.0, max_value=2.0),
           st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_all_architectures_agree_when_ideal(self, bits, value, seed):
        """An ideal flash, an ideal SAR, and the reference uniform quantizer
        agree to within one LSB for the same input.

        (Exactly at a code threshold the architectures may legitimately
        round to adjacent codes because of floating-point comparison order,
        hence the one-LSB tolerance rather than exact equality.)
        """
        rng = np.random.default_rng(seed)
        uniform = UniformQuantizer(bits=bits)
        flash = FlashADC(bits=bits, rng=rng)
        sar = SARADC(bits=bits, rng=rng)
        x = np.array([value])
        reference = uniform.quantize(x)[0]
        assert abs(flash.convert(x)[0] - reference) <= uniform.step + 1e-12
        assert abs(sar.convert(x)[0] - reference) <= uniform.step + 1e-12

    @given(st.integers(min_value=1, max_value=8))
    @settings(max_examples=16)
    def test_quantizer_is_idempotent(self, bits):
        """Quantizing an already-quantized signal changes nothing."""
        quantizer = UniformQuantizer(bits=bits)
        x = np.linspace(-0.99, 0.99, 101)
        once = quantizer.quantize(x)
        twice = quantizer.quantize(once)
        assert np.allclose(once, twice)


class TestChannelInvariants:
    @given(st.lists(st.floats(min_value=0.0, max_value=80e-9), min_size=1,
                    max_size=12),
           st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_normalized_channel_has_unit_power_and_bounded_spread(self, delays,
                                                                  seed):
        rng = np.random.default_rng(seed)
        gains = rng.standard_normal(len(delays)) + 1j * rng.standard_normal(
            len(delays))
        # Guard against an all-zero draw.
        gains[0] += 1.0
        channel = MultipathChannel(np.asarray(delays), gains).normalized()
        assert channel.total_power() == pytest.approx(1.0)
        span = float(np.max(channel.delays_s) - np.min(channel.delays_s))
        assert channel.rms_delay_spread_s() <= span / 2.0 + 1e-15

    @given(st.floats(min_value=0.0, max_value=14.0))
    @settings(max_examples=30)
    def test_bpsk_always_beats_ook_in_theory(self, ebn0_db):
        assert theoretical_bpsk_ber(ebn0_db) <= theoretical_ook_ber(ebn0_db)

