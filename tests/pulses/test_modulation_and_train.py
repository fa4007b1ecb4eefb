"""Tests for modulation schemes and pulse-train generation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.pulses.modulation import (
    BPSKModulator,
    BinaryPPMModulator,
    OOKModulator,
    PAMModulator,
    make_modulator,
)
from repro.pulses.shapes import gaussian_pulse
from repro.pulses.train import PulseTrainConfig, PulseTrainGenerator
from repro.utils.bits import random_bits


class TestBPSK:
    def test_mapping(self):
        mod = BPSKModulator()
        assert np.array_equal(mod.modulate([0, 1, 0]), [-1.0, 1.0, -1.0])

    def test_demodulation(self):
        mod = BPSKModulator()
        assert np.array_equal(mod.demodulate([-0.3, 0.8, -2.0]), [0, 1, 0])

    def test_roundtrip(self):
        mod = BPSKModulator()
        bits = random_bits(64, np.random.default_rng(0))
        assert np.array_equal(mod.demodulate(mod.modulate(bits)), bits)

    def test_rejects_invalid_bits(self):
        with pytest.raises(ValueError):
            BPSKModulator().modulate([0, 2])


class TestOOK:
    def test_mapping(self):
        mod = OOKModulator()
        assert np.array_equal(mod.modulate([0, 1]), [0.0, 1.0])

    def test_demodulation_threshold(self):
        mod = OOKModulator()
        assert np.array_equal(mod.demodulate([0.2, 0.8]), [0, 1])

    def test_roundtrip(self):
        mod = OOKModulator()
        bits = random_bits(64, np.random.default_rng(1))
        assert np.array_equal(mod.demodulate(mod.modulate(bits)), bits)


class TestPPM:
    def test_position_offsets(self):
        mod = BinaryPPMModulator(delta_s=2e-9)
        assert mod.position_offsets == (0.0, 2e-9)

    def test_amplitudes_are_unit(self):
        mod = BinaryPPMModulator()
        amps = mod.symbols_to_amplitudes(mod.modulate([0, 1, 1]))
        assert np.array_equal(amps, [1.0, 1.0, 1.0])

    def test_invalid_delta(self):
        with pytest.raises(ValueError):
            BinaryPPMModulator(delta_s=0.0)

    def test_demodulation_sign(self):
        mod = BinaryPPMModulator()
        assert np.array_equal(mod.demodulate([-1.0, 1.0]), [0, 1])


class TestPAM:
    def test_unit_average_energy(self):
        for order in (2, 4, 8):
            mod = PAMModulator(order=order)
            assert np.mean(mod.levels ** 2) == pytest.approx(1.0)

    def test_bits_per_symbol(self):
        assert PAMModulator(order=4).bits_per_symbol == 2
        assert PAMModulator(order=8).bits_per_symbol == 3

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            PAMModulator(order=3)

    def test_roundtrip(self):
        mod = PAMModulator(order=4)
        bits = random_bits(200, np.random.default_rng(2))
        assert np.array_equal(mod.demodulate(mod.modulate(bits)), bits)

    def test_gray_mapping_adjacent_levels(self):
        # Adjacent amplitude levels should differ in exactly one bit.
        mod = PAMModulator(order=8)
        levels = mod.levels
        decoded = [mod.demodulate(np.array([level])) for level in levels]
        for a, b in zip(decoded[:-1], decoded[1:]):
            assert int(np.sum(np.asarray(a) != np.asarray(b))) == 1

    @given(st.lists(st.integers(min_value=0, max_value=1), min_size=4,
                    max_size=64).filter(lambda b: len(b) % 2 == 0))
    @settings(max_examples=30)
    def test_pam4_roundtrip_property(self, bits):
        mod = PAMModulator(order=4)
        assert np.array_equal(mod.demodulate(mod.modulate(bits)), bits)


class TestSymbolCount:
    @pytest.mark.parametrize("scheme, num_bits, expected", [
        ("bpsk", 12, 12), ("ppm", 12, 12), ("pam4", 12, 6), ("pam8", 12, 4),
        ("pam16", 12, 3)])
    def test_symbols_per_bit_count(self, scheme, num_bits, expected):
        modulator = make_modulator(scheme)
        assert modulator.num_symbols(num_bits) == expected
        bits = random_bits(num_bits, np.random.default_rng(4))
        assert modulator.modulate(bits).size == expected

    @pytest.mark.parametrize("scheme, num_bits", [("pam4", 7), ("pam8", 10)])
    def test_bit_count_off_the_symbol_grid_raises(self, scheme, num_bits):
        with pytest.raises(ValueError, match="bits_per_symbol"):
            make_modulator(scheme).num_symbols(num_bits)


class TestPAMLevels:
    @pytest.mark.parametrize("order", [2, 4, 8, 16])
    def test_levels_are_symmetric_equally_spaced_and_unit_energy(self, order):
        levels = PAMModulator(order=order).levels
        assert levels.size == order
        assert np.allclose(levels, -levels[::-1])
        assert np.allclose(np.diff(levels), np.diff(levels)[0])
        assert np.mean(levels ** 2) == pytest.approx(1.0)

    def test_levels_property_returns_a_copy(self):
        modulator = PAMModulator(order=4)
        modulator.levels[0] = 99.0
        assert modulator.levels[0] < 0

    @pytest.mark.parametrize("order", [4, 8])
    def test_nearest_level_error_costs_one_bit(self, order):
        # Every amplitude level, pushed halfway-plus to its upper
        # neighbour, decodes to a word one Gray step away.
        modulator = PAMModulator(order=order)
        levels = modulator.levels
        k = modulator.bits_per_symbol
        for index in range(order - 1):
            sent = modulator.demodulate(levels[index:index + 1])
            nudged = levels[index] + 0.6 * (levels[index + 1] - levels[index])
            received = modulator.demodulate(np.array([nudged]))
            assert sent.size == received.size == k
            assert np.sum(sent != received) == 1


class TestFactory:
    def test_known_schemes(self):
        assert make_modulator("bpsk").name == "bpsk"
        assert make_modulator("ook").name == "ook"
        assert make_modulator("ppm").name == "ppm"
        assert make_modulator("pam4").name == "pam4"
        assert make_modulator("pam", order=8).name == "pam8"

    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            make_modulator("qam64")


class TestPulseTrainConfig:
    def test_symbol_rate(self):
        config = PulseTrainConfig(pulse_repetition_interval_s=10e-9,
                                  pulses_per_symbol=4)
        assert config.symbol_rate_hz() == pytest.approx(25e6)

    @pytest.mark.parametrize("kwargs, error", [
        (dict(pulse_repetition_interval_s=0.0), ValueError),
        (dict(pulse_repetition_interval_s=-1e-9), ValueError),
        (dict(pulse_repetition_interval_s=float("nan")), ValueError),
        (dict(pulse_repetition_interval_s=10e-9, pulses_per_symbol=0),
         ValueError),
        (dict(pulse_repetition_interval_s=10e-9, pulses_per_symbol=1.5),
         TypeError),
        (dict(pulse_repetition_interval_s=10e-9,
              time_hopping_codes=(-1e-9,)), ValueError),
        (dict(pulse_repetition_interval_s=10e-9,
              time_hopping_codes=(10e-9,)), ValueError)])
    def test_invalid_timing_raises(self, kwargs, error):
        with pytest.raises(error):
            PulseTrainConfig(**kwargs)

    def test_symbol_duration_is_pulses_times_interval(self):
        config = PulseTrainConfig(pulse_repetition_interval_s=8e-9,
                                  pulses_per_symbol=5)
        assert config.symbol_duration_s == pytest.approx(40e-9)

    def test_invalid_hopping_offset(self):
        with pytest.raises(ValueError):
            PulseTrainConfig(pulse_repetition_interval_s=10e-9,
                             time_hopping_codes=(15e-9,))


class TestPulseTrainGenerator:
    def _generator(self, pulses_per_symbol=1, pri=10e-9):
        pulse = gaussian_pulse(500e6, 2e9)
        config = PulseTrainConfig(pulse_repetition_interval_s=pri,
                                  pulses_per_symbol=pulses_per_symbol)
        return PulseTrainGenerator(pulse, config, BPSKModulator())

    def test_output_length(self):
        gen = self._generator(pulses_per_symbol=2)
        train = gen.generate_from_bits([1, 0, 1])
        assert train.waveform.size == 3 * gen.samples_per_symbol

    def test_polarity_follows_bits(self):
        gen = self._generator()
        train = gen.generate_from_bits([1, 0])
        spc = gen.samples_per_pulse_interval
        first = train.waveform[:spc]
        second = train.waveform[spc:2 * spc]
        assert np.max(first) > abs(np.min(first))      # positive pulse
        assert abs(np.min(second)) > np.max(second)    # negative pulse

    def test_energy_scales_with_pulses_per_symbol(self):
        bits = [1, 1, 0, 1]
        e1 = np.sum(self._generator(1).generate_from_bits(bits).waveform ** 2)
        e4 = np.sum(self._generator(4).generate_from_bits(bits).waveform ** 2)
        assert e4 == pytest.approx(4 * e1, rel=1e-6)

    @pytest.mark.parametrize("pulses_per_symbol", [1, 3])
    def test_batch_rows_equal_single_trains_bitwise(self, pulses_per_symbol):
        gen = self._generator(pulses_per_symbol=pulses_per_symbol)
        rng = np.random.default_rng(12)
        bits = rng.integers(0, 2, size=(4, 9))
        symbols = np.stack([gen.modulator.modulate(row)
                            for row in bits])
        batch = gen.generate_batch_from_symbols(symbols)
        assert batch.shape == (4, 9 * gen.samples_per_symbol)
        for row, waveform in zip(symbols, batch):
            expected = gen.generate_from_symbols(row).waveform
            assert waveform.tobytes() == expected.tobytes()

    def test_batch_declines_hopping_and_position_modulation(self):
        pulse = gaussian_pulse(500e6, 2e9)
        hopping = PulseTrainGenerator(
            pulse, PulseTrainConfig(pulse_repetition_interval_s=20e-9,
                                    time_hopping_codes=(0.0, 5e-9)),
            BPSKModulator())
        ppm = PulseTrainGenerator(
            pulse, PulseTrainConfig(pulse_repetition_interval_s=20e-9),
            BinaryPPMModulator(delta_s=4e-9))
        symbols = np.zeros((2, 4), dtype=np.int64)
        assert hopping.generate_batch_from_symbols(symbols) is None
        assert ppm.generate_batch_from_symbols(symbols) is None
        with pytest.raises(ValueError, match="batch"):
            self._generator().generate_batch_from_symbols(np.zeros(4))

    @pytest.mark.parametrize("pulses_per_symbol", [1, 2, 4])
    def test_zero_hop_loop_matches_the_grid_placement(self, pulses_per_symbol):
        # A hopping code of all-zero offsets takes the per-pulse loop; it
        # must place pulses exactly where the vectorized grid path does.
        pulse = gaussian_pulse(500e6, 2e9)
        symbols = BPSKModulator().modulate(
            random_bits(9, np.random.default_rng(pulses_per_symbol)))
        trains = []
        for hop in ((), (0.0, 0.0)):
            config = PulseTrainConfig(pulse_repetition_interval_s=10e-9,
                                      pulses_per_symbol=pulses_per_symbol,
                                      time_hopping_codes=hop)
            gen = PulseTrainGenerator(pulse, config, BPSKModulator())
            trains.append(gen.generate_from_symbols(symbols))
        assert np.array_equal(trains[0].waveform, trains[1].waveform)

    def test_train_bookkeeping(self):
        gen = self._generator(pulses_per_symbol=3)
        symbols = BPSKModulator().modulate([1, 0, 1, 1])
        train = gen.generate_from_symbols(symbols)
        assert train.num_symbols == 4
        assert train.samples_per_symbol() == gen.samples_per_symbol == 60
        assert train.duration_s == pytest.approx(4 * 3 * 10e-9)
        assert np.array_equal(train.symbols, symbols)

    def test_empty_symbol_sequence_gives_an_empty_train(self):
        train = self._generator().generate_from_symbols(np.zeros(0))
        assert train.waveform.size == 0
        assert train.num_symbols == 0

    def test_pri_shorter_than_a_sample_raises(self):
        pulse = gaussian_pulse(500e6, 2e9)
        config = PulseTrainConfig(pulse_repetition_interval_s=0.1e-9)
        with pytest.raises(ValueError, match="one sample"):
            PulseTrainGenerator(pulse, config, BPSKModulator())

    def test_pulse_longer_than_pri_raises(self):
        pulse = gaussian_pulse(100e6, 2e9)   # ~39 ns long
        config = PulseTrainConfig(pulse_repetition_interval_s=10e-9)
        with pytest.raises(ValueError):
            PulseTrainGenerator(pulse, config, BPSKModulator())

    def test_template_unit_energy(self):
        gen = self._generator()
        template = gen.template()
        assert np.sum(np.abs(template) ** 2) == pytest.approx(1.0)

    def test_data_rate(self):
        gen = self._generator(pulses_per_symbol=1, pri=10e-9)
        assert gen.data_rate_bps() == pytest.approx(100e6)

    def test_time_hopping_moves_pulses(self):
        pulse = gaussian_pulse(500e6, 2e9)
        config = PulseTrainConfig(pulse_repetition_interval_s=20e-9,
                                  pulses_per_symbol=1,
                                  time_hopping_codes=(0.0, 5e-9))
        gen = PulseTrainGenerator(pulse, config, BPSKModulator())
        train = gen.generate_from_bits([1, 1])
        spc = gen.samples_per_pulse_interval
        peak0 = np.argmax(train.waveform[:spc])
        peak1 = np.argmax(train.waveform[spc:2 * spc])
        shift_samples = int(round(5e-9 * 2e9))
        assert peak1 - peak0 == pytest.approx(shift_samples, abs=1)

    def test_ppm_train_shifts_pulse(self):
        pulse = gaussian_pulse(500e6, 2e9)
        config = PulseTrainConfig(pulse_repetition_interval_s=20e-9)
        mod = BinaryPPMModulator(delta_s=4e-9)
        gen = PulseTrainGenerator(pulse, config, mod)
        train = gen.generate_from_bits([0, 1])
        spc = gen.samples_per_pulse_interval
        peak0 = np.argmax(np.abs(train.waveform[:spc]))
        peak1 = np.argmax(np.abs(train.waveform[spc:2 * spc]))
        assert peak1 - peak0 == pytest.approx(int(4e-9 * 2e9), abs=1)
