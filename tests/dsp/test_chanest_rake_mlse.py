"""Tests for channel estimation, RAKE combining, and the MLSE equalizer."""

import numpy as np
import pytest

from repro.channel.multipath import MultipathChannel
from repro.dsp.channel_estimation import ChannelEstimate, ChannelEstimator
from repro.dsp.rake import RakeReceiver
from repro.dsp.viterbi import MLSEEqualizer, equalize_to_bits_batch
from repro.phy.preamble import PreambleConfig, build_preamble_symbols
from repro.pulses.shapes import gaussian_pulse

SAMPLE_RATE = 1e9
SAMPLES_PER_CHIP = 8


def _pulse_template():
    return gaussian_pulse(500e6, SAMPLE_RATE).waveform[:SAMPLES_PER_CHIP]


def _preamble_waveform(chips, pulse):
    waveform = np.zeros(chips.size * SAMPLES_PER_CHIP)
    for index, chip in enumerate(chips):
        start = index * SAMPLES_PER_CHIP
        waveform[start:start + pulse.size] += chip * pulse[:SAMPLES_PER_CHIP]
    return waveform


def _estimator(quantization_bits=None, num_taps=24):
    config = PreambleConfig(sequence_degree=5, num_repetitions=1)
    base = config.base_sequence_bipolar()
    return base, ChannelEstimator(
        preamble_symbols=base,
        samples_per_symbol=SAMPLES_PER_CHIP,
        pulse_template=_pulse_template(),
        num_taps=num_taps,
        quantization_bits=quantization_bits)


class TestChannelEstimator:
    def test_delta_channel_gives_dominant_first_tap(self):
        base, estimator = _estimator()
        waveform = _preamble_waveform(base, _pulse_template())
        padded = np.concatenate((waveform, np.zeros(64)))
        estimate = estimator.estimate(padded, 0, SAMPLE_RATE)
        assert np.argmax(np.abs(estimate.taps)) == 0
        assert abs(estimate.taps[0]) == pytest.approx(1.0, abs=0.1)
        # Off-path taps are small.
        assert np.max(np.abs(estimate.taps[3:])) < 0.3

    def test_echo_appears_at_correct_delay(self):
        base, estimator = _estimator()
        waveform = _preamble_waveform(base, _pulse_template())
        channel = MultipathChannel([0.0, 10e-9], [1.0, 0.6])
        received = channel.apply(np.concatenate((waveform, np.zeros(64))),
                                 SAMPLE_RATE)
        estimate = estimator.estimate(received, 0, SAMPLE_RATE)
        echo_tap = int(round(10e-9 * SAMPLE_RATE))
        assert abs(estimate.taps[echo_tap]) > 0.4
        assert abs(estimate.taps[0]) > abs(estimate.taps[echo_tap])

    def test_quantization_applied(self):
        base, estimator = _estimator(quantization_bits=4)
        waveform = _preamble_waveform(base, _pulse_template())
        estimate = estimator.estimate(np.concatenate((waveform, np.zeros(64))),
                                      0, SAMPLE_RATE)
        assert estimate.quantization_bits == 4
        # With 4 bits there are at most 16 distinct real levels.
        assert np.unique(np.round(estimate.taps.real, 9)).size <= 16

    def test_averaging_reduces_noise(self, rng):
        """Averaging across repetitions reduces the noise-dominated error.

        Run several noise realizations at a heavy noise level (so the error
        is noise-limited rather than limited by the sequence's correlation
        sidelobes) and compare the average estimation error.
        """
        config = PreambleConfig(sequence_degree=5, num_repetitions=4)
        base = config.base_sequence_bipolar()
        full = build_preamble_symbols(config)
        estimator = ChannelEstimator(
            preamble_symbols=base, samples_per_symbol=SAMPLES_PER_CHIP,
            pulse_template=_pulse_template(), num_taps=24,
            quantization_bits=None)
        waveform = _preamble_waveform(full, _pulse_template())
        truth = np.zeros(24)
        truth[0] = 1.0

        errors_single = []
        errors_averaged = []
        for _ in range(6):
            noisy = waveform + 2.0 * rng.standard_normal(waveform.size)
            padded = np.concatenate((noisy, np.zeros(64)))
            single = estimator.estimate(padded, 0, SAMPLE_RATE)
            averaged = estimator.estimate_averaged(padded, 0, SAMPLE_RATE,
                                                   num_repetitions=4)
            errors_single.append(np.sum(np.abs(single.taps - truth) ** 2))
            errors_averaged.append(np.sum(np.abs(averaged.taps - truth) ** 2))
        assert np.mean(errors_averaged) < np.mean(errors_single)

    def test_not_enough_samples_raises(self):
        base, estimator = _estimator()
        with pytest.raises(ValueError):
            estimator.estimate(np.zeros(16), 0, SAMPLE_RATE)


class TestChannelEstimate:
    def _estimate(self, taps):
        return ChannelEstimate(taps=np.asarray(taps, dtype=complex),
                               sample_rate_hz=1e9, quantization_bits=None)

    def test_strongest_taps(self):
        estimate = self._estimate([0.1, 0.9, 0.0, 0.5])
        indices, values = estimate.strongest_taps(2)
        assert list(indices) == [1, 3]
        assert abs(values[0]) == pytest.approx(0.9)

    def test_energy_capture_monotone(self):
        estimate = self._estimate([0.5, 0.4, 0.3, 0.2, 0.1])
        captures = [estimate.energy_capture(k) for k in range(1, 6)]
        assert all(b >= a for a, b in zip(captures, captures[1:]))
        assert captures[-1] == pytest.approx(1.0)

    def test_rms_delay_spread(self):
        estimate = self._estimate([1.0, 0.0, 0.0, 0.0, 1.0])
        # Two equal taps 4 ns apart -> 2 ns RMS spread at 1 GS/s.
        assert estimate.rms_delay_spread_s() == pytest.approx(2e-9)


class TestRakeReceiver:
    def _estimate(self, taps):
        return ChannelEstimate(taps=np.asarray(taps, dtype=complex),
                               sample_rate_hz=SAMPLE_RATE,
                               quantization_bits=None)

    def test_srake_selects_strongest(self):
        estimate = self._estimate([0.2, 0.0, 0.9, 0.0, 0.6, 0.1])
        rake = RakeReceiver(estimate, num_fingers=2, policy="srake")
        delays = sorted(f.delay_samples for f in rake.fingers)
        assert delays == [2, 4]

    def test_prake_selects_first(self):
        estimate = self._estimate([0.2, 0.0, 0.9, 0.0, 0.6, 0.1])
        rake = RakeReceiver(estimate, num_fingers=2, policy="prake")
        delays = sorted(f.delay_samples for f in rake.fingers)
        assert delays == [0, 2]

    def test_arake_uses_all_nonzero(self):
        estimate = self._estimate([0.2, 0.0, 0.9, 0.0, 0.6, 0.1])
        rake = RakeReceiver(estimate, policy="arake")
        assert len(rake.fingers) == 4

    def test_captured_energy_increases_with_fingers(self):
        estimate = self._estimate([0.5, 0.4, 0.3, 0.2, 0.1])
        captures = [RakeReceiver(estimate, num_fingers=k, policy="srake")
                    .captured_energy_fraction() for k in (1, 2, 3, 5)]
        assert all(b >= a for a, b in zip(captures, captures[1:]))

    def test_invalid_policy(self):
        with pytest.raises(ValueError):
            RakeReceiver(self._estimate([1.0]), policy="xrake")

    def test_combine_recovers_symbol_sign(self):
        pulse = _pulse_template()
        # Two-path channel: direct + echo at 2 samples.
        taps = np.zeros(8, dtype=complex)
        taps[0] = 1.0
        taps[2] = 0.5
        estimate = self._estimate(taps)
        rake = RakeReceiver(estimate, num_fingers=2, policy="srake")
        # Build one received symbol: -1 * (pulse + 0.5*pulse delayed by 2).
        received = np.zeros(64)
        received[:pulse.size] += -1.0 * pulse
        received[2:2 + pulse.size] += -0.5 * pulse
        statistic = rake.combine(received, pulse, 0)
        assert statistic.real < 0

    def test_combine_stream_length(self):
        estimate = self._estimate([1.0])
        rake = RakeReceiver(estimate, num_fingers=1)
        stats = rake.combine_stream(np.zeros(200), _pulse_template(),
                                    symbol_period_samples=16,
                                    first_symbol_sample=0, num_symbols=10)
        assert stats.size == 10

    def test_zero_estimate_falls_back_to_single_finger(self):
        estimate = self._estimate([0.0, 0.0, 0.0])
        rake = RakeReceiver(estimate, num_fingers=2)
        assert len(rake.fingers) == 1


class TestMLSEEqualizer:
    def test_no_isi_reduces_to_slicer(self):
        equalizer = MLSEEqualizer([1.0])
        symbols = np.array([1.0, -1.0, 1.0, 1.0, -1.0])
        decided = equalizer.equalize(symbols + 0.1)
        assert np.array_equal(np.sign(decided.real), np.sign(symbols))

    def test_corrects_isi(self, rng):
        # Channel with strong ISI: h = [1, 0.6].
        isi = np.array([1.0, 0.6])
        true_symbols = 2.0 * rng.integers(0, 2, size=200) - 1.0
        received = np.convolve(true_symbols, isi)[:true_symbols.size]
        received += 0.2 * rng.standard_normal(received.size)

        equalizer = MLSEEqualizer(isi)
        mlse_decisions = equalizer.equalize(received)
        mlse_errors = np.sum(np.sign(mlse_decisions.real) != true_symbols)

        slicer_errors = np.sum(np.sign(received) != true_symbols)
        assert mlse_errors < slicer_errors

    def test_equalize_to_bits(self):
        equalizer = MLSEEqualizer([1.0])
        bits = equalizer.equalize_to_bits(np.array([0.8, -0.9, 0.7]))
        assert np.array_equal(bits, [1, 0, 1])

    def test_equalize_to_bits_batch_matches_per_packet(self, rng):
        # Packets with different ISI taps, memories and lengths: rows that
        # share a trellis shape run together, the others alone.
        taps = [[1.0, 0.6], [1.0, -0.4], [1.0, 0.5, 0.2], [1.0], [1.0, 0.6]]
        lengths = [40, 40, 40, 25, 0]
        equalizers, rows = [], []
        for isi, length in zip(taps, lengths):
            symbols = 2.0 * rng.integers(0, 2, size=length) - 1.0
            received = np.convolve(np.append(symbols, 0.0), isi)[:length]
            rows.append(received + 0.5 * rng.standard_normal(length))
            equalizers.append(MLSEEqualizer(isi))
        batch = equalize_to_bits_batch(equalizers, rows)
        assert len(batch) == len(rows)
        for equalizer, row, bits in zip(equalizers, rows, batch):
            assert np.array_equal(bits, equalizer.equalize_to_bits(row))

    def test_equalize_to_bits_batch_ragged_rows_and_exact_ties(self, rng):
        # One call mixing memories 0-2, rows of one memory with different
        # lengths (one trellis pass, each row read at its own end), and
        # dyadic taps with dyadic statistics, where candidate metrics tie
        # exactly and the first branch in scan order must win.
        cases = [([1.0, 0.5], rng.normal(size=40)),
                 ([1.0, 0.5], rng.normal(size=17)),
                 ([1.0, 0.5], np.zeros(12)),
                 ([1.0, -0.25, 0.5], rng.normal(size=33)),
                 ([1.0, 0.5, 0.25],
                  rng.choice([-1.5, -0.5, 0.0, 0.5, 1.5], size=20)),
                 ([1.0, 0.5, 0.25], np.zeros(3)),
                 ([1.0], np.zeros(9)),
                 ([1.0], rng.normal(size=5)),
                 ([1.0, 0.5], np.zeros(0))]
        equalizers = [MLSEEqualizer(isi) for isi, _ in cases]
        rows = [row for _, row in cases]
        batch = equalize_to_bits_batch(equalizers, rows)
        for equalizer, row, bits in zip(equalizers, rows, batch):
            assert bits.dtype == np.int64
            assert np.array_equal(bits, equalizer.equalize_to_bits(row))

    def test_equalize_to_bits_batch_needs_two_symbol_alphabet(self):
        with pytest.raises(ValueError, match="two-symbol"):
            equalize_to_bits_batch(
                [MLSEEqualizer([1.0, 0.5], alphabet=(-3, -1, 1, 3))],
                [np.zeros(4)])

    def test_equalize_to_bits_batch_needs_one_row_per_equalizer(self):
        with pytest.raises(ValueError, match="one statistics row"):
            equalize_to_bits_batch([MLSEEqualizer([1.0])], [])

    def test_trellis_size_guard(self):
        with pytest.raises(ValueError):
            MLSEEqualizer(np.ones(16), alphabet=(-1, 1, -3, 3))

    def test_empty_input(self):
        equalizer = MLSEEqualizer([1.0, 0.3])
        assert equalizer.equalize(np.zeros(0)).size == 0

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            MLSEEqualizer([])
        with pytest.raises(ValueError):
            MLSEEqualizer([1.0], alphabet=(1.0,))
