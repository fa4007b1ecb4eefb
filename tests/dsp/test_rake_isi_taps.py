"""Tests for the RAKE-output ISI model used by the MLSE."""

import numpy as np
import pytest

from repro.dsp.channel_estimation import ChannelEstimate
from repro.dsp.rake import RakeReceiver
from repro.dsp.viterbi import rake_isi_taps


def _estimate(taps):
    return ChannelEstimate(taps=np.asarray(taps, dtype=complex),
                           sample_rate_hz=1e9, quantization_bits=None)


class TestRakeIsiTaps:
    def test_first_tap_is_unity(self):
        estimate = _estimate([1.0, 0.2, 0.0, 0.0, 0.5, 0.0])
        taps = rake_isi_taps(estimate, finger_delays=[0, 1],
                             finger_weights=[1.0, 0.2],
                             symbol_period_samples=4)
        assert taps[0] == pytest.approx(1.0)

    def test_no_isi_for_short_channel(self):
        estimate = _estimate([1.0, 0.3, 0.0, 0.0])
        taps = rake_isi_taps(estimate, finger_delays=[0, 1],
                             finger_weights=[1.0, 0.3],
                             symbol_period_samples=8, max_symbol_taps=3)
        # Channel shorter than one symbol period: only the main tap remains.
        assert taps.size == 1

    def test_postcursor_from_late_energy(self):
        # Energy one symbol period after the fingers produces a postcursor.
        h = np.zeros(12)
        h[0] = 1.0
        h[4] = 0.6     # one symbol period (4 samples) later
        estimate = _estimate(h)
        taps = rake_isi_taps(estimate, finger_delays=[0], finger_weights=[1.0],
                             symbol_period_samples=4, max_symbol_taps=3)
        assert taps.size >= 2
        assert abs(taps[1]) == pytest.approx(0.6, rel=1e-6)

    def test_postcursor_accumulates_over_fingers(self):
        h = np.zeros(16)
        h[0] = 1.0
        h[2] = 0.5
        h[8] = 0.4     # one symbol after finger 0
        h[10] = 0.3    # one symbol after finger 2
        estimate = _estimate(h)
        taps = rake_isi_taps(estimate, finger_delays=[0, 2],
                             finger_weights=[1.0, 0.5],
                             symbol_period_samples=8, max_symbol_taps=2)
        expected_g1 = (1.0 * 0.4 + 0.5 * 0.3) / (1.0 * 1.0 + 0.5 * 0.5)
        assert abs(taps[1]) == pytest.approx(expected_g1, rel=1e-6)

    def test_tiny_postcursors_dropped(self):
        h = np.zeros(12)
        h[0] = 1.0
        h[4] = 0.01
        estimate = _estimate(h)
        taps = rake_isi_taps(estimate, finger_delays=[0], finger_weights=[1.0],
                             symbol_period_samples=4, max_symbol_taps=3)
        assert taps.size == 1

    def test_mismatched_fingers_raise(self):
        estimate = _estimate([1.0])
        with pytest.raises(ValueError):
            rake_isi_taps(estimate, finger_delays=[0, 1], finger_weights=[1.0],
                          symbol_period_samples=4)

    def test_degenerate_estimate_returns_identity(self):
        estimate = _estimate([0.0, 0.0])
        taps = rake_isi_taps(estimate, finger_delays=[0], finger_weights=[0.0],
                             symbol_period_samples=4)
        assert taps.size == 1
        assert taps[0] == pytest.approx(1.0)


class TestRakeReceiverIsiTaps:
    def test_wrapper_matches_function(self):
        h = np.zeros(20, dtype=complex)
        h[0] = 1.0
        h[3] = 0.5
        h[8] = 0.4
        estimate = _estimate(h)
        rake = RakeReceiver(estimate, num_fingers=2, policy="srake")
        wrapper = rake.isi_taps(symbol_period_samples=8, max_symbol_taps=3)
        direct = rake_isi_taps(estimate,
                               [f.delay_samples for f in rake.fingers],
                               [f.weight for f in rake.fingers],
                               symbol_period_samples=8, max_symbol_taps=3)
        assert np.allclose(wrapper, direct)

    def test_long_channel_produces_isi_for_default_gen2_timing(self):
        # ~20 ns of channel at 1 GS/s with a 8-sample symbol period.
        rng = np.random.default_rng(0)
        h = np.exp(-np.arange(24) / 10.0) * rng.standard_normal(24)
        h[0] = 1.5
        estimate = _estimate(h)
        rake = RakeReceiver(estimate, num_fingers=4, policy="srake")
        taps = rake.isi_taps(symbol_period_samples=8, max_symbol_taps=3)
        assert taps.size >= 1
        assert abs(taps[0]) == pytest.approx(1.0)


def _loop_isi_taps(channel_estimate, finger_delays, finger_weights,
                   symbol_period_samples, max_symbol_taps):
    """The per-lag, per-finger scalar loop ``rake_isi_taps`` replaced."""
    finger_delays = np.asarray(finger_delays, dtype=np.int64).ravel()
    finger_weights = np.asarray(finger_weights).ravel()
    h = channel_estimate.taps
    taps = np.zeros(max_symbol_taps, dtype=complex)
    for lag in range(max_symbol_taps):
        total = 0.0 + 0.0j
        for delay, weight in zip(finger_delays, finger_weights):
            index = delay + lag * symbol_period_samples
            if 0 <= index < h.size:
                total += np.conj(weight) * h[index]
        taps[lag] = total
    if abs(taps[0]) <= 0:
        return np.array([1.0 + 0.0j])
    taps = taps / taps[0]
    keep = max_symbol_taps
    while keep > 1 and abs(taps[keep - 1]) < 0.05:
        keep -= 1
    return taps[:keep]


@pytest.mark.parametrize("seed", range(40))
def test_matches_the_scalar_loop_bit_for_bit(seed):
    """Every float, sign bits included: the MLSE trellis is built from
    these taps, and its decisions must not move."""
    rng = np.random.default_rng(seed)
    num_taps = int(rng.integers(1, 80))
    h = rng.standard_normal(num_taps) + 1j * rng.standard_normal(num_taps)
    if seed % 3 == 0:
        h = np.round(4 * h) / 4           # 4-bit-like ties and zeros
    if seed % 5 == 0:
        h = h.real.copy()
    estimate = ChannelEstimate(taps=h, sample_rate_hz=1e9,
                               quantization_bits=None)
    fingers = int(rng.integers(0, 17))
    delays = rng.integers(0, num_taps + 10, fingers)
    weights = rng.standard_normal(fingers) + 1j * rng.standard_normal(fingers)
    period = int(rng.integers(1, 30))
    max_taps = int(rng.integers(1, 7))
    got = rake_isi_taps(estimate, delays, list(weights), period,
                        max_symbol_taps=max_taps)
    expected = _loop_isi_taps(estimate, delays, weights, period, max_taps)
    assert got.shape == expected.shape
    assert np.array_equal(got.view(float), expected.view(float))
    assert np.array_equal(np.signbit(got.view(float)),
                          np.signbit(expected.view(float)))
