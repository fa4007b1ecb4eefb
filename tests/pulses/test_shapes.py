"""Tests for baseband pulse shapes."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.pulses.shapes import (
    Pulse,
    gaussian_derivative_pulse,
    gaussian_pulse,
    sigma_for_bandwidth,
)
from repro.pulses.spectrum import bandwidth_at_level
from repro.utils import dsp

SAMPLE_RATE = 4e9


class TestPulseContainer:
    def test_basic_properties(self):
        pulse = Pulse(np.ones(8), 2e9, name="test")
        assert pulse.num_samples == 8
        assert pulse.duration_s == pytest.approx(4e-9)
        assert pulse.energy == pytest.approx(8.0)
        assert pulse.peak_amplitude == pytest.approx(1.0)

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            Pulse(np.ones((2, 2)), 1e9)

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            Pulse(np.ones(4), 0.0)

    def test_scaled(self):
        pulse = Pulse(np.ones(4), 1e9)
        assert pulse.scaled(3.0).peak_amplitude == pytest.approx(3.0)


class TestGaussianPulse:
    def test_peak_amplitude(self):
        pulse = gaussian_pulse(500e6, SAMPLE_RATE, amplitude=0.15)
        assert pulse.peak_amplitude == pytest.approx(0.15, rel=1e-6)

    def test_bandwidth_close_to_requested(self):
        # The "500 MHz bandwidth" refers to the two-sided (passband) width;
        # the one-sided -10 dB bandwidth of the real baseband pulse is half.
        pulse = gaussian_pulse(500e6, SAMPLE_RATE)
        _, _, bw = bandwidth_at_level(
            np.pad(pulse.waveform, 2048), SAMPLE_RATE, level_db=-10.0,
            nperseg=4096)
        assert 150e6 < bw < 400e6

    def test_symmetry(self):
        pulse = gaussian_pulse(500e6, SAMPLE_RATE)
        wave = pulse.waveform
        assert np.allclose(wave, wave[::-1], atol=1e-12)

    def test_sigma_for_bandwidth_monotone(self):
        assert sigma_for_bandwidth(1e9) < sigma_for_bandwidth(500e6)

    def test_invalid_bandwidth(self):
        with pytest.raises(ValueError):
            gaussian_pulse(0.0, SAMPLE_RATE)

    def test_duration_scales_with_truncation(self):
        short = gaussian_pulse(500e6, SAMPLE_RATE, truncation_sigmas=3.0)
        long = gaussian_pulse(500e6, SAMPLE_RATE, truncation_sigmas=6.0)
        assert long.duration_s > short.duration_s


class TestDerivativePulses:
    def test_monocycle_has_zero_mean(self):
        pulse = gaussian_derivative_pulse(1, 500e6, SAMPLE_RATE)
        assert abs(np.sum(pulse.waveform)) < 1e-6 * np.sum(np.abs(pulse.waveform))

    def test_doublet_is_even_symmetric(self):
        pulse = gaussian_derivative_pulse(2, 500e6, SAMPLE_RATE)
        wave = pulse.waveform
        assert np.allclose(wave, wave[::-1], atol=1e-9)

    def test_monocycle_is_odd_symmetric(self):
        pulse = gaussian_derivative_pulse(1, 500e6, SAMPLE_RATE)
        wave = pulse.waveform
        assert np.allclose(wave, -wave[::-1], atol=1e-9)

    def test_order_zero_is_gaussian(self):
        d0 = gaussian_derivative_pulse(0, 500e6, SAMPLE_RATE)
        g = gaussian_pulse(500e6, SAMPLE_RATE)
        assert np.allclose(d0.waveform, g.waveform / g.peak_amplitude, atol=1e-9)

    def test_higher_order_moves_spectral_peak_up(self):
        def peak_frequency(pulse):
            padded = np.pad(pulse.waveform, 4096)
            freqs, psd = dsp.estimate_psd(padded, SAMPLE_RATE, nperseg=4096)
            return freqs[np.argmax(psd)]
        f1 = peak_frequency(gaussian_derivative_pulse(1, 500e6, SAMPLE_RATE))
        f3 = peak_frequency(gaussian_derivative_pulse(3, 500e6, SAMPLE_RATE))
        assert f3 > f1

    def test_negative_order_raises(self):
        with pytest.raises(ValueError):
            gaussian_derivative_pulse(-1, 500e6, SAMPLE_RATE)


class TestProperties:
    @given(st.floats(min_value=2e8, max_value=2e9))
    @settings(max_examples=20)
    def test_gaussian_energy_positive_and_finite(self, bandwidth):
        pulse = gaussian_pulse(bandwidth, 8e9)
        assert 0 < pulse.energy < np.inf

    @given(st.integers(min_value=0, max_value=5))
    @settings(max_examples=12)
    def test_derivative_peak_normalized(self, order):
        pulse = gaussian_derivative_pulse(order, 500e6, SAMPLE_RATE,
                                          amplitude=1.0)
        assert pulse.peak_amplitude == pytest.approx(1.0, rel=1e-9)
