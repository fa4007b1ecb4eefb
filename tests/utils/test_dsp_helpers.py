"""Tests for the generic DSP helpers."""

import numpy as np
import pytest

from repro.utils import dsp


class TestEnergyAndPower:
    def test_energy_of_unit_impulse(self):
        x = np.zeros(16)
        x[3] = 1.0
        assert dsp.signal_energy(x) == pytest.approx(1.0)

    def test_power_of_constant(self):
        assert dsp.signal_power(2.0 * np.ones(100)) == pytest.approx(4.0)

    def test_complex_energy_uses_magnitude(self):
        x = np.array([1.0 + 1.0j, 1.0 - 1.0j])
        assert dsp.signal_energy(x) == pytest.approx(4.0)

    def test_empty_signal_power_is_zero(self):
        assert dsp.signal_power(np.zeros(0)) == 0.0

    def test_rms_of_sine(self):
        t = np.linspace(0, 1, 10000, endpoint=False)
        x = np.sin(2 * np.pi * 5 * t)
        assert dsp.rms(x) == pytest.approx(1.0 / np.sqrt(2.0), rel=1e-3)


class TestNormalization:
    def test_normalize_peak(self):
        x = np.array([0.1, -0.7, 0.3])
        y = dsp.normalize_peak(x, target_peak=2.0)
        assert np.max(np.abs(y)) == pytest.approx(2.0)


class TestUpConversion:
    def test_upconvert_is_the_real_part_of_the_modulated_envelope(self):
        fs = 20e9
        fc = 5e9
        n = 4000
        t = np.arange(n) / fs
        envelope = np.exp(-((t - t[n // 2]) / 1e-9) ** 2) * np.exp(0.4j)
        passband = dsp.upconvert(envelope, fc, fs, phase_rad=0.3)
        expected = np.real(envelope * np.exp(1j * (2 * np.pi * fc * t + 0.3)))
        assert np.allclose(passband, expected, atol=1e-12)

    def test_upconvert_is_real(self):
        fs = 20e9
        envelope = np.ones(100, dtype=complex)
        passband = dsp.upconvert(envelope, 5e9, fs)
        assert np.isrealobj(passband)


class TestFilters:
    def test_lowpass_removes_high_frequency(self):
        fs = 1e9
        n = 4096
        t = np.arange(n) / fs
        low = np.sin(2 * np.pi * 10e6 * t)
        high = np.sin(2 * np.pi * 400e6 * t)
        filtered = dsp.lowpass_filter(low + high, 50e6, fs)
        # High tone attenuated strongly, low tone preserved.
        assert np.std(filtered - low) < 0.1

    def test_lowpass_invalid_cutoff_raises(self):
        with pytest.raises(ValueError):
            dsp.lowpass_filter(np.zeros(64), 600e6, 1e9)

    def test_complex_lowpass_preserves_dtype(self):
        x = np.ones(256, dtype=complex)
        out = dsp.lowpass_filter(x, 100e6, 1e9)
        assert np.iscomplexobj(out)


class TestSpectral:
    def test_psd_peak_at_tone_frequency(self):
        fs = 1e9
        n = 16384
        t = np.arange(n) / fs
        x = np.sin(2 * np.pi * 100e6 * t)
        freqs, psd = dsp.estimate_psd(x, fs)
        assert abs(freqs[np.argmax(psd)] - 100e6) < 5e6

    def test_complex_psd_is_two_sided(self):
        fs = 1e9
        n = 8192
        t = np.arange(n) / fs
        x = np.exp(-1j * 2 * np.pi * 100e6 * t)
        freqs, psd = dsp.estimate_psd(x, fs)
        assert freqs.min() < 0
        assert abs(freqs[np.argmax(psd)] + 100e6) < 5e6

    def test_occupied_bandwidth_of_narrowband_tone(self):
        fs = 1e9
        n = 16384
        t = np.arange(n) / fs
        x = np.sin(2 * np.pi * 100e6 * t)
        bw = dsp.occupied_bandwidth(x, fs, power_fraction=0.99)
        assert bw < 20e6

    def test_occupied_bandwidth_invalid_fraction(self):
        with pytest.raises(ValueError):
            dsp.occupied_bandwidth(np.ones(128), 1e9, power_fraction=1.5)

    def test_occupied_bandwidth_zero_signal(self):
        assert dsp.occupied_bandwidth(np.zeros(1024), 1e9) == 0.0


class TestMisc:
    def test_time_vector_length_and_step(self):
        t = dsp.time_vector(10, 2e9)
        assert t.size == 10
        assert t[1] - t[0] == pytest.approx(0.5e-9)

    def test_time_vector_invalid(self):
        with pytest.raises(ValueError):
            dsp.time_vector(-1, 1e9)
        with pytest.raises(ValueError):
            dsp.time_vector(10, 0.0)
