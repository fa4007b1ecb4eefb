"""Tests for the spectral monitor and the digital notch."""

import numpy as np
import pytest

from repro.channel.interference import ToneInterferer
from repro.dsp.notch import DigitalNotchFilter
from repro.dsp.spectral_monitor import (
    SpectralMonitor,
    SpectralMonitorConfig,
)
from repro.utils import dsp

SAMPLE_RATE = 1e9


def _uwb_plus_interferer(rng, interferer_frequency=120e6, sir_db=-10.0,
                         num_samples=8192):
    """Wideband noise-like UWB signal plus a narrowband tone."""
    signal = (rng.standard_normal(num_samples)
              + 1j * rng.standard_normal(num_samples)) * 0.1
    signal_power = dsp.signal_power(signal)
    tone_power = signal_power / 10 ** (sir_db / 10.0)
    tone = ToneInterferer(frequency_hz=interferer_frequency,
                          amplitude=np.sqrt(tone_power))
    return tone.add_to(signal, SAMPLE_RATE)


class TestSpectralMonitor:
    def test_detects_strong_interferer(self, rng):
        samples = _uwb_plus_interferer(rng, sir_db=-15.0)
        monitor = SpectralMonitor(SAMPLE_RATE)
        report = monitor.analyze(samples)
        assert report.detected

    def test_no_detection_without_interferer(self, rng):
        signal = (rng.standard_normal(8192) + 1j * rng.standard_normal(8192))
        monitor = SpectralMonitor(SAMPLE_RATE)
        report = monitor.analyze(signal)
        assert not report.detected

    def test_frequency_estimate_accuracy(self, rng):
        true_frequency = 137e6
        samples = _uwb_plus_interferer(rng, interferer_frequency=true_frequency,
                                       sir_db=-15.0)
        monitor = SpectralMonitor(SAMPLE_RATE)
        report = monitor.analyze(samples)
        bin_spacing = SAMPLE_RATE / monitor.config.fft_size
        assert report.frequency_error_hz(true_frequency) < bin_spacing

    def test_negative_frequency_interferer(self, rng):
        samples = _uwb_plus_interferer(rng, interferer_frequency=-200e6,
                                       sir_db=-15.0)
        report = SpectralMonitor(SAMPLE_RATE).analyze(samples)
        assert report.detected
        assert report.frequency_hz < 0

    def test_detection_probability_high_at_low_sir(self, rng):
        monitor = SpectralMonitor(SAMPLE_RATE)
        probability = monitor.detection_probability(
            lambda: _uwb_plus_interferer(rng, sir_db=-20.0), num_trials=10)
        assert probability >= 0.9

    def test_detection_probability_low_without_interferer(self, rng):
        monitor = SpectralMonitor(SAMPLE_RATE)
        probability = monitor.detection_probability(
            lambda: (rng.standard_normal(8192)
                     + 1j * rng.standard_normal(8192)), num_trials=10)
        assert probability <= 0.2

    def test_too_few_samples_raises(self):
        monitor = SpectralMonitor(SAMPLE_RATE)
        with pytest.raises(ValueError):
            monitor.analyze(np.zeros(16))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SpectralMonitorConfig(fft_size=4)
        with pytest.raises(ValueError):
            SpectralMonitorConfig(detection_threshold_db=0.0)


class TestDigitalNotch:
    def test_removes_tone(self):
        n = np.arange(8192)
        tone = np.exp(1j * 2 * np.pi * 100e6 * n / SAMPLE_RATE)
        notch = DigitalNotchFilter(notch_frequency_hz=100e6,
                                   sample_rate_hz=SAMPLE_RATE)
        out = notch.apply(tone)
        # Ignore the transient at the start.
        assert dsp.signal_power(out[2000:]) < 0.02

    def test_preserves_distant_content(self):
        n = np.arange(8192)
        tone = np.exp(1j * 2 * np.pi * 300e6 * n / SAMPLE_RATE)
        notch = DigitalNotchFilter(notch_frequency_hz=100e6,
                                   sample_rate_hz=SAMPLE_RATE)
        out = notch.apply(tone)
        assert dsp.signal_power(out[2000:]) > 0.8

    def test_rejection_values(self):
        notch = DigitalNotchFilter(notch_frequency_hz=100e6,
                                   sample_rate_hz=SAMPLE_RATE)
        assert notch.rejection_at_db(100e6) > 30.0
        assert notch.rejection_at_db(400e6) < 1.0

    def test_negative_frequency_notch(self):
        n = np.arange(8192)
        tone = np.exp(-1j * 2 * np.pi * 150e6 * n / SAMPLE_RATE)
        notch = DigitalNotchFilter(notch_frequency_hz=-150e6,
                                   sample_rate_hz=SAMPLE_RATE)
        out = notch.apply(tone)
        assert dsp.signal_power(out[2000:]) < 0.02

    def test_invalid_pole_radius(self):
        with pytest.raises(ValueError):
            DigitalNotchFilter(100e6, SAMPLE_RATE, pole_radius=1.5)
