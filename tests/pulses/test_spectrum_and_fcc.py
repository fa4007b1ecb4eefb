"""Tests for spectral analysis, the FCC mask, and modulated pulses."""

import numpy as np
import pytest

from repro.constants import (
    FCC_EIRP_LIMIT_DBM_PER_MHZ,
    FIG4_AMPLITUDE_V,
    FIG4_CARRIER_HZ,
)
from repro.pulses.fcc_mask import (
    check_mask_compliance,
    fcc_indoor_mask_dbm_per_mhz,
    in_band_average_psd_dbm_per_mhz,
    max_compliant_scale,
    psd_dbm_per_mhz,
)
from repro.pulses.modulated import fig4_prototype_pulse, modulated_gaussian_pulse
from repro.pulses.shapes import gaussian_pulse
from repro.pulses.spectrum import (
    SpectrumSummary,
    bandwidth_at_level,
    fractional_bandwidth,
    summarize_spectrum,
)
from repro.utils import dsp


class TestFCCMask:
    def test_in_band_limit(self):
        assert fcc_indoor_mask_dbm_per_mhz(5e9) == pytest.approx(
            FCC_EIRP_LIMIT_DBM_PER_MHZ)

    def test_gps_band_is_most_protected(self):
        assert fcc_indoor_mask_dbm_per_mhz(1.2e9) == pytest.approx(-75.3)

    def test_below_960mhz(self):
        assert fcc_indoor_mask_dbm_per_mhz(500e6) == pytest.approx(-41.3)

    def test_above_band(self):
        assert fcc_indoor_mask_dbm_per_mhz(11e9) == pytest.approx(-51.3)

    def test_array_input(self):
        freqs = np.array([1.2e9, 5e9, 11e9])
        mask = fcc_indoor_mask_dbm_per_mhz(freqs)
        assert mask.shape == freqs.shape
        assert mask[1] == pytest.approx(-41.3)

    @pytest.mark.parametrize("frequency_hz, limit", [
        (0.959e9, -41.3), (0.96e9, -75.3), (1.61e9, -53.3), (1.99e9, -51.3),
        (3.09e9, -51.3), (3.1e9, -41.3), (10.59e9, -41.3), (10.6e9, -51.3)])
    def test_segment_edges(self, frequency_hz, limit):
        # Each segment is closed at its lower edge and open at its upper.
        assert fcc_indoor_mask_dbm_per_mhz(frequency_hz) == \
            pytest.approx(limit)

    def test_mask_monotone_segments(self):
        # Inside 3.1-10.6 GHz the mask is flat at the in-band limit.
        freqs = np.linspace(3.2e9, 10.5e9, 50)
        assert np.all(fcc_indoor_mask_dbm_per_mhz(freqs) == -41.3)


class TestCompliance:
    def _pulse_train_waveform(self, amplitude):
        # A repetitive pulse waveform at complex baseband, 2 GS/s.
        pulse = gaussian_pulse(500e6, 2e9, amplitude=amplitude)
        single = pulse.waveform.astype(complex)
        period = np.zeros(40, dtype=complex)
        period[:single.size] += single[:40]
        return np.tile(period, 100)

    def test_small_signal_compliant(self):
        waveform = self._pulse_train_waveform(1e-4)
        report = check_mask_compliance(waveform, 2e9, carrier_hz=5e9)
        assert report.compliant
        assert report.worst_margin_db > 0

    def test_large_signal_not_compliant(self):
        waveform = self._pulse_train_waveform(10.0)
        report = check_mask_compliance(waveform, 2e9, carrier_hz=5e9)
        assert not report.compliant

    def test_max_compliant_scale_produces_compliance(self):
        waveform = self._pulse_train_waveform(1.0)
        scale = max_compliant_scale(waveform, 2e9, carrier_hz=5e9)
        report = check_mask_compliance(waveform * scale, 2e9, carrier_hz=5e9)
        assert report.compliant

    def test_psd_units_scale_with_power(self):
        waveform = self._pulse_train_waveform(1.0)
        _, psd1 = psd_dbm_per_mhz(waveform, 2e9)
        _, psd2 = psd_dbm_per_mhz(waveform * 10.0, 2e9)
        # 20 dB more amplitude -> 20 dB more PSD.
        assert np.median(psd2 - psd1) == pytest.approx(20.0, abs=0.5)

    @pytest.mark.parametrize("backoff_db", [0.0, 0.5, 3.0])
    def test_max_compliant_scale_leaves_exactly_the_backoff(self, backoff_db):
        waveform = self._pulse_train_waveform(1.0)
        scale = max_compliant_scale(waveform, 2e9, carrier_hz=5e9,
                                    backoff_db=backoff_db)
        report = check_mask_compliance(waveform * scale, 2e9, carrier_hz=5e9)
        assert report.worst_margin_db == pytest.approx(backoff_db, abs=1e-9)

    def test_report_arrays_cover_only_non_negative_frequencies(self):
        report = check_mask_compliance(self._pulse_train_waveform(1e-3), 2e9,
                                       carrier_hz=0.5e9)
        assert report.frequencies_hz.min() >= 0.0
        assert (report.frequencies_hz.shape == report.psd_dbm_per_mhz.shape
                == report.mask_dbm_per_mhz.shape)
        margin = report.mask_dbm_per_mhz - report.psd_dbm_per_mhz
        assert report.worst_margin_db == pytest.approx(margin.min())
        assert report.worst_frequency_hz == \
            report.frequencies_hz[np.argmin(margin)]

    def test_in_band_average_moves_with_the_amplitude_in_db(self):
        low = in_band_average_psd_dbm_per_mhz(
            self._pulse_train_waveform(1e-3), 2e9, carrier_hz=5e9)
        high = in_band_average_psd_dbm_per_mhz(
            self._pulse_train_waveform(1e-2), 2e9, carrier_hz=5e9)
        assert high - low == pytest.approx(20.0, abs=1e-6)

    def test_in_band_average_needs_in_band_content(self):
        with pytest.raises(ValueError, match="3.1-10.6 GHz"):
            in_band_average_psd_dbm_per_mhz(self._pulse_train_waveform(1.0),
                                            2e9, carrier_hz=0.0)

    def test_in_band_average(self):
        waveform = self._pulse_train_waveform(1e-3)
        value = in_band_average_psd_dbm_per_mhz(waveform, 2e9, carrier_hz=5e9)
        assert np.isfinite(value)


class TestSpectrumSummary:
    def test_gaussian_pulse_is_uwb(self):
        pulse = gaussian_pulse(600e6, 4e9)
        padded = np.pad(pulse.waveform, 4096)
        assert summarize_spectrum(padded, 4e9).qualifies_as_uwb

    def test_narrowband_tone_is_not_uwb(self):
        t = np.arange(16384) / 4e9
        tone = np.sin(2 * np.pi * 1e9 * t)
        assert not summarize_spectrum(tone, 4e9,
                                      carrier_hz=0.0).qualifies_as_uwb

    @pytest.mark.parametrize("bandwidth_hz, fractional, expected", [
        (500e6, 0.05, True),    # the 500 MHz absolute floor
        (499e6, 0.2, True),     # the 0.2 fractional floor
        (499e6, 0.19, False),   # neither
        (2e9, 0.5, True),       # both
    ])
    def test_qualifies_as_uwb_is_either_fcc_criterion(self, bandwidth_hz,
                                                      fractional, expected):
        summary = SpectrumSummary(peak_frequency_hz=4e9,
                                  bandwidth_10db_hz=bandwidth_hz,
                                  occupied_bandwidth_99_hz=bandwidth_hz,
                                  fractional_bandwidth=fractional,
                                  center_frequency_hz=4e9)
        assert summary.qualifies_as_uwb is expected

    def test_bandwidth_at_level_requires_negative_level(self):
        with pytest.raises(ValueError):
            bandwidth_at_level(np.ones(1024), 1e9, level_db=3.0)

    def test_summary_center_frequency_with_carrier(self):
        pulse = gaussian_pulse(500e6, 2e9)
        padded = np.pad(pulse.waveform.astype(complex), 4096)
        summary = summarize_spectrum(padded, 2e9, carrier_hz=5e9)
        assert abs(summary.center_frequency_hz - 5e9) < 0.3e9

    def test_fractional_bandwidth_decreases_with_carrier(self):
        pulse = gaussian_pulse(500e6, 2e9)
        padded = np.pad(pulse.waveform.astype(complex), 4096)
        low = fractional_bandwidth(padded, 2e9, carrier_hz=3.35e9)
        high = fractional_bandwidth(padded, 2e9, carrier_hz=10.35e9)
        assert low > high


class TestModulatedPulses:
    def test_fig4_pulse_parameters(self):
        pulse = fig4_prototype_pulse()
        assert pulse.carrier_hz == pytest.approx(FIG4_CARRIER_HZ)
        assert pulse.peak_amplitude == pytest.approx(FIG4_AMPLITUDE_V, rel=1e-6)
        # Spans the full 5.8 ns oscilloscope window.
        assert pulse.duration_s >= 5.7e-9

    def test_fig4_occupied_bandwidth(self):
        pulse = fig4_prototype_pulse()
        bw = dsp.occupied_bandwidth(pulse.passband, pulse.sample_rate_hz,
                                    power_fraction=0.99,
                                    nperseg=min(pulse.num_samples, 4096))
        assert 200e6 < bw < 1.2e9

    def test_modulated_pulse_nyquist_check(self):
        with pytest.raises(ValueError):
            modulated_gaussian_pulse(5e9, 500e6, sample_rate_hz=6e9)

    def test_envelope_and_passband_lengths_match(self):
        pulse = modulated_gaussian_pulse(5e9, 500e6)
        assert pulse.passband.size == pulse.envelope.size

    def test_default_sample_rate_satisfies_nyquist(self):
        pulse = modulated_gaussian_pulse(10.35e9, 500e6)
        assert pulse.sample_rate_hz > 2 * (10.35e9 + 250e6)

    def test_spectral_peak_near_carrier(self):
        pulse = modulated_gaussian_pulse(5e9, 500e6)
        summary = summarize_spectrum(pulse.passband, pulse.sample_rate_hz)
        assert abs(summary.peak_frequency_hz - 5e9) < 0.5e9
