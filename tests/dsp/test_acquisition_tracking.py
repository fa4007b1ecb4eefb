"""Tests for coarse acquisition (parallel preamble search)."""

import numpy as np
import pytest

from repro.channel.awgn import awgn
from repro.dsp.acquisition import AcquisitionConfig, CoarseAcquisition
from repro.phy.preamble import PreambleConfig, build_preamble_symbols
from repro.pulses.shapes import gaussian_pulse


def _preamble_waveform(samples_per_chip=8, degree=5, repetitions=2,
                       sample_rate=1e9):
    """A sampled preamble waveform and its template."""
    pulse = gaussian_pulse(500e6, sample_rate)
    template_pulse = pulse.waveform[:samples_per_chip]
    chips = build_preamble_symbols(PreambleConfig(sequence_degree=degree,
                                                  num_repetitions=repetitions))
    waveform = np.zeros(chips.size * samples_per_chip)
    for index, chip in enumerate(chips):
        start = index * samples_per_chip
        waveform[start:start + template_pulse.size] += chip * template_pulse
    return waveform


class TestCoarseAcquisition:
    def test_finds_known_offset_noiseless(self):
        template = _preamble_waveform()
        offset = 173
        samples = np.concatenate((np.zeros(offset), template, np.zeros(200)))
        acquisition = CoarseAcquisition(template, AcquisitionConfig(threshold=0.5))
        result = acquisition.acquire(samples)
        assert result.detected
        assert result.timing_offset_samples == offset
        assert result.peak_metric == pytest.approx(1.0, abs=1e-6)

    def test_finds_offset_with_noise(self, rng):
        template = _preamble_waveform()
        offset = 250
        samples = np.concatenate((np.zeros(offset), template, np.zeros(100)))
        noisy = awgn(samples, 0.3, rng=rng)
        acquisition = CoarseAcquisition(template,
                                        AcquisitionConfig(threshold=0.3))
        result = acquisition.acquire(noisy)
        assert result.detected
        assert abs(result.timing_error_samples(offset)) <= 2

    def test_noise_only_not_detected(self, rng):
        template = _preamble_waveform()
        noise = rng.standard_normal(2000)
        acquisition = CoarseAcquisition(template,
                                        AcquisitionConfig(threshold=0.3))
        result = acquisition.acquire(noise)
        assert not result.detected

    def test_false_alarm_statistics_low(self, rng):
        template = _preamble_waveform()
        acquisition = CoarseAcquisition(template)
        mean_metric, max_metric = acquisition.detection_statistics(
            rng.standard_normal(3000))
        assert mean_metric < 0.1
        assert max_metric < 0.3

    def test_search_time_scales_with_parallelism(self):
        template = _preamble_waveform()
        samples = np.concatenate((np.zeros(100), template, np.zeros(100)))
        slow = CoarseAcquisition(template, AcquisitionConfig(
            parallelism=1, backend_clock_hz=100e6)).acquire(samples)
        fast = CoarseAcquisition(template, AcquisitionConfig(
            parallelism=16, backend_clock_hz=100e6)).acquire(samples)
        assert slow.search_time_s > 10 * fast.search_time_s

    def test_empty_input(self):
        template = _preamble_waveform()
        result = CoarseAcquisition(template).acquire(np.zeros(4))
        assert not result.detected

    def test_search_step_reduces_hypotheses(self):
        template = _preamble_waveform()
        samples = np.concatenate((np.zeros(64), template, np.zeros(64)))
        fine = CoarseAcquisition(template, AcquisitionConfig(
            search_step_samples=1)).acquire(samples)
        coarse = CoarseAcquisition(template, AcquisitionConfig(
            search_step_samples=4)).acquire(samples)
        assert coarse.num_hypotheses_searched < fine.num_hypotheses_searched

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            AcquisitionConfig(threshold=0.0)
        with pytest.raises(ValueError):
            AcquisitionConfig(threshold=1.5)
