"""Tests for the correlators, the acquisition-latency arithmetic and the AGC."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dsp.agc import AutomaticGainControl
from repro.dsp.correlator import (
    normalized_correlation,
    normalized_correlation_batch,
    sliding_correlation,
    sliding_correlation_batch,
)
from repro.dsp.parallelizer import (
    acquisition_clock_cycles,
    acquisition_time_s,
)


class TestSlidingCorrelation:
    def test_peak_at_template_position(self):
        rng = np.random.default_rng(0)
        template = rng.standard_normal(32)
        samples = np.zeros(256)
        samples[100:132] = template
        correlation = sliding_correlation(samples, template)
        assert int(np.argmax(np.abs(correlation))) == 100

    def test_peak_value_is_template_energy(self):
        template = np.array([1.0, -2.0, 3.0])
        samples = np.concatenate((np.zeros(5), template, np.zeros(5)))
        correlation = sliding_correlation(samples, template)
        assert np.max(correlation) == pytest.approx(np.sum(template ** 2))

    def test_complex_correlation_conjugates_template(self):
        template = np.array([1.0 + 1.0j, 0.5 - 0.5j])
        samples = np.concatenate((np.zeros(3, dtype=complex), template,
                                  np.zeros(3, dtype=complex)))
        correlation = sliding_correlation(samples, template)
        peak = correlation[np.argmax(np.abs(correlation))]
        # At the aligned position the correlation is the template energy (real).
        assert peak.real == pytest.approx(np.sum(np.abs(template) ** 2), rel=1e-6)
        assert abs(peak.imag) < 1e-9

    def test_short_input_returns_empty(self):
        assert sliding_correlation(np.ones(3), np.ones(5)).size == 0

    def test_matches_numpy_correlate(self):
        rng = np.random.default_rng(1)
        samples = rng.standard_normal(200)
        template = rng.standard_normal(17)
        ours = sliding_correlation(samples, template)
        reference = np.correlate(samples, template, mode="valid")
        assert np.allclose(ours, reference, atol=1e-9)


class TestNormalizedCorrelation:
    def test_perfect_match_gives_one(self):
        rng = np.random.default_rng(2)
        template = rng.standard_normal(64)
        samples = np.concatenate((np.zeros(32), template, np.zeros(32)))
        metric = np.abs(normalized_correlation(samples, template))
        assert np.max(metric) == pytest.approx(1.0, abs=1e-6)

    def test_bounded_by_one(self):
        rng = np.random.default_rng(3)
        samples = rng.standard_normal(500)
        template = rng.standard_normal(32)
        metric = np.abs(normalized_correlation(samples, template))
        assert np.all(metric <= 1.0 + 1e-9)

    def test_scale_invariance(self):
        rng = np.random.default_rng(4)
        template = rng.standard_normal(32)
        samples = np.concatenate((rng.standard_normal(50) * 0.1, template,
                                  np.zeros(20)))
        metric1 = np.abs(normalized_correlation(samples, template))
        metric2 = np.abs(normalized_correlation(samples * 100.0, template))
        assert np.allclose(metric1, metric2, atol=1e-6)


class TestBatchedCorrelation:
    @staticmethod
    def _rows(dtype):
        rng = np.random.default_rng(10)
        samples = rng.standard_normal((4, 200))
        template = rng.standard_normal(24)
        if dtype is complex:
            samples = samples + 1j * rng.standard_normal((4, 200))
            template = template + 1j * rng.standard_normal(24)
        samples[1, 50:74] += 3.0 * template
        return samples, template

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_sliding_batch_matches_per_row(self, dtype):
        samples, template = self._rows(dtype)
        batch = sliding_correlation_batch(samples, template)
        assert batch.shape == (4, 200 - 24 + 1)
        for row, out in zip(samples, batch):
            assert np.allclose(out, sliding_correlation(row, template),
                               atol=1e-9)

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_normalized_batch_matches_per_row(self, dtype):
        samples, template = self._rows(dtype)
        batch = normalized_correlation_batch(samples, template)
        assert np.all(np.abs(batch) <= 1.0 + 1e-9)
        for row, out in zip(samples, batch):
            assert np.allclose(out, normalized_correlation(row, template),
                               atol=1e-9)
        assert int(np.argmax(np.abs(batch[1]))) == 50

    def test_template_longer_than_buffer_gives_empty_rows(self):
        out = sliding_correlation_batch(np.ones((3, 5)), np.ones(8))
        assert out.shape == (3, 0)
        assert normalized_correlation_batch(np.ones((3, 5)),
                                            np.ones(8)).shape == (3, 0)


class TestAcquisitionLatency:
    def test_acquisition_cycles(self):
        assert acquisition_clock_cycles(1000, 1) == 1000
        assert acquisition_clock_cycles(1000, 16) == 63
        assert acquisition_clock_cycles(1000, 16,
                                        integrations_per_hypothesis=4) == 252

    def test_acquisition_time_scales_inversely_with_parallelism(self):
        serial = acquisition_time_s(4096, 1, 100e6)
        parallel = acquisition_time_s(4096, 16, 100e6)
        assert serial / parallel == pytest.approx(16.0, rel=0.01)

    @given(st.integers(min_value=1, max_value=10000),
           st.integers(min_value=1, max_value=64))
    @settings(max_examples=40)
    def test_cycles_cover_all_hypotheses(self, hypotheses, parallelism):
        cycles = acquisition_clock_cycles(hypotheses, parallelism)
        assert cycles * parallelism >= hypotheses
        assert (cycles - 1) * parallelism < hypotheses


class TestAGC:
    def test_scales_to_target_rms(self):
        agc = AutomaticGainControl(target_rms=0.25)
        x = 3.0 * np.random.default_rng(0).standard_normal(10000)
        scaled, gain = agc.apply(x)
        assert np.std(scaled) == pytest.approx(0.25, rel=0.02)
        assert gain < 1.0

    def test_gain_limits(self):
        agc = AutomaticGainControl(target_rms=1.0, max_gain=10.0)
        x = 1e-9 * np.ones(100)
        _, gain = agc.apply(x)
        assert gain == pytest.approx(10.0)

    def test_zero_signal_uses_max_gain(self):
        agc = AutomaticGainControl()
        _, gain = agc.apply(np.zeros(100))
        assert gain == agc.max_gain

    def test_peak_mode_backoff(self):
        agc = AutomaticGainControl()
        x = np.concatenate((np.zeros(100), [2.0]))
        scaled, _ = agc.apply_from_peak(x, full_scale=1.0, peak_backoff_db=6.0)
        assert np.max(np.abs(scaled)) == pytest.approx(10 ** (-6 / 20), rel=1e-6)

    def test_complex_input(self):
        agc = AutomaticGainControl(target_rms=0.5)
        x = (np.random.default_rng(1).standard_normal(5000)
             + 1j * np.random.default_rng(2).standard_normal(5000))
        scaled, _ = agc.apply(x)
        assert np.sqrt(np.mean(np.abs(scaled) ** 2)) == pytest.approx(0.5,
                                                                      rel=0.02)

    def test_invalid_limits(self):
        with pytest.raises(ValueError):
            AutomaticGainControl(min_gain=10.0, max_gain=1.0)

    @pytest.mark.parametrize("rms, expected_gain", [
        (0.5, 0.5),      # target / rms inside the limits
        (1e-3, 100.0),   # clipped to max_gain
        (1e3, 0.01),     # clipped to min_gain
    ])
    def test_compute_gain_clips_target_over_rms(self, rms, expected_gain):
        agc = AutomaticGainControl(target_rms=0.25, max_gain=100.0,
                                   min_gain=0.01)
        samples = rms * np.array([1.0, -1.0, 1.0, -1.0])
        assert agc.compute_gain(samples) == pytest.approx(expected_gain)

    def test_peak_batch_matches_per_row_bit_for_bit(self):
        agc = AutomaticGainControl(max_gain=50.0)
        rng = np.random.default_rng(11)
        samples = rng.standard_normal((4, 64)) + 1j * rng.standard_normal(
            (4, 64))
        samples[2] = 0.0
        samples[3] *= 1e-6
        scaled, gains = agc.apply_from_peak_batch(samples, full_scale=1.0,
                                                  peak_backoff_db=4.0)
        assert gains.shape == (4,)
        for row, row_scaled, gain in zip(samples, scaled, gains):
            expected, expected_gain = agc.apply_from_peak(
                row, full_scale=1.0, peak_backoff_db=4.0)
            assert gain == expected_gain
            assert np.array_equal(row_scaled, expected)
        assert gains[2] == gains[3] == 50.0

    def test_peak_batch_over_many_row_blocks_matches_per_row(self):
        """Rows wide and many enough to span several row blocks, real
        and complex, with leading batch axes."""
        agc = AutomaticGainControl()
        rng = np.random.default_rng(12)
        for samples in (rng.standard_normal((2, 37, 3001)),
                        rng.standard_normal((70, 2001))
                        + 1j * rng.standard_normal((70, 2001))):
            scaled, gains = agc.apply_from_peak_batch(samples, 1.0, 1.0)
            assert gains.shape == samples.shape[:-1]
            for index in np.ndindex(samples.shape[:-1]):
                expected, gain = agc.apply_from_peak(samples[index], 1.0, 1.0)
                assert gains[index] == gain
                assert np.array_equal(scaled[index], expected)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_peaks_are_rejected(self, bad):
        """A NaN or infinite sample has no gain that fits it: both the
        per-packet and the batched AGC raise instead of returning
        max_gain (batch) or a NaN gain (scalar)."""
        agc = AutomaticGainControl()
        samples = np.ones((3, 16), dtype=complex)
        samples[1, 5] = bad
        with pytest.raises(ValueError, match="finite"):
            agc.apply_from_peak(samples[1], full_scale=1.0)
        with pytest.raises(ValueError, match="finite"):
            agc.apply_from_peak_batch(samples, full_scale=1.0)
        with pytest.raises(ValueError, match="finite"):
            agc.apply_from_peak_batch(samples.real, full_scale=1.0)
