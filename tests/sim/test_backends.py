"""Tests for the batch kernels' array helpers against explicit indexing.

``NumpyBackend.symbol_windows``/``quantize_uniform`` (the genie kernel)
and ``gather_windows``/``zero_padded_rows`` (the batched correlator
stages).
"""

import numpy as np
import pytest

from repro.adc.quantizer import UniformQuantizer
from repro.dsp.correlator import gather_windows, zero_padded_rows
from repro.sim.backends import NumpyBackend

HELPERS = NumpyBackend()


class TestSymbolWindows:
    @pytest.mark.parametrize("count, step, length", [
        (6, 8, 8),    # back to back (awgn: reference as long as a symbol)
        (6, 8, 5),    # gaps between windows
        (6, 8, 19),   # overlapping (cm1: reference carries a channel tail)
        (1, 8, 12),   # a single window
    ])
    def test_windows_are_a_view_equal_to_explicit_slices(
            self, rng, count, step, length):
        width = (count - 1) * step + length
        samples = (rng.standard_normal((2, 3, width))
                   + 1j * rng.standard_normal((2, 3, width)))
        windows = HELPERS.symbol_windows(samples, count, step, length)
        assert np.shares_memory(windows, samples)
        assert not windows.flags.writeable
        assert windows.shape == (2, 3, count, length)
        for k in range(count):
            np.testing.assert_array_equal(
                windows[..., k, :], samples[..., k * step:k * step + length])

    def test_windows_over_the_correlators_padded_tail(self, rng):
        # A zero-padded batch whose last (overlapping) window reaches
        # into the pad.
        samples = rng.standard_normal((4, 40))
        count, step, length = 5, 8, 13
        padded = np.pad(samples, [(0, 0), (0, (count - 1) * step + length
                                           - samples.shape[-1])])
        windows = HELPERS.symbol_windows(padded, count, step, length)
        assert np.shares_memory(windows, padded)
        np.testing.assert_array_equal(windows[:, -1, 8:], 0.0)
        np.testing.assert_array_equal(windows[:, -1, :8], samples[:, 32:])
        for k in range(count):
            np.testing.assert_array_equal(
                windows[:, k], padded[:, k * step:k * step + length])

    def test_windows_that_do_not_fit_are_rejected(self, rng):
        samples = rng.standard_normal((2, 40))
        with pytest.raises(ValueError, match="do not fit"):
            HELPERS.symbol_windows(samples, 5, 8, 9)
        with pytest.raises(ValueError, match="do not fit"):
            HELPERS.symbol_windows(samples, 0, 8, 8)
        assert HELPERS.symbol_windows(samples, 5, 8, 8).shape == (2, 5, 8)


def test_quantize_uniform_matches_reference_quantizer(rng):
    samples = rng.uniform(-1.5, 1.5, size=(2, 128))
    quantizer = UniformQuantizer(bits=3, full_scale=1.0)
    np.testing.assert_array_equal(
        HELPERS.quantize_uniform(samples, bits=3, full_scale=1.0),
        quantizer.quantize(samples))
    complex_samples = samples[0] + 1j * samples[1]
    np.testing.assert_array_equal(
        HELPERS.quantize_uniform(complex_samples, bits=3, full_scale=1.0),
        quantizer.quantize(complex_samples))


class TestGatherWindows:
    def test_matches_explicit_gather(self, rng):
        samples = (rng.standard_normal((3, 60))
                   + 1j * rng.standard_normal((3, 60)))
        length = 9
        starts = rng.integers(0, 60 - length + 1, size=(3, 5))
        windows = gather_windows(samples, starts, length)
        assert windows.shape == (3, 5, length)
        for row in range(3):
            for k in range(5):
                start = starts[row, k]
                np.testing.assert_array_equal(
                    windows[row, k], samples[row, start:start + length])

    def test_one_window_per_row(self, rng):
        # The acquisition peak gather: a (packets, 1) start column.
        samples = rng.standard_normal((4, 30))
        starts = np.array([0, 5, 21, 10])[:, None]
        windows = gather_windows(samples, starts, 9)
        assert windows.shape == (4, 1, 9)
        for row, start in enumerate(starts[:, 0]):
            np.testing.assert_array_equal(windows[row, 0],
                                          samples[row, start:start + 9])


class TestZeroPaddedRows:
    def test_matches_the_masked_then_concatenated_batch(self, rng):
        """What the batched stages built before: zero past each valid
        length (np.where), then a zero overhang (np.concatenate)."""
        samples = rng.standard_normal((5, 40)) + 1j * rng.standard_normal(
            (5, 40))
        lengths = np.array([40, 0, 17, 55, -3])
        for width in (10, 40, 63):
            masked = np.where(np.arange(40) < lengths[:, None], samples, 0)
            expected = np.concatenate(
                (masked, np.zeros((5, max(width - 40, 0)))), axis=-1)
            padded = zero_padded_rows(samples, lengths, width)
            assert padded.dtype == samples.dtype
            np.testing.assert_array_equal(padded, expected)
        np.testing.assert_array_equal(
            zero_padded_rows(samples, None, 45)[:, :40], samples)
