"""Property tests for the batched time-interleaved ADC.

Hypothesis-style seeded sweeps (randomized slice counts, per-slice
mismatches, waveform lengths — including lengths not divisible by the
interleave factor) pin the two contracts the batched gen-1 front end
stands on:

* slice reassembly is the identity with respect to
  ``convert_presampled``: converting each slice's strided share and
  interleaving the streams back in round-robin order reproduces the
  aggregate converted stream exactly;
* batch equals loop: ``convert_presampled_batch`` is bitwise that
  reassembly, row for row.
"""

import numpy as np
import pytest

from repro.adc.interleaved import TimeInterleavedADC


def _random_adc(rng, num_slices=None):
    if num_slices is None:
        num_slices = int(rng.integers(1, 6))
    return TimeInterleavedADC.uniform(
        num_slices=num_slices,
        bits=int(rng.integers(2, 7)),
        aggregate_rate_hz=2e9,
        comparator_offset_std=float(rng.uniform(0.0, 0.02)),
        gain_mismatch_std=float(rng.uniform(0.0, 0.05)),
        offset_mismatch_std=float(rng.uniform(0.0, 0.02)),
        rng=rng)


def _slice_streams(adc, samples):
    """Each slice's conversion of its own strided share of ``samples``."""
    return [converter.convert(samples[index::adc.num_slices])
            for index, converter in enumerate(adc.slices)]


def _reassembled(adc, samples):
    """The round-robin scatter of :func:`_slice_streams` into one stream."""
    out = np.empty(samples.shape)
    for index, stream in enumerate(_slice_streams(adc, samples)):
        out[index::adc.num_slices] = stream
    return out


class TestParallelStreamsIdentity:
    """Reassembling the slice streams is convert_presampled."""

    @pytest.mark.parametrize("seed", range(8))
    def test_round_robin_reassembly(self, seed):
        rng = np.random.default_rng(seed)
        adc = _random_adc(rng)
        # Deliberately include lengths not divisible by the slice count.
        num_samples = int(rng.integers(1, 400))
        samples = rng.uniform(-1.2, 1.2, size=num_samples)
        streams = _slice_streams(adc, samples)
        reassembled = np.zeros(num_samples)
        for index, stream in enumerate(streams):
            assert stream.size == len(range(index, num_samples,
                                            adc.num_slices))
            reassembled[index::adc.num_slices] = stream
        assert np.array_equal(reassembled, adc.convert_presampled(samples))

class TestBatchEqualsLoop:
    """The batched conversion is the per-row slice reassembly, bitwise."""

    @pytest.mark.parametrize("seed", range(10))
    def test_convert_presampled_batch(self, seed):
        rng = np.random.default_rng(1000 + seed)
        adc = _random_adc(rng)
        num_packets = int(rng.integers(1, 7))
        num_samples = int(rng.integers(1, 500))
        batch = rng.uniform(-1.5, 1.5, size=(num_packets, num_samples))
        # Random per-row DC offsets exercise different code regions.
        batch += rng.uniform(-0.3, 0.3, size=(num_packets, 1))
        converted = adc.convert_presampled_batch(batch)
        assert converted.shape == batch.shape
        for row in range(num_packets):
            assert np.array_equal(converted[row],
                                  _reassembled(adc, batch[row])), row

    @pytest.mark.parametrize("seed", range(4))
    def test_convert_presampled_batch_leading_axes(self, seed):
        """Any leading batch shape broadcasts (the ADC only cares about
        the sample axis)."""
        rng = np.random.default_rng(2000 + seed)
        adc = _random_adc(rng)
        batch = rng.uniform(-1.0, 1.0, size=(2, 3, 61))
        converted = adc.convert_presampled_batch(batch)
        for i in range(2):
            for j in range(3):
                assert np.array_equal(converted[i, j],
                                      _reassembled(adc, batch[i, j]))
