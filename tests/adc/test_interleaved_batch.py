"""Property tests for the batched time-interleaved ADC.

Hypothesis-style seeded sweeps (randomized slice counts, per-slice
mismatches, waveform lengths — including lengths not divisible by the
interleave factor) pin the two contracts the batched gen-1 front end
stands on:

* ``parallel_streams`` reassembly is the identity with respect to
  ``convert_presampled``: interleaving the per-slice streams back in
  round-robin order reproduces the aggregate converted stream exactly;
* batch equals loop: ``convert_presampled_batch`` /
  ``sample_and_convert_batch`` are bitwise the per-row methods, row for
  row, with the jittered sampling consuming a shared generator in the
  same per-row order.
"""

import numpy as np
import pytest

from repro.adc.interleaved import TimeInterleavedADC, interleave_streams


def _random_adc(rng, num_slices=None, with_jitter=False):
    if num_slices is None:
        num_slices = int(rng.integers(1, 6))
    return TimeInterleavedADC.uniform(
        num_slices=num_slices,
        bits=int(rng.integers(2, 7)),
        aggregate_rate_hz=2e9,
        comparator_offset_std=float(rng.uniform(0.0, 0.02)),
        gain_mismatch_std=float(rng.uniform(0.0, 0.05)),
        offset_mismatch_std=float(rng.uniform(0.0, 0.02)),
        timing_skew_std_s=(4e-12 if with_jitter else 0.0),
        rms_jitter_s=(2e-12 if with_jitter else 0.0),
        rng=rng)


class TestParallelStreamsIdentity:
    """Reassembling the slice streams is convert_presampled."""

    @pytest.mark.parametrize("seed", range(8))
    def test_round_robin_reassembly(self, seed):
        rng = np.random.default_rng(seed)
        adc = _random_adc(rng)
        # Deliberately include lengths not divisible by the slice count.
        num_samples = int(rng.integers(1, 400))
        samples = rng.uniform(-1.2, 1.2, size=num_samples)
        streams = adc.parallel_streams(samples)
        assert len(streams) == adc.num_slices
        reassembled = np.zeros(num_samples)
        for index, stream in enumerate(streams):
            assert stream.size == len(range(index, num_samples,
                                            adc.num_slices))
            reassembled[index::adc.num_slices] = stream
        assert np.array_equal(reassembled, adc.convert_presampled(samples))

    @pytest.mark.parametrize("seed", range(4))
    def test_interleave_streams_matches_manual_scatter(self, seed):
        """The primitive the batch path uses for the reassembly must
        agree with the manual strided scatter above."""
        rng = np.random.default_rng(100 + seed)
        adc = _random_adc(rng)
        num_samples = int(rng.integers(1, 300))
        samples = rng.uniform(-1.0, 1.0, size=num_samples)
        streams = adc.parallel_streams(samples)
        merged = interleave_streams(streams, num_samples)
        assert np.array_equal(merged, adc.convert_presampled(samples))


class TestBatchEqualsLoop:
    """The batched conversions are the per-row methods, bitwise."""

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
                                  adc.convert_presampled(batch[row])), row

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
                                      adc.convert_presampled(batch[i, j]))

    @pytest.mark.parametrize("seed", range(6))
    def test_sample_and_convert_batch_matches_loop(self, seed):
        """Jitter + skew: the batch consumes a seeded rng in exactly the
        per-waveform order, so results are bitwise the loop's."""
        rng = np.random.default_rng(3000 + seed)
        adc = _random_adc(rng, with_jitter=True)
        num_packets = int(rng.integers(1, 5))
        num_samples = int(rng.integers(50, 400))
        waveform_rate = 8e9
        waveforms = rng.uniform(-1.0, 1.0,
                                size=(num_packets, num_samples))
        loop_rng = np.random.default_rng(99 + seed)
        looped = [adc.sample_and_convert(row, waveform_rate, rng=loop_rng)
                  for row in waveforms]
        batch_rng = np.random.default_rng(99 + seed)
        batched = adc.sample_and_convert_batch(waveforms, waveform_rate,
                                               rng=batch_rng)
        assert batched.shape == (num_packets, looped[0].size)
        for row in range(num_packets):
            assert np.array_equal(batched[row], looped[row]), row

    def test_sample_and_convert_batch_rejects_1d(self):
        adc = _random_adc(np.random.default_rng(0))
        with pytest.raises(ValueError, match="2-D"):
            adc.sample_and_convert_batch(np.zeros(32), 8e9)
