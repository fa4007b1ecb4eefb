"""``combine_streams_batch`` against the whole-batch gather it replaced.

The RAKE pads and gathers a block of fingers and a block of packets at a
time, and pads only the samples its windows read.  Every finger x
symbol correlation is its own reduction over the template, so the
blocks must change no float: the oracle is a test-local copy of the
whole-batch version (every row zero-padded to the widest window, one
gather per four fingers over all packets), compared bit for bit on rows
that carry nonzero samples past their valid length, on windows that end
on a row's last sample, and for block budgets that split the packets
into one-row, few-row and whole-batch blocks.
"""

import numpy as np
import pytest

import repro.dsp.rake as rake
from repro.dsp.correlator import gather_windows

FINGER_BLOCK = 4


def _whole_batch(samples, delays, weights, template, period, first,
                 num_symbols, valid_lengths):
    length = template.size
    starts = (first[:, None, None] + delays[:, :, None]
              + np.arange(num_symbols)[None, None, :] * period)
    num_packets, num_samples = samples.shape
    padded = np.zeros((num_packets,
                       max(int(starts.max()) + length, num_samples)),
                      dtype=samples.dtype)
    lengths = (np.full(num_packets, num_samples) if valid_lengths is None
               else np.clip(valid_lengths, 0, num_samples))
    for row, valid in enumerate(lengths):
        padded[row, :valid] = samples[row, :valid]
    fingers = delays.shape[1]
    correlations = np.empty((num_packets, fingers, num_symbols),
                            dtype=np.result_type(samples, template))
    for first_finger in range(0, fingers, FINGER_BLOCK):
        block = slice(first_finger, first_finger + FINGER_BLOCK)
        windows = gather_windows(
            padded, starts[:, block].reshape(num_packets, -1), length)
        correlations[:, block] = np.einsum(
            "pfkl,l->pfk",
            windows.reshape(num_packets, -1, num_symbols, length),
            np.conj(template))
    return np.asarray(np.einsum("pf,pfk->pk", np.conj(weights),
                                correlations), dtype=complex)


def _case(rng, packets, fingers, complex_samples, with_lengths):
    period = int(rng.integers(4, 24))
    num_symbols = int(rng.integers(1, 40))
    length = int(rng.integers(1, 2 * period))
    delays = rng.integers(0, 3 * period, size=(packets, fingers))
    first = rng.integers(0, 20, size=packets)
    # Rows end exactly where the furthest window does, so the last
    # window of the widest row reads the row's last sample.
    width = int((first[:, None] + delays).max()) + (
        num_symbols - 1) * period + length
    samples = rng.normal(size=(packets, width))
    if complex_samples:
        samples = samples + 1j * rng.normal(size=(packets, width))
    template = rng.normal(size=length)
    if complex_samples:
        template = template + 1j * rng.normal(size=length)
    weights = rng.normal(size=(packets, fingers)) \
        + 1j * rng.normal(size=(packets, fingers))
    lengths = None
    if with_lengths:
        # Nonzero samples past each valid length: the RAKE must read
        # zeros there.  A zero-length row and a full row included.
        lengths = rng.integers(0, width + 1, size=packets)
        lengths[0] = 0
        lengths[-1] = width + 5
    return (samples, delays, weights, template, period, first, num_symbols,
            lengths)


@pytest.mark.parametrize("budget", [1, 700, None])
@pytest.mark.parametrize("fingers", [1, 2, 4, 9])
@pytest.mark.parametrize("complex_samples", [False, True])
@pytest.mark.parametrize("with_lengths", [False, True])
def test_blocks_match_the_whole_batch_bitwise(monkeypatch, budget, fingers,
                                              complex_samples, with_lengths):
    if budget is not None:
        monkeypatch.setattr(rake, "_GATHER_SAMPLES", budget)
    rng = np.random.default_rng(
        [fingers, int(complex_samples), int(with_lengths), budget or 0])
    for packets in (1, 3, 11):
        args = _case(rng, packets, fingers, complex_samples, with_lengths)
        (samples, delays, weights, template, period, first, num_symbols,
         lengths) = args
        got = rake.combine_streams_batch(
            samples, delays, weights, template, period, first, num_symbols,
            valid_lengths=lengths)
        expected = _whole_batch(*args)
        assert got.dtype == expected.dtype == complex
        np.testing.assert_array_equal(got.view(float), expected.view(float))


def test_wide_rows_pad_only_what_the_windows_read():
    # A header-length call on long rows: the padded block holds the
    # windows' span, not the whole capture.
    import tracemalloc
    rng = np.random.default_rng(5)
    samples = rng.normal(size=(16, 200_000))
    delays = np.zeros((16, 2), dtype=np.int64)
    weights = np.ones((16, 2), dtype=complex)
    tracemalloc.start()
    try:
        rake.combine_streams_batch(samples, delays, weights, np.ones(8), 8,
                                   np.zeros(16, dtype=np.int64), 40,
                                   valid_lengths=np.full(16, 200_000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6, f"{peak / 1e6:.1f} MB for windows over 328 samples"
