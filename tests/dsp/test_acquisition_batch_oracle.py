"""``CoarseAcquisition.acquire_batch`` against its oracles.

``acquire_batch`` takes the CFAR median of a packet's searched raw
correlation only when the normalized peak misses ``threshold``
(detection is ``peak >= threshold`` or ``cfar >= cfar_factor``), and
``acquire`` and ``acquire_batch`` share that detection rule.  The
oracles are per-row :meth:`CoarseAcquisition.acquire` (decisions and
timing) and a test-local copy of the eager loop the batch used to run,
which took every searched packet's median (every field, bitwise).  Rows
cover detection by the threshold alone, by the CFAR ratio alone, by
neither, and rows too short to search, with a search step above one and a
capped search.
"""

import numpy as np
import pytest

from repro.dsp.acquisition import AcquisitionConfig, CoarseAcquisition
from repro.dsp.correlator import (
    gather_windows,
    sliding_correlation_batch,
)
from repro.dsp.parallelizer import acquisition_time_s


def _eager_batch(acquisition, samples, valid_lengths):
    """The batch acquisition loop before the lazy median: every searched
    packet's CFAR ratio, then the same detection rule."""
    config = acquisition.config
    num_packets = samples.shape[0]
    raw = np.abs(sliding_correlation_batch(samples, acquisition.template))
    timing = np.zeros(num_packets, dtype=np.int64)
    peak = np.zeros(num_packets)
    hypotheses = np.zeros(num_packets, dtype=np.int64)
    search_time = np.zeros(num_packets)
    cfar = np.zeros(num_packets)
    raw_peak = np.zeros(num_packets)
    template_size = acquisition.template.size
    for index in range(num_packets):
        metric_size = max(int(valid_lengths[index]) - template_size + 1, 0)
        if metric_size == 0:
            continue
        offsets = np.arange(0, metric_size, config.search_step_samples)
        if config.max_search_samples is not None:
            offsets = offsets[offsets < config.max_search_samples]
        searched_raw = raw[index, offsets]
        best_index = int(np.argmax(searched_raw))
        timing[index] = int(offsets[best_index])
        raw_peak[index] = float(searched_raw[best_index])
        median_raw = float(np.median(searched_raw))
        cfar[index] = (raw_peak[index] / median_raw if median_raw > 0
                       else np.inf)
        hypotheses[index] = offsets.size
        search_time[index] = acquisition_time_s(
            num_hypotheses=offsets.size, parallelism=config.parallelism,
            backend_clock_hz=config.backend_clock_hz)
    windows = gather_windows(samples, timing[:, None], template_size)
    local_energy = np.sum(np.abs(windows) ** 2, axis=-1)[:, 0]
    template_energy = float(np.sum(np.abs(acquisition.template) ** 2))
    denom = np.sqrt(np.maximum(np.maximum(local_energy, 0.0)
                               * template_energy, 1e-30))
    searched = hypotheses > 0
    peak[searched] = raw_peak[searched] / denom[searched]
    detected = searched & ((peak >= config.threshold)
                           | (cfar >= config.cfar_factor))
    return detected, timing, peak, hypotheses, search_time, cfar


def _template(rng, length=64):
    return rng.choice([-1.0, 1.0], length) * np.hanning(length + 2)[1:-1]


def _batch(rng, template, width=900):
    """Rows built to exercise each branch of the detection rule."""
    rows, lengths = [], []
    clean = np.zeros(width)
    clean[200:200 + template.size] = template
    rows.append(clean)                                   # threshold
    lengths.append(width)
    weak = 0.6 * rng.standard_normal(width)
    weak[300:300 + template.size] += template
    rows.append(weak)                                    # CFAR
    lengths.append(width)
    rows.append(rng.standard_normal(width))              # neither
    lengths.append(width)
    rows.append(np.zeros(width))                         # silent row
    lengths.append(width)
    short = rng.standard_normal(width)
    rows.append(short)                                   # too short
    lengths.append(template.size - 1)
    rows.append(rng.standard_normal(width))              # zero length
    lengths.append(0)
    padded = 0.3 * rng.standard_normal(width)
    padded[50:50 + template.size] += template
    rows.append(padded)                                  # padded row
    lengths.append(500)
    for _ in range(5):
        row = rng.uniform(0.2, 1.5) * rng.standard_normal(width)
        start = int(rng.integers(0, width - template.size))
        row[start:start + template.size] += template
        rows.append(row)
        lengths.append(int(rng.integers(template.size, width + 1)))
    batch = np.asarray(rows)
    lengths = np.asarray(lengths)
    for index, length in enumerate(lengths):
        batch[index, length:] = 0.0
    return batch, lengths


CONFIGS = {
    "default": AcquisitionConfig(),
    "threshold only": AcquisitionConfig(threshold=0.3, cfar_factor=1e9),
    "cfar only": AcquisitionConfig(threshold=1.0, cfar_factor=6.0),
    "step 3": AcquisitionConfig(threshold=0.5, search_step_samples=3),
    "capped": AcquisitionConfig(threshold=0.5, search_step_samples=2,
                                max_search_samples=400),
}


@pytest.mark.parametrize("name", CONFIGS)
@pytest.mark.parametrize("seed", range(3))
def test_batch_is_the_eager_loop_bitwise(name, seed):
    rng = np.random.default_rng(seed)
    template = _template(rng)
    samples, lengths = _batch(rng, template)
    acquisition = CoarseAcquisition(template, CONFIGS[name])
    result = acquisition.acquire_batch(samples, valid_lengths=lengths)
    detected, timing, peak, hypotheses, search_time, cfar = _eager_batch(
        acquisition, samples, lengths)
    assert np.array_equal(result.detected, detected)
    assert np.array_equal(result.timing_offset_samples, timing)
    assert np.array_equal(result.peak_metric, peak)
    assert np.array_equal(result.num_hypotheses_searched, hypotheses)
    assert np.array_equal(result.search_time_s, search_time)


@pytest.mark.parametrize("name", CONFIGS)
@pytest.mark.parametrize("seed", range(3))
def test_batch_decisions_are_per_row_acquire(name, seed):
    rng = np.random.default_rng(10 + seed)
    template = _template(rng)
    samples, lengths = _batch(rng, template)
    acquisition = CoarseAcquisition(template, CONFIGS[name])
    result = acquisition.acquire_batch(samples, valid_lengths=lengths)
    for index, length in enumerate(lengths):
        single = acquisition.acquire(samples[index, :length])
        assert result.detected[index] == single.detected, index
        assert result.timing_offset_samples[index] \
            == single.timing_offset_samples, index
        assert result.num_hypotheses_searched[index] \
            == single.num_hypotheses_searched, index


def test_rows_cover_every_branch_of_the_rule():
    """The batch rows reach each branch: detected by the threshold,
    detected only by the CFAR ratio, and not detected."""
    rng = np.random.default_rng(0)
    template = _template(rng)
    samples, lengths = _batch(rng, template)
    config = CONFIGS["default"]
    acquisition = CoarseAcquisition(template, config)
    detected, _, peak, hypotheses, _, cfar = _eager_batch(
        acquisition, samples, lengths)
    by_threshold = detected & (peak >= config.threshold)
    by_cfar_only = detected & (peak < config.threshold)
    missed = (hypotheses > 0) & ~detected
    assert by_threshold.any() and by_cfar_only.any() and missed.any()
    assert np.all(cfar[by_cfar_only] >= config.cfar_factor)
    assert (hypotheses == 0).sum() == 2


def test_median_is_taken_only_below_the_threshold(monkeypatch):
    rng = np.random.default_rng(1)
    template = _template(rng)
    samples, lengths = _batch(rng, template)
    acquisition = CoarseAcquisition(template, CONFIGS["default"])
    reference = acquisition.acquire_batch(samples, valid_lengths=lengths)
    sizes = []
    median = np.median
    monkeypatch.setattr(np, "median",
                        lambda values: sizes.append(values.size)
                        or median(values))
    result = acquisition.acquire_batch(samples, valid_lengths=lengths)
    below = (reference.num_hypotheses_searched > 0) \
        & (reference.peak_metric < acquisition.config.threshold)
    assert len(sizes) == int(below.sum()) < int(
        (reference.num_hypotheses_searched > 0).sum())
    assert np.array_equal(result.detected, reference.detected)


def test_a_peak_exactly_at_the_threshold_is_detected():
    """``peak >= threshold``: a packet whose normalized peak equals the
    threshold is detected by it, in the batch and per packet."""
    rng = np.random.default_rng(4)
    template = _template(rng)
    samples, lengths = _batch(rng, template)
    probe = CoarseAcquisition(template, AcquisitionConfig(threshold=0.5))
    peaks = probe.acquire_batch(samples, valid_lengths=lengths).peak_metric
    row = 1     # noise under the preamble: a finite CFAR ratio
    assert 0.0 < peaks[row] < 1.0
    config = AcquisitionConfig(threshold=float(peaks[row]), cfar_factor=1e9)
    acquisition = CoarseAcquisition(template, config)
    result = acquisition.acquire_batch(samples, valid_lengths=lengths)
    assert result.peak_metric[row] == config.threshold
    assert result.detected[row]
    assert np.array_equal(result.detected, _eager_batch(
        acquisition, samples, lengths)[0])
