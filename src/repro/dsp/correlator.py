"""Correlator bank — the workhorse of both digital back ends.

Fig. 1 and Fig. 3 both show banks of correlators fed by the (parallelized)
ADC samples.  A correlator multiplies the incoming samples by a stored
template and accumulates; everything downstream — acquisition, tracking,
channel estimation, RAKE combining, demodulation — is built from sliding or
symbol-aligned correlations against appropriate templates.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import signal as sp_signal

__all__ = ["sliding_correlation", "normalized_correlation",
           "sliding_correlation_batch", "normalized_correlation_batch",
           "gather_windows", "zero_padded_rows"]


def sliding_correlation(samples, template) -> np.ndarray:
    """Sliding (cross-)correlation of ``samples`` against ``template``.

    Output index ``k`` is ``sum_n samples[k + n] * conj(template[n])`` for
    every alignment where the template fits entirely inside the sample
    buffer (``'valid'`` correlation).  This is what a hardware correlator
    sliding one sample per clock computes.
    """
    samples = np.asarray(samples)
    template = np.asarray(template)
    if template.size == 0 or samples.size < template.size:
        return np.zeros(0, dtype=complex if (np.iscomplexobj(samples)
                                             or np.iscomplexobj(template)) else float)
    # FFT-based correlation: orders of magnitude faster than the direct form
    # for the long preamble templates the acquisition search uses.
    return sp_signal.fftconvolve(samples, np.conj(template[::-1]), mode="valid")


def normalized_correlation(samples, template) -> np.ndarray:
    """Sliding correlation normalized by the local signal and template energy.

    The output is bounded to [0, 1] in magnitude, making threshold choices
    independent of the received signal level — the practical detector
    statistic for packet acquisition under unknown gain.
    """
    samples = np.asarray(samples)
    template = np.asarray(template)
    raw = sliding_correlation(samples, template)
    if raw.size == 0:
        return raw
    template_energy = float(np.sum(np.abs(template) ** 2))
    window = np.ones(template.size)
    local_energy = sp_signal.fftconvolve(np.abs(samples) ** 2, window,
                                         mode="valid")
    # fftconvolve can produce tiny negative values from round-off.
    local_energy = np.maximum(local_energy.real, 0.0)
    denom = np.sqrt(np.maximum(local_energy * template_energy, 1e-30))
    return raw / denom


def gather_windows(samples, starts, length: int) -> np.ndarray:
    """Per-row windows: ``(B, n)`` samples, ``(B, k)`` starts -> ``(B, k, L)``.

    Window ``j`` of row ``b`` is ``samples[b, s:s + length]`` with
    ``s = starts[b, j]``.  Every batch row brings its own window start indices — what the
    batched full-stack receiver needs, where each packet's acquisition
    timing shifts its channel-estimation and RAKE windows.  ``samples``
    carries a leading batch axis matching ``starts``' first axis, and
    every ``start + length`` must fit in ``n`` (callers pad the sample
    batch).  Fancy indexing into a ``sliding_window_view`` is ~4x faster
    than ``take_along_axis`` on the channel estimator's large gathers.
    """
    samples = np.asarray(samples)
    starts = np.asarray(starts, dtype=np.int64)
    view = sliding_window_view(samples, length, axis=-1)
    batch_index = np.arange(samples.shape[0])
    batch_index = batch_index.reshape((-1,) + (1,) * (starts.ndim - 1))
    return view[batch_index, starts]


def sliding_correlation_batch(samples, template) -> np.ndarray:
    """Sliding correlation of a ``(..., num_samples)`` batch of buffers.

    The batched form of :func:`sliding_correlation`: output column ``k`` of
    each row is ``sum_n samples[..., k + n] * conj(template[n])`` for every
    alignment where the template fits (``'valid'``), computed for the whole
    batch in one FFT pass.  Rows padded to a common length produce the
    same *decisions* as per-row calls; the floats can differ at rounding
    level because the FFT length follows the padded batch width.
    """
    samples = np.asarray(samples)
    template = np.asarray(template)
    num = int(samples.shape[-1])
    length = int(template.shape[-1])
    if length == 0 or num < length:
        dtype = complex if (np.iscomplexobj(samples)
                            or np.iscomplexobj(template)) else float
        return np.zeros(samples.shape[:-1] + (0,), dtype=dtype)
    kernel = np.conj(template[::-1]).reshape(
        (1,) * (samples.ndim - 1) + (length,))
    full = sp_signal.fftconvolve(samples, kernel, mode="full", axes=-1)
    return full[..., length - 1:num]


def normalized_correlation_batch(samples, template) -> np.ndarray:
    """Batched :func:`normalized_correlation` over ``(..., num_samples)``.

    Each row's output is the sliding correlation normalized by the local
    signal and template energy, magnitude-bounded to [0, 1] — the detector
    statistic :meth:`CoarseAcquisition.acquire_batch` thresholds.
    """
    samples = np.asarray(samples)
    template = np.asarray(template)
    raw = sliding_correlation_batch(samples, template)
    if raw.shape[-1] == 0:
        return raw
    length = int(template.shape[-1])
    num = int(samples.shape[-1])
    template_energy = float(np.sum(np.abs(template) ** 2))
    window = np.ones((1,) * (samples.ndim - 1) + (length,))
    local_energy = sp_signal.fftconvolve(np.abs(samples) ** 2, window,
                                         mode="full",
                                         axes=-1)[..., length - 1:num]
    local_energy = np.maximum(np.real(local_energy), 0.0)
    denom = np.sqrt(np.maximum(local_energy * template_energy, 1e-30))
    return raw / denom


def zero_padded_rows(samples, valid_lengths, width: int) -> np.ndarray:
    """``(rows, n)`` samples in a zeroed ``(rows, max(width, n))`` buffer.

    Row ``b`` keeps its first ``valid_lengths[b]`` samples (all ``n``
    when ``valid_lengths`` is None) and is zero after them, so windows
    gathered past a packet's end read exactly the zeros the per-packet
    truncation implies, and windows up to ``width`` stay in bounds.  One
    allocation and one copy per row, for the batched correlator stages
    ahead of :func:`gather_windows`.
    """
    samples = np.asarray(samples)
    num_rows, num_samples = samples.shape
    out = np.zeros((num_rows, max(int(width), num_samples)),
                   dtype=samples.dtype)
    if valid_lengths is None:
        out[:, :num_samples] = samples
        return out
    lengths = np.clip(np.asarray(valid_lengths, dtype=np.int64), 0,
                      num_samples)
    for row, length in enumerate(lengths.tolist()):
        out[row, :length] = samples[row, :length]
    return out
