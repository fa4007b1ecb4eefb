"""Automatic gain control ahead of the ADC.

With only 5 bits (gen 2) or 4 bits (gen 1) of resolution, the received
signal must be scaled so it neither clips nor disappears into the bottom
LSBs.  The AGC measures the signal envelope over a window and scales toward
a target RMS expressed as a fraction (backoff) of the ADC full scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.dsp import row_blocks
from repro.utils.validation import require_positive

__all__ = ["AutomaticGainControl"]


@dataclass
class AutomaticGainControl:
    """Feed-forward block AGC.

    Attributes
    ----------
    target_rms:
        Desired RMS level at the ADC input.
    max_gain, min_gain:
        Gain limits of the variable-gain amplifier being modelled.
    """

    target_rms: float = 0.25
    max_gain: float = 1e4
    min_gain: float = 1e-4

    def __post_init__(self) -> None:
        require_positive(self.target_rms, "target_rms")
        require_positive(self.max_gain, "max_gain")
        require_positive(self.min_gain, "min_gain")
        if self.min_gain > self.max_gain:
            raise ValueError("min_gain must not exceed max_gain")

    def compute_gain(self, samples) -> float:
        """Gain that brings the buffer's RMS to the target (within limits)."""
        samples = np.asarray(samples)
        rms = float(np.sqrt(np.mean(np.abs(samples) ** 2))) if samples.size else 0.0
        if rms <= 0:
            return self.max_gain
        return float(np.clip(self.target_rms / rms, self.min_gain, self.max_gain))

    def apply(self, samples) -> tuple[np.ndarray, float]:
        """Scale the buffer; returns ``(scaled_samples, gain_used)``."""
        gain = self.compute_gain(samples)
        return np.asarray(samples) * gain, gain

    def _gains_from_peaks(self, peaks, full_scale: float,
                          peak_backoff_db: float) -> np.ndarray:
        """The gain that puts each peak ``peak_backoff_db`` below full scale.

        Zero peaks (silent buffers) get ``max_gain``.  A non-finite peak
        raises ``ValueError``: no gain makes a NaN or infinite sample fit
        the converter's range.
        """
        peaks = np.asarray(peaks, dtype=float)
        if not np.all(np.isfinite(peaks)):
            raise ValueError("AGC input must be finite: a buffer's peak "
                             "is NaN or infinite")
        target_peak = full_scale * 10.0 ** (-peak_backoff_db / 20.0)
        gains = np.clip(target_peak / np.where(peaks > 0, peaks, 1.0),
                        self.min_gain, self.max_gain)
        return np.where(peaks > 0, gains, self.max_gain)

    def apply_from_peak(self, samples, full_scale: float,
                        peak_backoff_db: float = 3.0) -> tuple[np.ndarray, float]:
        """Alternative policy: place the buffer's peak ``peak_backoff_db`` below full scale.

        Raises ``ValueError`` when the buffer holds a NaN or infinite
        sample.
        """
        require_positive(full_scale, "full_scale")
        samples = np.asarray(samples)
        peak = float(np.max(np.abs(samples))) if samples.size else 0.0
        gain = float(self._gains_from_peaks(peak, full_scale,
                                            peak_backoff_db))
        if peak <= 0:
            return samples.copy(), gain
        return samples * gain, gain

    def apply_from_peak_batch(self, samples, full_scale: float,
                              peak_backoff_db: float = 3.0
                              ) -> tuple[np.ndarray, np.ndarray]:
        """Per-row :meth:`apply_from_peak` over a ``(..., samples)`` batch.

        Each row is scaled by its own peak-derived gain, exactly the gain
        :meth:`apply_from_peak` computes for that row alone (bitwise: the
        row peak, clip and multiply are the same scalar operations), so
        the batched front ends stay sample-identical to the per-packet
        AGC.  Rows padded with trailing zeros are safe — zeros never move
        a peak.  All-zero rows come back unchanged (times ``max_gain``,
        like the scalar method reports).  A row holding a NaN or infinite
        sample raises ``ValueError``, as the scalar method does.  Rows are
        measured and scaled a block at a time
        (:func:`~repro.utils.dsp.row_blocks`).  Returns ``(scaled,
        gains)`` with ``gains`` shaped like the leading axes.
        """
        require_positive(full_scale, "full_scale")
        samples = np.asarray(samples)
        rows = samples.reshape(-1, samples.shape[-1])
        scaled = np.empty(rows.shape,
                          dtype=np.result_type(samples.dtype, np.float64))
        gains = np.empty(rows.shape[0])
        for block in row_blocks(*rows.shape):
            peaks = np.max(np.abs(rows[block]), axis=-1)
            gains[block] = self._gains_from_peaks(peaks, full_scale,
                                                  peak_backoff_db)
            np.multiply(rows[block], gains[block, None], out=scaled[block])
        return (scaled.reshape(samples.shape),
                gains.reshape(samples.shape[:-1]))
