"""Automatic gain control ahead of the ADC.

With only 5 bits (gen 2) or 4 bits (gen 1) of resolution, the received
signal must be scaled so it neither clips nor disappears into the bottom
LSBs.  The AGC measures the signal envelope over a window and scales toward
a target RMS expressed as a fraction (backoff) of the ADC full scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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

    def apply_from_peak(self, samples, full_scale: float,
                        peak_backoff_db: float = 3.0) -> tuple[np.ndarray, float]:
        """Alternative policy: place the buffer's peak ``peak_backoff_db`` below full scale."""
        require_positive(full_scale, "full_scale")
        samples = np.asarray(samples)
        peak = float(np.max(np.abs(samples))) if samples.size else 0.0
        if peak <= 0:
            return samples.copy(), self.max_gain
        target_peak = full_scale * 10.0 ** (-peak_backoff_db / 20.0)
        gain = float(np.clip(target_peak / peak, self.min_gain, self.max_gain))
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
        like the scalar method reports).  Returns ``(scaled, gains)`` with
        ``gains`` shaped like the leading axes.
        """
        require_positive(full_scale, "full_scale")
        samples = np.asarray(samples)
        peaks = np.max(np.abs(samples), axis=-1)
        target_peak = full_scale * 10.0 ** (-peak_backoff_db / 20.0)
        gains = np.clip(target_peak / np.where(peaks > 0, peaks, 1.0),
                        self.min_gain, self.max_gain)
        gains = np.where(peaks > 0, gains, self.max_gain)
        return samples * gains[..., None], gains
