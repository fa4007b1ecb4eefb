"""Time-interleaved ADC — the gen-1 "2 GSPS 4-way time-interleaved flash ADC".

Interleaving N slices multiplies the aggregate sampling rate by N and, as the
paper notes, "performs an initial 4-way parallelization of the signal" that
the digital back end exploits.  Its costs are the inter-slice gain and
offset mismatches, which every slice's conversion applies.  The per-slice
timing skew is drawn and recorded with the slices, but the converter takes
already-sampled input, so neither the skew nor the aperture jitter moves a
sample.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.adc.flash import FlashADC
from repro.utils.validation import require_int, require_positive

__all__ = ["TimeInterleavedADC"]


@dataclass
class TimeInterleavedADC:
    """N-way time-interleaved converter built from :class:`FlashADC` slices.

    Attributes
    ----------
    slices:
        The per-phase converters.  Mismatch between them (different gain or
        offset errors, different comparator offsets) is what produces the
        classic interleaving spurs.
    aggregate_rate_hz:
        Combined sampling rate; each slice runs at ``aggregate_rate_hz / N``.
    timing_skew_s:
        Optional per-slice deterministic timing skew.
    rms_jitter_s:
        Common aperture jitter of all slices.
    """

    slices: tuple[FlashADC, ...]
    aggregate_rate_hz: float = 2e9
    timing_skew_s: tuple[float, ...] | None = None
    rms_jitter_s: float = 0.0

    def __post_init__(self) -> None:
        if len(self.slices) < 1:
            raise ValueError("need at least one ADC slice")
        require_positive(self.aggregate_rate_hz, "aggregate_rate_hz")
        if self.timing_skew_s is not None \
                and len(self.timing_skew_s) != len(self.slices):
            raise ValueError("timing_skew_s must have one entry per slice")

    @classmethod
    def uniform(cls, num_slices: int = 4, bits: int = 4,
                aggregate_rate_hz: float = 2e9, full_scale: float = 1.0,
                comparator_offset_std: float = 0.0,
                gain_mismatch_std: float = 0.0,
                offset_mismatch_std: float = 0.0,
                timing_skew_std_s: float = 0.0,
                rms_jitter_s: float = 0.0,
                rng: np.random.Generator | None = None) -> "TimeInterleavedADC":
        """Build an interleaved ADC with randomly drawn slice mismatches."""
        require_int(num_slices, "num_slices", minimum=1)
        if rng is None:
            rng = np.random.default_rng()
        slices = []
        for _ in range(num_slices):
            gain_error = (rng.normal(0.0, gain_mismatch_std)
                          if gain_mismatch_std > 0 else 0.0)
            offset_error = (rng.normal(0.0, offset_mismatch_std)
                            if offset_mismatch_std > 0 else 0.0)
            slices.append(FlashADC(bits=bits, full_scale=full_scale,
                                   comparator_offset_std=comparator_offset_std,
                                   gain_error=gain_error,
                                   offset_error=offset_error, rng=rng))
        skew = None
        if timing_skew_std_s > 0:
            skew = tuple(float(s) for s in
                         rng.normal(0.0, timing_skew_std_s, size=num_slices))
        return cls(slices=tuple(slices), aggregate_rate_hz=aggregate_rate_hz,
                   timing_skew_s=skew, rms_jitter_s=rms_jitter_s)

    @property
    def num_slices(self) -> int:
        """Interleaving factor."""
        return len(self.slices)

    @property
    def bits(self) -> int:
        """Resolution of the converter (all slices share it)."""
        return self.slices[0].bits

    def convert_presampled(self, samples) -> np.ndarray:
        """Convert an already-sampled stream (one sample per aggregate period).

        Used when the simulation already produced samples on the ADC grid;
        only the quantization and slice gain/offset mismatches apply.
        Position ``i`` is converted by slice ``i % num_slices``.
        """
        return self.convert_presampled_batch(samples)

    def convert_presampled_batch(self, samples) -> np.ndarray:
        """Convert a batch of already-sampled streams in one pass per slice.

        The batched form of :meth:`convert_presampled`: ``samples`` is
        ``(..., num_samples)`` (typically ``(packets, samples)``) and the
        slice round-robin is preserved exactly — position ``i`` of every
        row is converted by slice ``i % num_slices``, so each row's codes
        are bitwise what :meth:`convert_presampled` would have produced
        for it.  Each slice converts its strided share of every row and
        writes the values straight into its strided view of the output.
        """
        samples = np.asarray(samples, dtype=float)
        output = np.empty(samples.shape)
        for index, adc in enumerate(self.slices):
            output[..., index::self.num_slices] = adc.convert(
                samples[..., index::self.num_slices])
        return output
