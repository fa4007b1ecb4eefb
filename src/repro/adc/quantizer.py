"""Ideal uniform quantizer — the reference all ADC models build on.

The resolution question is central to the paper: "A 1-bit analog-to-digital
converter in a noise limited regime, and a 4-bit ADC in a narrowband
interferer regime are sufficient."  Every ADC model in this subpackage
reduces to this uniform quantizer plus architecture-specific impairments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.validation import require_int, require_positive

__all__ = ["UniformQuantizer", "ideal_sndr_db"]


def ideal_sndr_db(bits: int) -> float:
    """Ideal full-scale sine-wave SNDR of a ``bits``-bit quantizer (6.02 N + 1.76)."""
    require_int(bits, "bits", minimum=1)
    return 6.02 * bits + 1.76


@dataclass
class UniformQuantizer:
    """Mid-rise uniform quantizer with saturation.

    Attributes
    ----------
    bits:
        Resolution in bits (1 bit = a comparator / sign detector).
    full_scale:
        Input range is ``[-full_scale, +full_scale]``.
    """

    bits: int
    full_scale: float = 1.0

    def __post_init__(self) -> None:
        require_int(self.bits, "bits", minimum=1)
        require_positive(self.full_scale, "full_scale")

    @property
    def num_levels(self) -> int:
        """Number of output codes."""
        return 1 << self.bits

    @property
    def step(self) -> float:
        """LSB size."""
        return 2.0 * self.full_scale / self.num_levels

    def _float_codes(self, x, out: np.ndarray) -> np.ndarray:
        """Saturated codes as floats, computed in ``out``.

        Clipping in float (before any integer cast) saturates every
        out-of-range input, ``±inf`` included, to the nearest end code.
        """
        np.add(x, self.full_scale, out=out, dtype=float)
        out /= self.step
        np.floor(out, out=out)
        return out.clip(0, self.num_levels - 1, out=out)

    def codes_to_values(self, codes) -> np.ndarray:
        """Reconstruction values (bin centres) for integer codes."""
        codes = np.asarray(codes, dtype=np.int64)
        return (codes.astype(float) + 0.5) * self.step - self.full_scale

    def _reconstruct(self, x, out: np.ndarray) -> np.ndarray:
        """Bin centres of real ``x``, written into the float array ``out``."""
        self._float_codes(x, out)
        out += 0.5
        out *= self.step
        out -= self.full_scale
        return out

    def quantize(self, x) -> np.ndarray:
        """Quantize real input (or complex input component-wise).

        Out-of-range values, ``±inf`` included, saturate to the end
        codes; NaN propagates to the output.  Complex input is quantized
        straight into the real and imaginary parts of one output array.
        """
        x = np.asarray(x)
        if np.iscomplexobj(x):
            x = np.asarray(x, dtype=complex, order="C")
            out = np.empty(x.shape, dtype=complex)
            # Both parts in one contiguous pass over the interleaved
            # (real, imag) float view of input and output.
            self._reconstruct(x[..., None].view(float),
                              out[..., None].view(float))
            return out
        return self._reconstruct(x, np.empty(x.shape))

    def quantization_noise_power(self) -> float:
        """Theoretical in-range quantization noise power, step^2 / 12."""
        return self.step ** 2 / 12.0

    def measured_sndr_db(self, amplitude: float | None = None,
                         num_samples: int = 4096,
                         frequency_fraction: float = 0.013) -> float:
        """Measure SNDR with a full-scale (or given-amplitude) sine-wave test.

        A single-tone test at a non-harmonically-related frequency, the way
        an ADC would be characterized on the bench.
        """
        if amplitude is None:
            amplitude = self.full_scale * (1.0 - 1.0 / self.num_levels)
        n = np.arange(num_samples)
        tone = amplitude * np.sin(2.0 * np.pi * frequency_fraction * n)
        quantized = self.quantize(tone)
        error = quantized - tone
        signal_power = np.mean(tone ** 2)
        error_power = np.mean(error ** 2)
        if error_power <= 0:
            return float("inf")
        return float(10.0 * np.log10(signal_power / error_power))
