"""Fixed-point quantization helpers for the digital back end.

The paper's digital back end works on quantized samples (5-bit SAR ADC
outputs) and a channel estimate held "with a precision of up to four bits".
These helpers model signed fixed-point words with saturation, the way a
hardware datapath would hold them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["FixedPointFormat"]


@dataclass(frozen=True)
class FixedPointFormat:
    """A signed fixed-point format with ``total_bits`` bits spanning ``full_scale``.

    The representable range is ``[-full_scale, +full_scale)`` divided into
    ``2**total_bits`` uniform steps (mid-rise convention on the analog side,
    two's-complement integer codes on the digital side).
    """

    total_bits: int
    full_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.total_bits < 1:
            raise ValueError("total_bits must be >= 1")
        if self.full_scale <= 0:
            raise ValueError("full_scale must be positive")

    @property
    def num_levels(self) -> int:
        """Number of distinct codes."""
        return 1 << self.total_bits

    @property
    def step(self) -> float:
        """Quantization step (LSB size) in the analog units of ``full_scale``."""
        return 2.0 * self.full_scale / self.num_levels

    @property
    def min_code(self) -> int:
        return -(self.num_levels // 2)

    @property
    def max_code(self) -> int:
        return self.num_levels // 2 - 1

    def quantize_to_codes(self, x) -> np.ndarray:
        """Quantize real values to integer codes with saturation."""
        x = np.asarray(x, dtype=float)
        codes = np.floor(x / self.step).astype(np.int64)
        return np.clip(codes, self.min_code, self.max_code)

    def codes_to_values(self, codes) -> np.ndarray:
        """Convert integer codes back to reconstructed analog values."""
        codes = np.asarray(codes, dtype=np.int64)
        if np.any(codes < self.min_code) or np.any(codes > self.max_code):
            raise ValueError("codes out of range for this format")
        return (codes.astype(float) + 0.5) * self.step

    def quantize(self, x) -> np.ndarray:
        """Quantize real (or complex, component-wise) values to reconstruction levels."""
        x = np.asarray(x)
        if np.iscomplexobj(x):
            real = self.codes_to_values(self.quantize_to_codes(x.real))
            imag = self.codes_to_values(self.quantize_to_codes(x.imag))
            return real + 1j * imag
        return self.codes_to_values(self.quantize_to_codes(x))
