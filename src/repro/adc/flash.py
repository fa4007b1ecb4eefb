"""Flash ADC model (the gen-1 converter slice).

A flash converter compares the input against ``2^bits - 1`` reference levels
simultaneously.  Its dominant error source is comparator offset: each
threshold is displaced by a random offset, which produces DNL/INL and, if
severe, missing codes.  The gen-1 chip uses four of these slices in a
time-interleaved arrangement to reach 2 GSPS (see ``interleaved.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.utils.validation import require_int, require_non_negative, require_positive

__all__ = ["FlashADC"]


@dataclass
class FlashADC:
    """Flash quantizer with per-comparator threshold offsets.

    Attributes
    ----------
    bits:
        Resolution; the converter uses ``2^bits - 1`` comparators.
    full_scale:
        Input range ``[-full_scale, +full_scale]``.
    comparator_offset_std:
        Standard deviation of each comparator's threshold offset, in volts.
    gain_error, offset_error:
        Static gain and offset errors of the whole slice (relevant for
        interleaving mismatch).
    rng:
        Generator used to draw the comparator offsets at construction.
    """

    bits: int = 4
    full_scale: float = 1.0
    comparator_offset_std: float = 0.0
    gain_error: float = 0.0
    offset_error: float = 0.0
    rng: np.random.Generator | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        require_int(self.bits, "bits", minimum=1)
        require_positive(self.full_scale, "full_scale")
        require_non_negative(self.comparator_offset_std, "comparator_offset_std")
        rng = self.rng if self.rng is not None else np.random.default_rng()
        num_thresholds = (1 << self.bits) - 1
        step = 2.0 * self.full_scale / (1 << self.bits)
        ideal = -self.full_scale + step * (np.arange(num_thresholds) + 1.0)
        offsets = (rng.normal(0.0, self.comparator_offset_std, size=num_thresholds)
                   if self.comparator_offset_std > 0 else np.zeros(num_thresholds))
        # A real flash ADC's thermometer-to-binary encoder counts how many
        # comparators fired, so the effective thresholds act in sorted order.
        self._thresholds = np.sort(ideal + offsets)
        self._step = step

    @property
    def num_levels(self) -> int:
        """Number of output codes."""
        return 1 << self.bits

    def convert_codes(self, x) -> np.ndarray:
        """Convert input voltages to output codes in ``[0, 2^bits - 1]``.

        ``x`` may carry any leading batch axes — the thresholds broadcast
        against ``(packets, samples)`` input, which is how the batched
        time-interleaved front end converts a whole Monte-Carlo batch in
        one call.
        """
        x = np.asarray(x, dtype=float)
        x = (1.0 + self.gain_error) * x + self.offset_error
        # Each sample's code is the number of thresholds below it.
        return np.searchsorted(self._thresholds, x,
                               side="right").astype(np.int64)

    def codes_to_values(self, codes) -> np.ndarray:
        """Nominal reconstruction values (ideal bin centres) for codes."""
        codes = np.asarray(codes, dtype=np.int64)
        return (codes.astype(float) + 0.5) * self._step - self.full_scale

    def convert(self, x) -> np.ndarray:
        """Convert and reconstruct (the value the digital back end works with).

        Broadcasts like :meth:`convert_codes`, so a ``(packets, samples)``
        batch converts in one call.
        """
        x = np.asarray(x)
        if np.iscomplexobj(x):
            return (self.codes_to_values(self.convert_codes(x.real))
                    + 1j * self.codes_to_values(self.convert_codes(x.imag)))
        return self.codes_to_values(self.convert_codes(x))
