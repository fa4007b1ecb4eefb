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

from repro.utils.dsp import row_blocks
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
        # The thresholds between NaN sentinels: a NaN compares false both
        # ways, so the search in convert_codes never steps past code 0 or
        # 2^bits - 1.
        self._bounds = np.concatenate(([np.nan], self._thresholds, [np.nan]))
        # codes_to_values of every code, for converting by table lookup.
        self._values = self.codes_to_values(np.arange(1 << self.bits))

    @property
    def num_levels(self) -> int:
        """Number of output codes."""
        return 1 << self.bits

    def convert_codes(self, x) -> np.ndarray:
        """Convert input voltages to output codes in ``[0, 2^bits - 1]``.

        A sample's code is the number of (sorted) thresholds at or below
        it, ``searchsorted(thresholds, x, side="right")``.  It is found by
        guessing the code from the ideal threshold grid, then stepping it
        up or down against the real thresholds until neither neighbour
        says otherwise — exact for any sorted thresholds, and usually
        settled by the first check.  NaN maps to the top code and ±inf to
        the ends, as ``searchsorted`` places them.

        ``x`` may carry any leading batch axes — the thresholds broadcast
        against ``(packets, samples)`` input, which is how the batched
        time-interleaved front end converts a whole Monte-Carlo batch in
        one call, searched a row block at a time
        (:func:`~repro.utils.dsp.row_blocks`).
        """
        x = np.asarray(x, dtype=float)
        shape = x.shape
        x = np.atleast_1d(x)
        rows = x.reshape(-1, x.shape[-1]) if x.size else x.reshape(0, 0)
        codes = np.empty(rows.shape, dtype=np.int64)
        for block in row_blocks(*rows.shape):
            codes[block] = self._block_codes(rows[block])
        return codes.reshape(shape)

    def _block_codes(self, x) -> np.ndarray:
        """:meth:`convert_codes` of one ``(rows, samples)`` block."""
        x = (1.0 + self.gain_error) * x
        x += self.offset_error
        bounds = self._bounds
        guess = x + self.full_scale
        guess /= self._step
        # fmin first, so NaN (which searchsorted puts last) guesses the top.
        np.fmin(guess, self.num_levels - 1, out=guess)
        np.fmax(guess, 0.0, out=guess)
        codes = guess.astype(np.intp)
        # bounds[c] is threshold c - 1: code c holds bounds[c] <= x <
        # bounds[c + 1].  Check every sample in both directions once,
        # then step only the samples that moved, in the direction they
        # moved, until none does.
        up = x >= bounds[1:].take(codes, out=guess, mode="clip")
        down = x < bounds.take(codes, out=guess, mode="clip")
        codes += up
        codes -= down
        flat_codes, flat_x = codes.reshape(-1), x.reshape(-1)
        for moved, step in ((up, 1), (down, -1)):
            index = np.flatnonzero(moved)
            while index.size:
                values = flat_x[index]
                if step > 0:
                    index = index[values >= bounds[flat_codes[index] + 1]]
                else:
                    index = index[values < bounds[flat_codes[index]]]
                flat_codes[index] += step
        return codes

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
            return (self._values.take(self.convert_codes(x.real))
                    + 1j * self._values.take(self.convert_codes(x.imag)))
        return self._values.take(self.convert_codes(x))
