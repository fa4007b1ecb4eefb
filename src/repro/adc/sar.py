"""Successive-approximation-register (SAR) ADC — the gen-2 converter.

The gen-2 receiver digitizes I and Q with "two 5-bit successive
approximation register ADCs".  A SAR converter resolves one bit per clock by
binary search against a capacitive DAC; its characteristic impairments are
capacitor mismatch (bit-weight errors), comparator noise, and the conversion
latency of ``bits`` clock cycles per sample.

:class:`QuadratureSARADC` pairs two SAR converters for the I/Q paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.utils.validation import require_int, require_non_negative, require_positive

__all__ = ["SARADC", "QuadratureSARADC"]


@dataclass
class SARADC:
    """Behavioural SAR ADC with bit-weight mismatch and comparator noise.

    Attributes
    ----------
    bits:
        Resolution (the paper's gen-2 uses 5).
    full_scale:
        Input range ``[-full_scale, +full_scale]``.
    sample_rate_hz:
        Nominal sampling rate (>500 MSps in the paper).
    capacitor_mismatch_std:
        Relative (fractional) mismatch of each binary-weighted capacitor.
    comparator_noise_std:
        RMS input-referred comparator noise in volts, applied per bit trial.
    """

    bits: int = 5
    full_scale: float = 1.0
    sample_rate_hz: float = 500e6
    capacitor_mismatch_std: float = 0.0
    comparator_noise_std: float = 0.0
    rng: np.random.Generator | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        require_int(self.bits, "bits", minimum=1)
        require_positive(self.full_scale, "full_scale")
        require_positive(self.sample_rate_hz, "sample_rate_hz")
        require_non_negative(self.capacitor_mismatch_std, "capacitor_mismatch_std")
        require_non_negative(self.comparator_noise_std, "comparator_noise_std")
        rng = self.rng if self.rng is not None else np.random.default_rng()
        # Ideal bit weights are full_scale/2, full_scale/4, ... ; mismatch
        # perturbs each weight by a zero-mean relative error.
        ideal_weights = self.full_scale / (2.0 ** np.arange(1, self.bits + 1))
        if self.capacitor_mismatch_std > 0:
            errors = rng.normal(0.0, self.capacitor_mismatch_std, size=self.bits)
        else:
            errors = np.zeros(self.bits)
        self._weights = ideal_weights * (1.0 + errors)
        self._comparator_rng = (self.rng if self.rng is not None
                                else np.random.default_rng())

    @property
    def num_levels(self) -> int:
        """Number of output codes."""
        return 1 << self.bits

    @property
    def step(self) -> float:
        """Nominal LSB size."""
        return 2.0 * self.full_scale / self.num_levels

    def draw_comparator_noise(self, rng: np.random.Generator,
                              shape) -> np.ndarray | None:
        """Pre-draw the comparator noise one :meth:`convert_codes` call of
        the given input ``shape`` would consume, in the same per-bit order.

        Returns a ``(bits, *shape)`` array for the ``noise=`` injection
        parameter, or ``None`` when comparator noise is disabled.  Batched
        converters use this to keep a shared random stream consumed in
        per-packet order while running the conversions as one batch.
        """
        if self.comparator_noise_std <= 0:
            return None
        return np.stack([rng.normal(0.0, self.comparator_noise_std,
                                    size=shape)
                         for _ in range(self.bits)])

    def convert_codes(self, x, rng: np.random.Generator | None = None,
                      noise: np.ndarray | None = None) -> np.ndarray:
        """Run the successive-approximation search on each sample.

        Returns unsigned codes in ``[0, 2^bits - 1]``.  ``noise``
        (optional, shape ``(bits, *x.shape)``) injects pre-drawn
        comparator noise instead of drawing from ``rng`` — see
        :meth:`draw_comparator_noise`.
        """
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if rng is None:
            rng = self._comparator_rng
        codes = np.zeros(x.shape, dtype=np.int64)
        # The SAR search: start from -full_scale and add bit weights MSB-first,
        # keeping a bit when the trial level stays below the input.
        estimate = np.full(x.shape, -self.full_scale)
        for bit_index in range(self.bits):
            weight = self._weights[bit_index]
            trial = estimate + 2.0 * weight
            if noise is not None:
                bit_noise = noise[bit_index]
            elif self.comparator_noise_std > 0:
                bit_noise = rng.normal(0.0, self.comparator_noise_std,
                                       size=x.shape)
            else:
                bit_noise = 0.0
            keep = (x + bit_noise) >= trial
            estimate = np.where(keep, trial, estimate)
            codes = codes | (keep.astype(np.int64) << (self.bits - 1 - bit_index))
        return codes

    def codes_to_values(self, codes) -> np.ndarray:
        """Nominal reconstruction values (ideal bin centres)."""
        codes = np.asarray(codes, dtype=np.int64)
        return (codes.astype(float) + 0.5) * self.step - self.full_scale

    def convert(self, x, rng: np.random.Generator | None = None,
                noise: np.ndarray | None = None) -> np.ndarray:
        """Convert and reconstruct real input samples.

        ``noise`` injects pre-drawn comparator noise (see
        :meth:`draw_comparator_noise`).
        """
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        values = self.codes_to_values(self.convert_codes(x, rng=rng,
                                                         noise=noise))
        return float(values[0]) if scalar else values


@dataclass
class QuadratureSARADC:
    """The gen-2 I/Q converter pair: two SAR ADCs sharing a sampling clock."""

    i_adc: SARADC = field(default_factory=SARADC)
    q_adc: SARADC = field(default_factory=SARADC)

    @classmethod
    def matched_pair(cls, bits: int = 5, full_scale: float = 1.0,
                     sample_rate_hz: float = 500e6,
                     capacitor_mismatch_std: float = 0.0,
                     comparator_noise_std: float = 0.0,
                     rng: np.random.Generator | None = None
                     ) -> "QuadratureSARADC":
        """Build an I/Q pair with independent mismatch draws."""
        if rng is None:
            rng = np.random.default_rng()
        make = lambda: SARADC(bits=bits, full_scale=full_scale,
                              sample_rate_hz=sample_rate_hz,
                              capacitor_mismatch_std=capacitor_mismatch_std,
                              comparator_noise_std=comparator_noise_std,
                              rng=rng)
        return cls(i_adc=make(), q_adc=make())

    @property
    def bits(self) -> int:
        """Resolution of the pair."""
        return self.i_adc.bits

    @property
    def sample_rate_hz(self) -> float:
        """Per-path sampling rate."""
        return self.i_adc.sample_rate_hz

    def convert(self, baseband, rng: np.random.Generator | None = None,
                noise_i: np.ndarray | None = None,
                noise_q: np.ndarray | None = None) -> np.ndarray:
        """Digitize a complex baseband signal (I and Q independently).

        ``noise_i``/``noise_q`` inject pre-drawn comparator noise for the
        two paths (see :meth:`SARADC.draw_comparator_noise`); a shared
        ``rng`` draws I first then Q, matching the injection order.
        """
        baseband = np.asarray(baseband, dtype=complex)
        i_out = self.i_adc.convert(baseband.real, rng=rng, noise=noise_i)
        q_out = self.q_adc.convert(baseband.imag, rng=rng, noise=noise_q)
        return i_out + 1j * q_out
