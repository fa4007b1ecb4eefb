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

from repro.utils.dsp import row_blocks
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
        self._levels = self._trial_levels()
        # codes_to_values of every code, for converting by table lookup.
        self._values = self.codes_to_values(np.arange(1 << self.bits))
        self._comparator_rng = (self.rng if self.rng is not None
                                else np.random.default_rng())

    def _trial_levels(self) -> np.ndarray:
        """The DAC level each node of the binary search compares against.

        Node ``(1 << d) | p`` is the comparison at bit ``d`` after the
        MSB-first decisions ``p``: its level is ``-full_scale`` plus
        ``2 * w_i`` for every kept bit ``i`` of ``p``, then ``2 * w_d``,
        summed in that order, the same floating-point operations the
        bit-serial search performs.  Index 0 is unused.
        """
        levels = np.zeros(1 << self.bits)
        estimates = np.full(1, -self.full_scale)
        for depth in range(self.bits):
            doubled = 2.0 * self._weights[depth]
            trials = estimates + doubled
            levels[1 << depth:2 << depth] = trials
            # Children of node p: bit rejected (estimate kept), then kept.
            estimates = np.stack((estimates, trials), axis=-1).ravel()
        return levels

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

        Returns unsigned codes in ``[0, 2^bits - 1]``.  The search walks
        the binary tree of trial levels MSB first: at node ``n`` (the
        root is 1) the comparator keeps the bit when the input, plus that
        bit's comparator noise, is at least the node's level, and the walk
        moves to node ``2 n + kept``; after ``bits`` steps the node minus
        ``2^bits`` is the code.  The levels are precomputed with the
        floating-point operations of the bit-serial search (each kept bit
        adds its doubled weight), so the codes are that search's.  Rows
        are searched a block at a time (:func:`~repro.utils.dsp
        .row_blocks`).

        ``noise`` (optional, shape exactly ``(bits, *x.shape)``) injects
        pre-drawn comparator noise instead of drawing from ``rng`` — see
        :meth:`draw_comparator_noise`; any other shape raises
        ``ValueError``.  Without it, a nonzero ``comparator_noise_std``
        draws the same blocks from ``rng``: one ``x``-shaped block per
        bit, MSB first.
        """
        x = np.asarray(x, dtype=float)
        if noise is not None:
            noise = np.asarray(noise, dtype=float)
            if noise.shape != (self.bits,) + x.shape:
                raise ValueError(
                    f"noise must have shape {(self.bits,) + x.shape} "
                    f"(bits, *x.shape), got {noise.shape}")
        x = np.atleast_1d(x)
        if noise is None and self.comparator_noise_std > 0:
            noise = self.draw_comparator_noise(
                rng if rng is not None else self._comparator_rng, x.shape)
        rows = x.reshape(-1, x.shape[-1]) if x.size else x.reshape(0, 0)
        if noise is not None:
            noise = noise.reshape((self.bits,) + rows.shape)
        codes = np.empty(rows.shape, dtype=np.int64)
        for block in row_blocks(*rows.shape):
            samples = rows[block]
            node = np.ones(samples.shape, dtype=np.intp)
            trial = np.empty(samples.shape)
            kept = np.empty(samples.shape, dtype=bool)
            compared = (np.ascontiguousarray(samples) if noise is None
                        else np.empty(samples.shape))
            for bit_index in range(self.bits):
                if noise is not None:
                    np.add(samples, noise[bit_index, block], out=compared)
                self._levels.take(node, out=trial, mode="clip")
                np.greater_equal(compared, trial, out=kept)
                node += node
                node += kept
            np.subtract(node, 1 << self.bits, out=codes[block])
        return codes.reshape(x.shape)

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
        values = self._values.take(self.convert_codes(x, rng=rng,
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
        out = np.empty(baseband.shape, dtype=complex)
        # Reconstruction levels are never zero, so writing the parts is
        # bitwise ``i + 1j * q``.
        out.real = self.i_adc.convert(baseband.real, rng=rng, noise=noise_i)
        out.imag = self.q_adc.convert(baseband.imag, rng=rng, noise=noise_q)
        return out
