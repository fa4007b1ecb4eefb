"""Digital adaptive notch filter.

Complement of the analog RF notch: once the spectral monitor has estimated
the interferer frequency, the back end can also (or instead) remove the
interferer digitally with :class:`DigitalNotchFilter`, a
fixed-coefficient complex one-pole notch placed at the estimated frequency.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.validation import require_positive

__all__ = ["DigitalNotchFilter"]


@dataclass
class DigitalNotchFilter:
    """Complex single-notch IIR: ``H(z) = (1 - e^{j w0} z^-1) / (1 - r e^{j w0} z^-1)``.

    ``pole_radius`` (r) close to 1 gives a narrow notch.
    """

    notch_frequency_hz: float
    sample_rate_hz: float
    pole_radius: float = 0.995

    def __post_init__(self) -> None:
        require_positive(self.sample_rate_hz, "sample_rate_hz")
        if not 0.0 < self.pole_radius < 1.0:
            raise ValueError("pole_radius must be in (0, 1)")

    @property
    def normalized_frequency_rad(self) -> float:
        """Notch frequency in radians/sample."""
        return 2.0 * np.pi * self.notch_frequency_hz / self.sample_rate_hz

    def apply(self, samples) -> np.ndarray:
        """Filter complex (or real) samples through the notch."""
        samples = np.asarray(samples, dtype=complex)
        w0 = self.normalized_frequency_rad
        zero = np.exp(1j * w0)
        pole = self.pole_radius * zero
        out = np.zeros_like(samples)
        prev_in = 0.0 + 0.0j
        prev_out = 0.0 + 0.0j
        for n, x in enumerate(samples):
            y = x - zero * prev_in + pole * prev_out
            out[n] = y
            prev_in = x
            prev_out = y
        return out

    def rejection_at_db(self, frequency_hz: float) -> float:
        """Attenuation (positive dB) at ``frequency_hz``."""
        w = 2.0 * np.pi * frequency_hz / self.sample_rate_hz
        z = np.exp(1j * w)
        w0 = self.normalized_frequency_rad
        numerator = 1.0 - np.exp(1j * w0) / z
        denominator = 1.0 - self.pole_radius * np.exp(1j * w0) / z
        magnitude = abs(numerator / denominator)
        if magnitude <= 0:
            return float("inf")
        return float(-20.0 * np.log10(magnitude))
