"""Discrete prototype platform (Section 3, Fig. 4).

"A discrete prototype with the same specifications has been designed and
implemented ... This platform is also flexible enough to generate all kinds
of signals within a bandwidth of 500 MHz, allowing the comparison between
different modulation schemes."

The :class:`DiscretePrototypePlatform` is an arbitrary-waveform generator
constrained to a 500 MHz bandwidth: it accepts any complex baseband
waveform, band-limits it, up-converts it to a selectable carrier (5 GHz in
Fig. 4), and plays it through a configurable channel so receiver algorithms
can be exercised "under realistic conditions" exactly as the paper
describes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.constants import FIG4_BANDWIDTH_HZ, FIG4_CARRIER_HZ
from repro.pulses.modulated import ModulatedPulse
from repro.pulses.shapes import gaussian_pulse
from repro.utils import dsp
from repro.utils.validation import require_positive

__all__ = ["DiscretePrototypePlatform"]


@dataclass
class DiscretePrototypePlatform:
    """Arbitrary-waveform pulsed-UWB test platform.

    Attributes
    ----------
    bandwidth_hz:
        Maximum signal bandwidth the platform can generate (500 MHz in the
        paper).
    carrier_hz:
        Up-conversion carrier for passband output (5 GHz in Fig. 4).
    baseband_rate_hz:
        Sampling rate of the baseband waveform memory.
    dac_bits:
        Resolution of the arbitrary waveform generator's DAC; ``None``
        disables quantization.
    """

    bandwidth_hz: float = FIG4_BANDWIDTH_HZ
    carrier_hz: float = FIG4_CARRIER_HZ
    baseband_rate_hz: float = 2e9
    dac_bits: int | None = 10

    def __post_init__(self) -> None:
        require_positive(self.bandwidth_hz, "bandwidth_hz")
        require_positive(self.carrier_hz, "carrier_hz")
        require_positive(self.baseband_rate_hz, "baseband_rate_hz")
        if self.bandwidth_hz > self.baseband_rate_hz:
            raise ValueError("baseband rate must be at least the bandwidth")

    # ------------------------------------------------------------------
    # Waveform generation
    # ------------------------------------------------------------------
    def shape_baseband(self, waveform) -> np.ndarray:
        """Band-limit (and optionally quantize) an arbitrary baseband waveform.

        This is the platform's defining constraint: whatever the user loads
        into the waveform memory, the analog output never exceeds the
        500 MHz bandwidth.
        """
        x = np.asarray(waveform, dtype=complex)
        cutoff = min(self.bandwidth_hz / 2.0, 0.45 * self.baseband_rate_hz)
        shaped = dsp.lowpass_filter(x, cutoff, self.baseband_rate_hz)
        if self.dac_bits is not None:
            peak = float(np.max(np.abs(shaped))) if shaped.size else 0.0
            if peak > 0:
                levels = 1 << self.dac_bits
                step = 2.0 * peak / levels
                shaped = (np.round(shaped.real / step) * step
                          + 1j * np.round(shaped.imag / step) * step)
        return shaped

    def reference_pulse(self) -> np.ndarray:
        """The platform's standard test pulse (Gaussian, full bandwidth)."""
        pulse = gaussian_pulse(self.bandwidth_hz, self.baseband_rate_hz)
        return pulse.waveform.astype(complex)

    def generate_passband(self, baseband_waveform,
                          amplitude: float = 0.15) -> ModulatedPulse:
        """Up-convert a baseband waveform to the platform's carrier.

        The passband waveform is sampled at four times the highest signal
        frequency, which is what an oscilloscope capture of the prototype
        output (Fig. 4) would show.
        """
        baseband = self.shape_baseband(baseband_waveform)
        passband_rate = 4.0 * (self.carrier_hz + self.bandwidth_hz / 2.0)
        upsample = max(int(np.ceil(passband_rate / self.baseband_rate_hz)), 1)
        passband_rate = self.baseband_rate_hz * upsample
        dense = np.repeat(baseband, upsample)
        dense = dsp.lowpass_filter(dense, self.bandwidth_hz / 2.0 * 1.2,
                                   passband_rate)
        passband = dsp.upconvert(dense, self.carrier_hz, passband_rate)
        passband = dsp.normalize_peak(passband, amplitude)
        scale = amplitude / max(float(np.max(np.abs(dense))), 1e-300)
        return ModulatedPulse(
            passband=passband,
            envelope=dense * scale,
            carrier_hz=self.carrier_hz,
            sample_rate_hz=passband_rate,
            name="prototype_output",
        )
