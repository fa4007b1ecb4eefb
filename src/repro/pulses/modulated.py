"""Carrier-modulated pulses (the Fig. 4 waveform and the gen-2 sub-band pulses).

Fig. 4 of the paper shows a 500 MHz-bandwidth pulse on a 5 GHz carrier with
about 150 mV peak amplitude on a 580 ps/div time base.  The gen-2 transmitter
produces exactly this class of waveform for each of the 14 sub-bands.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.constants import (
    FIG4_AMPLITUDE_V,
    FIG4_BANDWIDTH_HZ,
    FIG4_CARRIER_HZ,
    FIG4_NUM_DIVS,
    FIG4_TIME_PER_DIV_S,
)
from repro.pulses.shapes import gaussian_pulse
from repro.utils import dsp
from repro.utils.validation import require_positive

__all__ = [
    "ModulatedPulse",
    "modulated_gaussian_pulse",
    "fig4_prototype_pulse",
]


@dataclass(frozen=True)
class ModulatedPulse:
    """A real passband pulse together with the baseband envelope it came from.

    Attributes
    ----------
    passband:
        The real passband waveform (what an oscilloscope would show).
    envelope:
        The complex baseband envelope before up-conversion.
    carrier_hz:
        Carrier (sub-band centre) frequency.
    sample_rate_hz:
        Sampling rate of both waveforms.
    """

    passband: np.ndarray
    envelope: np.ndarray
    carrier_hz: float
    sample_rate_hz: float
    name: str = "modulated_pulse"

    def __post_init__(self) -> None:
        object.__setattr__(self, "passband", np.asarray(self.passband, dtype=float))
        object.__setattr__(self, "envelope", np.asarray(self.envelope, dtype=complex))
        require_positive(self.carrier_hz, "carrier_hz")
        require_positive(self.sample_rate_hz, "sample_rate_hz")
        if self.passband.shape != self.envelope.shape:
            raise ValueError("passband and envelope must have the same length")

    @property
    def num_samples(self) -> int:
        return int(self.passband.size)

    @property
    def duration_s(self) -> float:
        return self.num_samples / self.sample_rate_hz

    @property
    def peak_amplitude(self) -> float:
        return float(np.max(np.abs(self.passband))) if self.num_samples else 0.0

    @property
    def energy(self) -> float:
        return dsp.signal_energy(self.passband)


def modulated_gaussian_pulse(carrier_hz: float,
                             bandwidth_hz: float,
                             sample_rate_hz: float | None = None,
                             amplitude: float = 1.0,
                             phase_rad: float = 0.0,
                             truncation_sigmas: float = 4.0) -> ModulatedPulse:
    """A Gaussian-envelope pulse up-converted to ``carrier_hz``.

    When ``sample_rate_hz`` is omitted it defaults to four times the highest
    signal frequency (carrier plus half the bandwidth), which comfortably
    satisfies Nyquist for the passband waveform.
    """
    require_positive(carrier_hz, "carrier_hz")
    require_positive(bandwidth_hz, "bandwidth_hz")
    if sample_rate_hz is None:
        sample_rate_hz = 4.0 * (carrier_hz + bandwidth_hz / 2.0)
    require_positive(sample_rate_hz, "sample_rate_hz")
    nyquist = sample_rate_hz / 2.0
    if carrier_hz + bandwidth_hz / 2.0 >= nyquist:
        raise ValueError(
            "sample_rate_hz too low for the requested carrier and bandwidth"
        )
    base = gaussian_pulse(bandwidth_hz, sample_rate_hz,
                          truncation_sigmas=truncation_sigmas,
                          amplitude=1.0)
    envelope = base.waveform.astype(complex)
    passband = dsp.upconvert(envelope, carrier_hz, sample_rate_hz,
                             phase_rad=phase_rad)
    passband = dsp.normalize_peak(passband, amplitude)
    scale = amplitude / max(float(np.max(np.abs(base.waveform))), 1e-300)
    envelope = envelope * scale
    return ModulatedPulse(
        passband=passband,
        envelope=envelope,
        carrier_hz=carrier_hz,
        sample_rate_hz=sample_rate_hz,
        name=f"gaussian_on_{carrier_hz / 1e9:.2f}GHz",
    )


def fig4_prototype_pulse(sample_rate_hz: float | None = None) -> ModulatedPulse:
    """Reproduce the Fig. 4 waveform: a 500 MHz pulse on a 5 GHz carrier.

    The waveform is scaled to the figure's 150 mV peak amplitude and padded
    to span the figure's full 10-division (5.8 ns) time base.
    """
    pulse = modulated_gaussian_pulse(
        carrier_hz=FIG4_CARRIER_HZ,
        bandwidth_hz=FIG4_BANDWIDTH_HZ,
        sample_rate_hz=sample_rate_hz,
        amplitude=FIG4_AMPLITUDE_V,
    )
    span_s = FIG4_TIME_PER_DIV_S * FIG4_NUM_DIVS
    total_samples = int(round(span_s * pulse.sample_rate_hz))
    if total_samples > pulse.num_samples:
        pad = total_samples - pulse.num_samples
        left = pad // 2
        right = pad - left
        passband = np.pad(pulse.passband, (left, right))
        envelope = np.pad(pulse.envelope, (left, right))
    else:
        passband = pulse.passband
        envelope = pulse.envelope
    return ModulatedPulse(
        passband=passband,
        envelope=envelope,
        carrier_hz=pulse.carrier_hz,
        sample_rate_hz=pulse.sample_rate_hz,
        name="fig4_prototype_pulse",
    )
