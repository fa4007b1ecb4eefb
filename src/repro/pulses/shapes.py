"""Baseband UWB pulse shapes.

The paper's signal is "a sequence of 500 MHz bandwidth pulses".  This module
provides the Gaussian pulse and its derivatives, the classic carrier-free
shapes of pulsed-UWB systems: the first-generation baseband transceiver
sends them as they are, and the gen-2 transmitter up-converts a Gaussian
envelope to one of the 14 sub-bands.

Both generators return a :class:`Pulse` carrying the waveform, the sample
rate, and convenience accessors (energy, peak, duration).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils import dsp
from repro.utils.validation import require_positive

__all__ = [
    "Pulse",
    "gaussian_pulse",
    "gaussian_derivative_pulse",
    "sigma_for_bandwidth",
]


@dataclass(frozen=True)
class Pulse:
    """A finite-duration pulse waveform sampled at ``sample_rate_hz``.

    Attributes
    ----------
    waveform:
        Real or complex samples of the pulse.
    sample_rate_hz:
        Sampling rate of ``waveform``.
    name:
        Human-readable label used in reports and plots.
    """

    waveform: np.ndarray
    sample_rate_hz: float
    name: str = "pulse"

    def __post_init__(self) -> None:
        object.__setattr__(self, "waveform", np.asarray(self.waveform))
        require_positive(self.sample_rate_hz, "sample_rate_hz")
        if self.waveform.ndim != 1:
            raise ValueError("waveform must be one-dimensional")

    @property
    def num_samples(self) -> int:
        """Number of samples in the pulse."""
        return int(self.waveform.size)

    @property
    def duration_s(self) -> float:
        """Pulse duration in seconds."""
        return self.num_samples / self.sample_rate_hz

    @property
    def energy(self) -> float:
        """Discrete energy of the pulse."""
        return dsp.signal_energy(self.waveform)

    @property
    def peak_amplitude(self) -> float:
        """Peak magnitude of the pulse."""
        if self.num_samples == 0:
            return 0.0
        return float(np.max(np.abs(self.waveform)))

    def scaled(self, factor: float) -> "Pulse":
        """Return a copy multiplied by ``factor``."""
        return Pulse(
            waveform=self.waveform * factor,
            sample_rate_hz=self.sample_rate_hz,
            name=self.name,
        )


def sigma_for_bandwidth(bandwidth_hz: float) -> float:
    """Gaussian sigma (seconds) whose -10 dB two-sided bandwidth is ``bandwidth_hz``.

    A Gaussian pulse exp(-t^2 / (2 sigma^2)) has Fourier transform
    proportional to exp(-(2 pi f)^2 sigma^2 / 2); the -10 dB (power) point
    satisfies (2 pi f)^2 sigma^2 = ln(10), so the two-sided -10 dB bandwidth
    is B = sqrt(ln 10) / (pi sigma).
    """
    require_positive(bandwidth_hz, "bandwidth_hz")
    return float(np.sqrt(np.log(10.0)) / (np.pi * bandwidth_hz))


def _symmetric_time(duration_s: float, sample_rate_hz: float) -> np.ndarray:
    num_samples = max(int(round(duration_s * sample_rate_hz)), 3)
    if num_samples % 2 == 0:
        num_samples += 1
    half = (num_samples - 1) / 2.0
    return (np.arange(num_samples) - half) / sample_rate_hz


def gaussian_pulse(bandwidth_hz: float, sample_rate_hz: float,
                   truncation_sigmas: float = 4.0,
                   amplitude: float = 1.0) -> Pulse:
    """A Gaussian pulse whose -10 dB bandwidth is approximately ``bandwidth_hz``."""
    require_positive(sample_rate_hz, "sample_rate_hz")
    require_positive(truncation_sigmas, "truncation_sigmas")
    sigma = sigma_for_bandwidth(bandwidth_hz)
    t = _symmetric_time(2.0 * truncation_sigmas * sigma, sample_rate_hz)
    waveform = amplitude * np.exp(-t ** 2 / (2.0 * sigma ** 2))
    return Pulse(waveform=waveform, sample_rate_hz=sample_rate_hz,
                 name="gaussian")


def gaussian_derivative_pulse(order: int, bandwidth_hz: float,
                              sample_rate_hz: float,
                              truncation_sigmas: float = 4.0,
                              amplitude: float = 1.0) -> Pulse:
    """The ``order``-th derivative of a Gaussian pulse, peak-normalized.

    Order 1 is the classic monocycle, order 2 the doublet ("Mexican hat").
    Higher orders push the spectral peak upward, which is how carrier-free
    UWB transmitters shape their spectrum to fit the FCC mask.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    base = gaussian_pulse(bandwidth_hz, sample_rate_hz,
                          truncation_sigmas=truncation_sigmas, amplitude=1.0)
    waveform = base.waveform.copy()
    dt = 1.0 / sample_rate_hz
    for _ in range(order):
        waveform = np.gradient(waveform, dt)
    waveform = dsp.normalize_peak(waveform, amplitude)
    return Pulse(waveform=waveform, sample_rate_hz=sample_rate_hz,
                 name=f"gaussian_d{order}")
