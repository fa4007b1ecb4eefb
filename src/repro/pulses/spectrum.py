"""Spectral analysis helpers specific to UWB pulses.

These wrap the generic PSD estimator with UWB-oriented measures: fractional
bandwidth (the FCC's UWB definition), -10 dB bandwidth, spectral peak
location, and a compact summary used by the benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.constants import FCC_MIN_UWB_BANDWIDTH_HZ
from repro.utils import dsp

__all__ = [
    "SpectrumSummary",
    "bandwidth_at_level",
    "fractional_bandwidth",
    "summarize_spectrum",
]


@dataclass(frozen=True)
class SpectrumSummary:
    """Compact description of a signal's spectrum."""

    peak_frequency_hz: float
    bandwidth_10db_hz: float
    occupied_bandwidth_99_hz: float
    fractional_bandwidth: float
    center_frequency_hz: float

    @property
    def qualifies_as_uwb(self) -> bool:
        """True when the signal meets the FCC UWB definition.

        The FCC defines a UWB signal as having either a -10 dB bandwidth of
        at least 500 MHz or a fractional bandwidth of at least 0.2.
        """
        return (self.bandwidth_10db_hz >= FCC_MIN_UWB_BANDWIDTH_HZ
                or self.fractional_bandwidth >= 0.2)


def _psd(waveform, sample_rate_hz: float, nperseg: int | None = None):
    waveform = np.asarray(waveform)
    if nperseg is None:
        nperseg = min(waveform.size, 4096)
    return dsp.estimate_psd(waveform, sample_rate_hz, nperseg=nperseg)


def bandwidth_at_level(waveform, sample_rate_hz: float,
                       level_db: float = -10.0,
                       nperseg: int | None = None) -> tuple[float, float, float]:
    """Return ``(f_low, f_high, bandwidth)`` at ``level_db`` below the PSD peak.

    The edges are the outermost frequencies where the PSD crosses the level,
    which is the convention used for the FCC -10 dB bandwidth.
    """
    if level_db >= 0:
        raise ValueError("level_db must be negative (below the peak)")
    freqs, psd = _psd(waveform, sample_rate_hz, nperseg)
    psd = np.asarray(psd, dtype=float)
    if psd.size == 0 or np.max(psd) <= 0:
        return 0.0, 0.0, 0.0
    threshold = np.max(psd) * 10.0 ** (level_db / 10.0)
    above = np.where(psd >= threshold)[0]
    f_low = float(freqs[above[0]])
    f_high = float(freqs[above[-1]])
    return f_low, f_high, f_high - f_low


def fractional_bandwidth(waveform, sample_rate_hz: float,
                         carrier_hz: float = 0.0,
                         nperseg: int | None = None) -> float:
    """FCC fractional bandwidth ``2 (fH - fL) / (fH + fL)`` at the -10 dB points.

    ``carrier_hz`` is added to the analysis frequencies for complex-baseband
    input so the denominator reflects the true RF centre frequency.
    """
    f_low, f_high, _ = bandwidth_at_level(waveform, sample_rate_hz,
                                          level_db=-10.0, nperseg=nperseg)
    f_low += carrier_hz
    f_high += carrier_hz
    if f_high + f_low <= 0:
        return 0.0
    return 2.0 * (f_high - f_low) / (f_high + f_low)


def summarize_spectrum(waveform, sample_rate_hz: float,
                       carrier_hz: float = 0.0,
                       nperseg: int | None = None) -> SpectrumSummary:
    """Compute a :class:`SpectrumSummary` for a waveform."""
    freqs, psd = _psd(waveform, sample_rate_hz, nperseg)
    psd = np.asarray(psd, dtype=float)
    peak_frequency = float(freqs[int(np.argmax(psd))]) + carrier_hz
    f_low, f_high, bw10 = bandwidth_at_level(waveform, sample_rate_hz,
                                             level_db=-10.0, nperseg=nperseg)
    f_low += carrier_hz
    f_high += carrier_hz
    center = (f_low + f_high) / 2.0
    frac = 0.0 if center <= 0 else (f_high - f_low) / center
    occupied = dsp.occupied_bandwidth(
        waveform, sample_rate_hz, power_fraction=0.99,
        nperseg=nperseg if nperseg else min(np.asarray(waveform).size, 4096))
    return SpectrumSummary(
        peak_frequency_hz=peak_frequency,
        bandwidth_10db_hz=bw10,
        occupied_bandwidth_99_hz=occupied,
        fractional_bandwidth=frac,
        center_frequency_hz=center,
    )
