"""Generic DSP helpers shared across the library.

These are deliberately small, explicit functions (energy, power,
up-conversion, filtering, PSD estimation) so the transceiver models can
stay readable.
"""

from __future__ import annotations

import numpy as np
from scipy import signal as sp_signal

__all__ = [
    "signal_energy",
    "signal_power",
    "normalize_peak",
    "rms",
    "upconvert",
    "lowpass_filter",
    "estimate_psd",
    "occupied_bandwidth",
    "time_vector",
    "row_blocks",
]

#: Samples per block of :func:`row_blocks`: 256 kB of float64, so a
#: block's working arrays stay in cache and are allocated once per block
#: rather than once per batch-sized pass.
_ROW_BLOCK_SAMPLES = 1 << 15


def signal_energy(x) -> float:
    """Return the discrete energy ``sum(|x|^2)`` of a signal."""
    x = np.asarray(x)
    return float(np.sum(np.abs(x) ** 2))


def signal_power(x) -> float:
    """Return the mean power ``mean(|x|^2)`` of a signal."""
    x = np.asarray(x)
    if x.size == 0:
        return 0.0
    return float(np.mean(np.abs(x) ** 2))


def rms(x) -> float:
    """Return the RMS value of a signal."""
    return float(np.sqrt(signal_power(x)))


def normalize_peak(x, target_peak: float = 1.0) -> np.ndarray:
    """Scale ``x`` so its peak magnitude equals ``target_peak``."""
    x = np.asarray(x, dtype=complex if np.iscomplexobj(x) else float)
    peak = float(np.max(np.abs(x))) if x.size else 0.0
    if peak == 0.0:
        return x.copy()
    return x * (target_peak / peak)


def row_blocks(num_rows: int, row_length: int) -> list[slice]:
    """Slices of whole rows covering about ``_ROW_BLOCK_SAMPLES``
    samples each (at least one row per block).

    Batched per-sample kernels (the ADC searches, the AGC peaks) run one
    block at a time: every array a block makes is small, and a stage
    that treats rows independently gives the same values in any split.
    """
    step = max(1, _ROW_BLOCK_SAMPLES // max(int(row_length), 1))
    return [slice(start, start + step)
            for start in range(0, int(num_rows), step)]


def time_vector(num_samples: int, sample_rate_hz: float) -> np.ndarray:
    """Return ``num_samples`` time stamps at ``sample_rate_hz`` starting at 0."""
    if num_samples < 0:
        raise ValueError("num_samples must be non-negative")
    if sample_rate_hz <= 0:
        raise ValueError("sample_rate_hz must be positive")
    return np.arange(num_samples) / sample_rate_hz


def upconvert(baseband, carrier_hz: float, sample_rate_hz: float,
              phase_rad: float = 0.0) -> np.ndarray:
    """Up-convert a complex baseband signal to a real passband signal.

    The passband signal is ``Re{ x(t) * exp(j*(2*pi*fc*t + phase)) }``.
    """
    x = np.asarray(baseband, dtype=complex)
    t = time_vector(x.size, sample_rate_hz)
    carrier = np.exp(1j * (2.0 * np.pi * carrier_hz * t + phase_rad))
    return np.real(x * carrier)


def _zero_phase_sos(sos: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Apply ``sosfiltfilt`` with a pad length safe for short inputs."""
    default_padlen = 3 * (2 * sos.shape[0] + 1 - min((sos[:, 2] == 0).sum(),
                                                     (sos[:, 5] == 0).sum()))
    padlen = int(min(default_padlen, max(x.shape[-1] - 2, 0)))
    return sp_signal.sosfiltfilt(sos, x, padlen=padlen)


def lowpass_filter(x, cutoff_hz: float, sample_rate_hz: float,
                   order: int = 6) -> np.ndarray:
    """Zero-phase Butterworth low-pass filter.

    Works on real or complex input (the filter is applied to the real and
    imaginary parts separately, which is valid for a real filter kernel).
    """
    nyquist = sample_rate_hz / 2.0
    if not 0 < cutoff_hz < nyquist:
        raise ValueError(
            f"cutoff {cutoff_hz} Hz must be in (0, {nyquist}) Hz"
        )
    sos = sp_signal.butter(order, cutoff_hz / nyquist, btype="low", output="sos")
    x = np.asarray(x)
    if np.iscomplexobj(x):
        return (_zero_phase_sos(sos, x.real)
                + 1j * _zero_phase_sos(sos, x.imag))
    return _zero_phase_sos(sos, x)


def estimate_psd(x, sample_rate_hz: float, nperseg: int | None = None,
                 return_onesided: bool | None = None):
    """Estimate the power spectral density with Welch's method.

    Returns ``(frequencies_hz, psd)`` where the PSD is in units of
    power-per-Hz of whatever squared unit ``x`` carries.  Complex input
    produces a two-sided spectrum centred (fftshifted) on 0 Hz.
    """
    x = np.asarray(x)
    if nperseg is None:
        nperseg = min(x.size, 1024)
    is_complex = np.iscomplexobj(x)
    if return_onesided is None:
        return_onesided = not is_complex
    freqs, psd = sp_signal.welch(
        x, fs=sample_rate_hz, nperseg=nperseg,
        return_onesided=return_onesided,
    )
    if not return_onesided:
        order = np.argsort(freqs)
        freqs = freqs[order]
        psd = psd[order]
    return freqs, psd


def occupied_bandwidth(x, sample_rate_hz: float, power_fraction: float = 0.99,
                       nperseg: int | None = None) -> float:
    """Return the bandwidth containing ``power_fraction`` of the signal power.

    The measure is symmetric in cumulative power: it returns the width of the
    frequency interval between the ``(1-p)/2`` and ``(1+p)/2`` quantiles of
    the cumulative PSD.
    """
    if not 0 < power_fraction < 1:
        raise ValueError("power_fraction must be in (0, 1)")
    freqs, psd = estimate_psd(x, sample_rate_hz, nperseg=nperseg)
    total = np.sum(psd)
    if total <= 0:
        return 0.0
    cumulative = np.cumsum(psd) / total
    lo_q = (1.0 - power_fraction) / 2.0
    hi_q = 1.0 - lo_q
    f_low = float(np.interp(lo_q, cumulative, freqs))
    f_high = float(np.interp(hi_q, cumulative, freqs))
    return f_high - f_low
