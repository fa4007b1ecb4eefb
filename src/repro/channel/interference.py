"""Narrowband interferer models.

The paper's receiver must operate in the presence of narrowband interferers
(e.g. 802.11a at 5-6 GHz sits right inside the UWB band).  The digital back
end detects the interferer, estimates its frequency and can command an RF
notch filter.  These generators produce the interference waveforms those
blocks are exercised against.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.utils import dsp
from repro.utils.db import db_to_linear
from repro.utils.validation import require_non_negative, require_positive

__all__ = [
    "ToneInterferer",
    "MultiToneInterferer",
    "accepts_rng",
    "interferer_amplitude_for_sir",
]


@lru_cache(maxsize=None)
def _type_method_accepts_rng(cls: type, method_name: str) -> bool:
    return "rng" in inspect.signature(getattr(cls, method_name)).parameters


def accepts_rng(obj, method_name: str) -> bool:
    """Whether ``obj.<method_name>`` accepts an ``rng`` keyword.

    Deterministic generators (tones) take no ``rng``; modulated ones do.
    Callers that feed interferers a seeded generator use this to dispatch
    without trial-and-error (an ``except TypeError`` would mask bugs inside
    the method).  Cached per type so per-packet loops pay no reflection
    cost.
    """
    return _type_method_accepts_rng(type(obj), method_name)


def interferer_amplitude_for_sir(signal, sir_db: float,
                                 interferer_is_complex: bool = True) -> float:
    """Peak amplitude of a constant-envelope interferer for a target SIR.

    ``SIR = P_signal / P_interferer``.  A complex exponential of amplitude A
    has power A^2; a real sinusoid has power A^2/2.
    """
    signal_power = dsp.signal_power(signal)
    if signal_power <= 0:
        raise ValueError("signal power must be positive to set an SIR")
    interferer_power = signal_power / db_to_linear(sir_db)
    if interferer_is_complex:
        return float(np.sqrt(interferer_power))
    return float(np.sqrt(2.0 * interferer_power))


@dataclass
class ToneInterferer:
    """A continuous-wave (single-tone) interferer.

    ``frequency_hz`` is the offset from the receiver's centre frequency when
    used against complex-baseband signals, or the absolute frequency when
    used against real passband signals.
    """

    frequency_hz: float
    amplitude: float = 1.0
    phase_rad: float = 0.0

    def __post_init__(self) -> None:
        require_non_negative(abs(self.frequency_hz), "frequency_hz")
        require_non_negative(self.amplitude, "amplitude")

    def waveform(self, num_samples: int, sample_rate_hz: float,
                 complex_baseband: bool = True) -> np.ndarray:
        """Generate the interferer waveform."""
        require_positive(sample_rate_hz, "sample_rate_hz")
        t = dsp.time_vector(num_samples, sample_rate_hz)
        if complex_baseband:
            return self.amplitude * np.exp(
                1j * (2.0 * np.pi * self.frequency_hz * t + self.phase_rad))
        return self.amplitude * np.cos(
            2.0 * np.pi * self.frequency_hz * t + self.phase_rad)

    def add_to(self, signal, sample_rate_hz: float) -> np.ndarray:
        """Return ``signal`` plus the interferer (complex for complex input)."""
        signal = np.asarray(signal)
        complex_baseband = np.iscomplexobj(signal)
        tone = self.waveform(signal.size, sample_rate_hz,
                             complex_baseband=complex_baseband)
        return signal + tone

    def power(self, complex_baseband: bool = True) -> float:
        """Average power of the interferer."""
        if complex_baseband:
            return self.amplitude ** 2
        return self.amplitude ** 2 / 2.0


@dataclass
class MultiToneInterferer:
    """Several independent tone interferers summed together."""

    tones: tuple[ToneInterferer, ...]

    def __post_init__(self) -> None:
        if len(self.tones) == 0:
            raise ValueError("need at least one tone")

    def waveform(self, num_samples: int, sample_rate_hz: float,
                 complex_baseband: bool = True) -> np.ndarray:
        """Sum of all tone waveforms."""
        total = np.zeros(num_samples,
                         dtype=complex if complex_baseband else float)
        for tone in self.tones:
            total = total + tone.waveform(num_samples, sample_rate_hz,
                                          complex_baseband=complex_baseband)
        return total

    def add_to(self, signal, sample_rate_hz: float) -> np.ndarray:
        """Return ``signal`` plus all tones."""
        signal = np.asarray(signal)
        complex_baseband = np.iscomplexobj(signal)
        return signal + self.waveform(signal.size, sample_rate_hz,
                                      complex_baseband=complex_baseband)

    def frequencies(self) -> tuple[float, ...]:
        """Frequencies of all constituent tones."""
        return tuple(tone.frequency_hz for tone in self.tones)
