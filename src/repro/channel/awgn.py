"""Additive white Gaussian noise channel.

Noise levels can be specified three ways, matching how the benchmarks sweep
operating points:

* directly as a noise standard deviation,
* as an SNR relative to the signal's measured power,
* as an Eb/N0 given the signal's energy-per-bit.
"""

from __future__ import annotations

import numpy as np

from repro.utils import dsp
from repro.utils.db import db_to_linear
from repro.utils.validation import require_positive

__all__ = [
    "awgn",
    "noise_std_for_snr",
    "noise_std_for_ebn0",
    "AWGNChannel",
]


def noise_std_for_snr(signal, snr_db: float) -> float:
    """Noise standard deviation that yields ``snr_db`` for the given signal.

    For complex signals the returned value is the *total* noise standard
    deviation (split equally between I and Q by :func:`awgn`).
    """
    signal_power = dsp.signal_power(signal)
    if signal_power <= 0:
        raise ValueError("signal power must be positive to set an SNR")
    noise_power = signal_power / db_to_linear(snr_db)
    return float(np.sqrt(noise_power))


def noise_std_for_ebn0(energy_per_bit, ebn0_db):
    """Noise standard deviation per sample for a target Eb/N0.

    Discrete-time convention: ``energy_per_bit`` is the sum of squared
    samples per information bit (as computed by
    :func:`repro.utils.dsp.signal_energy`), and the noise is real white
    Gaussian with per-sample variance ``sigma^2``.  The matched filter then
    sees ``Eb/N0 = Eb / (2 sigma^2)``, so ``sigma = sqrt(Eb / (2 Eb/N0))``.
    For complex noise generated by :func:`awgn` the same ``sigma`` is the
    total standard deviation split across I and Q, giving the identical
    matched-filter SNR.

    Both arguments may be arrays (they broadcast against each other), in
    which case an array of standard deviations is returned; scalar inputs
    return a ``float``.
    """
    energy = np.asarray(energy_per_bit, dtype=float)
    if bool(np.any(energy <= 0)):
        raise ValueError("energy_per_bit must be positive")
    ebn0_linear = np.asarray(db_to_linear(np.asarray(ebn0_db, dtype=float)))
    std = np.sqrt(energy / (2.0 * ebn0_linear))
    if std.ndim == 0:
        return float(std)
    return std


def awgn(signal, noise_std, rng: np.random.Generator | None = None):
    """Add white Gaussian noise with the given standard deviation.

    For complex input the noise is circularly symmetric with *total*
    variance ``noise_std**2`` (``noise_std**2 / 2`` per quadrature).

    ``signal`` may carry leading batch axes (e.g. shape ``(packets,
    samples)``), and ``noise_std`` may be an array broadcastable against
    ``signal.shape`` (e.g. shape ``(packets, 1)`` for a per-packet noise
    level), which is the fast path the batched sweep engine uses.
    A negative or NaN ``noise_std`` is rejected.
    """
    noise_std = np.asarray(noise_std, dtype=float)
    if not bool(np.all(noise_std >= 0)):
        raise ValueError("noise_std must be non-negative (and not NaN)")
    signal = np.asarray(signal)
    if rng is None:
        rng = np.random.default_rng()
    if not bool(np.any(noise_std > 0)):
        return signal.astype(complex if np.iscomplexobj(signal) else float)
    if np.iscomplexobj(signal):
        noise = np.empty(signal.shape, dtype=complex)
        noise.real = rng.standard_normal(signal.shape)
        noise.imag = rng.standard_normal(signal.shape)
        scale = noise_std / np.sqrt(2.0)
    else:
        noise = rng.standard_normal(signal.shape)
        scale = noise_std
    # The noise buffer becomes the result, scaled and summed in place,
    # unless ``noise_std`` widens the signal's shape.
    if noise.shape == np.broadcast_shapes(signal.shape, noise_std.shape):
        noise *= scale
    else:
        noise = noise * scale
    noise += signal
    return noise


class AWGNChannel:
    """Stateful AWGN channel with a reproducible random generator."""

    def __init__(self, rng: np.random.Generator | None = None) -> None:
        self.rng = rng if rng is not None else np.random.default_rng()

    def apply(self, signal, noise_std: float) -> np.ndarray:
        """Add noise of the given standard deviation."""
        return awgn(signal, noise_std, rng=self.rng)

    def apply_snr(self, signal, snr_db: float) -> np.ndarray:
        """Add noise sized to achieve ``snr_db`` against the signal's power."""
        return self.apply(signal, noise_std_for_snr(signal, snr_db))

    def apply_ebn0(self, signal, ebn0_db: float,
                   energy_per_bit: float) -> np.ndarray:
        """Add noise sized to achieve ``ebn0_db`` for the given bit energy."""
        std = noise_std_for_ebn0(energy_per_bit, ebn0_db)
        return self.apply(signal, std)
