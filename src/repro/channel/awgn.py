"""Additive white Gaussian noise channel.

Noise levels can be specified three ways, matching how the benchmarks sweep
operating points:

* directly as a noise standard deviation,
* as an SNR relative to the signal's measured power,
* as an Eb/N0 given the signal's energy-per-bit.
"""

from __future__ import annotations

import math

import numpy as np

from repro.utils import dsp
from repro.utils.db import db_to_linear
from repro.utils.validation import require_positive

__all__ = [
    "awgn",
    "RowBlockNoise",
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
    level).  A negative, NaN or infinite ``noise_std`` is rejected.  This
    is the one-block case of :class:`RowBlockNoise`.
    """
    signal = np.asarray(signal)
    return RowBlockNoise(signal.shape, noise_std, rng).add(signal)


class RowBlockNoise:
    """:func:`awgn` over a batch of ``shape``, added one row block at a time.

    The blocks are consecutive slices along the batch's first axis, in
    order, and together cover it once.  Whatever the split, the result
    equals one :func:`awgn` call on the whole batch bit for bit, because
    the draws follow its stream order: real noise is one standard-normal
    plane over ``shape`` in C order, so each block draws its rows as it
    reaches them; complex noise is the whole real plane (drawn at the
    first block, the only batch-size array), then the whole imaginary
    plane, whose rows each block draws into one reused buffer.

    ``noise_std`` holds the whole batch's levels and broadcasts against
    ``shape`` as in :func:`awgn`; a negative, NaN or infinite level is
    rejected.  When none is positive, nothing is drawn and blocks pass
    through as float or complex copies.
    """

    def __init__(self, shape, noise_std,
                 rng: np.random.Generator | None = None) -> None:
        noise_std = np.asarray(noise_std, dtype=float)
        # NaN fails both comparisons.
        lowest = noise_std.min(initial=np.inf)
        highest = noise_std.max(initial=0.0)
        if not (lowest >= 0 and highest < np.inf):
            raise ValueError("noise_std must be finite and non-negative "
                             "(not NaN or infinite)")
        self._shape = tuple(shape)
        self._rows = self._shape[0] if self._shape else 1
        self._row_size = math.prod(self._shape[1:])
        self._std = noise_std
        self._active = bool(highest > 0)
        self._rng = rng if rng is not None else np.random.default_rng()
        self._row = 0
        self._complex = None
        self._real = None
        self._imag = np.empty(0)

    def _block_std(self, start: int, stop: int) -> np.ndarray:
        """The levels of rows ``start:stop`` (the batch axis of ``shape``
        sits ``ndim - len(shape)`` axes into ``noise_std``)."""
        axis = self._std.ndim - len(self._shape)
        if not self._shape or axis < 0 or self._std.shape[axis] == 1:
            return self._std
        return self._std[(slice(None),) * axis + (slice(start, stop),)]

    def add(self, signal):
        """``signal`` plus the noise of the next ``len(signal)`` rows."""
        signal = np.asarray(signal)
        start = self._row
        stop = start + (signal.shape[0] if self._shape else 1)
        complex_noise = bool(np.iscomplexobj(signal))
        if (signal.shape[1:] != self._shape[1:] or stop > self._rows
                or self._complex not in (None, complex_noise)):
            raise ValueError(f"a {signal.dtype} block of shape "
                             f"{signal.shape} does not continue the batch "
                             f"of shape {self._shape} at row {start}")
        self._row, self._complex = stop, complex_noise
        if not self._active:
            return signal.astype(complex if complex_noise else float)
        std = self._block_std(start, stop)
        shape = np.broadcast(signal, std).shape
        if not complex_noise:
            noise = self._rng.standard_normal(signal.shape)
            noise = np.multiply(noise, std,
                                out=noise if noise.shape == shape else None)
            noise += signal
            return noise
        if self._real is None:
            self._real = self._rng.standard_normal(self._rows * self._row_size)
        real = self._real[start * self._row_size:stop * self._row_size]
        if real.size == self._real.size:
            # One block: the real plane is spent once scaled, so the
            # imaginary plane reuses its memory.
            imag = real
        else:
            if self._imag.size < real.size:
                self._imag = np.empty(real.size)
            imag = self._imag[:real.size]
        scale = std / math.sqrt(2.0)
        noise = np.empty(shape, dtype=complex)
        np.multiply(real.reshape(signal.shape), scale, out=noise.real)
        self._rng.standard_normal(out=imag)
        np.multiply(imag.reshape(signal.shape), scale, out=noise.imag)
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
