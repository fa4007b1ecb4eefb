"""Pulse modulation schemes: how bits map onto pulses.

The paper's discrete prototype exists specifically to compare modulation
schemes within a 500 MHz bandwidth.  We implement the standard pulsed-UWB
alphabet:

* **BPSK** (antipodal pulse-amplitude): bit flips the pulse polarity.
* **OOK** (on-off keying): bit gates the pulse on or off.
* **PPM** (binary pulse-position): bit selects one of two pulse positions.
* **PAM** (M-ary pulse-amplitude): groups of bits select an amplitude level.

Each scheme is a ``Modulator`` with ``modulate(bits)`` returning per-pulse
symbols and ``demodulate(statistics)`` mapping correlator outputs back to
bits, so schemes are interchangeable throughout the library.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.bits import pack_bits, unpack_bits

__all__ = [
    "Modulator",
    "BPSKModulator",
    "OOKModulator",
    "BinaryPPMModulator",
    "PAMModulator",
    "make_modulator",
    "MODULATION_SCHEMES",
]


class Modulator:
    """Base class for pulse modulators.

    A modulator converts bits to per-pulse *symbols* and back.  Symbols are
    abstract numbers the pulse-train generator interprets:

    * amplitude schemes (BPSK/OOK/PAM) return real amplitudes;
    * position schemes (PPM) return integer position indices via
      ``position_offsets``.
    """

    name: str = "base"
    bits_per_symbol: int = 1
    #: Per-symbol time offsets (s) for position modulation; ``None`` for
    #: amplitude-only schemes.
    position_offsets: tuple[float, ...] | None = None

    def modulate(self, bits) -> np.ndarray:
        """Map bits to symbols."""
        raise NotImplementedError

    def demodulate(self, statistics) -> np.ndarray:
        """Map per-symbol decision statistics back to bits."""
        raise NotImplementedError

    def symbols_to_amplitudes(self, symbols) -> np.ndarray:
        """Return the pulse amplitude for each symbol (default: identity)."""
        return np.asarray(symbols, dtype=float)

    def num_symbols(self, num_bits: int) -> int:
        """Number of symbols produced by ``num_bits`` bits."""
        if num_bits % self.bits_per_symbol != 0:
            raise ValueError(
                f"{self.name}: bit count {num_bits} is not a multiple of "
                f"bits_per_symbol={self.bits_per_symbol}"
            )
        return num_bits // self.bits_per_symbol


def _check_bits(bits) -> np.ndarray:
    bits = np.asarray(bits, dtype=np.int64).ravel()
    # Every int64 but 0 and 1 has a bit set outside the lowest one.
    if (bits & -2).any():
        raise ValueError("bits must contain only 0 and 1")
    return bits


@dataclass
class BPSKModulator(Modulator):
    """Antipodal modulation: bit 0 -> -1, bit 1 -> +1."""

    name: str = "bpsk"
    bits_per_symbol: int = 1

    def modulate(self, bits) -> np.ndarray:
        bits = _check_bits(bits)
        return 2.0 * bits - 1.0

    def demodulate(self, statistics) -> np.ndarray:
        statistics = np.asarray(statistics, dtype=float)
        return (statistics > 0).astype(np.int64)


@dataclass
class OOKModulator(Modulator):
    """On-off keying: bit 0 -> no pulse, bit 1 -> pulse.

    The demodulation threshold is half the expected "on" amplitude; callers
    that know the received amplitude should pass normalized statistics.
    """

    name: str = "ook"
    bits_per_symbol: int = 1
    threshold: float = 0.5

    def modulate(self, bits) -> np.ndarray:
        bits = _check_bits(bits)
        return bits.astype(float)

    def demodulate(self, statistics) -> np.ndarray:
        statistics = np.asarray(statistics, dtype=float)
        return (statistics > self.threshold).astype(np.int64)


@dataclass
class BinaryPPMModulator(Modulator):
    """Binary pulse-position modulation.

    Bit 0 transmits the pulse at the nominal position, bit 1 delays it by
    ``delta_s`` seconds.  ``demodulate`` expects the *difference* between the
    late-position and early-position correlator outputs.
    """

    delta_s: float = 2e-9
    name: str = "ppm"
    bits_per_symbol: int = 1

    def __post_init__(self) -> None:
        if self.delta_s <= 0:
            raise ValueError("delta_s must be positive")
        self.position_offsets = (0.0, float(self.delta_s))

    def modulate(self, bits) -> np.ndarray:
        bits = _check_bits(bits)
        return bits.astype(np.int64)

    def symbols_to_amplitudes(self, symbols) -> np.ndarray:
        return np.ones(np.asarray(symbols).size, dtype=float)

    def demodulate(self, statistics) -> np.ndarray:
        statistics = np.asarray(statistics, dtype=float)
        return (statistics > 0).astype(np.int64)


@dataclass
class PAMModulator(Modulator):
    """M-ary pulse-amplitude modulation with a Gray-mapped symmetric alphabet.

    Levels are ``{±1, ±3, ...} / sqrt(E_avg)`` so the average symbol energy
    is one, making Eb/N0 comparisons across orders fair.
    """

    order: int = 4
    name: str = "pam"

    def __post_init__(self) -> None:
        if self.order < 2 or (self.order & (self.order - 1)) != 0:
            raise ValueError("order must be a power of two >= 2")
        self.bits_per_symbol = int(np.log2(self.order))
        raw_levels = np.arange(-(self.order - 1), self.order, 2, dtype=float)
        scale = np.sqrt(np.mean(raw_levels ** 2))
        self._levels = raw_levels / scale
        self.name = f"pam{self.order}"

    @property
    def levels(self) -> np.ndarray:
        """The normalized amplitude levels in increasing order."""
        return self._levels.copy()

    def _word_for_level_index(self, index: int) -> int:
        """Gray labelling: amplitude level ``index`` carries ``gray(index)``.

        Adjacent amplitude levels then differ in exactly one data bit, which
        is the property that makes nearest-level errors cost a single bit.
        """
        return index ^ (index >> 1)

    def modulate(self, bits) -> np.ndarray:
        bits = _check_bits(bits)
        words = pack_bits(bits, self.bits_per_symbol)
        # Invert the Gray labelling: data word -> amplitude level index.
        level_for_word = np.zeros(self.order, dtype=np.int64)
        for index in range(self.order):
            level_for_word[self._word_for_level_index(index)] = index
        indices = level_for_word[words]
        return self._levels[indices]

    def demodulate(self, statistics) -> np.ndarray:
        statistics = np.asarray(statistics, dtype=float)
        # Nearest-level detection, then read off the Gray label.
        distances = np.abs(statistics[:, None] - self._levels[None, :])
        indices = np.argmin(distances, axis=1)
        words = np.array([self._word_for_level_index(int(i)) for i in indices],
                         dtype=np.int64)
        return unpack_bits(words, self.bits_per_symbol)


def make_modulator(scheme: str, **kwargs) -> Modulator:
    """Factory: build a modulator from a scheme name.

    Supported names: ``"bpsk"``, ``"ook"``, ``"ppm"``, ``"pam4"``, ``"pam8"``,
    or ``"pam"`` with an ``order`` keyword.
    """
    scheme = scheme.lower()
    if scheme == "bpsk":
        return BPSKModulator(**kwargs)
    if scheme == "ook":
        return OOKModulator(**kwargs)
    if scheme == "ppm":
        return BinaryPPMModulator(**kwargs)
    if scheme.startswith("pam"):
        suffix = scheme[3:]
        if suffix:
            kwargs.setdefault("order", int(suffix))
        return PAMModulator(**kwargs)
    raise ValueError(f"unknown modulation scheme {scheme!r}; supported: "
                     "bpsk, ook, ppm, pam<order>")


MODULATION_SCHEMES = ("bpsk", "ook", "ppm", "pam4")
"""The schemes compared by the discrete-prototype benchmark."""
