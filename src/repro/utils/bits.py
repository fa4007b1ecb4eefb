"""Bit- and byte-level helpers used by the PHY layer and the digital back end."""

from __future__ import annotations

import numpy as np

__all__ = [
    "random_bits",
    "int_to_bits",
    "bits_to_int",
    "bit_errors",
    "pack_bits",
    "unpack_bits",
]


def random_bits(num_bits: int, rng: np.random.Generator | None = None) -> np.ndarray:
    """Return ``num_bits`` independent uniform bits as an int array of 0/1."""
    if num_bits < 0:
        raise ValueError("num_bits must be non-negative")
    if rng is None:
        rng = np.random.default_rng()
    return rng.integers(0, 2, size=num_bits, dtype=np.int64)


def _as_bit_array(bits) -> np.ndarray:
    bits = np.asarray(bits, dtype=np.int64).ravel()
    if bits.size and not np.all((bits == 0) | (bits == 1)):
        raise ValueError("bits must contain only 0 and 1")
    return bits


def int_to_bits(value: int, width: int) -> np.ndarray:
    """Return ``value`` as a 0/1 array of length ``width``, MSB first."""
    if width < 0:
        raise ValueError("width must be non-negative")
    if value < 0:
        raise ValueError("value must be non-negative")
    if value >= (1 << width):
        raise ValueError(f"value {value} does not fit in {width} bits")
    return np.array([(value >> (width - 1 - i)) & 1 for i in range(width)],
                    dtype=np.int64)


def bits_to_int(bits) -> int:
    """Interpret a 0/1 array (MSB first) as an unsigned integer."""
    bits = _as_bit_array(bits)
    value = 0
    for b in bits:
        value = (value << 1) | int(b)
    return value


def bit_errors(reference, received) -> int:
    """Count positions where two equal-length bit arrays differ."""
    ref = _as_bit_array(reference)
    rec = _as_bit_array(received)
    if ref.size != rec.size:
        raise ValueError(
            f"length mismatch: reference has {ref.size} bits, received {rec.size}"
        )
    return int(np.sum(ref != rec))


def pack_bits(bits, word_width: int) -> np.ndarray:
    """Group a bit array into unsigned integers of ``word_width`` bits each.

    The bit count must be a multiple of ``word_width``; each word is MSB first.
    """
    bits = _as_bit_array(bits)
    if word_width <= 0:
        raise ValueError("word_width must be positive")
    if bits.size % word_width != 0:
        raise ValueError("bit count must be a multiple of word_width")
    if bits.size == 0:
        return np.zeros(0, dtype=np.int64)
    reshaped = bits.reshape(-1, word_width)
    weights = 1 << np.arange(word_width - 1, -1, -1, dtype=np.int64)
    return reshaped @ weights


def unpack_bits(words, word_width: int) -> np.ndarray:
    """Expand unsigned integers into a bit array of ``word_width`` bits each."""
    if word_width <= 0:
        raise ValueError("word_width must be positive")
    words = np.asarray(words, dtype=np.int64).ravel()
    if words.size and (np.any(words < 0) or np.any(words >= (1 << word_width))):
        raise ValueError(f"words must fit in {word_width} bits")
    out = np.zeros((words.size, word_width), dtype=np.int64)
    for i in range(word_width):
        out[:, word_width - 1 - i] = (words >> i) & 1
    return out.ravel()
