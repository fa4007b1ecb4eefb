"""Preamble sequences for packet acquisition and channel estimation.

The paper requires "a fast signal acquisition algorithm ... to reduce the
duration of the preamble to a value comparable with current wireless
systems (~20 us)".  The preamble has two jobs here:

1. packet detection / timing acquisition — needs a sequence with a sharp
   aperiodic autocorrelation (we use m-sequences / Gold codes), and
2. channel estimation — the correlators re-use the same sequence to sound
   the channel with up-to-4-bit precision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.validation import require_int

__all__ = [
    "lfsr_sequence",
    "m_sequence",
    "gold_code",
    "PreambleConfig",
    "build_preamble_symbols",
]

# Primitive polynomial taps (feedback positions, 1-indexed from the output
# stage) for common LFSR lengths.
_PRIMITIVE_TAPS = {
    3: (3, 2),
    4: (4, 3),
    5: (5, 3),
    6: (6, 5),
    7: (7, 6),
    8: (8, 6, 5, 4),
    9: (9, 5),
    10: (10, 7),
    11: (11, 9),
}

# Second (preferred-pair) polynomials used to build Gold codes.
_GOLD_SECOND_TAPS = {
    5: (5, 4, 3, 2),
    6: (6, 5, 2, 1),
    7: (7, 4),
    9: (9, 6, 4, 3),
    10: (10, 9, 8, 5),
    11: (11, 8, 5, 2),
}


def lfsr_sequence(taps: tuple[int, ...], num_bits: int,
                  initial_state: int = 1) -> np.ndarray:
    """Generate ``num_bits`` outputs of a Fibonacci LFSR with the given taps.

    ``taps`` are the exponents of the feedback polynomial
    ``x^degree + ... + 1`` (``degree`` itself is implied by the largest
    tap).  Each clock the register shifts right, the freshly computed
    feedback bit enters at the top, and the bit shifted out is the output.
    ``initial_state`` must be non-zero or the register would stay at zero
    forever.
    """
    require_int(num_bits, "num_bits", minimum=1)
    degree = max(taps)
    if initial_state <= 0 or initial_state >= (1 << degree):
        raise ValueError("initial_state must be a non-zero state of the register")
    state = initial_state
    out = np.zeros(num_bits, dtype=np.int64)
    for i in range(num_bits):
        out[i] = state & 1
        feedback = 0
        for tap in taps:
            feedback ^= (state >> (degree - tap)) & 1
        state = (state >> 1) | (feedback << (degree - 1))
    return out


def m_sequence(degree: int, initial_state: int = 1) -> np.ndarray:
    """A maximal-length sequence of length ``2^degree - 1`` bits."""
    if degree not in _PRIMITIVE_TAPS:
        raise ValueError(
            f"degree must be one of {sorted(_PRIMITIVE_TAPS)}, got {degree}")
    length = (1 << degree) - 1
    return lfsr_sequence(_PRIMITIVE_TAPS[degree], length,
                         initial_state=initial_state)


def gold_code(degree: int, code_index: int = 0) -> np.ndarray:
    """One Gold code of length ``2^degree - 1``.

    Gold codes are XOR combinations of a preferred pair of m-sequences; the
    family provides many codes with controlled cross-correlation, useful for
    distinguishing piconets.
    """
    if degree not in _GOLD_SECOND_TAPS:
        raise ValueError(
            f"degree must be one of {sorted(_GOLD_SECOND_TAPS)}, got {degree}")
    length = (1 << degree) - 1
    if not 0 <= code_index <= length + 1:
        raise ValueError(f"code_index must be in [0, {length + 1}]")
    seq_a = m_sequence(degree)
    seq_b = lfsr_sequence(_GOLD_SECOND_TAPS[degree], length, initial_state=1)
    if code_index == length:
        return seq_a
    if code_index == length + 1:
        return seq_b
    shifted_b = np.roll(seq_b, -code_index)
    return np.bitwise_xor(seq_a, shifted_b)


def bits_to_bipolar(bits) -> np.ndarray:
    """Map bits {0,1} to bipolar symbols {-1,+1}."""
    bits = np.asarray(bits, dtype=np.int64)
    return 2.0 * bits - 1.0


@dataclass(frozen=True)
class PreambleConfig:
    """Preamble structure used by both transceiver generations.

    The preamble is ``num_repetitions`` back-to-back copies of a base
    spreading sequence (an m-sequence of ``2^sequence_degree - 1`` chips).
    Repetition lets the receiver integrate across copies for detection at
    low SNR and average the channel estimate.
    """

    sequence_degree: int = 7
    num_repetitions: int = 16
    code_index: int | None = None
    use_gold: bool = False

    def __post_init__(self) -> None:
        require_int(self.sequence_degree, "sequence_degree", minimum=3)
        require_int(self.num_repetitions, "num_repetitions", minimum=1)

    @property
    def sequence_length(self) -> int:
        """Chips in one repetition of the base sequence."""
        return (1 << self.sequence_degree) - 1

    @property
    def total_symbols(self) -> int:
        """Total chips in the whole preamble."""
        return self.sequence_length * self.num_repetitions

    def base_sequence_bits(self) -> np.ndarray:
        """The base spreading sequence as bits."""
        if self.use_gold:
            index = self.code_index if self.code_index is not None else 0
            return gold_code(self.sequence_degree, index)
        initial = self.code_index + 1 if self.code_index is not None else 1
        return m_sequence(self.sequence_degree, initial_state=initial)

    def base_sequence_bipolar(self) -> np.ndarray:
        """The base sequence as +-1 symbols (what the correlators use)."""
        return bits_to_bipolar(self.base_sequence_bits())


def build_preamble_symbols(config: PreambleConfig) -> np.ndarray:
    """Full preamble as a +-1 symbol sequence (repetitions concatenated)."""
    base = config.base_sequence_bipolar()
    return np.tile(base, config.num_repetitions)


__all__.append("bits_to_bipolar")
