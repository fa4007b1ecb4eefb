"""Viterbi demodulator (MLSE equalizer) for inter-symbol interference.

"The inter-symbol interference (ISI) due to multipath can be addressed with
a Viterbi demodulator."  When the channel's delay spread exceeds the symbol
period, the RAKE's per-symbol statistics are corrupted by neighbouring
symbols.  The maximum-likelihood sequence estimator (MLSE) runs a Viterbi
search over the symbol alphabet with the symbol-spaced equivalent channel as
its trellis, which is exactly the programmable Viterbi machine in the gen-2
back end.
"""

from __future__ import annotations

import numpy as np

from repro.dsp.channel_estimation import ChannelEstimate
from repro.utils.validation import require_int

__all__ = ["MLSEEqualizer", "rake_isi_taps", "equalize_to_bits_batch"]


def rake_isi_taps(channel_estimate: ChannelEstimate,
                  finger_delays, finger_weights,
                  symbol_period_samples: int,
                  max_symbol_taps: int = 4) -> np.ndarray:
    """Symbol-spaced ISI taps as seen at the output of a RAKE combiner.

    The RAKE statistic for symbol ``k`` is (up to a common scale)
    ``sum_f conj(w_f) * sum_j a_j * h[d_f + (k - j) T]``, so the normalized
    postcursor ISI coefficients are

    ``g_l = sum_f conj(w_f) h[d_f + l T] / sum_f conj(w_f) h[d_f]``.

    ``g_0`` is 1 by construction; the returned vector ``[g_0, g_1, ...]``
    feeds :class:`MLSEEqualizer` directly.  Precursor terms are neglected
    (the timing reference is the strongest path, so energy arriving before
    it is small by construction).
    """
    require_int(symbol_period_samples, "symbol_period_samples", minimum=1)
    require_int(max_symbol_taps, "max_symbol_taps", minimum=1)
    finger_delays = np.asarray(finger_delays, dtype=np.int64).ravel()
    finger_weights = np.asarray(finger_weights).ravel()
    if finger_delays.size != finger_weights.size:
        raise ValueError("finger_delays and finger_weights must match")
    h = np.asarray(channel_estimate.taps, dtype=complex)
    # The (lag, finger) terms conj(w_f) h[d_f + l T], zero where the index
    # falls outside the estimate.  The complex products are spelled out in
    # real arithmetic, the operations (and roundings) of a scalar complex
    # multiply, and each lag sums its fingers in order from zero with a
    # cumulative sum, as a loop over the fingers would.
    index = (finger_delays[None, :]
             + symbol_period_samples * np.arange(max_symbol_taps)[:, None])
    inside = (index >= 0) & (index < h.size)
    h_at = (h[np.where(inside, index, 0)] if h.size
            else np.zeros(index.shape, dtype=complex))
    weights = np.conj(finger_weights.astype(complex))
    terms = np.zeros((max_symbol_taps, finger_delays.size + 1),
                     dtype=complex)
    terms.real[:, 1:] = np.where(
        inside, weights.real * h_at.real - weights.imag * h_at.imag, 0.0)
    terms.imag[:, 1:] = np.where(
        inside, weights.real * h_at.imag + weights.imag * h_at.real, 0.0)
    taps = np.cumsum(terms, axis=1)[:, -1]
    if abs(taps[0]) <= 0:
        return np.array([1.0 + 0.0j])
    taps = taps / taps[0]
    # Drop trailing taps that carry no meaningful energy.
    keep = max_symbol_taps
    while keep > 1 and abs(taps[keep - 1]) < 0.05:
        keep -= 1
    return taps[:keep]


class MLSEEqualizer:
    """Viterbi sequence detector over a symbol-spaced ISI channel.

    Parameters
    ----------
    isi_taps:
        Symbol-spaced channel taps ``h[0..L-1]`` (h[0] is the desired
        symbol's weight).  The trellis has ``len(alphabet)^(L-1)`` states.
    alphabet:
        The symbol alphabet (e.g. ``(-1.0, +1.0)`` for BPSK).
    """

    def __init__(self, isi_taps, alphabet=(-1.0, 1.0)) -> None:
        self.isi_taps = np.asarray(isi_taps, dtype=complex).ravel()
        if self.isi_taps.size == 0:
            raise ValueError("isi_taps must not be empty")
        self.alphabet = tuple(complex(a) for a in alphabet)
        if len(self.alphabet) < 2:
            raise ValueError("alphabet needs at least two symbols")
        self.memory = self.isi_taps.size - 1
        self.num_states = len(self.alphabet) ** self.memory
        if self.num_states > 4096:
            raise ValueError(
                "trellis too large; reduce ISI taps or alphabet size")

    def _state_symbols(self, state: int) -> list[complex]:
        """Decode a state index into the last ``memory`` symbols (newest first)."""
        symbols = []
        m = len(self.alphabet)
        for _ in range(self.memory):
            symbols.append(self.alphabet[state % m])
            state //= m
        return symbols

    def _next_state(self, state: int, symbol_index: int) -> int:
        """State after emitting ``symbol_index`` (newest symbol in low digit)."""
        m = len(self.alphabet)
        if self.memory == 0:
            return 0
        return (state * m + symbol_index) % (m ** self.memory)

    def _expected(self, state: int, symbol: complex) -> complex:
        """Expected noiseless statistic for (state, new symbol)."""
        value = self.isi_taps[0] * symbol
        previous = self._state_symbols(state)
        for tap_index in range(1, self.isi_taps.size):
            value += self.isi_taps[tap_index] * previous[tap_index - 1]
        return value

    def equalize(self, statistics) -> np.ndarray:
        """Return the maximum-likelihood symbol sequence for the statistics.

        ``statistics`` are the per-symbol RAKE (or matched-filter) outputs,
        already scaled so a noiseless isolated symbol ``a`` produces
        approximately ``a`` (the library's receivers normalize by the
        template and channel energy).
        """
        statistics = np.asarray(statistics, dtype=complex).ravel()
        num_symbols = statistics.size
        if num_symbols == 0:
            return np.zeros(0, dtype=complex)

        metrics = np.full(self.num_states, np.inf)
        metrics[0] = 0.0
        survivors = np.zeros((num_symbols, self.num_states, 2), dtype=np.int64)

        for t in range(num_symbols):
            new_metrics = np.full(self.num_states, np.inf)
            new_survivors = np.zeros((self.num_states, 2), dtype=np.int64)
            for state in range(self.num_states):
                if not np.isfinite(metrics[state]):
                    continue
                for symbol_index, symbol in enumerate(self.alphabet):
                    expected = self._expected(state, symbol)
                    branch = abs(statistics[t] - expected) ** 2
                    candidate = metrics[state] + branch
                    nxt = self._next_state(state, symbol_index)
                    if candidate < new_metrics[nxt]:
                        new_metrics[nxt] = candidate
                        new_survivors[nxt] = (state, symbol_index)
            metrics = new_metrics
            survivors[t] = new_survivors

        state = int(np.argmin(metrics))
        decided = np.zeros(num_symbols, dtype=complex)
        for t in range(num_symbols - 1, -1, -1):
            prev_state, symbol_index = survivors[t, state]
            decided[t] = self.alphabet[symbol_index]
            state = int(prev_state)
        return decided

    def equalize_to_bits(self, statistics) -> np.ndarray:
        """Equalize and map the BPSK alphabet back to bits (+1 -> 1, -1 -> 0)."""
        symbols = self.equalize(statistics)
        return (np.real(symbols) > 0).astype(np.int64)


def equalize_to_bits_batch(equalizers, statistics_rows) -> list[np.ndarray]:
    """Batched :meth:`MLSEEqualizer.equalize_to_bits` over many packets.

    ``equalizers`` holds one per-packet BPSK :class:`MLSEEqualizer` (each
    built from that packet's own ISI taps; any two-symbol alphabet is
    accepted, since bits are read as ``real(symbol) > 0``) and
    ``statistics_rows`` the matching per-symbol statistics.  Packets
    sharing a trellis — same alphabet and memory — run as one vectorized
    add-compare-select pass whatever their symbol counts: each row's
    metrics are read at its own last step and its backtrack starts there.
    With two symbols every state has exactly two incoming branches, so a
    step is one comparison whose ties go to the first branch in the scalar
    :meth:`~MLSEEqualizer.equalize` loop's scan order, and the final
    argmin takes the lowest state as the scalar loop does; each packet's
    decided bits match its per-packet call.
    """
    equalizers = list(equalizers)
    statistics_rows = [np.asarray(row, dtype=complex).ravel()
                       for row in statistics_rows]
    if len(equalizers) != len(statistics_rows):
        raise ValueError("need one statistics row per equalizer")
    if any(len(equalizer.alphabet) != 2 for equalizer in equalizers):
        raise ValueError("equalize_to_bits_batch needs two-symbol (BPSK) "
                         "equalizers; use MLSEEqualizer.equalize otherwise")
    results = [np.zeros(0, dtype=np.int64) for _ in equalizers]

    groups: dict[tuple, list[int]] = {}
    for index, (equalizer, row) in enumerate(zip(equalizers,
                                                 statistics_rows)):
        if row.size:
            groups.setdefault((equalizer.alphabet, equalizer.memory),
                              []).append(index)

    for (alphabet, memory), members in groups.items():
        reference = equalizers[members[0]]
        num_states = reference.num_states
        alphabet_arr = np.asarray(alphabet, dtype=complex)

        # The two incoming (state, symbol) branches of every next state,
        # in the scalar loop's (state-major, symbol-minor) scan order.
        incoming: list[list[tuple[int, int]]] = [[]
                                                 for _ in range(num_states)]
        for state in range(num_states):
            for symbol_index in range(2):
                incoming[reference._next_state(state, symbol_index)].append(
                    (state, symbol_index))
        in_prev = np.asarray([[prev for prev, _ in entry]
                              for entry in incoming], dtype=np.int64)
        in_sym = np.asarray([[symbol for _, symbol in entry]
                             for entry in incoming], dtype=np.int64)

        # Expected noiseless statistics per (packet, state, new symbol).
        state_history = np.asarray(
            [reference._state_symbols(state) for state in range(num_states)],
            dtype=complex).reshape(num_states, memory)
        group_size = len(members)
        taps = np.zeros((group_size, memory + 1), dtype=complex)
        for row_index, index in enumerate(members):
            taps[row_index] = equalizers[index].isi_taps
        expected = (taps[:, 0, None, None] * alphabet_arr[None, None, :]
                    + (state_history @ taps[:, 1:].T).T[:, :, None])

        # Rows of different lengths share the pass, zero-padded at the
        # end; a row's steps past its own end never reach its result.
        lengths = np.asarray([statistics_rows[index].size
                              for index in members])
        num_steps = int(lengths.max())
        ending: dict[int, list[int]] = {}
        stats = np.zeros((group_size, num_steps), dtype=complex)
        for row_index, index in enumerate(members):
            stats[row_index, :lengths[row_index]] = statistics_rows[index]
            ending.setdefault(int(lengths[row_index]) - 1,
                              []).append(row_index)

        # All branch metrics up front, gathered per incoming branch and
        # laid out (step, packet, branch, state), so each sequential ACS
        # step is one gather, one add, one compare and one select.
        branch_all = np.abs(stats[:, :, None, None]
                            - expected[:, None, :, :]) ** 2
        branch_incoming = np.ascontiguousarray(
            branch_all[:, :, in_prev.T, in_sym.T].transpose(1, 0, 2, 3)
        ).reshape(num_steps, group_size, 2 * num_states)
        prev_flat = in_prev.T.ravel()
        metrics = np.full((group_size, num_states), np.inf)
        metrics[:, 0] = 0.0
        final_metrics = np.empty((group_size, num_states))
        choices = np.empty((num_steps, group_size, num_states), dtype=bool)
        for t in range(num_steps):
            candidates = metrics[:, prev_flat] + branch_incoming[t]
            first = candidates[:, :num_states]
            second = candidates[:, num_states:]
            choice = np.less(second, first, out=choices[t])
            metrics = np.where(choice, second, first)
            rows_ending = ending.get(t)
            if rows_ending is not None:
                final_metrics[rows_ending] = metrics[rows_ending]

        state = np.zeros(group_size, dtype=np.int64)
        decided = np.zeros((group_size, num_steps), dtype=np.int64)
        rows = np.arange(group_size)
        for t in range(num_steps - 1, -1, -1):
            rows_ending = ending.get(t)
            if rows_ending is not None:
                state[rows_ending] = np.argmin(final_metrics[rows_ending],
                                               axis=-1)
            choice = choices[t, rows, state].astype(np.int64)
            decided[:, t] = in_sym[state, choice]
            state = in_prev[state, choice]
        bits = (np.real(alphabet_arr[decided]) > 0).astype(np.int64)
        for row_index, index in enumerate(members):
            results[index] = bits[row_index, :lengths[row_index]]
    return results
