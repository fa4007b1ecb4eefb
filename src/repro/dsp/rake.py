"""RAKE receiver: recombining the energy the multipath channel spread out.

"The energy spread caused by the multipath can be compensated using a RAKE
receiver" — each RAKE finger correlates the received signal at one resolved
path delay, weights it by the (quantized) channel estimate, and the weighted
outputs are summed (maximal-ratio combining).  The gen-2 RAKE is
*programmable*: the number of fingers is a knob the adaptation policy uses
to trade power for performance.

Finger-selection policies:

* ``"arake"`` — all-RAKE: every estimated tap is a finger (upper bound).
* ``"srake"`` — selective RAKE: the L strongest taps.
* ``"prake"`` — partial RAKE: the first L taps (cheapest to search).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dsp.channel_estimation import ChannelEstimate
from repro.dsp.correlator import gather_windows, zero_padded_rows
from repro.utils.validation import require_int

__all__ = ["RakeFinger", "RakeReceiver", "FINGER_POLICIES",
           "combine_streams_batch", "finger_arrays"]

FINGER_POLICIES = ("arake", "srake", "prake")
# Fingers whose windows combine_streams_batch gathers at once, and the
# most window samples one gather may hold (2 MB of real samples), which
# splits the packets too when a block of fingers alone holds more.
_FINGER_BLOCK = 4
_GATHER_SAMPLES = 1 << 18


def finger_arrays(receivers) -> tuple[np.ndarray, np.ndarray]:
    """Pack per-packet RAKE fingers into padded ``(delays, weights)`` arrays.

    ``receivers`` is one :class:`RakeReceiver` per packet; the result is a
    pair of ``(packets, max_fingers)`` arrays, rows padded with zero-weight
    fingers at delay 0 (a zero weight contributes exactly nothing to the
    combined statistic, so padding is free).  This is the record layout
    :func:`combine_streams_batch` consumes.
    """
    receivers = list(receivers)
    if not receivers:
        raise ValueError("need at least one RakeReceiver")
    width = max(len(receiver.fingers) for receiver in receivers)
    delays = np.zeros((len(receivers), width), dtype=np.int64)
    weights = np.zeros((len(receivers), width), dtype=complex)
    for index, receiver in enumerate(receivers):
        for slot, finger in enumerate(receiver.fingers):
            delays[index, slot] = finger.delay_samples
            weights[index, slot] = finger.weight
    return delays, weights


def combine_streams_batch(samples, finger_delays, finger_weights, template,
                          symbol_period_samples: int, first_symbol_samples,
                          num_symbols: int,
                          valid_lengths=None) -> np.ndarray:
    """Batched :meth:`RakeReceiver.combine_stream` over a packet batch.

    Parameters mirror the per-packet call with one leading batch axis:
    ``samples`` is ``(packets, num_samples)`` (rows zero-padded to a
    common width, true counts in ``valid_lengths``), ``finger_delays`` /
    ``finger_weights`` are the padded ``(packets, max_fingers)`` arrays
    from :func:`finger_arrays`, and ``first_symbol_samples`` holds each
    packet's first symbol start (acquisition timing shifts it per packet).
    The finger x symbol correlations are gathered and reduced a few
    fingers and packets at a time (each block's rows zero-padded on
    their own), then weighted and summed over the fingers in one
    einsum.  Fingers that start past a
    packet's valid samples contribute exactly zero — the batched
    equivalent of the per-packet skip/truncate — so decisions match the
    per-packet loop, floats at rounding level.
    """
    require_int(symbol_period_samples, "symbol_period_samples", minimum=1)
    require_int(num_symbols, "num_symbols", minimum=1)

    samples = np.asarray(samples)
    if samples.ndim != 2:
        raise ValueError("combine_streams_batch expects a (packets, "
                         "num_samples) batch; use combine_stream() for one")
    num_packets, num_samples = int(samples.shape[0]), int(samples.shape[1])
    finger_delays = np.asarray(finger_delays, dtype=np.int64)
    finger_weights = np.asarray(finger_weights)
    first_symbol_samples = np.asarray(first_symbol_samples, dtype=np.int64)
    if finger_delays.shape != finger_weights.shape \
            or finger_delays.ndim != 2 \
            or finger_delays.shape[0] != num_packets:
        raise ValueError("finger_delays and finger_weights must both be "
                         "(packets, max_fingers)")
    if np.any(finger_delays < 0):
        raise ValueError("finger delays must be non-negative")
    if first_symbol_samples.shape != (num_packets,):
        raise ValueError("first_symbol_samples must hold one start per packet")
    template = np.asarray(template)
    length = int(template.size)

    starts = (first_symbol_samples[:, None, None]
              + finger_delays[:, :, None]
              + np.arange(num_symbols, dtype=np.int64)[None, None, :]
              * symbol_period_samples)
    width = int(starts.max()) + length
    if valid_lengths is not None:
        valid_lengths = np.asarray(valid_lengths, dtype=np.int64)

    # A few fingers' and packets' windows at a time: every finger x
    # symbol correlation is its own reduction over the template, so the
    # split changes no float, and neither the padded rows nor the
    # gathered windows grow with the batch.
    max_fingers = finger_delays.shape[1]
    correlations = np.empty((num_packets, max_fingers, num_symbols),
                            dtype=np.result_type(samples, template))
    template_conj = np.conj(template)
    row_samples = max(min(max_fingers, _FINGER_BLOCK) * num_symbols * length,
                      width)
    rows_per_block = max(1, _GATHER_SAMPLES // row_samples)
    for first_row in range(0, num_packets, rows_per_block):
        rows = slice(first_row, first_row + rows_per_block)
        # Only the first ``width`` samples of a row are ever read.
        padded = zero_padded_rows(
            samples[rows, :width],
            None if valid_lengths is None else valid_lengths[rows], width)
        for first in range(0, max_fingers, _FINGER_BLOCK):
            block = slice(first, first + _FINGER_BLOCK)
            windows = gather_windows(
                padded, starts[rows, block].reshape(len(padded), -1),
                length)
            correlations[rows, block] = np.einsum(
                "pfkl,l->pfk",
                windows.reshape(len(padded), -1, num_symbols, length),
                template_conj)
    statistics = np.einsum("pf,pfk->pk", np.conj(finger_weights),
                           correlations)
    return np.asarray(statistics, dtype=complex)


@dataclass(frozen=True)
class RakeFinger:
    """One RAKE finger: a delay (in samples) and a combining weight."""

    delay_samples: int
    weight: complex

    def __post_init__(self) -> None:
        if self.delay_samples < 0:
            raise ValueError("delay_samples must be non-negative")


class RakeReceiver:
    """Maximal-ratio-combining RAKE built from a channel estimate.

    Parameters
    ----------
    channel_estimate:
        The (quantized) channel estimate from the preamble.
    num_fingers:
        How many fingers to instantiate (ignored for ``"arake"``).
    policy:
        Finger-selection policy (see module docstring).
    """

    def __init__(self, channel_estimate: ChannelEstimate,
                 num_fingers: int = 4, policy: str = "srake") -> None:
        policy = policy.lower()
        if policy not in FINGER_POLICIES:
            raise ValueError(
                f"policy must be one of {FINGER_POLICIES}, got {policy!r}")
        require_int(num_fingers, "num_fingers", minimum=1)
        self.channel_estimate = channel_estimate
        self.policy = policy
        self.num_fingers = num_fingers
        self.fingers = self._select_fingers()

    def _select_fingers(self) -> list[RakeFinger]:
        taps = self.channel_estimate.taps
        if self.policy == "arake":
            indices = np.nonzero(np.abs(taps) > 0)[0]
        elif self.policy == "srake":
            nonzero = np.nonzero(np.abs(taps) > 0)[0]
            order = nonzero[np.argsort(np.abs(taps[nonzero]))[::-1]]
            indices = np.sort(order[:self.num_fingers])
        else:  # prake
            nonzero = np.nonzero(np.abs(taps) > 0)[0]
            indices = nonzero[:self.num_fingers]
        if indices.size == 0:
            # Degenerate estimate: fall back to a single finger at delay 0.
            return [RakeFinger(delay_samples=0, weight=1.0)]
        return [RakeFinger(delay_samples=int(i), weight=complex(taps[i]))
                for i in indices]

    def combining_weights(self) -> np.ndarray:
        """The MRC weights (conjugated channel estimates) per finger."""
        return np.asarray([np.conj(f.weight) for f in self.fingers])

    def captured_energy_fraction(self) -> float:
        """Fraction of estimated channel energy covered by the fingers."""
        total = float(np.sum(np.abs(self.channel_estimate.taps) ** 2))
        if total <= 0:
            return 0.0
        captured = float(sum(abs(f.weight) ** 2 for f in self.fingers))
        return captured / total

    def combine(self, samples, template, symbol_start_sample: int) -> complex:
        """MRC decision statistic for one symbol.

        For each finger, correlate the received samples at
        ``symbol_start_sample + finger.delay`` against the transmit
        ``template`` and weight by the conjugate channel coefficient.  The
        result's real part is the decision statistic for real alphabets.
        """
        samples = np.asarray(samples)
        template = np.asarray(template)
        statistic = 0.0 + 0.0j
        for finger in self.fingers:
            start = symbol_start_sample + finger.delay_samples
            stop = start + template.size
            if start < 0 or start >= samples.size:
                continue
            segment = samples[start:min(stop, samples.size)]
            finger_template = template[:segment.size]
            correlation = np.sum(segment * np.conj(finger_template))
            statistic += np.conj(finger.weight) * correlation
        return complex(statistic)

    def combine_stream(self, samples, template, symbol_period_samples: int,
                       first_symbol_sample: int, num_symbols: int) -> np.ndarray:
        """Decision statistics for a run of consecutive symbols."""
        require_int(symbol_period_samples, "symbol_period_samples", minimum=1)
        require_int(num_symbols, "num_symbols", minimum=1)
        statistics = np.zeros(num_symbols, dtype=complex)
        for k in range(num_symbols):
            start = first_symbol_sample + k * symbol_period_samples
            statistics[k] = self.combine(samples, template, start)
        return statistics

    def isi_taps(self, symbol_period_samples: int,
                 max_symbol_taps: int = 4) -> np.ndarray:
        """Symbol-spaced ISI taps of the RAKE output (for the MLSE).

        Thin wrapper over :func:`repro.dsp.viterbi.rake_isi_taps` using this
        receiver's fingers and the channel estimate it was built from.
        """
        from repro.dsp.viterbi import rake_isi_taps

        delays = [f.delay_samples for f in self.fingers]
        weights = [f.weight for f in self.fingers]
        return rake_isi_taps(self.channel_estimate, delays, weights,
                             symbol_period_samples,
                             max_symbol_taps=max_symbol_taps)
