"""Preamble-based channel impulse-response estimation.

"In order to cope with the multipath, the channel impulse response is
estimated with a precision of up to four bits during the packet preamble.
This information is used in a RAKE receiver and in a Viterbi demodulator."

The estimator correlates the received preamble against the known spreading
sequence; because m-sequences have an (almost) impulsive periodic
autocorrelation, the correlation directly reads out the composite channel
impulse response (physical channel + antenna + front end).  The estimate is
then quantized to the configured precision (the paper's 4 bits), which is
what the silicon stores and what the RAKE/Viterbi actually use.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dsp.correlator import gather_windows, zero_padded_rows
from repro.utils.fixed_point import FixedPointFormat
from repro.utils.validation import require_int

__all__ = ["ChannelEstimate", "BatchedChannelEstimate", "ChannelEstimator"]

# Taps per gathered block of estimate_averaged_batch: its windows are
# gathered, multiplied and reduced this many taps at a time, so the
# gather stays a few megabytes instead of (packets, repetitions * taps,
# preamble length).  No result depends on it.
_TAP_BLOCK = 8


@dataclass(frozen=True)
class ChannelEstimate:
    """A (possibly quantized) estimate of the composite channel response.

    ``taps`` are complex (or real) channel coefficients on the receiver's
    sample grid, starting at the coarse-timing instant.
    """

    taps: np.ndarray
    sample_rate_hz: float
    quantization_bits: int | None

    @property
    def num_taps(self) -> int:
        return int(self.taps.size)

    def strongest_taps(self, count: int) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(indices, values)`` of the ``count`` strongest taps."""
        require_int(count, "count", minimum=1)
        count = min(count, self.num_taps)
        order = np.argsort(np.abs(self.taps))[::-1][:count]
        order = np.sort(order)
        return order, self.taps[order]

    def energy_capture(self, count: int) -> float:
        """Fraction of estimated channel energy in the ``count`` strongest taps."""
        total = float(np.sum(np.abs(self.taps) ** 2))
        if total <= 0:
            return 0.0
        _, values = self.strongest_taps(count)
        return float(np.sum(np.abs(values) ** 2) / total)

    def rms_delay_spread_s(self) -> float:
        """RMS delay spread implied by the estimated power-delay profile."""
        powers = np.abs(self.taps) ** 2
        total = np.sum(powers)
        if total <= 0:
            return 0.0
        delays = np.arange(self.num_taps) / self.sample_rate_hz
        mean = np.sum(powers * delays) / total
        second = np.sum(powers * delays ** 2) / total
        return float(np.sqrt(max(second - mean ** 2, 0.0)))


@dataclass(frozen=True)
class BatchedChannelEstimate:
    """Channel estimates for a whole batch of packets.

    ``taps`` carries a leading batch axis — row ``i`` is packet ``i``'s
    (possibly quantized) composite-channel estimate on the receiver's
    sample grid, starting at that packet's coarse-timing instant.
    :meth:`estimate_for` materializes the scalar-record view.
    """

    taps: np.ndarray
    sample_rate_hz: float
    quantization_bits: int | None

    def __len__(self) -> int:
        return int(self.taps.shape[0])

    def estimate_for(self, index: int) -> ChannelEstimate:
        """Packet ``index``'s estimate as a scalar :class:`ChannelEstimate`."""
        return ChannelEstimate(taps=self.taps[index],
                               sample_rate_hz=self.sample_rate_hz,
                               quantization_bits=self.quantization_bits)


class ChannelEstimator:
    """Correlation-based channel sounder using the packet preamble.

    Parameters
    ----------
    preamble_symbols:
        The known +-1 chip sequence of ONE repetition of the preamble.
    samples_per_symbol:
        Receiver samples per preamble chip.
    pulse_template:
        The (sampled) transmit pulse shape, used to collapse the pulse
        energy so the estimate approximates the propagation channel rather
        than channel*pulse.  Pass ``None`` to estimate the full composite
        response including the pulse.
    num_taps:
        Length of the estimated impulse response, in samples.
    quantization_bits:
        Precision of the stored estimate (the paper uses up to 4); ``None``
        keeps the estimate at full precision.
    """

    def __init__(self, preamble_symbols, samples_per_symbol: int,
                 pulse_template=None, num_taps: int = 64,
                 quantization_bits: int | None = 4) -> None:
        self.preamble_symbols = np.asarray(preamble_symbols, dtype=float)
        if self.preamble_symbols.size == 0:
            raise ValueError("preamble_symbols must not be empty")
        self.samples_per_symbol = require_int(samples_per_symbol,
                                              "samples_per_symbol", minimum=1)
        self.pulse_template = (np.asarray(pulse_template)
                               if pulse_template is not None else None)
        self.num_taps = require_int(num_taps, "num_taps", minimum=1)
        if quantization_bits is not None:
            require_int(quantization_bits, "quantization_bits", minimum=1)
        self.quantization_bits = quantization_bits

    def _reference_waveform(self) -> np.ndarray:
        """The known transmitted preamble waveform on the sample grid."""
        upsampled = np.zeros(self.preamble_symbols.size * self.samples_per_symbol)
        upsampled[::self.samples_per_symbol] = self.preamble_symbols
        if self.pulse_template is not None:
            upsampled = np.convolve(upsampled, self.pulse_template, mode="full")
        return upsampled

    def estimate(self, received_samples, timing_offset_samples: int,
                 sample_rate_hz: float) -> ChannelEstimate:
        """Estimate the channel from the received preamble portion.

        ``timing_offset_samples`` is the coarse-acquisition timing (where
        the preamble starts in ``received_samples``).
        """
        received_samples = np.asarray(received_samples)
        require_int(timing_offset_samples, "timing_offset_samples", minimum=0)
        reference = self._reference_waveform()
        needed = reference.size + self.num_taps
        segment = received_samples[timing_offset_samples:
                                   timing_offset_samples + needed]
        if segment.size < reference.size:
            raise ValueError("not enough received samples to cover the preamble")

        # Cross-correlate: tap[d] = sum_n r[n + d] * conj(ref[n]) / ||ref||^2.
        reference_energy = float(np.sum(np.abs(reference) ** 2))
        reference_conj = np.conj(reference)
        taps = np.zeros(self.num_taps,
                        dtype=complex if np.iscomplexobj(segment) else float)
        available = segment.size - reference.size + 1
        usable_taps = min(self.num_taps, max(available, 0))
        for delay in range(usable_taps):
            window = segment[delay:delay + reference.size]
            taps[delay] = np.sum(window * reference_conj) / reference_energy

        if self.quantization_bits is not None:
            peak = float(np.max(np.abs(taps))) if taps.size else 0.0
            if peak > 0:
                fmt = FixedPointFormat(total_bits=self.quantization_bits,
                                       full_scale=peak * 1.001)
                taps = fmt.quantize(taps)
        return ChannelEstimate(taps=taps, sample_rate_hz=sample_rate_hz,
                               quantization_bits=self.quantization_bits)

    def estimate_averaged(self, received_samples, timing_offset_samples: int,
                          sample_rate_hz: float,
                          num_repetitions: int) -> ChannelEstimate:
        """Average the estimate over several preamble repetitions.

        Each repetition occupies ``len(preamble) * samples_per_symbol``
        samples; averaging improves the estimate SNR by the repetition count
        (the reason the preamble repeats its base sequence).
        """
        require_int(num_repetitions, "num_repetitions", minimum=1)
        repetition_length = self.preamble_symbols.size * self.samples_per_symbol
        accumulated = None
        used = 0
        for rep in range(num_repetitions):
            offset = timing_offset_samples + rep * repetition_length
            try:
                estimate = self._estimate_unquantized(received_samples, offset)
            except ValueError:
                break
            accumulated = estimate if accumulated is None else accumulated + estimate
            used += 1
        if accumulated is None or used == 0:
            raise ValueError("not enough samples for even one repetition")
        taps = accumulated / used
        if self.quantization_bits is not None:
            peak = float(np.max(np.abs(taps))) if taps.size else 0.0
            if peak > 0:
                fmt = FixedPointFormat(total_bits=self.quantization_bits,
                                       full_scale=peak * 1.001)
                taps = fmt.quantize(taps)
        return ChannelEstimate(taps=taps, sample_rate_hz=sample_rate_hz,
                               quantization_bits=self.quantization_bits)

    def estimate_averaged_batch(self, samples, timing_offsets,
                                sample_rate_hz: float, num_repetitions: int,
                                valid_lengths=None
                                ) -> BatchedChannelEstimate:
        """Batched :meth:`estimate_averaged` over ``(packets, num_samples)``.

        ``timing_offsets`` holds each packet's coarse-acquisition timing;
        ``valid_lengths`` each row's true sample count when the batch was
        zero-padded to a common width.  Per packet, the estimate averages
        the same leading repetitions :meth:`estimate_averaged` would use
        (a repetition whose preamble copy no longer fits the buffer stops
        the averaging, exactly like the per-packet ``break``), computes
        the same zero-filled tail for taps beyond the usable window, and
        quantizes with the same per-packet full scale.  All window
        correlations run as one batched reduction; decisions match the
        per-packet path, floats at rounding level.
        """
        require_int(num_repetitions, "num_repetitions", minimum=1)

        samples = np.asarray(samples)
        if samples.ndim != 2:
            raise ValueError("estimate_averaged_batch expects a (packets, "
                             "num_samples) batch; use estimate_averaged() "
                             "for a single buffer")
        num_packets, num_samples = (int(samples.shape[0]),
                                    int(samples.shape[1]))
        timing_offsets = np.asarray(timing_offsets, dtype=np.int64)
        if timing_offsets.shape != (num_packets,):
            raise ValueError("timing_offsets must hold one offset per packet")
        if np.any(timing_offsets < 0):
            raise ValueError("timing offsets must be non-negative")
        if valid_lengths is None:
            valid_lengths = np.full(num_packets, num_samples, dtype=np.int64)
        else:
            valid_lengths = np.asarray(valid_lengths, dtype=np.int64)

        reference = self._reference_waveform()
        ref_len = int(reference.size)
        repetition_length = self.preamble_symbols.size * self.samples_per_symbol

        # Repetition r of packet i is usable when its full reference still
        # fits inside the valid region; offsets grow monotonically, so the
        # count of usable repetitions equals the per-packet loop's leading
        # run before its break.
        rep_offsets = (timing_offsets[:, None]
                       + np.arange(num_repetitions, dtype=np.int64)
                       * repetition_length)
        used = np.sum(valid_lengths[:, None] - rep_offsets >= ref_len, axis=1)
        if np.any(used == 0):
            raise ValueError("not enough samples for even one repetition")

        # Zero out padding (and anything past each row's valid length) so
        # windows that straddle a packet's tail contribute exactly the
        # truncated sums the per-packet path computes -- then pad the batch
        # so every gathered window is in bounds.
        samples = zero_padded_rows(
            samples, valid_lengths,
            int(rep_offsets.max()) + self.num_taps - 1 + ref_len)

        # Window products reduced with sum(axis=-1): bit-identical to the
        # per-packet per-tap np.sum dots (same pairwise reduction over
        # each contiguous window, whichever block it is gathered in) —
        # load-bearing, because the 4-bit-quantized taps are full of
        # magnitude ties and the downstream selective-RAKE argsort must
        # break them exactly like the per-packet path.  (An FFT
        # correlation here would be faster but epsilon-different, and
        # epsilon flips finger selection.)
        reference_conj = np.conj(reference)
        reference_energy = float(np.sum(np.abs(reference) ** 2))
        dtype = np.result_type(samples.dtype, reference_conj.dtype)
        raw = np.empty((num_packets, num_repetitions, self.num_taps),
                       dtype=dtype)
        for first in range(0, self.num_taps, _TAP_BLOCK):
            taps = np.arange(first, min(first + _TAP_BLOCK, self.num_taps),
                             dtype=np.int64)
            starts = rep_offsets[:, :, None] + taps
            windows = gather_windows(
                samples, starts.reshape(num_packets, -1),
                ref_len).astype(dtype, copy=False)
            windows *= reference_conj
            raw[:, :, first:first + taps.size] = windows.sum(
                axis=-1).reshape(num_packets, num_repetitions, taps.size)
        raw /= reference_energy

        # Zero exactly what the per-packet loop never computes (taps past
        # each repetition's usable window), then accumulate repetitions
        # sequentially in the per-packet order — bitwise, not a masked
        # sum, for the same tie-breaking reason as above.
        available = valid_lengths[:, None] - rep_offsets - ref_len + 1
        usable = np.clip(np.minimum(available, self.num_taps), 0, None)
        tap_mask = (np.arange(self.num_taps)[None, None, :]
                    < usable[:, :, None])
        raw = np.where(tap_mask, raw, np.zeros((), dtype=raw.dtype))
        accumulated = raw[:, 0]
        for repetition in range(1, num_repetitions):
            include = (used > repetition)[:, None]
            accumulated = np.where(include,
                                   accumulated + raw[:, repetition],
                                   accumulated)
        taps = accumulated / used[:, None]

        if self.quantization_bits is not None:
            for index in range(num_packets):
                peak = float(np.max(np.abs(taps[index]))) if taps.size else 0.0
                if peak > 0:
                    fmt = FixedPointFormat(total_bits=self.quantization_bits,
                                           full_scale=peak * 1.001)
                    taps[index] = fmt.quantize(taps[index])
        return BatchedChannelEstimate(taps=taps,
                                      sample_rate_hz=sample_rate_hz,
                                      quantization_bits=self.quantization_bits)

    def _estimate_unquantized(self, received_samples,
                              timing_offset_samples: int) -> np.ndarray:
        saved = self.quantization_bits
        self.quantization_bits = None
        try:
            estimate = self.estimate(received_samples, timing_offset_samples,
                                     sample_rate_hz=1.0)
        finally:
            self.quantization_bits = saved
        return estimate.taps
