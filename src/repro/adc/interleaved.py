"""Time-interleaved ADC — the gen-1 "2 GSPS 4-way time-interleaved flash ADC".

Interleaving N slices multiplies the aggregate sampling rate by N and, as the
paper notes, "performs an initial 4-way parallelization of the signal" that
the digital back end exploits.  Its costs are the inter-slice gain, offset,
and timing mismatches, all of which the model includes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.adc.flash import FlashADC
from repro.adc.jitter import SamplingClock
from repro.utils.validation import require_int, require_positive

__all__ = ["TimeInterleavedADC", "interleave_streams"]


def interleave_streams(parts, width: int) -> np.ndarray:
    """Round-robin merge of per-slice streams along the last axis.

    The inverse of the strided de-interleave ``samples[..., k::N]``:
    given ``N`` arrays ``parts`` (slice ``k`` holding the samples at
    positions ``k, k + N, k + 2N, ...``), produce the ``(..., width)``
    aggregate stream with ``out[..., k::N] == parts[k]``.  Slice lengths
    may differ by one when ``width`` is not a multiple of ``N`` (exactly
    the ``range(k, width, N)`` counts).  The slices are scattered into a
    preallocated output, with no stacked temporary.
    """
    parts = [np.asarray(part) for part in parts]
    num_slices = len(parts)
    if num_slices == 0:
        raise ValueError("interleave_streams needs at least one stream")
    if num_slices == 1:
        return parts[0][..., :width]
    out = np.empty(parts[0].shape[:-1] + (width,),
                   dtype=np.result_type(*parts))
    for index, part in enumerate(parts):
        out[..., index::num_slices] = part[
            ..., :len(range(index, width, num_slices))]
    return out


@dataclass
class TimeInterleavedADC:
    """N-way time-interleaved converter built from :class:`FlashADC` slices.

    Attributes
    ----------
    slices:
        The per-phase converters.  Mismatch between them (different gain or
        offset errors, different comparator offsets) is what produces the
        classic interleaving spurs.
    aggregate_rate_hz:
        Combined sampling rate; each slice runs at ``aggregate_rate_hz / N``.
    timing_skew_s:
        Optional per-slice deterministic timing skew.
    rms_jitter_s:
        Common aperture jitter of all slices.
    """

    slices: tuple[FlashADC, ...]
    aggregate_rate_hz: float = 2e9
    timing_skew_s: tuple[float, ...] | None = None
    rms_jitter_s: float = 0.0

    def __post_init__(self) -> None:
        if len(self.slices) < 1:
            raise ValueError("need at least one ADC slice")
        require_positive(self.aggregate_rate_hz, "aggregate_rate_hz")
        if self.timing_skew_s is not None \
                and len(self.timing_skew_s) != len(self.slices):
            raise ValueError("timing_skew_s must have one entry per slice")

    @classmethod
    def uniform(cls, num_slices: int = 4, bits: int = 4,
                aggregate_rate_hz: float = 2e9, full_scale: float = 1.0,
                comparator_offset_std: float = 0.0,
                gain_mismatch_std: float = 0.0,
                offset_mismatch_std: float = 0.0,
                timing_skew_std_s: float = 0.0,
                rms_jitter_s: float = 0.0,
                rng: np.random.Generator | None = None) -> "TimeInterleavedADC":
        """Build an interleaved ADC with randomly drawn slice mismatches."""
        require_int(num_slices, "num_slices", minimum=1)
        if rng is None:
            rng = np.random.default_rng()
        slices = []
        for _ in range(num_slices):
            gain_error = (rng.normal(0.0, gain_mismatch_std)
                          if gain_mismatch_std > 0 else 0.0)
            offset_error = (rng.normal(0.0, offset_mismatch_std)
                            if offset_mismatch_std > 0 else 0.0)
            slices.append(FlashADC(bits=bits, full_scale=full_scale,
                                   comparator_offset_std=comparator_offset_std,
                                   gain_error=gain_error,
                                   offset_error=offset_error, rng=rng))
        skew = None
        if timing_skew_std_s > 0:
            skew = tuple(float(s) for s in
                         rng.normal(0.0, timing_skew_std_s, size=num_slices))
        return cls(slices=tuple(slices), aggregate_rate_hz=aggregate_rate_hz,
                   timing_skew_s=skew, rms_jitter_s=rms_jitter_s)

    @property
    def num_slices(self) -> int:
        """Interleaving factor."""
        return len(self.slices)

    @property
    def per_slice_rate_hz(self) -> float:
        """Sampling rate of each individual slice."""
        return self.aggregate_rate_hz / self.num_slices

    @property
    def bits(self) -> int:
        """Resolution of the converter (all slices share it)."""
        return self.slices[0].bits

    def sample_and_convert(self, waveform, waveform_rate_hz: float,
                           rng: np.random.Generator | None = None
                           ) -> np.ndarray:
        """Sample a densely sampled analog waveform and convert it.

        The waveform (sampled at ``waveform_rate_hz``, which should be well
        above the aggregate rate) is sampled at the interleaved instants —
        slice *k* takes samples ``k, k+N, k+2N, ...`` with its own skew —
        and each slice converts its own stream.  The returned array is the
        re-interleaved aggregate-rate sample stream.
        """
        require_positive(waveform_rate_hz, "waveform_rate_hz")
        waveform = np.asarray(waveform, dtype=float)
        if rng is None:
            rng = np.random.default_rng()
        duration = waveform.size / waveform_rate_hz
        total_samples = int(np.floor(duration * self.aggregate_rate_hz))
        output = np.zeros(total_samples)
        aggregate_period = 1.0 / self.aggregate_rate_hz
        for slice_index, adc in enumerate(self.slices):
            skew = (self.timing_skew_s[slice_index]
                    if self.timing_skew_s is not None else 0.0)
            clock = SamplingClock(sample_rate_hz=self.per_slice_rate_hz,
                                  rms_jitter_s=self.rms_jitter_s,
                                  skew_s=skew)
            num_slice_samples = len(range(slice_index, total_samples,
                                          self.num_slices))
            analog = clock.sample_waveform(
                waveform, waveform_rate_hz,
                num_samples=num_slice_samples, rng=rng,
                start_time_s=slice_index * aggregate_period)
            output[slice_index::self.num_slices] = adc.convert(analog)
        return output

    def convert_presampled(self, samples) -> np.ndarray:
        """Convert an already-sampled stream (one sample per aggregate period).

        Used when the simulation already produced samples on the ADC grid;
        only the quantization and slice gain/offset mismatches apply.
        """
        samples = np.asarray(samples, dtype=float)
        output = np.zeros_like(samples)
        for slice_index, adc in enumerate(self.slices):
            output[slice_index::self.num_slices] = \
                adc.convert(samples[slice_index::self.num_slices])
        return output

    def convert_presampled_batch(self, samples) -> np.ndarray:
        """Convert a batch of already-sampled streams in one pass per slice.

        The batched form of :meth:`convert_presampled`: ``samples`` is
        ``(..., num_samples)`` (typically ``(packets, samples)``) and the
        slice round-robin is preserved exactly — position ``i`` of every
        row is converted by slice ``i % num_slices``, so each row's codes
        are bitwise what :meth:`convert_presampled` would have produced
        for it.
        """
        samples = np.asarray(samples, dtype=float)
        parts = [adc.convert(samples[..., index::self.num_slices])
                 for index, adc in enumerate(self.slices)]
        return interleave_streams(parts, int(samples.shape[-1]))

    def sample_and_convert_batch(self, waveforms, waveform_rate_hz: float,
                                 rng: np.random.Generator | None = None
                                 ) -> np.ndarray:
        """Sample and convert a batch of equal-length analog waveforms.

        Equivalent to stacking ``[self.sample_and_convert(w, rate, rng=rng)
        for w in waveforms]`` — the jittered sampling instants consume
        ``rng`` in exactly that per-waveform, per-slice order, so a seeded
        batch is bitwise identical to the loop — but every slice's flash
        conversion runs once over the whole ``(packets, slice_samples)``
        matrix instead of once per packet.  ``waveforms`` must be a 2-D
        ``(packets, num_samples)`` array (equal lengths; pad upstream if
        needed).
        """
        require_positive(waveform_rate_hz, "waveform_rate_hz")
        waveforms = np.asarray(waveforms, dtype=float)
        if waveforms.ndim != 2:
            raise ValueError("sample_and_convert_batch expects a 2-D "
                             "(packets, num_samples) batch; use "
                             "sample_and_convert() for a single waveform")
        if rng is None:
            rng = np.random.default_rng()
        num_packets = waveforms.shape[0]
        duration = waveforms.shape[1] / waveform_rate_hz
        total_samples = int(np.floor(duration * self.aggregate_rate_hz))
        aggregate_period = 1.0 / self.aggregate_rate_hz
        clocks = []
        slice_counts = []
        for slice_index in range(self.num_slices):
            skew = (self.timing_skew_s[slice_index]
                    if self.timing_skew_s is not None else 0.0)
            clocks.append(SamplingClock(sample_rate_hz=self.per_slice_rate_hz,
                                        rms_jitter_s=self.rms_jitter_s,
                                        skew_s=skew))
            slice_counts.append(len(range(slice_index, total_samples,
                                          self.num_slices)))
        analog = [np.empty((num_packets, count)) for count in slice_counts]
        # The sampling (jitter draws + interpolation) loops per packet to
        # keep the rng stream order of the per-packet method; only the
        # flash conversion below is batched — it dominates the cost.
        for packet in range(num_packets):
            for slice_index, clock in enumerate(clocks):
                analog[slice_index][packet] = clock.sample_waveform(
                    waveforms[packet], waveform_rate_hz,
                    num_samples=slice_counts[slice_index], rng=rng,
                    start_time_s=slice_index * aggregate_period)
        parts = [adc.convert(analog[index])
                 for index, adc in enumerate(self.slices)]
        return interleave_streams(parts, total_samples)

    def parallel_streams(self, samples) -> list[np.ndarray]:
        """Return the per-slice (already parallelized) converted streams.

        This is the "initial 4-way parallelization" handed to the gen-1
        digital back end.
        """
        samples = np.asarray(samples, dtype=float)
        return [adc.convert(samples[idx::self.num_slices])
                for idx, adc in enumerate(self.slices)]
