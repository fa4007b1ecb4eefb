"""Coarse packet acquisition (detection + timing synchronization).

Both chips synchronize entirely in the digital domain: a bank of correlators
sweeps timing hypotheses against the known preamble until a peak crosses a
threshold.  The paper's figures of merit are the acquisition *latency*
(gen-1: "packet synchronization is obtained in less than 70 us", target
preamble ~20 us) and the detection performance at low SNR, both of which the
model reports.

The search is hypothesis-parallel: with ``parallelism`` correlator lanes the
back end evaluates that many timing offsets per clock, which is exactly how
parallelization buys acquisition speed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.dsp.correlator import (
    gather_windows,
    normalized_correlation,
    normalized_correlation_batch,
    sliding_correlation,
    sliding_correlation_batch,
)
from repro.dsp.parallelizer import acquisition_time_s
from repro.utils.validation import require_int, require_positive

__all__ = ["AcquisitionConfig", "AcquisitionResult",
           "BatchedAcquisitionResult", "CoarseAcquisition"]

#: Rows per FFT correlation call of :meth:`CoarseAcquisition.acquire_batch`.
_CORRELATION_ROWS = 8


@dataclass(frozen=True)
class AcquisitionConfig:
    """Parameters of the coarse-acquisition search.

    Attributes
    ----------
    threshold:
        Normalized-correlation magnitude above which a packet is declared
        (0..1, since the detector statistic is energy-normalized).
    cfar_factor:
        Secondary (CFAR-style) detection criterion: the packet is also
        declared when the raw matched-filter peak exceeds ``cfar_factor``
        times the median of the raw correlation magnitude across the
        searched window.  This criterion integrates over the whole preamble
        and therefore keeps working when the *per-pulse* SNR is very low
        (e.g. many pulses per bit), where the energy-normalized metric
        saturates.
    parallelism:
        Number of timing hypotheses evaluated per back-end clock cycle.
    backend_clock_hz:
        Clock rate of the digital back end (used only for latency
        accounting, not for the math).
    search_step_samples:
        Granularity of the timing search; 1 = every sample offset.
    max_search_samples:
        Cap on how many sample offsets are searched (None = all).
    """

    threshold: float = 0.55
    cfar_factor: float = 8.0
    parallelism: int = 16
    backend_clock_hz: float = 100e6
    search_step_samples: int = 1
    max_search_samples: int | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.threshold <= 1.0:
            raise ValueError("threshold must be in (0, 1]")
        require_positive(self.cfar_factor, "cfar_factor")
        require_int(self.parallelism, "parallelism", minimum=1)
        require_positive(self.backend_clock_hz, "backend_clock_hz")
        require_int(self.search_step_samples, "search_step_samples", minimum=1)


@dataclass(frozen=True)
class AcquisitionResult:
    """Outcome of a coarse-acquisition attempt."""

    detected: bool
    timing_offset_samples: int
    peak_metric: float
    num_hypotheses_searched: int
    search_time_s: float
    correlation_profile: np.ndarray = field(repr=False, default=None)

    def timing_error_samples(self, true_offset: int) -> int:
        """Signed timing error relative to the known true offset."""
        return int(self.timing_offset_samples - true_offset)


@dataclass(frozen=True)
class BatchedAcquisitionResult:
    """Acquisition outcomes for a whole batch of capture buffers.

    The record layout mirrors :class:`AcquisitionResult` with one leading
    batch axis: element ``i`` of every array is packet ``i``'s outcome, and
    :meth:`result_for` materializes the per-packet view when scalar-record
    consumers (packet scoring, reports) need one.
    """

    detected: np.ndarray
    timing_offset_samples: np.ndarray
    peak_metric: np.ndarray
    num_hypotheses_searched: np.ndarray
    search_time_s: np.ndarray
    correlation_profiles: np.ndarray = field(repr=False, default=None)

    def __len__(self) -> int:
        return int(self.detected.size)

    def result_for(self, index: int) -> AcquisitionResult:
        """Packet ``index``'s outcome as a scalar :class:`AcquisitionResult`."""
        profile = (self.correlation_profiles[index]
                   if self.correlation_profiles is not None else None)
        return AcquisitionResult(
            detected=bool(self.detected[index]),
            timing_offset_samples=int(self.timing_offset_samples[index]),
            peak_metric=float(self.peak_metric[index]),
            num_hypotheses_searched=int(self.num_hypotheses_searched[index]),
            search_time_s=float(self.search_time_s[index]),
            correlation_profile=profile)


class CoarseAcquisition:
    """Threshold detector + argmax timing estimator over the preamble template."""

    def __init__(self, preamble_template, config: AcquisitionConfig | None = None
                 ) -> None:
        self.template = np.asarray(preamble_template)
        if self.template.size == 0:
            raise ValueError("preamble template must not be empty")
        self.config = config if config is not None else AcquisitionConfig()

    def _searched(self, num_correlations: int) -> slice:
        """The timing offsets searched among ``num_correlations``: every
        ``search_step_samples``-th from 0, below ``max_search_samples``."""
        stop = num_correlations
        if self.config.max_search_samples is not None:
            # Offsets are integers: below a cap is below its ceiling.
            stop = max(min(stop, math.ceil(self.config.max_search_samples)),
                       0)
        return slice(0, stop, self.config.search_step_samples)

    def _detect(self, peaks, raw_peaks, searched_raw) -> np.ndarray:
        """The detection rule, per packet: the normalized peak reaches
        ``threshold``, or the raw peak is at least ``cfar_factor`` times
        the median of the searched raw correlation (infinitely many times
        a zero median).

        ``peaks`` and ``raw_peaks`` hold each packet's normalized and raw
        correlation at its timing; ``searched_raw(i)`` returns packet
        ``i``'s searched raw correlation.  The median is taken only for
        the packets the threshold leaves undetected.
        """
        detected = np.asarray(peaks) >= self.config.threshold
        for index in np.flatnonzero(~detected):
            median_raw = float(np.median(searched_raw(index)))
            cfar_ratio = (raw_peaks[index] / median_raw
                          if median_raw > 0 else np.inf)
            detected[index] = cfar_ratio >= self.config.cfar_factor
        return detected

    def acquire(self, samples) -> AcquisitionResult:
        """Search the sample buffer for the preamble.

        The timing estimate is the argmax of the raw matched-filter output
        (optimal at any SNR).  Detection combines two criteria: the
        energy-normalized correlation at the peak (a level-independent
        threshold, effective at moderate per-pulse SNR) and a CFAR-style
        peak-to-median ratio of the raw correlation (which integrates the
        whole preamble and works when each individual pulse is buried in
        noise).
        """
        samples = np.asarray(samples)
        raw = np.abs(sliding_correlation(samples, self.template))
        metric = np.abs(normalized_correlation(samples, self.template))
        if metric.size == 0:
            return AcquisitionResult(
                detected=False, timing_offset_samples=0, peak_metric=0.0,
                num_hypotheses_searched=0, search_time_s=0.0,
                correlation_profile=metric)
        searched_raw = raw[self._searched(metric.size)]
        best_index = int(np.argmax(searched_raw))
        timing = best_index * self.config.search_step_samples
        peak_normalized = float(metric[timing])
        detected = bool(self._detect([peak_normalized],
                                     [searched_raw[best_index]],
                                     lambda _: searched_raw)[0])
        search_time = acquisition_time_s(
            num_hypotheses=searched_raw.size,
            parallelism=self.config.parallelism,
            backend_clock_hz=self.config.backend_clock_hz)
        return AcquisitionResult(
            detected=detected,
            timing_offset_samples=timing,
            peak_metric=peak_normalized,
            num_hypotheses_searched=int(searched_raw.size),
            search_time_s=search_time,
            correlation_profile=metric)

    def acquire_batch(self, samples, valid_lengths=None,
                      keep_profiles: bool = False) -> BatchedAcquisitionResult:
        """Search a ``(packets, num_samples)`` batch of buffers at once.

        The correlation plane — every packet x every timing hypothesis —
        is computed in batched FFT passes of a few rows; the per-packet
        decision logic (argmax timing, threshold + CFAR detection) then
        replicates :meth:`acquire` row by row, with the same detection
        rule.
        ``valid_lengths`` gives each row's true sample count when rows
        were zero-padded to a common width, so padding never enters a
        packet's searched offsets.  Decisions match per-packet
        :meth:`acquire` calls; the correlation floats can differ at
        rounding level (the FFT length follows the batch width).
        ``keep_profiles`` retains the normalized correlation plane (off by
        default — it is the batch's largest array).
        """
        samples = np.asarray(samples)
        if samples.ndim != 2:
            raise ValueError("acquire_batch expects a (packets, num_samples) "
                             "batch; use acquire() for a single buffer")
        num_packets, num_samples = (int(samples.shape[0]),
                                    int(samples.shape[1]))
        if valid_lengths is None:
            valid_lengths = np.full(num_packets, num_samples, dtype=np.int64)
        else:
            valid_lengths = np.asarray(valid_lengths, dtype=np.int64)
            if valid_lengths.shape != (num_packets,):
                raise ValueError("valid_lengths must hold one length per "
                                 "packet")
            if np.any(valid_lengths < 0) or np.any(valid_lengths
                                                   > num_samples):
                raise ValueError("valid_lengths must lie in [0, num_samples]")

        template_size = int(self.template.size)
        # A few rows at a time: each row is its own FFT correlation (the
        # same floats however the rows are split), and the batch's
        # padded copies and spectra stay a few rows big.
        raw = np.empty((num_packets, max(num_samples - template_size + 1,
                                         0)))
        for first in range(0, num_packets, _CORRELATION_ROWS):
            block = slice(first, first + _CORRELATION_ROWS)
            raw[block] = np.abs(sliding_correlation_batch(samples[block],
                                                          self.template))
        profiles = None
        if keep_profiles:
            profiles = np.abs(normalized_correlation_batch(samples,
                                                           self.template))

        detected = np.zeros(num_packets, dtype=bool)
        timing = np.zeros(num_packets, dtype=np.int64)
        peak = np.zeros(num_packets, dtype=float)
        hypotheses = np.zeros(num_packets, dtype=np.int64)
        search_time = np.zeros(num_packets, dtype=float)
        raw_peak = np.zeros(num_packets, dtype=float)
        rows = np.flatnonzero(valid_lengths >= template_size)
        spans = [self._searched(int(valid_lengths[index]) - template_size + 1)
                 for index in rows]
        for index, span in zip(rows, spans):
            searched_raw = raw[index, span]
            best_index = int(np.argmax(searched_raw))
            timing[index] = best_index * self.config.search_step_samples
            raw_peak[index] = searched_raw[best_index]
            hypotheses[index] = searched_raw.size
            search_time[index] = acquisition_time_s(
                num_hypotheses=searched_raw.size,
                parallelism=self.config.parallelism,
                backend_clock_hz=self.config.backend_clock_hz)
        if rows.size:
            # The energy-normalized metric is only thresholded at each
            # packet's raw-correlation peak, so normalize those single
            # offsets instead of the whole plane (one small gather rather
            # than a second batch-wide FFT pass).
            windows = gather_windows(samples, timing[:, None], template_size)
            local_energy = np.sum(np.abs(windows) ** 2, axis=-1)[:, 0]
            template_energy = float(np.sum(np.abs(np.asarray(
                self.template)) ** 2))
            denom = np.sqrt(np.maximum(
                np.maximum(local_energy, 0.0) * template_energy, 1e-30))
            peak[rows] = raw_peak[rows] / denom[rows]
            detected[rows] = self._detect(
                peak[rows], raw_peak[rows],
                lambda slot: raw[rows[slot], spans[slot]])
        return BatchedAcquisitionResult(
            detected=detected, timing_offset_samples=timing,
            peak_metric=peak, num_hypotheses_searched=hypotheses,
            search_time_s=search_time,
            correlation_profiles=profiles)

    def detection_statistics(self, samples_without_signal) -> tuple[float, float]:
        """False-alarm statistics: (mean, max) of the metric on noise only."""
        metric = np.abs(normalized_correlation(samples_without_signal,
                                               self.template))
        if metric.size == 0:
            return 0.0, 0.0
        return float(np.mean(metric)), float(np.max(metric))
