"""Spectral monitoring: narrowband-interferer detection and frequency estimation.

"The digital back end detects the presence of an interferer and estimates
its frequency that may be used in the front end notch filter."  The
detector periodogram-averages blocks of ADC samples; a narrowband
interferer shows up as a spectral line far above the (flat) UWB signal +
noise floor.  The frequency estimate is refined by quadratic interpolation
around the peak bin, and the result can be handed straight to the
digital notch (:class:`repro.dsp.notch.DigitalNotchFilter`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.validation import require_int, require_positive

__all__ = ["SpectralMonitorConfig", "InterfererReport", "SpectralMonitor"]


@dataclass(frozen=True)
class SpectralMonitorConfig:
    """Parameters of the spectral monitor.

    Attributes
    ----------
    fft_size:
        Size of each analysis FFT (a power of two keeps the hardware cheap).
    num_averages:
        Number of periodograms averaged before the detection test.
    detection_threshold_db:
        How far above the median spectral level a bin must rise to be
        declared an interferer.
    """

    fft_size: int = 256
    num_averages: int = 8
    detection_threshold_db: float = 12.0

    def __post_init__(self) -> None:
        require_int(self.fft_size, "fft_size", minimum=8)
        require_int(self.num_averages, "num_averages", minimum=1)
        require_positive(self.detection_threshold_db, "detection_threshold_db")


@dataclass(frozen=True)
class InterfererReport:
    """Result of one spectral-monitoring pass."""

    detected: bool
    frequency_hz: float
    power_above_floor_db: float
    spectrum_db: np.ndarray
    frequencies_hz: np.ndarray

    def frequency_error_hz(self, true_frequency_hz: float) -> float:
        """Absolute frequency-estimation error against a known interferer."""
        return float(abs(self.frequency_hz - true_frequency_hz))


class SpectralMonitor:
    """Averaged-periodogram interferer detector."""

    def __init__(self, sample_rate_hz: float,
                 config: SpectralMonitorConfig | None = None) -> None:
        require_positive(sample_rate_hz, "sample_rate_hz")
        self.sample_rate_hz = float(sample_rate_hz)
        self.config = config if config is not None else SpectralMonitorConfig()

    def _averaged_periodogram(self, samples) -> np.ndarray:
        n = self.config.fft_size
        samples = np.asarray(samples)
        num_blocks = min(self.config.num_averages, samples.size // n)
        if num_blocks == 0:
            raise ValueError(
                f"need at least {n} samples, got {samples.size}")
        window = np.hanning(n)
        accumulator = np.zeros(n)
        for block_index in range(num_blocks):
            block = samples[block_index * n:(block_index + 1) * n]
            spectrum = np.fft.fft(block * window, n=n)
            accumulator += np.abs(spectrum) ** 2
        return accumulator / num_blocks

    def _bin_frequencies(self) -> np.ndarray:
        return np.fft.fftfreq(self.config.fft_size, d=1.0 / self.sample_rate_hz)

    def analyze(self, samples) -> InterfererReport:
        """Detect and locate the strongest narrowband interferer.

        Works on complex baseband samples (frequencies are offsets from the
        sub-band centre, may be negative) or real samples (only positive
        frequencies are meaningful).
        """
        periodogram = self._averaged_periodogram(samples)
        frequencies = self._bin_frequencies()
        power_db = 10.0 * np.log10(np.maximum(periodogram, 1e-30))

        # Robust floor estimate: the median is insensitive to one strong line.
        floor_db = float(np.median(power_db))
        peak_bin = int(np.argmax(power_db))
        prominence_db = float(power_db[peak_bin] - floor_db)
        detected = prominence_db >= self.config.detection_threshold_db

        frequency = self._interpolate_peak(periodogram, frequencies, peak_bin)
        return InterfererReport(
            detected=detected,
            frequency_hz=frequency,
            power_above_floor_db=prominence_db,
            spectrum_db=power_db,
            frequencies_hz=frequencies,
        )

    def _interpolate_peak(self, periodogram: np.ndarray,
                          frequencies: np.ndarray, peak_bin: int) -> float:
        """Quadratic (parabolic) interpolation of the peak frequency."""
        n = periodogram.size
        left = periodogram[(peak_bin - 1) % n]
        center = periodogram[peak_bin]
        right = periodogram[(peak_bin + 1) % n]
        denom = left - 2.0 * center + right
        if abs(denom) < 1e-30:
            offset = 0.0
        else:
            offset = 0.5 * (left - right) / denom
            offset = float(np.clip(offset, -0.5, 0.5))
        bin_spacing = self.sample_rate_hz / n
        return float(frequencies[peak_bin] + offset * bin_spacing)

    def detection_probability(self, make_samples, num_trials: int = 50) -> float:
        """Monte-Carlo detection probability over ``num_trials`` draws.

        ``make_samples`` is a zero-argument callable returning a fresh
        sample buffer per trial (signal + interferer + noise realization).
        """
        require_int(num_trials, "num_trials", minimum=1)
        detections = 0
        for _ in range(num_trials):
            report = self.analyze(make_samples())
            if report.detected:
                detections += 1
        return detections / num_trials
