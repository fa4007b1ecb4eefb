"""Per-packet link statistics the sweep engine does not measure.

BER/PER curves come from :class:`repro.sim.SweepEngine`, whose
``backend="packet"`` repeats :meth:`Gen1Transceiver.simulate_packet` /
:meth:`Gen2Transceiver.simulate_packet` under content-keyed seeds.  This
module keeps what a BER count cannot carry: acquisition statistics
(detection probability, timing error, search latency) and goodput over
the packets' air time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.core.transceiver import _Transceiver
from repro.utils.validation import require_int

__all__ = ["AcquisitionStatistics", "LinkSimulator"]


@dataclass
class AcquisitionStatistics:
    """Aggregated acquisition behaviour over many packets."""

    attempts: int = 0
    detections: int = 0
    timing_errors_samples: list[int] = field(default_factory=list)
    search_times_s: list[float] = field(default_factory=list)

    @property
    def detection_probability(self) -> float:
        """Fraction of packets whose preamble was detected.

        ``nan`` when no packets were recorded — "no data" must not read as
        "never detects".
        """
        if self.attempts == 0:
            return float("nan")
        return self.detections / self.attempts

    @property
    def mean_search_time_s(self) -> float:
        """Average back-end search latency of the detected packets.

        ``nan`` when no packet was detected (there is no latency to report).
        """
        if not self.search_times_s:
            return float("nan")
        return float(np.mean(self.search_times_s))

    @property
    def rms_timing_error_samples(self) -> float:
        """RMS timing error of the detected packets.

        ``nan`` when no packet was detected — a ``0.0`` here would read as
        perfect timing.
        """
        if not self.timing_errors_samples:
            return float("nan")
        return float(np.sqrt(np.mean(np.square(self.timing_errors_samples))))

    def record(self, detected: bool, timing_error_samples: int,
               search_time_s: float) -> None:
        """Add one packet's acquisition outcome."""
        self.attempts += 1
        if detected:
            self.detections += 1
            self.timing_errors_samples.append(int(timing_error_samples))
            self.search_times_s.append(float(search_time_s))


class LinkSimulator:
    """Per-packet acquisition and throughput statistics for a transceiver."""

    def __init__(self, transceiver: _Transceiver,
                 rng: np.random.Generator | None = None) -> None:
        self.transceiver = transceiver
        self.rng = rng if rng is not None else np.random.default_rng()

    # ------------------------------------------------------------------
    # Acquisition statistics
    # ------------------------------------------------------------------
    def acquisition_statistics(self, ebn0_db: float, num_packets: int = 20,
                               payload_bits_per_packet: int = 16,
                               channel_factory: Callable[[], object] | None = None,
                               **packet_kwargs) -> AcquisitionStatistics:
        """Measure detection probability, timing error and search latency."""
        require_int(num_packets, "num_packets", minimum=1)
        stats = AcquisitionStatistics()
        for _ in range(num_packets):
            channel = channel_factory() if channel_factory is not None else None
            simulation = self.transceiver.simulate_packet(
                num_payload_bits=payload_bits_per_packet,
                ebn0_db=ebn0_db,
                channel=channel,
                rng=self.rng,
                **packet_kwargs)
            result = simulation.result
            stats.record(result.detected, result.timing_error_samples,
                         result.acquisition_time_s)
        return stats
