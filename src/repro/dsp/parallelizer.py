"""Parallelization / retiming of the high-rate ADC sample stream.

"The back end requires parallelization to reduce the packet synchronization
time and to process the large data rate provided by the ADC."  At 2 GSPS the
sample stream is far faster than a 0.18 um digital clock, so the silicon
de-multiplexes it into N parallel lanes running at rate/N (Fig. 1's
"Parallellizer", Fig. 3's "Retiming Block") and instantiates N copies of the
search hardware.

The model captures the latency arithmetic that matters at system level:
with ``parallelism`` lanes each evaluating one timing hypothesis per
back-end clock, searching ``num_hypotheses`` hypotheses takes
``ceil(num_hypotheses / parallelism)`` clocks.
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import require_int, require_positive

__all__ = ["acquisition_clock_cycles", "acquisition_time_s"]


def acquisition_clock_cycles(num_hypotheses: int, parallelism: int,
                             integrations_per_hypothesis: int = 1) -> int:
    """Back-end clock cycles to evaluate every timing hypothesis.

    Each lane evaluates one hypothesis at a time and each hypothesis needs
    ``integrations_per_hypothesis`` clock cycles of accumulation.
    """
    require_int(num_hypotheses, "num_hypotheses", minimum=1)
    require_int(parallelism, "parallelism", minimum=1)
    require_int(integrations_per_hypothesis, "integrations_per_hypothesis",
                minimum=1)
    rounds = int(np.ceil(num_hypotheses / parallelism))
    return rounds * integrations_per_hypothesis


def acquisition_time_s(num_hypotheses: int, parallelism: int,
                       backend_clock_hz: float,
                       integrations_per_hypothesis: int = 1) -> float:
    """Wall-clock acquisition search time implied by the parallelism."""
    require_positive(backend_clock_hz, "backend_clock_hz")
    cycles = acquisition_clock_cycles(num_hypotheses, parallelism,
                                      integrations_per_hypothesis)
    return cycles / backend_clock_hz
