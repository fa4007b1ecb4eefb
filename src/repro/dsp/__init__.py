"""Digital back end: correlators, acquisition, channel estimation, RAKE
combining, MLSE (Viterbi) equalization, spectral monitoring, notches, AGC,
and the parallelization/latency bookkeeping."""

from repro.dsp.acquisition import (
    AcquisitionConfig,
    AcquisitionResult,
    CoarseAcquisition,
)
from repro.dsp.agc import AutomaticGainControl
from repro.dsp.channel_estimation import ChannelEstimate, ChannelEstimator
from repro.dsp.correlator import (
    normalized_correlation,
    sliding_correlation,
)
from repro.dsp.notch import DigitalNotchFilter
from repro.dsp.parallelizer import (
    acquisition_clock_cycles,
    acquisition_time_s,
)
from repro.dsp.rake import FINGER_POLICIES, RakeFinger, RakeReceiver
from repro.dsp.spectral_monitor import (
    InterfererReport,
    SpectralMonitor,
    SpectralMonitorConfig,
)
from repro.dsp.viterbi import MLSEEqualizer, rake_isi_taps

__all__ = [
    "AcquisitionConfig",
    "AcquisitionResult",
    "CoarseAcquisition",
    "AutomaticGainControl",
    "ChannelEstimate",
    "ChannelEstimator",
    "normalized_correlation",
    "sliding_correlation",
    "DigitalNotchFilter",
    "acquisition_clock_cycles",
    "acquisition_time_s",
    "FINGER_POLICIES",
    "RakeFinger",
    "RakeReceiver",
    "InterfererReport",
    "SpectralMonitor",
    "SpectralMonitorConfig",
    "MLSEEqualizer",
    "rake_isi_taps",
]
