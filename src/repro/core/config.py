"""System configurations for the two transceiver generations.

Every knob the paper mentions is a field here: pulse bandwidth, pulses per
bit, ADC resolution/rate, preamble structure, RAKE fingers, Viterbi use,
sub-band selection.  The defaults correspond to the paper's nominal
operating points; the ``fast_*`` factories scale the time-consuming
parameters down for unit tests while keeping the architecture identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from repro.constants import (
    GEN1_ADC_BITS,
    GEN1_ADC_INTERLEAVE_FACTOR,
    GEN1_ADC_RATE_HZ,
    GEN2_ADC_BITS,
    GEN2_CHANNEL_BANDWIDTH_HZ,
    GEN2_CHANNEL_ESTIMATE_BITS,
)
from repro.phy.packet import PacketConfig
from repro.phy.preamble import PreambleConfig
from repro.utils.validation import require_int, require_positive

__all__ = ["Gen1Config", "Gen2Config"]


@dataclass(frozen=True)
class Gen1Config:
    """First-generation baseband pulsed transceiver configuration.

    The signal is a carrier-free pulse train (Gaussian monocycle) sampled
    as a real waveform; the ADC is the 4-way time-interleaved flash.
    """

    # Waveform
    pulse_bandwidth_hz: float = 1.0e9
    pulse_order: int = 1                      # Gaussian derivative order
    pulse_repetition_interval_s: float = 50e-9
    pulses_per_bit: int = 104                 # 104 * 50 ns -> 192.3 kbps
    # Sampling
    simulation_rate_hz: float = 4e9
    adc_rate_hz: float = GEN1_ADC_RATE_HZ
    adc_bits: int = GEN1_ADC_BITS
    adc_interleave_factor: int = GEN1_ADC_INTERLEAVE_FACTOR
    adc_gain_mismatch_std: float = 0.01
    adc_offset_mismatch_std: float = 0.005
    adc_timing_skew_std_s: float = 2e-12
    # Packetization
    packet: PacketConfig = field(default_factory=lambda: PacketConfig(
        preamble=PreambleConfig(sequence_degree=7, num_repetitions=4)))
    # Back end
    acquisition_threshold: float = 0.3
    acquisition_parallelism: int = 8
    backend_clock_hz: float = 250e6
    channel_estimate_taps: int = 32
    channel_estimate_bits: int = 4
    rake_fingers: int = 2
    use_mlse: bool = False

    def __post_init__(self) -> None:
        require_positive(self.pulse_bandwidth_hz, "pulse_bandwidth_hz")
        require_positive(self.pulse_repetition_interval_s,
                         "pulse_repetition_interval_s")
        require_int(self.pulses_per_bit, "pulses_per_bit", minimum=1)
        require_positive(self.simulation_rate_hz, "simulation_rate_hz")
        require_positive(self.adc_rate_hz, "adc_rate_hz")
        if self.simulation_rate_hz < self.adc_rate_hz:
            raise ValueError("simulation rate must be >= ADC rate")
        ratio = self.simulation_rate_hz / self.adc_rate_hz
        if abs(ratio - round(ratio)) > 1e-9:
            raise ValueError("simulation rate must be an integer multiple of "
                             "the ADC rate")
        samples_per_pri = self.pulse_repetition_interval_s * self.adc_rate_hz
        if abs(samples_per_pri - round(samples_per_pri)) > 1e-6:
            raise ValueError("pulse repetition interval must be an integer "
                             "number of ADC sample periods")

    @property
    def bit_duration_s(self) -> float:
        """Duration of one information bit on the air."""
        return self.pulses_per_bit * self.pulse_repetition_interval_s

    @property
    def data_rate_bps(self) -> float:
        """Uncoded channel bit rate."""
        return 1.0 / self.bit_duration_s

    @property
    def decimation_factor(self) -> int:
        """Simulation-rate to ADC-rate decimation."""
        return int(round(self.simulation_rate_hz / self.adc_rate_hz))

    @property
    def samples_per_pri_adc(self) -> int:
        """ADC samples per pulse repetition interval."""
        return int(round(self.pulse_repetition_interval_s * self.adc_rate_hz))

    @property
    def preamble_duration_s(self) -> float:
        """On-air duration of the preamble (one chip per PRI)."""
        return (self.packet.preamble.total_symbols
                * self.pulse_repetition_interval_s)

    @classmethod
    def fast_test_config(cls) -> "Gen1Config":
        """Small configuration for unit tests (same architecture, less data)."""
        return cls(
            pulse_repetition_interval_s=20e-9,
            pulses_per_bit=4,
            simulation_rate_hz=4e9,
            adc_rate_hz=2e9,
            packet=PacketConfig(
                preamble=PreambleConfig(sequence_degree=5, num_repetitions=2)),
            channel_estimate_taps=16,
        )

    def with_changes(self, **kwargs) -> "Gen1Config":
        """Return a copy with selected fields replaced."""
        return replace(self, **kwargs)


@dataclass(frozen=True)
class Gen2Config:
    """Second-generation 3.1-10.6 GHz direct-conversion transceiver configuration.

    The signal is a 500 MHz-bandwidth pulse train at complex baseband; the
    sub-band centre frequency only matters to the band plan and the FCC
    analysis, not to the baseband math.
    """

    # Waveform
    pulse_bandwidth_hz: float = GEN2_CHANNEL_BANDWIDTH_HZ
    pulse_repetition_interval_s: float = 10e-9
    pulses_per_bit: int = 1                   # 1 pulse / 10 ns -> 100 Mbps
    channel_index: int = 3                    # sub-band (0-13)
    # Sampling
    simulation_rate_hz: float = 2e9
    adc_rate_hz: float = 1e9
    adc_bits: int = GEN2_ADC_BITS
    adc_capacitor_mismatch_std: float = 0.003
    adc_comparator_noise_std: float = 0.002
    # RF impairments (baseband-equivalent)
    carrier_frequency_offset_hz: float = 0.0
    iq_gain_imbalance_db: float = 0.0
    iq_phase_imbalance_deg: float = 0.0
    dc_offset: float = 0.0
    # Interferer mitigation (spectral monitor -> digital notch control loop)
    enable_digital_notch: bool = False
    # Packetization
    packet: PacketConfig = field(default_factory=lambda: PacketConfig(
        preamble=PreambleConfig(sequence_degree=7, num_repetitions=8)))
    # Back end
    acquisition_threshold: float = 0.3
    acquisition_parallelism: int = 16
    backend_clock_hz: float = 250e6
    channel_estimate_taps: int = 64
    channel_estimate_bits: int = GEN2_CHANNEL_ESTIMATE_BITS
    rake_fingers: int = 4
    rake_policy: str = "srake"
    use_mlse: bool = True
    mlse_max_taps: int = 3

    def __post_init__(self) -> None:
        require_positive(self.pulse_bandwidth_hz, "pulse_bandwidth_hz")
        require_positive(self.pulse_repetition_interval_s,
                         "pulse_repetition_interval_s")
        require_int(self.pulses_per_bit, "pulses_per_bit", minimum=1)
        require_positive(self.simulation_rate_hz, "simulation_rate_hz")
        require_positive(self.adc_rate_hz, "adc_rate_hz")
        require_int(self.channel_index, "channel_index", minimum=0)
        if self.channel_index > 13:
            raise ValueError("channel_index must be in [0, 13]")
        for name in ("carrier_frequency_offset_hz", "iq_gain_imbalance_db",
                     "iq_phase_imbalance_deg", "dc_offset"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, "
                                 f"got {getattr(self, name)!r}")
        if self.simulation_rate_hz < self.adc_rate_hz:
            raise ValueError("simulation rate must be >= ADC rate")
        ratio = self.simulation_rate_hz / self.adc_rate_hz
        if abs(ratio - round(ratio)) > 1e-9:
            raise ValueError("simulation rate must be an integer multiple of "
                             "the ADC rate")
        samples_per_pri = self.pulse_repetition_interval_s * self.adc_rate_hz
        if abs(samples_per_pri - round(samples_per_pri)) > 1e-6:
            raise ValueError("pulse repetition interval must be an integer "
                             "number of ADC sample periods")

    @property
    def bit_duration_s(self) -> float:
        """Duration of one information bit on the air."""
        return self.pulses_per_bit * self.pulse_repetition_interval_s

    @property
    def data_rate_bps(self) -> float:
        """Uncoded channel bit rate."""
        return 1.0 / self.bit_duration_s

    @property
    def decimation_factor(self) -> int:
        """Simulation-rate to ADC-rate decimation."""
        return int(round(self.simulation_rate_hz / self.adc_rate_hz))

    @property
    def samples_per_pri_adc(self) -> int:
        """ADC samples per pulse repetition interval."""
        return int(round(self.pulse_repetition_interval_s * self.adc_rate_hz))

    @property
    def preamble_duration_s(self) -> float:
        """On-air duration of the preamble (one chip per PRI)."""
        return (self.packet.preamble.total_symbols
                * self.pulse_repetition_interval_s)

    @property
    def has_impairments(self) -> bool:
        """Whether any direct-conversion impairment (carrier frequency
        offset, I/Q gain or phase imbalance, DC offset) is configured."""
        return (abs(self.carrier_frequency_offset_hz) > 0
                or abs(self.iq_gain_imbalance_db) > 0
                or abs(self.iq_phase_imbalance_deg) > 0
                or abs(self.dc_offset) > 0)

    @classmethod
    def fast_test_config(cls) -> "Gen2Config":
        """Small configuration for unit tests."""
        return cls(
            pulse_repetition_interval_s=8e-9,
            pulses_per_bit=1,
            simulation_rate_hz=2e9,
            adc_rate_hz=1e9,
            packet=PacketConfig(
                preamble=PreambleConfig(sequence_degree=5, num_repetitions=4)),
            channel_estimate_taps=32,
            use_mlse=False,
        )

    def with_changes(self, **kwargs) -> "Gen2Config":
        """Return a copy with selected fields replaced."""
        return replace(self, **kwargs)
