"""Power / QoS / data-rate adaptation policy.

"This receiver allows us to trade off power dissipation with signal
processing complexity, quality of service and data rate, adapting to
channel conditions."  The controller below makes that sentence concrete:
given an estimate of the channel (SNR, delay spread, interference) it picks
an operating mode — pulses per bit, RAKE fingers, MLSE on/off, ADC
resolution — and reports the resulting data rate and modelled power.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import Gen2Config
from repro.power.budget import gen2_power_budget

__all__ = ["ChannelConditions", "OperatingMode", "AdaptationController"]


@dataclass(frozen=True)
class ChannelConditions:
    """What the back end knows about the current channel."""

    snr_db: float
    rms_delay_spread_s: float = 5e-9
    interferer_detected: bool = False

    def __post_init__(self) -> None:
        if self.rms_delay_spread_s < 0:
            raise ValueError("rms_delay_spread_s must be non-negative")


@dataclass(frozen=True)
class OperatingMode:
    """One selectable receiver configuration and its cost/benefit summary."""

    name: str
    pulses_per_bit: int
    rake_fingers: int
    use_mlse: bool
    adc_bits: int
    notch_enabled: bool
    data_rate_bps: float
    power_w: float
    min_snr_db: float


class AdaptationController:
    """Pick the cheapest operating mode that satisfies the QoS constraint.

    The mode table is generated from a base :class:`Gen2Config`: higher
    pulses-per-bit modes need less SNR but deliver less throughput; more
    RAKE fingers and the MLSE are engaged as the delay spread grows; the
    ADC resolution and notch are raised only when an interferer is present
    (the paper's 1-bit/4-bit observation).
    """

    #: (name, pulses_per_bit, rake_fingers, use_mlse, min_snr_db)
    _MODE_TABLE = (
        ("full_rate", 1, 4, True, 14.0),
        ("half_rate", 2, 4, True, 11.0),
        ("quarter_rate", 4, 6, True, 8.0),
        ("eighth_rate", 8, 6, True, 5.0),
        ("robust", 16, 8, True, 2.0),
    )

    def __init__(self, base_config: Gen2Config | None = None) -> None:
        self.base_config = base_config if base_config is not None else Gen2Config()

    # ------------------------------------------------------------------
    # Mode table
    # ------------------------------------------------------------------
    def available_modes(self, conditions: ChannelConditions) -> list[OperatingMode]:
        """All operating modes with their data rate and power for the conditions."""
        modes = []
        interference = conditions.interferer_detected
        adc_bits = max(self.base_config.adc_bits, 4) if interference else \
            self.base_config.adc_bits
        for name, ppb, fingers, use_mlse, min_snr in self._MODE_TABLE:
            # Long delay spreads need the MLSE regardless of the table entry.
            needs_mlse = (conditions.rms_delay_spread_s
                          > self.base_config.pulse_repetition_interval_s)
            mlse = use_mlse or needs_mlse
            data_rate = (1.0 / (ppb
                                * self.base_config.pulse_repetition_interval_s))
            budget = gen2_power_budget(
                adc_bits=adc_bits,
                adc_rate_hz=self.base_config.adc_rate_hz,
                num_rake_fingers=fingers,
                num_viterbi_states=4 if mlse else 0,
                spectral_monitoring=True)
            modes.append(OperatingMode(
                name=name,
                pulses_per_bit=ppb,
                rake_fingers=fingers,
                use_mlse=mlse,
                adc_bits=adc_bits,
                notch_enabled=interference,
                data_rate_bps=data_rate,
                power_w=budget.total_w(),
                min_snr_db=min_snr))
        return modes

    # ------------------------------------------------------------------
    # Selection policies
    # ------------------------------------------------------------------
    def select_max_throughput(self, conditions: ChannelConditions
                              ) -> OperatingMode:
        """Highest data rate whose SNR requirement the channel meets."""
        feasible = [m for m in self.available_modes(conditions)
                    if conditions.snr_db >= m.min_snr_db]
        if not feasible:
            # Fall back to the most robust mode.
            return self.available_modes(conditions)[-1]
        return max(feasible, key=lambda m: m.data_rate_bps)

    def rate_power_frontier(self, conditions: ChannelConditions
                            ) -> list[tuple[float, float]]:
        """(data rate, power) pairs of all feasible modes, rate-sorted."""
        feasible = [m for m in self.available_modes(conditions)
                    if conditions.snr_db >= m.min_snr_db]
        pairs = [(m.data_rate_bps, m.power_w) for m in feasible]
        return sorted(pairs)
