"""System power budgets for the two transceiver generations.

Reproduces the paper's claim that "more than half of the system power [is]
dissipated in the digital back end and the ADC", and provides the
power-vs-configuration sweep behind the gen-2 adaptation story.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.power.models import (
    BlockPower,
    DigitalBackEndPowerModel,
    RFFrontEndPowerModel,
    adc_block_power,
)
from repro.utils.validation import require_int, require_positive

__all__ = ["PowerBudget", "gen1_power_budget", "gen2_power_budget"]


@dataclass
class PowerBudget:
    """A named collection of per-block powers with group accounting."""

    name: str
    blocks: list[BlockPower] = field(default_factory=list)
    #: Maps block name -> group ("rf", "adc", "digital").
    groups: dict[str, str] = field(default_factory=dict)

    def add(self, block: BlockPower, group: str) -> None:
        """Add a block under an accounting group."""
        self.blocks.append(block)
        self.groups[block.name] = group

    def total_w(self) -> float:
        """Total system power."""
        return float(sum(b.power_w for b in self.blocks))

    def group_power_w(self, group: str) -> float:
        """Power of one accounting group."""
        return float(sum(b.power_w for b in self.blocks
                         if self.groups.get(b.name) == group))

    def group_fraction(self, *groups: str) -> float:
        """Fraction of total power taken by the listed groups combined."""
        total = self.total_w()
        if total <= 0:
            return 0.0
        return float(sum(self.group_power_w(g) for g in groups) / total)

    def adc_plus_digital_fraction(self) -> float:
        """The paper's headline proportion: ADC + digital back end share."""
        return self.group_fraction("adc", "digital")

    def as_table(self) -> list[tuple[str, str, float, float]]:
        """Rows of ``(block, group, power_w, fraction)`` sorted by power."""
        total = self.total_w()
        rows = [(b.name, self.groups.get(b.name, "?"), b.power_w,
                 (b.power_w / total if total > 0 else 0.0))
                for b in self.blocks]
        return sorted(rows, key=lambda row: row[2], reverse=True)


def gen1_power_budget(adc_bits: int = 4,
                      adc_rate_hz: float = 2e9,
                      interleave_factor: int = 4,
                      backend_parallelism: int = 8,
                      num_correlators: int = 32) -> PowerBudget:
    """Power budget of the first-generation baseband transceiver.

    The back-end clock is the ADC rate divided by its parallelization
    factor (the whole point of the parallel architecture).
    """
    require_int(adc_bits, "adc_bits", minimum=1)
    require_positive(adc_rate_hz, "adc_rate_hz")
    require_int(backend_parallelism, "backend_parallelism", minimum=1)

    budget = PowerBudget(name="gen1")
    rf = RFFrontEndPowerModel()
    for block in rf.receive_blocks(direct_conversion=False):
        budget.add(block, "rf")

    budget.add(adc_block_power("flash", adc_bits, adc_rate_hz,
                               num_interleaved=interleave_factor), "adc")

    backend_clock = adc_rate_hz / backend_parallelism
    backend = DigitalBackEndPowerModel(adc_bits=adc_bits,
                                       backend_clock_hz=backend_clock)
    for block in backend.breakdown(num_correlators=num_correlators,
                                   num_rake_fingers=0,
                                   num_viterbi_states=0,
                                   channel_estimate_taps=32,
                                   spectral_monitoring=False):
        budget.add(block, "digital")
    # The parallel lanes replicate the correlator hardware.
    replication = BlockPower(
        "parallel_search_lanes",
        (backend_parallelism - 1) * backend.total_power_w(
            num_correlators=num_correlators, num_rake_fingers=0,
            num_viterbi_states=0, channel_estimate_taps=0,
            spectral_monitoring=False) * 0.5)
    budget.add(replication, "digital")
    return budget


def gen2_power_budget(adc_bits: int = 5,
                      adc_rate_hz: float = 500e6,
                      num_rake_fingers: int = 4,
                      num_viterbi_states: int = 4,
                      num_correlators: int = 16,
                      channel_estimate_taps: int = 64,
                      spectral_monitoring: bool = True,
                      backend_parallelism: int = 4) -> PowerBudget:
    """Power budget of the second-generation direct-conversion transceiver.

    Two SAR ADCs (I and Q); the digital back end's knobs are the ones the
    adaptation policy turns.
    """
    require_int(adc_bits, "adc_bits", minimum=1)
    require_positive(adc_rate_hz, "adc_rate_hz")
    require_int(backend_parallelism, "backend_parallelism", minimum=1)

    budget = PowerBudget(name="gen2")
    rf = RFFrontEndPowerModel()
    for block in rf.receive_blocks(direct_conversion=True):
        budget.add(block, "rf")

    budget.add(adc_block_power("sar", adc_bits, adc_rate_hz,
                               num_converters=2), "adc")

    backend_clock = adc_rate_hz / backend_parallelism
    backend = DigitalBackEndPowerModel(adc_bits=adc_bits,
                                       backend_clock_hz=backend_clock)
    for block in backend.breakdown(num_correlators=num_correlators,
                                   num_rake_fingers=num_rake_fingers,
                                   num_viterbi_states=num_viterbi_states,
                                   channel_estimate_taps=channel_estimate_taps,
                                   spectral_monitoring=spectral_monitoring):
        budget.add(block, "digital")
    replication = BlockPower(
        "parallel_lanes",
        (backend_parallelism - 1) * 0.4 * backend.total_power_w(
            num_correlators=num_correlators,
            num_rake_fingers=num_rake_fingers,
            num_viterbi_states=num_viterbi_states,
            channel_estimate_taps=0,
            spectral_monitoring=False))
    budget.add(replication, "digital")
    return budget
