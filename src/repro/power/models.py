"""Per-block power-dissipation models.

The paper's power claims are architectural: the ADC resolution drives both
the converter power and the digital back-end power, more than half of the
system power sits in the ADC + back end, and the gen-2 receiver can "trade
off power dissipation with signal processing complexity, quality of service
and data rate".  These analytical models are calibrated to representative
0.18 um / 1.8 V numbers so the *proportions* the paper describes come out.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.adc.power import ADCPowerModel, walden_power_w
from repro.utils.validation import require_int, require_non_negative, require_positive

__all__ = [
    "DigitalBlockPower",
    "DigitalBackEndPowerModel",
    "RFFrontEndPowerModel",
    "BlockPower",
]

#: Energy per gate toggle for a 0.18 um, 1.8 V standard-cell gate, including
#: average wiring load: on the order of tens of femtojoules.
GATE_ENERGY_018UM_J = 40e-15


@dataclass(frozen=True)
class BlockPower:
    """Power attributed to one named block."""

    name: str
    power_w: float

    def __post_init__(self) -> None:
        require_non_negative(self.power_w, "power_w")


@dataclass(frozen=True)
class DigitalBlockPower:
    """Switching-power model of one digital block.

    ``gate_count`` is the equivalent 2-input gate count, ``activity`` the
    average switching activity, and the block toggles at ``clock_hz``.
    """

    name: str
    gate_count: int
    activity: float = 0.15
    gate_energy_j: float = GATE_ENERGY_018UM_J

    def __post_init__(self) -> None:
        require_int(self.gate_count, "gate_count", minimum=0)
        if not 0.0 <= self.activity <= 1.0:
            raise ValueError("activity must be in [0, 1]")
        require_positive(self.gate_energy_j, "gate_energy_j")

    def power_w(self, clock_hz: float) -> float:
        """Dynamic power at the given clock."""
        require_positive(clock_hz, "clock_hz")
        return self.gate_count * self.activity * self.gate_energy_j * clock_hz


class DigitalBackEndPowerModel:
    """Power of the digital back end as a function of its configuration.

    Gate counts scale with the knobs the paper exposes:

    * the number of correlators / parallel search lanes,
    * the number of RAKE fingers,
    * the number of Viterbi states,
    * the ADC resolution (datapath width), and
    * the back-end clock rate (itself set by the ADC rate / parallelism).
    """

    # Equivalent gate counts per unit of each resource (datapath-width scaled).
    GATES_PER_CORRELATOR_PER_BIT = 450
    GATES_PER_RAKE_FINGER_PER_BIT = 700
    GATES_PER_VITERBI_STATE = 900
    GATES_CONTROL_OVERHEAD = 15_000
    GATES_CHANNEL_ESTIMATOR_PER_TAP = 120
    GATES_SPECTRAL_MONITOR = 25_000

    def __init__(self, adc_bits: int, backend_clock_hz: float,
                 gate_energy_j: float = GATE_ENERGY_018UM_J,
                 activity: float = 0.15) -> None:
        self.adc_bits = require_int(adc_bits, "adc_bits", minimum=1)
        require_positive(backend_clock_hz, "backend_clock_hz")
        self.backend_clock_hz = float(backend_clock_hz)
        self.gate_energy_j = gate_energy_j
        self.activity = activity

    def _block(self, name: str, gate_count: int) -> BlockPower:
        block = DigitalBlockPower(name=name, gate_count=int(gate_count),
                                  activity=self.activity,
                                  gate_energy_j=self.gate_energy_j)
        return BlockPower(name=name, power_w=block.power_w(self.backend_clock_hz))

    def breakdown(self, num_correlators: int = 16, num_rake_fingers: int = 4,
                  num_viterbi_states: int = 4,
                  channel_estimate_taps: int = 64,
                  spectral_monitoring: bool = True) -> list[BlockPower]:
        """Per-block power for a back-end configuration."""
        require_int(num_correlators, "num_correlators", minimum=0)
        require_int(num_rake_fingers, "num_rake_fingers", minimum=0)
        require_int(num_viterbi_states, "num_viterbi_states", minimum=0)
        require_int(channel_estimate_taps, "channel_estimate_taps", minimum=0)
        blocks = [
            self._block("correlators",
                        num_correlators * self.GATES_PER_CORRELATOR_PER_BIT
                        * self.adc_bits),
            self._block("rake",
                        num_rake_fingers * self.GATES_PER_RAKE_FINGER_PER_BIT
                        * self.adc_bits),
            self._block("viterbi",
                        num_viterbi_states * self.GATES_PER_VITERBI_STATE),
            self._block("channel_estimator",
                        channel_estimate_taps
                        * self.GATES_CHANNEL_ESTIMATOR_PER_TAP * self.adc_bits),
            self._block("control", self.GATES_CONTROL_OVERHEAD),
        ]
        if spectral_monitoring:
            blocks.append(self._block("spectral_monitor",
                                      self.GATES_SPECTRAL_MONITOR))
        return blocks

    def total_power_w(self, **kwargs) -> float:
        """Total back-end power for a configuration."""
        return float(sum(b.power_w for b in self.breakdown(**kwargs)))


@dataclass(frozen=True)
class RFFrontEndPowerModel:
    """Static (bias) power of the analog/RF blocks.

    Representative 0.18 um numbers: a wideband LNA burns ~10 mW, a
    quadrature mixer ~8 mW, the synthesizer/PLL ~15 mW, baseband buffers and
    the transmitter pulse generator a few mW each.
    """

    lna_w: float = 10e-3
    mixer_w: float = 8e-3
    synthesizer_w: float = 15e-3
    baseband_buffer_w: float = 4e-3
    transmitter_w: float = 5e-3

    def receive_blocks(self, direct_conversion: bool = True) -> list[BlockPower]:
        """Receive-chain blocks (gen 1 omits the mixer and synthesizer)."""
        blocks = [BlockPower("lna", self.lna_w),
                  BlockPower("baseband_buffers", self.baseband_buffer_w)]
        if direct_conversion:
            blocks.append(BlockPower("mixer", self.mixer_w))
            blocks.append(BlockPower("synthesizer", self.synthesizer_w))
        else:
            # Gen 1 still needs a clock-generation PLL.
            blocks.append(BlockPower("pll", 0.6 * self.synthesizer_w))
        return blocks


def adc_block_power(architecture: str, bits: int, sample_rate_hz: float,
                    num_converters: int = 1,
                    num_interleaved: int = 1,
                    model: ADCPowerModel | None = None) -> BlockPower:
    """Power of the ADC subsystem as a :class:`BlockPower`."""
    model = model if model is not None else ADCPowerModel()
    architecture = architecture.lower()
    if architecture == "flash":
        power = model.flash_power_w(bits, sample_rate_hz,
                                    num_interleaved=num_interleaved)
    elif architecture == "sar":
        power = model.sar_power_w(bits, sample_rate_hz)
    elif architecture == "walden":
        power = walden_power_w(bits, sample_rate_hz)
    else:
        raise ValueError(f"unknown ADC architecture {architecture!r}")
    return BlockPower(name=f"adc_{architecture}", power_w=power * num_converters)


__all__.append("adc_block_power")
__all__.append("GATE_ENERGY_018UM_J")
