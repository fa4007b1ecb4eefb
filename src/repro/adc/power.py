"""ADC power-dissipation models.

The paper: "The specification of the data converter resolution determines
not only its power dissipation but also that of the digital back end" and
"more than half of the system power [is] dissipated in the digital back end
and the ADC."  These models let the benchmarks reproduce those proportions.

Two estimates are provided:

* a Walden figure-of-merit model, ``P = FOM * 2^ENOB * f_s``, the standard
  survey metric for Nyquist converters of the paper's era, and
* an architecture-aware model that scales flash power with the comparator
  count (2^bits - 1) and SAR power with the bit-cycle count (bits), which is
  why a 5-bit SAR at 500 MSps burns far less than a 4-bit flash at 2 GSPS.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils.validation import require_int, require_positive

__all__ = [
    "walden_power_w",
    "ADCPowerModel",
]

#: Representative Walden FOM (J per conversion-step) for 0.18 um CMOS
#: converters of the early-2000s: ~1-4 pJ/step.
DEFAULT_FOM_J_PER_STEP = 2.0e-12


def walden_power_w(bits: float, sample_rate_hz: float,
                   fom_j_per_step: float = DEFAULT_FOM_J_PER_STEP) -> float:
    """Power predicted by the Walden FOM: ``P = FOM * 2^ENOB * fs``."""
    require_positive(sample_rate_hz, "sample_rate_hz")
    require_positive(fom_j_per_step, "fom_j_per_step")
    if bits <= 0:
        raise ValueError("bits must be positive")
    return float(fom_j_per_step * (2.0 ** bits) * sample_rate_hz)


@dataclass(frozen=True)
class ADCPowerModel:
    """Architecture-aware ADC power estimate.

    ``comparator_energy_j`` is the energy of one comparator decision
    (including its share of reference/ladder power); ``overhead_w`` covers
    clocking and reference buffers.
    """

    comparator_energy_j: float = 0.4e-12
    overhead_w: float = 1e-3

    def flash_power_w(self, bits: int, sample_rate_hz: float,
                      num_interleaved: int = 1) -> float:
        """Flash converter: ``2^bits - 1`` comparators fire every sample.

        Interleaving splits the sample rate across slices but multiplies the
        comparator count, so to first order the dynamic power is unchanged;
        each slice adds its own overhead.
        """
        require_int(bits, "bits", minimum=1)
        require_positive(sample_rate_hz, "sample_rate_hz")
        require_int(num_interleaved, "num_interleaved", minimum=1)
        comparators = (1 << bits) - 1
        dynamic = comparators * self.comparator_energy_j * sample_rate_hz
        return float(dynamic + num_interleaved * self.overhead_w)

    def sar_power_w(self, bits: int, sample_rate_hz: float) -> float:
        """SAR converter: one comparator, ``bits`` decisions per sample."""
        require_int(bits, "bits", minimum=1)
        require_positive(sample_rate_hz, "sample_rate_hz")
        dynamic = bits * self.comparator_energy_j * sample_rate_hz
        # CDAC switching energy grows with 2^bits but from a small base.
        cdac = 0.05 * self.comparator_energy_j * (1 << bits) * sample_rate_hz
        return float(dynamic + cdac + self.overhead_w)
