"""Modulation-scheme comparison on the discrete prototype platform.

The paper motivates the prototype by the ability to compare modulation
schemes within the 500 MHz bandwidth.  This module runs that comparison:
for each scheme (BPSK, OOK, binary PPM, 4-PAM) it builds pulse trains on the
platform, passes them through AWGN (optionally multipath), demodulates with
a matched-filter receiver, and reports BER versus Eb/N0 next to the
textbook expressions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.channel.awgn import awgn, noise_std_for_ebn0
from repro.core.metrics import (
    theoretical_bpsk_ber,
    theoretical_ook_ber,
    theoretical_ppm_ber,
)
from repro.prototype.platform import DiscretePrototypePlatform
from repro.pulses.modulation import Modulator, make_modulator
from repro.pulses.shapes import gaussian_pulse
from repro.pulses.train import PulseTrainConfig, PulseTrainGenerator
from repro.utils import dsp
from repro.utils.bits import bit_errors, random_bits
from repro.utils.validation import require_int

__all__ = ["SchemeResult", "ModulationComparison"]


@dataclass
class SchemeResult:
    """BER results of one modulation scheme over the Eb/N0 sweep."""

    scheme: str
    ebn0_db: np.ndarray
    measured_ber: np.ndarray
    theoretical_ber: np.ndarray | None = None


class ModulationComparison:
    """Run the prototype's modulation-scheme comparison."""

    THEORY = {
        "bpsk": theoretical_bpsk_ber,
        "ook": theoretical_ook_ber,
        "ppm": theoretical_ppm_ber,
    }

    def __init__(self, platform: DiscretePrototypePlatform | None = None,
                 pulse_repetition_interval_s: float = 8e-9,
                 rng: np.random.Generator | None = None) -> None:
        self.platform = (platform if platform is not None
                         else DiscretePrototypePlatform())
        self.rng = rng if rng is not None else np.random.default_rng()
        self.pulse_repetition_interval_s = pulse_repetition_interval_s
        self._pulse = gaussian_pulse(self.platform.bandwidth_hz,
                                     self.platform.baseband_rate_hz)

    def _generator(self, modulator: Modulator) -> PulseTrainGenerator:
        config = PulseTrainConfig(
            pulse_repetition_interval_s=self.pulse_repetition_interval_s,
            pulses_per_symbol=1)
        return PulseTrainGenerator(self._pulse, config, modulator)

    def _demodulate(self, received, modulator: Modulator,
                    generator: PulseTrainGenerator,
                    num_symbols: int) -> np.ndarray:
        """Matched-filter demodulation aligned to the known symbol grid."""
        template = self._pulse.waveform
        template_energy = float(np.sum(np.abs(template) ** 2))
        samples_per_symbol = generator.samples_per_symbol
        sample_rate = self.platform.baseband_rate_hz
        statistics = np.zeros(num_symbols)
        offsets = modulator.position_offsets
        for k in range(num_symbols):
            start = k * samples_per_symbol
            if offsets is None:
                segment = received[start:start + template.size]
                value = np.real(np.sum(segment * np.conj(template[:segment.size])))
                statistics[k] = value / template_energy
            else:
                # PPM: difference of the late- and early-position correlators.
                correlations = []
                for offset_s in offsets:
                    shift = int(round(offset_s * sample_rate))
                    segment = received[start + shift:start + shift + template.size]
                    correlations.append(np.real(np.sum(
                        segment * np.conj(template[:segment.size]))))
                statistics[k] = (correlations[1] - correlations[0]) / template_energy
        return modulator.demodulate(statistics)

    def run_scheme(self, scheme: str, ebn0_values_db, num_bits: int = 2000,
                   channel=None) -> SchemeResult:
        """Measure one scheme's BER over the Eb/N0 sweep."""
        require_int(num_bits, "num_bits", minimum=1)
        modulator = make_modulator(scheme)
        generator = self._generator(modulator)
        usable_bits = (num_bits // modulator.bits_per_symbol) \
            * modulator.bits_per_symbol
        bits = random_bits(usable_bits, rng=self.rng)
        train = generator.generate_from_bits(bits)
        clean = self.platform.shape_baseband(train.waveform)
        num_symbols = train.num_symbols
        energy_per_bit = dsp.signal_energy(clean) / usable_bits

        ebn0_array = np.asarray(list(ebn0_values_db), dtype=float)
        measured = np.zeros(ebn0_array.size)
        for index, ebn0_db in enumerate(ebn0_array):
            received = clean
            if channel is not None:
                received = channel.apply(received, self.platform.baseband_rate_hz)
            noise_std = noise_std_for_ebn0(energy_per_bit, float(ebn0_db))
            received = awgn(received, noise_std, rng=self.rng)
            decoded = self._demodulate(received, modulator, generator,
                                       num_symbols)
            measured[index] = bit_errors(bits, decoded) / usable_bits

        theory_fn = self.THEORY.get(scheme)
        theory = theory_fn(ebn0_array) if theory_fn is not None else None
        return SchemeResult(scheme=scheme, ebn0_db=ebn0_array,
                            measured_ber=measured, theoretical_ber=theory)

    def run_all(self, schemes, ebn0_values_db, num_bits: int = 2000,
                channel=None) -> dict[str, SchemeResult]:
        """Run the comparison for every scheme in ``schemes``."""
        return {scheme: self.run_scheme(scheme, ebn0_values_db,
                                        num_bits=num_bits, channel=channel)
                for scheme in schemes}
