"""Pulse shaping, modulation, pulse trains, and spectral/FCC-mask analysis."""

from repro.pulses.fcc_mask import (
    MaskComplianceReport,
    check_mask_compliance,
    fcc_indoor_mask_dbm_per_mhz,
    max_compliant_scale,
    psd_dbm_per_mhz,
)
from repro.pulses.modulated import (
    ModulatedPulse,
    fig4_prototype_pulse,
    modulated_gaussian_pulse,
)
from repro.pulses.modulation import (
    BPSKModulator,
    BinaryPPMModulator,
    MODULATION_SCHEMES,
    Modulator,
    OOKModulator,
    PAMModulator,
    make_modulator,
)
from repro.pulses.shapes import (
    Pulse,
    gaussian_derivative_pulse,
    gaussian_pulse,
    sigma_for_bandwidth,
)
from repro.pulses.spectrum import (
    SpectrumSummary,
    bandwidth_at_level,
    fractional_bandwidth,
    summarize_spectrum,
)
from repro.pulses.train import PulseTrain, PulseTrainConfig, PulseTrainGenerator

__all__ = [
    "MaskComplianceReport",
    "check_mask_compliance",
    "fcc_indoor_mask_dbm_per_mhz",
    "max_compliant_scale",
    "psd_dbm_per_mhz",
    "ModulatedPulse",
    "fig4_prototype_pulse",
    "modulated_gaussian_pulse",
    "BPSKModulator",
    "BinaryPPMModulator",
    "MODULATION_SCHEMES",
    "Modulator",
    "OOKModulator",
    "PAMModulator",
    "make_modulator",
    "Pulse",
    "gaussian_derivative_pulse",
    "gaussian_pulse",
    "sigma_for_bandwidth",
    "SpectrumSummary",
    "bandwidth_at_level",
    "fractional_bandwidth",
    "summarize_spectrum",
    "PulseTrain",
    "PulseTrainConfig",
    "PulseTrainGenerator",
]
