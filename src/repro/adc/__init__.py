"""ADC models: ideal quantizer, flash, time-interleaved, SAR, power."""

from repro.adc.flash import FlashADC
from repro.adc.interleaved import TimeInterleavedADC
from repro.adc.power import (
    ADCPowerModel,
    DEFAULT_FOM_J_PER_STEP,
    walden_power_w,
)
from repro.adc.quantizer import UniformQuantizer, ideal_sndr_db
from repro.adc.sar import QuadratureSARADC, SARADC

__all__ = [
    "FlashADC",
    "TimeInterleavedADC",
    "ADCPowerModel",
    "DEFAULT_FOM_J_PER_STEP",
    "walden_power_w",
    "UniformQuantizer",
    "ideal_sndr_db",
    "QuadratureSARADC",
    "SARADC",
]
