"""Shared utilities: dB conversions, DSP helpers, bit handling, fixed point,
filesystem helpers."""

from repro.utils import bits, db, dsp, fixed_point, io, validation
from repro.utils.db import (
    db_to_linear,
    linear_to_db,
    watts_to_dbm,
)
from repro.utils.dsp import (
    estimate_psd,
    occupied_bandwidth,
    signal_energy,
    signal_power,
    upconvert,
)
from repro.utils.fixed_point import FixedPointFormat

__all__ = [
    "bits",
    "db",
    "dsp",
    "fixed_point",
    "io",
    "validation",
    "db_to_linear",
    "linear_to_db",
    "watts_to_dbm",
    "estimate_psd",
    "occupied_bandwidth",
    "signal_energy",
    "signal_power",
    "upconvert",
    "FixedPointFormat",
]
