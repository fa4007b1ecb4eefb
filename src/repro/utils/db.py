"""Decibel and power-unit conversion helpers.

All converters accept scalars or numpy arrays and return the same shape.
Power ratios use ``10 log10``; amplitude/voltage ratios use ``20 log10``.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "db_to_linear",
    "linear_to_db",
    "watts_to_dbm",
]

_MIN_LINEAR = np.finfo(float).tiny


def db_to_linear(value_db):
    """Convert a power quantity in dB to a linear power ratio."""
    return np.power(10.0, np.asarray(value_db, dtype=float) / 10.0)


def linear_to_db(value_linear):
    """Convert a linear power ratio to dB.

    Values at or below zero are clipped to the smallest positive float so
    the result is a large negative number instead of ``-inf``/NaN.
    """
    clipped = np.maximum(np.asarray(value_linear, dtype=float), _MIN_LINEAR)
    return 10.0 * np.log10(clipped)


def watts_to_dbm(power_watts):
    """Convert power in watts to dBm."""
    return linear_to_db(np.asarray(power_watts, dtype=float) / 1e-3)
