"""Small argument-validation helpers used across the library.

Validation failures always raise ``ValueError`` (or ``TypeError`` for type
problems) with a message naming the offending argument, so errors surface at
the public API boundary rather than deep inside numpy broadcasting.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "require_positive",
    "require_non_negative",
    "require_int",
    "require_json_int",
]


def require_positive(value: float, name: str) -> float:
    """Return ``value`` if strictly positive, otherwise raise ``ValueError``."""
    if not np.isfinite(value) or value <= 0:
        raise ValueError(f"{name} must be a positive finite number, got {value!r}")
    return float(value)


def require_non_negative(value: float, name: str) -> float:
    """Return ``value`` if >= 0, otherwise raise ``ValueError``."""
    if not np.isfinite(value) or value < 0:
        raise ValueError(f"{name} must be a non-negative finite number, got {value!r}")
    return float(value)


def require_int(value, name: str, minimum: int | None = None) -> int:
    """Return ``value`` as an int, optionally enforcing a minimum."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {type(value).__name__}")
    value = int(value)
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return value


def require_json_int(value, name: str, minimum: int | None = None) -> int:
    """:func:`require_int` for a parsed JSON number: a float without a
    fractional part (``4.0``) counts as that integer, a bool never does."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    return require_int(value, name, minimum)
