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
    "require_in_range",
    "require_probability",
    "require_int",
    "require_json_int",
    "as_1d_array",
    "require_same_length",
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


def require_in_range(value: float, low: float, high: float, name: str,
                     inclusive: bool = True) -> float:
    """Return ``value`` if it lies in ``[low, high]`` (or ``(low, high)``)."""
    if inclusive:
        ok = low <= value <= high
        bounds = f"[{low}, {high}]"
    else:
        ok = low < value < high
        bounds = f"({low}, {high})"
    if not ok:
        raise ValueError(f"{name} must be in {bounds}, got {value!r}")
    return float(value)


def require_probability(value: float, name: str) -> float:
    """Return ``value`` if it is a valid probability in [0, 1]."""
    return require_in_range(value, 0.0, 1.0, name)


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


def as_1d_array(x, name: str, dtype=None) -> np.ndarray:
    """Return ``x`` as a 1-D numpy array, raising if it has extra dimensions."""
    arr = np.asarray(x, dtype=dtype)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    return arr


def require_same_length(a, b, name_a: str, name_b: str) -> None:
    """Raise ``ValueError`` when two sequences differ in length."""
    la, lb = len(a), len(b)
    if la != lb:
        raise ValueError(f"{name_a} (length {la}) and {name_b} (length {lb}) "
                         "must have the same length")
