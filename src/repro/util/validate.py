"""Argument-validation helpers shared across the package.

Simulation bugs caused by out-of-range parameters (negative runtimes,
probabilities above one) are silent and expensive to track down, so public
constructors validate eagerly and raise :class:`ValidationError` with the
offending name and value.
"""

from __future__ import annotations

import math

__all__ = [
    "ValidationError",
    "check_positive",
    "check_non_negative",
    "check_probability",
    "check_finite",
]


class ValidationError(ValueError):
    """Raised when a user-supplied parameter is out of its legal range."""


def check_finite(name: str, value: float) -> float:
    """Validate a finite number (a bool is not one) and return it as float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{name} must be a number, got {value!r}")
    value = float(value)
    if math.isnan(value) or math.isinf(value):
        raise ValidationError(f"{name} must be finite, got {value!r}")
    return value


def check_positive(name: str, value: float) -> float:
    """Validate ``value > 0`` and return it as float."""
    value = check_finite(name, value)
    if value <= 0:
        raise ValidationError(f"{name} must be > 0, got {value!r}")
    return value


def check_non_negative(name: str, value: float) -> float:
    """Validate ``value >= 0`` and return it as float."""
    value = check_finite(name, value)
    if value < 0:
        raise ValidationError(f"{name} must be >= 0, got {value!r}")
    return value


def check_probability(name: str, value: float) -> float:
    """Validate ``0 <= value <= 1`` and return it as float."""
    value = check_finite(name, value)
    if not 0.0 <= value <= 1.0:
        raise ValidationError(f"{name} must be in [0, 1], got {value!r}")
    return value
