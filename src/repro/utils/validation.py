"""Input-validation guards shared across the library.

The guards raise :class:`ValueError`/:class:`IndexError` (and
:class:`TypeError` for a value of the wrong kind) with messages that name
the offending argument, so failures surface at construction time rather
than as NaNs deep inside a solver run.  A probability matrix that fails its
check raises :class:`~repro.core.errors.InstanceValidationError` (itself a
:class:`ValueError`).
"""

from __future__ import annotations

import numpy as np

from repro.core.errors import InstanceValidationError

__all__ = [
    "check_budget",
    "check_fraction",
    "check_index",
    "check_non_negative",
    "check_positive",
    "check_probability_matrix",
]


def check_budget(value: object, name: str, *, positive: bool = False) -> int:
    """Require an assignment budget: an integer (numpy integers included,
    bools not) that is ``>= 0``, or ``> 0`` with ``positive``; return it
    as an ``int``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(
            f"{name} must be an integer, got {type(value).__name__} {value!r}"
        )
    if positive and value <= 0:
        raise ValueError(f"{name} must be positive, got {value}")
    if value < 0:
        raise ValueError(f"{name} must be non-negative, got {value}")
    return int(value)


def check_positive(value: float, name: str) -> float:
    """Require ``value > 0``; return it for chaining."""
    if not value > 0:
        raise ValueError(f"{name} must be positive, got {value!r}")
    return value


def check_non_negative(value: float, name: str) -> float:
    """Require ``value >= 0``; return it for chaining."""
    if value < 0:
        raise ValueError(f"{name} must be non-negative, got {value!r}")
    return value


def check_fraction(value: float, name: str) -> float:
    """Require ``0 <= value <= 1``; return it for chaining."""
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
    return value


def check_index(value: int, size: int, name: str) -> int:
    """Require ``0 <= value < size``; return it for chaining."""
    if not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer index, got {type(value).__name__}")
    if not 0 <= value < size:
        raise IndexError(f"{name} must lie in [0, {size}), got {value}")
    return int(value)


def check_probability_matrix(matrix: np.ndarray, name: str) -> np.ndarray:
    """Require every entry of ``matrix`` to lie in [0, 1]; return it."""
    array = np.asarray(matrix, dtype=float)
    if np.isnan(array).any():
        raise InstanceValidationError(f"{name} contains NaN entries")
    if array.size and (array.min() < 0.0 or array.max() > 1.0):
        raise InstanceValidationError(
            f"{name} entries must lie in [0, 1]; observed range "
            f"[{array.min()}, {array.max()}]"
        )
    return array
