"""Exception types and advisory warnings shared across the package.

The hierarchy mirrors the three failure families surfaced by the command
line interface: bad arguments (usage), bad data (schema or dimension
problems), and numeric breakdown (singular systems, undefined statistics).
Each scalar parameter check calls :func:`_whole_number` or :func:`_nonnegative`.
"""

from __future__ import annotations

import math
import numbers
import operator


class MultialignError(Exception):
    """Base class for all errors raised by this package."""


class InvalidArgumentError(MultialignError, ValueError):
    """A parameter is out of its admissible range or inconsistent."""


class InvalidDataError(MultialignError, ValueError):
    """Input data violates a schema, shape, or finiteness requirement."""


class NumericError(MultialignError, ArithmeticError):
    """A numeric operation is undefined or broke down (singularity, NaN)."""


class AdvisoryWarning(UserWarning):
    """Non-fatal condition worth surfacing (degenerate rank, truncation...)."""


def _whole_number(name: str, value, minimum: int | None = None) -> int:
    """``value`` as an ``int``, if it is an integer (never a ``bool``) >= ``minimum``."""
    try:
        number = operator.index(None if isinstance(value, bool) else value)
    except TypeError:
        raise InvalidArgumentError(f"{name} must be an integer, got {value!r}") from None
    if minimum is not None and number < minimum:
        raise InvalidArgumentError(f"{name} must be >= {minimum}, got {number}")
    return number


def _nonnegative(name: str, value) -> float:
    """``value`` as a ``float``, if it is a finite real (never a ``bool`` or text) >= 0."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    try:
        number = float(value) if real else math.nan
    except OverflowError:  # an integer past the largest float
        number = math.inf
    if not 0.0 <= number < math.inf:
        raise InvalidArgumentError(f"{name} must be a finite value >= 0, got {value!r}")
    return number
