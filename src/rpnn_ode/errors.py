"""Shared exception types, and the one check of a count or real argument."""

import math
import numbers

_SIGNS = {"": lambda v: True, "positive": lambda v: v > 0, "nonnegative": lambda v: v >= 0,
          "negative": lambda v: v < 0}


class NumericError(ArithmeticError):
    """A computation produced non-finite values, or a matrix factorization
    failed on input that passed argument validation."""


class StepUnderflowError(RuntimeError):
    """An adaptive width controller shrank its step below the allowed floor.

    Carries the abscissa reached so callers can report partial progress.
    """

    def __init__(self, message: str, abscissa: float, last_error: float | None = None):
        super().__init__(message)
        self.abscissa = abscissa
        self.last_error = last_error


def _integer(name: str, value, minimum: int | None = None) -> int:
    """value as an int; ValueError naming it unless it is an integer (Python or
    numpy) of at least `minimum`, when given."""
    if isinstance(value, numbers.Integral) and (minimum is None or value >= minimum):
        return int(value)
    bound = "" if minimum is None else f" >= {minimum}"
    raise ValueError(f"need an integer {name}{bound}, got {value!r}")


def _real(name: str, value, sign: str = "") -> float:
    """value as a float; ValueError naming it unless it is a real number (Python
    or numpy, not an array) that is finite and, when given, `sign`: "positive",
    "nonnegative" or "negative"."""
    if not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    if not (-math.inf < value < math.inf and _SIGNS[sign](value)):
        raise ValueError(f"{name} must be {sign + ' and ' if sign else ''}finite, got {value!r}")
    return float(value)
