"""The integer rule and the number rule of every config field, channel field and function argument.

Each raises a ``ValueError`` that names the field or argument, and their
callers give the ranges. A leaf module, so that ``channel`` can use it.
"""

from __future__ import annotations

import math

import numpy as np


def shown(value) -> str:
    """``value`` for a message; an integer of more than 64 bits by its size alone."""
    big = isinstance(value, int) and value.bit_length() > 64
    return f"an integer of {value.bit_length()} bits" if big else str(value)


def integer(name: str, value, low: int, high: int | None = None) -> int:
    """``value`` as an int if it is a Python or numpy integer in [low, high]; a bool or a float is not."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if not low <= value <= (math.inf if high is None else high):
        bounds = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise ValueError(f"{name} must be {bounds}, got {shown(value)}")
    return value


def number(name: str, value) -> float:
    """``value`` as a float if it is a Python or numpy integer or float within the float range, NaN and ±inf too."""
    if not isinstance(value, (int, float, np.integer, np.floating)) or isinstance(value, bool):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        result = float(value)
    except OverflowError:  # JSON keeps integer literals exact, which may not fit a float
        result = None
    if result is None or (math.isinf(result) and not np.isinf(value)):  # a finite np.longdouble may not fit either
        raise ValueError(f"{name} must be within the float range, got {shown(value)}")
    return result
