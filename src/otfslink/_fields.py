"""The integer rule and the number rule of every config field, channel field and function argument.

Each raises a ``ValueError`` that names the field or argument, and their
callers give the ranges. A range of the number rule is written as its two
ends and their brackets, ``"[]"``, ``"[)"``, ``"(]"`` or ``"()"``, a square
one closed and a round one open; the default, ``(-inf, inf)``, is the
finite numbers. NaN lies in no range, and +inf only in one closed at inf.
:func:`numbers` is the same rule for an array's entries. A leaf module, so
that ``channel`` can use it.
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


def _inside(values, low: float, high: float, ends: str):
    """Whether ``values``, a float or a real array, lie in the range."""
    return (values >= low if ends[0] == "[" else values > low) & (values <= high if ends[1] == "]" else values < high)


def _range(low: float, high: float, ends: str) -> str:
    """The range as a message gives it: "finite", or "in" and its ends."""
    bounds = f"{ends[0]}{low:g}, {high:g}{ends[1]}"
    return "finite" if bounds == "(-inf, inf)" else f"in {bounds}"


def number(name: str, value, low: float = -math.inf, high: float = math.inf, ends: str = "()") -> float:
    """``value`` as a float if it is a Python or numpy integer or float in the range; a bool is not."""
    if not isinstance(value, (int, float, np.integer, np.floating)) or isinstance(value, bool):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        result = float(value)
    except OverflowError:  # JSON keeps integer literals exact, which may not fit a float
        result = None
    if result is None or (math.isinf(result) and not np.isinf(value)):  # a finite np.longdouble may not fit either
        raise ValueError(f"{name} must be within the float range, got {shown(value)}")
    if not _inside(result, low, high, ends):
        raise ValueError(f"{name} must be {_range(low, high, ends)}, got {value}")
    return result


def finite_result(expression: str, value: float, **arguments) -> float:
    """``value``, the float ``expression`` computes from ``arguments``, if it is finite; else a ``ValueError`` naming them.

    For finite arguments whose result overflows the float range (or is NaN,
    as inf - inf is).
    """
    if not math.isfinite(value):
        given = ", ".join(f"{name} = {shown(argument)}" for name, argument in arguments.items())
        raise ValueError(f"{expression} overflows the float range, got {given}")
    return value


def numbers(name: str, values, low: float = -math.inf, high: float = math.inf, ends: str = "()",
            dtype=float) -> np.ndarray:
    """``values`` as an array of ``dtype`` (its own if None) if every entry is an integer, float or complex in the range.

    A bool, string or object array is refused, and an error names the
    first entry out of the range. A complex array takes the finite range
    alone.
    """
    array = np.asarray(values)
    if array.dtype.kind not in "iufc":
        raise ValueError(f"{name} must hold numbers, got dtype {array.dtype}")
    array = np.asarray(array, dtype=dtype)
    finite = ends == "()" and low == -math.inf and high == math.inf  # the one range of a complex array
    inside = np.isfinite(array) if finite else _inside(array, low, high, ends)
    if not inside.all():
        index = np.unravel_index(np.argmin(inside), array.shape)
        at = f"{name}[{', '.join(map(str, index))}] = " if index else ""
        raise ValueError(f"{name} must be {_range(low, high, ends)}, got {at}{array[index]}")
    return array
