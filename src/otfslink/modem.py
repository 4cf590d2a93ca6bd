"""Gray-labeled 64-QAM, hard-decision demapping, per-sub-channel zero forcing.

Labeling convention (bit-exact, for portable fixtures): a 6-bit label
``b5 b4 b3 b2 b1 b0`` splits into in-phase bits first, ``(b5 b4 b3)``, and
quadrature bits ``(b2 b1 b0)``. Each 3-bit group is the reflected Gray code
``gray(i) = i ^ (i >> 1)`` of its amplitude level index ``i in 0..7``, and
level index ``i`` maps to amplitude ``2*i - 7`` (so the levels are
-7,-5,-3,-1,1,3,5,7). Points are scaled by ``1/sqrt(42)`` for unit average
energy; label 0 is therefore the corner ``(-7 - 7j)/sqrt(42)``.

Because the grid is square, the nearest point is the nearest level on each
axis, decided on its own against the 7 midpoints between adjacent levels.
"""

from __future__ import annotations

import numpy as np

from . import _fields
from .special import erfc

QAM_ORDER = 64

# Gains below this are flagged as erasures rather than inverted.
DEFAULT_MIN_GAIN = 1e-6

_LEVEL = np.arange(8)
_GRAY = _LEVEL ^ (_LEVEL >> 1)
# _LABELS[i, q]: the label of in-phase level index i and quadrature level index q.
_LABELS = _GRAY[:, None] << 3 | _GRAY

# The decision thresholds of either axis: (2i - 6)/sqrt(42), midway between levels i and i+1.
MIDPOINTS = (2 * _LEVEL[:-1] - 6) / np.sqrt(42.0)
MIDPOINTS.flags.writeable = False

_POINTS = np.empty(QAM_ORDER, dtype=complex)
_POINTS[_LABELS] = ((2 * _LEVEL - 7)[:, None] + 1j * (2 * _LEVEL - 7)) / np.sqrt(42.0)
_POINTS.flags.writeable = False


def constellation_points() -> np.ndarray:
    """The 64 unit-average-energy constellation points, indexed by label (read-only)."""
    return _POINTS


def modulate(indices) -> np.ndarray:
    """Map integer labels in [0, 64) to constellation symbols; no labels give an empty complex array."""
    idx = np.asarray(indices)
    if idx.size == 0:  # [] converts to float64, and holds no label to check
        return np.empty(idx.shape, dtype=complex)
    if not np.issubdtype(idx.dtype, np.integer):
        raise ValueError(f"indices must be integers, got dtype {idx.dtype}")
    return _POINTS[_fields.numbers("indices", idx, 0, QAM_ORDER, "[)", dtype=None)]


def demodulate_hard(received) -> np.ndarray:
    """Minimum-distance labels for received symbols, decided per axis.

    Each part takes the level whose interval of :data:`MIDPOINTS` holds it;
    a value exactly on a threshold takes the lower level. Non-finite
    symbols raise ``ValueError``.
    """
    r = _fields.numbers("received", received, dtype=complex)
    return _LABELS[np.searchsorted(MIDPOINTS, r.real), np.searchsorted(MIDPOINTS, r.imag)]


def equalize(x_hat, gains):
    """Zero-forcing per sub-channel: ``x_hat / gain``, with erasure flagging.

    Entries whose gain falls below :data:`DEFAULT_MIN_GAIN` are returned as
    0 and flagged in the boolean erasure mask (second return value); an
    erasure is a value, not an error. ``gains`` broadcast along the last axis.
    A non-finite entry of either argument is a ``ValueError`` naming it, and
    so is a quotient beyond the float range.
    """
    x, lam = _fields.numbers("x_hat", x_hat, dtype=None), _fields.numbers("gains", gains)
    erased = lam < DEFAULT_MIN_GAIN
    safe = np.where(erased, 1.0, lam)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowed quotient is named below
        eq = np.where(erased, 0.0, x / safe)
    finite = np.isfinite(eq)
    if not finite.all():
        index = np.unravel_index(np.argmin(finite), eq.shape)
        x, lam = np.broadcast_to(x, eq.shape), np.broadcast_to(lam, eq.shape)
        raise ValueError(f"x_hat / gains overflows the float range, got x_hat[{', '.join(map(str, index))}] "
                         f"= {x[index]} over gains = {lam[index]}")
    return eq, erased


def square_qam_ser(snr_linear):
    """Closed-form symbol error rate of the Gray 64-QAM over AWGN.

    ``snr_linear`` is Es/N0 with Es the unit average symbol energy and N0
    the total per-complex-component noise variance, >= 0 or +inf.
    """
    snr = _fields.numbers("snr_linear", snr_linear, 0, np.inf, "[]")
    q = 0.5 * erfc(np.sqrt(3.0 * snr / (QAM_ORDER - 1)) / np.sqrt(2.0))
    p_axis = 2.0 * (1.0 - 1.0 / _LEVEL.size) * q
    ser = 1.0 - (1.0 - p_axis) ** 2
    return float(ser) if np.isscalar(snr_linear) else ser
