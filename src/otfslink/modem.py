"""Gray-labeled 64-QAM, hard-decision demapping, per-sub-channel zero forcing.

Labeling convention (bit-exact, for portable fixtures): a 6-bit label
``b5 b4 b3 b2 b1 b0`` splits into in-phase bits first, ``(b5 b4 b3)``, and
quadrature bits ``(b2 b1 b0)``. Each 3-bit group is the reflected Gray code
``gray(i) = i ^ (i >> 1)`` of its amplitude level index ``i in 0..7``, and
level index ``i`` maps to amplitude ``2*i - 7`` (so the levels are
-7,-5,-3,-1,1,3,5,7). Points are scaled by ``1/sqrt(42)`` for unit average
energy; label 0 is therefore the corner ``(-7 - 7j)/sqrt(42)``.
"""

from __future__ import annotations

import numpy as np

from .special import erfc

QAM_ORDER = 64

# Gains below this are flagged as erasures rather than inverted.
DEFAULT_MIN_GAIN = 1e-6

_DEMOD_CHUNK = 1 << 16


def _gray(i: int) -> int:
    return i ^ (i >> 1)


def _build_points() -> np.ndarray:
    pts = np.empty(QAM_ORDER, dtype=complex)
    for i_idx in range(8):
        for q_idx in range(8):
            label = (_gray(i_idx) << 3) | _gray(q_idx)
            pts[label] = (2 * i_idx - 7) + 1j * (2 * q_idx - 7)
    return pts / np.sqrt(42.0)


_POINTS = _build_points()
_POINTS.flags.writeable = False


def constellation_points() -> np.ndarray:
    """The 64 unit-average-energy constellation points, indexed by label (read-only)."""
    return _POINTS


def modulate(indices) -> np.ndarray:
    """Map integer labels in [0, 64) to constellation symbols."""
    idx = np.asarray(indices)
    if idx.size and (not np.issubdtype(idx.dtype, np.integer)):
        raise ValueError(f"symbol indices must be integers, got dtype {idx.dtype}")
    if np.any(idx < 0) or np.any(idx >= QAM_ORDER):
        raise ValueError(f"symbol indices must lie in [0, {QAM_ORDER})")
    return _POINTS[idx]


def demodulate_hard(received) -> np.ndarray:
    """Minimum-distance labels for received symbols; ties take the smallest label."""
    r = np.asarray(received, dtype=complex)
    flat = r.ravel()
    out = np.empty(flat.shape, dtype=np.intp)
    for start in range(0, flat.size, _DEMOD_CHUNK):
        block = flat[start : start + _DEMOD_CHUNK]
        out[start : start + _DEMOD_CHUNK] = np.argmin(
            np.abs(block[:, None] - _POINTS[None, :]), axis=1
        )
    return out.reshape(r.shape)


def equalize(x_hat, gains, min_gain: float = DEFAULT_MIN_GAIN):
    """Zero-forcing per sub-channel: ``x_hat / gain``, with erasure flagging.

    Entries whose gain falls below ``min_gain`` are returned as 0 and
    flagged in the boolean erasure mask (second return value); an erasure
    is a value, not an error.
    """
    x = np.asarray(x_hat)
    lam = np.asarray(gains, dtype=float)
    erased = lam < min_gain
    safe = np.where(erased, 1.0, lam)
    eq = np.where(erased, 0.0, x / safe)
    return eq, erased


def square_qam_ser(snr_linear, order: int = QAM_ORDER):
    """Closed-form symbol error rate of Gray square QAM over AWGN.

    ``snr_linear`` is Es/N0 with Es the unit average symbol energy and N0
    the total per-complex-component noise variance.
    """
    m = int(order)
    root = np.sqrt(m)
    if root != int(root):
        raise ValueError(f"order must be a perfect square, got {order}")
    snr = np.asarray(snr_linear, dtype=float)
    q = 0.5 * erfc(np.sqrt(3.0 * snr / (m - 1)) / np.sqrt(2.0))
    p_axis = 2.0 * (1.0 - 1.0 / root) * q
    ser = 1.0 - (1.0 - p_axis) ** 2
    return float(ser) if np.isscalar(snr_linear) else ser
