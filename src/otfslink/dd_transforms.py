"""Delay-Doppler <-> time-domain transforms for OTFS frames.

Conventions used throughout the package:

* A DD grid is an ``(M, N)`` complex array; axis 0 is the delay dimension
  (M bins), axis 1 the Doppler dimension (N bins).
* Vectorization is column-major (delay index varies fastest), so that the
  fused per-row inverse DFT ``S = X @ F_N^H`` and the Kronecker form
  ``vec(S) = (F_N^H kron I_M) @ vec(X)`` are the same operation.
* DFT matrices are unitary (``1/sqrt(size)`` normalization) and exactly
  symmetric, which makes every transform here energy preserving.
* Every function acts on the trailing axes and keeps any leading ones, so
  a burst of frames (leading frame axis, then RF chains) goes through as
  one array.

With rectangular transmit/receive pulses the ISFFT + Heisenberg cascade of
OTFS modulation collapses to a single inverse DFT across the Doppler axis,
and the receive-side Wigner + SFFT cascade collapses to the forward DFT.
Only these fused forms are implemented; the intermediate time-frequency
grid is never materialized.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from . import _fields


@lru_cache(maxsize=None)
def _dft_cached(size: int) -> np.ndarray:
    idx = np.arange(size)
    f = np.exp(-2j * np.pi * np.outer(idx, idx) / size) / np.sqrt(size)
    f.flags.writeable = False
    return f


def dft_matrix(size: int) -> np.ndarray:
    """Unitary DFT matrix with entry (a, b) = exp(-j 2 pi a b / size) / sqrt(size).

    The matrix is symmetric (``F.T == F`` bit-for-bit, because the exponent
    table ``a*b`` is) and unitary. The returned array is cached and marked
    read-only; copy before mutating. ``size`` is an integer >= 1; an error
    names it.
    """
    return _dft_cached(_fields.integer("size", size, 1))


def otfs_modulate(grid: np.ndarray) -> np.ndarray:
    """Map ``(..., M, N)`` DD grids to their length-M*N time-domain frames.

    Computes ``vec(X @ F_N^H)`` with column-major vectorization for each
    grid on the leading axes. The transform is unitary, so
    ``norm(out) == frobenius_norm(grid)`` per grid.
    """
    grid = _fields.numbers("grid", grid, dtype=None)
    if grid.ndim < 2 or grid.shape[-2] < 1 or grid.shape[-1] < 1:
        raise ValueError(f"DD grids must be (..., M, N) arrays with M, N >= 1, got shape {grid.shape}")
    s = grid @ dft_matrix(grid.shape[-1]).conj().T
    return s.swapaxes(-1, -2).reshape(grid.shape[:-2] + (-1,))


def otfs_demodulate(frame: np.ndarray, m: int, n: int) -> np.ndarray:
    """Recover the ``(..., m, n)`` DD grids from ``(..., m*n)`` time-domain frames.

    Exact inverse of :func:`otfs_modulate`: reshapes each frame
    column-major and applies the forward Doppler-axis DFT. ``m`` and ``n``
    are integers >= 1; an error names the argument.
    """
    frame = np.asarray(frame)
    m, n = _fields.integer("m", m, 1), _fields.integer("n", n, 1)
    if frame.ndim < 1 or frame.shape[-1] != m * n:
        raise ValueError(f"frames must end in an axis of length m*n={m * n}, got shape {frame.shape}")
    s = frame.reshape(frame.shape[:-1] + (n, m)).swapaxes(-1, -2)
    return s @ dft_matrix(n)


def stack_chains(frames) -> np.ndarray:
    """Concatenate ``(..., n_chains, L)`` per-RF-chain frames into ``(..., n_chains*L)`` vectors.

    Element ``c*L + q`` of an output vector is element ``q`` of chain ``c``.
    """
    frames = np.asarray(frames)
    if frames.ndim < 2 or frames.shape[-2] < 1:
        raise ValueError(f"need (..., n_chains, L) frames with n_chains >= 1, got shape {frames.shape}")
    return frames.reshape(frames.shape[:-2] + (-1,))


def unstack_chains(signal: np.ndarray, n_chains: int) -> np.ndarray:
    """Split ``(..., n_chains*L)`` stacked vectors back into ``(..., n_chains, L)`` chains.

    Inverse of :func:`stack_chains`; ``n_chains`` is an integer >= 1, and an error names it.
    """
    signal = np.asarray(signal)
    n_chains = _fields.integer("n_chains", n_chains, 1)
    if signal.ndim < 1 or signal.shape[-1] % n_chains != 0:
        raise ValueError(f"signal of shape {signal.shape} does not split into {n_chains} equal chains")
    return signal.reshape(signal.shape[:-1] + (n_chains, -1))
