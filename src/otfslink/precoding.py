"""SVD sub-channel decomposition and precoder/combiner construction.

An SVD of the time-domain channel turns the MIMO-OTFS link into parallel
scalar sub-channels whose gains are the singular values. The link takes
that SVD from the channel's spatial core C, ``H = (Q_rx kron I) C (Q_tx
kron I)^H`` (:func:`otfslink.channel.spatial_core`), and :func:`lift_leading`
maps the leading singular vectors of C to those of H. Two precoder /
combiner modes are provided:

* ``paper_literal``: use the leading SVD factors directly (G = V1, W = U1),
  the textbook eigenmode scheme. The resulting DD-domain effective channel
  is ``C_R Sigma1 C_T``, which is diagonal only when ``Sigma1`` commutes
  with the block Doppler DFT -- generally it does not.
* ``dd_corrected`` (default): fold the DD transforms into the factors,
  G = V1 C_T^H and W = U1 C_R, so the DD-domain effective channel equals
  ``diag(sigma)`` exactly and the per-sub-channel scalar model holds.

Here ``C_T = I_{n_rf} kron (F_N^H kron I_M)`` and
``C_R = I_{n_rf} kron (F_N kron I_M)`` are the stacked transmit/receive
DD transforms; both modes yield semi-unitary matrices, so noise statistics
are preserved through combining.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dd_transforms import dft_matrix

PRECODER_MODES = ("dd_corrected", "paper_literal")

# Singular values below RANK_TOLERANCE * sigma_max count as zero.
RANK_TOLERANCE = 1e-10

# decompose(h, k) computes only the leading k triplets (LAPACK zgesvdx) when
# min(h.shape) >= SUBSET_SVD_MIN_RATIO * k. Against the full zgesdd on square
# complex matrices (2 BLAS threads) zgesvdx takes 0.75-0.9x the time at
# k/side = 1/4 for sides 512-2048, but 1.0-1.7x at k/side = 1/2 and about 2.2x
# for all triplets; at side 256 it is slower even at 1/4 (1.1x).
SUBSET_SVD_MIN_RATIO = 4

# LAPACKE's subset SVD with 64-bit integers, under the names the OpenBLAS builds
# that numpy ships export it by.
_ZGESVDX_SYMBOLS = ("scipy_LAPACKE_zgesvdx64_", "LAPACKE_zgesvdx64_")
_LAPACK_COL_MAJOR = 102
_LAPACK_WORK_MEMORY_ERROR = -1010


class RankDeficientChannelError(ValueError):
    """The channel rank cannot support the requested number of streams."""


@dataclass(frozen=True)
class SubChannelDecomposition:
    """Leading SVD factors of a channel matrix.

    ``u`` and ``v`` are semi-unitary and hold the leading singular vectors;
    ``sigma`` holds the corresponding singular values in descending order.
    ``rank`` is the numerical rank among the triplets that were computed:
    the channel's rank when :func:`decompose` computed all of them, else at
    most the ``k`` it was asked for. :func:`decompose` keeps all ``rank``
    triplets, :func:`lift_leading` only the ones the link uses.
    """

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray
    rank: int


@dataclass(frozen=True)
class PrecoderCombiner:
    """Semi-unitary precoder ``g`` and combiner ``w`` for one channel."""

    g: np.ndarray
    w: np.ndarray
    mode: str


@functools.cache
def _zgesvdx():
    """``LAPACKE_zgesvdx`` of the OpenBLAS numpy has loaded, or None if there is none.

    Only a library already in the process is opened (``RTLD_NOLOAD``), so the
    handle is numpy's own and no second BLAS, with its own thread pool, is
    ever loaded. Resolved on the first call, so importing the package does
    not pay for ``ctypes``.
    """
    import ctypes

    i64 = ctypes.c_int64
    package = Path(np.__file__).resolve().parent
    candidates = sorted(package.parent.glob("numpy.libs/*openblas*")) + sorted(
        package.glob(".dylibs/*openblas*")
    )
    for path in candidates:
        try:
            lib = ctypes.CDLL(str(path), mode=getattr(os, "RTLD_NOLOAD", 0))
        except OSError:
            continue
        for name in _ZGESVDX_SYMBOLS:
            fn = getattr(lib, name, None)
            if fn is None:
                continue
            fn.restype = i64
            fn.argtypes = [
                ctypes.c_int, ctypes.c_char, ctypes.c_char, ctypes.c_char,  # layout, jobu, jobvt, range
                i64, i64, ctypes.c_void_p, i64,  # m, n, a, lda
                ctypes.c_double, ctypes.c_double, i64, i64,  # vl, vu, il, iu
                ctypes.POINTER(i64), ctypes.c_void_p,  # ns, s
                ctypes.c_void_p, i64, ctypes.c_void_p, i64,  # u, ldu, vt, ldvt
                ctypes.c_void_p,  # superb
            ]
            return fn
    return None


def _leading_svd(gesvdx, h: np.ndarray, k: int):
    """``(u, s, vh)`` of the ``k`` largest singular values of ``h`` by zgesvdx.

    LAPACK reads the C-ordered copy of ``h`` as column-major, i.e. as
    ``h^T = U' S V'^H``; then ``h = conj(V') S U'^T``, and the column-major
    ``VT'`` and ``U'`` it writes are, read back in C order, ``u`` and ``vh``.
    LAPACKE so makes no transposed copies, but it reserves 17*min(h.shape)**2
    doubles of real workspace, which is virtual and only partly touched.
    """
    import ctypes

    rows, cols = h.shape
    a = np.array(h, dtype=np.complex128, order="C")  # LAPACK overwrites it
    s = np.empty(min(rows, cols))
    vh = np.empty((k, cols), dtype=np.complex128)
    u = np.empty((rows, k), dtype=np.complex128)
    superb = np.empty(12 * min(rows, cols), dtype=np.int64)
    ns = ctypes.c_int64()
    info = gesvdx(
        _LAPACK_COL_MAJOR, b"V", b"V", b"I",
        cols, rows, a.ctypes.data, cols,
        0.0, 0.0, 1, k,
        ctypes.byref(ns), s.ctypes.data,
        vh.ctypes.data, cols, u.ctypes.data, k,
        superb.ctypes.data,
    )
    if info == _LAPACK_WORK_MEMORY_ERROR:
        raise np.linalg.LinAlgError("zgesvdx could not allocate its workspace")
    if info != 0:
        raise np.linalg.LinAlgError(f"zgesvdx failed with info = {info}")
    if ns.value != k:
        raise np.linalg.LinAlgError(f"zgesvdx returned {ns.value} singular values, expected {k}")
    return u, s[:k], vh


def decompose(h: np.ndarray, k: int | None = None) -> SubChannelDecomposition:
    """The leading ``k`` singular triplets of the channel, truncated to its numerical rank.

    ``k = None`` asks for all of them. When ``k`` is at most
    ``min(h.shape) / SUBSET_SVD_MIN_RATIO`` and numpy's OpenBLAS exports
    ``zgesvdx``, only those ``k`` are computed (factors in complex128);
    otherwise ``np.linalg.svd`` computes all and the rest are dropped.
    ``h`` is never modified. ``rank`` counts the computed triplets above
    ``RANK_TOLERANCE * sigma_max``, so it is ``min(rank(h), k)``.

    LAPACK returns the singular values in descending order, ties in a
    fixed order, so repeated runs order them identically.
    """
    h = np.asarray(h)
    if not np.all(np.isfinite(h)):
        raise ValueError("channel matrix must be finite")
    side = min(h.shape)
    if k is None:
        k = side
    elif k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    k = min(k, side)
    gesvdx = _zgesvdx() if 1 <= k and SUBSET_SVD_MIN_RATIO * k <= side else None
    if gesvdx is not None:
        u, s, vh = _leading_svd(gesvdx, h, k)
    else:
        u, s, vh = np.linalg.svd(h, full_matrices=False)
        s = s[:k]
    sigma_max = s[0] if s.size else 0.0
    rank = int(np.count_nonzero(s > RANK_TOLERANCE * sigma_max))
    return SubChannelDecomposition(
        u=u[:, :rank], sigma=s[:rank], v=vh[:rank].conj().T, rank=rank
    )


def _require_rank(dec: SubChannelDecomposition, k: int) -> None:
    if dec.rank < k:
        raise RankDeficientChannelError(
            f"channel rank {dec.rank} cannot carry {k} = n_rf*m*n streams"
        )


def _kron_eye_times(q: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``(Q kron I) @ x`` without forming the Kronecker product."""
    k = x.shape[1]
    return (q @ x.reshape(q.shape[1], -1)).reshape(-1, k)


def lift_leading(
    dec: SubChannelDecomposition, q_rx: np.ndarray, q_tx: np.ndarray, k: int
) -> SubChannelDecomposition:
    """The leading ``k`` singular triplets of H from those of its spatial core.

    ``dec`` decomposes C in ``H = (Q_rx kron I) C (Q_tx kron I)^H``. Both
    ``Q kron I`` have orthonormal columns, so ``(Q_rx kron I) u`` and
    ``(Q_tx kron I) v`` are singular vectors of H with the singular values
    of C. Only the first ``k`` columns are mapped; ``rank`` stays
    ``dec.rank``. Raises :class:`RankDeficientChannelError` when the
    rank is below ``k``.
    """
    _require_rank(dec, k)
    return SubChannelDecomposition(
        u=_kron_eye_times(q_rx, dec.u[:, :k]),
        sigma=dec.sigma[:k],
        v=_kron_eye_times(q_tx, dec.v[:, :k]),
        rank=dec.rank,
    )


def dd_transform_matrices(n_rf: int, m: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Dense stacked DD transforms (C_T, C_R) for n_rf chains of an (m, n) grid."""
    if n_rf < 1 or m < 1 or n < 1:
        raise ValueError(f"n_rf, m, n must all be >= 1, got {(n_rf, m, n)}")
    f = dft_matrix(n)
    eye_rf = np.eye(n_rf)
    eye_m = np.eye(m)
    c_t = np.kron(eye_rf, np.kron(f.conj().T, eye_m))
    c_r = np.kron(eye_rf, np.kron(f, eye_m))
    return c_t, c_r


def build_precoder_combiner(
    dec: SubChannelDecomposition, n_rf: int, m: int, n: int, mode: str = "dd_corrected"
) -> PrecoderCombiner:
    """Build the precoder/combiner pair for ``n_rf * m * n`` streams.

    Raises :class:`RankDeficientChannelError` when the channel rank is
    below the requested stream count.
    """
    if mode not in PRECODER_MODES:
        raise ValueError(f"mode must be one of {PRECODER_MODES}, got {mode!r}")
    k = n_rf * m * n
    _require_rank(dec, k)
    v1 = dec.v[:, :k]
    u1 = dec.u[:, :k]
    if mode == "paper_literal":
        return PrecoderCombiner(g=v1, w=u1, mode=mode)
    c_t, c_r = dd_transform_matrices(n_rf, m, n)
    return PrecoderCombiner(g=v1 @ c_t.conj().T, w=u1 @ c_r, mode=mode)


def sub_channel_gains(dec: SubChannelDecomposition, n_rf: int, m: int, n: int) -> np.ndarray:
    """Leading ``n_rf * m * n`` singular values, descending: the sub-channel gains."""
    k = n_rf * m * n
    _require_rank(dec, k)
    return dec.sigma[:k].copy()
