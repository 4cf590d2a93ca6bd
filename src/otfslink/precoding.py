"""SVD sub-channel decomposition and precoder/combiner construction.

An SVD of the time-domain channel turns the MIMO-OTFS link into parallel
scalar sub-channels whose gains are the singular values. The link takes
that SVD from the channel's spatial core C, ``H = (Q_rx kron I) C (Q_tx
kron I)^H`` (:func:`otfslink.channel.spatial_core`), and :func:`lift_leading`
maps the leading singular vectors of C to those of H. :func:`decompose`
computes only the leading triplets a link uses, as the leading eigenpairs
of the Gram matrix of C's smaller side (BLAS ``zherk``, then LAPACK
``zheevr`` for an index range of eigenpairs). Two precoder / combiner modes
are provided:

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

# Singular values below RANK_TOLERANCE * sigma_max count as zero. decompose takes
# them from a Gram matrix, whose eigenvalues carry rounding of about
# side * eps * sigma_max**2, so it resolves sigma / sigma_max only down to
# about sqrt(side * eps), 5e-7 at side 2048.
RANK_TOLERANCE = 1e-6

# cblas_zherk and LAPACKE_zheevr with 64-bit integers, under the names the
# OpenBLAS builds that numpy ships export them by.
_ZHERK_SYMBOLS = ("scipy_cblas_zherk64_", "cblas_zherk64_")
_ZHEEVR_SYMBOLS = ("scipy_LAPACKE_zheevr64_", "LAPACKE_zheevr64_")
_CBLAS_ROW_MAJOR, _CBLAS_UPPER, _CBLAS_NO_TRANS, _CBLAS_CONJ_TRANS = 101, 121, 111, 113
_LAPACK_COL_MAJOR = 102


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
def _gram_routines():
    """``(zherk, zheevr)`` of the OpenBLAS numpy has loaded, or None if it lacks either.

    Only a library already in the process is opened (``RTLD_NOLOAD``), so the
    handles are numpy's own and no second BLAS, with its own thread pool, is
    ever loaded. Resolved on the first call, so importing the package does
    not pay for ``ctypes``.
    """
    import ctypes

    i64, f64, ptr = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
    enum, char = ctypes.c_int, ctypes.c_char
    # zherk(order, uplo, trans, n, k, alpha, a, lda, beta, c, ldc)
    zherk_args = [enum, enum, enum, i64, i64, f64, ptr, i64, f64, ptr, i64]
    # zheevr(layout, jobz, range, uplo, n, a, lda, vl, vu, il, iu, abstol, m, w, z, ldz, isuppz)
    zheevr_args = [enum, char, char, char, i64, ptr, i64, f64, f64, i64, i64, f64,
                   ctypes.POINTER(i64), ptr, ptr, i64, ptr]
    package = Path(np.__file__).resolve().parent
    candidates = sorted(package.parent.glob("numpy.libs/*openblas*")) + sorted(
        package.glob(".dylibs/*openblas*")
    )
    for path in candidates:
        try:
            lib = ctypes.CDLL(str(path), mode=getattr(os, "RTLD_NOLOAD", 0))
        except OSError:
            continue
        zherk, zheevr = (next((getattr(lib, n) for n in names if hasattr(lib, n)), None)
                         for names in (_ZHERK_SYMBOLS, _ZHEEVR_SYMBOLS))
        if zherk is not None and zheevr is not None:
            zherk.restype, zherk.argtypes = None, zherk_args
            zheevr.restype, zheevr.argtypes = i64, zheevr_args
            return zherk, zheevr
    return None


def _lapack_eigenpairs(routines, h: np.ndarray, k: int):
    """``(lam, zh)``: the ``k`` largest eigenpairs of h's Gram matrix G, ascending.

    G is ``h^H h`` when h has at least as many rows as columns, else ``h h^H``.
    ``zherk`` writes G's upper triangle in C order into a fresh buffer, which
    LAPACK reads column-major as the lower triangle of ``conj(G)``. ``zheevr``
    (RANGE='I') overwrites it and writes the eigenvectors of ``conj(G)`` as
    the rows of the C-ordered ``zh``, so ``zh = Z^H`` for eigenvectors Z of G.
    Neither h nor G is copied, and LAPACKE's workspace is O(side).
    """
    import ctypes

    zherk, zheevr = routines
    rows, cols = h.shape
    side = min(rows, cols)
    g = np.empty((side, side), dtype=np.complex128)
    trans = _CBLAS_CONJ_TRANS if rows >= cols else _CBLAS_NO_TRANS
    zherk(_CBLAS_ROW_MAJOR, _CBLAS_UPPER, trans, side, max(rows, cols), 1.0, h.ctypes.data, cols,
          0.0, g.ctypes.data, side)
    lam, zh, isuppz = np.empty(side), np.empty((k, side), np.complex128), np.empty(2 * k, np.int64)
    found = ctypes.c_int64()
    info = zheevr(_LAPACK_COL_MAJOR, b"V", b"I", b"L", side, g.ctypes.data, side, 0.0, 0.0,
                  side - k + 1, side, 0.0, ctypes.byref(found), lam.ctypes.data, zh.ctypes.data,
                  side, isuppz.ctypes.data)
    if info != 0 or found.value != k:
        raise np.linalg.LinAlgError(f"zheevr failed: info = {info}, {found.value} of {k} eigenpairs")
    return lam[:k], zh


def decompose(h: np.ndarray, k: int | None = None) -> SubChannelDecomposition:
    """The leading ``k`` singular triplets of the channel, truncated to its numerical rank.

    ``k = None`` asks for all of them. They come from the ``k`` leading
    eigenpairs of the Gram matrix of h's smaller side, by ``zherk`` and
    ``zheevr`` from numpy's own OpenBLAS (by ``np.linalg.eigh`` when it
    exports neither); the other side's vectors are ``h v / sigma`` or
    ``h^H u / sigma``. Factors are complex128, and ``h`` is never
    modified. ``rank`` counts the eigenvalues above
    ``RANK_TOLERANCE**2 * lambda_max``, so it is ``min(rank(h), k)``.
    LAPACK orders the eigenvalues, ties in a fixed order, so repeated runs
    order them identically.
    """
    h = np.asarray(h)
    if h.ndim != 2 or h.size == 0 or not np.all(np.isfinite(h)):
        raise ValueError(f"channel matrix must be finite, 2-D and non-empty, got shape {h.shape}")
    side, tall = min(h.shape), h.shape[0] >= h.shape[1]
    if k is None:
        k = side
    elif k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    k = min(k, side)
    h = np.ascontiguousarray(h, dtype=np.complex128)
    routines = _gram_routines()
    if routines is not None:
        lam, zh = _lapack_eigenpairs(routines, h, k)
    else:  # the same eigenpairs of the same Gram matrix
        lam, z = np.linalg.eigh(h.conj().T @ h if tall else h @ h.conj().T)
        lam, zh = lam[-k:], z[:, -k:].conj().T
    lam, zh = lam[::-1], zh[::-1]
    rank = int(np.count_nonzero(lam > RANK_TOLERANCE**2 * lam[0]))
    sigma, zh = np.sqrt(lam[:rank]), zh[:rank]
    if tall:  # zh = v^H
        v = zh.conj().T
        u = h @ v / sigma
    else:  # zh = u^H
        u = zh.conj().T
        v = (zh @ h / sigma[:, None]).conj().T
    return SubChannelDecomposition(u=u, sigma=sigma, v=v, rank=rank)


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
