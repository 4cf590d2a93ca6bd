"""SVD sub-channel decomposition and precoder/combiner construction.

An SVD of the time-domain channel turns the MIMO-OTFS link into parallel
scalar sub-channels whose gains are the singular values. A link of
``n_rf`` chains on an (M, N) grid uses exactly k = n_rf*M*N of them and
needs a channel of rank >= k. :func:`decompose` owns that rule: it
returns exactly the k leading triplets of H, or raises
:class:`RankDeficientChannelError`. It takes them from the leading
eigenpairs of the Gram matrix of H's spatial core on its smaller side
(:class:`otfslink.channel.SpatialCore`): LAPACK's tridiagonal reduction,
all eigenvalues of the tridiagonal without vectors, and vectors for the
k largest only. Neither the core nor H is formed: the channel module
builds that Gram matrix from the path pairs, lifts its eigenvectors to
H's coordinates and applies H path by path.
Two precoder / combiner modes are provided:

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

# The four LAPACKE routines of decompose's eigenpair route, with 64-bit
# integers, under the names the OpenBLAS builds that numpy ships export them by.
# zunmtr is taken in its _work form, which leaves the workspace to the caller:
# LAPACKE_zunmtr scans the whole square for NaN, which commits the pages of the
# triangle the Gram matrix leaves unwritten.
_LAPACKE_SYMBOLS = {
    name: (f"scipy_LAPACKE_{symbol}64_", f"LAPACKE_{symbol}64_")
    for name, symbol in (("zhetrd", "zhetrd"), ("dsterf", "dsterf"), ("zstein", "zstein"),
                         ("zunmtr", "zunmtr_work"))
}
_LAPACK_COL_MAJOR = 102


class RankDeficientChannelError(ValueError):
    """The channel rank cannot support the requested number of streams."""


@dataclass(frozen=True)
class SubChannelDecomposition:
    """Leading SVD factors of a channel matrix H, in H's own coordinates.

    ``u`` (``H.shape[0] x k``) and ``v`` (``H.shape[1] x k``) are
    semi-unitary and hold the leading singular vectors, ``H v = u
    diag(sigma)``; ``sigma`` holds the singular values in descending order.
    ``rank`` always equals ``sigma.size``, the ``k`` that :func:`decompose`
    was asked for; it stays only for the benchmark's rank counter, which
    ROADMAP item 3 retires.
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


@functools.cache
def _gram_routines():
    """``(zhetrd, dsterf, zstein, zunmtr)`` of the OpenBLAS numpy has loaded, or None.

    None when that library does not export all four. Only a library already
    in the process is opened (``RTLD_NOLOAD``), so the handle is numpy's own
    and no second BLAS, with its own thread pool, is ever loaded. Resolved on
    the first call, so importing the package does not pay for ``ctypes``.
    """
    import ctypes

    i64, ptr, enum, char = ctypes.c_int64, ctypes.c_void_p, ctypes.c_int, ctypes.c_char
    argtypes = {
        "zhetrd": [enum, char, i64, ptr, i64, ptr, ptr, ptr],  # layout, uplo, n, a, lda, d, e, tau
        "dsterf": [i64, ptr, ptr],  # n, d, e
        # layout, n, d, e, m, w, iblock, isplit, z, ldz, ifailv
        "zstein": [enum, i64, ptr, ptr, i64, ptr, ptr, ptr, ptr, i64, ptr],
        # layout, side, uplo, trans, m, n, a, lda, tau, c, ldc, work, lwork
        "zunmtr": [enum, char, char, char, i64, i64, ptr, i64, ptr, ptr, i64, ptr, i64],
    }
    package = Path(np.__file__).resolve().parent
    candidates = sorted(package.parent.glob("numpy.libs/*openblas*")) + sorted(
        package.glob(".dylibs/*openblas*")
    )
    for path in candidates:
        try:
            lib = ctypes.CDLL(str(path), mode=getattr(os, "RTLD_NOLOAD", 0))
        except OSError:
            continue
        routines = [next((getattr(lib, s) for s in symbols if hasattr(lib, s)), None)
                    for symbols in _LAPACKE_SYMBOLS.values()]
        if None not in routines:
            for routine, name in zip(routines, _LAPACKE_SYMBOLS):
                routine.restype, routine.argtypes = i64, argtypes[name]
            return tuple(routines)
    return None


def _check(routine: str, info: int) -> None:
    if info != 0:
        raise np.linalg.LinAlgError(f"{routine} failed: info = {info}")


def _lapack_eigenpairs(routines, g: np.ndarray, k: int):
    """``(lam, zh)``: the ``k`` largest eigenpairs of the Hermitian ``g``, ascending.

    LAPACK reads the C-ordered ``g`` column-major, that is as ``g^T =
    conj(g)``, and uses its lower triangle: the C-ordered entries with
    column >= row, g's stored triangle. Nothing here reads or writes the
    other triangle, which may hold anything. ``zhetrd`` reduces it in place
    to a real tridiagonal T = Q^H conj(g) Q; ``dsterf`` takes all of T's
    eigenvalues by root-free QR, without vectors; ``zstein`` finds the
    vectors of the k largest by inverse iteration and ``zunmtr`` applies Q
    to them, through a workspace it is asked for first. They land as the
    rows of the C-ordered ``zh``, so ``zh = Z^H`` for eigenvectors Z of g.
    Beyond g's stored triangle plus the k eigenvectors, LAPACKE's
    workspaces and zunmtr's are O(side) or O(k).

    T is split where LAPACK's bisection ``dstebz`` splits it, at each e_j
    with e_j**2 below ulp**2 |d_j d_(j+1)| + safmin, and every block is
    solved on its own: ``zstein`` takes the eigenvalues grouped by block,
    ascending within each, and does not converge on a block that is in
    fact split (G = c I, say). ``g`` is first scaled by a power of two when
    its entries lie outside LAPACK's safe range for the eigensolvers,
    [sqrt(safmin / ulp), safmin**-0.25], where their squares would
    underflow or overflow.
    """
    zhetrd, dsterf, zstein, zunmtr = routines
    side = g.shape[0]
    peak = g.diagonal().real.max()  # the largest |g_ij|, since |g_ij|**2 <= g_ii g_jj
    scale = 2.0 ** -np.frexp(peak)[1] if 0 < peak < 2.0**-485 or peak > 2.0**255 else 1.0
    if scale != 1.0:
        for i in range(side):  # the stored triangle only: even a read of the other commits its pages
            g[i, i:] *= scale
    d, e, tau = np.empty(side), np.empty(side - 1), np.empty(side - 1, np.complex128)
    _check("zhetrd", zhetrd(_LAPACK_COL_MAJOR, b"L", side, g.ctypes.data, side, d.ctypes.data,
                            e.ctypes.data, tau.ctypes.data))
    ulp, safmin = np.finfo(np.float64).eps, np.finfo(np.float64).tiny
    split = e**2 < ulp**2 * np.abs(d[:-1] * d[1:]) + safmin
    isplit = np.append(np.flatnonzero(split) + 1, side).astype(np.int64)  # each block's last row, 1-based
    lam, off = d.copy(), e.copy()
    for first, last in zip([0, *isplit[:-1].tolist()], isplit.tolist()):
        _check("dsterf", dsterf(last - first, lam[first:].ctypes.data, off[first:].ctypes.data))
    block = np.repeat(np.arange(1, isplit.size + 1, dtype=np.int64), np.diff(isplit, prepend=0))
    chosen = np.sort(np.argsort(lam, kind="stable")[side - k:])  # by block, ascending in each
    w = np.zeros(side)  # LAPACKE checks all side entries of w for NaN
    w[:k] = lam[chosen]
    iblock, ifail = block[chosen], np.empty(k, np.int64)
    zh = np.empty((k, side), np.complex128)
    _check("zstein", zstein(_LAPACK_COL_MAJOR, side, d.ctypes.data, e.ctypes.data, k, w.ctypes.data,
                            iblock.ctypes.data, isplit.ctypes.data, zh.ctypes.data, side,
                            ifail.ctypes.data))
    args = (_LAPACK_COL_MAJOR, b"L", b"L", b"N", side, k, g.ctypes.data, side, tau.ctypes.data,
            zh.ctypes.data, side)
    query = np.empty(1, np.complex128)
    _check("zunmtr", zunmtr(*args, query.ctypes.data, -1))
    work = np.empty(int(query[0].real), np.complex128)
    _check("zunmtr", zunmtr(*args, work.ctypes.data, work.size))
    lam = w[:k] / scale
    if isplit.size > 1:  # the blocks' eigenvalues interleave
        order = np.argsort(lam, kind="stable")
        lam, zh = lam[order], zh[order]
    return lam, zh


def decompose(core, k: int) -> SubChannelDecomposition:
    """The ``k`` leading singular triplets of a channel H, or an error.

    ``core`` gives H in the form this route needs, never H itself. With A
    = H, or H^H when ``core.wide``: ``core.gram()`` is the Gram matrix of A
    compressed to a basis of its in side, over ``core.scale**2``, of which
    only the stored triangle is read: the entries with column >= row (a
    ``SpatialCore`` writes no others, to save their memory);
    ``core.lift(z)`` takes that basis's coordinates back to A's in side,
    for eigenvectors ``z`` with contiguous columns, in ``z``'s buffer when
    it can; and ``core.times(x)`` is ``A x / core.scale``. The link passes
    a :class:`~otfslink.channel.SpatialCore`; a dense matrix goes through
    :class:`otfslink.validation.DenseCore`, whose basis is the identity.

    The triplets come from the ``k`` leading eigenpairs ``(lambda, z)`` of
    the Gram matrix, by ``zhetrd``, ``dsterf``, ``zstein`` and ``zunmtr``
    from numpy's own OpenBLAS (by ``np.linalg.eigh`` when it does not
    export all four): ``sigma = sqrt(lambda)``, A's right singular vectors
    are ``lift(z)`` and its left ones ``times(lift(z)) / sigma``. The Gram
    matrix is freed before either is formed, so the decomposition's memory
    peaks at G's stored triangle plus the k eigenvectors (the ``eigh``
    fallback copies the whole square and all its eigenvectors). Factors
    are complex128.
    Raises :class:`RankDeficientChannelError` when fewer than ``k``
    eigenvalues lie above ``RANK_TOLERANCE**2 * lambda_max``, ``k`` above
    the side included, and ``ValueError`` when ``sigma_max * core.scale``
    exceeds the float range. LAPACK orders the eigenvalues, ties in a
    fixed order, so repeated runs order them identically.
    """
    g = np.ascontiguousarray(core.gram(), dtype=np.complex128)
    # |G_ij|**2 <= G_ii G_jj for a Gram matrix, so a finite diagonal means a finite G
    if g.ndim != 2 or g.size == 0 or g.shape[0] != g.shape[1] or not np.all(np.isfinite(g.diagonal())):
        raise ValueError(f"Gram matrix must be finite, square and non-empty, got shape {g.shape}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    # k above the side takes all the side's eigenpairs, so that the error names the rank
    computed = min(k, g.shape[0])
    routines = _gram_routines()
    if routines is not None:
        lam, zh = _lapack_eigenpairs(routines, g, computed)
    else:  # the same eigenpairs of the same triangle of the Gram matrix
        lam, z = np.linalg.eigh(g, UPLO="U")
        # C-ordered rows, as LAPACK's: each eigenvector contiguous, so core.lift works in place
        lam, zh = lam[-computed:], np.conjugate(z[:, -computed:].T, order="C")
    del g
    lam, zh = lam[::-1], zh[::-1]
    rank = int(np.count_nonzero(lam > RANK_TOLERANCE**2 * lam[0]))
    if rank < k:
        raise RankDeficientChannelError(f"channel rank {rank} cannot carry {k} streams")
    sigma = np.sqrt(lam)
    if sigma[0] > np.finfo(np.float64).max / max(core.scale, 1.0):
        raise ValueError(f"the largest singular value {sigma[0]:.3g} * {core.scale:.3g} overflows the float range")
    z = core.lift(np.conjugate(zh, out=zh).T)  # the eigenvectors, in zh's buffer, lifted
    del zh  # a lift into a new array frees the eigenvectors
    other = core.times(z)
    other /= sigma
    u, v = (z, other) if core.wide else (other, z)
    return SubChannelDecomposition(u=u, sigma=sigma * core.scale, v=v, rank=k)


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
    """The precoder/combiner pair of ``dec``'s ``n_rf * m * n`` triplets, in ``dec``'s own arrays.

    Takes ownership of ``dec``: ``g`` is the array ``dec.v`` and ``w`` is
    ``dec.u``. In ``dd_corrected`` mode C_T^H and C_R are folded into them
    in place, in :data:`_FOLD_BLOCKS` blocks of rows, so the pair costs no
    memory beyond the factors, the two dense ``k x k`` transforms and one
    block of scratch. Both are then left read-only, so that a held pair
    cannot change. One decomposition therefore yields one
    precoder/combiner: factors that are
    already read-only are refused with a ``ValueError``, and a second pair
    needs a copy of the decomposition. The factors must be complex128, as
    :func:`decompose` returns them.
    """
    if mode not in PRECODER_MODES:
        raise ValueError(f"mode must be one of {PRECODER_MODES}, got {mode!r}")
    for name, factor in (("u", dec.u), ("v", dec.v)):
        if not factor.flags.writeable:
            raise ValueError(
                f"factor {name} is read-only: the decomposition's factors are already used by a "
                f"precoder/combiner; build the next one from a copy of the decomposition"
            )
        if factor.dtype != np.complex128:
            raise ValueError(f"factor {name} must be complex128, got {factor.dtype}")
    if mode == "dd_corrected":
        c_t, c_r = dd_transform_matrices(n_rf, m, n)
        _fold(dec.v, np.conjugate(c_t, out=c_t).T)
        _fold(dec.u, c_r)
    for factor in (dec.u, dec.v):
        factor.flags.writeable = False
    return PrecoderCombiner(g=dec.v, w=dec.u)


# build_precoder_combiner folds a factor in this many blocks of rows, so its scratch is
# an eighth of the factor. One block as large as the factor left holes in the heap that
# raised the default sweep's peak RSS by 1 MiB; blocks of a few rows slow the products.
_FOLD_BLOCKS = 8


def _fold(x: np.ndarray, c: np.ndarray) -> None:
    """``x[:] = x @ c`` in place, for a square ``c``, a block of rows at a time."""
    for rows in np.array_split(x, _FOLD_BLOCKS):  # views of x
        rows[...] = rows @ c


def sub_channel_gains(dec: SubChannelDecomposition) -> np.ndarray:
    """The singular values of ``dec``, descending: the sub-channel gains."""
    return dec.sigma.copy()
