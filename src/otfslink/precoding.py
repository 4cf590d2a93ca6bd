"""SVD sub-channel decomposition and precoder/combiner construction.

An SVD of the time-domain channel turns the MIMO-OTFS link into parallel
scalar sub-channels whose gains are the singular values. A link of
``n_rf`` chains on an (M, N) grid uses exactly k = n_rf*M*N of them and
needs a channel of rank >= k. :func:`decompose` owns that rule: it
returns exactly the k leading triplets of H, or raises
:class:`RankDeficientChannelError`. It takes them from the leading
eigenpairs of the Gram matrix of H's spatial core on its smaller side
(:class:`otfslink.channel.SpatialCore`): LAPACK's tridiagonal reduction,
all eigenvalues of the tridiagonal without vectors, real vectors for the
k largest only, and the back-transform that takes them to G's
coordinates. On a square G the reduction's reflectors move into compact
blocks, which hand G's rows back as they are copied, and the
back-transform hands each block back as it spends it.
Neither the core nor H is formed: the channel module describes that
Gram matrix by delay slabs summed from the path pairs and applies the
core path by path, and the triplets stay in the core's bases, whose
``min(n, L)*MN`` rows per side carry all of H's nonzero singular vectors.
:func:`gram_matrix` writes the slabs into the storage of one allocator,
:func:`gram_zeros`, which keeps only G's stored triangle, in the layout
its size and the route select. It is packed up to a side of 896,
reduced by ``zhptrd``, and a square above it, reduced by the blocked
``zhetrd``, each the faster there; ``np.linalg.eigh``, the fallback
where numpy's OpenBLAS lacks those routines, gets that square at any size.
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

import collections
import functools
import mmap
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import _fields
from .dd_transforms import dft_matrix

PRECODER_MODES = ("dd_corrected", "paper_literal")

# Singular values below RANK_TOLERANCE * sigma_max count as zero. decompose takes
# them from a Gram matrix, whose eigenvalues carry rounding of about
# side * eps * sigma_max**2, so it resolves sigma / sigma_max only down to
# about sqrt(side * eps), 5e-7 at side 2048.
RANK_TOLERANCE = 1e-6

# The LAPACKE routines of decompose's eigenpair route, with 64-bit integers,
# under the names the OpenBLAS builds that numpy ships export them by: the
# reduction of a square Gram matrix (zhetrd) and of a packed one (zhptrd), the
# tridiagonal solvers both share (dsterf for the eigenvalues, dstein for the
# real vectors), and the back-transforms: zunmqr applies a square's reflectors
# block by block (see _BACK_TRANSFORM_CHUNK) and zupmtr a packed one's at once.
# Both are taken in their _work form, which leaves the workspace to the caller
# and skips LAPACKE's NaN scan of the whole rectangle of reflectors, whose
# entries above each reflector's start LAPACK itself never reads.
_LAPACKE_SYMBOLS = {
    name: (f"scipy_LAPACKE_{symbol}64_", f"LAPACKE_{symbol}64_")
    for name, symbol in (("zhetrd", "zhetrd"), ("zhptrd", "zhptrd"), ("dsterf", "dsterf"),
                         ("dstein", "dstein"), ("zunmqr", "zunmqr_work"), ("zupmtr", "zupmtr_work"))
}
_Routines = collections.namedtuple("_Routines", list(_LAPACKE_SYMBOLS))
_LAPACK_COL_MAJOR = 102


# decompose packs a Gram matrix whose square would take at most this many bytes,
# 896**2 complex entries (12.25 MiB), and puts a larger one in a fresh private
# mapping as a square. On a 2-core x86 host with 2 BLAS threads, LAPACK's packed
# reduction and back-transform, zhptrd and zupmtr, took 0.82 to 0.89 of the time
# of the blocked square pair, zhetrd and zunmtr, at sides 256 to 768, tied with
# it at 832 and 896 and lost beyond (1.03 at 960, 1.13 at 1152; k = side/4).
_GRAM_MAPPING_BYTES = 896**2 * 16

# The square route moves its Gram matrix's reflectors into compact blocks of this
# many (see _reflector_blocks) and applies each block by one zunmqr call (see
# _apply_reflectors). It must be a multiple of zunmqr's block of 32 reflectors, so
# that the chunks apply the blocks a single call would, and above 32: zunmqr
# applies 32 or fewer reflectors unblocked, by zunm2r, which rounds otherwise (a
# chunk of 32 moved grid16's ser).
_BACK_TRANSFORM_CHUNK = 64


def _mapped_zeros(count: int) -> np.ndarray:
    """``count`` complex zeros in a fresh anonymous mapping, whose pages are committed only where written.

    The mapping is private, so a read of a page never written maps the
    shared zero page and commits nothing (a shared mapping commits a page
    on a read too), and it asks for small pages where the host allows, so
    no 2 MiB page spans both triangles of a Gram matrix.
    """
    buffer = mmap.mmap(-1, count * np.dtype(complex).itemsize, flags=mmap.MAP_PRIVATE)
    if hasattr(mmap, "MADV_NOHUGEPAGE"):
        buffer.madvise(mmap.MADV_NOHUGEPAGE)
    return np.frombuffer(buffer, dtype=complex)


def gram_zeros(side: int) -> tuple[np.ndarray, np.ndarray]:
    """``(g, offsets)``: zeros for the stored triangle of a ``side``-square Hermitian matrix, and its row offsets.

    Entry ``(r, c)``, ``c >= r``, lies at ``g[offsets[r] + c]`` of the flat
    ``g``: the C-ordered entries with column >= row, the triangle LAPACK
    reads (see :func:`_lapack_eigenpairs`). Up to
    :data:`_GRAM_MAPPING_BYTES` of square they are packed, row after row,
    ``side*(side+1)/2`` entries: LAPACK's lower packed storage. A larger
    matrix is a square in a fresh private mapping (:func:`_mapped_zeros`),
    whose other triangle's pages, about half the matrix, are never
    committed (``np.zeros`` would advise huge pages, each spanning both
    triangles). Where :func:`_gram_routines` finds no LAPACK routines, it
    is that mapped square at any size, which ``np.linalg.eigh`` takes.
    """
    limit = _GRAM_MAPPING_BYTES if _gram_routines() is not None else 0  # eigh takes no packed matrix
    if side * side * np.dtype(complex).itemsize > limit:
        return _mapped_zeros(side * side), np.arange(side) * side
    g = np.zeros(side * (side + 1) // 2, dtype=complex)
    r = np.arange(side)
    return g, r * (2 * side - r - 1) // 2


def gram_matrix(core) -> tuple[np.ndarray, np.ndarray]:
    """``(g, offsets)`` of :func:`gram_zeros` for ``core``'s Gram matrix G, its stored triangle written.

    ``core.gram()`` gives G as ``(delay, slab)`` pairs, each slab of shape
    ``(mn, n, n)`` for ``n*mn = core.side``: entry ``[q, r, t]`` lies at row
    ``r*mn + (q + delay) mod mn`` and column ``t*mn + q``, as in the
    channel's delay taps. G is allocated once they are given, and only its
    entries with column >= row, the triangle LAPACK reads, are written.
    """
    mn, slabs = core.mn, core.gram()
    g, offsets = gram_zeros(core.side)
    q, block = np.arange(mn)[:, None, None], np.arange(core.side // mn)
    col = block * mn + q  # slab entry [q, r, t] lies in column t*MN + q
    for delay, slab in slabs:
        row = block[:, None] * mn + (q + delay) % mn  # and in row r*MN + (q + delay) mod MN
        stored = col >= row
        g[(offsets[row] + col)[stored]] = slab[stored]
    return g, offsets


class RankDeficientChannelError(ValueError):
    """The channel rank cannot support the requested number of streams."""


@dataclass(frozen=True)
class SubChannelDecomposition:
    """Leading SVD factors of a channel H, in the bases of the core it was decomposed through.

    With ``H = (Q_rx kron I) C (Q_tx kron I)^H`` for the core C,
    ``u`` (C's rows ``x k``) and ``v`` (C's columns ``x k``) are
    semi-unitary and hold C's leading singular vectors, ``C v = u
    diag(sigma)``, and ``(Q_rx kron I) u`` and ``(Q_tx kron I) v`` are H's;
    the core's ``q_rx`` and ``q_tx`` are those bases, None for the identity
    (a :class:`~otfslink.validation.DenseCore`'s on both sides).
    ``sigma`` holds the singular values in descending order.
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
    """Semi-unitary precoder ``g`` and combiner ``w`` for one channel, in its core's bases.

    Like the :class:`SubChannelDecomposition` they are built from, ``g``
    has a row per transmit coordinate of the core and ``w`` one per receive
    coordinate: the link lifts its precoded frames by ``Q_tx kron I`` and
    projects what it receives by ``(Q_rx kron I)^H`` before combining, and
    skips either step on a side whose basis is the identity.
    """

    g: np.ndarray
    w: np.ndarray


@functools.cache
def _gram_routines():
    """The :data:`_LAPACKE_SYMBOLS` routines of the OpenBLAS numpy has loaded, as a ``_Routines``, or None.

    None when that library does not export them all. Only a library already
    in the process is opened (``RTLD_NOLOAD``), so the handle is numpy's own
    and no second BLAS, with its own thread pool, is ever loaded. Resolved on
    the first call, so importing the package does not pay for ``ctypes``.
    """
    import ctypes

    i64, ptr, enum, char = ctypes.c_int64, ctypes.c_void_p, ctypes.c_int, ctypes.c_char
    argtypes = {
        "zhetrd": [enum, char, i64, ptr, i64, ptr, ptr, ptr],  # layout, uplo, n, a, lda, d, e, tau
        "zhptrd": [enum, char, i64, ptr, ptr, ptr, ptr],  # layout, uplo, n, ap, d, e, tau
        "dsterf": [i64, ptr, ptr],  # n, d, e
        # layout, n, d, e, m, w, iblock, isplit, z, ldz, ifailv
        "dstein": [enum, i64, ptr, ptr, i64, ptr, ptr, ptr, ptr, i64, ptr],
        # layout, side, trans, m, n, k, a, lda, tau, c, ldc, work, lwork
        "zunmqr": [enum, char, char, i64, i64, i64, ptr, i64, ptr, ptr, i64, ptr, i64],
        # layout, side, uplo, trans, m, n, ap, tau, c, ldc, work
        "zupmtr": [enum, char, char, char, i64, i64, ptr, ptr, ptr, i64, ptr],
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
            return _Routines(*routines)
    return None


def _check(routine: str, info: int) -> None:
    if info != 0:
        raise np.linalg.LinAlgError(f"{routine} failed: info = {info}")


def _lapack_eigenpairs(routines, g: np.ndarray, offsets: np.ndarray, k: int):
    """``(lam, zh)``: the ``k`` largest eigenpairs of the Hermitian ``g``, ascending.

    ``g`` and ``offsets`` are a matrix's stored triangle in a layout of
    :func:`gram_zeros`. LAPACK reads the C-ordered matrix column-major,
    that is as ``g^T = conj(g)``, and uses its lower triangle: the
    C-ordered entries with column >= row, g's stored triangle. A square
    ``g`` holds it in place, and nothing here reads or writes the other
    triangle, which may hold anything, until the reflectors of its
    reduction move into compact blocks (:func:`_reflector_blocks`), which
    hands ``g``'s copied rows back to the host, both triangles' entries in
    their pages, to read as zeros; a packed ``g`` holds it in LAPACK's
    lower packed storage. Either way ``g`` is spent on return. ``zhetrd``
    (``zhptrd`` when packed) reduces it in place to a real tridiagonal T =
    Q^H conj(g) Q; ``dsterf`` takes all of T's eigenvalues by root-free QR,
    without vectors; ``dstein`` finds the vectors of the k largest by
    inverse iteration, real, as T is, and Q takes them to g's coordinates:
    ``zupmtr`` applies a packed g's Q at once, after the vectors are
    widened to complex, and ``zunmqr`` a square one's block by block,
    which widen the vectors as far as they reach and hand back the blocks
    they spent (:func:`_apply_reflectors`), each through a workspace it is
    asked for first. The vectors land as the rows of the C-ordered ``zh``,
    so ``zh = Z^H`` for eigenvectors Z of g: a square g's in a fresh
    private mapping (:func:`_mapped_zeros`), whose pages are committed as
    the vectors widen. Beyond g, or its blocks, plus the k eigenvectors,
    LAPACKE's workspaces and the back-transform's are O(side) or O(k)
    vectors; so on the square route the memory peaks at g's stored
    triangle or the blocks, about as many entries in fewer pages, plus
    the k vectors as reals, and about a chunk of them widened. ``zhptrd``
    is unblocked and ``zhetrd`` blocked, running part of its work as
    matrix products: the first is the faster up to a side of about 900,
    the second beyond (see :data:`_GRAM_MAPPING_BYTES`).

    T is split where LAPACK's bisection ``dstebz`` splits it, at each e_j
    with e_j**2 below ulp**2 |d_j d_(j+1)| + safmin, and every block is
    solved on its own: ``dstein`` takes the eigenvalues grouped by block,
    ascending within each, and does not converge on a block that is in
    fact split (G = c I, say). ``g`` is first scaled by a power of two when
    its entries lie outside LAPACK's safe range for the eigensolvers,
    [sqrt(safmin / ulp), safmin**-0.25], where their squares would
    underflow or overflow.
    """
    side = offsets.size
    packed = g.size == side * (side + 1) // 2  # one entry is both layouts, and holds no reflector to move
    peak = g[offsets + np.arange(side)].real.max()  # the largest |g_ij|, since |g_ij|**2 <= g_ii g_jj
    scale = 2.0 ** -np.frexp(peak)[1] if 0 < peak < 2.0**-485 or peak > 2.0**255 else 1.0
    if scale != 1.0:
        for r in range(side):  # the stored triangle only: even a read of the other commits its pages
            g[offsets[r] + r:offsets[r] + side] *= scale
    d, e, tau = np.empty(side), np.empty(side - 1), np.empty(side - 1, np.complex128)
    if packed:
        _check("zhptrd", routines.zhptrd(_LAPACK_COL_MAJOR, b"L", side, g.ctypes.data, d.ctypes.data,
                                         e.ctypes.data, tau.ctypes.data))
    else:
        _check("zhetrd", routines.zhetrd(_LAPACK_COL_MAJOR, b"L", side, g.ctypes.data, side, d.ctypes.data,
                                         e.ctypes.data, tau.ctypes.data))
        flat, blocks = _reflector_blocks(g, side)
    ulp, safmin = np.finfo(np.float64).eps, np.finfo(np.float64).tiny
    split = e**2 < ulp**2 * np.abs(d[:-1] * d[1:]) + safmin
    isplit = np.append(np.flatnonzero(split) + 1, side).astype(np.int64)  # each block's last row, 1-based
    lam, off = d.copy(), e.copy()
    for first, last in zip([0, *isplit[:-1].tolist()], isplit.tolist()):
        _check("dsterf", routines.dsterf(last - first, lam[first:].ctypes.data, off[first:].ctypes.data))
    block = np.repeat(np.arange(1, isplit.size + 1, dtype=np.int64), np.diff(isplit, prepend=0))
    chosen = np.sort(np.argsort(lam, kind="stable")[side - k:])  # by block, ascending in each
    w = np.zeros(side)  # LAPACKE checks all side entries of w for NaN
    w[:k] = lam[chosen]
    iblock, ifail = block[chosen], np.empty(k, np.int64)
    zh = np.empty((k, side), np.complex128) if packed else _mapped_zeros(k * side).reshape(k, side)
    # vector j lands, real, in the first half of zh's row j (ldz = 2*side), and is widened where it is needed
    _check("dstein", routines.dstein(_LAPACK_COL_MAJOR, side, d.ctypes.data, e.ctypes.data, k, w.ctypes.data,
                                     iblock.ctypes.data, isplit.ctypes.data, zh.ctypes.data, 2 * side,
                                     ifail.ctypes.data))
    if packed:
        _widen(zh, 0, side)
        work = np.empty(k, np.complex128)
        _check("zupmtr", routines.zupmtr(_LAPACK_COL_MAJOR, b"L", b"L", b"N", side, k, g.ctypes.data,
                                         tau.ctypes.data, zh.ctypes.data, side, work.ctypes.data))
    else:
        _apply_reflectors(routines, flat, blocks, tau, zh)
    lam = w[:k] / scale
    if isplit.size > 1:  # the blocks' eigenvalues interleave
        order = np.argsort(lam, kind="stable")
        lam, zh = lam[order], zh[order]
    return lam, zh


def _widen(zh: np.ndarray, start: int, stop: int) -> None:
    """Entries ``start:stop`` of every row of ``zh``, held as reals in the row's first half, become complex in place.

    Complex entry i takes the place of reals 2i and 2i + 1, so the entries
    ``stop`` and on must be complex already. Row by row, through a copy of
    the row's reals: one copy of them all, as numpy makes for an assignment
    between views whose rows interleave, raised ``grid16``'s peak RSS by 1.6 MiB.
    """
    for row, real in zip(zh, zh.view(np.float64)):
        row[start:stop] = real[start:stop].copy()


def _reflector_blocks(g: np.ndarray, side: int) -> tuple[np.ndarray, list]:
    """``(flat, blocks)``: the reflectors of ``zhetrd``'s reduction of the mapped square ``g``, in compact blocks.

    Reflector j lies in ``g``'s row j from column j + 1 on, in the stored
    triangle, which is all that is read here. Each chunk of
    :data:`_BACK_TRANSFORM_CHUNK` reflectors from ``start`` on (the last
    takes what is left) becomes one C-ordered block of shape ``(count,
    side - 1 - start)``: LAPACK's column-major trapezoid, with leading
    dimension ``side - 1 - start``, whose column c holds reflector ``start
    + c`` from entry c on. The entries before c are never written or read.
    The blocks lie in chunk order in ``flat``, one fresh private mapping
    (:func:`_mapped_zeros`). As each chunk is copied, ``g``'s pages before
    the next chunk's first row go back to the host, to read as zeros. The
    stored triangle shares each row's first page with the other triangle,
    so its pages hold more than its entries; the blocks waste only about
    ``_BACK_TRANSFORM_CHUNK * side / 2`` entries.
    """
    square, starts = g.reshape(side, side), range(0, side - 1, _BACK_TRANSFORM_CHUNK)
    shapes = [(min(_BACK_TRANSFORM_CHUNK, side - 1 - start), side - 1 - start) for start in starts]
    flat, mapping = _mapped_zeros(sum(count * rows for count, rows in shapes)), g.base.obj  # mmaps of _mapped_zeros
    blocks, offset, released = [], 0, 0
    for start, (count, rows) in zip(starts, shapes):
        block = flat[offset:offset + count * rows].reshape(count, rows)
        for c in range(count):
            block[c, c:] = square[start + c, start + c + 1:]
        blocks.append(block)
        offset += count * rows
        stop = start + count  # the next chunk's first row, or the last row, which holds no reflector
        copied = len(mapping) if stop == side - 1 else stop * side * g.itemsize // mmap.PAGESIZE * mmap.PAGESIZE
        if copied > released:
            mapping.madvise(mmap.MADV_DONTNEED, released, copied - released)
            released = copied
    return flat, blocks


def _apply_reflectors(routines, flat: np.ndarray, blocks: list, tau: np.ndarray, zh: np.ndarray) -> None:
    """``Q`` of a square's reduction, in :func:`_reflector_blocks`, applied in place to the real vectors in ``zh``'s rows.

    ``Q = H_0 H_1 ... H_(side-2)``, and reflector j acts only on a vector's
    entries j + 1 and on. So ``zunmqr`` applies each block in place, last
    first. The entries a block is about to touch are widened to complex
    first; once it is applied, the pages of ``flat`` from the first page
    boundary at or after the block's start go back to the host, to read as
    zeros. So the complex vectors grow into the memory the blocks hand back.
    """
    k, side = zh.shape
    entry, mapping = zh.itemsize, flat.base.obj  # the mmap of _mapped_zeros

    def call(block):  # a block's reflectors, and the vectors' entries they act on
        count, rows = block.shape
        start = side - 1 - rows
        return (_LAPACK_COL_MAJOR, b"L", b"N", rows, k, count, block.ctypes.data, rows,
                tau.ctypes.data + start * entry, zh.ctypes.data + (start + 1) * entry, side)

    query = np.empty(1, np.complex128)
    _check("zunmqr", routines.zunmqr(*call(blocks[0]), query.ctypes.data, -1))  # as large for every block
    work = np.empty(int(query[0].real), np.complex128)
    for block in reversed(blocks):
        count, rows = block.shape
        _widen(zh, side - rows, side - rows + count)
        _check("zunmqr", routines.zunmqr(*call(block), work.ctypes.data, work.size))
        spent = -(-(block.ctypes.data - flat.ctypes.data) // mmap.PAGESIZE) * mmap.PAGESIZE
        if spent < len(mapping):
            mapping.madvise(mmap.MADV_DONTNEED, spent)
    _widen(zh, 0, 1)  # entry 0, which no reflector touches


def decompose(core, k: int) -> SubChannelDecomposition:
    """The ``k`` leading singular triplets of a channel H's core, or an error.

    ``core`` gives H in the form this route needs, never H itself: a core C
    with ``A = (Q_out kron I) C (Q_in kron I)^H`` for A = H, or H^H when
    ``core.wide``, and Q of orthonormal columns, so that C shares A's
    nonzero singular values. ``core.gram()`` gives the Gram matrix G of C
    on its in side, over ``core.scale**2``, as the delay slabs
    :func:`gram_matrix` writes into the stored triangle :func:`gram_zeros`
    allocates; nothing else of it is read. So G's layout is the size's and
    the route's alone, whatever the core. ``core.times(x, out)`` is ``C x
    / core.scale``, written into ``out`` when it is given, an array of
    ``core.shape[0]`` (C's rows) by ``x``'s columns. The triplets are C's,
    in the core's bases, and none is lifted to H's coordinates: ``u`` has
    a row per receive coordinate of the core and ``v`` one per transmit
    coordinate, and the core's ``q_rx`` and ``q_tx`` take them to H's (see
    :class:`SubChannelDecomposition`). The link passes a
    :class:`~otfslink.channel.SpatialCore`, each of whose sides is
    compressed when it has more antennas than paths, so a factor holds
    ``min(n, L)*MN`` rows rather than ``n*MN``; a dense matrix goes through
    :class:`otfslink.validation.DenseCore`, whose bases are the identity.

    The triplets come from the ``k`` leading eigenpairs ``(lambda, z)`` of
    G, by ``zhptrd`` (``zhetrd`` for a square), ``dsterf``, ``dstein`` and
    ``zupmtr`` (``zunmqr``, block by block) from numpy's own OpenBLAS, or by
    ``np.linalg.eigh`` when it does not export them all: ``sigma =
    sqrt(lambda)``, C's right singular vectors are
    ``z`` and its left ones ``times(z) / sigma``; for a weak
    sub-channel those are orthonormal only to about ``eps * (sigma_max /
    sigma)**2`` (worst seen: 1.6e-12 in 1200 draws). G is freed
    before either is formed, so the decomposition's memory peaks at G's
    stored triangle, or the compact blocks its reflectors move into on the
    square route, plus the k eigenvectors, there as reals and about a
    chunk of them widened to complex, since the back-transform hands back
    each block as it spends it (see :func:`_lapack_eigenpairs`).
    There the eigenvectors and the other side's vectors live in fresh
    private mappings, as G does, so that no glibc heap grows to hold them
    and then stays. The ``eigh`` fallback copies the whole square and
    returns all its eigenvectors, so it takes several times the memory and
    more than twice the time.
    Factors are complex128.
    Raises :class:`RankDeficientChannelError` when fewer than ``k``
    eigenvalues lie above ``RANK_TOLERANCE**2 * lambda_max``, ``k`` above
    the side included, and ``ValueError`` naming ``k`` unless it is an
    integer >= 1, or when ``sigma_max * core.scale`` exceeds the float
    range, or when G is not finite or empty. LAPACK orders the eigenvalues,
    ties in a fixed order, so repeated runs order them identically.
    """
    k = _fields.integer("k", k, 1)
    g, offsets = gram_matrix(core)
    side = offsets.size
    # |G_ij|**2 <= G_ii G_jj for a Gram matrix, so a finite diagonal means a finite G
    if side == 0 or not np.all(np.isfinite(g[offsets + np.arange(side)])):
        raise ValueError(f"Gram matrix must be finite and non-empty, got side {side}")
    # k above the side takes all the side's eigenpairs, so that the error names the rank
    computed = min(k, side)
    packed, routines = g.size < side * side, _gram_routines()
    if routines is not None:
        lam, zh = _lapack_eigenpairs(routines, g, offsets, computed)
    else:  # the same eigenpairs of the same triangle of the Gram matrix
        lam, z = np.linalg.eigh(g.reshape(side, side), UPLO="U")
        # C-ordered rows, as LAPACK's, so both routes give factors of one layout
        lam, zh = lam[-computed:], np.conjugate(z[:, -computed:].T, order="C")
    del g
    lam, zh = lam[::-1], zh[::-1]
    rank = int(np.count_nonzero(lam > RANK_TOLERANCE**2 * lam[0]))
    if rank < k:
        raise RankDeficientChannelError(f"channel rank {rank} cannot carry {k} streams")
    sigma = np.sqrt(lam)
    if sigma[0] > np.finfo(np.float64).max / max(core.scale, 1.0):
        raise ValueError(f"the largest singular value {sigma[0]:.3g} * {core.scale:.3g} overflows the float range")
    z = np.conjugate(zh, out=zh).T  # the eigenvectors, in zh's buffer
    rows = core.shape[0]
    other = core.times(z, out=None if packed else _mapped_zeros(rows * computed).reshape(rows, computed))
    other /= sigma
    u, v = (z, other) if core.wide else (other, z)
    return SubChannelDecomposition(u=u, sigma=sigma * core.scale, v=v, rank=k)


def dd_transform_matrices(n_rf: int, m: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Dense stacked DD transforms (C_T, C_R) for n_rf chains of an (m, n) grid.

    ``dft_matrix`` is exactly symmetric, so C_T = I kron (F_N^H kron I_M) is ``conj(C_R)``.
    Each size is an integer >= 1; an error names the argument.
    """
    n_rf, m, n = (_fields.integer(name, value, 1) for name, value in (("n_rf", n_rf), ("m", m), ("n", n)))
    c_r = np.kron(np.eye(n_rf), np.kron(dft_matrix(n), np.eye(m)))
    return np.conj(c_r), c_r


def build_precoder_combiner(dec: SubChannelDecomposition, m: int, n: int, mode: str = "dd_corrected") -> PrecoderCombiner:
    """The precoder/combiner pair of ``dec``'s triplets, ``m*n`` per RF chain, in ``dec``'s own arrays.

    Takes ownership of ``dec``: ``g`` is the array ``dec.v`` and ``w`` is
    ``dec.u``, so both stay in the core's bases (see
    :class:`PrecoderCombiner`). They must be equally wide, a multiple of ``m*n`` for
    integers ``m, n >= 1`` (an error names the argument). In
    ``dd_corrected`` mode C_T^H and C_R are folded into them in place: both
    are ``I_{n_rf} kron (F_N kron I_M)`` (one chain's C_T^H equals its C_R
    exactly, entry for entry), so each chain's ``m*n`` columns are
    multiplied by one chain's C_R, in :data:`_FOLD_BLOCKS` blocks of rows.
    The pair costs no memory beyond the factors, one chain's dense ``mn x
    mn`` transforms and one block of scratch. Both are then left read-only,
    so that a held pair cannot change. One decomposition therefore yields
    one precoder/combiner: factors that are already read-only are refused
    with a ``ValueError``, and a second pair needs a copy of the
    decomposition. The factors must be complex128, as :func:`decompose`
    returns them.
    """
    if mode not in PRECODER_MODES:
        raise ValueError(f"mode must be one of {PRECODER_MODES}, got {mode!r}")
    m, n = _fields.integer("m", m, 1), _fields.integer("n", n, 1)
    (_, u_width), (_, v_width) = dec.u.shape, dec.v.shape
    if u_width != v_width or u_width % (m * n):
        raise ValueError(f"factors u and v have {u_width} and {v_width} columns; both need the same number, "
                         f"a multiple of m*n, got (m, n) = {(m, n)}")
    for name, factor in (("u", dec.u), ("v", dec.v)):
        if not factor.flags.writeable:
            raise ValueError(
                f"factor {name} is read-only: the decomposition's factors are already used by a "
                f"precoder/combiner; build the next one from a copy of the decomposition"
            )
        if factor.dtype != np.complex128:
            raise ValueError(f"factor {name} must be complex128, got {factor.dtype}")
    if mode == "dd_corrected":
        c_r = dd_transform_matrices(1, m, n)[1]
        _fold(dec.v, c_r)
        _fold(dec.u, c_r)
    for factor in (dec.u, dec.v):
        factor.flags.writeable = False
    return PrecoderCombiner(g=dec.v, w=dec.u)


# build_precoder_combiner folds a factor in this many blocks of rows, so its scratch is
# an eighth of the factor. One block as large as the factor left holes in the heap that
# raised the default sweep's peak RSS by 1 MiB; blocks of a few rows slow the products.
_FOLD_BLOCKS = 8


def _fold(x: np.ndarray, c: np.ndarray) -> None:
    """``x[:] = x @ (I kron c)`` in place, for a square ``c``: each block of ``c``'s size of columns times ``c``."""
    size = c.shape[0]
    for rows in np.array_split(x, _FOLD_BLOCKS):  # views of x
        for start in range(0, x.shape[1], size):
            chain = rows[:, start:start + size]
            chain[...] = chain @ c


def sub_channel_gains(dec: SubChannelDecomposition) -> np.ndarray:
    """The singular values of ``dec``, descending: the sub-channel gains."""
    return dec.sigma.copy()
