"""Delay-Doppler MIMO channel: path model, delay taps, spatial core, AWGN.

The channel is a superposition of L discrete propagation paths. Path i has
a complex gain, an integer delay tap l_i, an integer Doppler tap k_i and a
pair of azimuth angles (departure/arrival). Its time-domain contribution is

    gain_i * (a_rx(aoa_i) a_tx(aod_i)^H)  kron  (Pi^l_i  Delta^k_i)

where Pi is the MN x MN forward cyclic shift, Delta the diagonal
phase-rotation matrix diag{exp(j 2 pi q / MN)}, and a_tx/a_rx are
half-wavelength uniform-linear-array responses. Delays act as cyclic
shifts over one frame, i.e. the frame is treated as cyclically extended;
no explicit cyclic prefix is modeled.

The link carries its frames through the channel's taps, a slab of
antenna blocks per delay (:func:`build_time_channel`, :func:`apply_channel`),
and decomposes it through a :class:`SpatialCore` (:func:`spatial_core`):
H's paths, giving the Gram matrix of H's spatial core on its smaller side,
the lift of its eigenvectors to H's coordinates, and H's product with a
block of vectors, path by path. Neither the core nor H is formed.
:func:`sample_channel` draws a channel for a checked
:class:`~otfslink.link_sim.SimConfig`. The dense H, cyclic shift Pi and
core are test oracles and live in :mod:`otfslink.validation`.
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .link_sim import SimConfig


@dataclass(frozen=True)
class PathParams:
    """One propagation path: complex gain, integer taps, azimuth angles in radians."""

    gain: complex
    delay_tap: int
    doppler_tap: int
    aod: float
    aoa: float


def _is_integer(value) -> bool:
    """A Python or numpy integer; bools and floats, even integral ones, are not."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@dataclass(frozen=True)
class DdMimoChannel:
    """A set of paths plus antenna geometry; expandable to its delay taps."""

    paths: tuple[PathParams, ...]
    n_tx: int
    n_rx: int
    m_delay: int
    n_doppler: int

    def __post_init__(self):
        object.__setattr__(self, "paths", tuple(self.paths))
        if len(self.paths) < 1:
            raise ValueError("channel needs at least one path")
        for name in ("n_tx", "n_rx", "m_delay", "n_doppler"):
            if not _is_integer(getattr(self, name)):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        mn = self.mn
        for i, p in enumerate(self.paths):
            for name in ("delay_tap", "doppler_tap"):
                if not _is_integer(getattr(p, name)):
                    raise ValueError(f"path {i}: {name} must be an integer, got {getattr(p, name)!r}")
            if not (0 <= p.delay_tap < mn):
                raise ValueError(f"path {i}: delay_tap {p.delay_tap} outside [0, {mn})")
            if not (abs(p.doppler_tap) < mn):
                raise ValueError(f"path {i}: |doppler_tap| {abs(p.doppler_tap)} must be < {mn}")
            if not np.isfinite(p.gain):
                raise ValueError(f"path {i}: gain must be finite")
            for name in ("aod", "aoa"):
                if not np.isfinite(getattr(p, name)):
                    raise ValueError(f"path {i}: {name} must be finite, got {getattr(p, name)}")

    @property
    def mn(self) -> int:
        return self.m_delay * self.n_doppler


def ula_response(angle: float, n_antennas: int) -> np.ndarray:
    """Half-wavelength uniform linear array response, unit L2 norm.

    Element a is ``exp(j pi a cos(angle)) / sqrt(n_antennas)``; ``angle`` is
    the azimuth in radians measured from the array axis (pi/2 = broadside).
    """
    if n_antennas < 1:
        raise ValueError(f"n_antennas must be >= 1, got {n_antennas}")
    a = np.arange(n_antennas)
    return np.exp(1j * np.pi * a * np.cos(angle)) / np.sqrt(n_antennas)


def phase_rotation_matrix(size: int, power: int) -> np.ndarray:
    """Diagonal phase rotation to the given power: diag{exp(j 2 pi q power / size)}."""
    if size < 1:
        raise ValueError(f"size must be >= 1, got {size}")
    q = np.arange(size)
    return np.diag(np.exp(2j * np.pi * q * power / size))


# Most entries of the per-pair s x s blocks SpatialCore.gram holds at once: it
# sums the path pairs in row blocks of as many paths as keep paths * s**2 *
# rows within this bound, so its memory does not grow with paths**2.
_GRAM_CHUNK_ENTRIES = 2**16


def _delay_slabs(mn: int, gains, blocks: np.ndarray, delays, dopplers):
    """Yield ``(l, slab)`` per distinct delay l of ``sum_i gains[i] blocks[i] kron (Pi^delays[i] Delta^dopplers[i])``.

    ``Pi^l Delta^k`` has one nonzero per column q, ``exp(j 2 pi k q / MN)``
    at row ``(q + l) mod MN``, so ``slab[q]`` sums, in order, the terms of
    delay l at column q of every ``n_r x n_t`` block: O(n_r*n_t*MN) work per
    term instead of a Kronecker product's O(n_r*n_t*MN^2). Each distinct
    Doppler tap's phases are taken once, for all its terms.
    """
    n_r, n_t = blocks.shape[1:]
    taps, tap_of = np.unique(dopplers, return_inverse=True)
    rotations = np.empty((taps.size, mn), dtype=complex)
    for rotation, tap in zip(rotations, taps):  # each dense matrix is freed before the next
        rotation[:] = np.diagonal(phase_rotation_matrix(mn, tap))
    for delay in np.unique(delays):
        slab = np.zeros((mn, n_r, n_t), dtype=complex)
        for i in np.flatnonzero(delays == delay):
            slab += (gains[i] * rotations[tap_of[i]])[:, None, None] * blocks[i]
        yield delay, slab


# _path_sum puts a matrix of more bytes than this in a fresh anonymous mapping,
# whose pages are committed only where they are written. glibc's heap keeps
# freed blocks of up to 32 MiB (its largest dynamic mmap threshold on 64-bit
# hosts) for reuse, so a smaller matrix from np.zeros mostly lands on pages the
# process already holds. For the 4 MiB Gram matrix of 8x8 antennas on an 8x8
# grid, a mapping cost 3200 page faults per sweep of perfbench's snr_default
# workload, 6% of its time, and raised its peak RSS by 0.8 MiB: glibc, no
# longer seeing the matrix, kept a lower trim threshold and so returned and
# refetched heap pages more often.
_GRAM_MAPPING_BYTES = 2**25


def _path_sum(mn: int, gains, blocks: np.ndarray, delays, dopplers) -> np.ndarray:
    """The stored triangle of the :func:`_delay_slabs` sum of square blocks, as an ``(n*MN, n*MN)`` matrix.

    Only the entries with column >= row are written, the triangle LAPACK
    reads of a C-ordered Hermitian matrix (see
    :func:`~otfslink.precoding.decompose`); the others read zero.
    ``delays`` lie in ``[0, MN)``. A matrix above
    :data:`_GRAM_MAPPING_BYTES` lives in a fresh anonymous mapping, so the
    other triangle's pages, about half the matrix, are never committed.
    ``np.zeros`` would not do there: numpy advises huge pages for large
    arrays, and each 2 MiB page spans both triangles.
    """
    n = blocks.shape[1]
    side = n * mn
    nbytes = side * side * np.dtype(complex).itemsize
    out = (np.frombuffer(mmap.mmap(-1, nbytes), dtype=complex) if nbytes > _GRAM_MAPPING_BYTES
           else np.zeros(side * side, dtype=complex))
    q = np.arange(mn)[:, None, None]
    block = np.arange(n)
    col = block * mn + q  # slab entry [q, r, t] lies in column t*MN + q
    for delay, slab in _delay_slabs(mn, gains, blocks, delays, dopplers):
        row = block[:, None] * mn + (q + delay) % mn  # and in row r*MN + (q + delay) mod MN
        stored = col >= row
        out[(row * side + col)[stored]] = slab[stored]
    return out.reshape(side, side)


def _array_matrices(chan: DdMimoChannel) -> tuple[np.ndarray, np.ndarray]:
    """The ``n_rx x L`` and ``n_tx x L`` ULA responses, one column per path."""
    a_rx = np.column_stack([ula_response(p.aoa, chan.n_rx) for p in chan.paths])
    a_tx = np.column_stack([ula_response(p.aod, chan.n_tx) for p in chan.paths])
    return a_rx, a_tx


def _taps(chan: DdMimoChannel) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gains, delay taps and Doppler taps of the paths, as arrays."""
    gains = np.array([p.gain for p in chan.paths], dtype=complex)
    return gains, np.array([p.delay_tap for p in chan.paths]), np.array([p.doppler_tap for p in chan.paths])


def build_time_channel(chan: DdMimoChannel) -> np.ndarray:
    """The channel's time-varying impulse response: one ``(MN, n_rx, n_tx)`` slab per delay.

    Entry ``[d, q, r, t]`` carries transmit antenna t's sample q to receive
    antenna r's sample ``(q + d) mod MN``: the sum over the paths of delay
    tap d of ``gain * a_rx[r] * conj(a_tx[t]) * exp(j 2 pi k q / MN)``. The
    delays run up to the largest tap, so the slabs, at most MN, hold every
    nonzero of the dense H that :func:`otfslink.validation.dense_time_channel` expands.
    """
    a_rx, a_tx = _array_matrices(chan)
    gains, delays, dopplers = _taps(chan)
    spatial = a_rx.T[:, :, None] * a_tx.T.conj()[:, None, :]  # path i: a_rx,i a_tx,i^H
    h = np.zeros((delays.max() + 1, chan.mn, chan.n_rx, chan.n_tx), dtype=complex)
    for delay, slab in _delay_slabs(chan.mn, gains, spatial, delays, dopplers):
        h[delay] = slab
    return h


# SpatialCore.lift overwrites the eigenvectors in this many blocks, as precoding._FOLD_BLOCKS,
# and SpatialCore.times keeps each column block's temporaries to about this fraction of its result.
_LIFT_BLOCKS = 8


@dataclass(frozen=True, eq=False)
class SpatialCore:
    """A channel H kept as the path sum it is, in the form :func:`~otfslink.precoding.decompose` takes.

    ``H = scale * sum_i gains[i] (a_out[:, i] a_in[:, i]^H) kron (Pi^l_i
    Delta^k_i)`` unless ``wide``; then these fields describe H^H, which is
    again a path sum: ``(Pi^l Delta^k)^H = w^(kl) Pi^(-l) Delta^(-k)``
    with ``w = exp(j 2 pi / MN)``, so path i moves to taps ``(-l_i mod MN,
    -k_i)`` with gain ``conj(gain_i) w^(k_i l_i)`` and the two array
    responses swap sides. Either way the fields describe a matrix A, H or
    H^H, whose in side is the Gram side.

    ``a_in = q_in r_in`` is the reduced QR factorization of the in side's
    ``n x L`` array responses, so A's right singular vectors of nonzero
    singular value lie in the span of ``q_in kron I_MN``, whose
    ``min(n, L)*MN`` columns are orthonormal. The Gram side is the side
    where that count is the smaller (the transmit side on a tie), and
    ``wide`` says it is the receive side. The decomposition takes those
    vectors from the eigenvectors of :meth:`gram`, lifted by :meth:`lift`,
    and the left ones from :meth:`times`.

    ``scale`` is half the smallest power of two above the largest real or
    imaginary part of a gain, so it is finite for every finite gain, and
    ``gains`` are the path gains divided by it, which is exact: no scaled
    part reaches 2, so the Gram matrix of a finite channel can neither
    overflow nor lose its leading digits to underflow.
    """

    a_out: np.ndarray
    a_in: np.ndarray
    q_in: np.ndarray
    r_in: np.ndarray
    gains: np.ndarray
    delays: np.ndarray
    dopplers: np.ndarray
    mn: int
    scale: float
    wide: bool

    @property
    def side(self) -> int:
        """Size of the Gram matrix: ``min(n_rx, n_tx, L)*MN``."""
        return self.r_in.shape[0] * self.mn

    def gram(self) -> np.ndarray:
        """``(q_in kron I)^H A^H A (q_in kron I) / scale**2``: A's Gram matrix on the Gram side.

        With ``r_i`` the columns of ``r_in`` and ``o_i`` those of ``a_out``,
        it is ``sum_(i,j) conj(g_i) g_j (o_i^H o_j) (r_i r_j^H) kron
        Delta^(-k_i) Pi^(l_j - l_i) Delta^(k_j)``, and ``Delta^(-k_i) Pi^d
        Delta^(k_j) = w^(-k_i d) Pi^d Delta^(k_j - k_i)``. Path pairs with
        equal ``(l_j - l_i, k_j - k_i)`` modulo MN share one
        ``side/MN``-square block, so the Gram matrix is one
        :func:`_path_sum` of at most ``min(L**2, MN**2,
        (2*max_delay_tap + 1)*(4*max_doppler_tap + 1))`` terms, whose blocks
        together hold no more entries than the Gram matrix. The pairs are
        summed into the blocks a few rows of paths at a time, at most
        :data:`_GRAM_CHUNK_ENTRIES` pair entries at once.

        Only G's stored triangle is written, the entries with column >= row
        that :func:`~otfslink.precoding.decompose` reads; the strictly lower
        triangle reads zero. Above 32 MiB that triangle's pages are never
        committed (see :func:`_path_sum`), so G costs about half its size
        in memory.
        """
        mn, g, l, k = self.mn, self.gains, self.delays, self.dopplers
        n_in = self.r_in.T  # row i: path i's column of r_in
        paths, s = n_in.shape
        step = max(1, _GRAM_CHUNK_ENTRIES // (paths * s * s))
        rows = [slice(start, start + step) for start in range(0, paths, step)]

        def pair_taps(i):
            # (d, k_j - k_i) mod MN as one key: Pi, Delta and w^(-k_i d) have period MN
            return (l[None, :] - l[i, None]) % mn * mn + (k[None, :] - k[i, None]) % mn

        taps = np.unique(np.concatenate([np.unique(pair_taps(i)) for i in rows]))
        blocks = np.zeros((taps.size, s, s), dtype=complex)
        for i in rows:
            keys = pair_taps(i)
            weight = (g[i].conj()[:, None] * g[None, :] * (self.a_out[:, i].conj().T @ self.a_out)
                      * np.exp(-2j * np.pi * ((k[i, None] * (keys // mn)) % mn) / mn))
            outer = weight[:, :, None, None] * n_in[i, None, :, None] * n_in.conj()[None, :, None, :]
            np.add.at(blocks, np.searchsorted(taps, keys).ravel(), outer.reshape(-1, s, s))
        return _path_sum(mn, np.ones(taps.size), blocks, taps // mn, taps % mn)

    def lift(self, z: np.ndarray) -> np.ndarray:
        """``(q_in kron I_MN) z`` for the ``(side, k)`` eigenvectors ``z`` of :meth:`gram`.

        Every column of ``z`` must be contiguous, as the eigenvectors
        :func:`~otfslink.precoding.decompose` takes are: each is a
        ``(min(n, L), MN)`` slab, a row of ``z.T``, that ``q_in`` multiplies
        from the left. When ``q_in`` is square (no more antennas than paths
        on the Gram side) the product overwrites ``z`` in
        :data:`_LIFT_BLOCKS` blocks, through scratch the size of one, and
        ``z`` is returned; otherwise the result is one new array.
        """
        if z.strides[0] != z.itemsize:  # else the slabs below are a copy, and writes to them are lost
            raise ValueError(f"the columns of z must be contiguous, got strides {z.strides}")
        n, r = self.q_in.shape
        k = z.shape[1]
        slabs = z.T.reshape(k, r, self.mn)  # a view: each row of z.T is contiguous
        if n != r:
            return (self.q_in @ slabs).reshape(k, -1).T
        for block in np.array_split(slabs, _LIFT_BLOCKS):  # views of z
            block[...] = self.q_in @ block
        return z

    def times(self, x: np.ndarray) -> np.ndarray:
        """``A x / scale`` for the ``(n_in*MN, k)`` array ``x``: ``H x``, or ``H^H x`` when ``wide``.

        One product with ``a_in^H`` takes x to one ``MN x k`` slab per path,
        each path shifts and rotates its slab, and one product with
        ``a_out`` sums the paths into A's row space. The slabs of all
        paths would outgrow the result once there are more paths than
        ``a_out`` has rows, so the columns go through in blocks whose slabs
        and products each hold about a :data:`_LIFT_BLOCKS`-th of the
        result's entries.
        """
        mn = self.mn
        n_out = self.a_out.shape[0]
        out = np.empty((n_out * mn, x.shape[1]), dtype=complex)
        step = max(1, n_out * x.shape[1] // (max(self.gains.size, n_out) * _LIFT_BLOCKS))
        q = np.arange(mn)
        phases = self.gains[:, None] * np.exp(2j * np.pi * ((self.dopplers[:, None] * q) % mn) / mn)
        for start in range(0, x.shape[1], step):
            out[:, start:start + step] = self._times_block(x[:, start:start + step], phases)
        return out

    def _times_block(self, block: np.ndarray, phases: np.ndarray) -> np.ndarray:
        """One column block of :meth:`times`; its slabs are freed on return."""
        mn, paths, cols = self.mn, self.gains.size, block.shape[1]
        slabs = (self.a_in.conj().T @ block.reshape(self.a_in.shape[0], mn * cols)).reshape(paths, mn, cols)
        shifted = np.empty_like(slabs)
        for i, delay in enumerate(self.delays):
            # row q of the slab, times its phase, lands on row (q + delay) mod MN
            cut = mn - delay
            np.multiply(slabs[i, :cut], phases[i, :cut, None], out=shifted[i, delay:])
            np.multiply(slabs[i, cut:], phases[i, cut:, None], out=shifted[i, :delay])
        return (self.a_out @ shifted.reshape(paths, mn * cols)).reshape(-1, cols)


def spatial_core(chan: DdMimoChannel) -> SpatialCore:
    """``chan`` as the :class:`SpatialCore` through which :func:`~otfslink.precoding.decompose` takes H's SVD.

    With ``A_rx = Q_rx R_rx`` and ``A_tx = Q_tx R_tx`` the reduced QR
    factorizations of the ``n x L`` array matrices, the spatial factor
    ``a_rx,i a_tx,i^H`` of path i is ``Q_rx r_rx,i r_tx,i^H Q_tx^H``, so
    ``H = (Q_rx kron I_MN) C (Q_tx kron I_MN)^H`` exactly, with C the path
    sum of H with the columns of R in place of the array responses. C is
    ``min(n_rx, L)*MN x min(n_tx, L)*MN``: smaller than H when an array has
    more antennas than the channel has paths, H's size otherwise, and it
    shares H's nonzero singular values. The core's Gram matrix is C's on
    its smaller side, so only that side's Q and R are kept; neither C nor
    the other side's Q is formed.
    """
    a_rx, a_tx = _array_matrices(chan)
    gains, delays, dopplers = _taps(chan)
    # the parts, not |gain|: |gain| overflows for parts near the largest float
    peak = float(np.max(np.abs(gains.view(float))))
    scale = 2.0 ** (np.frexp(peak)[1] - 1) if peak > 0 else 1.0
    gains = gains / scale
    mn = chan.mn
    paths = len(chan.paths)
    wide = min(chan.n_rx, paths) < min(chan.n_tx, paths)
    a_out, a_in = a_rx, a_tx
    if wide:
        gains = gains.conj() * np.exp(2j * np.pi * ((dopplers * delays) % mn) / mn)
        delays, dopplers = -delays % mn, -dopplers
        a_out, a_in = a_tx, a_rx
    q_in, r_in = np.linalg.qr(a_in)
    return SpatialCore(a_out=a_out, a_in=a_in, q_in=q_in, r_in=r_in, gains=gains, delays=delays,
                       dopplers=dopplers, mn=mn, scale=scale, wide=wide)


def sample_channel(cfg: SimConfig, rng=None) -> DdMimoChannel:
    """Draw one random channel realization for the link config ``cfg``.

    ``cfg`` supplies the array sizes, the ``m_delay x n_doppler`` grid,
    ``n_paths`` and the tap bounds, all checked by
    :class:`~otfslink.link_sim.SimConfig`; its other fields are not read.
    Gains are standard circular complex Gaussian, delay taps uniform on
    {0..max_delay_tap}, Doppler taps uniform on the symmetric range
    {-max_doppler_tap..max_doppler_tap}, angles uniform on [0, pi].
    Deterministic for a given integer seed.
    """
    rng = np.random.default_rng(rng)
    n = cfg.n_paths
    gains = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2.0)
    delays = rng.integers(0, cfg.max_delay_tap + 1, size=n)
    dopplers = rng.integers(-cfg.max_doppler_tap, cfg.max_doppler_tap + 1, size=n)
    aods = rng.uniform(0.0, np.pi, size=n)
    aoas = rng.uniform(0.0, np.pi, size=n)
    paths = tuple(
        PathParams(gain=complex(g), delay_tap=int(l), doppler_tap=int(k), aod=float(aod), aoa=float(aoa))
        for g, l, k, aod, aoa in zip(gains, delays, dopplers, aods, aoas)
    )
    return DdMimoChannel(paths=paths, n_tx=cfg.n_tx, n_rx=cfg.n_rx, m_delay=cfg.m_delay, n_doppler=cfg.n_doppler)


def apply_channel(h: np.ndarray, y: np.ndarray, noise_var: float, rng=None) -> np.ndarray:
    """Apply the taps ``h`` of :func:`build_time_channel` to each frame, plus circular complex Gaussian noise.

    ``y`` is one frame or a ``(frames, n_tx*MN)`` array, frames on the
    leading axis, antenna by antenna, and ``r = H y + n`` has its layout.
    Each delay is one batched product over the MN samples. ``noise_var`` is
    the total per-complex-component variance (``noise_var/2`` per part); 0
    gives the exact product. Each frame draws its real, then its imaginary
    parts, so ``rng`` is consumed exactly as by one call per frame.
    """
    h, y = np.asarray(h), np.asarray(y)
    if h.ndim != 4 or y.ndim not in (1, 2) or y.shape[-1] != h.shape[1] * h.shape[3]:
        raise ValueError(f"signal shape {y.shape} incompatible with channel taps of shape {h.shape}")
    if not 0 <= noise_var < np.inf:  # also rejects NaN
        raise ValueError(f"noise_var must be finite and >= 0, got {noise_var}")
    mn, n_rx, n_tx = h.shape[1:]
    frames = np.ascontiguousarray(y.reshape(-1, n_tx, mn).transpose(2, 1, 0))  # (MN, n_tx, frames)
    r = np.zeros((mn, n_rx, frames.shape[2]), dtype=complex)
    for d, slabs in enumerate(h):
        product = slabs @ frames  # sample q of each frame lands on sample (q + d) mod MN
        r[d:] += product[:mn - d]
        r[:d] += product[mn - d:]
    r = r.transpose(2, 1, 0).reshape(y.shape[:-1] + (n_rx * mn,))
    if noise_var > 0:
        rng = np.random.default_rng(rng)
        z = rng.standard_normal(r.shape[:-1] + (2, r.shape[-1]))
        r = r + (z[..., 0, :] + 1j * z[..., 1, :]) * np.sqrt(noise_var / 2.0)
    return r
