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
H's paths, describing the Gram matrix of H's spatial core on its smaller
side as one slab per delay, the core's product with a block of vectors,
path by path, and the core's bases, which take its coordinates to H's.
Neither the core nor H is formed. The Gram matrix itself, its storage
and its layout belong to :func:`~otfslink.precoding.gram_matrix`, which
writes the slabs into it.
:func:`sample_channel` draws a channel for a checked
:class:`~otfslink.link_sim.SimConfig`. :class:`DdMimoChannel` checks its
sizes and taps by the configs' integer rule, and its paths' gains and
angles by the finite number rule, in :mod:`otfslink._fields`.
The dense H, cyclic shift Pi and core are test oracles and live in
:mod:`otfslink.validation`.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import _fields

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


@dataclass(frozen=True)
class DdMimoChannel:
    """A set of paths plus antenna geometry; expandable to its delay taps. Sizes are stored as ``int``."""

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
            object.__setattr__(self, name, _fields.integer(name, getattr(self, name), 1))
        mn = self.mn
        for i, p in enumerate(self.paths):
            _fields.integer(f"path {i}: delay_tap", p.delay_tap, 0, mn - 1)
            _fields.integer(f"path {i}: doppler_tap", p.doppler_tap, 1 - mn, mn - 1)
            _fields.numbers(f"path {i}: gain", p.gain, dtype=complex)
            _fields.number(f"path {i}: aod", p.aod)
            _fields.number(f"path {i}: aoa", p.aoa)

    @property
    def mn(self) -> int:
        return self.m_delay * self.n_doppler


def ula_response(angle: float, n_antennas: int) -> np.ndarray:
    """Half-wavelength uniform linear array response, unit L2 norm.

    Element a is ``exp(j pi a cos(angle)) / sqrt(n_antennas)``; ``angle`` is
    the azimuth in radians measured from the array axis (pi/2 = broadside),
    a finite number.
    """
    n_antennas = operator.index(n_antennas)  # np.arange would round a float count up
    if n_antennas < 1:
        raise ValueError(f"n_antennas must be >= 1, got {n_antennas}")
    a = np.arange(n_antennas)
    return np.exp(1j * np.pi * a * np.cos(_fields.number("angle", angle))) / np.sqrt(n_antennas)


def phase_rotation_matrix(size: int, power: int) -> np.ndarray:
    """Diagonal phase rotation to the given power, a finite number: diag{exp(j 2 pi q power / size)}."""
    size = operator.index(size)
    if size < 1:
        raise ValueError(f"size must be >= 1, got {size}")
    q = np.arange(size)
    return np.diag(np.exp(2j * np.pi * q * _fields.number("power", power) / size))


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


# SpatialCore.times keeps each column block's temporaries to about this fraction of its result.
_TIMES_BLOCKS = 8


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

    Each side is compressed when it has more antennas than paths: ``a_out
    = q_out r_out`` and ``a_in = q_in r_in`` are then the reduced QR
    factorizations of its ``n x L`` array responses; on any other side Q
    is None and R the array responses. So ``A = (Q_out kron I_MN) C (Q_in
    kron I_MN)^H`` for the core C, the path sum with the columns of the R
    in place of the array responses, of ``min(n, L)*MN`` rows per side:
    C shares A's nonzero singular values, and the Q are the core's bases,
    the identity where None. The Gram side is the side of the smaller such
    count (the transmit side on a tie), and ``wide`` says it is the
    receive side. The decomposition takes C's right singular vectors from
    the eigenvectors of :meth:`gram` and the left ones from :meth:`times`,
    and keeps both in the core's bases: :attr:`q_rx` and :attr:`q_tx` take
    them to H's coordinates. ``a_out`` stays for :meth:`gram`, which forms
    the out side's inner products from the array responses themselves.

    ``scale`` is half the smallest power of two above the largest real or
    imaginary part of a gain, so it is finite for every finite gain, and
    ``gains`` are the path gains divided by it, which is exact: no scaled
    part reaches 2, so the Gram matrix of a finite channel can neither
    overflow nor lose its leading digits to underflow.
    """

    a_out: np.ndarray
    q_out: np.ndarray | None
    r_out: np.ndarray
    q_in: np.ndarray | None
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

    @property
    def shape(self) -> tuple[int, int]:
        """C's shape: ``(min(n_out, L)*MN, min(n_in, L)*MN)``."""
        return self.r_out.shape[0] * self.mn, self.side

    @property
    def q_rx(self) -> np.ndarray | None:
        """The basis of H's receive side, ``n_rx x min(n_rx, L)``, or None for the identity."""
        return self.q_in if self.wide else self.q_out

    @property
    def q_tx(self) -> np.ndarray | None:
        """The basis of H's transmit side, ``n_tx x min(n_tx, L)``, or None for the identity."""
        return self.q_out if self.wide else self.q_in

    def gram(self):
        """``C^H C / scale**2 = (q_in kron I)^H A^H A (q_in kron I) / scale**2``, C's Gram matrix, as delay slabs.

        With a ``q_in`` of None read as I, ``r_i`` the columns of ``r_in`` and ``o_i`` those of ``a_out``,
        it is ``sum_(i,j) conj(g_i) g_j (o_i^H o_j) (r_i r_j^H) kron
        Delta^(-k_i) Pi^(l_j - l_i) Delta^(k_j)``, and ``Delta^(-k_i) Pi^d
        Delta^(k_j) = w^(-k_i d) Pi^d Delta^(k_j - k_i)``. Path pairs with
        equal ``(l_j - l_i, k_j - k_i)`` modulo MN share one
        ``side/MN``-square block, so the Gram matrix is one
        :func:`_delay_slabs` sum of at most ``min(L**2, MN**2,
        (2*max_delay_tap + 1)*(4*max_doppler_tap + 1))`` terms, whose blocks
        together hold no more entries than the Gram matrix. The pairs are
        summed into the blocks a few rows of paths at a time, at most
        :data:`_GRAM_CHUNK_ENTRIES` pair entries at once. Returns the sum's
        ``(delay, slab)`` pairs, which :func:`~otfslink.precoding.gram_matrix` writes.
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
        return _delay_slabs(mn, np.ones(taps.size), blocks, taps // mn, taps % mn)

    def times(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``C x / scale`` for the ``(side, k)`` array ``x``: the core of ``H``, or of ``H^H`` when ``wide``.

        Written into ``out``, of C's rows by ``x``'s columns, when it is given.

        One product with ``r_in^H`` takes x to one ``MN x k`` slab per path,
        one gather shifts every path's slab and one product rotates it, and
        one product with ``r_out`` sums the paths into C's row space. On an
        uncompressed side the R are the array responses, so there it is A's
        own product. The slabs of all paths would outgrow the result once
        there are more paths than ``r_out`` has rows, so the columns go
        through in blocks whose slabs and products each hold about a
        :data:`_TIMES_BLOCKS`-th of the result's entries.
        """
        mn, paths = self.mn, self.gains.size
        n_out = self.r_out.shape[0]
        out = np.empty((n_out * mn, x.shape[1]), dtype=complex) if out is None else out
        step = max(1, n_out * x.shape[1] // (max(paths, n_out) * _TIMES_BLOCKS))
        # row q of path i's slab, times its phase, lands on row (q + l_i) mod MN: row p
        # of all the shifted slabs, stacked, takes that of the stacked slabs at rows[p]
        q = np.arange(mn)
        source = (q - self.delays[:, None]) % mn
        rows = (np.arange(paths)[:, None] * mn + source).ravel()
        phases = (self.gains[:, None] * np.exp(2j * np.pi * ((self.dopplers[:, None] * source) % mn) / mn)).reshape(-1, 1)
        for start in range(0, x.shape[1], step):
            out[:, start:start + step] = self._times_block(x[:, start:start + step], rows, phases)
        return out

    def _times_block(self, block: np.ndarray, rows: np.ndarray, phases: np.ndarray) -> np.ndarray:
        """One column block of :meth:`times`; its slabs are freed on return."""
        mn, paths, cols = self.mn, self.gains.size, block.shape[1]
        slabs = (self.r_in.conj().T @ block.reshape(self.r_in.shape[0], mn * cols)).reshape(paths * mn, cols)
        shifted = slabs[rows]
        shifted *= phases  # in place: a product into a new array raised the sweep's peak RSS
        return (self.r_out @ shifted.reshape(paths, mn * cols)).reshape(-1, cols)


def spatial_core(chan: DdMimoChannel) -> SpatialCore:
    """``chan`` as the :class:`SpatialCore` through which :func:`~otfslink.precoding.decompose` takes H's SVD.

    With ``A_rx = Q_rx R_rx`` and ``A_tx = Q_tx R_tx`` the reduced QR
    factorizations of the ``n x L`` array matrices, ``H = (Q_rx kron I_MN)
    C (Q_tx kron I_MN)^H`` exactly, with C the path sum of H with the
    columns of R in place of the array responses: a core that shares H's
    nonzero singular values. Every side with more antennas than paths is
    compressed so, by a tall Q; on any other side Q would be square and
    only rotate, so there Q = I (held as None) and R = A. Both Q and R of
    each side are kept, the Q as the bases in which the decomposition's
    factors come; C itself is not formed.
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
    (q_out, r_out), (q_in, r_in) = (np.linalg.qr(a) if a.shape[0] > paths else (None, a) for a in (a_out, a_in))
    return SpatialCore(a_out=a_out, q_out=q_out, r_out=r_out, q_in=q_in, r_in=r_in, gains=gains, delays=delays,
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
    noise_var = _fields.number("noise_var", noise_var, 0, np.inf, "[)")
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
