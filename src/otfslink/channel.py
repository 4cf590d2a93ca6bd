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

The link expands the paths once, into a :class:`SpatialCore`
(:func:`spatial_core`): H's own paths and each side's responses in the
core's coordinates, which give the Gram matrix of H's spatial core as
one slab per delay, for :func:`~otfslink.precoding.gram_matrix` to write,
the core's product with a block of vectors, and the core's own taps, a
slab of blocks per delay (:func:`build_time_channel`, :func:`apply_channel`),
from its transmit coordinates to its receive ones, where the noise is
drawn. Neither the core nor H is formed, and no antenna basis is kept.
:func:`sample_channel` draws a channel for a checked
:class:`~otfslink.link_sim.SimConfig`. :class:`DdMimoChannel` checks its
sizes and taps by the configs' integer rule, and its paths' gains and
angles by the finite number rule, in :mod:`otfslink._fields`.
The dense H, cyclic shift Pi, core, antenna bases and antenna taps are
test oracles and live in :mod:`otfslink.validation`.
"""

from __future__ import annotations

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
    """A set of paths plus antenna geometry; expandable to its spatial core. Sizes are stored as ``int``."""

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
    a finite number, and ``n_antennas`` an integer >= 1; an error names either.
    """
    n_antennas = _fields.integer("n_antennas", n_antennas, 1)  # np.arange would round a float count up
    a = np.arange(n_antennas)
    return np.exp(1j * np.pi * a * np.cos(_fields.number("angle", angle))) / np.sqrt(n_antennas)


def phase_rotation_matrix(size: int, power: int) -> np.ndarray:
    """Diagonal phase rotation to the given power, a finite number: diag{exp(j 2 pi q power / size)}.

    ``size`` is an integer >= 1; an error names it.
    """
    size = _fields.integer("size", size, 1)
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
    return (np.column_stack([ula_response(p.aoa, chan.n_rx) for p in chan.paths]),
            np.column_stack([ula_response(p.aod, chan.n_tx) for p in chan.paths]))


def _taps(chan: DdMimoChannel) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gains, delay taps and Doppler taps of the paths, as arrays."""
    gains = np.array([p.gain for p in chan.paths], dtype=complex)
    return gains, np.array([p.delay_tap for p in chan.paths]), np.array([p.doppler_tap for p in chan.paths])


def build_time_channel(core: SpatialCore) -> np.ndarray:
    """The core's own delay taps, ``(Q_rx kron I_MN)^H H (Q_tx kron I_MN)``: one ``(MN, n_r, n_t)`` slab per delay.

    ``n_r`` and ``n_t`` are the rows of ``core.r_rx`` and ``core.r_tx``.
    Entry ``[d, q, r, t]`` carries transmit coordinate t's sample q to
    receive coordinate r's sample ``(q + d) mod MN``: the sum over the
    paths of delay tap d of ``gain * r_rx[r] * conj(r_tx[t]) * exp(j 2 pi
    k q / MN)``, with H's own gains ``core.gains * core.scale``. The delays
    run up to the largest tap, so the slabs, at most MN, hold every nonzero
    of the dense matrix :func:`otfslink.validation.dense_time_channel` expands.
    """
    spatial = core.r_rx.T[:, :, None] * core.r_tx.T.conj()[:, None, :]  # path i: r_rx,i r_tx,i^H
    h = np.zeros((core.delays.max() + 1, core.mn, core.r_rx.shape[0], core.r_tx.shape[0]), dtype=complex)
    for delay, slab in _delay_slabs(core.mn, core.gains * core.scale, spatial, core.delays, core.dopplers):
        h[delay] = slab
    return h


# SpatialCore.times keeps each column block's temporaries to about this fraction of its result.
_TIMES_BLOCKS = 8


@dataclass(frozen=True, eq=False)
class SpatialCore:
    """A channel H kept as the path sum it is, in the form :func:`~otfslink.precoding.decompose` takes.

    Each side is described by its R alone: ``r_rx`` and ``r_tx`` hold the
    receive and transmit sides' responses, one column per path, which
    construction checks. A side with more antennas than paths is
    compressed: its ``n x L`` array responses are ``Q R`` with Q of
    orthonormal columns, and R is ``L x L``; on any other side Q = I and R
    is the array responses themselves. So each R has ``min(n, L)`` rows,
    and ``H = (Q_rx kron I_MN) C (Q_tx kron I_MN)^H`` for the core C, the
    path sum with the R in place of the array responses: C shares H's
    nonzero singular values. Nothing at run time reads a Q: the link runs
    in C's coordinates on both sides, through C's own taps
    (:func:`build_time_channel`).

    ``gains``, ``delays`` and ``dopplers`` are H's own paths. The Gram
    side is the side whose R has fewer rows (the transmit side on a tie),
    and :attr:`wide` says it is the receive side. Then the decomposition
    works on H^H, again a path sum: ``(Pi^l Delta^k)^H = w^(kl) Pi^(-l)
    Delta^(-k)`` with ``w = exp(j 2 pi / MN)``, so :meth:`_a_paths` moves
    path i to taps ``(-l_i mod MN, -k_i)`` with gain ``conj(gain_i)
    w^(k_i l_i)`` for :meth:`gram` and :meth:`times`. Either way those
    paths describe the core of a matrix A, H or H^H, whose in side
    (:attr:`r_in`) is the Gram side and whose out side is :attr:`r_out`:
    ``A = scale * sum_i g_i (Q_out r_out[:, i] (Q_in r_in[:, i])^H) kron
    (Pi^l_i Delta^k_i)``. The decomposition takes C's right singular
    vectors from the eigenvectors of :meth:`gram` and the left ones from
    :meth:`times`, in C's coordinates.

    ``scale`` is half the smallest power of two above the largest real or
    imaginary part of a gain, finite for every finite gain, and ``gains``
    are the path gains with each part scaled by it, exact for parts within
    a factor 2**1022 of the largest: no scaled part reaches 2, so the Gram
    matrix can neither overflow nor lose its leading digits to underflow.
    """

    r_rx: np.ndarray
    r_tx: np.ndarray
    gains: np.ndarray
    delays: np.ndarray
    dopplers: np.ndarray
    mn: int
    scale: float

    def __post_init__(self):
        for name, shape in (("r_rx", np.shape(self.r_rx)), ("r_tx", np.shape(self.r_tx))):
            if len(shape) != 2 or shape[1] != np.size(self.gains):
                raise ValueError(f"{name} must have one column per path, {np.size(self.gains)}, got shape {shape}")

    @property
    def wide(self) -> bool:
        """Whether the Gram side is the receive side: its R has fewer rows than the transmit side's."""
        return self.r_rx.shape[0] < self.r_tx.shape[0]

    @property
    def r_in(self) -> np.ndarray:
        """The Gram side's R: ``r_rx`` when :attr:`wide`, else ``r_tx``."""
        return self.r_rx if self.wide else self.r_tx

    @property
    def r_out(self) -> np.ndarray:
        """The other side's R: ``r_tx`` when :attr:`wide`, else ``r_rx``."""
        return self.r_tx if self.wide else self.r_rx

    @property
    def side(self) -> int:
        """Size of the Gram matrix: ``min(n_rx, n_tx, L)*MN``."""
        return self.r_in.shape[0] * self.mn

    @property
    def shape(self) -> tuple[int, int]:
        """C's shape: ``(min(n_out, L)*MN, min(n_in, L)*MN)``."""
        return self.r_out.shape[0] * self.mn, self.side

    def _a_paths(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """A's gains (over ``scale``), delays and Doppler taps: H's own paths, or H^H's when :attr:`wide`."""
        g, l, k, mn = self.gains, self.delays, self.dopplers, self.mn
        if not self.wide:
            return g, l, k
        return g.conj() * np.exp(2j * np.pi * ((k * l) % mn) / mn), -l % mn, -k

    def gram(self):
        """``C^H C / scale**2 = (Q_in kron I)^H A^H A (Q_in kron I) / scale**2``, C's Gram matrix, as delay slabs.

        With ``r_i`` the columns of ``r_in`` and ``o_i`` those of ``r_out``,
        it is ``sum_(i,j) conj(g_i) g_j (o_i^H o_j) (r_i r_j^H) kron
        Delta^(-k_i) Pi^(l_j - l_i) Delta^(k_j)``, and ``Delta^(-k_i) Pi^d
        Delta^(k_j) = w^(-k_i d) Pi^d Delta^(k_j - k_i)``. The ``o_i^H o_j``
        are A's own: a compressed side's Q has orthonormal columns, so ``R^H
        R = A^H A``, and on any other side R is A. Path pairs with
        equal ``(l_j - l_i, k_j - k_i)`` modulo MN share one
        ``side/MN``-square block, so the Gram matrix is one
        :func:`_delay_slabs` sum of at most ``min(L**2, MN**2,
        (2*max_delay_tap + 1)*(4*max_doppler_tap + 1))`` terms, whose blocks
        together hold no more entries than the Gram matrix. The pairs are
        summed into the blocks a few rows of paths at a time, at most
        :data:`_GRAM_CHUNK_ENTRIES` pair entries at once. Returns the sum's
        ``(delay, slab)`` pairs, which :func:`~otfslink.precoding.gram_matrix` writes.
        """
        (g, l, k), mn, o = self._a_paths(), self.mn, self.r_out
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
            weight = (g[i].conj()[:, None] * g[None, :] * (o[:, i].conj().T @ o)
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
        (gains, delays, dopplers), mn, paths = self._a_paths(), self.mn, self.gains.size
        n_out = self.r_out.shape[0]
        out = np.empty((n_out * mn, x.shape[1]), dtype=complex) if out is None else out
        step = max(1, n_out * x.shape[1] // (max(paths, n_out) * _TIMES_BLOCKS))
        # row q of path i's slab, times its phase, lands on row (q + l_i) mod MN: row p
        # of all the shifted slabs, stacked, takes that of the stacked slabs at rows[p]
        q = np.arange(mn)
        source = (q - delays[:, None]) % mn
        rows = (np.arange(paths)[:, None] * mn + source).ravel()
        phases = (gains[:, None] * np.exp(2j * np.pi * ((dopplers[:, None] * source) % mn) / mn)).reshape(-1, 1)
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

    With ``A_rx = Q_rx R_rx`` and ``A_tx = Q_tx R_tx`` the QR
    factorizations of the ``n x L`` array matrices, ``H = (Q_rx kron I_MN)
    C (Q_tx kron I_MN)^H`` exactly, with C the path sum of H with the
    columns of R in place of the array responses: a core that shares H's
    nonzero singular values. Every side with more antennas than paths is
    compressed so, by a tall Q whose R has ``L`` rows; on any other side Q
    would be square and only rotate, so there Q = I and R = A. Only each
    side's R is computed (``np.linalg.qr`` in mode ``"r"``): no Q is
    formed, and C itself is not either. The core keeps H's own paths.
    """
    r_rx, r_tx = (np.linalg.qr(a, mode="r") if a.shape[0] > a.shape[1] else a for a in _array_matrices(chan))
    gains, delays, dopplers = _taps(chan)
    parts = gains.view(float)  # the parts, not |gain|: |gain| overflows near the largest float
    peak = float(np.max(np.abs(parts)))
    exponent = np.frexp(peak)[1] - 1 if peak > 0 else 0
    # np.ldexp, not gains / scale: a complex division by a subnormal scale overflows
    return SpatialCore(r_rx=r_rx, r_tx=r_tx, gains=np.ldexp(parts, -exponent).view(complex), delays=delays,
                       dopplers=dopplers, mn=chan.mn, scale=2.0 ** exponent)


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

    ``y`` is one frame or a ``(frames, n_t*MN)`` array, frames on the
    leading axis, coordinate by coordinate of the taps' ``n_t`` transmit
    columns. ``r = H y + n`` has its layout, with ``n_r*MN`` samples per
    frame, coordinate by coordinate of the taps' ``n_r`` receive rows, and
    the noise is drawn there: for :func:`spatial_core`'s taps, in the
    core's receive coordinates, which is distributed as white noise at
    the antennas projected by the orthonormal ``(Q_rx kron I_MN)^H``.
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
