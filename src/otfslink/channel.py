"""Delay-Doppler MIMO channel: path model, dense time-domain matrix, spatial core, AWGN.

The channel is a superposition of L discrete propagation paths. Path i has
a complex gain, an integer delay tap l_i, an integer Doppler tap k_i and a
pair of azimuth angles (departure/arrival). Its time-domain contribution is

    gain_i * (a_rx(aoa_i) a_tx(aod_i)^H)  kron  (Pi^l_i  Delta^k_i)

where Pi is the MN x MN forward cyclic shift, Delta the diagonal
phase-rotation matrix diag{exp(j 2 pi q / MN)}, and a_tx/a_rx are
half-wavelength uniform-linear-array responses. Delays act as cyclic
shifts over one frame, i.e. the frame is treated as cyclically extended;
no explicit cyclic prefix is modeled.

:func:`sample_channel` draws a channel for a
:class:`~otfslink.link_sim.SimConfig`, which checks every sampling
parameter; this module keeps no config of its own. The dense cyclic shift
Pi is a test oracle and lives in :mod:`otfslink.validation`.
"""

from __future__ import annotations

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


@dataclass(frozen=True)
class DdMimoChannel:
    """A set of paths plus antenna geometry; expandable to a dense matrix."""

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
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        mn = self.mn
        for i, p in enumerate(self.paths):
            if not (0 <= p.delay_tap < mn):
                raise ValueError(f"path {i}: delay_tap {p.delay_tap} outside [0, {mn})")
            if not (abs(p.doppler_tap) < mn):
                raise ValueError(f"path {i}: |doppler_tap| {abs(p.doppler_tap)} must be < {mn}")
            if not np.isfinite(p.gain):
                raise ValueError(f"path {i}: gain must be finite")

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


def _path_sum(chan: DdMimoChannel, rx: np.ndarray, tx: np.ndarray) -> np.ndarray:
    """``sum_i gain_i (rx[:, i] tx[:, i]^H) kron (Pi^l_i Delta^k_i)``, written into its nonzeros.

    ``Pi^l Delta^k`` has one nonzero per column q: ``exp(j 2 pi k q / MN)``
    at row ``(q + l) mod MN``. So each path adds its ``rx x tx`` spatial
    block to ``MN`` entries of every block, O(n_rx*n_tx*MN) work instead of
    the O(n_rx*n_tx*MN^2) of a Kronecker product.
    """
    mn = chan.mn
    n_r, n_t = rx.shape[0], tx.shape[0]
    out = np.zeros((n_r, mn, n_t, mn), dtype=complex)
    q = np.arange(mn)
    for i, p in enumerate(chan.paths):
        doppler = p.gain * np.diagonal(phase_rotation_matrix(mn, p.doppler_tap))
        spatial = np.multiply.outer(rx[:, i], tx[:, i].conj())
        # two index arrays split by a slice: the indexed view is (q, n_r, n_t)
        out[:, (q + p.delay_tap) % mn, :, q] += doppler[:, None, None] * spatial
    return out.reshape(n_r * mn, n_t * mn)


def _array_matrices(chan: DdMimoChannel) -> tuple[np.ndarray, np.ndarray]:
    """The ``n_rx x L`` and ``n_tx x L`` ULA responses, one column per path."""
    a_rx = np.column_stack([ula_response(p.aoa, chan.n_rx) for p in chan.paths])
    a_tx = np.column_stack([ula_response(p.aod, chan.n_tx) for p in chan.paths])
    return a_rx, a_tx


def build_time_channel(chan: DdMimoChannel) -> np.ndarray:
    """Expand a path-parameterized channel to its dense time-domain matrix.

    Returns the ``(n_rx*MN, n_tx*MN)`` complex matrix; block (r, t) holds
    the sum over paths of ``gain * a_rx[r] * conj(a_tx[t]) * Pi^l Delta^k``.
    """
    return _path_sum(chan, *_array_matrices(chan))


def spatial_core(chan: DdMimoChannel) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(Q_rx, C, Q_tx)`` with ``H = (Q_rx kron I_MN) C (Q_tx kron I_MN)^H`` exactly.

    With ``A_rx = Q_rx R_rx`` and ``A_tx = Q_tx R_tx`` the reduced QR
    factorizations of the ``n x L`` array matrices, the spatial factor
    ``a_rx,i a_tx,i^H`` of path i is ``Q_rx r_rx,i r_tx,i^H Q_tx^H``, so C is
    the path sum of H with the columns of R in place of the array
    responses. C is ``min(n_rx, L)*MN x min(n_tx, L)*MN``: smaller than H
    when an array has more antennas than the channel has paths, H's size
    otherwise. ``Q kron I_MN`` has orthonormal columns, so C and H share
    their nonzero singular values.
    """
    a_rx, a_tx = _array_matrices(chan)
    q_rx, r_rx = np.linalg.qr(a_rx)
    q_tx, r_tx = np.linalg.qr(a_tx)
    return q_rx, _path_sum(chan, r_rx, r_tx), q_tx


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
        PathParams(
            gain=complex(gains[i]),
            delay_tap=int(delays[i]),
            doppler_tap=int(dopplers[i]),
            aod=float(aods[i]),
            aoa=float(aoas[i]),
        )
        for i in range(n)
    )
    return DdMimoChannel(
        paths=paths,
        n_tx=cfg.n_tx,
        n_rx=cfg.n_rx,
        m_delay=cfg.m_delay,
        n_doppler=cfg.n_doppler,
    )


def apply_channel(h: np.ndarray, y: np.ndarray, noise_var: float, rng=None) -> np.ndarray:
    """Apply ``r = h @ y + n`` with circular complex Gaussian noise to each frame.

    ``y`` is one frame or a ``(frames, n_tx*MN)`` array, frames on the leading
    axis, and ``r`` has its layout. ``noise_var`` is the total
    per-complex-component variance (``noise_var/2`` per part); 0 gives the
    exact product. Each frame draws its real, then its imaginary parts, so
    ``rng`` is consumed exactly as by one call per frame.
    """
    h = np.asarray(h)
    y = np.asarray(y)
    if y.ndim not in (1, 2) or y.shape[-1] != h.shape[1]:
        raise ValueError(f"signal shape {y.shape} incompatible with channel shape {h.shape}")
    if not noise_var >= 0:  # also rejects NaN
        raise ValueError(f"noise_var must be >= 0, got {noise_var}")
    r = y @ h.T
    if noise_var > 0:
        rng = np.random.default_rng(rng)
        z = rng.standard_normal(r.shape[:-1] + (2, r.shape[-1]))
        r = r + (z[..., 0, :] + 1j * z[..., 1, :]) * np.sqrt(noise_var / 2.0)
    return r
