"""End-to-end link: payload -> allocation -> QAM -> OTFS -> channel -> recovery.

One link run draws a channel, diagonalizes it, allocates payload elements
to sub-channels (by importance, or uniformly), pushes 64-QAM symbols
through the full transmit/receive chain, and reports symbol error rate,
plain and importance-weighted MSE, the achieved rank alignment, and the
sub-channel gains.

SNR convention: per-DD-symbol transmit SNR = Es / sigma^2 with Es = 1 (the
constellation has unit average energy), so ``noise_var = 10**(-snr_db/10)``
is the total per-complex-component noise variance at each receive antenna.
Because every transform in the chain is (semi-)unitary, sigma^2 is also
the effective noise variance seen by each sub-channel.

All randomness flows through explicit seeds. Sweeps derive one stream per
trial as ``np.random.default_rng([seed, trial])``, shared across grid
points, so trials at different SNRs see common channels and noise shapes
(which makes metric-vs-SNR trends monotone) and semantic/uniform runs of
the same trial are exactly paired.

A sweep runs trials in the outer loop and grid points in the inner one.
Every link still draws its payload, importance, channel and noise from its
own fresh trial stream in that order, so the CSV is the same as running
each (point, trial) link on its own. Only the deterministic expansion of
the drawn channel (gains, precoder/combiner and delay taps; see
:func:`realize`) is reused: a :class:`RealizationSlot` hands it on to the
next link whose drawn channel, ``n_rf`` and precoder mode equal the ones it
was computed for. An SNR sweep therefore decomposes one channel per trial
instead of one per link.

A link's burst of ``n_frames`` frames shares its channel and goes through
as ``(frames, ...)`` arrays, frame axis leading, in chunks bounded by
:data:`FRAME_CHUNK_ENTRIES`; only ``allocation.allocate`` runs once per
frame. With several frames per chunk the floats move by rounding against
one frame at a time.

The decomposition never forms H: :func:`~otfslink.precoding.decompose`
returns exactly the ``n_rf*MN`` leading triplets of H the link uses, in
the coordinates of H's spatial core, or raises when the channel's rank is
lower. It takes them from the leading eigenpairs of the Gram matrix of
the core, which is summed from the path pairs, and applies the core path
by path (:class:`~otfslink.channel.SpatialCore`). The delay taps are the
core's own, built from both sides' responses in its coordinates, so the
precoded frames go through them as they are, the noise is drawn in the
core's receive coordinates, ``min(n_rx, L)*MN`` samples per frame, and
the combiner takes what comes out as it is. No H-sized array is
allocated, and no antenna basis is formed. How each version of the CSV
moved against the one before is kept in ``CHANGES.md``.

:class:`SimConfig`'s integer and number fields and :func:`run_sweep`'s
``trials`` are checked by the rules of :mod:`otfslink._fields`.
"""

from __future__ import annotations

import csv
import io
import logging
import math
import time
from dataclasses import dataclass, fields, replace

import numpy as np

from . import _fields, allocation, modem
from .channel import DdMimoChannel, apply_channel, build_time_channel, sample_channel, spatial_core
from .dd_transforms import otfs_demodulate, otfs_modulate, stack_chains, unstack_chains
from .precoding import (
    PRECODER_MODES,
    PrecoderCombiner,
    build_precoder_combiner,
    decompose,
    sub_channel_gains,
)

logger = logging.getLogger(__name__)

ALLOCATION_MODES = ("semantic", "uniform")

DEFAULT_SNR_GRID_DB = (-6.0, 0.0, 6.0, 12.0, 18.0)
DEFAULT_ANTENNA_GRID = (4, 6, 8, 10, 12, 14, 16)

# Lowest accepted SNR (noise variance 1e10); far lower ones overflow or saturate the metrics.
MIN_SNR_DB = -100.0

# Most trials a sweep may run at each grid point. A link of the smallest shape
# takes about 1 ms on a 2-core x86 host, so a million of them per point is
# already a long run; far larger counts never finish.
MAX_TRIALS = 10**6

# Most entries a config may ask of any array a link allocates, by the sizes of
# _ARRAY_SIZES. Neither H nor the spatial core is formed, and the Gram matrix
# the decomposition holds is at most H's size (see precoding.decompose).
MAX_ARRAY_ENTRIES = 2**28

# Most entries of each per-chunk array of a burst: run_link passes as many frames
# at once as keep the larger of a frame's K(K-1)/2 Kendall pairs and its
# min(n, L)*MN signal entries (on the spatial core's larger side) within this
# bound, one frame at least. It bounds each array, not their sum: the two Kendall
# functions hold several pair-sized arrays at once (0.38 and 0.31 k-column
# arrays at grid16's K = 512).
FRAME_CHUNK_ENTRIES = 2**18

# The largest arrays of a link, as products of SimConfig size fields and their
# powers: H's size, (n_rx*M*N) x (n_tx*M*N), which bounds the Gram matrix; the
# n x n_paths array responses of each side; and the payload of n_frames*n_rf*M*N.
_ARRAY_SIZES = (
    ("the channel matrix H", (("n_tx", 1), ("n_rx", 1), ("m_delay", 2), ("n_doppler", 2))),
    ("the transmit array response", (("n_tx", 1), ("n_paths", 1))),
    ("the receive array response", (("n_rx", 1), ("n_paths", 1))),
    ("the payload", (("n_frames", 1), ("n_rf", 1), ("m_delay", 1), ("n_doppler", 1))),
)

@dataclass(frozen=True)
class SimConfig:
    """Full configuration of one link simulation.

    Every rule on these fields is checked here: construction, and so
    ``dataclasses.replace``, raises a ``ValueError`` that names the first
    bad field, for library callers and the CLI alike.
    """

    n_tx: int = 8
    n_rx: int = 8
    n_rf: int = 2
    m_delay: int = 8
    n_doppler: int = 8
    n_frames: int = 1
    n_paths: int = 10
    max_delay_tap: int = 5
    max_doppler_tap: int = 1
    snr_db: float = 0.0
    precoder_mode: str = "dd_corrected"
    allocation_mode: str = "semantic"
    seed: int = 0

    def __post_init__(self):
        def check(name, rule, *bounds):
            object.__setattr__(self, name, rule(name, getattr(self, name), *bounds))

        for name in ("n_tx", "n_rx", "n_rf", "m_delay", "n_doppler", "n_frames", "n_paths"):
            check(name, _fields.integer, 1)
        for array, factors in _ARRAY_SIZES:
            powers = [getattr(self, name) ** power for name, power in factors]
            if math.prod(powers) > MAX_ARRAY_ENTRIES:
                name = factors[powers.index(max(powers))][0]
                raise ValueError(
                    f"{name} is too large: {array} would have more than "
                    f"{MAX_ARRAY_ENTRIES} entries, got {name} = {_fields.shown(getattr(self, name))}"
                )
        if self.n_rf > min(self.n_tx, self.n_rx):
            raise ValueError(f"n_rf must be <= min(n_tx, n_rx) = {min(self.n_tx, self.n_rx)}, got {self.n_rf}")
        if self.n_rf > self.n_paths:
            raise ValueError(
                f"n_rf must be <= n_paths = {self.n_paths}, got {self.n_rf}: the channel's rank "
                f"is at most n_paths*m_delay*n_doppler, too low for n_rf*m_delay*n_doppler streams"
            )
        for name in ("max_delay_tap", "max_doppler_tap"):
            check(name, _fields.integer, 0, self.m_delay * self.n_doppler - 1)
        if self.n_subchannels < 2:  # Kendall alignment needs a pair of sub-channels
            raise ValueError(f"n_rf*m_delay*n_doppler must be >= 2, got {self.n_subchannels}")
        check("snr_db", _fields.number, MIN_SNR_DB, math.inf, "[]")
        if self.precoder_mode not in PRECODER_MODES:
            raise ValueError(f"precoder_mode must be one of {PRECODER_MODES}, got {self.precoder_mode!r}")
        if self.allocation_mode not in ALLOCATION_MODES:
            raise ValueError(f"allocation_mode must be one of {ALLOCATION_MODES}, got {self.allocation_mode!r}")
        check("seed", _fields.integer, 0)

    @property
    def n_subchannels(self) -> int:
        return self.n_rf * self.m_delay * self.n_doppler

    @property
    def payload_len(self) -> int:
        return self.n_subchannels * self.n_frames

@dataclass(frozen=True)
class LinkMetrics:
    """Outcome of one link run (averages over all frames of the burst)."""

    mse: float
    weighted_mse: float
    ser: float
    kappa_exact: float
    kappa_soft: float
    gains: np.ndarray


@dataclass(frozen=True)
class SweepRow:
    """One averaged grid point of a sweep; fields mirror the CSV columns."""

    snr_db: float
    n_tx: int
    n_rx: int
    n_rf: int
    mode: str
    trials: int
    ser: float
    mse: float
    weighted_mse: float
    kappa_exact: float
    kappa_soft: float
    gamma_max: float
    gamma_min: float


CSV_COLUMNS = tuple(field.name for field in fields(SweepRow))
# Written as they are; every other column is a float written with full repr precision.
_VERBATIM_COLUMNS = ("n_tx", "n_rx", "n_rf", "mode", "trials")
# The columns a row averages over its links; a sweep keeps only these of a finished link.
_AVERAGED_COLUMNS = ("ser", "mse", "weighted_mse", "kappa_exact", "kappa_soft", "gamma_max", "gamma_min")


def snr_to_noise_var(snr_db: float) -> float:
    """Per-complex-component noise variance at unit symbol energy: 10**(-snr_db/10).

    ``snr_db`` is a number >= :data:`MIN_SNR_DB`, or +inf for a noiseless
    link (variance 0); a ``ValueError`` names it otherwise.
    """
    snr_db = _fields.number("snr_db", snr_db, MIN_SNR_DB, math.inf, "[]")
    return 10.0 ** (-snr_db / 10.0)


def sample_importance(rng, n: int) -> np.ndarray:
    """``n`` heavy-tailed synthetic importance scores: log-normal(0, 1). ``n`` is an integer >= 0."""
    rng = np.random.default_rng(rng)
    return rng.lognormal(mean=0.0, sigma=1.0, size=_fields.integer("n", n, 0))


def sample_payload(rng, n: int) -> np.ndarray:
    """``n`` uniform random symbol labels in [0, 64). ``n`` is an integer >= 0."""
    rng = np.random.default_rng(rng)
    return rng.integers(0, modem.QAM_ORDER, size=_fields.integer("n", n, 0))


@dataclass(frozen=True, eq=False)
class Realization:
    """What a link needs from one drawn channel, for ``n_rf`` chains and a precoder mode.

    A pure function of ``(chan, n_rf, precoder_mode)``; see :func:`realize`.
    The SVD factors themselves are not kept: ``pc`` and ``gains`` carry all
    a transmission uses of them. Everything is in the coordinates of the
    channel's spatial core (see :class:`~otfslink.channel.SpatialCore`):
    ``pc`` has ``min(n, L)*MN`` rows per side, and ``h`` is the core's
    delay taps (:func:`~otfslink.channel.build_time_channel`), which take
    the precoder's frames to what the combiner takes, with no basis
    between.
    """

    h: np.ndarray
    pc: PrecoderCombiner
    gains: np.ndarray


def realize(chan: DdMimoChannel, n_rf: int, precoder_mode: str) -> Realization:
    """The sub-channel gains, the precoder/combiner and the delay taps of ``chan``.

    :func:`~otfslink.precoding.decompose` returns exactly the ``n_rf*MN``
    leading singular triplets of H the link uses, from the leading
    eigenpairs of the Gram matrix of H's spatial core
    (:func:`~otfslink.channel.spatial_core`), or raises
    :class:`~otfslink.precoding.RankDeficientChannelError`. The core is
    held by its paths, never as a matrix, and the Gram matrix is freed
    inside the decomposition.

    The precoder/combiner is folded in the arrays the decomposition
    returned (see :func:`~otfslink.precoding.build_precoder_combiner`),
    which owns them from then on. They stay in the core's coordinates:
    ``min(n, L)*MN`` rows per side rather than ``n*MN``. The taps that
    :func:`~otfslink.channel.apply_channel` takes are built last, from the
    core's responses ``r_tx`` and ``r_rx``, so that they are the core's
    own, from its transmit coordinates to its receive ones: (max delay +
    1)*MN*min(n_rx, L)*min(n_tx, L) entries, never more than the dense
    core's, and 0.59 MiB at 128x128 antennas, 10 paths and an 8x8 grid.
    There and at 16x16 antennas alike, a realization's memory peaks inside
    the decomposition (see :func:`~otfslink.precoding.decompose`).
    """
    m, n = chan.m_delay, chan.n_doppler
    core = spatial_core(chan)
    dec = decompose(core, n_rf * m * n)
    gains = sub_channel_gains(dec)
    pc = build_precoder_combiner(dec, m, n, precoder_mode)
    del dec
    h = build_time_channel(chan, core.r_tx, core.r_rx)
    return Realization(h=h, pc=pc, gains=gains)


class RealizationSlot:
    """Holds at most one :class:`Realization` for the links of one sweep.

    :meth:`get` returns the held realization only when the channel compares
    equal (exact equality of the frozen path parameters and geometry) and
    ``n_rf`` and the precoder mode match the ones it was computed for. On a
    miss it drops the held one before computing the next, so the next
    one's memory peak (see :func:`realize`) does not add to a held
    realization. The held ``pc.g`` and ``pc.w`` are read-only (see
    :func:`~otfslink.precoding.build_precoder_combiner`), so no link can
    change what later links reuse.
    """

    def __init__(self):
        self._key = self._held = None

    def get(self, chan: DdMimoChannel, n_rf: int, precoder_mode: str) -> Realization:
        key = (chan, n_rf, precoder_mode)
        if key == self._key:
            return self._held
        self._key = self._held = None
        self._held = realize(chan, n_rf, precoder_mode)
        self._key = key
        return self._held


def _frames_per_chunk(cfg: SimConfig) -> int:
    k = cfg.n_subchannels
    core_side = max(min(cfg.n_tx, cfg.n_paths), min(cfg.n_rx, cfg.n_paths))
    per_frame = max(k * (k - 1) // 2, core_side * cfg.m_delay * cfg.n_doppler)
    return max(1, FRAME_CHUNK_ENTRIES // per_frame)


def run_link(cfg: SimConfig, payload_indices, importance, rng=None, slot=None) -> LinkMetrics:
    """Run one burst of ``cfg.n_frames`` OTFS frames over a fresh channel.

    ``payload_indices`` are 64-QAM labels, ``importance`` the matching
    nonnegative per-element scores; both must have length
    ``cfg.payload_len``. The channel is held constant across the burst;
    allocation is recomputed per frame from that frame's importance slice.
    Deterministic given the seed / generator passed as ``rng``. The channel
    is always drawn from ``rng``; a :class:`RealizationSlot` passed as
    ``slot`` only saves recomputing its realization, never changes the result.
    """
    rng = np.random.default_rng(rng if rng is not None else cfg.seed)
    idx = np.asarray(payload_indices)
    w_all = _fields.numbers("importance", importance, 0, math.inf, "[)")
    if idx.shape != (cfg.payload_len,):
        raise ValueError(f"payload must have length n_rf*m*n*n_frames = {cfg.payload_len}")
    if w_all.shape != idx.shape:
        raise ValueError("importance must match the payload length")

    chan = sample_channel(cfg, rng)
    real = (slot if slot is not None else RealizationSlot()).get(chan, cfg.n_rf, cfg.precoder_mode)
    h, pc, gains = real.h, real.pc, real.gains
    noise_var = snr_to_noise_var(cfg.snr_db)

    k, m, n, n_rf = cfg.n_subchannels, cfg.m_delay, cfg.n_doppler, cfg.n_rf
    idx, w_all = idx.reshape(cfg.n_frames, k), w_all.reshape(cfg.n_frames, k)
    # per frame: squared error, weighted squared error, weight, symbol errors, both Kendall values
    per_frame = np.empty((6, cfg.n_frames))
    step = _frames_per_chunk(cfg)
    for start in range(0, cfg.n_frames, step):
        sl = slice(start, start + step)
        idx_f, w_f = idx[sl], w_all[sl]
        if cfg.allocation_mode == "semantic":
            pi = np.array([allocation.allocate(w, gains) for w in w_f])
        else:
            pi = np.arange(k, dtype=np.intp)
        x = modem.modulate(allocation.apply_allocation(idx_f, pi))

        # each chain's K/n_rf symbols fill its (m, n) DD grid column-major
        grids = unstack_chains(x, n_rf).reshape(len(x), n_rf, n, m).swapaxes(-1, -2)
        y = stack_chains(otfs_modulate(grids)) @ pc.g.T  # in the core's transmit coordinates, as the taps take them
        r = np.conj(apply_channel(h, y, noise_var, rng))  # in its receive coordinates, as the combiner takes them
        # conj(conj(r) @ w) = r @ conj(w) without a conjugated copy of the whole combiner
        combined = r @ pc.w
        s_hat = unstack_chains(np.conj(combined, out=combined), n_rf)
        x_hat = otfs_demodulate(s_hat, m, n).swapaxes(-1, -2).reshape(len(x), k)

        x_eq, _ = modem.equalize(x_hat, gains)
        rx_idx = allocation.invert_allocation(modem.demodulate_hard(x_eq), pi)
        err2 = np.abs(allocation.invert_allocation(x_eq, pi) - modem.modulate(idx_f)) ** 2
        w_sorted = allocation.apply_allocation(w_f, pi)
        per_frame[:, sl] = (
            err2.sum(axis=1),
            (w_f * err2).sum(axis=1),
            w_f.sum(axis=1),
            np.count_nonzero(rx_idx != idx_f, axis=1),
            allocation.exact_kendall_tau(w_sorted, gains),
            allocation.soft_kendall(w_sorted, gains),
        )

    # cumsum adds strictly in frame order, so one frame per chunk rounds as frame by frame
    sq_sum, wsq_sum, w_sum, n_err = np.cumsum(per_frame[:4], axis=1)[:, -1]
    total = cfg.payload_len
    mse = sq_sum / total
    return LinkMetrics(
        mse=float(mse),
        weighted_mse=float(wsq_sum / w_sum if w_sum > 0 else mse),
        ser=float(n_err / total),
        kappa_exact=float(np.mean(per_frame[4])),
        kappa_soft=float(np.mean(per_frame[5])),
        # a copy: the held realization's gains serve later links of the sweep
        gains=gains.copy(),
    )


def run_random_link(cfg: SimConfig, rng=None, slot=None) -> LinkMetrics:
    """Draw a random payload and importance vector, then run one link."""
    rng = np.random.default_rng(rng if rng is not None else cfg.seed)
    idx = sample_payload(rng, cfg.payload_len)
    w = sample_importance(rng, cfg.payload_len)
    return run_link(cfg, idx, w, rng, slot)


def _trial_rng(seed: int, trial: int) -> np.random.Generator:
    return np.random.default_rng([seed, trial])


def _average_row(cfg: SimConfig, values: np.ndarray) -> SweepRow:
    """The row of ``cfg``; ``values[c, t]`` is column ``_AVERAGED_COLUMNS[c]`` of link ``t``.

    Each column's links are contiguous, so ``np.mean`` reduces them exactly
    as it reduces a list of them.
    """
    return SweepRow(
        snr_db=cfg.snr_db,
        n_tx=cfg.n_tx,
        n_rx=cfg.n_rx,
        n_rf=cfg.n_rf,
        mode=cfg.allocation_mode,
        trials=values.shape[1],
        **{name: float(np.mean(column)) for name, column in zip(_AVERAGED_COLUMNS, values)},
    )


def run_sweep(points, trials: int = 1) -> list[SweepRow]:
    """Average ``trials`` random links at each grid point; one row per point.

    Trials are the outer loop, so the links of one trial, which all draw
    the same channel when the points differ only in SNR, follow each other
    and share one realization through a :class:`RealizationSlot`. Link
    (point, t) uses the stream ``_trial_rng(point.seed, t)`` exactly as a
    lone ``run_random_link`` call would. Logs one progress line per link.
    """
    trials = _fields.integer("trials", trials, 1, MAX_TRIALS)
    points = list(points)
    slot = RealizationSlot()
    values = np.empty((len(points), len(_AVERAGED_COLUMNS), trials))
    total = trials * len(points)
    start = time.perf_counter()
    for t in range(trials):
        for i, point in enumerate(points):
            m = run_random_link(point, _trial_rng(point.seed, t), slot)
            values[i, :, t] = m.ser, m.mse, m.weighted_mse, m.kappa_exact, m.kappa_soft, m.gains[0], m.gains[-1]
            done = t * len(points) + i + 1
            elapsed = time.perf_counter() - start
            logger.info(
                "link %d/%d (trial %d, grid point %d): %.2f s elapsed, ETA %.2f s",
                done, total, t + 1, i + 1, elapsed, elapsed / done * (total - done),
            )
    return [_average_row(point, v) for point, v in zip(points, values)]


def snr_points(cfg: SimConfig, snr_list_db=DEFAULT_SNR_GRID_DB) -> list[SimConfig]:
    """The grid points of an SNR sweep: ``cfg`` at each SNR, each checked by :class:`SimConfig`."""
    return [replace(cfg, snr_db=snr) for snr in snr_list_db]


def antenna_points(cfg: SimConfig, n_tx_list=DEFAULT_ANTENNA_GRID) -> list[SimConfig]:
    """The grid points of an antenna sweep: ``cfg`` at each n_tx, keeping n_rx = n_tx."""
    return [replace(cfg, n_tx=n_tx, n_rx=n_tx) for n_tx in n_tx_list]


def write_csv(rows, fileobj) -> None:
    """Write sweep rows with the canonical header; floats keep full repr precision."""
    writer = csv.writer(fileobj, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow(
            [getattr(row, c) if c in _VERBATIM_COLUMNS else repr(float(getattr(row, c))) for c in CSV_COLUMNS]
        )


def format_csv(rows) -> str:
    """Render sweep rows to a CSV string (header + one line per row)."""
    buf = io.StringIO()
    write_csv(rows, buf)
    return buf.getvalue()
