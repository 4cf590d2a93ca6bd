"""SVD decomposition and precoder/combiner tests, with eigenvalue oracles."""

import ctypes
import os
import subprocess
import sys
import textwrap
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import block_diag

from otfslink import precoding
from otfslink.channel import build_time_channel, sample_channel, spatial_core
from otfslink.link_sim import SimConfig, realize
from otfslink.precoding import (
    RankDeficientChannelError,
    build_precoder_combiner,
    dd_transform_matrices,
    decompose,
    sub_channel_gains,
)
from otfslink.validation import DenseCore, dense_time_channel, effective_dd_channel

ROOT = Path(__file__).resolve().parents[1]


def dense_h(chan):
    """The dense H of ``chan``, expanded from its delay taps."""
    return dense_time_channel(build_time_channel(chan))


def _copy(dec):
    """A decomposition with factors of its own: a precoder/combiner takes its factors over."""
    return replace(dec, u=dec.u.copy(), v=dec.v.copy())

def random_channel(seed, n_ant=2, grid=2, n_paths=5):
    cfg = SimConfig(
        n_tx=n_ant, n_rx=n_ant, n_rf=1, m_delay=grid, n_doppler=grid, n_paths=n_paths,
        max_delay_tap=min(5, grid * grid - 1), max_doppler_tap=1,
    )
    return dense_h(sample_channel(cfg, seed))


class TestDecompose:
    def test_identity(self):
        dec = decompose(DenseCore(np.eye(4)), 4)
        np.testing.assert_allclose(dec.sigma, np.ones(4))
        assert dec.rank == 4

    def test_scaled_identity(self):
        dec = decompose(DenseCore(3.0 * np.eye(2)), 2)
        np.testing.assert_allclose(dec.sigma, [3.0, 3.0])

    def test_reconstruction_and_eig_oracle(self):
        rng = np.random.default_rng(21)
        h = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        dec = decompose(DenseCore(h), 8)
        recon = dec.u @ np.diag(dec.sigma) @ dec.v.conj().T
        assert np.linalg.norm(recon - h) < 1e-9 * np.linalg.norm(h)
        # singular values == sqrt of eigenvalues of H^H H (independent route)
        eig = np.sqrt(np.maximum(np.linalg.eigvalsh(h.conj().T @ h), 0.0))[::-1]
        np.testing.assert_allclose(dec.sigma, eig, atol=1e-8)

    def test_semi_unitary_factors(self):
        h = random_channel(3)
        dec = decompose(DenseCore(h), 8)
        eye = np.eye(8)
        assert np.linalg.norm(dec.u.conj().T @ dec.u - eye) < 1e-10
        assert np.linalg.norm(dec.v.conj().T @ dec.v - eye) < 1e-10

    def test_sigma_descending_nonnegative(self):
        dec = decompose(DenseCore(random_channel(4)), 8)
        assert np.all(np.diff(dec.sigma) <= 0)
        assert np.all(dec.sigma >= 0)

    def test_rank_below_k_raises(self):
        h = np.zeros((4, 4), complex)
        h[0, 0] = 2.0
        assert decompose(DenseCore(h), 1).sigma.shape == (1,)
        with pytest.raises(RankDeficientChannelError, match="channel rank 1 cannot carry 2 streams"):
            decompose(DenseCore(h), 2)

    def test_nonfinite_rejected(self):
        h = np.eye(2)
        h = h.astype(complex)
        h[0, 0] = np.inf
        with pytest.raises(ValueError):
            decompose(DenseCore(h), 2)


class TestPrecoderCombiner:
    def test_modes_coincide_without_doppler_dft(self):
        # N = 1 makes the DD transforms the identity
        h = dense_h(
            sample_channel(
                SimConfig(n_tx=2, n_rx=2, n_rf=1, m_delay=4, n_doppler=1, n_paths=4,
                          max_delay_tap=3, max_doppler_tap=0),
                5,
            )
        )
        dec = decompose(DenseCore(h), 4)
        literal = build_precoder_combiner(_copy(dec), 1, 4, 1, "paper_literal")
        corrected = build_precoder_combiner(dec, 1, 4, 1, "dd_corrected")
        np.testing.assert_allclose(literal.g, corrected.g, atol=1e-12)
        np.testing.assert_allclose(literal.w, corrected.w, atol=1e-12)

    @pytest.mark.parametrize("mode", ["paper_literal", "dd_corrected"])
    def test_semi_unitary(self, mode):
        dec = decompose(DenseCore(random_channel(6)), 4)
        pc = build_precoder_combiner(dec, 1, 2, 2, mode)
        k = 4
        assert np.linalg.norm(pc.g.conj().T @ pc.g - np.eye(k)) < 1e-10
        assert np.linalg.norm(pc.w.conj().T @ pc.w - np.eye(k)) < 1e-10

    def test_rank_deficiency_raises(self):
        # n_rf*m*n = 4 streams for (1, 2, 2) need rank 4: decompose checks it, not the builder
        h = np.zeros((8, 8), complex)
        h[0, 0] = 1.0
        with pytest.raises(RankDeficientChannelError, match="channel rank 1 cannot carry 4 streams"):
            decompose(DenseCore(h), 1 * 2 * 2)

    def test_unknown_mode(self):
        dec = decompose(DenseCore(np.eye(4)), 4)
        with pytest.raises(ValueError):
            build_precoder_combiner(dec, 1, 2, 2, "bogus")

    @pytest.mark.parametrize("mode", ["paper_literal", "dd_corrected"])
    @pytest.mark.parametrize("order", ["C", "F", "F_reversed"])
    def test_folds_in_the_factors_own_arrays(self, mode, order):
        # 11 and 10 rows in 8 blocks of 1 or 2 rows each
        rng = np.random.default_rng(40)

        def factor(rows):
            x = rng.standard_normal((rows, 8)) + 1j * rng.standard_normal((rows, 8))
            if order == "C":
                return x
            x = np.asfortranarray(x)
            # decompose's eigenvectors: contiguous columns, in reverse order
            return x[:, ::-1] if order == "F_reversed" else x

        dec = precoding.SubChannelDecomposition(u=factor(11), sigma=np.ones(8), v=factor(10), rank=8)
        u, v = dec.u.copy(), dec.v.copy()
        pc = build_precoder_combiner(dec, 2, 2, 2, mode)
        assert pc.g is dec.v and pc.w is dec.u
        if mode == "dd_corrected":
            c_t, c_r = dd_transform_matrices(2, 2, 2)
            u, v = u @ c_r, v @ c_t.conj().T
        np.testing.assert_allclose(pc.g, v, rtol=0, atol=1e-13)
        np.testing.assert_allclose(pc.w, u, rtol=0, atol=1e-13)


class TestOneBuildPerDecomposition:
    @pytest.mark.parametrize("mode", ["paper_literal", "dd_corrected"])
    def test_factors_are_left_read_only(self, mode):
        dec = decompose(DenseCore(random_channel(6)), 4)
        pc = build_precoder_combiner(dec, 1, 2, 2, mode)
        for factor in (pc.g, pc.w, dec.u, dec.v):
            assert not factor.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                factor[0, 0] = 0.0

    @pytest.mark.parametrize("first", ["paper_literal", "dd_corrected"])
    @pytest.mark.parametrize("second", ["paper_literal", "dd_corrected"])
    def test_a_second_build_is_refused(self, first, second):
        dec = decompose(DenseCore(random_channel(6)), 4)
        pc = build_precoder_combiner(dec, 1, 2, 2, first)
        g = pc.g.copy()
        with pytest.raises(ValueError, match="already used by a precoder/combiner"):
            build_precoder_combiner(dec, 1, 2, 2, second)
        np.testing.assert_array_equal(pc.g, g)

    def test_a_copy_builds_a_second_pair(self):
        dec = decompose(DenseCore(random_channel(6)), 4)
        spare = _copy(dec)
        first = build_precoder_combiner(dec, 1, 2, 2)
        np.testing.assert_allclose(build_precoder_combiner(spare, 1, 2, 2).g, first.g, rtol=0, atol=1e-13)

    def test_factors_other_than_complex128_are_refused(self):
        dec = precoding.SubChannelDecomposition(u=np.eye(4), sigma=np.ones(4), v=np.eye(4), rank=4)
        with pytest.raises(ValueError, match="factor u must be complex128"):
            build_precoder_combiner(dec, 1, 2, 2)


class TestEffectiveDdChannel:
    def test_dd_corrected_diagonalizes(self):
        for seed in range(50):
            h = random_channel(seed, n_ant=2, grid=2, n_paths=2)
            try:
                dec = decompose(DenseCore(h), 4)
            except RankDeficientChannelError:
                continue
            pc = build_precoder_combiner(dec, 1, 2, 2, "dd_corrected")
            eff = effective_dd_channel(h, pc, 1, 2, 2)
            gains = sub_channel_gains(dec)
            off = eff - np.diag(np.diag(eff))
            assert np.linalg.norm(off) < 1e-10 * np.linalg.norm(np.diag(np.diag(eff)))
            np.testing.assert_allclose(np.diag(eff), gains, atol=1e-10 * gains[0])

    def test_literal_mode_returned_as_is(self):
        h = random_channel(1)
        dec = decompose(DenseCore(h), 4)
        pc = build_precoder_combiner(dec, 1, 2, 2, "paper_literal")
        eff = effective_dd_channel(h, pc, 1, 2, 2)
        c_t, c_r = dd_transform_matrices(1, 2, 2)
        expected = c_r @ pc.w.conj().T @ h @ pc.g @ c_t
        np.testing.assert_allclose(eff, expected)
        # generally not diagonal: the literal factors ignore the DD transforms
        off = eff - np.diag(np.diag(eff))
        assert np.linalg.norm(off) > 1e-6

    def test_literal_mode_diagonal_without_doppler_dft(self):
        # N = 1: the DD transforms are the identity, so even the literal
        # factors diagonalize and the diagonal is exactly the leading gains
        h = dense_h(
            sample_channel(
                SimConfig(n_tx=2, n_rx=2, n_rf=1, m_delay=4, n_doppler=1, n_paths=4,
                          max_delay_tap=3, max_doppler_tap=0),
                15,
            )
        )
        dec = decompose(DenseCore(h), 4)
        pc = build_precoder_combiner(dec, 1, 4, 1, "paper_literal")
        eff = effective_dd_channel(h, pc, 1, 4, 1)
        gains = sub_channel_gains(dec)
        np.testing.assert_allclose(np.diag(eff), gains, atol=1e-12 * gains[0])
        off = eff - np.diag(np.diag(eff))
        assert np.linalg.norm(off) < 1e-12 * gains[0]

    def test_scaling_linearity(self):
        h = random_channel(2)
        dec = decompose(DenseCore(h), 4)
        pc = build_precoder_combiner(dec, 1, 2, 2, "dd_corrected")
        eff = effective_dd_channel(h, pc, 1, 2, 2)
        scaled = effective_dd_channel(3.0 * h, pc, 1, 2, 2)
        # off-diagonal entries are exact zeros up to rounding, so compare absolutely
        assert np.max(np.abs(scaled - 3.0 * eff)) < 1e-12 * np.linalg.norm(eff)

    def test_modes_share_singular_values(self):
        h = random_channel(7)
        dec = decompose(DenseCore(h), 4)
        effs = [
            effective_dd_channel(h, build_precoder_combiner(_copy(dec), 1, 2, 2, mode), 1, 2, 2)
            for mode in ("paper_literal", "dd_corrected")
        ]
        np.testing.assert_allclose(
            np.linalg.svd(effs[0], compute_uv=False),
            np.linalg.svd(effs[1], compute_uv=False),
            atol=1e-10,
        )

    def test_noise_statistics_preserved(self):
        h = random_channel(8)
        dec = decompose(DenseCore(h), 4)
        pc = build_precoder_combiner(dec, 1, 2, 2, "dd_corrected")
        _, c_r = dd_transform_matrices(1, 2, 2)
        cov = c_r @ pc.w.conj().T @ pc.w @ c_r.conj().T
        assert np.max(np.abs(cov - np.eye(4))) < 1e-10

    def test_shape_validation(self):
        h = random_channel(9)
        dec = decompose(DenseCore(h), 4)
        pc = build_precoder_combiner(dec, 1, 2, 2)
        with pytest.raises(ValueError):
            effective_dd_channel(h[:, :4], pc, 1, 2, 2)


class TestSubChannelGains:
    def test_identity_channel(self):
        gains = sub_channel_gains(decompose(DenseCore(np.eye(4)), 4))
        np.testing.assert_allclose(gains, np.ones(4))

    def test_takes_leading_values(self):
        gains = sub_channel_gains(decompose(DenseCore(np.diag([4.0, 3.0, 2.0, 1.0])), 2))
        np.testing.assert_allclose(gains, [4.0, 3.0])

    def test_matches_eig_oracle(self):
        h = random_channel(10)
        expected = np.sqrt(np.maximum(np.linalg.eigvalsh(h.conj().T @ h), 0.0))[::-1][:4]
        np.testing.assert_allclose(sub_channel_gains(decompose(DenseCore(h), 4)), expected, atol=1e-8)

    def test_descending(self):
        gains = sub_channel_gains(decompose(DenseCore(random_channel(11)), 4))
        assert np.all(np.diff(gains) <= 0)

    def test_scaling(self):
        h = random_channel(12)
        g1 = sub_channel_gains(decompose(DenseCore(h), 4))
        g2 = sub_channel_gains(decompose(DenseCore(2.5 * h), 4))
        np.testing.assert_allclose(g2, 2.5 * g1, rtol=1e-10)

    def test_rank_deficiency(self):
        with pytest.raises(RankDeficientChannelError, match="channel rank 1 cannot carry 4 streams"):
            decompose(DenseCore(np.diag([1.0, 0.0, 0.0, 0.0])), 4)


class TestSpatialCoreRoute:
    """The link's decomposition (SVD of the spatial core) against the dense SVD of H."""

    SHAPES = pytest.mark.parametrize(
        "n_tx, n_rx, n_paths, n_rf",
        [(3, 5, 4, 2), (6, 6, 3, 2), (2, 3, 7, 2), (4, 4, 1, 1)],
        ids=["n_tx_ne_n_rx", "paths_below_antennas", "paths_above_antennas", "one_path"],
    )

    @staticmethod
    def _chan(n_tx, n_rx, n_paths, seed=16):
        cfg = SimConfig(n_tx=n_tx, n_rx=n_rx, n_rf=1, m_delay=2, n_doppler=3, n_paths=n_paths,
                        max_delay_tap=5, max_doppler_tap=2)
        return sample_channel(cfg, seed)

    @SHAPES
    def test_gains_and_rank_match_the_dense_svd(self, n_tx, n_rx, n_paths, n_rf):
        chan = self._chan(n_tx, n_rx, n_paths)
        h, core = DenseCore(dense_h(chan)), spatial_core(chan)
        rank = min(n_tx, n_rx, n_paths) * chan.mn
        dense = decompose(h, rank)
        np.testing.assert_allclose(decompose(core, rank).sigma, dense.sigma, rtol=0, atol=1e-12 * dense.sigma[0])
        for c in (h, core):
            with pytest.raises(RankDeficientChannelError, match=f"channel rank {rank} cannot carry {rank + 1}"):
                decompose(c, rank + 1)
        k = n_rf * chan.mn
        gains = realize(chan, n_rf, "dd_corrected").gains
        np.testing.assert_allclose(gains, dense.sigma[:k], rtol=1e-12, atol=0)

    @SHAPES
    def test_lifted_pairs_are_singular_vectors_of_h(self, n_tx, n_rx, n_paths, n_rf):
        # paper_literal keeps realize's lifted factors as they are: g = V, w = U
        chan = self._chan(n_tx, n_rx, n_paths)
        real = realize(chan, n_rf, "paper_literal")
        h, u, v, sigma = dense_time_channel(real.h), real.pc.w, real.pc.g, real.gains
        k = n_rf * chan.mn
        assert u.shape == (h.shape[0], k) and v.shape == (h.shape[1], k)
        tol = 1e-12 * sigma[0]
        assert np.max(np.abs(h @ v - u * sigma)) < tol
        assert np.max(np.abs(h.conj().T @ u - v * sigma)) < tol
        for f in (u, v):
            np.testing.assert_allclose(f.conj().T @ f, np.eye(k), atol=1e-12)

    @pytest.mark.parametrize("mode", ["dd_corrected", "paper_literal"])
    def test_precoder_combiner_diagonalize_the_dense_h(self, mode):
        chan = self._chan(5, 3, 2)  # more antennas than paths: the core is smaller than H
        real = realize(chan, 2, mode)
        eff = real.pc.w.conj().T @ dense_time_channel(real.h) @ real.pc.g
        if mode == "dd_corrected":
            c_t, c_r = dd_transform_matrices(2, 2, 3)
            eff = c_r @ eff @ c_t
        np.testing.assert_allclose(eff, np.diag(real.gains), atol=1e-12 * real.gains[0])

    def test_rank_deficient_core_raises(self):
        # one path carries MN streams, not the 2*MN of two chains
        chan = self._chan(4, 4, 1)
        core = spatial_core(chan)
        assert decompose(core, chan.mn).rank == chan.mn
        with pytest.raises(RankDeficientChannelError, match=f"channel rank {chan.mn} cannot carry {2 * chan.mn}"):
            decompose(core, 2 * chan.mn)
        with pytest.raises(RankDeficientChannelError):
            realize(chan, 2, "dd_corrected")


def _complex_gaussian(rows, cols, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def _dense(rows, cols, seed):
    """A Gaussian matrix as ``decompose`` takes it, and as itself."""
    h = _complex_gaussian(rows, cols, seed)
    return DenseCore(h), h


def _core(n_tx, n_rx, n_paths):
    """A channel's path-built spatial core, and the dense H it stands for."""
    chan = TestSpatialCoreRoute._chan(n_tx, n_rx, n_paths)
    return spatial_core(chan), dense_h(chan)


def _assert_leading_triplets(c, dec, k):
    """``dec`` holds ``k`` leading singular triplets of the dense ``c``, by ``np.linalg.svd``."""
    s = np.linalg.svd(c, compute_uv=False)
    assert dec.u.shape == (c.shape[0], k) and dec.v.shape == (c.shape[1], k)
    tol = 1e-12 * s[0]
    np.testing.assert_allclose(dec.sigma, s[:k], rtol=0, atol=tol)
    assert np.max(np.abs(c @ dec.v - dec.u * dec.sigma)) < tol
    assert np.max(np.abs(c.conj().T @ dec.u - dec.v * dec.sigma)) < tol
    for f in (dec.u, dec.v):
        np.testing.assert_allclose(f.conj().T @ f, np.eye(k), rtol=0, atol=1e-12)


@pytest.fixture
def lapack_calls(monkeypatch):
    """Records the ``k`` of every decomposition that took the LAPACK route."""
    calls = []
    real = precoding._lapack_eigenpairs

    def counted(routines, g, k):
        calls.append(k)
        return real(routines, g, k)

    monkeypatch.setattr(precoding, "_lapack_eigenpairs", counted)
    return calls


class TestSubsetDecompose:
    """``decompose(core, k)`` against the full ``np.linalg.svd`` of the dense ``c``."""

    @pytest.mark.parametrize(
        "case, k",
        [
            (_core(8, 8, 10), 12),  # 48 x 48 core, n_rf = 2: k is a quarter of the side
            (_core(4, 6, 10), 6),  # 36 x 24 core, n_rf = 1
            (_core(6, 4, 10), 6),  # 24 x 36 core
            (_core(6, 6, 10), 12),  # 36 x 36 core, n_rf = 2: k is a third of the side
            (_core(3, 5, 10), 6),  # 30 x 18 core
            (_dense(96, 64, 1), 16),
            (_dense(64, 96, 2), 16),
            (_dense(96, 64, 3), 17),
            (_dense(96, 64, 9), 32),
            (_dense(64, 96, 10), 32),
            (_dense(96, 64, 11), 64),
            (_dense(64, 96, 12), 64),
        ],
        ids=["core_square", "core_tall", "core_wide", "core_square_full", "core_tall_full",
             "tall", "wide", "tall_just_above_a_quarter", "tall_half", "wide_half", "tall_all",
             "wide_all"],
    )
    def test_matches_the_full_svd_truncated(self, lapack_calls, case, k):
        core, c = case
        before = c.copy()
        dec = decompose(core, k)
        assert np.array_equal(c, before)
        assert lapack_calls == [k]
        assert dec.rank == k
        _assert_leading_triplets(c, dec, k)

    @pytest.mark.parametrize("route", ["zheevr", "eigh"])
    @pytest.mark.parametrize(
        "rows, cols, rank, k",
        [(64, 80, 10, 16), (80, 64, 10, 16), (6, 4, 4, 9), (4, 6, 4, 5)],
        ids=["rank_below_k", "rank_below_k_tall", "k_above_the_side", "k_above_the_side_wide"],
    )
    def test_raises_naming_the_rank_and_k(self, monkeypatch, lapack_calls, route, rows, cols, rank, k):
        c = _complex_gaussian(rows, rank, 4) @ _complex_gaussian(rank, cols, 5)
        s = np.linalg.svd(c, compute_uv=False)
        if route == "eigh":
            monkeypatch.setattr(precoding, "_gram_routines", lambda: None)
        with pytest.raises(RankDeficientChannelError, match=f"channel rank {rank} cannot carry {k} streams"):
            decompose(DenseCore(c), k)
        # the leading triplets up to the rank still decompose
        dec = decompose(DenseCore(c), rank)
        np.testing.assert_allclose(dec.sigma, s[:rank], rtol=0, atol=1e-12 * s[0])
        assert lapack_calls == ([] if route == "eigh" else [min(k, rows, cols), rank])

    def test_k_below_one_rejected(self):
        with pytest.raises(ValueError, match="k must be >= 1"):
            decompose(DenseCore(np.eye(4)), 0)

    def test_subset_branch_needs_no_numpy_svd(self, monkeypatch, lapack_calls):
        c = _complex_gaussian(64, 48, 7)
        s = np.linalg.svd(c, compute_uv=False)

        def no_svd(*args, **kwargs):
            raise AssertionError("np.linalg.svd called by decompose")

        monkeypatch.setattr(np.linalg, "svd", no_svd)
        for k in (16, 48):
            dec = decompose(DenseCore(c), k)
            np.testing.assert_allclose(dec.sigma, s[:k], rtol=0, atol=1e-12 * s[0])
        assert lapack_calls == [16, 48]

    @pytest.mark.parametrize("routine", sorted(precoding._LAPACKE_SYMBOLS))
    def test_falls_back_to_eigh_when_missing(self, monkeypatch, lapack_calls, routine):
        eigh_calls = []
        real_eigh = np.linalg.eigh

        def counted_eigh(a, *args, **kwargs):
            eigh_calls.append(a.shape)
            return real_eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
        monkeypatch.setitem(precoding._LAPACKE_SYMBOLS, routine, ("otfslink_no_such_symbol",))
        precoding._gram_routines.cache_clear()
        try:
            assert precoding._gram_routines() is None
            tall, wide = _complex_gaussian(64, 48, 8), _complex_gaussian(48, 64, 13)
            decs = [decompose(DenseCore(c), 16) for c in (tall, wide)]
        finally:
            precoding._gram_routines.cache_clear()  # resolved again once the symbols are restored
        assert lapack_calls == [] and eigh_calls == [(48, 48), (48, 48)]
        for c, dec in zip((tall, wide), decs):
            assert dec.rank == 16
            _assert_leading_triplets(c, dec, 16)


@pytest.fixture(params=["lapack", "eigh"])
def route(request, monkeypatch):
    """Each of decompose's two routes; the LAPACK one records the order of ``zstein``'s eigenvalues.

    ``zstein`` takes them grouped by block of the tridiagonal, ascending in
    each, so an order other than ascending means split blocks whose
    eigenvalues interleave and whose vectors ``decompose`` puts in order.
    """
    orders = []
    if request.param == "eigh":
        monkeypatch.setattr(precoding, "_gram_routines", lambda: None)
    else:
        zhetrd, dsterf, zstein, zunmtr = precoding._gram_routines()

        def recorded(layout, n, d, e, m, w, *rest):
            values = np.ctypeslib.as_array(ctypes.cast(w, ctypes.POINTER(ctypes.c_double)), (m,))
            orders.append(np.argsort(values, kind="stable").tolist())
            return zstein(layout, n, d, e, m, w, *rest)

        monkeypatch.setattr(precoding, "_gram_routines", lambda: (zhetrd, dsterf, recorded, zunmtr))
    return request.param, orders


class TestSplitTridiagonal:
    """Gram matrices whose tridiagonal form splits into blocks, with repeated eigenvalues."""

    def test_a_scaled_identity_gram_matrix(self, route):
        # every tap 0 on a 1x1-antenna link makes C, and so G, a multiple of I: T = c I splits
        # everywhere. Solved as one block, about 2% of these draws fail to converge in zstein.
        cfg = SimConfig(n_tx=1, n_rx=1, n_rf=1, n_paths=3, m_delay=1, n_doppler=2,
                        max_delay_tap=0, max_doppler_tap=0)
        for seed in (1048577, *range(200)):
            chan = sample_channel(cfg, seed)
            core, c = spatial_core(chan), dense_h(chan)
            assert np.array_equal(c, c[0, 0] * np.eye(2))
            for k in (1, 2):
                _assert_leading_triplets(c, decompose(core, k), k)

    @pytest.mark.parametrize("wide", [False, True], ids=["tall", "wide"])
    def test_interleaved_and_repeated_blocks(self, route, wide):
        # G = diag(A A^H, B B^H, A A^H): the blocks' spectra interleave and A's comes twice
        a, b = _complex_gaussian(3, 4, 30), _complex_gaussian(2, 3, 31)
        c = block_diag(a, b, a)
        c = c if wide else c.T
        side = min(c.shape)
        for k in range(1, side + 1):
            _assert_leading_triplets(c, decompose(DenseCore(c), k), k)
        name, orders = route
        if name == "lapack":  # the rows came back grouped by block and were put in order
            assert any(order != sorted(order) for order in orders)

    @pytest.mark.parametrize("n_tx, n_rx", [(3, 5), (5, 3)], ids=["tall", "wide"])
    def test_every_k_up_to_the_side(self, route, n_tx, n_rx):
        core, c = _core(n_tx, n_rx, 10)
        assert core.wide == (n_tx > n_rx)
        for k in range(1, core.side + 1):
            _assert_leading_triplets(c, decompose(core, k), k)


class TestTripletsOfH:
    """``decompose(spatial_core(chan), k)`` gives singular triplets of the dense H on both routes."""

    @pytest.mark.parametrize(
        "n_tx, n_rx, n_paths",
        [(2, 3, 4), (3, 2, 4), (2, 6, 4), (6, 2, 4), (5, 4, 4), (5, 6, 3)],
        ids=["tall_both_below", "wide_both_below", "tall_rx_above", "wide_tx_above", "tall_tx_above",
             "tall_both_above"],
    )
    def test_leading_triplets_of_h(self, route, n_tx, n_rx, n_paths):
        # "above": that side has more antennas than paths, so its Q is tall. Seed 22
        # draws H's rank-th singular value above 4% of the largest on every shape:
        # the Gram route's vectors lose orthogonality as eps * (sigma_max / sigma)**2,
        # 4e-9 at seed 16's 4e-5, on either side's coordinates alike.
        chan = TestSpatialCoreRoute._chan(n_tx, n_rx, n_paths, seed=22)
        core, h = spatial_core(chan), dense_h(chan)
        assert core.wide == (min(n_rx, n_paths) < min(n_tx, n_paths))
        n_in = n_rx if core.wide else n_tx
        assert core.q_in.shape == (n_in, min(n_in, n_paths))
        for k in (1, core.side // 2, core.side):
            _assert_leading_triplets(h, decompose(core, k), k)


@pytest.mark.parametrize("factor", [1e-100, 1e100])
def test_gram_entries_beyond_lapacks_safe_range(route, factor):
    # G's entries near 1e-200 or 1e200: their squares underflow or overflow unless G is scaled first
    c = factor * _complex_gaussian(24, 16, 32)
    _assert_leading_triplets(c, decompose(DenseCore(c), 8), 8)


@dataclass(frozen=True, eq=False)
class _LitterBelowTheDiagonal(DenseCore):
    """A ``DenseCore`` whose Gram matrix holds NaN and a finite value, alternately, below the diagonal.

    :func:`decompose` reads only the entries with column >= row, so it must
    neither read nor write the others. ``last`` keeps the array ``gram()``
    returned and what was written below its diagonal.
    """

    last: dict = field(default_factory=dict)

    def gram(self):
        g = super().gram()
        lower = np.tril_indices(g.shape[0], -1)
        below = np.where(np.arange(lower[0].size) % 2, np.nan, 3.0 - 4.0j)
        g[lower] = below
        self.last.update(g=g, below=below)
        return g


@pytest.mark.parametrize("factor", [1.0, 2.0**140], ids=["in_range", "rescaled"])
@pytest.mark.parametrize("wide", [False, True], ids=["tall", "wide"])
def test_the_gram_matrix_below_its_diagonal_is_neither_read_nor_written(route, factor, wide):
    # NaN there fails a NaN scan of the whole square and an eigh of the other triangle; the
    # finite value changes under a rescale of the whole square. 2**140 puts G's entries above
    # 2**255, where decompose rescales G.
    c = factor * _complex_gaussian(24, 16, 33)
    c = c.T if wide else c
    full = decompose(DenseCore(c), 8)
    core = _LitterBelowTheDiagonal(c)
    litter = decompose(core, 8)
    for name in ("u", "sigma", "v"):
        assert np.array_equal(getattr(litter, name), getattr(full, name)), name
    g = core.last["g"]
    assert g[np.tril_indices(g.shape[0], -1)].tobytes() == core.last["below"].tobytes()


def _run_python(code, *args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code), *map(str, args)],
        env=env, check=True, capture_output=True, text=True,
    ).stdout


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/maps")
def test_one_openblas_file_after_a_realization():
    code = """
        import ctypes, sys
        from otfslink import precoding
        from otfslink.channel import sample_channel
        from otfslink.cli import parse_config
        from otfslink.link_sim import realize

        sim = parse_config(sys.argv[1]).sim
        realize(sample_channel(sim, 0), sim.n_rf, sim.precoder_mode)
        spans = []  # (start, end, path) of every mapping of an OpenBLAS file
        with open("/proc/self/maps") as fh:
            for line in fh:
                if "openblas" in line.lower():
                    bounds, *_, path = line.split(maxsplit=5)
                    spans.append([*(int(b, 16) for b in bounds.split("-")), path.strip()])
        for routine in precoding._gram_routines():
            address = ctypes.cast(routine, ctypes.c_void_p).value
            print(routine.__name__, *{path for start, end, path in spans if start <= address < end})
        print(*sorted({path for *_, path in spans}))
        """
    *routines, mapped = _run_python(code, ROOT / "configs" / "default.json").splitlines()
    assert len(mapped.split()) == 1, mapped
    # each of the four routines resolves inside the one OpenBLAS file mapped
    assert len(routines) == len(precoding._LAPACKE_SYMBOLS)
    for line, symbols in zip(routines, precoding._LAPACKE_SYMBOLS.values()):
        name, *home = line.split()
        assert name in symbols and home == [mapped], line
    # and they are the only BLAS/LAPACK routines the package binds
    sources = {path.name: path.read_text() for path in (ROOT / "src" / "otfslink").glob("*.py")}
    assert not [name for name, text in sources.items() if "zheevr" in text or "zherk" in text]


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_a_mapped_gram_matrix_commits_little_more_than_its_stored_triangle():
    # the 1024-square Gram matrix of 8x8 antennas on an 8x16 grid, put in a mapping
    # though it is below the mapping size: its rows span 4 pages, so the stored
    # triangle commits 5/8 of its pages. Committing all of them, as a read or a
    # write of the other triangle would, raised the peak by 1.55 core-sized
    # matrices; the mapped triangle raises it by about 1.3.
    code = """
        from otfslink import channel, link_sim
        from otfslink.channel import sample_channel
        from otfslink.link_sim import SimConfig, realize

        def peak():  # bytes
            with open("/proc/self/status") as fh:
                return int(next(line for line in fh if line.startswith("VmHWM:")).split()[1]) * 1024

        seen = {}
        decompose = link_sim.decompose

        def measured(core, k):
            before = peak()
            dec = decompose(core, k)
            seen.update(side=core.side, rise=peak() - before)
            return dec

        channel._GRAM_MAPPING_BYTES = 0
        link_sim.decompose = measured
        cfg = SimConfig(m_delay=8, n_doppler=16)
        realize(sample_channel(cfg, 0), cfg.n_rf, cfg.precoder_mode)
        print(seen["side"], seen["rise"] / (16 * seen["side"] ** 2))
        """
    side, rise = _run_python(code).split()
    assert int(side) == 1024
    assert float(rise) < 1.45, f"decompose raised the peak RSS by {float(rise):.2f} core-sized matrices"


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_decompose_raises_peak_memory_by_under_1_75_core_sized_matrices():
    # realize with 8x8 antennas on an 8x16 grid: a 1024-square Gram matrix,
    # k = 256. Its decomposition holds the Gram matrix, the k eigenvectors
    # and the other side's k vectors, never the core itself: a dense core or
    # a copy of the Gram matrix would add one more core-sized matrix
    # (16*side**2 bytes). The core's own construction allocates next to nothing.
    # VmHWM is the peak of this process image; ru_maxrss would carry over the
    # peak of the forked test runner across exec.
    code = """
        import tracemalloc
        from otfslink import link_sim
        from otfslink.channel import sample_channel
        from otfslink.link_sim import SimConfig, realize

        def peak():  # bytes
            with open("/proc/self/status") as fh:
                return int(next(line for line in fh if line.startswith("VmHWM:")).split()[1]) * 1024

        seen = {}
        build_core, decompose = link_sim.spatial_core, link_sim.decompose

        def traced_core(chan):
            tracemalloc.start()
            out = build_core(chan)
            seen["core"] = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            return out

        def measured(core, k):
            before = peak()
            dec = decompose(core, k)
            seen.update(side=core.side, rank=dec.rank, rise=peak() - before)
            return dec

        link_sim.spatial_core, link_sim.decompose = traced_core, measured
        cfg = SimConfig(m_delay=8, n_doppler=16)
        realize(sample_channel(cfg, 0), cfg.n_rf, cfg.precoder_mode)
        unit = 16 * seen["side"] ** 2
        print(seen["side"], seen["rank"], seen["rise"] / unit, seen["core"] / unit)
        """
    side, rank, rise, core = _run_python(code).split()
    assert (int(side), int(rank)) == (1024, 256)
    assert float(rise) < 1.75, f"decompose raised the peak RSS by {float(rise):.2f} core-sized matrices"
    assert float(core) < 0.01, f"spatial_core allocated {float(core):.2f} core-sized matrices"
