"""SVD decomposition and precoder/combiner tests, with eigenvalue oracles."""

import ctypes
import mmap
import os
import subprocess
import sys
import textwrap
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.linalg import block_diag

from otfslink import precoding
from otfslink.channel import build_time_channel, sample_channel, spatial_core
from otfslink.dd_transforms import dft_matrix
from otfslink.link_sim import SimConfig, realize
from otfslink.precoding import (
    RankDeficientChannelError,
    build_precoder_combiner,
    dd_transform_matrices,
    decompose,
    sub_channel_gains,
)
from otfslink.validation import DenseCore, dense_time_channel, effective_dd_channel, h_factors

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

    @pytest.mark.parametrize("layout", ["square", "packed", "eigh"])
    def test_checks_hold_for_both_layouts(self, monkeypatch, layout):
        if layout == "square":
            monkeypatch.setattr(precoding, "_GRAM_MAPPING_BYTES", 0)
        elif layout == "eigh":  # a square, as np.linalg.eigh takes it
            monkeypatch.setattr(precoding, "_gram_routines", lambda: None)
        sizes = []
        real = precoding.gram_zeros

        def recorded(side):
            g, offsets = real(side)
            sizes.append(g.size)
            return g, offsets

        monkeypatch.setattr(precoding, "gram_zeros", recorded)

        def core(g):  # only side, mn and gram() are read before these errors
            g = np.asarray(g, dtype=complex)
            return SimpleNamespace(side=g.shape[0], mn=1, gram=lambda: [(0, g[None])], scale=1.0, wide=False)

        for g in (np.diag([1.0, np.nan]), np.diag([np.inf, 1.0, 1.0]), np.zeros((0, 0))):
            with pytest.raises(ValueError, match="Gram matrix must be finite and non-empty"):
                decompose(core(g), 1)
        with pytest.raises(RankDeficientChannelError, match="channel rank 1 cannot carry 2 streams"):
            decompose(core(np.diag([2.0, 0.0, 0.0])), 2)
        # sides 2, 3, 0 and 3: squares, or packed triangles
        assert sizes == {"square": [4, 9, 0, 9], "packed": [3, 6, 0, 6], "eigh": [4, 9, 0, 9]}[layout]


class TestPrecoderCombiner:
    @pytest.mark.parametrize("m, n", [(1, 1), (2, 3), (4, 4), (8, 16)])
    def test_one_chains_transmit_transform_adjoint_is_its_receive_transform(self, m, n):
        # build_precoder_combiner folds both factors with one chain's C_R: every entry of
        # C_T^H equals C_R's exactly (their zeros may differ in sign)
        c_t, c_r = dd_transform_matrices(1, m, n)
        assert np.array_equal(c_t.conj().T, c_r)

    @pytest.mark.parametrize("n_rf, m, n", [(1, 1, 1), (1, 2, 3), (2, 4, 4), (3, 2, 5), (1, 16, 16)])
    def test_transmit_transform_equals_its_kronecker_form(self, n_rf, m, n):
        # C_T is returned as conj(C_R); in value it is I_{n_rf} kron (F_N^H kron I_M)
        c_t, _ = dd_transform_matrices(n_rf, m, n)
        f = dft_matrix(n)
        assert np.array_equal(c_t, np.kron(np.eye(n_rf), np.kron(f.conj().T, np.eye(m))))

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
        literal = build_precoder_combiner(_copy(dec), 4, 1, "paper_literal")
        corrected = build_precoder_combiner(dec, 4, 1, "dd_corrected")
        np.testing.assert_allclose(literal.g, corrected.g, atol=1e-12)
        np.testing.assert_allclose(literal.w, corrected.w, atol=1e-12)

    @pytest.mark.parametrize("mode", ["paper_literal", "dd_corrected"])
    def test_semi_unitary(self, mode):
        dec = decompose(DenseCore(random_channel(6)), 4)
        pc = build_precoder_combiner(dec, 2, 2, mode)
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
            build_precoder_combiner(dec, 2, 2, "bogus")

    @pytest.mark.parametrize("mode", ["paper_literal", "dd_corrected"])
    @pytest.mark.parametrize("u_cols, v_cols", [(8, 4), (4, 8), (6, 6)], ids=["u_wider", "v_wider", "no_multiple"])
    def test_factor_widths_other_than_equal_multiples_of_mn_are_refused_by_name(self, mode, u_cols, v_cols):
        # (m, n) = (2, 2): each chain takes 4 columns of both factors
        dec = precoding.SubChannelDecomposition(
            u=np.ones((9, u_cols), complex), sigma=np.ones(u_cols), v=np.ones((9, v_cols), complex), rank=u_cols
        )
        with pytest.raises(ValueError, match=rf"factors u and v have {u_cols} and {v_cols} columns; .* = \(2, 2\)"):
            build_precoder_combiner(dec, 2, 2, mode)
        assert dec.u.flags.writeable and dec.v.flags.writeable

    @pytest.mark.parametrize("mode", ["paper_literal", "dd_corrected"])
    def test_an_empty_grid_is_refused(self, mode):
        dec = decompose(DenseCore(np.eye(4)), 4)
        with pytest.raises(ValueError, match=r"^n must be >= 1, got 0$"):
            build_precoder_combiner(dec, 2, 0, mode)

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
        pc = build_precoder_combiner(dec, 2, 2, mode)
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
        pc = build_precoder_combiner(dec, 2, 2, mode)
        for factor in (pc.g, pc.w, dec.u, dec.v):
            assert not factor.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                factor[0, 0] = 0.0

    @pytest.mark.parametrize("first", ["paper_literal", "dd_corrected"])
    @pytest.mark.parametrize("second", ["paper_literal", "dd_corrected"])
    def test_a_second_build_is_refused(self, first, second):
        dec = decompose(DenseCore(random_channel(6)), 4)
        pc = build_precoder_combiner(dec, 2, 2, first)
        g = pc.g.copy()
        with pytest.raises(ValueError, match="already used by a precoder/combiner"):
            build_precoder_combiner(dec, 2, 2, second)
        np.testing.assert_array_equal(pc.g, g)

    def test_a_copy_builds_a_second_pair(self):
        dec = decompose(DenseCore(random_channel(6)), 4)
        spare = _copy(dec)
        first = build_precoder_combiner(dec, 2, 2)
        np.testing.assert_allclose(build_precoder_combiner(spare, 2, 2).g, first.g, rtol=0, atol=1e-13)

    def test_factors_other_than_complex128_are_refused(self):
        dec = precoding.SubChannelDecomposition(u=np.eye(4), sigma=np.ones(4), v=np.eye(4), rank=4)
        with pytest.raises(ValueError, match="factor u must be complex128"):
            build_precoder_combiner(dec, 2, 2)


class TestEffectiveDdChannel:
    def test_dd_corrected_diagonalizes(self):
        for seed in range(50):
            h = random_channel(seed, n_ant=2, grid=2, n_paths=2)
            try:
                dec = decompose(DenseCore(h), 4)
            except RankDeficientChannelError:
                continue
            pc = build_precoder_combiner(dec, 2, 2, "dd_corrected")
            eff = effective_dd_channel(h, pc, 1, 2, 2)
            gains = sub_channel_gains(dec)
            off = eff - np.diag(np.diag(eff))
            assert np.linalg.norm(off) < 1e-10 * np.linalg.norm(np.diag(np.diag(eff)))
            np.testing.assert_allclose(np.diag(eff), gains, atol=1e-10 * gains[0])

    def test_literal_mode_returned_as_is(self):
        h = random_channel(1)
        dec = decompose(DenseCore(h), 4)
        pc = build_precoder_combiner(dec, 2, 2, "paper_literal")
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
        pc = build_precoder_combiner(dec, 4, 1, "paper_literal")
        eff = effective_dd_channel(h, pc, 1, 4, 1)
        gains = sub_channel_gains(dec)
        np.testing.assert_allclose(np.diag(eff), gains, atol=1e-12 * gains[0])
        off = eff - np.diag(np.diag(eff))
        assert np.linalg.norm(off) < 1e-12 * gains[0]

    def test_scaling_linearity(self):
        h = random_channel(2)
        dec = decompose(DenseCore(h), 4)
        pc = build_precoder_combiner(dec, 2, 2, "dd_corrected")
        eff = effective_dd_channel(h, pc, 1, 2, 2)
        scaled = effective_dd_channel(3.0 * h, pc, 1, 2, 2)
        # off-diagonal entries are exact zeros up to rounding, so compare absolutely
        assert np.max(np.abs(scaled - 3.0 * eff)) < 1e-12 * np.linalg.norm(eff)

    def test_modes_share_singular_values(self):
        h = random_channel(7)
        dec = decompose(DenseCore(h), 4)
        effs = [
            effective_dd_channel(h, build_precoder_combiner(_copy(dec), 2, 2, mode), 1, 2, 2)
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
        pc = build_precoder_combiner(dec, 2, 2, "dd_corrected")
        _, c_r = dd_transform_matrices(1, 2, 2)
        cov = c_r @ pc.w.conj().T @ pc.w @ c_r.conj().T
        assert np.max(np.abs(cov - np.eye(4))) < 1e-10

    def test_shape_validation(self):
        h = random_channel(9)
        dec = decompose(DenseCore(h), 4)
        pc = build_precoder_combiner(dec, 2, 2)
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
        # paper_literal keeps realize's factors as they are, g = V and w = U in the
        # core's bases; lifted through them, they are H's
        chan = self._chan(n_tx, n_rx, n_paths)
        real = realize(chan, n_rf, "paper_literal")
        (u, v), h, sigma = h_factors(real, real.pc.w, real.pc.g), dense_time_channel(real.h), real.gains
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
        w, g = h_factors(real, real.pc.w, real.pc.g)
        eff = w.conj().T @ dense_time_channel(real.h) @ g
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


def _in_h(core, dec):
    """``dec``'s triplets in the dense H's coordinates: its factors lifted through ``core``'s bases."""
    u, v = h_factors(core, dec.u, dec.v)
    return replace(dec, u=u, v=v)


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

    def counted(routines, g, offsets, k):
        calls.append(k)
        return real(routines, g, offsets, k)

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
        _assert_leading_triplets(c, _in_h(core, dec), k)

    @pytest.mark.parametrize("route", ["lapack", "eigh"])
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
        core, h = _core(3, 5, 10)  # an 18-square Gram matrix, which the LAPACK route packs
        try:
            assert precoding._gram_routines() is None
            assert precoding.gram_matrix(core)[0].shape == (18 * 18,)  # a plain square for eigh
            tall, wide = _complex_gaussian(64, 48, 8), _complex_gaussian(48, 64, 13)
            decs = [decompose(DenseCore(c), 16) for c in (tall, wide)]
            spatial = decompose(core, 6)
        finally:
            precoding._gram_routines.cache_clear()  # resolved again once the symbols are restored
        assert lapack_calls == [] and eigh_calls == [(48, 48), (48, 48), (18, 18)]
        for c, dec in zip((tall, wide), decs):
            assert dec.rank == 16
            _assert_leading_triplets(c, dec, 16)
        _assert_leading_triplets(h, _in_h(core, spatial), 6)


@pytest.fixture(params=["lapack", "packed", "eigh"])
def route(request, monkeypatch):
    """Each of decompose's routes; the LAPACK ones record the order of ``zstein``'s eigenvalues.

    ``lapack`` reduces a square Gram matrix by ``zhetrd`` (the mapping
    size set to 0 puts every G in a mapped square), ``packed`` a packed one
    by ``zhptrd`` (every G here is small enough to be packed), and ``eigh``
    takes ``np.linalg.eigh`` of a plain square. Both cores get their G's
    storage from ``decompose``, so the one constant steers them alike. Each
    LAPACK route must reduce every G by its own routine. ``zstein`` takes the
    eigenvalues grouped by block of the tridiagonal, ascending in each, so
    an order other than ascending means split blocks whose eigenvalues
    interleave and whose vectors ``decompose`` puts in order.
    """
    name, orders, reductions = request.param, [], []
    if name == "eigh":
        monkeypatch.setattr(precoding, "_gram_routines", lambda: None)
    else:
        if name == "lapack":
            monkeypatch.setattr(precoding, "_GRAM_MAPPING_BYTES", 0)
        routines = precoding._gram_routines()

        def reduction(routine, layout):
            def recorded(*args):
                reductions.append(layout)
                return routine(*args)
            return recorded

        def recorded(layout, n, d, e, m, w, *rest):
            values = np.ctypeslib.as_array(ctypes.cast(w, ctypes.POINTER(ctypes.c_double)), (m,))
            orders.append(np.argsort(values, kind="stable").tolist())
            return routines.dstein(layout, n, d, e, m, w, *rest)

        chain = routines._replace(zhetrd=reduction(routines.zhetrd, "lapack"),
                                  zhptrd=reduction(routines.zhptrd, "packed"), dstein=recorded)
        monkeypatch.setattr(precoding, "_gram_routines", lambda: chain)
    yield name, orders
    assert set(reductions) == (set() if name == "eigh" else {name})


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
                _assert_leading_triplets(c, _in_h(core, decompose(core, k)), k)

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
        if name != "eigh":  # the rows came back grouped by block and were put in order
            assert any(order != sorted(order) for order in orders)

    @pytest.mark.parametrize("n_tx, n_rx", [(3, 5), (5, 3)], ids=["tall", "wide"])
    def test_every_k_up_to_the_side(self, route, n_tx, n_rx):
        core, c = _core(n_tx, n_rx, 10)
        assert core.wide == (n_tx > n_rx)
        for k in range(1, core.side + 1):
            _assert_leading_triplets(c, _in_h(core, decompose(core, k)), k)


@pytest.mark.parametrize("n_tx, n_rx, n_paths", [(3, 5, 10), (5, 3, 10), (6, 6, 3)],
                         ids=["tall", "wide", "paths_below_antennas"])
def test_one_core_decomposes_alike_packed_and_square(monkeypatch, n_tx, n_rx, n_paths):
    core, h = _core(n_tx, n_rx, n_paths)
    k = core.side // 2
    reconstructions = []
    for limit, size in ((16 * core.side**2, core.side * (core.side + 1) // 2), (0, core.side**2)):
        monkeypatch.setattr(precoding, "_GRAM_MAPPING_BYTES", limit)
        assert precoding.gram_matrix(core)[0].size == size
        dec = _in_h(core, decompose(core, k))
        _assert_leading_triplets(h, dec, k)
        reconstructions.append((dec.u * dec.sigma) @ dec.v.conj().T)  # free of each pair's phase
    packed, square = reconstructions
    assert np.max(np.abs(packed - square)) < 1e-12 * np.linalg.norm(h, 2)


def test_a_gram_matrix_of_side_one_decomposes_on_the_square_route(monkeypatch):
    # a one-entry G, mapped as a square, holds no reflector
    monkeypatch.setattr(precoding, "_GRAM_MAPPING_BYTES", 0)
    for c in (np.array([[2.0 + 1.0j]]), _complex_gaussian(3, 1, 36), _complex_gaussian(1, 3, 37)):
        assert _layout(*precoding.gram_matrix(DenseCore(c))) == "mapped"
        _assert_leading_triplets(c, decompose(DenseCore(c), 1), 1)


def test_the_square_routes_chunks_change_nothing_but_rounding(monkeypatch):
    # a 150-square G: its 2400-byte rows, and 32 of them, are no page multiple, so
    # every chunk but the first starts inside a page it shares with the row before,
    # which the next chunk still reads: releasing that page would zero a reflector
    # not yet applied. Chunks of 32 go to zunmqr's unblocked code, which rounds
    # otherwise than one call's blocks of 32.
    c = _complex_gaussian(180, 150, 34)
    monkeypatch.setattr(precoding, "_GRAM_MAPPING_BYTES", 0)
    assert precoding.gram_matrix(DenseCore(c))[0].size == 150**2
    decs = []
    for chunk in (32, 150):
        monkeypatch.setattr(precoding, "_BACK_TRANSFORM_CHUNK", chunk)
        decs.append(decompose(DenseCore(c), 48))
    chunked, whole = decs
    assert np.array_equal(chunked.sigma, whole.sigma)
    for name in ("u", "v"):
        np.testing.assert_allclose(getattr(chunked, name), getattr(whole, name), rtol=0, atol=1e-12)
    _assert_leading_triplets(c, chunked, 48)
    # chunks of a multiple of 32 above 32 apply the blocks one call would, bit for bit:
    # a 1000-square G, a multiple of neither chunk, so that each last chunk is partial
    c = _complex_gaussian(1010, 1000, 35)
    decs = []
    for chunk in (64, 256):
        monkeypatch.setattr(precoding, "_BACK_TRANSFORM_CHUNK", chunk)
        decs.append(decompose(DenseCore(c), 250))
    for name in ("u", "sigma", "v"):
        assert np.array_equal(getattr(decs[0], name), getattr(decs[1], name)), name
    _assert_leading_triplets(c, decs[0], 250)


def _layout(g, offsets):
    """The layout of a Gram matrix's storage: ``packed``, ``mapped`` (a square in a mapping) or ``square``."""
    if g.size < offsets.size**2:
        return "packed"
    base = g
    while isinstance(base, np.ndarray):
        base = base.base
    return "mapped" if isinstance(base, memoryview) and isinstance(base.obj, mmap.mmap) else "square"


def test_a_gram_matrix_above_the_mapping_size_is_mapped_with_the_same_bits(monkeypatch):
    # at most the mapping size, G comes packed; above it, a private mapping holds
    # the square, whose stored triangle holds the packed G's bits
    cfg = SimConfig(n_tx=4, n_rx=4, n_rf=1, m_delay=4, n_doppler=4, n_paths=6,
                    max_delay_tap=15, max_doppler_tap=7)
    core = spatial_core(sample_channel(cfg, 7))
    mapped = []
    real = mmap.mmap

    def counted(fileno, length, **kwargs):
        mapped.append((length, kwargs))
        return real(fileno, length, **kwargs)

    monkeypatch.setattr(precoding.mmap, "mmap", counted)
    nbytes = 16 * core.side**2
    monkeypatch.setattr(precoding, "_GRAM_MAPPING_BYTES", nbytes)
    packed, _ = precoding.gram_matrix(core)
    assert mapped == [] and packed.shape == (core.side * (core.side + 1) // 2,)
    monkeypatch.setattr(precoding, "_GRAM_MAPPING_BYTES", nbytes - 1)
    gram, offsets = precoding.gram_matrix(core)
    assert mapped == [(nbytes, {"flags": mmap.MAP_PRIVATE})]
    assert gram.flags.writeable and np.array_equal(offsets, np.arange(core.side) * core.side)
    gram = gram.reshape(core.side, core.side)
    assert gram[np.triu_indices(core.side)].tobytes() == packed.tobytes()
    assert not np.any(np.tril(gram, -1))


@pytest.mark.parametrize(
    "n_rx, m_delay, n_doppler, route, layout",
    [(8, 8, 8, "lapack", "packed"), (10, 8, 8, "lapack", "packed"), (8, 16, 16, "lapack", "mapped"),
     (8, 8, 8, "eigh", "mapped"), (10, 8, 8, "eigh", "mapped"), (8, 16, 16, "eigh", "mapped")],
    ids=["512", "640", "2048", "512_eigh", "640_eigh", "2048_eigh"],
)
def test_the_size_of_the_gram_matrix_selects_its_layout(monkeypatch, n_rx, m_delay, n_doppler, route, layout):
    # the Gram sides of the benchmark's snr_default, the largest of antenna_sweep, and grid16;
    # np.linalg.eigh takes a square, which is mapped at every size
    cfg = SimConfig(n_tx=n_rx, n_rx=n_rx, m_delay=m_delay, n_doppler=n_doppler, n_paths=10)
    core = spatial_core(sample_channel(cfg, 0))
    assert core.side == min(n_rx, 10) * m_delay * n_doppler
    if route == "eigh":
        monkeypatch.setattr(precoding, "_gram_routines", lambda: None)
    assert _layout(*precoding.gram_matrix(core)) == layout


@pytest.mark.parametrize(
    "n_tx, n_rx, m_delay, n_doppler, route, layout",
    [(8, 8, 8, 8, "lapack", "packed"), (9, 9, 8, 16, "lapack", "mapped"), (8, 8, 8, 8, "eigh", "mapped"),
     (8, 9, 8, 8, "lapack", "packed"), (9, 8, 8, 8, "lapack", "packed"), (9, 10, 8, 16, "lapack", "mapped"),
     (10, 9, 8, 16, "lapack", "mapped")],
    ids=["512", "1152", "512_eigh", "512_tall", "512_wide", "1152_tall", "1152_wide"],
)
def test_dense_and_spatial_cores_of_equal_side_get_one_layout(monkeypatch, n_tx, n_rx, m_delay, n_doppler, route,
                                                              layout):
    # gram_matrix allocates G for either core, so the side and the route alone pick its layout;
    # an extra receive (transmit) antenna makes the core tall (wide) at the same Gram side
    cfg = SimConfig(n_tx=n_tx, n_rx=n_rx, m_delay=m_delay, n_doppler=n_doppler, n_paths=10)
    core = spatial_core(sample_channel(cfg, 0))
    assert core.wide == (n_tx > n_rx) and core.side == min(n_tx, n_rx) * m_delay * n_doppler
    layouts = []
    real = precoding.gram_zeros

    def recorded(side):
        g, offsets = real(side)
        layouts.append((side, _layout(g, offsets)))
        return g, offsets

    monkeypatch.setattr(precoding, "gram_zeros", recorded)
    if route == "eigh":
        monkeypatch.setattr(precoding, "_gram_routines", lambda: None)
    for c in (core, DenseCore(np.eye(core.side))):
        decompose(c, 1)
    assert layouts == [(core.side, layout)] * 2


class TestTripletsOfH:
    """``decompose(spatial_core(chan), k)`` gives singular triplets of the dense H on both routes."""

    @pytest.mark.parametrize(
        "n_tx, n_rx, n_paths",
        [(2, 3, 4), (3, 2, 4), (2, 6, 4), (6, 2, 4), (5, 4, 4), (5, 6, 3), (16, 6, 10)],
        ids=["tall_both_below", "wide_both_below", "tall_rx_above", "wide_tx_above", "tall_tx_above",
             "tall_both_above", "wide_out_above"],
    )
    def test_leading_triplets_of_h(self, route, n_tx, n_rx, n_paths):
        # "above": that side has more antennas than paths, so its Q is tall; on
        # "wide_out_above" that is the transmit side, the out side of a wide core. Seed 22
        # draws H's rank-th singular value above 4% of the largest on every shape:
        # the Gram route's vectors lose orthogonality as eps * (sigma_max / sigma)**2,
        # 4e-9 at seed 16's 4e-5, on either side's coordinates alike.
        chan = TestSpatialCoreRoute._chan(n_tx, n_rx, n_paths, seed=22)
        core, h = spatial_core(chan), dense_h(chan)
        assert core.wide == (min(n_rx, n_paths) < min(n_tx, n_paths))
        (n_in, n_out) = (n_rx, n_tx) if core.wide else (n_tx, n_rx)
        assert (core.q_in is None) == (n_in <= n_paths) and (core.q_out is None) == (n_out <= n_paths)
        assert core.side == min(n_in, n_paths) * chan.mn
        assert core.shape == (min(n_out, n_paths) * chan.mn, core.side)
        for k in (1, core.side // 2, core.side):
            _assert_leading_triplets(h, _in_h(core, decompose(core, k)), k)


@pytest.mark.parametrize("factor", [1e-100, 1e100])
def test_gram_entries_beyond_lapacks_safe_range(route, factor):
    # G's entries near 1e-200 or 1e200: their squares underflow or overflow unless G is scaled first
    c = factor * _complex_gaussian(24, 16, 32)
    _assert_leading_triplets(c, decompose(DenseCore(c), 8), 8)


class _LitterBelowTheDiagonal:
    """A :func:`~otfslink.precoding.gram_zeros` whose square holds NaN and a finite value, alternately, below the diagonal.

    :func:`decompose` reads only the entries with column >= row, so it must
    neither read nor write the others. The litter goes into the square
    ``gram_zeros`` allocates, before the stored triangle is written into
    it; ``last`` keeps that square and what was written below its diagonal.
    """

    def __init__(self, allocate):
        self.allocate = allocate
        self.last = {}

    def __call__(self, side):
        g, offsets = self.allocate(side)
        square = g.reshape(side, side)
        lower = np.tril_indices(side, -1)
        below = np.where(np.arange(lower[0].size) % 2, np.nan, 3.0 - 4.0j)
        square[lower] = below
        self.last.update(g=square, below=below)
        return g, offsets


@pytest.mark.parametrize("factor", [1.0, 2.0**140], ids=["in_range", "rescaled"])
@pytest.mark.parametrize("wide", [False, True], ids=["tall", "wide"])
@pytest.mark.parametrize("route", ["lapack", "eigh"], indirect=True)  # the routes that take a square
def test_the_gram_matrix_below_its_diagonal_is_neither_read_nor_written(monkeypatch, route, factor, wide):
    # NaN there fails a NaN scan of the whole square and an eigh of the other triangle; the
    # finite value changes under a rescale of the whole square. 2**140 puts G's entries above
    # 2**255, where decompose rescales G.
    c = factor * _complex_gaussian(24, 16, 33)
    c = c.T if wide else c
    _assert_litter_changes_nothing(monkeypatch, DenseCore(c))


@pytest.mark.parametrize("wide", [False, True], ids=["tall", "wide"])
@pytest.mark.parametrize("route", ["lapack"], indirect=True)  # it maps every G as a square
def test_a_spatial_gram_matrix_below_its_diagonal_is_neither_read_nor_written(monkeypatch, route, wide):
    # more transmit antennas than receive ones make a wide core, fewer a tall one
    n_tx, n_rx = (3, 2) if wide else (2, 3)
    cfg = SimConfig(n_tx=n_tx, n_rx=n_rx, n_rf=1, m_delay=3, n_doppler=4, n_paths=4,
                    max_delay_tap=5, max_doppler_tap=2)
    core = spatial_core(sample_channel(cfg, 33))
    assert core.wide == wide and core.mn > 1 and core.side == 24
    _assert_litter_changes_nothing(monkeypatch, core)


def _assert_litter_changes_nothing(monkeypatch, core):
    """Litter below G's diagonal leaves ``decompose(core, 8)`` bit for bit as it was, and is left as it was.

    Left as it was up to the move of the reflectors into blocks on the
    LAPACK route, which hands G's copied rows back to the host from then
    on, which zeroes them, and which must copy none of the litter; up to
    the end on the ``eigh`` route.
    """
    full = decompose(core, 8)
    litter = _LitterBelowTheDiagonal(precoding.gram_zeros)
    monkeypatch.setattr(precoding, "gram_zeros", litter)

    def below():
        g = litter.last["g"]
        return g[np.tril_indices(g.shape[0], -1)].tobytes()

    seen = []
    move = precoding._reflector_blocks

    def snapshot(g, side):
        seen.append(below())
        flat, blocks = move(g, side)
        # neither the NaN nor the finite value of the litter
        assert not np.any(np.isnan(flat) | (flat == litter.last["below"][0])), "the move copied litter"
        return flat, blocks

    monkeypatch.setattr(precoding, "_reflector_blocks", snapshot)
    littered = decompose(core, 8)
    for name in ("u", "sigma", "v"):
        assert np.array_equal(getattr(littered, name), getattr(full, name)), name
    if precoding._gram_routines() is None:
        seen.append(below())
    assert seen == [litter.last["below"].tobytes()]


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
    # each routine resolves inside the one OpenBLAS file mapped
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
    # whatever the mapping size: its rows span 4 pages, so the stored triangle
    # commits 5/8 of its pages. Committing all of them, as a read or a
    # write of the other triangle would, raised the peak by 1.55 core-sized
    # matrices; the mapped triangle raises it by about 1.2.
    code = """
        from otfslink import link_sim, precoding
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

        precoding._GRAM_MAPPING_BYTES = 0
        link_sim.decompose = measured
        cfg = SimConfig(m_delay=8, n_doppler=16)
        realize(sample_channel(cfg, 0), cfg.n_rf, cfg.precoder_mode)
        print(seen["side"], seen["rise"] / (16 * seen["side"] ** 2))
        """
    side, rise = _run_python(code).split()
    assert int(side) == 1024
    assert float(rise) < 1.45, f"decompose raised the peak RSS by {float(rise):.2f} core-sized matrices"


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_reading_the_unwritten_triangle_of_a_mapped_gram_matrix_commits_no_memory():
    # the 1024-square Gram matrix of 8x8 antennas on an 8x16 grid, mapped. Its rows
    # span 4 pages, so 3/8 of its pages lie wholly below the diagonal: a shared
    # mapping commits each of them on its first read, a private one maps them
    # all to the zero page
    code = """
        from otfslink import precoding
        from otfslink.channel import sample_channel, spatial_core
        from otfslink.link_sim import SimConfig

        def rss():  # bytes
            with open("/proc/self/status") as fh:
                return int(next(line for line in fh if line.startswith("VmRSS:")).split()[1]) * 1024

        precoding._GRAM_MAPPING_BYTES = 0
        g, offsets = precoding.gram_matrix(spatial_core(sample_channel(SimConfig(m_delay=8, n_doppler=16), 0)))
        g = g.reshape(offsets.size, offsets.size)
        before = rss()
        below = sum(g[r, :r].sum() for r in range(g.shape[0]))  # every entry below the diagonal
        print(g.shape[0], g.shape[1], below == 0, (rss() - before) / g.nbytes)
        """
    rows, cols, zero, rise = _run_python(code).split()
    assert (int(rows), int(cols), zero) == (1024, 1024, "True")
    assert float(rise) < 0.05, f"reading below the diagonal committed {float(rise):.2f} of the matrix"


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_the_back_transform_hands_back_the_pages_of_a_mapped_gram_matrix():
    # the 1024-square Gram matrix of 8x8 antennas on an 8x16 grid, mapped, and k = 256.
    # Its 16 KiB rows start on page boundaries, so its stored triangle spans
    # 256 * (4 + 3 + 2 + 1) pages. The move of its reflectors into blocks hands back
    # the pages of the rows each chunk copied; then each block, once applied, hands
    # back its pages. The move writes every page of the blocks' mapping, since each
    # block's columns skip fewer entries than a page holds. VmRSS is read around each
    # release, since the blocks written and the vectors widened to complex between
    # the releases take some back.
    code = """
        import mmap
        import numpy as np
        from otfslink import precoding
        from otfslink.channel import sample_channel, spatial_core
        from otfslink.link_sim import SimConfig

        def rss():  # bytes
            with open("/proc/self/status") as fh:
                return int(next(line for line in fh if line.startswith("VmRSS:")).split()[1]) * 1024

        falls = {}  # per mapping, by its size, in the order of its first release: each release's fall

        class Recorded(mmap.mmap):
            def madvise(self, option, *args):
                before = rss()
                super().madvise(option, *args)
                if option == mmap.MADV_DONTNEED:
                    falls.setdefault(len(self), []).append(before - rss())

        precoding._GRAM_MAPPING_BYTES = 0
        mmap.mmap = Recorded
        core = spatial_core(sample_channel(SimConfig(m_delay=8, n_doppler=16), 0))
        side, entry = core.side, 16
        row = np.arange(side)
        first, last = (row * side + row) * entry // mmap.PAGESIZE, ((row + 1) * side * entry - 1) // mmap.PAGESIZE
        resident = np.unique(np.concatenate([np.arange(a, b + 1) for a, b in zip(first, last)])).size
        precoding.decompose(core, 256)
        (square, moved), (blocks, applied) = falls.items()
        print(side, -(-(side - 1) // precoding._BACK_TRANSFORM_CHUNK), square == side * side * entry,
              len(moved), sum(moved) / (resident * mmap.PAGESIZE), len(applied), sum(applied) / blocks)
        """
    side, chunks, square, moved, moved_fall, applied, applied_fall = _run_python(code).split()
    assert (int(side), square) == (1024, "True")
    assert int(moved) == int(applied) == int(chunks) > 1
    assert float(moved_fall) >= 0.9, f"the move handed back {float(moved_fall):.2f} of the Gram matrix's pages"
    assert float(applied_fall) >= 0.9, f"the back-transform handed back {float(applied_fall):.2f} of the blocks' pages"


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_decompose_raises_peak_memory_by_under_1_08_core_sized_matrices():
    # realize with 8x8 antennas on a 12x12 grid: a 1152-square Gram matrix,
    # k = 288. Its decomposition holds the Gram matrix's stored triangle, then its
    # reflectors in compact blocks, the k eigenvectors and the other side's k
    # vectors, never the core itself: a dense core or a copy of the Gram matrix
    # would add one more core-sized matrix (16*side**2 bytes). Its 18 KiB rows are
    # no page multiple. The stored triangle shares each row's first page with the
    # other triangle: left in the square for the back-transform, the reflectors
    # raised the peak by 1.15 core-sized matrices; moved into blocks, by 1.01. The
    # core's own construction allocates next to nothing.
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
        cfg = SimConfig(m_delay=12, n_doppler=12)
        realize(sample_channel(cfg, 0), cfg.n_rf, cfg.precoder_mode)
        unit = 16 * seen["side"] ** 2
        print(seen["side"], seen["rank"], seen["rise"] / unit, seen["core"] / unit)
        """
    side, rank, rise, core = _run_python(code).split()
    assert (int(side), int(rank)) == (1152, 288)
    assert float(rise) < 1.08, f"decompose raised the peak RSS by {float(rise):.2f} core-sized matrices"
    assert float(core) < 0.01, f"spatial_core allocated {float(core):.2f} core-sized matrices"
