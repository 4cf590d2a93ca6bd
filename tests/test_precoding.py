"""SVD decomposition and precoder/combiner tests, with eigenvalue oracles."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from otfslink import precoding
from otfslink.channel import build_time_channel, sample_channel, spatial_core
from otfslink.link_sim import SimConfig, realize
from otfslink.precoding import (
    RankDeficientChannelError,
    build_precoder_combiner,
    dd_transform_matrices,
    decompose,
    lift_leading,
    sub_channel_gains,
)
from otfslink.validation import effective_dd_channel

ROOT = Path(__file__).resolve().parents[1]

def random_channel(seed, n_ant=2, grid=2, n_paths=5):
    cfg = SimConfig(
        n_tx=n_ant, n_rx=n_ant, n_rf=1, m_delay=grid, n_doppler=grid, n_paths=n_paths,
        max_delay_tap=min(5, grid * grid - 1), max_doppler_tap=1,
    )
    return build_time_channel(sample_channel(cfg, seed))


class TestDecompose:
    def test_identity(self):
        dec = decompose(np.eye(4))
        np.testing.assert_allclose(dec.sigma, np.ones(4))
        assert dec.rank == 4

    def test_scaled_identity(self):
        dec = decompose(3.0 * np.eye(2))
        np.testing.assert_allclose(dec.sigma, [3.0, 3.0])

    def test_reconstruction_and_eig_oracle(self):
        rng = np.random.default_rng(21)
        h = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        dec = decompose(h)
        recon = dec.u @ np.diag(dec.sigma) @ dec.v.conj().T
        assert np.linalg.norm(recon - h) < 1e-9 * np.linalg.norm(h)
        # singular values == sqrt of eigenvalues of H^H H (independent route)
        eig = np.sqrt(np.maximum(np.linalg.eigvalsh(h.conj().T @ h), 0.0))[::-1]
        np.testing.assert_allclose(dec.sigma, eig, atol=1e-8)

    def test_semi_unitary_factors(self):
        h = random_channel(3)
        dec = decompose(h)
        eye = np.eye(dec.rank)
        assert np.linalg.norm(dec.u.conj().T @ dec.u - eye) < 1e-10
        assert np.linalg.norm(dec.v.conj().T @ dec.v - eye) < 1e-10

    def test_sigma_descending_nonnegative(self):
        dec = decompose(random_channel(4))
        assert np.all(np.diff(dec.sigma) <= 0)
        assert np.all(dec.sigma >= 0)

    def test_rank_truncation(self):
        h = np.zeros((4, 4), complex)
        h[0, 0] = 2.0
        dec = decompose(h)
        assert dec.rank == 1
        assert dec.sigma.shape == (1,)

    def test_nonfinite_rejected(self):
        h = np.eye(2)
        h = h.astype(complex)
        h[0, 0] = np.inf
        with pytest.raises(ValueError):
            decompose(h)


class TestPrecoderCombiner:
    def test_modes_coincide_without_doppler_dft(self):
        # N = 1 makes the DD transforms the identity
        h = build_time_channel(
            sample_channel(
                SimConfig(n_tx=2, n_rx=2, n_rf=1, m_delay=4, n_doppler=1, n_paths=4,
                          max_delay_tap=3, max_doppler_tap=0),
                5,
            )
        )
        dec = decompose(h)
        literal = build_precoder_combiner(dec, 1, 4, 1, "paper_literal")
        corrected = build_precoder_combiner(dec, 1, 4, 1, "dd_corrected")
        np.testing.assert_allclose(literal.g, corrected.g, atol=1e-12)
        np.testing.assert_allclose(literal.w, corrected.w, atol=1e-12)

    @pytest.mark.parametrize("mode", ["paper_literal", "dd_corrected"])
    def test_semi_unitary(self, mode):
        dec = decompose(random_channel(6))
        pc = build_precoder_combiner(dec, 1, 2, 2, mode)
        k = 4
        assert np.linalg.norm(pc.g.conj().T @ pc.g - np.eye(k)) < 1e-10
        assert np.linalg.norm(pc.w.conj().T @ pc.w - np.eye(k)) < 1e-10

    def test_rank_deficiency_raises(self):
        h = np.zeros((8, 8), complex)
        h[0, 0] = 1.0
        dec = decompose(h)
        with pytest.raises(RankDeficientChannelError):
            build_precoder_combiner(dec, 1, 2, 2)

    def test_unknown_mode(self):
        dec = decompose(np.eye(4))
        with pytest.raises(ValueError):
            build_precoder_combiner(dec, 1, 2, 2, "bogus")


class TestEffectiveDdChannel:
    def test_dd_corrected_diagonalizes(self):
        for seed in range(50):
            h = random_channel(seed, n_ant=2, grid=2, n_paths=2)
            dec = decompose(h)
            if dec.rank < 4:
                continue
            pc = build_precoder_combiner(dec, 1, 2, 2, "dd_corrected")
            eff = effective_dd_channel(h, pc, 1, 2, 2)
            gains = sub_channel_gains(dec, 1, 2, 2)
            off = eff - np.diag(np.diag(eff))
            assert np.linalg.norm(off) < 1e-10 * np.linalg.norm(np.diag(np.diag(eff)))
            np.testing.assert_allclose(np.diag(eff), gains, atol=1e-10 * gains[0])

    def test_literal_mode_returned_as_is(self):
        h = random_channel(1)
        dec = decompose(h)
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
        h = build_time_channel(
            sample_channel(
                SimConfig(n_tx=2, n_rx=2, n_rf=1, m_delay=4, n_doppler=1, n_paths=4,
                          max_delay_tap=3, max_doppler_tap=0),
                15,
            )
        )
        dec = decompose(h)
        pc = build_precoder_combiner(dec, 1, 4, 1, "paper_literal")
        eff = effective_dd_channel(h, pc, 1, 4, 1)
        gains = sub_channel_gains(dec, 1, 4, 1)
        np.testing.assert_allclose(np.diag(eff), gains, atol=1e-12 * gains[0])
        off = eff - np.diag(np.diag(eff))
        assert np.linalg.norm(off) < 1e-12 * gains[0]

    def test_scaling_linearity(self):
        h = random_channel(2)
        dec = decompose(h)
        pc = build_precoder_combiner(dec, 1, 2, 2, "dd_corrected")
        eff = effective_dd_channel(h, pc, 1, 2, 2)
        scaled = effective_dd_channel(3.0 * h, pc, 1, 2, 2)
        # off-diagonal entries are exact zeros up to rounding, so compare absolutely
        assert np.max(np.abs(scaled - 3.0 * eff)) < 1e-12 * np.linalg.norm(eff)

    def test_modes_share_singular_values(self):
        h = random_channel(7)
        dec = decompose(h)
        effs = [
            effective_dd_channel(h, build_precoder_combiner(dec, 1, 2, 2, mode), 1, 2, 2)
            for mode in ("paper_literal", "dd_corrected")
        ]
        np.testing.assert_allclose(
            np.linalg.svd(effs[0], compute_uv=False),
            np.linalg.svd(effs[1], compute_uv=False),
            atol=1e-10,
        )

    def test_noise_statistics_preserved(self):
        h = random_channel(8)
        dec = decompose(h)
        pc = build_precoder_combiner(dec, 1, 2, 2, "dd_corrected")
        _, c_r = dd_transform_matrices(1, 2, 2)
        cov = c_r @ pc.w.conj().T @ pc.w @ c_r.conj().T
        assert np.max(np.abs(cov - np.eye(4))) < 1e-10

    def test_shape_validation(self):
        h = random_channel(9)
        dec = decompose(h)
        pc = build_precoder_combiner(dec, 1, 2, 2)
        with pytest.raises(ValueError):
            effective_dd_channel(h[:, :4], pc, 1, 2, 2)


class TestSubChannelGains:
    def test_identity_channel(self):
        gains = sub_channel_gains(decompose(np.eye(4)), 1, 2, 2)
        np.testing.assert_allclose(gains, np.ones(4))

    def test_takes_leading_values(self):
        gains = sub_channel_gains(decompose(np.diag([4.0, 3.0, 2.0, 1.0])), 1, 2, 1)
        np.testing.assert_allclose(gains, [4.0, 3.0])

    def test_matches_eig_oracle(self):
        h = random_channel(10)
        expected = np.sqrt(np.maximum(np.linalg.eigvalsh(h.conj().T @ h), 0.0))[::-1][:4]
        np.testing.assert_allclose(sub_channel_gains(decompose(h), 1, 2, 2), expected, atol=1e-8)

    def test_descending(self):
        gains = sub_channel_gains(decompose(random_channel(11)), 1, 2, 2)
        assert np.all(np.diff(gains) <= 0)

    def test_scaling(self):
        h = random_channel(12)
        g1 = sub_channel_gains(decompose(h), 1, 2, 2)
        g2 = sub_channel_gains(decompose(2.5 * h), 1, 2, 2)
        np.testing.assert_allclose(g2, 2.5 * g1, rtol=1e-10)

    def test_rank_deficiency(self):
        with pytest.raises(RankDeficientChannelError):
            sub_channel_gains(decompose(np.diag([1.0, 0.0, 0.0, 0.0])), 1, 2, 2)


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
        dense = decompose(build_time_channel(chan))
        core = decompose(spatial_core(chan)[1])
        assert core.rank == dense.rank
        np.testing.assert_allclose(core.sigma, dense.sigma, rtol=0, atol=1e-12 * dense.sigma[0])
        k = n_rf * chan.mn
        gains = realize(chan, n_rf, "dd_corrected").gains
        np.testing.assert_allclose(gains, dense.sigma[:k], rtol=1e-12, atol=0)

    @SHAPES
    def test_lifted_pairs_are_singular_vectors_of_h(self, n_tx, n_rx, n_paths, n_rf):
        chan = self._chan(n_tx, n_rx, n_paths)
        h = build_time_channel(chan)
        q_rx, core, q_tx = spatial_core(chan)
        k = n_rf * chan.mn
        dec = lift_leading(decompose(core), q_rx, q_tx, k)
        assert dec.u.shape == (h.shape[0], k) and dec.v.shape == (h.shape[1], k)
        tol = 1e-12 * dec.sigma[0]
        assert np.max(np.abs(h @ dec.v - dec.u * dec.sigma)) < tol
        assert np.max(np.abs(h.conj().T @ dec.u - dec.v * dec.sigma)) < tol
        for f in (dec.u, dec.v):
            np.testing.assert_allclose(f.conj().T @ f, np.eye(k), atol=1e-12)

    @pytest.mark.parametrize("mode", ["dd_corrected", "paper_literal"])
    def test_precoder_combiner_diagonalize_the_dense_h(self, mode):
        chan = self._chan(5, 3, 2)  # more antennas than paths: the core is smaller than H
        real = realize(chan, 2, mode)
        eff = real.pc.w.conj().T @ real.h @ real.pc.g
        if mode == "dd_corrected":
            c_t, c_r = dd_transform_matrices(2, 2, 3)
            eff = c_r @ eff @ c_t
        np.testing.assert_allclose(eff, np.diag(real.gains), atol=1e-12 * real.gains[0])

    def test_rank_deficient_core_raises(self):
        # one path carries MN streams, not the 2*MN of two chains
        chan = self._chan(4, 4, 1)
        q_rx, core, q_tx = spatial_core(chan)
        dec = decompose(core)
        assert dec.rank == chan.mn
        with pytest.raises(RankDeficientChannelError):
            lift_leading(dec, q_rx, q_tx, 2 * chan.mn)
        with pytest.raises(RankDeficientChannelError):
            realize(chan, 2, "dd_corrected")


def _complex_gaussian(rows, cols, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def _core(n_tx, n_rx, n_paths):
    return spatial_core(TestSpatialCoreRoute._chan(n_tx, n_rx, n_paths))[1]


@pytest.fixture
def subset_calls(monkeypatch):
    """Records the ``k`` of every decomposition that took the subset SVD."""
    calls = []
    real = precoding._leading_svd

    def counted(gesvdx, h, k):
        calls.append(k)
        return real(gesvdx, h, k)

    monkeypatch.setattr(precoding, "_leading_svd", counted)
    return calls


class TestSubsetDecompose:
    """``decompose(c, k)`` against the full ``np.linalg.svd`` of ``decompose(c)``."""

    @pytest.mark.parametrize(
        "c, k, subset",
        [
            (_core(8, 8, 10), 12, True),  # 48 x 48 core, n_rf = 2: k is a quarter of the side
            (_core(4, 6, 10), 6, True),  # 36 x 24 core, n_rf = 1
            (_core(6, 4, 10), 6, True),  # 24 x 36 core
            (_core(6, 6, 10), 12, False),  # 36 x 36 core, n_rf = 2: k is a third of the side
            (_core(3, 5, 10), 6, False),  # 30 x 18 core
            (_complex_gaussian(96, 64, 1), 16, True),
            (_complex_gaussian(64, 96, 2), 16, True),
            (_complex_gaussian(96, 64, 3), 17, False),
        ],
        ids=["core_square", "core_tall", "core_wide", "core_square_full", "core_tall_full",
             "tall", "wide", "tall_just_above_a_quarter"],
    )
    def test_matches_the_full_svd_truncated(self, subset_calls, c, k, subset):
        before = c.copy()
        dec = decompose(c, k)
        assert np.array_equal(c, before)
        assert subset_calls == ([k] if subset else [])
        full = decompose(c)
        assert dec.rank == k and dec.u.shape == (c.shape[0], k) and dec.v.shape == (c.shape[1], k)
        tol = 1e-12 * full.sigma[0]
        np.testing.assert_allclose(dec.sigma, full.sigma[:k], rtol=0, atol=tol)
        assert np.max(np.abs(c @ dec.v - dec.u * dec.sigma)) < tol
        assert np.max(np.abs(c.conj().T @ dec.u - dec.v * dec.sigma)) < tol
        for f in (dec.u, dec.v):
            np.testing.assert_allclose(f.conj().T @ f, np.eye(k), rtol=0, atol=1e-12)

    def test_rank_below_k_on_the_subset_branch(self, subset_calls):
        r, k = 10, 16
        c = _complex_gaussian(64, r, 4) @ _complex_gaussian(r, 80, 5)
        dec = decompose(c, k)
        assert subset_calls == [k]
        assert dec.rank == r and dec.sigma.shape == (r,)
        np.testing.assert_allclose(dec.sigma, decompose(c).sigma, rtol=0, atol=1e-12 * dec.sigma[0])
        with pytest.raises(RankDeficientChannelError):
            lift_leading(dec, np.eye(1), np.eye(1), k)

    def test_k_above_the_side_is_all_triplets(self):
        c = _complex_gaussian(6, 4, 6)
        dec = decompose(c, 9)
        assert dec.rank == 4
        np.testing.assert_allclose(dec.sigma, decompose(c).sigma, rtol=0, atol=1e-12 * dec.sigma[0])

    def test_k_below_one_rejected(self):
        with pytest.raises(ValueError, match="k must be >= 1"):
            decompose(np.eye(4), 0)

    def test_subset_branch_needs_no_numpy_svd(self, monkeypatch, subset_calls):
        c = _complex_gaussian(64, 64, 7)
        oracle = decompose(c)

        def no_svd(*args, **kwargs):
            raise AssertionError("np.linalg.svd called on the subset branch")

        monkeypatch.setattr(np.linalg, "svd", no_svd)
        dec = decompose(c, 16)
        assert subset_calls == [16]
        np.testing.assert_allclose(dec.sigma, oracle.sigma[:16], rtol=0, atol=1e-12 * oracle.sigma[0])

    def test_falls_back_when_no_library_exports_zgesvdx(self, monkeypatch, subset_calls):
        monkeypatch.setattr(precoding, "_ZGESVDX_SYMBOLS", ("otfslink_no_such_symbol",))
        precoding._zgesvdx.cache_clear()
        try:
            assert precoding._zgesvdx() is None
            c = _complex_gaussian(64, 64, 8)
            dec = decompose(c, 16)
        finally:
            precoding._zgesvdx.cache_clear()  # resolved again once the symbols are restored
        assert subset_calls == []
        oracle = decompose(c)
        assert dec.rank == 16
        np.testing.assert_allclose(dec.sigma, oracle.sigma[:16], rtol=0, atol=1e-12 * oracle.sigma[0])
        assert np.max(np.abs(c @ dec.v - dec.u * dec.sigma)) < 1e-12 * oracle.sigma[0]


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/maps")
def test_one_openblas_file_after_a_realization():
    code = textwrap.dedent(
        """
        import sys
        from otfslink import precoding
        from otfslink.channel import sample_channel
        from otfslink.cli import parse_config
        from otfslink.link_sim import realize

        sim = parse_config(sys.argv[1]).sim
        realize(sample_channel(sim, 0), sim.n_rf, sim.precoder_mode)
        assert precoding._zgesvdx() is not None
        with open("/proc/self/maps") as fh:
            paths = {line.split(maxsplit=5)[-1].strip() for line in fh if "openblas" in line.lower()}
        print("\\n".join(sorted(paths)))
        """
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", code, str(ROOT / "configs" / "default.json")],
        env=env, check=True, capture_output=True, text=True,
    ).stdout
    assert len(out.split()) == 1, out
