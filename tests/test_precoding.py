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
def lapack_calls(monkeypatch):
    """Records the ``k`` of every decomposition that took the zherk/zheevr route."""
    calls = []
    real = precoding._lapack_eigenpairs

    def counted(routines, h, k):
        calls.append(k)
        return real(routines, h, k)

    monkeypatch.setattr(precoding, "_lapack_eigenpairs", counted)
    return calls


class TestSubsetDecompose:
    """``decompose(c, k)`` against the full ``np.linalg.svd`` of ``c``."""

    @pytest.mark.parametrize(
        "c, k",
        [
            (_core(8, 8, 10), 12),  # 48 x 48 core, n_rf = 2: k is a quarter of the side
            (_core(4, 6, 10), 6),  # 36 x 24 core, n_rf = 1
            (_core(6, 4, 10), 6),  # 24 x 36 core
            (_core(6, 6, 10), 12),  # 36 x 36 core, n_rf = 2: k is a third of the side
            (_core(3, 5, 10), 6),  # 30 x 18 core
            (_complex_gaussian(96, 64, 1), 16),
            (_complex_gaussian(64, 96, 2), 16),
            (_complex_gaussian(96, 64, 3), 17),
            (_complex_gaussian(96, 64, 9), 32),
            (_complex_gaussian(64, 96, 10), 32),
            (_complex_gaussian(96, 64, 11), 64),
            (_complex_gaussian(64, 96, 12), 64),
        ],
        ids=["core_square", "core_tall", "core_wide", "core_square_full", "core_tall_full",
             "tall", "wide", "tall_just_above_a_quarter", "tall_half", "wide_half", "tall_all",
             "wide_all"],
    )
    def test_matches_the_full_svd_truncated(self, lapack_calls, c, k):
        before = c.copy()
        dec = decompose(c, k)
        assert np.array_equal(c, before)
        assert lapack_calls == [k]
        s = np.linalg.svd(c, compute_uv=False)
        assert dec.rank == k and dec.u.shape == (c.shape[0], k) and dec.v.shape == (c.shape[1], k)
        tol = 1e-12 * s[0]
        np.testing.assert_allclose(dec.sigma, s[:k], rtol=0, atol=tol)
        assert np.max(np.abs(c @ dec.v - dec.u * dec.sigma)) < tol
        assert np.max(np.abs(c.conj().T @ dec.u - dec.v * dec.sigma)) < tol
        for f in (dec.u, dec.v):
            np.testing.assert_allclose(f.conj().T @ f, np.eye(k), rtol=0, atol=1e-12)

    def test_rank_below_k_on_the_subset_branch(self, lapack_calls):
        r, k = 10, 16
        c = _complex_gaussian(64, r, 4) @ _complex_gaussian(r, 80, 5)
        dec = decompose(c, k)
        assert lapack_calls == [k]
        assert dec.rank == r and dec.sigma.shape == (r,)
        s = np.linalg.svd(c, compute_uv=False)
        np.testing.assert_allclose(dec.sigma, s[:r], rtol=0, atol=1e-12 * dec.sigma[0])
        with pytest.raises(RankDeficientChannelError):
            lift_leading(dec, np.eye(1), np.eye(1), k)

    def test_k_above_the_side_is_all_triplets(self):
        c = _complex_gaussian(6, 4, 6)
        dec = decompose(c, 9)
        assert dec.rank == 4
        s = np.linalg.svd(c, compute_uv=False)
        np.testing.assert_allclose(dec.sigma, s, rtol=0, atol=1e-12 * dec.sigma[0])

    def test_k_below_one_rejected(self):
        with pytest.raises(ValueError, match="k must be >= 1"):
            decompose(np.eye(4), 0)

    def test_subset_branch_needs_no_numpy_svd(self, monkeypatch, lapack_calls):
        c = _complex_gaussian(64, 48, 7)
        s = np.linalg.svd(c, compute_uv=False)

        def no_svd(*args, **kwargs):
            raise AssertionError("np.linalg.svd called by decompose")

        monkeypatch.setattr(np.linalg, "svd", no_svd)
        for k in (16, None):
            dec = decompose(c, k)
            np.testing.assert_allclose(dec.sigma, s[:k], rtol=0, atol=1e-12 * s[0])
        assert lapack_calls == [16, 48]

    def test_falls_back_to_eigh_when_no_library_exports_zheevr(self, monkeypatch, lapack_calls):
        eigh_calls = []
        real_eigh = np.linalg.eigh

        def counted_eigh(a, *args, **kwargs):
            eigh_calls.append(a.shape)
            return real_eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
        monkeypatch.setattr(precoding, "_ZHEEVR_SYMBOLS", ("otfslink_no_such_symbol",))
        precoding._gram_routines.cache_clear()
        try:
            assert precoding._gram_routines() is None
            tall, wide = _complex_gaussian(64, 48, 8), _complex_gaussian(48, 64, 13)
            decs = [decompose(c, 16) for c in (tall, wide)]
        finally:
            precoding._gram_routines.cache_clear()  # resolved again once the symbols are restored
        assert lapack_calls == [] and eigh_calls == [(48, 48), (48, 48)]
        for c, dec in zip((tall, wide), decs):
            s = np.linalg.svd(c, compute_uv=False)
            assert dec.rank == 16
            np.testing.assert_allclose(dec.sigma, s[:16], rtol=0, atol=1e-12 * s[0])
            assert np.max(np.abs(c @ dec.v - dec.u * dec.sigma)) < 1e-12 * s[0]
            assert np.max(np.abs(c.conj().T @ dec.u - dec.v * dec.sigma)) < 1e-12 * s[0]


def _run_python(code, *args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code), *map(str, args)],
        env=env, check=True, capture_output=True, text=True,
    ).stdout


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/maps")
def test_one_openblas_file_after_a_realization():
    code = """
        import sys
        from otfslink import precoding
        from otfslink.channel import sample_channel
        from otfslink.cli import parse_config
        from otfslink.link_sim import realize

        sim = parse_config(sys.argv[1]).sim
        realize(sample_channel(sim, 0), sim.n_rf, sim.precoder_mode)
        assert precoding._gram_routines() is not None
        with open("/proc/self/maps") as fh:
            paths = {line.split(maxsplit=5)[-1].strip() for line in fh if "openblas" in line.lower()}
        print("\\n".join(sorted(paths)))
        """
    out = _run_python(code, ROOT / "configs" / "default.json")
    assert len(out.split()) == 1, out


@pytest.mark.skipif(sys.platform == "win32", reason="needs the resource module")
def test_decompose_raises_peak_memory_by_under_1_75_core_sized_matrices():
    # ru_maxrss is KiB on Linux, bytes on macOS. The route holds the Gram
    # matrix and k eigenvectors; a stray copy of the core or of the Gram
    # matrix would add one more core-sized matrix.
    code = """
        import resource, sys
        from otfslink.channel import sample_channel, spatial_core
        from otfslink.link_sim import SimConfig
        from otfslink.precoding import decompose

        cfg = SimConfig(m_delay=8, n_doppler=16)
        core = spatial_core(sample_channel(cfg, 0))[1]
        unit = 1 if sys.platform == "darwin" else 1024
        before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        dec = decompose(core, cfg.n_subchannels)
        after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        print(core.shape[0], core.shape[1], dec.rank, (after - before) * unit / core.nbytes)
        """
    rows, cols, rank, rise = _run_python(code).split()
    assert (int(rows), int(cols), int(rank)) == (1024, 1024, 256)
    assert float(rise) < 1.75, f"decompose raised the peak RSS by {float(rise):.2f} core-sized matrices"
