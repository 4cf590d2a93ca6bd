"""End-to-end link pipeline tests: recovery, pairing, sweeps, CSV."""

import math
import tracemalloc
import warnings
import weakref
from dataclasses import replace

import numpy as np
import pytest

from otfslink import allocation, link_sim, modem, precoding, validation
from otfslink.channel import (
    DdMimoChannel, PathParams, SpatialCore, apply_channel, sample_channel, spatial_core,
)
from otfslink.dd_transforms import otfs_demodulate, otfs_modulate, stack_chains, unstack_chains
from otfslink.link_sim import (
    CSV_COLUMNS,
    MAX_TRIALS,
    MIN_SNR_DB,
    LinkMetrics,
    RealizationSlot,
    SimConfig,
    SweepRow,
    _frames_per_chunk,
    _trial_rng,
    antenna_points,
    format_csv,
    realize,
    run_link,
    run_random_link,
    run_sweep,
    sample_importance,
    sample_payload,
    snr_points,
    snr_to_noise_var,
)
from otfslink.precoding import RankDeficientChannelError

SMALL = SimConfig(
    n_tx=2, n_rx=2, n_rf=1, m_delay=2, n_doppler=2, n_paths=5,
    max_delay_tap=3, max_doppler_tap=1, snr_db=10.0, seed=0,
)


class TestSnrToNoiseVar:
    def test_zero_db(self):
        assert snr_to_noise_var(0.0) == 1.0

    def test_ten_db(self):
        assert abs(snr_to_noise_var(10.0) - 0.1) < 1e-15

    def test_minus_six_db(self):
        assert abs(snr_to_noise_var(-6.0) - 3.9810717055349722) < 1e-12

    def test_infinite_snr(self):
        assert snr_to_noise_var(math.inf) == 0.0

    def test_the_lowest_snr_is_taken(self):
        assert snr_to_noise_var(MIN_SNR_DB) == 10.0 ** (-MIN_SNR_DB / 10.0)

    @pytest.mark.parametrize("snr_db", [math.nan, -math.inf, -1e308, MIN_SNR_DB - 1e-9, True, "3"],
                             ids=["nan", "-inf", "-1e308", "just_below", "True", "str"])
    def test_an_snr_other_than_a_number_of_at_least_the_lowest_is_refused_by_name(self, snr_db):
        # NaN once came back as a NaN variance, and -1e308 ended in an OverflowError
        with pytest.raises(ValueError, match="^snr_db must be"):
            snr_to_noise_var(snr_db)


class TestSimConfig:
    def test_defaults_are_valid(self):
        cfg = SimConfig()
        assert cfg.n_subchannels == 2 * 64
        assert cfg.payload_len == 128

    def test_too_many_chains(self):
        with pytest.raises(ValueError, match="n_rf"):
            SimConfig(n_tx=2, n_rx=2, n_rf=3)
        # rank(H) <= n_paths*M*N, too low for n_rf*M*N streams
        with pytest.raises(ValueError, match="n_rf must be <= n_paths"):
            SimConfig(n_rf=2, n_paths=1)

    def test_bad_mode(self):
        with pytest.raises(ValueError, match="allocation_mode"):
            SimConfig(allocation_mode="greedy")
        with pytest.raises(ValueError, match="precoder_mode"):
            SimConfig(precoder_mode="zf")

    def test_tap_bounds(self):
        with pytest.raises(ValueError, match="max_delay_tap"):
            SimConfig(m_delay=2, n_doppler=2, max_delay_tap=4)

    def test_grid_points_are_checked_not_coerced(self):
        with pytest.raises(ValueError, match="n_tx must be an integer"):
            antenna_points(SMALL, [4.9])
        with pytest.raises(ValueError, match="snr_db must be within the float range"):
            snr_points(SMALL, [10**400])

    def test_counts_positive(self):
        with pytest.raises(ValueError, match="n_rf"):
            SimConfig(n_rf=0)

    def test_numpy_integers_are_kept_as_ints(self):
        names = ("n_tx", "n_rx", "n_rf", "m_delay", "n_doppler", "n_frames", "n_paths", "max_delay_tap",
                 "max_doppler_tap", "seed")
        ints = {name: getattr(SMALL, name) for name in names}
        cfg = SimConfig(**{name: np.int64(value) for name, value in ints.items()})
        assert cfg == SimConfig(**ints)
        assert all(type(getattr(cfg, name)) is int for name in names)
        points = antenna_points(SMALL, np.arange(4, 9, 2))
        assert [(p.n_tx, type(p.n_tx), type(p.n_rx)) for p in points] == [(n, int, int) for n in (4, 6, 8)]

    def test_numpy_integers_above_the_cap_are_refused_by_name(self):
        # as int64 the channel's size, 2**20 * 2**20 * (2**24)**2 * (2**24)**2, wraps to 0
        huge = {"n_tx": np.int64(2**20), "n_rx": np.int64(2**20), "m_delay": np.int64(2**24),
                "n_doppler": np.int64(2**24)}
        with pytest.raises(ValueError, match="m_delay is too large: the channel matrix H"):
            SimConfig(**huge)

    @pytest.mark.parametrize("value", [True, np.True_, 8.0, np.float64(8.0)],
                             ids=["bool", "numpy_bool", "float", "numpy_float"])
    def test_bools_and_floats_are_not_integers(self, value):
        with pytest.raises(ValueError, match="n_tx must be an integer"):
            SimConfig(n_tx=value)

    @pytest.mark.parametrize("snr_db", [math.nan, -math.inf])
    def test_snr_must_be_a_level_or_noiseless(self, snr_db):
        with pytest.raises(ValueError, match="snr_db"):
            SimConfig(snr_db=snr_db)
        assert SimConfig(snr_db=math.inf).snr_db == math.inf


class TestRunLink:
    def test_noiseless_perfect_recovery(self):
        cfg = replace(SMALL, snr_db=math.inf)
        metrics = run_random_link(cfg, np.random.default_rng(1))
        assert metrics.ser == 0.0
        assert metrics.mse < 1e-20

    def test_asymmetric_arrays_recover_noiselessly(self):
        cfg = SimConfig(
            n_tx=4, n_rx=2, n_rf=2, m_delay=2, n_doppler=2, n_paths=5,
            max_delay_tap=3, max_doppler_tap=1, snr_db=math.inf,
        )
        metrics = run_random_link(cfg, np.random.default_rng(17))
        assert metrics.ser == 0.0
        assert metrics.mse < 1e-20

    def test_constant_importance_matches_uniform(self):
        rng_a = np.random.default_rng(2)
        rng_b = np.random.default_rng(2)
        idx = sample_payload(np.random.default_rng(3), SMALL.payload_len)
        w = np.ones(SMALL.payload_len)
        m_sem = run_link(replace(SMALL, allocation_mode="semantic"), idx, w, rng_a)
        m_uni = run_link(replace(SMALL, allocation_mode="uniform"), idx, w, rng_b)
        assert (m_sem.mse, m_sem.ser, m_sem.weighted_mse) == (m_uni.mse, m_uni.ser, m_uni.weighted_mse)
        np.testing.assert_array_equal(m_sem.gains, m_uni.gains)

    @pytest.mark.parametrize("seed", range(3))
    def test_single_path_gains_tie(self, seed):
        # every gain of a one-path channel equals |g_1|, so no pair is concordant
        cfg = SimConfig(n_tx=4, n_rx=4, n_rf=1, m_delay=4, n_doppler=4, n_paths=1,
                        max_delay_tap=3, max_doppler_tap=1)
        metrics = run_random_link(cfg, np.random.default_rng(seed))
        np.testing.assert_allclose(metrics.gains, metrics.gains[0], rtol=1e-14, atol=0)
        assert metrics.kappa_exact == 0.0

    def test_seed_determinism(self):
        a = run_random_link(SMALL, np.random.default_rng([0, 7]))
        b = run_random_link(SMALL, np.random.default_rng([0, 7]))
        assert a.mse == b.mse and a.ser == b.ser and a.weighted_mse == b.weighted_mse
        np.testing.assert_array_equal(a.gains, b.gains)

    def test_semantic_alignment_is_perfect(self):
        metrics = run_random_link(replace(SMALL, allocation_mode="semantic"), np.random.default_rng(4))
        assert metrics.kappa_exact == 1.0

    def test_semantic_beats_uniform_paired(self):
        cfg = SimConfig(
            n_tx=4, n_rx=4, n_rf=2, m_delay=2, n_doppler=2, n_paths=5,
            max_delay_tap=3, max_doppler_tap=1, snr_db=0.0,
        )
        diffs = []
        for t in range(50):
            m_sem = run_random_link(replace(cfg, allocation_mode="semantic"), np.random.default_rng([5, t]))
            m_uni = run_random_link(replace(cfg, allocation_mode="uniform"), np.random.default_rng([5, t]))
            diffs.append(m_sem.weighted_mse - m_uni.weighted_mse)
        assert np.mean(diffs) < 0.0

    def test_post_equalization_noise_variance(self):
        # one channel, many frames: per-element error variance tracks sigma^2/lambda^2
        cfg = replace(SMALL, n_frames=2000, snr_db=10.0)
        rng = np.random.default_rng(6)
        idx = sample_payload(rng, cfg.payload_len)
        w = np.ones(cfg.payload_len)
        metrics = run_link(replace(cfg, allocation_mode="uniform"), idx, w, rng)
        gains = metrics.gains
        expected_mse = np.mean(0.1 / gains**2)
        assert abs(metrics.mse - expected_mse) / expected_mse < 0.10

    def test_payload_length_validated(self):
        with pytest.raises(ValueError, match="payload"):
            run_link(SMALL, np.zeros(3, dtype=int), np.ones(3))

    def test_negative_importance_rejected(self):
        idx = np.zeros(SMALL.payload_len, dtype=int)
        with pytest.raises(ValueError, match="importance"):
            run_link(SMALL, idx, np.full(SMALL.payload_len, -1.0))

    def test_rank_deficiency_propagates(self, monkeypatch):
        # a single path cannot fill two spatial streams; SimConfig rejects
        # n_rf > n_paths, so the one-path draw is injected
        cfg = SimConfig(
            n_tx=2, n_rx=2, n_rf=2, m_delay=2, n_doppler=2, n_paths=2,
            max_delay_tap=3, max_doppler_tap=1,
        )
        monkeypatch.setattr(
            link_sim, "sample_channel", lambda c, rng: sample_channel(replace(c, n_rf=1, n_paths=1), rng)
        )
        with pytest.raises(RankDeficientChannelError):
            run_random_link(cfg, np.random.default_rng(8))


def _two_path_channel(gains):
    return DdMimoChannel(
        paths=(PathParams(gains[0], 0, 1, 0.4, 1.1), PathParams(gains[1], 1, -1, 2.0, 0.7)),
        n_tx=2, n_rx=2, m_delay=2, n_doppler=2,
    )


class TestGainScale:
    """A finite channel decomposes at any gain scale; its Gram matrix cannot overflow."""

    BASE = (0.8 + 0.3j, -0.2 + 0.9j)

    @pytest.mark.parametrize("factor", [1e308, 1e200, 1e160, 1e-200, 1e-310])
    def test_realization_scales_with_the_gains(self, factor):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            base = realize(_two_path_channel(self.BASE), 2, "dd_corrected")
            scaled = realize(_two_path_channel([g * factor for g in self.BASE]), 2, "dd_corrected")
        np.testing.assert_allclose(scaled.gains, factor * base.gains, rtol=1e-12, atol=0)
        # Each singular pair (u_i, v_i) carries a phase that rounding decides,
        # so the precoder/combiner are compared through w g^H = U V^H, which
        # that phase leaves unchanged.
        np.testing.assert_allclose(
            scaled.pc.w @ scaled.pc.g.conj().T, base.pc.w @ base.pc.g.conj().T, rtol=0, atol=1e-12
        )

    def test_a_subnormal_gain_realizes(self):
        # a scale of 2**-1030: dividing the gains by it as complex numbers overflowed to inf + nan j
        chan = DdMimoChannel((PathParams(3e-310 + 0j, 0, 0, 0.5, 1.0),), 1, 1, 1, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            core = spatial_core(chan)
            real = realize(chan, 1, "dd_corrected")
        assert core.gains * core.scale == 3e-310 and 1.0 <= core.gains[0].real < 2.0
        np.testing.assert_array_equal(real.gains, [3e-310, 3e-310])

    def test_singular_value_beyond_the_float_range_raises(self):
        # |gain| = 1.5e308 * sqrt(2) is the one singular value of a 1x1 channel
        chan = DdMimoChannel(
            paths=(PathParams(1.5e308 + 1.5e308j, 0, 0, 0.4, 1.1),), n_tx=1, n_rx=1, m_delay=2, n_doppler=2
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match="overflows the float range"):
                precoding.decompose(spatial_core(chan), 4)
            with pytest.raises(ValueError, match="overflows the float range"):
                realize(chan, 1, "dd_corrected")

    @pytest.mark.parametrize("gain", [1e308, 1e200, 1e160])
    def test_one_huge_path_reports_the_other_as_too_weak(self, gain):
        # the weak path's MN = 4 singular values lie 1e-160 below the strong
        # one's: the rank is the strong path's 4, not 0
        with pytest.raises(RankDeficientChannelError, match="channel rank 4 cannot carry 8"):
            realize(_two_path_channel((gain, self.BASE[1])), 2, "dd_corrected")


def run_link_per_frame(cfg: SimConfig, payload_indices, importance, rng=None) -> LinkMetrics:
    """Oracle of :func:`run_link`: the burst frame by frame, one 1-D call per layer."""
    rng = np.random.default_rng(rng if rng is not None else cfg.seed)
    idx = np.asarray(payload_indices)
    w_all = np.asarray(importance, dtype=float)
    chan = sample_channel(cfg, rng)
    real = realize(chan, cfg.n_rf, cfg.precoder_mode)
    h, gains = validation.antenna_taps(chan), real.gains  # the taps between the antennas
    w, g = validation.h_factors(chan, real.pc.w, real.pc.g)
    (q_rx, _), _ = validation.core_sides(chan)
    q_rx_h = None if q_rx is None else q_rx.conj().T
    noise_var = snr_to_noise_var(cfg.snr_db)

    k = cfg.n_subchannels
    m, n = cfg.m_delay, cfg.n_doppler
    mn = m * n
    w_h = w.conj().T

    n_err = 0
    sq_sum = 0.0
    wsq_sum = 0.0
    w_sum = 0.0
    kappa_exact = np.empty(cfg.n_frames)
    kappa_soft = np.empty(cfg.n_frames)
    for p in range(cfg.n_frames):
        sl = slice(p * k, (p + 1) * k)
        idx_f = idx[sl]
        w_f = w_all[sl]
        if cfg.allocation_mode == "semantic":
            pi = allocation.allocate(w_f, gains)
        else:
            pi = np.arange(k, dtype=np.intp)
        x = modem.modulate(allocation.apply_allocation(idx_f, pi))

        frames = [
            otfs_modulate(x[c * mn : (c + 1) * mn].reshape((m, n), order="F"))
            for c in range(cfg.n_rf)
        ]
        y = g @ stack_chains(frames)
        # onto the receive basis, (Q_rx kron I)^H, and noise there: min(n_rx, L)*MN white samples
        r = validation.lifted(q_rx_h, apply_channel(h, y, 0.0))
        if noise_var > 0:
            z = rng.standard_normal((2, r.size))
            r = r + (z[0] + 1j * z[1]) * np.sqrt(noise_var / 2.0)
        s_hat = w_h @ validation.lifted(q_rx, r)
        x_hat = np.concatenate(
            [otfs_demodulate(chunk, m, n).ravel(order="F") for chunk in unstack_chains(s_hat, cfg.n_rf)]
        )

        x_eq, _ = modem.equalize(x_hat, gains)
        rx_idx = modem.demodulate_hard(x_eq)
        x_eq_payload = allocation.invert_allocation(x_eq, pi)
        rx_idx_payload = allocation.invert_allocation(rx_idx, pi)

        err2 = np.abs(x_eq_payload - modem.modulate(idx_f)) ** 2
        sq_sum += float(err2.sum())
        wsq_sum += float((w_f * err2).sum())
        w_sum += float(w_f.sum())
        n_err += int(np.count_nonzero(rx_idx_payload != idx_f))
        kappa_exact[p] = allocation.exact_kendall_tau(w_f[pi], gains)
        kappa_soft[p] = allocation.soft_kendall(w_f[pi], gains)

    total = cfg.payload_len
    mse = sq_sum / total
    return LinkMetrics(
        mse=mse,
        weighted_mse=wsq_sum / w_sum if w_sum > 0 else mse,
        ser=n_err / total,
        kappa_exact=float(np.mean(kappa_exact)),
        kappa_soft=float(np.mean(kappa_soft)),
        gains=gains.copy(),
    )


# 16 sub-channels: 120 Kendall pairs per frame, more than its 4*8 signal entries
BURST = SimConfig(
    n_tx=4, n_rx=4, n_rf=2, m_delay=2, n_doppler=4, n_paths=6,
    max_delay_tap=1, max_doppler_tap=1, snr_db=6.0, seed=0,
)
BURST_CHUNK = 4


class TestChunkedBurst:
    @pytest.mark.parametrize("n_frames", [1, BURST_CHUNK - 1, 2 * BURST_CHUNK + 1])
    @pytest.mark.parametrize("allocation_mode", ["semantic", "uniform"])
    @pytest.mark.parametrize("precoder_mode", ["dd_corrected", "paper_literal"])
    @pytest.mark.parametrize("snr_db", [6.0, math.inf])
    def test_matches_the_per_frame_oracle(self, monkeypatch, n_frames, allocation_mode, precoder_mode, snr_db):
        monkeypatch.setattr(link_sim, "FRAME_CHUNK_ENTRIES", 120 * BURST_CHUNK)
        cfg = replace(BURST, n_frames=n_frames, allocation_mode=allocation_mode,
                      precoder_mode=precoder_mode, snr_db=snr_db)
        assert _frames_per_chunk(cfg) == BURST_CHUNK
        self._assert_matches_the_per_frame_oracle(cfg)

    @pytest.mark.parametrize("n_tx, n_rx, n_paths, compressed", [
        (6, 5, 3, (True, True)), (16, 6, 10, (True, False)), (4, 16, 10, (False, True)),
    ], ids=["both_compressed", "wide_out_compressed", "receive_compressed"])
    @pytest.mark.parametrize("precoder_mode", ["dd_corrected", "paper_literal"])
    @pytest.mark.parametrize("snr_db", [6.0, math.inf])
    def test_compressed_sides_match_the_per_frame_oracle(self, monkeypatch, n_tx, n_rx, n_paths, compressed,
                                                         precoder_mode, snr_db):
        # a chunk's frames go through the core's taps together, and its noise is drawn in the
        # core's receive coordinates; the oracle lifts the factors to H's coordinates instead,
        # applies the taps between the antennas and projects each frame onto the receive basis
        cfg = replace(BURST, n_tx=n_tx, n_rx=n_rx, n_paths=n_paths, n_frames=2 * BURST_CHUNK + 1,
                      precoder_mode=precoder_mode, snr_db=snr_db)
        core_side = max(min(n_tx, n_paths), min(n_rx, n_paths))
        per_frame = max(120, core_side * cfg.m_delay * cfg.n_doppler)  # the Kendall pairs, or the core's samples
        monkeypatch.setattr(link_sim, "FRAME_CHUNK_ENTRIES", per_frame * BURST_CHUNK)
        assert _frames_per_chunk(cfg) == BURST_CHUNK
        core = spatial_core(sample_channel(cfg, 0))
        assert (core.r_tx.shape[0] < n_tx, core.r_rx.shape[0] < n_rx) == compressed
        self._assert_matches_the_per_frame_oracle(cfg)

    @staticmethod
    def _assert_matches_the_per_frame_oracle(cfg):
        draw = np.random.default_rng(11)
        idx = sample_payload(draw, cfg.payload_len)
        w = sample_importance(draw, cfg.payload_len)
        rng, oracle_rng = np.random.default_rng(12), np.random.default_rng(12)
        got = run_link(cfg, idx, w, rng)
        want = run_link_per_frame(cfg, idx, w, oracle_rng)

        assert got.ser == want.ser
        for name in ("mse", "weighted_mse", "kappa_exact", "kappa_soft"):
            a, b = getattr(got, name), getattr(want, name)
            if abs(b) < 1e-20:
                assert abs(a - b) <= 1e-20, name
            else:
                assert abs(a - b) <= 1e-12 * abs(b), name
        np.testing.assert_array_equal(got.gains, want.gains)
        assert rng.bit_generator.state == oracle_rng.bit_generator.state

    def test_the_spatial_core_sets_the_chunk(self):
        # 16 sub-channels, 120 Kendall pairs, and 10 paths: the core's larger side holds 160
        # samples per frame, where the 128 transmit antennas' would hold 2048
        cfg = SimConfig(n_tx=128, n_rx=8, n_paths=10, n_rf=1, m_delay=4, n_doppler=4, n_frames=512)
        assert _frames_per_chunk(cfg) == link_sim.FRAME_CHUNK_ENTRIES // 160 == 1638
        assert _frames_per_chunk(replace(cfg, n_tx=8, n_rx=128)) == 1638
        # 6 paths: 96 samples, fewer than the Kendall pairs, which set the chunk
        assert _frames_per_chunk(replace(cfg, n_paths=6)) == link_sim.FRAME_CHUNK_ENTRIES // 120

    def test_chunk_holds_at_least_one_frame(self, monkeypatch):
        monkeypatch.setattr(link_sim, "FRAME_CHUNK_ENTRIES", 1)
        assert _frames_per_chunk(BURST) == 1
        monkeypatch.undo()
        # the larger array sets the chunk: 32 signal entries per frame here
        assert _frames_per_chunk(replace(BURST, n_rf=1, m_delay=1)) == link_sim.FRAME_CHUNK_ENTRIES // 16


class TestSweeps:
    def test_snr_sweep_shape_and_grid(self):
        rows = run_sweep(snr_points(SMALL, [-6.0, 0.0, 6.0, 12.0, 18.0]), trials=2)
        assert [r.snr_db for r in rows] == [-6.0, 0.0, 6.0, 12.0, 18.0]
        assert all(r.trials == 2 for r in rows)
        assert all(0.0 <= r.ser <= 1.0 and r.mse >= 0.0 for r in rows)

    def test_single_point_equals_run_link(self):
        rows = run_sweep(snr_points(SMALL, [SMALL.snr_db]), trials=1)
        direct = run_random_link(SMALL, np.random.default_rng([SMALL.seed, 0]))
        assert rows[0].mse == direct.mse
        assert rows[0].ser == direct.ser

    def test_metrics_improve_with_snr(self):
        rows = run_sweep(snr_points(SMALL, [-6.0, 18.0]), trials=200)
        assert rows[1].ser < rows[0].ser
        assert rows[1].mse < rows[0].mse

    def test_monotone_under_common_randomness(self):
        # trials share channels and noise shapes across grid points, so the
        # per-point averages are monotone, not just trending
        rows = run_sweep(snr_points(SMALL, [-6.0, 0.0, 6.0, 12.0, 18.0]), trials=20)
        sers = [r.ser for r in rows]
        mses = [r.mse for r in rows]
        assert all(a >= b for a, b in zip(sers, sers[1:]))
        assert all(a >= b for a, b in zip(mses, mses[1:]))

    def test_antenna_sweep_rows(self):
        cfg = replace(SMALL, n_rf=2, n_tx=4, n_rx=4)
        rows = run_sweep(antenna_points(cfg, [4, 6, 8, 10, 12, 14, 16]), trials=1)
        assert [r.n_tx for r in rows] == [4, 6, 8, 10, 12, 14, 16]
        assert all(r.n_rx == r.n_tx for r in rows)

    def test_antenna_sweep_single_point_matches_snr_sweep(self):
        rows_a = run_sweep(antenna_points(SMALL, [SMALL.n_tx]), trials=3)
        rows_s = run_sweep(snr_points(SMALL, [SMALL.snr_db]), trials=3)
        assert rows_a[0] == rows_s[0]

    def test_more_antennas_harden_the_used_subchannels(self):
        # With unit-norm array responses, total channel energy does not grow
        # with the array size; extra antennas flatten the gain spectrum
        # instead. The weakest used sub-channel strengthens and the link MSE
        # drops -- the quantities the equalized link actually depends on.
        cfg = replace(SMALL, n_rf=2, n_tx=4, n_rx=4, n_paths=10)
        rows = run_sweep(antenna_points(cfg, [4, 16]), trials=200)
        assert rows[1].gamma_min > rows[0].gamma_min
        assert rows[1].mse < rows[0].mse

    def test_trials_validated(self):
        with pytest.raises(ValueError):
            run_sweep(snr_points(SMALL, [0.0]), trials=0)

    @pytest.mark.parametrize("trials", [True, 1.5], ids=["bool", "float"])
    def test_trials_must_be_an_integer(self, trials):
        with pytest.raises(ValueError, match="trials must be an integer"):
            run_sweep(snr_points(SMALL, [0.0]), trials=trials)

    @pytest.mark.parametrize("trials", [MAX_TRIALS + 1, 10**400], ids=["max_plus_1", "int_1e400"])
    def test_trials_bounded(self, trials):
        with pytest.raises(ValueError, match="trials must be in"):
            run_sweep(snr_points(SMALL, [0.0]), trials=trials)


def _oracle_rows(points, trials):
    """Each (point, trial) link run on its own, with no realization reuse, averaged from a list of its metrics."""
    rows = []
    for p in points:
        links = [run_random_link(p, _trial_rng(p.seed, t)) for t in range(trials)]
        names = ("ser", "mse", "weighted_mse", "kappa_exact", "kappa_soft")
        means = [np.mean([getattr(m, name) for m in links]) for name in names]
        means += [np.mean([m.gains[0] for m in links]), np.mean([m.gains[-1] for m in links])]
        rows.append(SweepRow(p.snr_db, p.n_tx, p.n_rx, p.n_rf, p.allocation_mode, trials, *map(float, means)))
    return rows


def _count_decompose(monkeypatch):
    """Records the ``k`` of every ``decompose`` a sweep makes, and of every one that took LAPACK."""
    calls, lapack = [], []
    real, real_lapack = link_sim.decompose, precoding._lapack_eigenpairs

    def counted(core, k):
        calls.append(k)
        return real(core, k)

    def counted_lapack(routines, g, offsets, k):
        lapack.append(k)
        return real_lapack(routines, g, offsets, k)

    monkeypatch.setattr(link_sim, "decompose", counted)
    monkeypatch.setattr(precoding, "_lapack_eigenpairs", counted_lapack)
    return calls, lapack


class TestSweepLoop:
    @pytest.mark.parametrize(
        "points",
        [
            snr_points(SMALL, [-6.0, 0.0, math.inf, 12.0]),
            snr_points(replace(SMALL, n_frames=3, allocation_mode="uniform"), [0.0, 18.0]),
            antenna_points(replace(SMALL, n_frames=2), [2, 3, 4]),
        ],
        ids=["snr", "snr_frames", "antennas"],
    )
    def test_bytes_match_links_run_alone(self, points):
        assert format_csv(run_sweep(points, trials=3)) == format_csv(_oracle_rows(points, 3))

    def test_memory_held_per_finished_link_does_not_depend_on_k(self, monkeypatch):
        def held_per_link(k):
            held = []

            def fake_link(point, rng, slot=None):
                held.append(tracemalloc.get_traced_memory()[0])
                return LinkMetrics(0.5, 0.25, 0.125, 1.0, 0.75, np.linspace(2.0, 1.0, k))

            monkeypatch.setattr(link_sim, "run_random_link", fake_link)
            monkeypatch.setattr(link_sim.logger, "disabled", True)  # captured progress lines are held too
            tracemalloc.start()
            try:
                run_sweep(snr_points(SMALL, [0.0, 6.0]), trials=500)
            finally:
                tracemalloc.stop()
            # from the second link on, so that the last link's metrics are held at both ends
            return (held[-1] - held[1]) / (len(held) - 2)

        # a sweep that kept each link's gains would hold 8 * 1016 more bytes per link
        assert abs(held_per_link(1024) - held_per_link(8)) < 8

    def test_snr_sweep_decomposes_once_per_trial(self, monkeypatch):
        calls, lapack = _count_decompose(monkeypatch)
        run_sweep(snr_points(SMALL, [-6.0, 0.0, 6.0, 12.0, 18.0]), trials=3)
        assert calls == lapack == [SMALL.n_subchannels] * 3

    def test_antenna_sweep_decomposes_every_link(self, monkeypatch):
        calls, lapack = _count_decompose(monkeypatch)
        run_sweep(antenna_points(SMALL, [2, 3, 4]), trials=2)
        assert calls == lapack == [SMALL.n_subchannels] * (3 * 2)

    def test_sweeps_never_call_the_svd_oracle(self, monkeypatch):
        def no_svd(*args, **kwargs):
            raise AssertionError("np.linalg.svd called on the sweep path")

        monkeypatch.setattr(np.linalg, "svd", no_svd)
        for points in (snr_points(SMALL, [0.0, 12.0]), antenna_points(SMALL, [2, 4])):
            rows = run_sweep(points, trials=2)
            assert all(math.isfinite(row.mse) for row in rows)

    def test_sweeps_never_form_the_dense_core(self, monkeypatch):
        def no_dense(*args, **kwargs):
            raise AssertionError("a dense core formed on the sweep path")

        monkeypatch.setattr(validation, "dense_spatial_core", no_dense)
        monkeypatch.setattr(validation, "DenseCore", no_dense)
        for points in (snr_points(SMALL, [0.0, 12.0]), antenna_points(SMALL, [2, 3, 4])):
            rows = run_sweep(points, trials=2)
            assert all(math.isfinite(row.mse) for row in rows)

    @pytest.mark.skipif(precoding._gram_routines() is None, reason="numpy's BLAS lacks the LAPACK route")
    @pytest.mark.parametrize(
        "points",
        [
            snr_points(SimConfig(n_tx=4, n_rx=4, m_delay=4, n_doppler=4, n_paths=6, n_frames=2), [-6.0, 12.0]),
            # 5 antennas on 3 paths: both sides compressed
            antenna_points(SimConfig(n_rx=4, n_rf=1, m_delay=4, n_doppler=2, n_paths=3), [2, 5]),
        ],
        ids=["snr", "antennas"],
    )
    def test_the_eigh_fallback_sweeps_to_the_rows_of_the_lapack_route(self, monkeypatch, points):
        # ser is left out: its QAM decisions hang on the singular vectors' phases, which
        # each route picks by its own rounding; the other averages do not. These draws'
        # k + 1 leading singular values lie at least 2e-5 sigma_max apart: of a near-tied
        # pair each route picks its own basis, which moves weighted_mse
        lapack = run_sweep(points, trials=3)
        fallbacks = []
        monkeypatch.setattr(precoding, "_gram_routines", lambda: fallbacks.append("eigh"))  # None: no routines
        eigh = run_sweep(points, trials=3)
        assert fallbacks and points[0].precoder_mode == "dd_corrected"
        for a, b in zip(lapack, eigh, strict=True):
            assert (a.snr_db, a.n_tx, a.n_rx, a.trials) == (b.snr_db, b.n_tx, b.n_rx, b.trials)
            for column in ("mse", "weighted_mse", "kappa_exact", "kappa_soft", "gamma_max", "gamma_min"):
                assert getattr(b, column) == pytest.approx(getattr(a, column), rel=1e-9, abs=0), column


class TestRealizationSlot:
    CFG = replace(SMALL, n_rf=2)

    def _chan(self, seed):
        return sample_channel(self.CFG, np.random.default_rng(seed))

    def test_reuses_an_equal_channel(self):
        slot = RealizationSlot()
        held = slot.get(self._chan(0), 1, "dd_corrected")
        # an equal channel drawn again is a hit, not only the same object
        assert slot.get(self._chan(0), 1, "dd_corrected") is held

    @pytest.mark.parametrize(
        "key",
        [(1, 1, "dd_corrected"), (0, 2, "dd_corrected"), (0, 1, "paper_literal")],
        ids=["channel", "n_rf", "precoder_mode"],
    )
    def test_never_reuses_a_mismatched_realization(self, key):
        slot = RealizationSlot()
        slot.get(self._chan(0), 1, "dd_corrected")
        chan_seed, n_rf, mode = key
        chan = self._chan(chan_seed)
        got = slot.get(chan, n_rf, mode)
        fresh = realize(chan, n_rf, mode)
        # the slot now holds the new key: asking for it again is a hit
        assert slot.get(chan, n_rf, mode) is got
        np.testing.assert_array_equal(got.gains, fresh.gains)
        np.testing.assert_array_equal(got.pc.g, fresh.pc.g)
        np.testing.assert_array_equal(got.pc.w, fresh.pc.w)

    def test_miss_drops_the_held_realization_first(self, monkeypatch):
        slot = RealizationSlot()
        held = weakref.ref(slot.get(self._chan(0), 1, "dd_corrected"))
        alive_during_realize = []
        real_realize = link_sim.realize

        def spy(*args):
            alive_during_realize.append(held() is not None)
            return real_realize(*args)

        monkeypatch.setattr(link_sim, "realize", spy)
        slot.get(self._chan(1), 1, "dd_corrected")
        assert alive_during_realize == [False]

    def test_held_precoder_and_combiner_are_read_only(self):
        slot = RealizationSlot()
        held = slot.get(self._chan(0), 1, "dd_corrected")
        for factor in (held.pc.g, held.pc.w):
            with pytest.raises(ValueError, match="read-only"):
                factor[0, 0] = 0.0

    def test_metrics_gains_do_not_alias_the_held_realization(self):
        slot = RealizationSlot()
        cfg = self.CFG
        a = run_random_link(cfg, _trial_rng(0, 0), slot)
        a.gains[:] = 0.0
        b = run_random_link(cfg, _trial_rng(0, 0), slot)
        assert np.all(b.gains > 0)


class TestRealizeInPlace:
    """``realize``'s factors, kept in the core's bases and folded in place, against out-of-place products."""

    @pytest.mark.parametrize("route", ["lapack", "eigh"])
    @pytest.mark.parametrize("n, n_paths", [(4, 6), (6, 4)], ids=["uncompressed", "compressed"])
    def test_both_decomposition_routes_keep_the_eigenvectors_as_the_factor(self, monkeypatch, route, n, n_paths):
        # the eigenvectors go to the core's product and become the Gram side's factor as
        # they are, in the core's basis, whether or not that side is compressed
        cfg = SimConfig(n_tx=n, n_rx=n, n_rf=1, m_delay=2, n_doppler=3, n_paths=n_paths)
        core = spatial_core(sample_channel(cfg, 46))
        assert (core.r_in.shape[0] < n) == (n > n_paths)  # a compressed side's R has L rows
        if route == "eigh":
            monkeypatch.setattr(precoding, "_gram_routines", lambda: None)
        products = []
        real_times = SpatialCore.times

        def recorded(self, x, out=None):
            products.append(x)
            return real_times(self, x, out)

        monkeypatch.setattr(SpatialCore, "times", recorded)
        dec = precoding.decompose(core, cfg.n_subchannels)
        [z] = products
        assert (dec.u if core.wide else dec.v) is z and z.shape == (core.side, cfg.n_subchannels)
        assert not z.flags.owndata  # a view of the eigenvectors' own buffer

    @pytest.mark.parametrize("mode", ["dd_corrected", "paper_literal"])
    @pytest.mark.parametrize(
        "n_tx, n_rx, n_paths",
        [(3, 5, 6), (5, 3, 6), (4, 6, 3), (2, 6, 4), (6, 2, 4), (16, 6, 10)],
        ids=["tall_uncompressed", "wide_uncompressed", "tall_q_each_side", "tall_q_rx", "wide_q_tx", "wide_q_out"],
    )
    def test_matches_the_dense_products(self, mode, n_tx, n_rx, n_paths):
        cfg = SimConfig(n_tx=n_tx, n_rx=n_rx, n_rf=2, m_delay=2, n_doppler=3, n_paths=n_paths,
                        max_delay_tap=5, max_doppler_tap=2)
        chan = sample_channel(cfg, 43)
        core = spatial_core(chan)
        assert core.wide == (n_tx > n_rx)
        dec = precoding.decompose(core, cfg.n_subchannels)
        u, v = dec.u, dec.v
        h = validation.dense_time_channel(validation.antenna_taps(chan))
        h_u, h_v = validation.h_factors(chan, u, v)
        assert np.max(np.abs(h @ h_v - h_u * dec.sigma)) < 1e-12 * dec.sigma[0]
        if mode == "dd_corrected":
            c_t, c_r = precoding.dd_transform_matrices(2, 2, 3)
            u, v = u @ c_r, v @ c_t.conj().T
        pc = realize(chan, cfg.n_rf, mode).pc
        np.testing.assert_allclose(pc.w, u, rtol=0, atol=1e-13)
        np.testing.assert_allclose(pc.g, v, rtol=0, atol=1e-13)


@pytest.mark.parametrize("n_tx, n_rx, n_paths", [(16, 6, 10), (6, 16, 4), (4, 16, 10)],
                         ids=["wide", "tall", "receive_only"])
def test_the_taps_are_the_spatial_core(n_tx, n_rx, n_paths):
    # the taps are (Q_rx kron I)^H H (Q_tx kron I), min(n, L) rows or columns per block on each side
    cfg = SimConfig(n_tx=n_tx, n_rx=n_rx, n_paths=n_paths)
    chan = sample_channel(cfg, 47)
    real = realize(chan, cfg.n_rf, cfg.precoder_mode)
    assert real.h.shape[2:] == (min(n_rx, n_paths), min(n_tx, n_paths))
    q_rx, q_tx = (np.kron(q, np.eye(chan.mn)) for q in validation.dense_spatial_core(chan)[::2])
    h = validation.dense_time_channel(validation.antenna_taps(chan))
    np.testing.assert_allclose(validation.dense_time_channel(real.h), q_rx.conj().T @ h @ q_tx, rtol=0, atol=1e-13)


def test_the_noise_in_the_core_receive_coordinates_is_white_after_the_combiner():
    # 16 receive antennas and 10 paths: apply_channel draws min(n_rx, L)*MN samples per frame
    # in the core's receive coordinates; combined, they keep the variance noise_var per sub-channel
    cfg = SimConfig(n_tx=4, n_rx=16, n_paths=10, n_rf=1, m_delay=2, n_doppler=2, max_delay_tap=3)
    real = realize(sample_channel(cfg, 48), cfg.n_rf, cfg.precoder_mode)
    frames, noise_var, mn = 10_000, 0.5, cfg.m_delay * cfg.n_doppler
    assert real.h.shape[2:] == (cfg.n_paths, cfg.n_tx)
    r = apply_channel(real.h, np.zeros((frames, cfg.n_tx * mn)), noise_var, np.random.default_rng(49))
    assert r.shape == (frames, cfg.n_paths * mn)
    combined = r @ real.pc.w.conj()
    cov = combined.T @ combined.conj() / frames
    err = float(np.max(np.abs(cov / noise_var - np.eye(cfg.n_subchannels))))
    assert err < validation.TOL_NOISE_VAR, f"combined noise covariance off identity by {err:.3f}"


def test_a_realization_on_128_antennas_per_side_peaks_below_6_mib():
    # 128x128 antennas, 10 paths, an 8x8 grid: the taps between the antennas alone
    # would hold up to 96 MiB, and realize's traced peak read 149 MiB; in the core's
    # transmit coordinates they held up to 7.5 MiB and the peak read 14.29 MiB; as the
    # core's own taps they hold 0.59 MiB
    cfg = SimConfig(n_tx=128, n_rx=128, n_paths=10)
    chan = sample_channel(cfg, 1)
    realize(chan, cfg.n_rf, cfg.precoder_mode)  # the first call's imports and caches are not the link's
    tracemalloc.start()
    try:
        real = realize(chan, cfg.n_rf, cfg.precoder_mode)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert real.h.shape[1:] == (chan.mn, cfg.n_paths, cfg.n_paths)
    assert peak < 6 * 2**20, f"realize peaked at {peak / 2**20:.2f} MiB"


def test_a_realization_on_16_antennas_per_side_peaks_below_5_5_mib():
    # antenna_sweep's largest point: 16x16 antennas, 10 paths, an 8x8 grid. Lifted to
    # 16*MN rows, the precoder and combiner held 4 MiB and realize's traced peak, inside
    # build_time_channel, read 6.56 MiB; in the core's bases, 10*MN rows, they hold 2.5 MiB,
    # and with the taps in the core's transmit coordinates the peak read 4.45 MiB
    cfg = SimConfig(n_tx=16, n_rx=16, n_paths=10)
    chan = sample_channel(cfg, 1)
    realize(chan, cfg.n_rf, cfg.precoder_mode)  # the first call's imports and caches are not the link's
    tracemalloc.start()
    try:
        real = realize(chan, cfg.n_rf, cfg.precoder_mode)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert real.pc.g.shape == real.pc.w.shape == (cfg.n_paths * chan.mn, cfg.n_subchannels)
    assert real.h.shape[1:] == (chan.mn, cfg.n_paths, cfg.n_paths)
    assert peak < 5.5 * 2**20, f"realize peaked at {peak / 2**20:.2f} MiB"


GRID16 = SimConfig(m_delay=16, n_doppler=16)


@pytest.fixture(scope="module")
def grid16_realization():
    """A ``grid16``-shaped realization, and the traced peak between its decomposition and its taps.

    The peak is in k-column arrays, ``n*MN x k`` complex128 (16 MiB here,
    k = n_rf*MN = 512): tracing starts when ``decompose`` returns and stops
    when ``build_time_channel`` is called.
    """
    cfg = GRID16
    chan = sample_channel(cfg, np.random.default_rng(44))
    decompose, build_time_channel = link_sim.decompose, link_sim.build_time_channel
    peak = []

    def traced_decompose(core, k):
        dec = decompose(core, k)
        tracemalloc.start()
        return dec

    def traced_build(core):
        peak.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
        return build_time_channel(core)

    link_sim.decompose, link_sim.build_time_channel = traced_decompose, traced_build
    try:
        slot = RealizationSlot()
        real = slot.get(chan, cfg.n_rf, cfg.precoder_mode)
    finally:
        link_sim.decompose, link_sim.build_time_channel = decompose, build_time_channel
        tracemalloc.stop()
    k_column = 16 * cfg.n_tx * chan.mn * cfg.n_subchannels
    assert real.pc.g.nbytes == real.pc.w.nbytes == k_column
    return slot, real, peak[0] / k_column


class TestGrid16Memory:
    def test_precoder_and_combiner_need_under_one_k_column_array(self, grid16_realization):
        # lifting into new arrays and folding by out-of-place products held 4.5
        peak = grid16_realization[2]
        assert peak < 1.0, f"{peak:.2f} k-column arrays between decompose and build_time_channel"

    def test_a_link_on_a_held_realization_copies_no_factor(self, grid16_realization):
        # a conjugated copy of the combiner is one k-column array; the chunk's
        # own arrays, the Kendall pairs' the largest (about 0.4 here), stay
        # within FRAME_CHUNK_ENTRIES entries each
        slot, real, _ = grid16_realization
        rng = np.random.default_rng(45)
        idx, w = sample_payload(rng, GRID16.payload_len), sample_importance(rng, GRID16.payload_len)
        k_column = real.pc.w.nbytes
        tracemalloc.start()
        try:
            metrics = run_link(GRID16, idx, w, np.random.default_rng(44), slot)
            peak = tracemalloc.get_traced_memory()[1] / k_column
        finally:
            tracemalloc.stop()
        assert slot.get(sample_channel(GRID16, np.random.default_rng(44)), GRID16.n_rf,
                        GRID16.precoder_mode) is real  # the link reused the held realization
        assert math.isfinite(metrics.mse)
        assert peak < 0.5, f"run_link allocated {peak:.2f} k-column arrays"

    def test_the_taps_and_a_link_need_under_an_eighth_of_the_dense_h(self, grid16_realization):
        # the dense H of this shape is 64 MiB, its taps 1.5 MiB; the link's
        # largest arrays are the Kendall pairs (see the test above)
        slot, real, _ = grid16_realization
        chan = sample_channel(GRID16, np.random.default_rng(44))
        rng = np.random.default_rng(45)
        idx, w = sample_payload(rng, GRID16.payload_len), sample_importance(rng, GRID16.payload_len)
        dense_h = 16 * (GRID16.n_rx * chan.mn) * (GRID16.n_tx * chan.mn)
        tracemalloc.start()
        try:
            assert validation.antenna_taps(chan).shape == real.h.shape  # freed at once: the slot holds the taps
            run_link(GRID16, idx, w, np.random.default_rng(44), slot)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert slot.get(chan, GRID16.n_rf, GRID16.precoder_mode) is real
        assert peak < dense_h / 8, f"the taps and a link allocated {peak / 2**20:.2f} MiB"


class TestCsv:
    def test_header_and_row_count(self):
        rows = run_sweep(snr_points(SMALL, [0.0, 6.0]), trials=1)
        text = format_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 3

    def test_deterministic_bytes(self):
        rows_a = run_sweep(snr_points(SMALL, [0.0]), trials=2)
        rows_b = run_sweep(snr_points(SMALL, [0.0]), trials=2)
        assert format_csv(rows_a) == format_csv(rows_b)


class TestSamplers:
    def test_importance_positive_heavy_tailed(self):
        w = sample_importance(np.random.default_rng(9), 10_000)
        assert np.all(w > 0)
        assert w.max() / np.median(w) > 5.0

    def test_payload_in_label_range(self):
        idx = sample_payload(np.random.default_rng(10), 1000)
        assert idx.min() >= 0 and idx.max() < 64
