"""End-to-end link pipeline tests: recovery, pairing, sweeps, CSV."""

import math
import weakref
from dataclasses import replace

import numpy as np
import pytest

from otfslink import allocation, link_sim, modem, precoding
from otfslink.channel import apply_channel, sample_channel
from otfslink.dd_transforms import otfs_demodulate, otfs_modulate, stack_chains, unstack_chains
from otfslink.link_sim import (
    CSV_COLUMNS,
    MAX_TRIALS,
    LinkMetrics,
    RealizationSlot,
    SimConfig,
    _average_row,
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


def run_link_per_frame(cfg: SimConfig, payload_indices, importance, rng=None) -> LinkMetrics:
    """Oracle of :func:`run_link`: the burst frame by frame, one 1-D call per layer."""
    rng = np.random.default_rng(rng if rng is not None else cfg.seed)
    idx = np.asarray(payload_indices)
    w_all = np.asarray(importance, dtype=float)
    chan = sample_channel(cfg, rng)
    real = realize(chan, cfg.n_rf, cfg.precoder_mode)
    h, pc, gains = real.h, real.pc, real.gains
    noise_var = snr_to_noise_var(cfg.snr_db)

    k = cfg.n_subchannels
    m, n = cfg.m_delay, cfg.n_doppler
    mn = m * n
    w_h = pc.w.conj().T

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
        y = pc.g @ stack_chains(frames)
        r = apply_channel(h, y, noise_var, rng)
        s_hat = w_h @ r
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

    @pytest.mark.parametrize("trials", [MAX_TRIALS + 1, 10**400], ids=["max_plus_1", "int_1e400"])
    def test_trials_bounded(self, trials):
        with pytest.raises(ValueError, match="trials must be in"):
            run_sweep(snr_points(SMALL, [0.0]), trials=trials)


def _oracle_rows(points, trials):
    """Each (point, trial) link run on its own, with no realization reuse."""
    return [
        _average_row(p, [run_random_link(p, _trial_rng(p.seed, t)) for t in range(trials)])
        for p in points
    ]


def _count_decompose(monkeypatch):
    """Records the ``k`` of every ``decompose`` a sweep makes, and of every one that took zheevr."""
    calls, lapack = [], []
    real, real_lapack = link_sim.decompose, precoding._lapack_eigenpairs

    def counted(h, k=None):
        calls.append(k)
        return real(h, k)

    def counted_lapack(routines, h, k):
        lapack.append(k)
        return real_lapack(routines, h, k)

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
        assert (got.chan, got.n_rf, got.precoder_mode) == (chan, n_rf, mode)
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

    def test_metrics_gains_do_not_alias_the_held_realization(self):
        slot = RealizationSlot()
        cfg = self.CFG
        a = run_random_link(cfg, _trial_rng(0, 0), slot)
        a.gains[:] = 0.0
        b = run_random_link(cfg, _trial_rng(0, 0), slot)
        assert np.all(b.gains > 0)


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
