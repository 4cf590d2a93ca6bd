"""Channel construction tests against an entry-by-entry closed-form oracle."""

import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from otfslink import channel, precoding
from otfslink.channel import (
    DdMimoChannel,
    PathParams,
    apply_channel,
    build_time_channel,
    phase_rotation_matrix,
    sample_channel,
    spatial_core,
    ula_response,
)
from otfslink.link_sim import SimConfig, realize
from otfslink.validation import (
    core_sides, cyclic_shift_matrix, dense_spatial_core, dense_time_channel, lifted_product,
    time_channel_entry_oracle, unpacked,
)


class TestUlaResponse:
    def test_broadside(self):
        np.testing.assert_allclose(ula_response(np.pi / 2, 4), np.full(4, 0.5), atol=1e-15)

    def test_single_antenna(self):
        np.testing.assert_allclose(ula_response(1.234, 1), [1.0])

    def test_endfire(self):
        np.testing.assert_allclose(
            ula_response(0.0, 2), np.array([1.0, -1.0]) / np.sqrt(2.0), atol=1e-15
        )

    @pytest.mark.parametrize("angle", [0.0, 0.3, 1.1, np.pi / 2, 2.9, np.pi])
    def test_unit_norm(self, angle):
        assert abs(np.linalg.norm(ula_response(angle, 8)) - 1.0) < 1e-14

    def test_zero_antennas(self):
        with pytest.raises(ValueError):
            ula_response(0.0, 0)


class TestShiftAndRotation:
    def test_forward_shift_of_basis_vector(self):
        e0 = np.zeros(4)
        e0[0] = 1.0
        out = cyclic_shift_matrix(4, 1) @ e0
        np.testing.assert_array_equal(out, [0.0, 1.0, 0.0, 0.0])

    def test_zero_power_is_identity(self):
        np.testing.assert_array_equal(cyclic_shift_matrix(5, 0), np.eye(5))
        np.testing.assert_allclose(phase_rotation_matrix(5, 0), np.eye(5))

    def test_full_power_is_identity(self):
        np.testing.assert_array_equal(cyclic_shift_matrix(6, 6), np.eye(6))
        np.testing.assert_allclose(phase_rotation_matrix(6, 6), np.eye(6), atol=1e-12)

    def test_fourth_roots(self):
        np.testing.assert_allclose(
            np.diag(phase_rotation_matrix(4, 1)), [1.0, 1j, -1.0, -1j], atol=1e-15
        )

    def test_negative_power_conjugates(self):
        np.testing.assert_array_equal(
            phase_rotation_matrix(8, -1), phase_rotation_matrix(8, 1).conj()
        )

    @pytest.mark.parametrize("size,power", [(4, 1), (6, 2), (8, -3)])
    def test_unitary(self, size, power):
        for mat in (cyclic_shift_matrix(size, power), phase_rotation_matrix(size, power)):
            np.testing.assert_allclose(mat @ mat.conj().T, np.eye(size), atol=1e-12)


class TestBuildTimeChannel:
    def test_identity_path(self):
        chan = DdMimoChannel(
            paths=(PathParams(1.0 + 0j, 0, 0, 0.7, 0.3),),
            n_tx=1, n_rx=1, m_delay=2, n_doppler=2,
        )
        h = build_time_channel(chan)
        assert h.shape == (1, 4, 1, 1)
        np.testing.assert_allclose(dense_time_channel(h), np.eye(4), atol=1e-14)

    def test_pure_delay_is_shift(self):
        chan = DdMimoChannel(
            paths=(PathParams(1.0 + 0j, 1, 0, 0.7, 0.3),),
            n_tx=1, n_rx=1, m_delay=2, n_doppler=2,
        )
        h = build_time_channel(chan)
        assert h.shape == (2, 4, 1, 1) and not np.any(h[0])  # no path has delay 0
        np.testing.assert_allclose(dense_time_channel(h), cyclic_shift_matrix(4, 1), atol=1e-14)

    def test_matches_entry_oracle(self):
        rng = np.random.default_rng(11)
        cfg = SimConfig(
            n_tx=2, n_rx=2, n_rf=1, m_delay=2, n_doppler=2, n_paths=3, max_delay_tap=3, max_doppler_tap=1
        )
        for _ in range(5):
            chan = sample_channel(cfg, rng)
            h = dense_time_channel(build_time_channel(chan))
            assert np.max(np.abs(h - time_channel_entry_oracle(chan))) < 1e-12

    @pytest.mark.parametrize(
        "n_tx, n_rx, m, n, n_paths",
        [(3, 2, 2, 3, 4), (1, 4, 3, 2, 1), (5, 5, 2, 2, 12)],
        ids=["n_tx_ne_n_rx", "one_path", "many_paths"],
    )
    def test_scatter_matches_entry_oracle(self, n_tx, n_rx, m, n, n_paths):
        # delays wrap around the frame and Doppler taps take both signs
        cfg = SimConfig(n_tx=n_tx, n_rx=n_rx, n_rf=1, m_delay=m, n_doppler=n, n_paths=n_paths,
                        max_delay_tap=m * n - 1, max_doppler_tap=m * n - 1)
        rng = np.random.default_rng(14)
        for _ in range(3):
            chan = sample_channel(cfg, rng)
            taps, oracle = build_time_channel(chan), time_channel_entry_oracle(chan)
            assert taps.shape == (max(p.delay_tap for p in chan.paths) + 1, m * n, n_rx, n_tx)
            # entry [d, q, r, t] is H's at row r*MN + (q + d) mod MN, column t*MN + q
            d, q, r, t = np.indices(taps.shape)
            rows, cols = r * m * n + (q + d) % (m * n), t * m * n + q
            assert np.max(np.abs(taps - oracle[rows, cols])) < 1e-12
            assert np.max(np.abs(dense_time_channel(taps) - oracle)) < 1e-12

    def test_linear_in_gains(self):
        rng = np.random.default_rng(12)
        cfg = SimConfig(n_tx=2, n_rx=3, n_rf=1, m_delay=2, n_doppler=2, n_paths=4,
                        max_delay_tap=2, max_doppler_tap=1)
        chan = sample_channel(cfg, rng)
        doubled = DdMimoChannel(
            paths=tuple(
                PathParams(2 * p.gain, p.delay_tap, p.doppler_tap, p.aod, p.aoa)
                for p in chan.paths
            ),
            n_tx=chan.n_tx, n_rx=chan.n_rx, m_delay=chan.m_delay, n_doppler=chan.n_doppler,
        )
        np.testing.assert_allclose(build_time_channel(doubled), 2 * build_time_channel(chan))

    def test_single_antenna_kron_structure(self):
        # against the shift/rotation primitives raised to matrix powers
        rng = np.random.default_rng(13)
        cfg = SimConfig(n_tx=1, n_rx=1, n_rf=1, m_delay=2, n_doppler=3, n_paths=4,
                        max_delay_tap=5, max_doppler_tap=2)
        chan = sample_channel(cfg, rng)
        mn = chan.mn
        pi_1 = cyclic_shift_matrix(mn, 1)
        delta_1 = phase_rotation_matrix(mn, 1)
        expected = np.zeros((mn, mn), dtype=complex)
        for p in chan.paths:
            shift = np.linalg.matrix_power(pi_1, p.delay_tap)
            if p.doppler_tap >= 0:
                rot = np.linalg.matrix_power(delta_1, p.doppler_tap)
            else:
                rot = np.linalg.matrix_power(delta_1.conj(), -p.doppler_tap)
            expected += p.gain * shift @ rot
        np.testing.assert_allclose(dense_time_channel(build_time_channel(chan)), expected, atol=1e-12)

    @pytest.mark.parametrize("side", ["a_tx", "a_rx"])
    def test_responses_need_one_column_per_path(self, side):
        chan = DdMimoChannel(paths=(PathParams(1.0 + 0j, 0, 0, 0.7, 0.3),) * 2, n_tx=2, n_rx=2, m_delay=2, n_doppler=2)
        shape = {"a_tx": (1, 4, 2, 3), "a_rx": (1, 4, 3, 2)}[side]
        assert build_time_channel(chan, **{side: np.ones((3, 2))}).shape == shape
        for bad in ((2, 3), (2,)):
            with pytest.raises(ValueError, match=f"{side} must have one column per path"):
                build_time_channel(chan, **{side: np.ones(bad)})

    def test_tap_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            DdMimoChannel(
                paths=(PathParams(1.0 + 0j, 4, 0, 0.0, 0.0),),
                n_tx=1, n_rx=1, m_delay=2, n_doppler=2,
            )
        with pytest.raises(ValueError):
            DdMimoChannel(
                paths=(PathParams(1.0 + 0j, 0, 4, 0.0, 0.0),),
                n_tx=1, n_rx=1, m_delay=2, n_doppler=2,
            )


    @pytest.mark.parametrize("angle", ["aod", "aoa"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_nonfinite_angle_rejected_naming_the_path(self, angle, value):
        good = PathParams(1.0 + 0j, 0, 0, 0.5, 1.0)
        bad = replace(good, **{angle: value})
        with pytest.raises(ValueError, match=f"path 1: {angle} must be finite"):
            DdMimoChannel(paths=(good, bad), n_tx=2, n_rx=2, m_delay=2, n_doppler=2)


    @pytest.mark.parametrize(
        "field, value",
        [("n_tx", 2.5), ("n_rx", 2.0), ("m_delay", np.float64(2.0)), ("n_doppler", True), ("n_tx", np.bool_(True))],
        ids=["n_tx_2.5", "n_rx_2.0", "m_delay_float64", "n_doppler_True", "n_tx_numpy_bool"],
    )
    def test_non_integer_size_rejected_naming_the_field(self, field, value):
        sizes = {**dict(n_tx=2, n_rx=2, m_delay=2, n_doppler=2), field: value}
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            DdMimoChannel(paths=(PathParams(1.0 + 0j, 0, 0, 0.5, 1.0),), **sizes)

    @pytest.mark.parametrize(
        "tap, value", [("delay_tap", 1.5), ("doppler_tap", 0.5), ("delay_tap", True), ("doppler_tap", 1.0)]
    )
    def test_non_integer_tap_rejected_naming_the_path(self, tap, value):
        good = PathParams(1.0 + 0j, 0, 0, 0.5, 1.0)
        bad = replace(good, **{tap: value})
        with pytest.raises(ValueError, match=f"path 1: {tap} must be an integer"):
            DdMimoChannel(paths=(good, bad), n_tx=2, n_rx=2, m_delay=2, n_doppler=2)

    def test_numpy_integers_accepted(self):
        path = PathParams(1.0 + 0j, np.int64(1), np.int32(-1), 0.5, 1.0)
        chan = DdMimoChannel(paths=(path,), n_tx=np.int64(2), n_rx=2, m_delay=np.intp(2), n_doppler=2)
        assert build_time_channel(chan).shape == (2, 4, 2, 2)
        assert realize(chan, 1, "dd_corrected").gains.shape == (4,)


def _gram(core):
    """``core``'s Gram matrix in the layout ``decompose`` gives it at its size, as a square."""
    return unpacked(*precoding.gram_matrix(core))


def _assert_stored_triangle(got, want):
    """The square ``got`` holds ``want``'s entries with column >= row, within 1e-12 of its largest, and zeros below."""
    assert np.all(np.tril(got, -1) == 0)
    assert np.max(np.abs(np.triu(got) - np.triu(want))) < 1e-12 * np.max(np.abs(want))


class TestOneRotationPerDopplerTap:
    """``_delay_slabs`` takes each distinct Doppler tap's phases once, not once per term."""

    @pytest.fixture
    def rotation_calls(self, monkeypatch):
        calls = []
        real = channel.phase_rotation_matrix

        def counted(size, power):
            calls.append(int(power))
            return real(size, power)

        monkeypatch.setattr(channel, "phase_rotation_matrix", counted)
        return calls

    CFG = SimConfig(n_tx=3, n_rx=4, n_rf=1, m_delay=2, n_doppler=3, n_paths=12,
                    max_delay_tap=5, max_doppler_tap=2)

    def test_h(self, rotation_calls):
        for seed in range(3):
            chan = sample_channel(self.CFG, seed)
            del rotation_calls[:]
            h = dense_time_channel(build_time_channel(chan))
            taps = {p.doppler_tap for p in chan.paths}
            assert sorted(rotation_calls) == sorted(taps) and len(taps) < len(chan.paths)
            assert np.max(np.abs(h - time_channel_entry_oracle(chan))) < 1e-12

    @pytest.mark.parametrize("n_tx, n_rx", [(3, 4), (4, 3)], ids=["tall", "wide"])
    def test_gram(self, rotation_calls, n_tx, n_rx):
        for seed in range(3):
            chan = sample_channel(replace(self.CFG, n_tx=n_tx, n_rx=n_rx), seed)
            core = spatial_core(chan)
            del rotation_calls[:]
            gram = _gram(core)
            # the Gram matrix's terms carry the pairs' Doppler differences modulo MN
            taps = {(p.doppler_tap - o.doppler_tap) % chan.mn for p in chan.paths for o in chan.paths}
            assert len(rotation_calls) == len(set(rotation_calls)) <= len(taps)
            dense = dense_spatial_core(chan)[1]
            a = dense.conj().T if core.wide else dense
            expected = a.conj().T @ a
            _assert_stored_triangle(gram * core.scale**2, expected)


class TestSpatialCore:
    @pytest.mark.parametrize(
        "n_tx, n_rx, n_paths",
        [(3, 5, 4), (6, 6, 3), (2, 3, 7), (4, 4, 1)],
        ids=["n_tx_ne_n_rx", "paths_below_antennas", "paths_above_antennas", "one_path"],
    )
    def test_factors_h_exactly(self, n_tx, n_rx, n_paths):
        cfg = SimConfig(n_tx=n_tx, n_rx=n_rx, n_rf=1, m_delay=2, n_doppler=3, n_paths=n_paths,
                        max_delay_tap=5, max_doppler_tap=2)
        chan = sample_channel(cfg, 15)
        mn = chan.mn
        q_rx, core, q_tx = dense_spatial_core(chan)
        assert core.shape == (min(n_rx, n_paths) * mn, min(n_tx, n_paths) * mn)
        for q in (q_rx, q_tx):
            np.testing.assert_allclose(q.conj().T @ q, np.eye(q.shape[1]), atol=1e-14)
        lifted = np.kron(q_rx, np.eye(mn)) @ core @ np.kron(q_tx, np.eye(mn)).conj().T
        assert np.max(np.abs(lifted - time_channel_entry_oracle(chan))) < 1e-12
        path_core = spatial_core(chan)
        assert path_core.side == min(core.shape) and path_core.wide == (core.shape[0] < core.shape[1])
        # the path core keeps each side's R, the dense core's, and no Q
        assert path_core.shape == core.shape
        for (_, r), kept in zip(core_sides(chan), (path_core.r_rx, path_core.r_tx)):
            assert np.array_equal(kept, r)

    @pytest.mark.parametrize(
        "n_tx, n_rx, n_paths",
        [(5, 6, 3), (3, 5, 4), (5, 3, 4), (4, 4, 4), (4, 4, 1), (1, 1, 1), (16, 6, 10)],
        ids=["tall_compressed", "tall", "wide", "equal_count", "one_path", "one_path_one_antenna",
             "wide_out_compressed"],
    )
    def test_compresses_each_side_only_when_it_has_more_antennas_than_paths(
        self, monkeypatch, n_tx, n_rx, n_paths
    ):
        cfg = SimConfig(n_tx=n_tx, n_rx=n_rx, n_rf=1, m_delay=2, n_doppler=3, n_paths=n_paths)
        chan = sample_channel(cfg, 16)
        qr_calls = []
        qr = np.linalg.qr
        monkeypatch.setattr(np.linalg, "qr", lambda a, mode: qr_calls.append((a.shape, mode)) or qr(a, mode))
        core = spatial_core(chan)
        a_rx, a_tx = (np.column_stack([ula_response(getattr(p, angle), count) for p in chan.paths])
                      for angle, count in (("aoa", n_rx), ("aod", n_tx)))
        rx = (n_rx, a_rx, core.r_rx, core.r_in if core.wide else core.r_out)
        tx = (n_tx, a_tx, core.r_tx, core.r_out if core.wide else core.r_in)
        (n_in, *_), (n_out, *_) = (rx, tx) if core.wide else (tx, rx)
        # the out side first, and R alone: no Q is formed
        assert qr_calls == [((n, n_paths), "r") for n in (n_out, n_in) if n > n_paths]
        for n, a, r, r_side in (rx, tx):
            assert r_side is r
            if n > n_paths:  # A = Q R with a tall Q, so R is upper triangular, L x L, and R^H R = A^H A
                assert r.shape == (n_paths, n_paths) and np.array_equal(r, np.triu(r))
                np.testing.assert_allclose(r.conj().T @ r, a.conj().T @ a, rtol=0, atol=1e-14)
            else:  # the core is H's own on that side, and needs no basis
                assert np.array_equal(r, a)
        assert core.side == min(n_in, n_paths) * chan.mn
        assert core.shape == (min(n_out, n_paths) * chan.mn, core.side)

    @pytest.mark.parametrize(
        "n_tx, n_rx, n_paths, max_tap",
        [(3, 5, 4, 3), (6, 4, 10, 3), (4, 4, 6, 3), (4, 4, 1, 3), (3, 2, 4, 5), (2, 3, 4, 5)],
        ids=["tall", "wide", "square", "one_path", "taps_wrap_wide", "taps_wrap_tall"],
    )
    def test_gram_and_product_match_the_dense_core(self, n_tx, n_rx, n_paths, max_tap):
        """The Gram matrix against the dense core C's, the product against the dense H's."""
        # max_tap = MN - 1: delays wrap the frame, Doppler differences exceed MN
        cfg = SimConfig(n_tx=n_tx, n_rx=n_rx, n_rf=1, m_delay=2, n_doppler=3, n_paths=n_paths,
                        max_delay_tap=max_tap, max_doppler_tap=max_tap)
        for seed in range(3):
            chan = sample_channel(cfg, seed)
            core = spatial_core(chan)
            dense = dense_spatial_core(chan)[1]
            assert core.wide == (dense.shape[0] < dense.shape[1])
            a = dense.conj().T if core.wide else dense  # the tall one of C and C^H
            gram = a.conj().T @ a
            assert gram.shape == (core.side, core.side)
            g, offsets = precoding.gram_matrix(core)
            assert g.shape == (core.side * (core.side + 1) // 2,)  # packed at this size
            _assert_stored_triangle(unpacked(g, offsets) * core.scale**2, gram)
            h = dense_time_channel(build_time_channel(chan))
            h = h.conj().T if core.wide else h
            x = np.random.default_rng(seed).standard_normal((h.shape[1], 5)) * (1 + 2j)
            product = h @ x
            # the core's product, through its bases: (Q_out kron I) C (Q_in kron I)^H x = H x
            assert np.max(np.abs(lifted_product(chan, x) - product)) < 1e-12 * np.max(np.abs(product))

    @pytest.mark.parametrize("big", [3e200 + 4e200j, 1e308, 1.5e308 + 1.5e308j])
    def test_gains_are_scaled_by_a_power_of_two(self, big):
        # 1.5e308 + 1.5e308j is finite though its modulus is not
        chan = DdMimoChannel(
            paths=(PathParams(big, 1, -1, 0.3, 1.2), PathParams(1e-5, 0, 1, 2.0, 0.4)),
            n_tx=2, n_rx=2, m_delay=2, n_doppler=2,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            core = spatial_core(chan)
            gram, _ = precoding.gram_matrix(core)
        peak = max(abs(big.real), abs(big.imag))
        assert core.scale == 2.0 ** (np.frexp(peak)[1] - 1)
        assert 1.0 <= np.max(np.abs(core.gains.view(float))) < 2.0
        assert np.all(np.isfinite(gram))

    def test_gram_memory_stays_within_a_few_gram_sized_matrices(self):
        # 60 paths whose taps span the whole 16 x 8 grid: thousands of distinct
        # pair taps, which a pairs-by-taps array would hold 50 times the Gram
        # matrix's bytes for
        cfg = SimConfig(n_tx=4, n_rx=4, n_rf=1, m_delay=16, n_doppler=8, n_paths=60,
                        max_delay_tap=127, max_doppler_tap=127)
        core = spatial_core(sample_channel(cfg, 3))
        gram_bytes = 16 * core.side**2
        tracemalloc.start()
        try:
            gram, _ = precoding.gram_matrix(core)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert gram.shape == (core.side * (core.side + 1) // 2,)  # packed at this size
        assert peak < 2.5 * gram_bytes

    def test_product_memory_stays_within_a_few_result_sized_matrices(self):
        # 60 paths against 4 antennas: all paths' slabs at once would
        # hold 15 times the result's entries, twice over
        cfg = SimConfig(n_tx=4, n_rx=4, n_rf=1, m_delay=16, n_doppler=8, n_paths=60,
                        max_delay_tap=127, max_doppler_tap=127)
        core = spatial_core(sample_channel(cfg, 3))
        x = np.random.default_rng(3).standard_normal((core.side, core.side)) + 0j
        tracemalloc.start()
        try:
            product = core.times(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.5 * product.nbytes
        np.testing.assert_allclose(product[:, :5], core.times(x[:, :5]), rtol=0, atol=1e-12)


class TestSampleChannel:
    def test_default_config_bounds(self):
        chan = sample_channel(SimConfig(), 123)
        assert len(chan.paths) == 10
        assert all(0 <= p.delay_tap <= 5 for p in chan.paths)
        assert all(abs(p.doppler_tap) <= 1 for p in chan.paths)
        assert all(0.0 <= p.aod <= np.pi and 0.0 <= p.aoa <= np.pi for p in chan.paths)

    def test_seed_determinism(self):
        assert sample_channel(SimConfig(), 42) == sample_channel(SimConfig(), 42)

    def test_gain_second_moment(self):
        # Monte-Carlo check: E|gain|^2 = 1 within 5%
        cfg = SimConfig(n_paths=10)
        rng = np.random.default_rng(99)
        gains = np.concatenate(
            [[p.gain for p in sample_channel(cfg, rng).paths] for _ in range(1000)]
        )
        assert gains.size == 10_000
        assert abs(np.mean(np.abs(gains) ** 2) - 1.0) < 0.05

    def test_invalid_bounds(self):
        # the tap bounds sample_channel draws from are checked by SimConfig
        with pytest.raises(ValueError, match="max_delay_tap"):
            SimConfig(m_delay=2, n_doppler=2, max_delay_tap=4)
        with pytest.raises(ValueError, match="max_doppler_tap"):
            SimConfig(m_delay=2, n_doppler=2, max_delay_tap=3, max_doppler_tap=7)


class TestApplyChannel:
    @staticmethod
    def _integer_taps(shape, seed):
        # small-integer entries make every product and sum exact, whatever the order
        rng = np.random.default_rng(seed)
        return rng.integers(-3, 4, shape) + 1j * rng.integers(-3, 4, shape)

    def test_noiseless_exact(self):
        h = self._integer_taps((3, 4, 2, 3), 5)
        y = self._integer_taps((3 * 4,), 6)
        np.testing.assert_array_equal(apply_channel(h, y, 0.0), dense_time_channel(h) @ y)

    @pytest.mark.parametrize("frames", [None, 7], ids=["one_frame", "many_frames"])
    @pytest.mark.parametrize(
        "n_tx, n_rx, n_paths", [(2, 4, 3), (4, 2, 3), (5, 6, 2)], ids=["tall", "wide", "more_antennas_than_paths"]
    )
    def test_matches_the_entry_oracle(self, n_tx, n_rx, n_paths, frames):
        cfg = SimConfig(n_tx=n_tx, n_rx=n_rx, n_rf=1, m_delay=2, n_doppler=3, n_paths=n_paths,
                        max_delay_tap=5, max_doppler_tap=2)
        chan = sample_channel(cfg, 17)
        rng = np.random.default_rng(18)
        shape = (n_tx * chan.mn,) if frames is None else (frames, n_tx * chan.mn)
        y = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        want = y @ time_channel_entry_oracle(chan).T
        got = apply_channel(build_time_channel(chan), y, 0.0)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) < 1e-13 * np.max(np.abs(want))

    def test_identity_channel_passthrough(self):
        y = np.arange(4) + 1j
        np.testing.assert_array_equal(apply_channel(np.ones((1, 4, 1, 1)), y, 0.0), y)

    def test_noise_variance(self):
        n = 100_000
        r = apply_channel(np.ones((1, 1, 1, 1)), np.zeros((n, 1), complex), 1.0, np.random.default_rng(6))
        assert abs(np.mean(np.abs(r) ** 2) - 1.0) < 0.05

    def test_noise_circular_symmetry(self):
        n = 100_000
        r = apply_channel(np.ones((1, 1, 1, 1)), np.zeros((n, 1), complex), 1.0, np.random.default_rng(7)).ravel()
        assert abs(np.mean(r)) < 0.02
        assert abs(np.mean(r**2)) < 0.02  # pseudo-covariance

    @pytest.mark.parametrize("noise_var", [0.0, 0.3])
    def test_frames_on_leading_axis_equal_one_call_per_frame(self, noise_var):
        h = self._integer_taps((2, 3, 2, 4), 8)  # n_tx*MN = 12 inputs, n_rx*MN = 6 outputs
        y = self._integer_taps((5, 12), 9)
        batched_rng, frame_rng = np.random.default_rng(9), np.random.default_rng(9)
        batched = apply_channel(h, y, noise_var, batched_rng)
        per_frame = np.stack([apply_channel(h, row, noise_var, frame_rng) for row in y])
        assert batched.shape == (5, 6)
        assert np.array_equal(batched, per_frame)
        assert batched_rng.bit_generator.state == frame_rng.bit_generator.state

    def test_dimension_mismatch(self):
        # a frame or frames of the wrong length, a dense matrix as taps, a signal of three axes
        for h_shape, y_shape in [((2, 4, 1, 1), (5,)), ((2, 4, 2, 2), (3, 4)), ((4, 4), (4,)),
                                 ((1, 2, 1, 1), (1, 1, 2))]:
            with pytest.raises(ValueError, match="incompatible with channel taps"):
                apply_channel(np.ones(h_shape), np.zeros(y_shape, complex), 0.0)

    def test_negative_noise_var(self):
        # NaN fails every comparison, so it must not pass as noiseless; inf would
        # turn the signal into inf and zero noise samples into NaN
        for noise_var in (-0.1, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="noise_var"):
                apply_channel(np.ones((1, 2, 1, 1)), np.ones(2, complex), noise_var)
