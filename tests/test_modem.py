"""64-QAM constellation, demapper, and equalizer tests."""

import numpy as np
import pytest
from scipy.special import erfc

from otfslink import special
from otfslink.modem import (
    DEFAULT_MIN_GAIN,
    QAM_ORDER,
    constellation_points,
    demodulate_hard,
    equalize,
    modulate,
    square_qam_ser,
)


def independent_grid():
    """All 64 unnormalized square-QAM amplitudes, built without the package's tables."""
    levels = np.array([-7, -5, -3, -1, 1, 3, 5, 7], dtype=float)
    return np.array([i + 1j * q for i in levels for q in levels])


class TestConstellation:
    def test_unit_average_energy(self):
        pts = constellation_points()
        assert abs(np.mean(np.abs(pts) ** 2) - 1.0) < 1e-12

    def test_normalization_factor_from_enumeration(self):
        # mean energy of the raw +-{1,3,5,7} grid is 42, hence the 1/sqrt(42) scale
        grid = independent_grid()
        assert np.mean(np.abs(grid) ** 2) == 42.0
        np.testing.assert_allclose(
            sorted(np.abs(constellation_points())), sorted(np.abs(grid) / np.sqrt(42.0))
        )

    def test_label_zero_is_corner(self):
        np.testing.assert_allclose(constellation_points()[0], (-7 - 7j) / np.sqrt(42.0), rtol=1e-15)

    def test_points_distinct(self):
        assert len(set(constellation_points())) == QAM_ORDER

    def test_minimum_squared_distance(self):
        pts = constellation_points()
        diff = pts[:, None] - pts[None, :]
        d2 = np.abs(diff) ** 2
        d2[np.arange(64), np.arange(64)] = np.inf
        assert abs(d2.min() - 4.0 / 42.0) < 1e-12

    def test_gray_adjacency_exhaustive(self):
        pts = constellation_points() * np.sqrt(42.0)
        label_of = {(round((p.real + 7) / 2), round((p.imag + 7) / 2)): lbl for lbl, p in enumerate(pts)}
        assert len(label_of) == 64
        checked = 0
        for (i, q), lbl in label_of.items():
            for di, dq in ((1, 0), (0, 1)):
                if (i + di, q + dq) in label_of:
                    other = label_of[(i + di, q + dq)]
                    assert bin(lbl ^ other).count("1") == 1
                    checked += 1
        assert checked == 112  # 2 * 7 * 8 adjacent pairs


class TestModulateDemodulate:
    def test_round_trip_all_labels(self):
        labels = np.arange(QAM_ORDER)
        np.testing.assert_array_equal(demodulate_hard(modulate(labels)), labels)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            modulate([64])
        with pytest.raises(ValueError):
            modulate([-1])

    def test_non_integer_rejected(self):
        with pytest.raises(ValueError):
            modulate(np.array([1.5]))

    def test_small_perturbations_decode_correctly(self):
        rng = np.random.default_rng(41)
        labels = rng.integers(0, QAM_ORDER, 500)
        x = modulate(labels)
        # displace by 40% of half the minimum distance, in random directions
        half_min = 0.5 * 2.0 / np.sqrt(42.0)
        bump = 0.4 * half_min * np.exp(2j * np.pi * rng.uniform(size=500))
        np.testing.assert_array_equal(demodulate_hard(x + bump), labels)

    def test_demod_preserves_shape(self):
        x = modulate(np.arange(6)).reshape(2, 3)
        assert demodulate_hard(x).shape == (2, 3)

    def test_ser_matches_closed_form(self):
        rng = np.random.default_rng(42)
        snr_db = 18.0
        noise_var = 10.0 ** (-snr_db / 10.0)
        n = 200_000
        labels = rng.integers(0, QAM_ORDER, n)
        x = modulate(labels)
        noise = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * np.sqrt(noise_var / 2)
        ser = np.mean(demodulate_hard(x + noise) != labels)
        theory = square_qam_ser(10.0 ** (snr_db / 10.0))
        assert abs(ser - theory) / theory < 0.10


@pytest.mark.parametrize("bound", [745.0, 40.0])
def test_erfc_matches_scipy(bound):
    x = np.linspace(-bound, bound, 100_001)
    got, want = special.erfc(x), erfc(x)
    normal = want >= np.finfo(float).tiny
    assert np.all(np.abs(got[normal] / want[normal] - 1.0) <= 1e-12)
    assert np.all(np.abs(got[~normal] - want[~normal]) <= 1e-300)


class TestSquareQamSer:
    def test_against_hand_formula(self):
        # independent evaluation of 1 - (1 - 2(1-1/8) Q(sqrt(3 g / 63)))^2
        snr = 10.0 ** (22.0 / 10.0)
        q = 0.5 * erfc(np.sqrt(3.0 * snr / 63.0) / np.sqrt(2.0))
        expected = 1.0 - (1.0 - 2.0 * (1.0 - 1.0 / 8.0) * q) ** 2
        assert abs(square_qam_ser(snr) - expected) < 1e-15

    def test_monotone_decreasing(self):
        sers = square_qam_ser(10.0 ** (np.array([5.0, 10.0, 15.0, 20.0]) / 10.0))
        assert np.all(np.diff(sers) < 0)

    def test_non_square_order_rejected(self):
        with pytest.raises(ValueError):
            square_qam_ser(1.0, order=32)


class TestEqualize:
    def test_scalar_division(self):
        eq, erased = equalize(2.0 + 0j, 2.0)
        assert eq == 1.0 + 0j and not erased

    def test_erasure_below_min_gain(self):
        eq, erased = equalize(1.0 + 1j, 1e-9)
        assert erased and eq == 0.0
        assert DEFAULT_MIN_GAIN == 1e-6
        assert not equalize(1.0 + 0j, DEFAULT_MIN_GAIN)[1]

    def test_vector_mixed(self):
        eq, erased = equalize(np.array([2.0 + 0j, 3.0 + 0j]), np.array([2.0, 1e-12]))
        np.testing.assert_array_equal(eq, [1.0 + 0j, 0.0 + 0j])
        np.testing.assert_array_equal(erased, [False, True])

    def test_frames_on_the_leading_axis(self):
        x = np.array([[2.0 + 0j, 3.0 + 0j], [4.0 + 0j, 5.0 + 0j]])
        eq, erased = equalize(x, np.array([2.0, 1e-12]))
        np.testing.assert_array_equal(eq, [[1.0, 0.0], [2.0, 0.0]])
        np.testing.assert_array_equal(erased, [False, True])
