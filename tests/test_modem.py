"""64-QAM constellation, demapper, and equalizer tests."""

import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.special import erfc

from otfslink import special
from otfslink.modem import (
    DEFAULT_MIN_GAIN,
    MIDPOINTS,
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


def exhaustive_labels(received):
    """Oracle: the label of the nearest of all 64 points to each symbol; ties take the smallest label."""
    r = np.asarray(received, dtype=complex)
    return np.argmin(np.abs(r[..., None] - constellation_points()), axis=-1)


def label_of_levels(i, q):
    """The label of in-phase level index ``i`` and quadrature level index ``q``, from the written-out Gray rule."""
    return (i ^ (i >> 1)) << 3 | (q ^ (q >> 1))


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


class TestHardDecision:
    """The per-axis threshold rule against the exhaustive 64-point search."""

    @pytest.mark.parametrize("std", [0.02, 0.1, 0.5, 5.0])
    def test_matches_the_exhaustive_search(self, std):
        rng = np.random.default_rng(int(std * 100))
        n = 20_000
        x = modulate(rng.integers(0, QAM_ORDER, n))
        r = x + std * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        np.testing.assert_array_equal(demodulate_hard(r), exhaustive_labels(r))

    def test_matches_the_exhaustive_search_on_the_constellation(self):
        pts = constellation_points()
        np.testing.assert_array_equal(demodulate_hard(pts), exhaustive_labels(pts))

    def test_thresholds_are_the_midpoints(self):
        np.testing.assert_allclose(MIDPOINTS, (2 * np.arange(7) - 6) / np.sqrt(42.0), rtol=0, atol=1e-16)

    @pytest.mark.parametrize("j", range(7))
    def test_a_value_on_a_threshold_takes_the_lower_level(self, j):
        # MIDPOINTS[j] is the float nearest the exact midpoint between levels j
        # and j + 1, so one ulp to either side lies strictly on that side of it
        t = MIDPOINTS[j]
        below, above = np.nextafter(t, -np.inf), np.nextafter(t, np.inf)
        other = 5  # any level index for the other axis
        y = (2 * other - 7) / np.sqrt(42.0)
        for value, level in ((t, j), (below, j), (above, j + 1)):
            assert demodulate_hard(complex(value, y)) == label_of_levels(level, other)
            assert demodulate_hard(complex(y, value)) == label_of_levels(other, level)

    def test_largest_finite_values_take_the_edge_labels(self):
        big = np.finfo(float).max
        r = np.array([complex(big, big), complex(-big, -big), complex(big, -big), complex(-big, big)])
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            got = demodulate_hard(r)
        np.testing.assert_array_equal(
            got, [label_of_levels(7, 7), label_of_levels(0, 0), label_of_levels(7, 0), label_of_levels(0, 7)]
        )
        assert got[0] == 36

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_symbols_rejected(self, bad):
        for symbol in (complex(bad, 0.0), complex(0.0, bad)):
            with pytest.raises(ValueError, match="finite"):
                demodulate_hard(np.array([0.1 + 0.1j, symbol]))

    def test_memory_does_not_hold_a_row_per_point(self):
        rng = np.random.default_rng(7)
        n = 2**18
        r = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        tracemalloc.start()
        try:
            demodulate_hard(r)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # an exhaustive search in blocks of 2**16 held 96 MiB here (24 symbol-sized arrays)
        assert peak < 3 * r.nbytes


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


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: equalize([1.0 + 0j], [np.nan]), "gains"),
        (lambda: equalize([1.0 + 0j], [np.inf]), "gains"),
        (lambda: equalize([complex(np.nan, 0.0)], [1.0]), "x_hat"),
        (lambda: equalize([complex(0.0, -np.inf)], [1.0]), "x_hat"),
        (lambda: square_qam_ser(np.nan), "snr_linear"),
        (lambda: square_qam_ser(-1.0), "snr_linear"),
        (lambda: square_qam_ser(-np.inf), "snr_linear"),
        (lambda: square_qam_ser(np.array([1.0, np.nan])), "snr_linear"),
    ],
    ids=["gain_nan", "gain_inf", "x_hat_nan", "x_hat_-inf", "ser_nan", "ser_negative", "ser_-inf", "ser_array_nan"],
)
def test_arguments_that_would_give_nan_are_refused_by_name(call, name):
    # a NaN gain once came out as a NaN symbol, with a RuntimeWarning; a negative SNR warned in sqrt
    with pytest.raises(ValueError, match=rf"^{name} must be"):
        call()


def test_the_ser_takes_every_snr_from_zero_to_infinity():
    assert square_qam_ser(0.0) == 1.0 - (1.0 - 2.0 * (7.0 / 8.0) * 0.5) ** 2
    assert square_qam_ser(np.inf) == 0.0
    np.testing.assert_array_equal(square_qam_ser(np.array([np.inf, np.inf])), [0.0, 0.0])
