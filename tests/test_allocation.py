"""Importance scoring and allocation tests with hand-enumerated oracles."""

import math
import warnings
from itertools import permutations

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings, strategies as st

from otfslink.allocation import (
    GAIN_TIE_RTOL,
    allocate,
    apply_allocation,
    exact_kendall_tau,
    gaussian_bin_entropy,
    invert_allocation,
    soft_kendall,
)
from otfslink.special import ndtr, sigmoid

SIGMOID_MINUS_2 = 0.11920292202211755  # 1 / (1 + e^2)


def erf_bin_bits(mu, sigma, y):
    """Independent entropy oracle via math.erf."""
    phi = lambda z: 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))
    p = phi((y + 0.5 - mu) / sigma) - phi((y - 0.5 - mu) / sigma)
    return -math.log2(p)


@pytest.mark.parametrize("ours, oracle", [(sigmoid, scipy.special.expit), (ndtr, scipy.special.ndtr)],
                         ids=["sigmoid", "ndtr"])
@pytest.mark.parametrize("bound", [745.0, 40.0])
def test_special_function_matches_scipy(ours, oracle, bound):
    x = np.linspace(-bound, bound, 100_001)
    got, want = ours(x), oracle(x)
    normal = want >= np.finfo(float).tiny
    assert np.all(np.abs(got[normal] / want[normal] - 1.0) <= 1e-12)
    assert np.all(np.abs(got[~normal] - want[~normal]) <= 1e-300)


def test_sigmoid_saturates_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = sigmoid(np.array([-1e6, -np.inf, 0.0, 1e6, np.inf]))
    assert values[2] == 0.5 and values[3] == values[4] == 1.0
    assert 0.0 <= values[0] <= 1e-300 and 0.0 <= values[1] <= 1e-300


class TestGaussianBinEntropy:
    def test_standard_normal_center_bin(self):
        w = gaussian_bin_entropy([0.0], [1.0], [0])
        assert abs(w[0] - 1.3848665342909896) < 1e-12
        assert abs(w[0] - erf_bin_bits(0.0, 1.0, 0.0)) < 1e-12

    def test_monotone_in_sigma(self):
        w = [gaussian_bin_entropy([0.0], [s], [0])[0] for s in (1.0, 10.0, 100.0)]
        assert w[0] < w[1] < w[2]

    def test_identical_elements_identical_scores(self):
        w = gaussian_bin_entropy([0.3, 0.3], [2.0, 2.0], [1, 1])
        assert w[0] == w[1]

    def test_matches_erf_oracle_randomly(self):
        rng = np.random.default_rng(31)
        mu = rng.standard_normal(20)
        sigma = rng.uniform(0.2, 5.0, 20)
        y = rng.integers(-3, 4, 20)
        w = gaussian_bin_entropy(mu, sigma, y)
        for k in range(20):
            assert abs(w[k] - erf_bin_bits(mu[k], sigma[k], y[k])) < 1e-10

    def test_underflow_clamped_at_64_bits(self):
        w = gaussian_bin_entropy([0.0], [1e-3], [50])
        assert w[0] == 64.0

    def test_nonnegative(self):
        rng = np.random.default_rng(32)
        w = gaussian_bin_entropy(rng.standard_normal(50), rng.uniform(0.1, 10, 50), rng.integers(-5, 6, 50))
        assert np.all(w >= 0) and np.all(np.isfinite(w))

    def test_nonpositive_sigma_rejected(self):
        with pytest.raises(ValueError):
            gaussian_bin_entropy([0.0], [0.0], [0])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            gaussian_bin_entropy([0.0, 1.0], [1.0], [0])


class TestExactKendallTau:
    def test_identical_ordering(self):
        assert exact_kendall_tau([3.0, 1.0, 2.0], [30.0, 10.0, 20.0]) == 1.0

    def test_reversed_ordering(self):
        assert exact_kendall_tau([1.0, 2.0, 3.0], [3.0, 2.0, 1.0]) == -1.0

    def test_hand_enumerated_third(self):
        # pairs: (0,1) concordant, (0,2) concordant, (1,2) discordant
        assert abs(exact_kendall_tau([1.0, 3.0, 2.0], [1.0, 2.0, 3.0]) - 1.0 / 3.0) < 1e-15

    def test_ties_count_zero(self):
        assert exact_kendall_tau([1.0, 1.0], [1.0, 2.0]) == 0.0

    def test_gains_equal_to_rounding_tie(self):
        # one path: every gain is mathematically |g_1|, off by rounding only
        g = 2.0 * (1.0 + np.array([4e-15, 2e-15, 0.0, -4e-15]))
        assert exact_kendall_tau([4.0, 3.0, 2.0, 1.0], g) == 0.0
        # a gap above the tolerance is an order, not a tie
        g = 2.0 * (1.0 + np.array([3, 2, 1, 0]) * 10 * GAIN_TIE_RTOL)
        assert exact_kendall_tau([4.0, 3.0, 2.0, 1.0], g) == 1.0

    def test_too_short(self):
        with pytest.raises(ValueError):
            exact_kendall_tau([1.0], [2.0])

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(2, 10))
    def test_self_correlation_and_antisymmetry(self, seed, k):
        rng = np.random.default_rng(seed)
        x = rng.permutation(k).astype(float)
        y = rng.permutation(k).astype(float)
        assert exact_kendall_tau(x, x) == 1.0
        assert exact_kendall_tau(x, -y) == -exact_kendall_tau(x, y)

    def test_rows_match_one_call_per_row(self):
        rng = np.random.default_rng(36)
        w = rng.integers(0, 4, (5, 9)).astype(float)  # with ties
        g = rng.standard_normal(9)
        taus = exact_kendall_tau(w, g)
        assert taus.shape == (5,)
        np.testing.assert_array_equal(taus, [exact_kendall_tau(row, g) for row in w])


class TestSoftKendall:
    def test_all_equal_gives_half(self):
        assert soft_kendall([1.0, 1.0, 1.0], [5.0, 2.0, 9.0]) == 0.5

    def test_single_pair_literal_value(self):
        kappa = soft_kendall([1.0, 2.0], [1.0, 2.0], sharpness=2.0, sign=-1.0)
        assert abs(kappa - SIGMOID_MINUS_2) < 1e-12

    def test_sharp_limit_matches_exact_tau(self):
        rng = np.random.default_rng(33)
        for _ in range(50):
            w = rng.permutation(8) + 1.0
            g = rng.permutation(8) + 1.0
            kappa = soft_kendall(w, g, sharpness=1e4, sign=+1.0)
            assert abs(kappa - (exact_kendall_tau(w, g) + 1.0) / 2.0) < 1e-3

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(2, 8))
    def test_symmetric_in_arguments(self, seed, k):
        rng = np.random.default_rng(seed)
        w = rng.standard_normal(k)
        g = rng.standard_normal(k)
        assert soft_kendall(w, g) == soft_kendall(g, w)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_open_unit_interval(self, seed):
        rng = np.random.default_rng(seed)
        w = rng.standard_normal(6)
        g = rng.standard_normal(6)
        for sign in (1.0, -1.0):
            kappa = soft_kendall(w, g, sharpness=2.0, sign=sign)
            assert 0.0 < kappa < 1.0

    def test_rows_match_one_call_per_row(self):
        rng = np.random.default_rng(37)
        w = rng.lognormal(size=(4, 40))
        g = np.sort(rng.uniform(0.1, 2.0, 40))[::-1]
        kappas = soft_kendall(w, g)
        assert kappas.shape == (4,)
        # a row sum may add its terms in another order than a 1-D sum
        np.testing.assert_allclose(kappas, [soft_kendall(row, g) for row in w], rtol=1e-13)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            soft_kendall([1.0, 2.0], [1.0, 2.0], sharpness=0.0)
        with pytest.raises(ValueError):
            soft_kendall([1.0, 2.0], [1.0, 2.0], sign=0.5)
        with pytest.raises(ValueError):
            soft_kendall([1.0], [1.0])


class TestAllocate:
    def test_spec_example(self):
        pi = allocate([0.1, 9.0, 5.0], [3.0, 2.0, 1.0])
        np.testing.assert_array_equal(pi, [1, 2, 0])

    def test_already_sorted_gives_identity(self):
        pi = allocate([9.0, 5.0, 1.0], [3.0, 2.0, 1.0])
        np.testing.assert_array_equal(pi, [0, 1, 2])

    def test_constant_importance_gives_identity(self):
        pi = allocate(np.ones(5), [5.0, 4.0, 3.0, 2.0, 1.0])
        np.testing.assert_array_equal(pi, np.arange(5))

    def test_achieves_perfect_tau(self):
        rng = np.random.default_rng(34)
        for _ in range(20):
            w = rng.permutation(10) + 1.0
            g = rng.permutation(10) + 1.0
            pi = allocate(w, g)
            assert exact_kendall_tau(w[pi], g) == 1.0

    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        scale=st.floats(0.01, 100.0),
        shift=st.floats(0.0, 10.0),
    )
    def test_invariant_to_monotone_rescaling(self, seed, scale, shift):
        rng = np.random.default_rng(seed)
        w = rng.standard_normal(6)
        g = rng.uniform(0.1, 5.0, 6)
        np.testing.assert_array_equal(allocate(w, g), allocate(scale * w + shift, g))
        np.testing.assert_array_equal(allocate(w, g), allocate(w, scale * g + shift))

    def test_minimizes_weighted_inverse_square_cost(self):
        # brute force over all K! assignments
        rng = np.random.default_rng(35)
        for k in range(2, 8):
            w = rng.uniform(0.1, 10.0, k)
            lam = rng.uniform(0.2, 3.0, k)
            pi = allocate(w, lam)
            cost = np.sum(w[pi] / lam**2)
            best = min(np.sum(w[list(perm)] / lam**2) for perm in permutations(range(k)))
            assert cost <= best + 1e-12

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            allocate([1.0, 2.0], [1.0])


class TestApplyInvert:
    def test_identity_permutation(self):
        payload = np.array([5.0, 6.0, 7.0])
        np.testing.assert_array_equal(apply_allocation(payload, [0, 1, 2]), payload)

    def test_hand_enumerated(self):
        payload = np.array(["a", "b", "c"])
        streamed = apply_allocation(payload, [1, 2, 0])
        np.testing.assert_array_equal(streamed, ["b", "c", "a"])
        np.testing.assert_array_equal(invert_allocation(streamed, [1, 2, 0]), payload)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 32))
    def test_round_trip(self, seed, k):
        rng = np.random.default_rng(seed)
        payload = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        pi = rng.permutation(k)
        np.testing.assert_array_equal(invert_allocation(apply_allocation(payload, pi), pi), payload)

    def test_rows_are_permuted_independently(self):
        payload = np.array([[1, 2, 3], [4, 5, 6]])
        pi = np.array([[2, 0, 1], [0, 1, 2]])
        streamed = apply_allocation(payload, pi)
        np.testing.assert_array_equal(streamed, [[3, 1, 2], [4, 5, 6]])
        np.testing.assert_array_equal(invert_allocation(streamed, pi), payload)
        # one permutation broadcasts over every row
        np.testing.assert_array_equal(apply_allocation(payload, [1, 2, 0]), [[2, 3, 1], [5, 6, 4]])

    def test_non_bijective_rejected(self):
        with pytest.raises(ValueError):
            apply_allocation(np.zeros(3), [0, 0, 2])
        with pytest.raises(ValueError):
            invert_allocation(np.zeros(3), [0, 1])
        with pytest.raises(ValueError):
            apply_allocation(np.zeros((2, 3)), [[0, 1, 2], [1, 1, 2]])
