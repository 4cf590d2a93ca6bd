"""Loss arithmetic tests with frozen hand-computed values."""

import numpy as np
import pytest

from otfslink.losses import LossWeights, cross_entropy, l1_loss, l2_loss, rate_term


class TestRateTerm:
    def test_certain_events_cost_nothing(self):
        assert rate_term([1.0, 1.0, 1.0]) == 0.0

    def test_two_fair_coins(self):
        assert rate_term([0.5, 0.5]) == 2.0

    def test_hand_computed(self):
        assert abs(rate_term([0.3, 0.7]) - 2.2515387669959646) < 1e-12

    def test_additive_over_concatenation(self):
        rng = np.random.default_rng(51)
        a = rng.uniform(0.01, 1.0, 10)
        b = rng.uniform(0.01, 1.0, 7)
        total = rate_term(np.concatenate([a, b]))
        assert abs(total - (rate_term(a) + rate_term(b))) < 1e-9

    def test_underflow_clamped(self):
        assert rate_term([1e-300]) == pytest.approx(64.0)

    def test_invalid_probabilities(self):
        with pytest.raises(ValueError):
            rate_term([0.0])
        with pytest.raises(ValueError):
            rate_term([1.1])
        with pytest.raises(ValueError):
            rate_term([-0.5])


class TestL1Loss:
    def test_all_zero(self):
        assert l1_loss(0.0, 0.0, 0.0) == 0.0

    def test_plain_sum(self):
        assert l1_loss(2.0, 1.0, 0.5) == 3.5

    def test_random_matches_accumulation(self):
        rng = np.random.default_rng(52)
        for _ in range(10):
            ry, rz, mse = rng.uniform(0, 10, 3)
            assert l1_loss(ry, rz, mse) == ry + rz + mse

    def test_negative_mse_rejected(self):
        with pytest.raises(ValueError):
            l1_loss(1.0, 1.0, -0.1)


class TestCrossEntropy:
    def test_one_hot_correct(self):
        assert cross_entropy(2, [0.0, 0.0, 1.0]) == 0.0

    def test_uniform_ten_classes(self):
        assert abs(cross_entropy(3, np.full(10, 0.1)) - 3.321928094887362) < 1e-12

    def test_half_probability_is_one_bit(self):
        assert cross_entropy(0, [0.5, 0.5]) == 1.0

    def test_nonnegative(self):
        rng = np.random.default_rng(53)
        for _ in range(20):
            p = rng.uniform(0.01, 1.0, 5)
            p /= p.sum()
            assert cross_entropy(int(rng.integers(0, 5)), p) >= 0.0

    def test_invalid_distribution(self):
        with pytest.raises(ValueError):
            cross_entropy(0, [0.4, 0.4])
        with pytest.raises(ValueError):
            cross_entropy(0, [1.5, -0.5])

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            cross_entropy(2, [0.5, 0.5])


class TestL2Loss:
    def test_hand_computed_composite(self):
        assert l2_loss(1.0, 0.1, 0.8, LossWeights(20.0, 0.5)) == 2.6

    def test_zero_kappa_reduces(self):
        assert l2_loss(1.5, 0.2, 0.0, LossWeights(20.0, 0.5)) == 1.5 + 20.0 * 0.2

    def test_default_weights(self):
        w = LossWeights()
        assert (w.lambda_mse, w.lambda_em) == (20.0, 0.5)
        assert l2_loss(1.0, 0.1, 0.8) == 2.6

    def test_monotone_decreasing_in_kappa(self):
        base = l2_loss(1.0, 0.5, 0.3)
        assert l2_loss(1.0, 0.5, 0.3 + 1e-6) < base

    def test_monotone_increasing_in_mse(self):
        base = l2_loss(1.0, 0.5, 0.3)
        assert l2_loss(1.0, 0.5 + 1e-6, 0.3) > base

    def test_negative_mse_rejected(self):
        with pytest.raises(ValueError):
            l2_loss(1.0, -0.1, 0.0)

    def test_nonfinite_weights_rejected(self):
        with pytest.raises(ValueError):
            LossWeights(np.inf, 0.5)


@pytest.mark.parametrize(
    "call",
    [
        lambda: rate_term([np.nan]),
        lambda: rate_term([0.5, np.nan]),
        lambda: l1_loss(1.0, 1.0, np.nan),
        lambda: l1_loss(1.0, 1.0, np.inf),
        lambda: l2_loss(1.0, np.nan, 0.5),
        lambda: l2_loss(1.0, np.inf, 0.5),
        lambda: cross_entropy(0, [0.5, np.nan]),
        lambda: cross_entropy(0, [np.nan, 1.0]),
    ],
    ids=["rate_nan", "rate_one_nan", "l1_mse_nan", "l1_mse_inf", "l2_mse_nan", "l2_mse_inf", "ce_other_nan",
         "ce_true_nan"],
)
def test_nan_fails_every_range_check(call):
    # written as `x < 0`, a check lets NaN through, and the loss comes out NaN or finite and wrong
    with pytest.raises(ValueError):
        call()


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: l2_loss(np.nan, 0.1, 0.5), "ce"),
        (lambda: l2_loss(-np.inf, 0.1, 0.5), "ce"),
        (lambda: l2_loss(1.0, 0.1, np.inf), "kappa"),
        (lambda: l2_loss(1.0, 0.1, np.nan), "kappa"),
        (lambda: l2_loss(True, 0.1, 0.5), "ce"),
        (lambda: l1_loss(np.nan, 1.0, 0.5), "rate_y"),
        (lambda: l1_loss(1.0, np.inf, 0.5), "rate_z"),
    ],
    ids=["l2_ce_nan", "l2_ce_-inf", "l2_kappa_inf", "l2_kappa_nan", "l2_ce_bool", "l1_rate_y_nan", "l1_rate_z_inf"],
)
def test_non_finite_terms_are_refused_by_name(call, name):
    # l2_loss(nan, ...) once returned nan, and an infinite kappa -inf
    with pytest.raises(ValueError, match=rf"^{name} must be"):
        call()
