"""Rate, distortion, and rank-alignment objectives as pure arithmetic.

Two composite objectives are exposed: a rate-distortion sum (bit cost of
two quantized latents plus reconstruction MSE) and a task objective mixing
cross-entropy, weighted MSE, and a rank-alignment bonus. All logarithms
are base 2 so every term is in bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _fields

_MIN_PROB = 2.0 ** -64


@dataclass(frozen=True)
class LossWeights:
    lambda_mse: float = 20.0
    lambda_em: float = 0.5

    def __post_init__(self):
        if not (np.isfinite(self.lambda_mse) and np.isfinite(self.lambda_em)):
            raise ValueError("loss weights must be finite")


def rate_term(probs) -> float:
    """Total bit cost ``sum(-log2 p)`` of a vector of probabilities in (0, 1].

    Probabilities below 2**-64 are clamped there, keeping the result finite.
    """
    p = np.asarray(probs, dtype=float)
    if not np.all((p > 0) & (p <= 1)):  # also rejects NaN
        raise ValueError("probabilities must lie in (0, 1]")
    return float(np.sum(-np.log2(np.maximum(p, _MIN_PROB))))


def _finite(name: str, value) -> float:
    """``value`` as a float by the number rule, refused by name unless finite."""
    value = _fields.number(name, value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    return value


def l1_loss(rate_y: float, rate_z: float, mse: float) -> float:
    """Rate-distortion objective: bit cost of both latents plus MSE, each finite."""
    if not 0 <= mse < np.inf:  # also rejects NaN
        raise ValueError(f"mse must be finite and >= 0, got {mse}")
    return float(_finite("rate_y", rate_y) + _finite("rate_z", rate_z) + mse)


def cross_entropy(true_label: int, predicted) -> float:
    """Base-2 cross entropy ``-log2 predicted[true_label]`` against a one-hot truth.

    ``true_label`` is an integer in [0, predicted.size - 1]; an error names it.
    """
    p = np.asarray(predicted, dtype=float)
    if p.ndim != 1:
        raise ValueError(f"predicted must be a 1-D distribution, got shape {p.shape}")
    true_label = _fields.integer("true_label", true_label, 0, p.size - 1)
    if not np.all((p >= 0) & (p <= 1)):  # also rejects NaN
        raise ValueError("predicted probabilities must lie in [0, 1]")
    if abs(float(p.sum()) - 1.0) > 1e-6:
        raise ValueError(f"predicted must sum to 1 within 1e-6, got {p.sum()}")
    return float(-np.log2(max(float(p[true_label]), _MIN_PROB)))


def l2_loss(ce: float, mse: float, kappa: float, weights: LossWeights | None = None) -> float:
    """Task objective: ``ce + lambda_mse * mse - lambda_em * kappa``, each term finite."""
    w = weights if weights is not None else LossWeights()
    if not 0 <= mse < np.inf:  # also rejects NaN
        raise ValueError(f"mse must be finite and >= 0, got {mse}")
    return float(_finite("ce", ce) + w.lambda_mse * mse - w.lambda_em * _finite("kappa", kappa))
