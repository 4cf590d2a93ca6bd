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
    """The weights of :func:`l2_loss`'s terms: finite numbers, stored as ``float``."""

    lambda_mse: float = 20.0
    lambda_em: float = 0.5

    def __post_init__(self):
        for name in ("lambda_mse", "lambda_em"):
            object.__setattr__(self, name, _fields.number(name, getattr(self, name)))


def rate_term(probs) -> float:
    """Total bit cost ``sum(-log2 p)`` of a vector of probabilities in (0, 1].

    Probabilities below 2**-64 are clamped there, keeping the result finite.
    """
    p = _fields.numbers("probs", probs, 0, 1, "(]")
    return float(np.sum(-np.log2(np.maximum(p, _MIN_PROB))))


def l1_loss(rate_y: float, rate_z: float, mse: float) -> float:
    """Rate-distortion objective: bit cost of both latents plus MSE, each finite, the MSE >= 0.

    A sum beyond the float range is a ``ValueError`` naming the terms.
    """
    mse = _fields.number("mse", mse, 0, math.inf, "[)")
    rate_y, rate_z = _fields.number("rate_y", rate_y), _fields.number("rate_z", rate_z)
    return _fields.finite_result("rate_y + rate_z + mse", rate_y + rate_z + mse, rate_y=rate_y, rate_z=rate_z,
                                 mse=mse)


def cross_entropy(true_label: int, predicted) -> float:
    """Base-2 cross entropy ``-log2 predicted[true_label]`` against a one-hot truth.

    ``true_label`` is an integer in [0, predicted.size - 1]; an error names it.
    """
    p = _fields.numbers("predicted", predicted, 0, 1, "[]")
    if p.ndim != 1:
        raise ValueError(f"predicted must be a 1-D distribution, got shape {p.shape}")
    true_label = _fields.integer("true_label", true_label, 0, p.size - 1)
    if abs(float(p.sum()) - 1.0) > 1e-6:
        raise ValueError(f"predicted must sum to 1 within 1e-6, got {p.sum()}")
    return float(-np.log2(max(float(p[true_label]), _MIN_PROB)))


def l2_loss(ce: float, mse: float, kappa: float, weights: LossWeights | None = None) -> float:
    """Task objective: ``ce + lambda_mse * mse - lambda_em * kappa``, each term finite, the MSE >= 0.

    A result beyond the float range is a ``ValueError`` naming the terms and weights.
    """
    w = weights if weights is not None else LossWeights()
    mse = _fields.number("mse", mse, 0, math.inf, "[)")
    ce, kappa = _fields.number("ce", ce), _fields.number("kappa", kappa)
    return _fields.finite_result(
        "ce + lambda_mse * mse - lambda_em * kappa", ce + w.lambda_mse * mse - w.lambda_em * kappa,
        ce=ce, mse=mse, kappa=kappa, lambda_mse=w.lambda_mse, lambda_em=w.lambda_em,
    )
