"""Entropy importance scores, Kendall rank correlation, gain-matched allocation.

Payload elements are scored by their entropy in bits under a per-element
Gaussian bin-probability model (unit quantization bins), then assigned to
sub-channels so that descending importance meets descending gain. The
alignment between an importance vector and a gain vector is measured by
Kendall correlation, in both its exact pair-counting form and a smooth
sigmoid surrogate.
"""

from __future__ import annotations

import numpy as np
from scipy.special import expit, ndtr

# Entropy clamp: bin probabilities below 2**-MAX_IMPORTANCE_BITS saturate.
MAX_IMPORTANCE_BITS = 64.0


def gaussian_bin_entropy(mu, sigma, y_hat) -> np.ndarray:
    """Per-element entropy in bits of unit-quantized values under Gaussian models.

    Element k scores ``-log2( Phi((y+0.5-mu)/sigma) - Phi((y-0.5-mu)/sigma) )``
    with Phi the standard normal CDF, clamped to at most 64 bits when the
    bin probability underflows.
    """
    mu = np.asarray(mu, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    y = np.asarray(y_hat, dtype=float)
    if not (mu.shape == sigma.shape == y.shape):
        raise ValueError(
            f"mu, sigma, y_hat must share a shape, got {mu.shape}, {sigma.shape}, {y.shape}"
        )
    if np.any(sigma <= 0) or not np.all(np.isfinite(sigma)):
        raise ValueError("sigma must be strictly positive and finite")
    p = ndtr((y + 0.5 - mu) / sigma) - ndtr((y - 0.5 - mu) / sigma)
    p = np.maximum(p, 2.0 ** -MAX_IMPORTANCE_BITS)
    return -np.log2(p)


def _check_pair(w, g) -> tuple[np.ndarray, np.ndarray, int]:
    w = np.asarray(w, dtype=float)
    g = np.asarray(g, dtype=float)
    if w.ndim != 1 or g.ndim != 1 or w.size != g.size:
        raise ValueError(f"inputs must be 1-D of equal length, got {w.shape} and {g.shape}")
    if w.size < 2:
        raise ValueError("need at least 2 elements to correlate")
    return w, g, w.size


def exact_kendall_tau(w, g) -> float:
    """Exact Kendall correlation: (concordant - discordant) / (K(K-1)/2).

    Tied pairs count as zero. Brute-force over all pairs; kept deliberately
    elementary so it can serve as the reference for the smooth surrogate.
    """
    w, g, k = _check_pair(w, g)
    dw = np.sign(w[:, None] - w[None, :])
    dg = np.sign(g[:, None] - g[None, :])
    iu = np.triu_indices(k, 1)
    return float(np.sum(dw[iu] * dg[iu]) / (k * (k - 1) / 2.0))


def soft_kendall(w, g, sharpness: float = 2.0, sign: float = -1.0) -> float:
    """Sigmoid-smoothed Kendall correlation in (0, 1).

    Returns ``2 sum_{s<s'} sigmoid(sign * sharpness * (w_s-w_s')(g_s-g_s'))
    / (K(K-1))``. The default ``sign=-1, sharpness=2`` scores concordant
    pairs *below* 0.5; ``sign=+1`` is the concordance-consistent variant
    whose sharp limit is ``(exact_kendall_tau + 1) / 2`` on tie-free input.
    """
    w, g, k = _check_pair(w, g)
    if sharpness <= 0:
        raise ValueError(f"sharpness must be > 0, got {sharpness}")
    if sign not in (1, -1, 1.0, -1.0):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    prod = (w[:, None] - w[None, :]) * (g[:, None] - g[None, :])
    iu = np.triu_indices(k, 1)
    return float(2.0 * np.sum(expit(sign * sharpness * prod[iu])) / (k * (k - 1)))


def allocate(w, g) -> np.ndarray:
    """Permutation pi assigning payload elements to sub-channels by rank.

    ``pi[s]`` is the payload index carried on sub-channel ``s``: the k-th
    most important element rides the k-th strongest sub-channel. Ties break
    by ascending original index, so the result is reproducible and constant
    importance yields the identity.
    """
    w = np.asarray(w, dtype=float)
    g = np.asarray(g, dtype=float)
    if w.ndim != 1 or g.ndim != 1 or w.size != g.size:
        raise ValueError(f"importance and gains must be 1-D of equal length, got {w.shape}, {g.shape}")
    order_w = np.argsort(-w, kind="stable")
    order_g = np.argsort(-g, kind="stable")
    pi = np.empty(w.size, dtype=np.intp)
    pi[order_g] = order_w
    return pi


def _check_permutation(pi, length: int) -> np.ndarray:
    pi = np.asarray(pi)
    if pi.shape != (length,) or not np.array_equal(np.sort(pi), np.arange(length)):
        raise ValueError("pi must be a bijection on {0..K-1} matching the payload length")
    return pi.astype(np.intp)


def apply_allocation(payload, pi) -> np.ndarray:
    """Reorder a payload into sub-channel order: output[s] = payload[pi[s]]."""
    payload = np.asarray(payload)
    pi = _check_permutation(pi, payload.size)
    return payload[pi]


def invert_allocation(received, pi) -> np.ndarray:
    """Undo :func:`apply_allocation`: restores original payload order."""
    received = np.asarray(received)
    pi = _check_permutation(pi, received.size)
    out = np.empty_like(received)
    out[pi] = received
    return out
