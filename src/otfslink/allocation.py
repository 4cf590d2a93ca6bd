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

from . import _fields
from .special import ndtr, sigmoid

# Entropy clamp: bin probabilities below 2**-MAX_IMPORTANCE_BITS saturate.
MAX_IMPORTANCE_BITS = 64.0

# Gains closer than GAIN_TIE_RTOL * max|g| tie in exact_kendall_tau. The link's
# gains carry up to 4e-15 relative rounding, so mathematically equal gains (one
# path: every gain is |g_1|) would otherwise be ordered by rounding; the
# smallest adjacent gap measured between distinct gains of benchmark-sized
# draws is 2.7e-11 relative.
GAIN_TIE_RTOL = 1e-13


def gaussian_bin_entropy(mu, sigma, y_hat) -> np.ndarray:
    """Per-element entropy in bits of unit-quantized values under Gaussian models.

    Element k scores ``-log2( Phi((y+0.5-mu)/sigma) - Phi((y-0.5-mu)/sigma) )``
    with Phi the standard normal CDF, clamped to at most 64 bits when the
    bin probability underflows.
    """
    mu, y = _fields.numbers("mu", mu), _fields.numbers("y_hat", y_hat)
    sigma = _fields.numbers("sigma", sigma, 0, np.inf, "()")
    if not (mu.shape == sigma.shape == y.shape):
        raise ValueError(
            f"mu, sigma, y_hat must share a shape, got {mu.shape}, {sigma.shape}, {y.shape}"
        )
    p = ndtr((y + 0.5 - mu) / sigma) - ndtr((y - 0.5 - mu) / sigma)
    p = np.maximum(p, 2.0 ** -MAX_IMPORTANCE_BITS)
    return -np.log2(p)


def _pairs(w, g):
    """``w``, ``g`` as finite float arrays and the index pairs ``i < j`` of their last axis."""
    w, g = _fields.numbers("w", w), _fields.numbers("g", g)
    if w.ndim < 1 or w.shape[-1:] != g.shape[-1:] or w.shape[-1] < 2:
        raise ValueError(f"inputs must end in axes of equal length >= 2, got {w.shape} and {g.shape}")
    i, j = np.triu_indices(w.shape[-1], 1)
    return w, g, i, j


def exact_kendall_tau(w, g):
    """Exact Kendall correlation: (concordant - discordant) / (K(K-1)/2).

    Tied pairs count as zero; two entries of ``g`` tie when they differ by at
    most ``GAIN_TIE_RTOL * max|g|``; both must be finite. Brute-force over
    all pairs; kept deliberately elementary so it can serve as the reference
    for the smooth surrogate. Each sign comes from comparisons and each gap
    from halves of the gains, so no finite input overflows.
    Correlates along the last axis and broadcasts the leading ones, so
    ``(frames, K)`` inputs give one value per frame.
    """
    w, g, i, j = _pairs(w, g)
    half = g / 2  # no difference of two finite halves overflows
    tied = np.abs(half[..., i] - half[..., j]) <= GAIN_TIE_RTOL / 2 * np.max(np.abs(g), axis=-1, keepdims=True)
    concordance = _sign(w[..., i], w[..., j]) * np.where(tied, 0, _sign(g[..., i], g[..., j]))
    return np.sum(concordance, axis=-1) / float(i.size)


def _sign(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``sign(a - b)`` as int8, by comparisons, which cannot overflow."""
    return (a > b).astype(np.int8) - (a < b)


def soft_kendall(w, g, sharpness: float = 2.0):
    """Sigmoid-smoothed Kendall correlation in (0, 1), along the last axis.

    Returns ``2 sum_{s<s'} sigmoid(-sharpness * (w_s-w_s')(g_s-g_s')) / (K(K-1))``:
    concordant pairs score *below* 0.5. ``1 - soft_kendall(w, g, sharpness)`` is the
    concordance-consistent variant (sigmoid(-x) = 1 - sigmoid(x)), whose sharp
    limit is ``(exact_kendall_tau + 1) / 2`` on tie-free input. Leading axes
    broadcast as in :func:`exact_kendall_tau`. Every product it forms is at
    most ``sharpness * span(w) * span(g)`` in size, the spans taken over the
    widest row of each; when that bound overflows the float range, a
    ``ValueError`` names the three.
    """
    w, g, i, j = _pairs(w, g)
    sharpness = _fields.number("sharpness", sharpness, 0, np.inf, "()")
    span_w, span_g = (float(np.max(np.max(x, axis=-1) / 2 - np.min(x, axis=-1) / 2)) * 2 for x in (w, g))
    _fields.finite_result("sharpness * span(w) * span(g)", sharpness * (span_w * span_g), sharpness=sharpness,
                          **{"span(w)": span_w, "span(g)": span_g})
    k = w.shape[-1]
    prod = (w[..., i] - w[..., j]) * (g[..., i] - g[..., j])
    return 2.0 * np.sum(sigmoid(-sharpness * prod), axis=-1) / (k * (k - 1))


def allocate(w, g) -> np.ndarray:
    """Permutation pi assigning payload elements to sub-channels by rank.

    ``pi[s]`` is the payload index carried on sub-channel ``s``: the k-th
    most important element rides the k-th strongest sub-channel. Ties break
    by ascending original index, so the result is reproducible and constant
    importance yields the identity. Both must be finite.
    """
    w, g = _fields.numbers("w", w), _fields.numbers("g", g)
    if w.ndim != 1 or g.ndim != 1 or w.size != g.size:
        raise ValueError(f"importance and gains must be 1-D of equal length, got {w.shape}, {g.shape}")
    order_w = np.argsort(-w, kind="stable")
    order_g = np.argsort(-g, kind="stable")
    pi = np.empty(w.size, dtype=np.intp)
    pi[order_g] = order_w
    return pi


def _check_permutation(pi, shape) -> np.ndarray:
    """``pi`` broadcast to ``shape``, checked to be a bijection along the last axis."""
    pi = np.asarray(pi)
    if pi.shape[-1:] != shape[-1:] or not (np.sort(pi, axis=-1) == np.arange(pi.shape[-1])).all():
        raise ValueError("pi must be a bijection on {0..K-1} matching the payload length")
    return np.broadcast_to(pi.astype(np.intp), shape)


def apply_allocation(payload, pi) -> np.ndarray:
    """Reorder payloads into sub-channel order along the last axis: ``out[..., s] = payload[..., pi[..., s]]``."""
    payload = np.asarray(payload)
    return np.take_along_axis(payload, _check_permutation(pi, payload.shape), axis=-1)


def invert_allocation(received, pi) -> np.ndarray:
    """Undo :func:`apply_allocation`: restores original payload order."""
    received = np.asarray(received)
    out = np.empty_like(received)
    np.put_along_axis(out, _check_permutation(pi, received.shape), received, axis=-1)
    return out
