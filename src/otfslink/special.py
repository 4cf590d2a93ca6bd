"""Element-wise special functions on numpy arrays: sigmoid, erfc, normal CDF.

The sigmoid is on the per-frame path (soft Kendall alignment), so it is a
handful of vectorized numpy operations. ``erfc`` and ``ndtr`` serve the
entropy scores and the closed-form QAM symbol error rate, neither of which
runs per frame, so they apply :func:`math.erfc` to each entry.
"""

from __future__ import annotations

import math

import numpy as np

# exp(709) = 8.2e307 is finite; exp(710) overflows.
SIGMOID_MIN_ARG = -709.0

_ERFC = np.frompyfunc(math.erfc, 1, 1)


def sigmoid(x):
    """Logistic function ``1 / (1 + exp(-x))``, element-wise, without overflow.

    ``x`` is clamped from below at ``SIGMOID_MIN_ARG``, where ``exp(-x)`` is
    still finite. Below it both the true value and the result are at most
    ``sigmoid(-709) = 1.2e-308``.
    """
    x = np.asarray(x, dtype=float)
    t = np.maximum(x, SIGMOID_MIN_ARG, out=np.empty_like(x))
    np.negative(t, out=t)
    np.exp(t, out=t)
    t += 1.0
    return np.divide(1.0, t, out=t)[()]


def erfc(x):
    """Complementary error function, element-wise."""
    return np.asarray(_ERFC(np.asarray(x, dtype=float)), dtype=float)[()]


def ndtr(x):
    """Standard normal CDF, element-wise: ``erfc(-x / sqrt(2)) / 2``."""
    return 0.5 * erfc(-np.asarray(x, dtype=float) * math.sqrt(0.5))
