"""Acceptance gate: every check of ``otfslink validate``, plus two criteria of its own.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS/FAIL line
per check. The parametrized IDs are the names ``otfslink validate`` prints;
the checks, their seeds and their tolerances live in
:mod:`otfslink.validation`. ``test_tolerances_pinned`` holds each tolerance
at its literal value, so loosening one takes a visible edit here.
Criteria 10 (loss arithmetic) and 11 (CSV determinism) are plain tests.
"""

from contextlib import contextmanager

import pytest

from otfslink import validation
from otfslink.cli import main
from otfslink.losses import LossWeights, l2_loss

PINNED_TOLERANCES = {
    "TOL_DIAG_RATIO": 1e-9,
    "TOL_DIAG_MATCH": 1e-9,
    "TOL_DIAG_SECONDS": 30.0,
    "TOL_NOISE_VAR": 0.10,
    "TOL_ROUND_TRIP": 1e-12,
    "TOL_CHANNEL_ORACLE": 1e-12,
    "TOL_SOFT_KENDALL_LIMIT": 1e-3,
    "TOL_KENDALL_LITERAL": 1e-12,
    "TOL_ALLOCATION_GAP": 1e-12,
    "TOL_NOISELESS_MSE": 1e-20,
    "TOL_QAM_SER_REL": 0.10,
    "TOL_QAM_SER_FORMULA": 1e-15,
    "TOL_KRON_AGREEMENT": 1e-12,
    "TOL_SHIFT_ROTATION": 1e-12,
    "TOL_NOISE_WHITENESS": 1e-10,
    "TOL_QAM_GRID": 1e-9,
    "TOL_QAM_ENERGY": 1e-12,
    "SIGMOID_MINUS_2": 0.11920292202211755,
}


@contextmanager
def criterion(name: str):
    try:
        yield
    except BaseException:
        print(f"FAIL {name}")
        raise
    print(f"PASS {name}")


@pytest.mark.parametrize("check", validation.CHECKS, ids=lambda check: check.__name__)
def test_invariant(check):
    result = check()
    print(f"{result.status} {result.name}: {result.detail}")
    assert result.name == check.__name__
    assert result.passed, result.detail


def test_tolerances_pinned():
    defined = {
        name: getattr(validation, name)
        for name in dir(validation)
        if name.startswith("TOL_") or name == "SIGMOID_MINUS_2"
    }
    assert defined == PINNED_TOLERANCES


def test_criterion_10_loss_arithmetic():
    """Composite loss reproduces hand-computed values; monotone in kappa and MSE."""
    with criterion("criterion 10: loss arithmetic and monotonicity"):
        assert l2_loss(1.0, 0.1, 0.8, LossWeights(20.0, 0.5)) == 2.6
        assert l2_loss(0.0, 0.0, 1.0, LossWeights(20.0, 0.5)) == -0.5
        base = l2_loss(1.0, 0.1, 0.8)
        delta = 1e-7
        assert l2_loss(1.0, 0.1, 0.8 + delta) < base < l2_loss(1.0, 0.1 + delta, 0.8)
        kappa_slope = (l2_loss(1.0, 0.1, 0.8 + delta) - base) / delta
        mse_slope = (l2_loss(1.0, 0.1 + delta, 0.8) - base) / delta
        assert abs(kappa_slope - (-0.5)) < 1e-4
        assert abs(mse_slope - 20.0) < 1e-4


def test_criterion_11_csv_determinism(tmp_path):
    """Identical config + seed produce byte-identical CSV bodies."""
    with criterion("criterion 11: byte-identical CSV bodies"):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            '{"n_tx": 2, "n_rx": 2, "n_rf": 1, "m_delay": 2, "n_doppler": 2,'
            ' "n_paths": 5, "max_delay_tap": 3, "max_doppler_tap": 1,'
            ' "snr_grid_db": [0.0, 12.0], "trials": 2, "seed": 5}'
        )
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["sweep", str(cfg_path), "--output", str(out_a)]) == 0
        assert main(["sweep", str(cfg_path), "--output", str(out_b)]) == 0
        body_a = out_a.read_bytes().split(b"\n", 1)[1]
        body_b = out_b.read_bytes().split(b"\n", 1)[1]
        assert body_a == body_b and len(body_a) > 0
