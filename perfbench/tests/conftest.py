"""Make the benchmark modules and the otfslink sources importable."""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import workloads  # noqa: E402

# Small enough to sweep in well under a second; rank 8 >= n_rf*M*N = 4 streams.
TINY = dict(workloads.DEFAULT_FIELDS, n_tx=2, n_rx=2, n_rf=1, m_delay=2, n_doppler=2,
            max_delay_tap=1, snr_grid_db=[0.0, 10.0, 20.0], trials=2, seed=3)
# 512 symbols per CSV row, enough for Monte-Carlo bounds well inside [0, 1] for ser.
BURST = dict(TINY, n_tx=4, n_rx=4, n_rf=2, m_delay=4, n_doppler=4, n_frames=8)


@pytest.fixture
def tiny_config():
    return dict(TINY)


@pytest.fixture
def burst_config():
    return dict(BURST)


@pytest.fixture
def run_sweep(tmp_path):
    """Run one CLI sweep of a config dict; return the parsed CSV rows."""
    from otfslink import cli

    import check

    def run(cfg):
        config_path = tmp_path / "config.json"
        csv_path = tmp_path / "out.csv"
        config_path.write_text(json.dumps(cfg))
        assert cli.main(["sweep", str(config_path), "--output", str(csv_path)]) == 0
        return check.read_sweep_csv(csv_path)

    return run


@pytest.fixture
def run_reference(tmp_path):
    """Run one CLI sweep of a config dict; return its rows as a reference (with sds)."""
    import record_reference

    return lambda cfg: record_reference.sweep_with_sds(cfg, tmp_path)
