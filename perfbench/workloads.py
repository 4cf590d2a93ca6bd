"""Benchmark workloads: each is a full otfslink experiment config.

The configs are spelled out here instead of being read from
``configs/default.json`` so that the benchmark's inputs cannot drift when
the repository's example config changes. The workload seed becomes the
config's ``seed`` field; it is the only input that varies between runs.
See README.md in this directory for why each workload exists.
"""

from __future__ import annotations

import json

# The fields of configs/default.json at the commit that defined the benchmark.
DEFAULT_FIELDS = {
    "n_tx": 8,
    "n_rx": 8,
    "n_rf": 2,
    "m_delay": 8,
    "n_doppler": 8,
    "n_frames": 1,
    "n_paths": 10,
    "max_delay_tap": 5,
    "max_doppler_tap": 1,
    "snr_db": 0.0,
    "precoder_mode": "dd_corrected",
    "allocation_mode": "semantic",
    "sweep": "snr",
    "snr_grid_db": [-6.0, 0.0, 6.0, 12.0, 18.0],
    "n_tx_grid": [4, 6, 8, 10, 12, 14, 16],
    "trials": 1,
    "carrier_freq_hz": 28.0e9,
    "subcarrier_spacing_hz": 120.0e3,
}

WORKLOADS = {
    # 8x8 antennas on an 8x8 grid (H is 512^2), five SNR points.
    "snr_default": {"trials": 2},
    # n_tx = n_rx from 4 to 16 (H from 256^2 to 1024^2); 16 > n_paths.
    "antenna_sweep": {"sweep": "antennas"},
    # One link, 8x8 antennas on a 16x16 grid (H is 2048^2).
    "grid16": {"sweep": "single", "m_delay": 16, "n_doppler": 16},
    # 4x4 antennas, a 512-frame burst per link, three SNR points.
    "frame_burst": {"n_tx": 4, "n_rx": 4, "n_frames": 512, "snr_grid_db": [0.0, 12.0, 18.0]},
}


def make_config(workload: str, seed: int) -> dict:
    """The experiment config of ``workload`` at workload seed ``seed``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {sorted(WORKLOADS)}")
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {seed!r}")
    cfg = dict(DEFAULT_FIELDS)
    cfg.update(WORKLOADS[workload])
    cfg["seed"] = seed
    return cfg


def write_config(cfg: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh, indent=2)


def grid(cfg: dict) -> list[tuple[float, int, int]]:
    """``(snr_db, n_tx, n_rx)`` of each CSV row the sweep writes, in order."""
    if cfg["sweep"] == "single":
        return [(float(cfg["snr_db"]), cfg["n_tx"], cfg["n_rx"])]
    if cfg["sweep"] == "snr":
        return [(float(s), cfg["n_tx"], cfg["n_rx"]) for s in cfg["snr_grid_db"]]
    return [(float(cfg["snr_db"]), n, n) for n in cfg["n_tx_grid"]]


def links_per_sweep(cfg: dict) -> int:
    """Links one sweep runs: grid points x trials."""
    return len(grid(cfg)) * cfg["trials"]


def symbols_per_row(cfg: dict) -> int:
    """Payload symbols averaged into one CSV row: trials x n_rf*M*N x n_frames."""
    return cfg["trials"] * cfg["n_rf"] * cfg["m_delay"] * cfg["n_doppler"] * cfg["n_frames"]
