import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import check
import workloads
from otfslink.precoding import SubChannelDecomposition


def test_identical_rows_pass(tiny_config, run_reference):
    rows = run_reference(tiny_config)
    verdict = check.check_sweep(rows, tiny_config, rows)
    assert verdict.ok and verdict.links == 6


def test_perturbed_gamma_max_is_rejected(tiny_config, run_reference):
    ref = run_reference(tiny_config)
    rows = [dict(r) for r in ref]
    rows[1]["gamma_max"] *= 1 + 1e-7
    verdict = check.check_sweep(rows, tiny_config, ref)
    assert verdict.failed == tiny_config["trials"]
    assert any("gamma_max" in p for p in verdict.problems)


def test_noise_columns_within_bound_pass_and_beyond_fail(burst_config, run_reference):
    ref = run_reference(burst_config)
    inside = [dict(r) for r in ref]
    outside = [dict(r) for r in ref]
    for row, r in zip(inside, ref):
        for c in check.NOISE_COLUMNS:
            sign = -1.0 if c == "ser" and r[c] > 0.5 else 1.0
            row[c] = r[c] + sign * 0.9 * check.noise_tolerance(c, r, burst_config)
    outside[2]["mse"] = ref[2]["mse"] + 1.1 * check.noise_tolerance("mse", ref[2], burst_config)
    assert check.check_sweep(inside, burst_config, ref).ok
    verdict = check.check_sweep(outside, burst_config, ref)
    assert verdict.failed == burst_config["trials"] and "row 2" in verdict.problems[0]


def test_out_of_range_and_missing_rows_fail_without_reference(tiny_config, run_sweep):
    rows = run_sweep(tiny_config)
    bad = [dict(r) for r in rows]
    bad[0]["ser"] = 1.5
    assert check.check_sweep(bad, tiny_config, None).failed == 2
    assert check.check_sweep(rows[:1], tiny_config, None).failed == 4
    assert check.check_sweep(None, tiny_config, None).failed == 6


def _noise_var_doubled(monkeypatch):
    """A 3 dB SNR loss with an independent noise realization: a wrong result."""
    from otfslink import link_sim

    _fresh_noise(monkeypatch)
    noise_var = link_sim.snr_to_noise_var
    monkeypatch.setattr(link_sim, "snr_to_noise_var", lambda snr_db: 2.0 * noise_var(snr_db))


def _rotate_singular_phases(monkeypatch):
    """Another valid SVD: each singular pair times a phase. Item-3 style change."""
    from otfslink import link_sim, precoding

    rng = np.random.default_rng(0)

    def rotated(h):
        dec = precoding.decompose(h)
        phase = np.exp(2j * np.pi * rng.random(dec.rank))
        return SubChannelDecomposition(u=dec.u * phase, sigma=dec.sigma, v=dec.v * phase, rank=dec.rank)

    monkeypatch.setattr(link_sim, "decompose", rotated)


def _fresh_noise(monkeypatch):
    """Same channels, payloads and importance; an independent noise realization."""
    from otfslink import channel, link_sim

    rng = np.random.default_rng(99)
    monkeypatch.setattr(link_sim, "apply_channel",
                        lambda h, y, noise_var, _rng=None: channel.apply_channel(h, y, noise_var, rng))


@pytest.mark.parametrize("perturb", [_rotate_singular_phases, _fresh_noise])
def test_changed_noise_realization_passes(burst_config, run_reference, run_sweep, monkeypatch, perturb):
    ref = run_reference(burst_config)
    perturb(monkeypatch)
    rows = run_sweep(burst_config)
    assert any(r["ser"] != q["ser"] for r, q in zip(rows, ref))
    verdict = check.check_sweep(rows, burst_config, ref)
    assert verdict.ok, verdict.problems


def _gated_workloads():
    spec = json.loads((Path(check.__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    return [w["name"] for w in spec["workloads"]]


@pytest.mark.parametrize("workload", _gated_workloads())
def test_three_db_loss_fails_against_the_recorded_reference(workload, run_sweep, monkeypatch):
    cfg = workloads.make_config(workload, 0)
    ref = check.load_reference(workload, 0)
    assert check.check_sweep(run_sweep(cfg), cfg, ref).ok
    _noise_var_doubled(monkeypatch)
    verdict = check.check_sweep(run_sweep(cfg), cfg, ref)
    assert any(" mse=" in p for p in verdict.problems), verdict.problems


def test_run_without_sources_fails_without_result(tmp_path):
    bench = Path(check.__file__).resolve().parent
    shutil.copytree(bench, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(bench.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "snr_default", "--seed", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert not any(line.startswith("{") for line in proc.stderr.splitlines())


def test_benchmark_json_workloads_are_defined():
    assert set(_gated_workloads()) <= set(workloads.WORKLOADS)
