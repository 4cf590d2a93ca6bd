"""CLI tests: config validation, sweep output, determinism, validate suite."""

import json
import math
import os

import pytest

from otfslink.cli import ConfigError, main, parse_config
from otfslink.modem import constellation_points
from otfslink.validation import run_validation_suite

SMALL_CONFIG = {
    "n_tx": 2,
    "n_rx": 2,
    "n_rf": 1,
    "m_delay": 2,
    "n_doppler": 2,
    "n_paths": 5,
    "max_delay_tap": 3,
    "max_doppler_tap": 1,
    "snr_db": 6.0,
    "seed": 3,
    "sweep": "snr",
    "snr_grid_db": [0.0, 6.0],
    "trials": 2,
}


@pytest.fixture
def small_config(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(SMALL_CONFIG))
    return path


class TestParseConfig:
    def test_shipped_default_config(self):
        here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        cfg = parse_config(os.path.join(here, "configs", "default.json"))
        sim = cfg.sim
        assert (sim.n_tx, sim.n_rx, sim.n_rf) == (8, 8, 2)
        assert (sim.m_delay, sim.n_doppler) == (8, 8)
        assert sim.n_paths == 10
        assert (sim.max_delay_tap, sim.max_doppler_tap) == (5, 1)
        assert cfg.snr_grid_db == (-6.0, 0.0, 6.0, 12.0, 18.0)
        assert cfg.n_tx_grid == (4, 6, 8, 10, 12, 14, 16)
        assert cfg.carrier_freq_hz == 28.0e9
        assert cfg.subcarrier_spacing_hz == 120.0e3

    def test_empty_file_names_position(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("")
        with pytest.raises(ConfigError, match="char 0"):
            parse_config(path)

    def test_zero_rf_chains_names_field(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n_rf": 0}))
        with pytest.raises(ConfigError, match="n_rf must be >= 1"):
            parse_config(path)

    def test_unknown_key_named(self, tmp_path):
        path = tmp_path / "unknown.json"
        path.write_text(json.dumps({"n_tx": 4, "n_tx_antennas": 4}))
        with pytest.raises(ConfigError, match="n_tx_antennas"):
            parse_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            parse_config(tmp_path / "nope.json")

    def test_bad_sweep_kind(self, tmp_path):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({"sweep": "frequency"}))
        with pytest.raises(ConfigError, match="sweep"):
            parse_config(path)

    @pytest.mark.parametrize(
        "update, field",
        [
            ({"snr_db": -math.inf}, "snr_db"),
            ({"snr_grid_db": [0.0, -math.inf]}, "snr_grid_db"),
            ({"snr_grid_db": [math.nan]}, "snr_grid_db"),
            ({"n_tx_grid": [2, 0]}, "n_tx_grid"),
            ({"n_rf": 2, "n_paths": 1}, "n_rf"),
        ],
        ids=["snr_db_-inf", "snr_grid_-inf", "snr_grid_nan", "n_tx_grid_zero", "n_rf_above_n_paths"],
    )
    def test_unusable_values_rejected_before_running(self, tmp_path, capsys, update, field):
        cfg = dict(SMALL_CONFIG)
        cfg.update(update)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))  # non-finite floats become -Infinity / NaN
        with pytest.raises(ConfigError, match=field):
            parse_config(path)
        out = tmp_path / "never.csv"
        assert main(["sweep", str(path), "--output", str(out)]) == 2
        assert f"config error: {field}" in capsys.readouterr().err
        assert not out.exists()

    def test_noiseless_snr_accepted(self, tmp_path):
        cfg = dict(SMALL_CONFIG)
        cfg.update({"snr_db": math.inf, "snr_grid_db": [math.inf]})
        path = tmp_path / "inf.json"
        path.write_text(json.dumps(cfg))
        assert parse_config(path).snr_grid_db == (math.inf,)

    def test_defaults_fill_in(self, tmp_path):
        path = tmp_path / "minimal.json"
        path.write_text("{}")
        cfg = parse_config(path)
        assert cfg.sim.n_tx == 8
        assert cfg.trials == 1
        assert cfg.output is None


class TestSweepCommand:
    def test_writes_expected_rows(self, small_config, tmp_path):
        out = tmp_path / "rows.csv"
        code = main(["sweep", str(small_config), "--output", str(out)])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0].startswith("# otfslink ")
        assert lines[1].startswith("snr_db,")
        assert len(lines) == 2 + 2  # comment + header + one row per SNR

    def test_body_deterministic_across_runs(self, small_config, tmp_path):
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["sweep", str(small_config), "--output", str(out_a)]) == 0
        assert main(["sweep", str(small_config), "--output", str(out_b)]) == 0
        body = lambda p: p.read_bytes().split(b"\n", 1)[1]
        assert body(out_a) == body(out_b)

    def test_simulate_single_row(self, small_config, tmp_path):
        out = tmp_path / "single.csv"
        assert main(["simulate", str(small_config), "--output", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 3
        assert lines[2].split(",")[0] == "6.0"

    def test_stdout_when_no_output(self, small_config, capsys):
        assert main(["simulate", str(small_config)]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("# otfslink ")

    def test_flag_overrides(self, small_config, tmp_path):
        out = tmp_path / "o.csv"
        code = main([
            "simulate", str(small_config),
            "--output", str(out), "--seed", "9", "--trials", "1",
            "--mode", "uniform", "--precoder", "paper_literal",
        ])
        assert code == 0
        assert ",uniform," in out.read_text()

    def test_unwritable_output_fails_cleanly(self, small_config, tmp_path):
        missing_dir = tmp_path / "no" / "such" / "dir" / "x.csv"
        assert main(["sweep", str(small_config), "--output", str(missing_dir)]) == 1
        assert not missing_dir.exists()

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"n_rf": 0}))
        assert main(["sweep", str(bad)]) == 2

    def test_log_level_leaves_csv_bytes_unchanged(self, small_config, tmp_path, monkeypatch, capsys):
        texts, errs = {}, {}
        for level in ("error", "debug"):
            monkeypatch.setenv("OTFSLINK_LOG", level)
            out = tmp_path / f"{level}.csv"
            assert main(["sweep", str(small_config), "--output", str(out)]) == 0
            texts[level] = out.read_bytes()
            errs[level] = capsys.readouterr().err
        assert texts["error"] == texts["debug"]
        assert "ETA" not in errs["error"]
        # two SNR points x two trials: one progress line per link
        assert errs["debug"].count("ETA") == 4
        assert "link 4/4 (trial 2, grid point 2)" in errs["debug"]

    def test_antenna_sweep_row_count(self, tmp_path):
        cfg = dict(SMALL_CONFIG)
        cfg.update({"sweep": "antennas", "n_tx_grid": [2, 3, 4], "trials": 1})
        path = tmp_path / "ant.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "ant.csv"
        assert main(["sweep", str(path), "--output", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 2 + 3


class TestValidate:
    def test_suite_passes(self):
        results = run_validation_suite()
        failures = [r for r in results if not r.passed]
        assert failures == []
        assert any(r.expected_gap for r in results)

    def test_cli_validate_exit_zero(self, capsys):
        assert main(["validate"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "EXPECTED-GAP" in out
        assert "FAIL" not in out

    def test_corrupted_constellation_fails_gray_check(self):
        points = constellation_points().copy()
        points[[0, 1]] = points[[1, 0]]  # swap two labels: breaks Gray adjacency
        results = run_validation_suite(constellation=points)
        gray = next(r for r in results if r.name == "qam_gray_adjacency")
        assert not gray.passed

    def test_off_grid_constellation_fails(self):
        points = constellation_points().copy()
        points[0] = 0.123 + 0.456j
        results = run_validation_suite(constellation=points)
        gray = next(r for r in results if r.name == "qam_gray_adjacency")
        assert not gray.passed
