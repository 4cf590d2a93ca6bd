"""CLI tests: config validation, sweep output, determinism, validate suite."""

import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import event, example, given, settings, strategies as st

import otfslink
from otfslink import cli, link_sim
from otfslink.cli import _EXP_KEYS, _SIM_KEYS, ConfigError, main, parse_config
from otfslink.link_sim import (
    ALLOCATION_MODES, CSV_COLUMNS, MAX_ARRAY_ENTRIES, MAX_TRIALS, SimConfig, _frames_per_chunk, antenna_points,
)
from otfslink.precoding import PRECODER_MODES, RankDeficientChannelError
from otfslink.modem import constellation_points
from otfslink.validation import CHECKS, check_gray_labeling

ROOT = Path(__file__).resolve().parents[1]

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


METRIC_COLUMNS = CSV_COLUMNS[CSV_COLUMNS.index("ser"):]


def _rows(path):
    with open(path, newline="") as fh:
        next(fh)  # versioned comment line
        return list(csv.DictReader(fh))


def _metric_values(path):
    return [float(row[col]) for row in _rows(path) for col in METRIC_COLUMNS]


def _assert_rejected_before_running(tmp_path, capsys, update, field):
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


@pytest.fixture
def small_config(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(SMALL_CONFIG))
    return path


class TestParseConfig:
    def test_shipped_default_config(self):
        cfg = parse_config(ROOT / "configs" / "default.json")
        sim = cfg.sim
        assert (sim.n_tx, sim.n_rx, sim.n_rf) == (8, 8, 2)
        assert (sim.m_delay, sim.n_doppler) == (8, 8)
        assert sim.n_paths == 10
        assert (sim.max_delay_tap, sim.max_doppler_tap) == (5, 1)
        assert cfg.snr_grid_db == (-6.0, 0.0, 6.0, 12.0, 18.0)
        assert cfg.n_tx_grid == (4, 6, 8, 10, 12, 14, 16)
        assert cfg.carrier_freq_hz == 28.0e9
        assert cfg.subcarrier_spacing_hz == 120.0e3

    @pytest.mark.parametrize("path", sorted((ROOT / "configs").glob("*.json")), ids=lambda p: p.name)
    def test_every_shipped_config_parses(self, path):
        parse_config(path)

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
            ({"snr_db": -1e308}, "snr_db"),
            ({"snr_db": -101}, "snr_db"),
            ({"snr_grid_db": [0.0, -1e308]}, "snr_grid_db"),
            ({"snr_grid_db": [-101]}, "snr_grid_db"),
            ({"m_delay": 1, "n_doppler": 1, "max_delay_tap": 0, "max_doppler_tap": 0}, "n_rf"),
            # JSON keeps integer literals exact; these do not fit a float
            ({"snr_db": 10**400}, "snr_db"),
            ({"snr_grid_db": [0.0, 10**400]}, "snr_grid_db"),
            ({"carrier_freq_hz": 10**400}, "carrier_freq_hz"),
            ({"subcarrier_spacing_hz": -(10**400)}, "subcarrier_spacing_hz"),
            # a frequency is finite and positive
            ({"carrier_freq_hz": math.nan}, "carrier_freq_hz"),
            ({"carrier_freq_hz": math.inf}, "carrier_freq_hz"),
            ({"carrier_freq_hz": 0}, "carrier_freq_hz"),
            ({"subcarrier_spacing_hz": -5}, "subcarrier_spacing_hz"),
            ({"subcarrier_spacing_hz": -math.inf}, "subcarrier_spacing_hz"),
            ({"subcarrier_spacing_hz": 0.0}, "subcarrier_spacing_hz"),
        ],
        ids=[
            "snr_db_-inf", "snr_grid_-inf", "snr_grid_nan", "n_tx_grid_zero", "n_rf_above_n_paths",
            "snr_db_-1e308", "snr_db_-101", "snr_grid_-1e308", "snr_grid_-101", "one_subchannel",
            "snr_db_int_1e400", "snr_grid_int_1e400", "carrier_int_1e400", "scs_int_-1e400",
            "carrier_nan", "carrier_inf", "carrier_0", "scs_-5", "scs_-inf", "scs_0.0",
        ],
    )
    def test_unusable_values_rejected_before_running(self, tmp_path, capsys, update, field):
        _assert_rejected_before_running(tmp_path, capsys, update, field)

    @pytest.mark.parametrize("value", [10**9, 10**400], ids=["1e9", "int_1e400"])
    @pytest.mark.parametrize(
        "field", ["n_tx", "n_rx", "n_rf", "m_delay", "n_doppler", "n_frames", "n_paths", "n_tx_grid"]
    )
    def test_sizes_too_large_to_allocate_rejected(self, tmp_path, capsys, field, value):
        update = {field: [2, value] if field == "n_tx_grid" else value}
        _assert_rejected_before_running(tmp_path, capsys, update, field)

    def test_array_entry_limit_is_inclusive(self, tmp_path):
        # SMALL_CONFIG carries n_rf*m_delay*n_doppler = 4 payload elements per frame
        path = tmp_path / "frames.json"
        path.write_text(json.dumps(dict(SMALL_CONFIG, n_frames=MAX_ARRAY_ENTRIES // 4)))
        assert parse_config(path).sim.payload_len == MAX_ARRAY_ENTRIES
        path.write_text(json.dumps(dict(SMALL_CONFIG, n_frames=MAX_ARRAY_ENTRIES // 4 + 1)))
        with pytest.raises(ConfigError, match="n_frames is too large: the payload"):
            parse_config(path)

    TRIAL_COUNTS = pytest.mark.parametrize(
        "value", [0, MAX_TRIALS + 1, 10**50, 10**400], ids=["0", "max_plus_1", "1e50", "int_1e400"]
    )

    @TRIAL_COUNTS
    def test_trials_out_of_range_rejected(self, tmp_path, capsys, value):
        _assert_rejected_before_running(tmp_path, capsys, {"trials": value}, "trials")

    @TRIAL_COUNTS
    def test_trials_flag_out_of_range_rejected(self, small_config, tmp_path, capsys, value):
        out = tmp_path / "never.csv"
        assert main(["sweep", str(small_config), "--trials", str(value), "--output", str(out)]) == 2
        assert "config error: trials" in capsys.readouterr().err
        assert not out.exists()

    def test_trials_limit_is_inclusive(self, tmp_path):
        path = tmp_path / "trials.json"
        path.write_text(json.dumps(dict(SMALL_CONFIG, trials=MAX_TRIALS)))
        assert parse_config(path).trials == MAX_TRIALS

    def test_integer_too_long_to_parse_is_a_config_error(self, tmp_path):
        path = tmp_path / "long.json"
        path.write_text('{"snr_db": 1' + "0" * 5000 + "}")
        with pytest.raises(ConfigError, match="invalid JSON"):
            parse_config(path)

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"n_tx": 4, "n_rx": 4, "n_tx": 2, "sweep": "single"}', "repeated config key: 'n_tx'"),
            ('{"sweep": "single", "seed": 1, "seed": 1}', "repeated config key: 'seed'"),
            ("[" * 100000 + "]" * 100000, "invalid JSON: maximum recursion depth"),
            ('{"n_tx_grid": ' + "[" * 100000 + "]" * 100000 + "}", "invalid JSON: maximum recursion depth"),
        ],
        ids=["repeated_key", "repeated_equal_value", "deep_list", "deep_under_key"],
    )
    def test_malformed_json_is_a_config_error(self, tmp_path, capsys, text, message):
        path = tmp_path / "bad.json"
        path.write_text(text)
        with pytest.raises(ConfigError, match=re.escape(message)):
            parse_config(path)
        out = tmp_path / "never.csv"
        assert main(["sweep", str(path), "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not out.exists()

    def test_noiseless_snr_accepted(self, tmp_path):
        cfg = dict(SMALL_CONFIG)
        cfg.update({"snr_db": math.inf, "snr_grid_db": [math.inf]})
        path = tmp_path / "inf.json"
        path.write_text(json.dumps(cfg))
        assert parse_config(path).snr_grid_db == (math.inf,)

    def test_snr_floor_runs_to_a_finite_row(self, tmp_path):
        cfg = dict(SMALL_CONFIG)
        cfg.update({"snr_db": -100, "snr_grid_db": [-100.0]})
        path = tmp_path / "floor.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "floor.csv"
        assert main(["sweep", str(path), "--output", str(out)]) == 0
        assert all(math.isfinite(v) for v in _metric_values(out))

    @pytest.mark.parametrize(
        "update, field",
        [
            ({"trials": 0}, "trials"),
            ({"sweep": "frequency"}, "sweep"),
            ({"snr_grid_db": ()}, "snr_grid_db"),
            ({"n_tx_grid": (4, 4.9)}, "n_tx_grid"),
            ({"output": 3}, "output"),
            ({"output": ""}, "output"),
            ({"carrier_freq_hz": 10**400}, "carrier_freq_hz"),
        ],
        ids=["trials", "sweep", "empty_snr_grid", "fractional_n_tx", "output", "empty_output",
             "carrier_int_1e400"],
    )
    def test_replace_checks_the_experiment_fields(self, small_config, update, field):
        # the rules belong to ExperimentConfig, not to parse_config
        with pytest.raises(ConfigError, match=f"^{field}"):
            dataclasses.replace(parse_config(small_config), **update)

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

    def test_version_line_is_the_package_version(self, small_config, tmp_path):
        # the first CSV line marks which release wrote the bits below it
        tomllib = pytest.importorskip("tomllib")  # Python 3.11+
        version = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["version"]
        assert otfslink.__version__ == version
        out = tmp_path / "rows.csv"
        assert main(["simulate", str(small_config), "--output", str(out)]) == 0
        assert out.read_text().split("\n", 1)[0] == f"# otfslink {version}"

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

    def test_unwritable_output_fails_before_the_first_link(self, small_config, tmp_path, monkeypatch, caplog):
        def never(*args, **kwargs):
            raise AssertionError("the sweep ran although its output cannot be written")

        monkeypatch.setattr(cli, "run_sweep", never)
        target = tmp_path / "missing" / "x.csv"
        assert main(["sweep", str(small_config), "--output", str(target)]) == 1
        assert f"cannot write output {target}" in caplog.text
        assert not list(tmp_path.rglob(".otfslink-*"))

    def test_empty_output_is_a_config_error(self, small_config, tmp_path, monkeypatch, capsys):
        def never(*args, **kwargs):
            raise AssertionError("the sweep ran with an empty output path")

        monkeypatch.setattr(cli, "run_sweep", never)
        work = tmp_path / "work"  # "" once resolved to a temp file in the parent of the working directory
        work.mkdir()
        monkeypatch.chdir(work)
        assert main(["sweep", str(small_config), "--output", ""]) == 2
        assert "config error: output" in capsys.readouterr().err
        path = tmp_path / "empty_output.json"
        path.write_text(json.dumps(dict(SMALL_CONFIG, output="")))
        assert main(["sweep", str(path)]) == 2
        assert "config error: output" in capsys.readouterr().err
        assert not list(tmp_path.rglob(".otfslink-*"))

    def test_directory_output_fails_before_the_first_link(self, small_config, tmp_path, monkeypatch, caplog):
        def never(*args, **kwargs):
            raise AssertionError("the sweep ran although its output is a directory")

        monkeypatch.setattr(cli, "run_sweep", never)
        assert main(["sweep", str(small_config), "--output", str(tmp_path)]) == 1
        assert f"cannot write output {tmp_path}: it is a directory" in caplog.text
        assert not list(tmp_path.rglob(".otfslink-*"))

    def test_failed_sweep_leaves_no_temp_file(self, small_config, tmp_path, monkeypatch):
        def rank_deficient(*args, **kwargs):
            raise RankDeficientChannelError("injected")

        monkeypatch.setattr(cli, "run_sweep", rank_deficient)
        target = tmp_path / "x.csv"
        assert main(["sweep", str(small_config), "--output", str(target)]) == 1
        assert not target.exists()
        assert not list(tmp_path.glob(".otfslink-*"))

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

    # notset is a logging level name, but as the logger's level it defers to the root's warning
    @pytest.mark.parametrize("value", ["verbose", "notset", ""], ids=["unknown", "notset", "empty"])
    def test_unknown_log_level_warns_once_and_runs_at_info(self, small_config, tmp_path, monkeypatch, capsys, value):
        texts, errs = {}, {}
        for level in ("Info", value):  # a known level in any case
            monkeypatch.setenv("OTFSLINK_LOG", level)
            out = tmp_path / f"{level or 'empty'}.csv"
            assert main(["sweep", str(small_config), "--output", str(out)]) == 0
            texts[level] = out.read_bytes()
            errs[level] = capsys.readouterr().err
        assert texts[value] == texts["Info"]
        lines = errs[value].splitlines()
        if value:
            assert lines[0] == f"otfslink: unknown OTFSLINK_LOG={value!r}, using info"
            assert sum("OTFSLINK_LOG" in line for line in lines) == 1
        else:  # an empty value, as a known one, warns of nothing
            assert "OTFSLINK_LOG" not in errs[value]
        # and the rest is info's log: one progress line per link
        assert errs[value].count("ETA") == errs["Info"].count("ETA") == 4

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
    def test_cli_validate_exit_zero(self, capsys):
        assert main(["validate"]) == 0
        lines = capsys.readouterr().out.splitlines()
        statuses = {line.split()[1].rstrip(":"): line.split()[0] for line in lines}
        assert list(statuses) == [check.__name__ for check in CHECKS]
        assert statuses.pop("paper_literal_gap") == "EXPECTED-GAP"
        assert set(statuses.values()) == {"PASS"}

    def test_corrupted_constellation_fails_gray_check(self):
        points = constellation_points().copy()
        points[[0, 1]] = points[[1, 0]]  # swap two labels: breaks Gray adjacency
        assert not check_gray_labeling(points)[0]

    def test_off_grid_constellation_fails(self):
        points = constellation_points().copy()
        points[0] = 0.123 + 0.456j
        ok, detail = check_gray_labeling(points)
        assert not ok and "off-grid" in detail


# every accepted SNR, its edges included: MIN_SNR_DB and +inf (noiseless)
SNRS = st.sampled_from([-100.0, math.inf]) | st.floats(-100.0, 1e308) | st.integers(-100, 10**30)
# below MIN_SNR_DB, NaN, or an integer literal beyond the float range, which JSON keeps exact
BAD_SNRS = st.one_of(
    st.sampled_from([-math.inf, math.nan, 10**400, -10**400]),
    st.floats(max_value=-100.0, exclude_max=True),
)
FREQUENCIES = st.floats(0.0, exclude_min=True, allow_infinity=False) | st.integers(1, 10**30)
BAD_FREQUENCIES = st.one_of(
    st.sampled_from([0, 0.0, math.nan, math.inf, -math.inf, 10**400]),
    st.floats(max_value=0.0, allow_nan=False),
    st.integers(max_value=-1),
)
# JSON values of another type than a number: a bool, a string, null, a list, an object
NOT_NUMBERS = st.sampled_from([True, False, "2", "", None, [2], {"value": 2}])
NOT_INTEGERS = NOT_NUMBERS | st.sampled_from([2.0, 2.5, -0.5, math.nan, math.inf])
SIZES = ("n_tx", "n_rx", "n_rf", "m_delay", "n_doppler", "n_frames", "n_paths")


def _edge_or_any(low, high):
    """An integer in [low, high] that is one of the two edges more often than a uniform draw would be."""
    return st.sampled_from([low, high]) | st.integers(low, high)


@st.composite
def valid_configs(draw):
    """A config with every field in its range, its edges included; at most 3 antennas on a grid of at most 2x2.

    Taps reach MN - 1, ``n_rf`` min(n_tx, n_rx, n_paths) and the SNRs -100 dB
    and +inf. Three antennas on one path compress a side, and more transmit
    than receive antennas make the core wide. Up to 4 frames make a burst
    that spans several chunks of frames once the chunk bound is patched down.
    """
    cfg = {name: draw(st.integers(1, 3)) for name in ("n_tx", "n_rx", "n_paths")}
    cfg["n_rf"] = draw(_edge_or_any(1, min(cfg["n_tx"], cfg["n_rx"], cfg["n_paths"])))
    # Kendall alignment needs two sub-channels
    grids = [(m, n) for m in (1, 2) for n in (1, 2) if cfg["n_rf"] * m * n >= 2]
    cfg["m_delay"], cfg["n_doppler"] = draw(st.sampled_from(grids))
    mn = cfg["m_delay"] * cfg["n_doppler"]
    for name in ("max_delay_tap", "max_doppler_tap"):
        cfg[name] = draw(_edge_or_any(0, mn - 1))
    cfg["n_frames"] = draw(st.integers(1, 4))
    cfg["trials"] = draw(st.integers(1, 2))
    cfg["seed"] = draw(st.integers(0, 2**64))
    cfg["snr_db"] = draw(SNRS)
    cfg["precoder_mode"] = draw(st.sampled_from(PRECODER_MODES))
    cfg["allocation_mode"] = draw(st.sampled_from(ALLOCATION_MODES))
    cfg["sweep"] = draw(st.sampled_from(cli.SWEEP_KINDS))
    cfg["snr_grid_db"] = draw(st.lists(SNRS, min_size=1, max_size=2))
    cfg["n_tx_grid"] = draw(st.lists(st.integers(cfg["n_rf"], 3), min_size=1, max_size=2))
    for name in ("carrier_freq_hz", "subcarrier_spacing_hz"):
        cfg[name] = draw(FREQUENCIES)
    return cfg


def _bad_grid(entries, valid):
    """A grid that is empty or no list, or a list of one of ``entries`` and at most one ``valid`` entry after it."""
    return st.sampled_from([[], 0, "snr", None]) | st.builds(lambda bad, rest: [bad, *rest], entries,
                                                                st.lists(valid, max_size=1))


def _bad_values(cfg):
    """Per field, the values outside its range or of another type, given the rest of the valid ``cfg``."""
    mn = cfg["m_delay"] * cfg["n_doppler"]
    return {
        # beyond 2**28 a size alone exceeds MAX_ARRAY_ENTRIES
        **{name: NOT_INTEGERS | st.integers(max_value=0) | st.integers(2**28 + 1, 10**400) for name in SIZES},
        **{name: NOT_INTEGERS | st.integers(max_value=-1) | st.integers(min_value=mn)
           for name in ("max_delay_tap", "max_doppler_tap")},
        "seed": NOT_INTEGERS | st.integers(max_value=-1),
        "snr_db": NOT_NUMBERS | BAD_SNRS,
        **{name: NOT_NUMBERS | st.text().filter(lambda v, kinds=kinds: v not in kinds)
           for name, kinds in (("precoder_mode", PRECODER_MODES), ("allocation_mode", ALLOCATION_MODES),
                               ("sweep", cli.SWEEP_KINDS))},
        "snr_grid_db": _bad_grid(NOT_NUMBERS | BAD_SNRS, SNRS),
        # an antenna count below n_rf cannot carry its chains
        "n_tx_grid": _bad_grid(NOT_INTEGERS | st.integers(max_value=cfg["n_rf"] - 1),
                               st.integers(cfg["n_rf"], 3)),
        "trials": NOT_INTEGERS | st.integers(max_value=0) | st.integers(min_value=MAX_TRIALS + 1),
        "output": st.sampled_from(["", 0, ["out.csv"], True]),
        **{name: NOT_NUMBERS | BAD_FREQUENCIES for name in ("carrier_freq_hz", "subcarrier_spacing_hz")},
    }


def _sweep(cfg):
    """``otfslink sweep`` of the config ``cfg``: its exit status, stderr and rows' metrics, or None without a file."""
    with tempfile.TemporaryDirectory() as tmp:
        path, out = os.path.join(tmp, "cfg.json"), os.path.join(tmp, "out.csv")
        with open(path, "w") as fh:
            json.dump(cfg, fh)  # non-finite floats become Infinity / NaN
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["sweep", path, "--output", out])
        return code, err.getvalue(), _metric_values(out) if os.path.exists(out) else None


@settings(max_examples=200, deadline=None)
@given(valid_configs())
@example({  # every tap 0 on one antenna pair: the Gram matrix is c I, its tridiagonal splits everywhere
    "n_tx": 1, "n_rx": 1, "n_paths": 3, "m_delay": 1, "n_doppler": 2, "n_frames": 1, "trials": 1,
    "n_rf": 1, "max_delay_tap": 0, "max_doppler_tap": 0, "seed": 1048577, "sweep": "snr",
    "snr_db": 0.0, "snr_grid_db": [0.0], "n_tx_grid": [1],
})
def test_a_config_of_fields_in_range_runs_to_finite_metrics(cfg):
    if cfg["sweep"] != "antennas":  # an antenna sweep has n_rx = n_tx
        event("wide core" if cfg["n_tx"] > cfg["n_rx"] else "tall core")
        event("a compressed side" if max(cfg["n_tx"], cfg["n_rx"]) > cfg["n_paths"] else "no compressed side")
    event(f"sweep {cfg['sweep']}")
    # a frame's larger array holds 2 to 66 entries at these shapes, so a bound of 8
    # entries puts 1 to 4 frames in a chunk, and a burst of several frames spans chunks
    with mock.patch.object(link_sim, "FRAME_CHUNK_ENTRIES", 8):
        sim = SimConfig(**{name: cfg[name] for name in _SIM_KEYS if name in cfg})
        links = antenna_points(sim, cfg["n_tx_grid"]) if cfg["sweep"] == "antennas" else [sim]
        chunks = max(-(-link.n_frames // _frames_per_chunk(link)) for link in links)
        event("a burst across one chunk" if chunks == 1 else "a burst across several chunks")
        code, err, metrics = _sweep(cfg)
    assert code == 0, err
    # snr_db echoes the grid and may be +inf (noiseless); the metrics are finite
    assert metrics and all(math.isfinite(v) for v in metrics)


@pytest.mark.parametrize("field", sorted(_SIM_KEYS | _EXP_KEYS))
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_a_config_with_one_bad_field_is_a_config_error_naming_it(field, data):
    cfg = data.draw(valid_configs())
    bad = _bad_values(cfg)
    assert set(bad) == _SIM_KEYS | _EXP_KEYS  # every field has its bad values
    cfg[field] = data.draw(bad[field])
    code, err, metrics = _sweep(cfg)
    assert code == 2, err
    # the field's own name, not another that it begins (n_tx_grid for n_tx)
    assert re.search(rf"config error: {field}\b", err), err
    assert metrics is None


def test_runtime_imports_load_no_scipy():
    """The package, its CLI and config parsing need numpy only; scipy is a test oracle."""
    code = (
        "import sys, otfslink, otfslink.cli\n"
        f"otfslink.cli.parse_config({str(ROOT / 'configs' / 'default.json')!r})\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


def test_blas_thread_count_changes_only_the_last_bits(tmp_path):
    """Reproducibility contract: across BLAS thread counts only float rounding differs.

    The burst config passes more frames than one chunk, so the batched
    products of the multi-frame path are covered too.
    """
    default = json.loads((ROOT / "configs" / "default.json").read_text())
    burst = dict(default, n_tx=4, n_rx=4, snr_grid_db=[0.0, 18.0], trials=1)
    burst["n_frames"] = _frames_per_chunk(SimConfig(**{k: burst[k] for k in _SIM_KEYS if k in burst})) + 5
    burst_path = tmp_path / "burst.json"
    burst_path.write_text(json.dumps(burst))
    runs = {"default": (ROOT / "configs" / "default.json", ["--trials", "3"], 5), "burst": (burst_path, [], 2)}
    for name, (config, flags, n_rows) in runs.items():
        rows = {}
        for threads in ("1", "2"):
            out = tmp_path / f"{name}_threads{threads}.csv"
            env = dict(
                os.environ,
                OPENBLAS_NUM_THREADS=threads,
                OMP_NUM_THREADS=threads,
                OTFSLINK_LOG="error",
                PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]),
            )
            subprocess.run(
                [sys.executable, "-m", "otfslink", "sweep", str(config), *flags, "--output", str(out)],
                env=env, check=True,
            )
            rows[threads] = _rows(out)
        assert len(rows["1"]) == len(rows["2"]) == n_rows
        for one, two in zip(rows["1"], rows["2"]):
            for col in CSV_COLUMNS:
                if col in ("snr_db", "n_tx", "n_rx", "n_rf", "mode", "trials", "ser"):
                    assert one[col] == two[col], (name, col)
                else:
                    assert math.isclose(float(one[col]), float(two[col]), rel_tol=1e-12), (name, col)
