"""CLI tests: config validation, sweep output, determinism, validate suite."""

import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import event, given, settings, strategies as st

import otfslink
from otfslink.cli import _EXP_KEYS, _SIM_KEYS, ConfigError, main, parse_config
from otfslink.link_sim import CSV_COLUMNS, MAX_ARRAY_ENTRIES
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
        ],
        ids=[
            "snr_db_-inf", "snr_grid_-inf", "snr_grid_nan", "n_tx_grid_zero", "n_rf_above_n_paths",
            "snr_db_-1e308", "snr_db_-101", "snr_grid_-1e308", "snr_grid_-101", "one_subchannel",
            "snr_db_int_1e400", "snr_grid_int_1e400", "carrier_int_1e400", "scs_int_-1e400",
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

    def test_integer_too_long_to_parse_is_a_config_error(self, tmp_path):
        path = tmp_path / "long.json"
        path.write_text('{"snr_db": 1' + "0" * 5000 + "}")
        with pytest.raises(ConfigError, match="invalid JSON"):
            parse_config(path)

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


SNRS = st.one_of(
    st.floats(-100.0, 1e308),
    st.floats(-1e308, 1e308),
    st.sampled_from([math.inf, -math.inf, math.nan]),
)


@st.composite
def small_configs(draw):
    """At most 3 antennas, a grid of at most 2x2, 2 trials; one integer field may go negative."""
    cfg = {name: draw(st.integers(1, 3)) for name in ("n_tx", "n_rx", "n_paths")}
    for name in ("m_delay", "n_doppler", "n_frames", "trials"):
        cfg[name] = draw(st.integers(1, 2))
    mn = cfg["m_delay"] * cfg["n_doppler"]
    cfg["n_rf"] = draw(st.integers(1, min(cfg["n_tx"], cfg["n_rx"])))
    cfg["max_delay_tap"] = draw(st.integers(0, mn - 1))
    cfg["max_doppler_tap"] = draw(st.integers(0, mn - 1))
    cfg["seed"] = draw(st.integers(0, 2**32))
    bad = draw(st.none() | st.sampled_from(sorted(cfg)))  # every field so far is an integer
    if bad is not None:
        cfg[bad] = draw(st.integers(-3, -1))
    cfg["sweep"] = draw(st.sampled_from(["snr", "antennas", "single"]))
    cfg["snr_db"] = draw(SNRS)
    cfg["snr_grid_db"] = draw(st.lists(SNRS, min_size=1, max_size=2))
    cfg["n_tx_grid"] = draw(st.lists(st.integers(0, 3), min_size=1, max_size=2))
    return cfg


@settings(max_examples=300, deadline=None)
@given(small_configs())
def test_any_config_is_a_named_config_error_or_finite_metrics(cfg):
    with tempfile.TemporaryDirectory() as tmp:
        path, out = os.path.join(tmp, "cfg.json"), os.path.join(tmp, "out.csv")
        with open(path, "w") as fh:
            json.dump(cfg, fh)  # non-finite floats become Infinity / NaN
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["sweep", path, "--output", out])
        event(f"exit {code}")
        if code == 2:
            message = err.getvalue()
            assert "config error" in message
            assert any(field in message for field in _SIM_KEYS | _EXP_KEYS), message
            assert not os.path.exists(out)
        else:
            assert code == 0, err.getvalue()
            # snr_db echoes the grid and may be +inf (noiseless); the metrics are finite
            assert all(math.isfinite(v) for v in _metric_values(out))


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
    """Reproducibility contract: across BLAS thread counts only float rounding differs."""
    rows = {}
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}.csv"
        env = dict(
            os.environ,
            OPENBLAS_NUM_THREADS=threads,
            OMP_NUM_THREADS=threads,
            OTFSLINK_LOG="error",
            PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]),
        )
        subprocess.run(
            [sys.executable, "-m", "otfslink", "sweep", str(ROOT / "configs" / "default.json"),
             "--trials", "3", "--output", str(out)],
            env=env, check=True,
        )
        rows[threads] = _rows(out)
    assert len(rows["1"]) == len(rows["2"]) == 5
    for one, two in zip(rows["1"], rows["2"]):
        for col in CSV_COLUMNS:
            if col in ("snr_db", "n_tx", "n_rx", "n_rf", "mode", "trials", "ser"):
                assert one[col] == two[col], col
            else:
                assert math.isclose(float(one[col]), float(two[col]), rel_tol=1e-12), col
