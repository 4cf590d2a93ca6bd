"""The integer and number rules, as every numeric config and channel field applies them."""

from dataclasses import replace

import numpy as np
import pytest

from otfslink.channel import DdMimoChannel, PathParams
from otfslink.cli import ExperimentConfig
from otfslink.link_sim import SimConfig, run_sweep, snr_points

SMALL = SimConfig(
    n_tx=2, n_rx=2, n_rf=1, m_delay=2, n_doppler=2, n_frames=2, n_paths=3,
    max_delay_tap=2, max_doppler_tap=1, snr_db=3.0, seed=5,
)
SIZES = dict(n_tx=2, n_rx=3, m_delay=2, n_doppler=2)


def _sim(name):
    return lambda value: replace(SMALL, **{name: value}), lambda cfg: getattr(cfg, name)


def _experiment(name, grid=False):
    if grid:
        return lambda value: ExperimentConfig(SMALL, **{name: (value,)}), lambda cfg: getattr(cfg, name)[0]
    return lambda value: ExperimentConfig(SMALL, **{name: value}), lambda cfg: getattr(cfg, name)


def _channel(name):
    path = PathParams(1.0 + 0j, 1, -1, 0.5, 1.0)
    return lambda value: DdMimoChannel((path,), **{**SIZES, name: value}), lambda chan: getattr(chan, name)


# (id, (build, read), a value of the field's Python type, that type); every float value is
# integral and exact in float32, so each numpy type carries exactly the Python value
FIELDS = [
    *[(f"SimConfig.{name}", _sim(name), getattr(SMALL, name), int)
      for name in ("n_tx", "n_rx", "n_rf", "m_delay", "n_doppler", "n_frames", "n_paths", "max_delay_tap",
                   "max_doppler_tap", "seed")],
    ("SimConfig.snr_db", _sim("snr_db"), 3.0, float),
    ("ExperimentConfig.trials", _experiment("trials"), 4, int),
    ("ExperimentConfig.carrier_freq_hz", _experiment("carrier_freq_hz"), 28.0e9, float),
    ("ExperimentConfig.subcarrier_spacing_hz", _experiment("subcarrier_spacing_hz"), 120.0e3, float),
    ("ExperimentConfig.snr_grid_db", _experiment("snr_grid_db", grid=True), -6.0, float),
    ("ExperimentConfig.n_tx_grid", _experiment("n_tx_grid", grid=True), 3, int),
    *[(f"DdMimoChannel.{name}", _channel(name), SIZES[name], int) for name in SIZES],
]


@pytest.mark.parametrize("field, rule, value, kind", FIELDS, ids=[f[0] for f in FIELDS])
def test_numpy_scalars_are_taken_as_python_values_and_bools_are_refused(field, rule, value, kind):
    build, read = rule
    expected = build(value)
    assert type(read(expected)) is kind
    for numpy_type in (np.int64,) if kind is int else (np.int64, np.float32, np.float64):
        built = build(numpy_type(value))
        assert built == expected, numpy_type
        assert type(read(built)) is kind, numpy_type
    name = field.split(".")[1]
    refused = [True, np.True_] + ([float(value), np.float64(value)] if kind is int else [])
    for bad in refused:
        with pytest.raises(ValueError, match=name):
            build(bad)


def test_run_sweep_takes_a_numpy_trial_count():
    rows = run_sweep(snr_points(SMALL, [0.0]), trials=np.int64(2))
    assert type(rows[0].trials) is int and rows[0].trials == 2


@pytest.mark.skipif(np.finfo(np.longdouble).max <= np.finfo(float).max, reason="long double is a double here")
def test_a_long_double_beyond_the_float_range_is_not_taken_as_infinite():
    # float() rounds it to inf, which as an SNR would mean a noiseless link
    with pytest.raises(ValueError, match="snr_db must be within the float range"):
        replace(SMALL, snr_db=np.longdouble("1e400"))
    assert replace(SMALL, snr_db=np.longdouble("inf")).snr_db == np.inf
