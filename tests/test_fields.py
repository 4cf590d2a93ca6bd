"""The integer and number rules, as numeric config and channel fields and integer arguments apply them."""

import dataclasses
from dataclasses import replace

import numpy as np
import pytest

from otfslink.channel import DdMimoChannel, PathParams
from otfslink.cli import ExperimentConfig
from otfslink.dd_transforms import otfs_demodulate, unstack_chains
from otfslink.link_sim import SimConfig, run_sweep, sample_importance, sample_payload, snr_points
from otfslink.losses import cross_entropy
from otfslink.precoding import build_precoder_combiner, dd_transform_matrices, decompose
from otfslink.validation import DenseCore, cyclic_shift_matrix

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


def _decomposition():
    return decompose(DenseCore(np.diag([4.0, 3.0, 2.0, 1.0]).astype(complex)), 4)


# (id: function.argument, call of the argument's value, a valid value, an out-of-range value)
ARGUMENTS = [
    ("otfs_demodulate.m", lambda v: otfs_demodulate(np.arange(6.0), v, 3), 2, 0),
    ("otfs_demodulate.n", lambda v: otfs_demodulate(np.arange(6.0), 2, v), 3, 0),
    ("unstack_chains.n_chains", lambda v: unstack_chains(np.arange(6.0), v), 2, 0),
    ("decompose.k", lambda v: decompose(DenseCore(np.diag([3.0, 2.0, 1.0]).astype(complex)), v), 2, 0),
    ("dd_transform_matrices.n_rf", lambda v: dd_transform_matrices(v, 2, 3), 2, 0),
    ("dd_transform_matrices.m", lambda v: dd_transform_matrices(2, v, 3), 2, 0),
    ("dd_transform_matrices.n", lambda v: dd_transform_matrices(2, 2, v), 3, 0),
    ("build_precoder_combiner.m", lambda v: build_precoder_combiner(_decomposition(), v, 2), 2, 0),
    ("build_precoder_combiner.n", lambda v: build_precoder_combiner(_decomposition(), 2, v), 2, 0),
    ("cross_entropy.true_label", lambda v: cross_entropy(v, [0.25, 0.75]), 1, 2),
    ("cyclic_shift_matrix.size", lambda v: cyclic_shift_matrix(v, 1), 3, 0),
    ("sample_payload.n", lambda v: sample_payload(np.random.default_rng(0), v), 5, -1),
    ("sample_importance.n", lambda v: sample_importance(np.random.default_rng(0), v), 5, -1),
]


def _parts(result):
    """A function's result as a list of arrays: a dataclass's fields, a tuple's items, or the one value."""
    if dataclasses.is_dataclass(result):
        result = [getattr(result, field.name) for field in dataclasses.fields(result)]
    return [np.asarray(part) for part in (result if isinstance(result, (tuple, list)) else [result])]


@pytest.mark.parametrize("argument, call, value, out_of_range", ARGUMENTS, ids=[a[0] for a in ARGUMENTS])
def test_integer_arguments_follow_the_integer_rule_by_name(argument, call, value, out_of_range):
    name = argument.split(".")[1]
    expected = _parts(call(value))
    for got in (_parts(call(np.int64(value))), _parts(call(np.int32(value)))):
        assert len(got) == len(expected)
        for a, b in zip(got, expected):
            assert a.dtype == b.dtype and np.array_equal(a, b)
    for bad in (float(value), np.float64(value), True, np.True_):
        with pytest.raises(ValueError, match=rf"^{name} must be an integer, got "):
            call(bad)
    with pytest.raises(ValueError, match=rf"^{name} must be (>= [01]|in \[0, 1\]), got {out_of_range}$"):
        call(out_of_range)


@pytest.mark.parametrize("label", [0.5, 1.0, True, np.True_, -1, 2],
                         ids=["0.5", "1.0", "True", "np.True_", "-1", "2"])
def test_cross_entropy_names_a_bad_true_label(label):
    # a fractional label once ended in numpy's IndexError, and a bool in a TypeError
    with pytest.raises(ValueError, match="true_label"):
        cross_entropy(label, [0.5, 0.5])
