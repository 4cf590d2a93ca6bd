"""The integer and number rules, as numeric config and channel fields and integer and number arguments apply them."""

import dataclasses
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from otfslink.allocation import allocate, exact_kendall_tau, gaussian_bin_entropy, soft_kendall
from otfslink.channel import (
    DdMimoChannel, PathParams, apply_channel, build_time_channel, phase_rotation_matrix, ula_response,
)
from otfslink.cli import ExperimentConfig
from otfslink.dd_transforms import otfs_demodulate, otfs_modulate, unstack_chains
from otfslink.link_sim import (
    SimConfig, run_link, run_sweep, sample_importance, sample_payload, snr_points, snr_to_noise_var,
)
from otfslink.losses import LossWeights, cross_entropy, l1_loss, l2_loss, rate_term
from otfslink.modem import demodulate_hard, equalize, square_qam_ser
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


PATH = PathParams(1.0 + 0j, 1, -1, 0.5, 1.0)


def _channel(name):
    return lambda value: DdMimoChannel((PATH,), **{**SIZES, name: value}), lambda chan: getattr(chan, name)


def _weights(name):
    return lambda value: LossWeights(**{name: value}), lambda weights: getattr(weights, name)


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
    ("LossWeights.lambda_mse", _weights("lambda_mse"), 20.0, float),
    ("LossWeights.lambda_em", _weights("lambda_em"), 3.0, float),
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


def _same_parts(got, expected):
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert a.dtype == b.dtype and np.array_equal(a, b)


@pytest.mark.parametrize("argument, call, value, out_of_range", ARGUMENTS, ids=[a[0] for a in ARGUMENTS])
def test_integer_arguments_follow_the_integer_rule_by_name(argument, call, value, out_of_range):
    name = argument.split(".")[1]
    expected = _parts(call(value))
    for numpy_type in (np.int64, np.int32):
        _same_parts(_parts(call(numpy_type(value))), expected)
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


def _path(name):
    """A call that builds a one-path channel with the path's ``name`` set to its argument, and its delay taps."""
    return lambda value: build_time_channel(DdMimoChannel((replace(PATH, **{name: value}),), **SIZES))


# (id: function.argument, call of the argument's value, a valid value, an out-of-range value, the range as
# an error gives it); every valid value is integral and exact in float32, so each numpy type carries it exactly
NUMBERS = [
    ("snr_to_noise_var.snr_db", snr_to_noise_var, 3.0, -101.0, "in [-100, inf]"),
    ("apply_channel.noise_var", lambda v: apply_channel(np.ones((1, 2, 1, 1)), np.ones(2, complex), v, 0),
     2.0, -1.0, "in [0, inf)"),
    ("ula_response.angle", lambda v: ula_response(v, 3), 1.0, math.inf, "finite"),
    ("phase_rotation_matrix.power", lambda v: phase_rotation_matrix(3, v), 2.0, -math.inf, "finite"),
    *[(f"DdMimoChannel.path 0: {name}", _path(name), 2.0, math.inf, "finite") for name in ("gain", "aod", "aoa")],
    ("soft_kendall.sharpness", lambda v: soft_kendall([1.0, 2.0, 3.0], [3.0, 1.0, 2.0], v), 2.0, 0, "in (0, inf)"),
    ("l1_loss.rate_y", lambda v: l1_loss(v, 1.0, 0.5), 2.0, math.inf, "finite"),
    ("l1_loss.rate_z", lambda v: l1_loss(1.0, v, 0.5), 2.0, -math.inf, "finite"),
    ("l1_loss.mse", lambda v: l1_loss(1.0, 0.5, v), 2.0, -1.0, "in [0, inf)"),
    ("l2_loss.ce", lambda v: l2_loss(v, 0.5, 0.25), 2.0, math.inf, "finite"),
    ("l2_loss.mse", lambda v: l2_loss(1.0, v, 0.25), 2.0, -1.0, "in [0, inf)"),
    ("l2_loss.kappa", lambda v: l2_loss(1.0, 0.5, v), 2.0, -math.inf, "finite"),
    ("square_qam_ser.snr_linear", square_qam_ser, 3.0, -1.0, "in [0, inf]"),
]


@pytest.mark.parametrize("argument, call, value, out_of_range, rule", NUMBERS, ids=[a[0] for a in NUMBERS])
def test_number_arguments_take_numpy_numbers_as_their_values(argument, call, value, out_of_range, rule):
    expected = _parts(call(value))
    for numpy_type in (np.float32, np.float64, np.int64):
        _same_parts(_parts(call(numpy_type(value))), expected)


@pytest.mark.parametrize("argument, call, value, out_of_range, rule", NUMBERS, ids=[a[0] for a in NUMBERS])
def test_number_arguments_refuse_bools_strings_nan_and_out_of_range_values_by_name(
    argument, call, value, out_of_range, rule
):
    name = re.escape(argument.split(".", 1)[1])
    for bad in (True, np.True_, str(value)):
        with pytest.raises(ValueError, match=rf"^{name} must (be a number|hold numbers), got "):
            call(bad)
    for bad in (math.nan, out_of_range):
        with pytest.raises(ValueError, match=rf"^{name} must be {re.escape(rule)}, got \(?{re.escape(str(bad))}"):
            call(bad)


# (id: function.argument, call of the argument's array, a valid array)
ARRAYS = [
    *[(f"gaussian_bin_entropy.{name}",
       lambda v, name=name: gaussian_bin_entropy(**{"mu": [0.0, 1.0], "sigma": [1.0, 2.0], "y_hat": [0.0, 2.0],
                                                    name: v}),
       np.array([1.0, 2.0])) for name in ("mu", "sigma", "y_hat")],
    *[(f"{function.__name__}.{name}",
       lambda v, function=function, name=name: function(**{"w": [1.0, 2.0, 3.0], "g": [3.0, 1.0, 2.0], name: v}),
       np.array([2.0, 3.0, 1.0])) for function in (allocate, exact_kendall_tau, soft_kendall) for name in "wg"],
    ("rate_term.probs", rate_term, np.array([0.5, 0.25])),
    ("cross_entropy.predicted", lambda v: cross_entropy(0, v), np.array([0.25, 0.75])),
    ("equalize.x_hat", lambda v: equalize(v, [1.0, 2.0]), np.array([1.0 + 1j, 2.0])),
    ("equalize.gains", lambda v: equalize([1.0 + 1j, 2.0], v), np.array([1.0, 2.0])),
    ("demodulate_hard.received", demodulate_hard, np.array([0.1 + 0.2j, -0.3])),
    ("square_qam_ser.snr_linear", square_qam_ser, np.array([1.0, 4.0])),
    ("otfs_modulate.grid", otfs_modulate, np.arange(6.0).reshape(2, 3) + 1j),
    ("DenseCore.h", lambda v: DenseCore(v).h, np.arange(4.0).reshape(2, 2)),
    ("run_link.importance", lambda v: run_link(SMALL, np.zeros(SMALL.payload_len, int), v),
     np.arange(1.0, SMALL.payload_len + 1.0)),
]


@pytest.mark.parametrize("argument, call, valid", ARRAYS, ids=[a[0] for a in ARRAYS])
def test_number_array_arguments_refuse_a_nan_entry_and_arrays_of_non_numbers_by_name(argument, call, valid):
    name = argument.split(".")[1]
    call(valid)
    bad = valid.copy()
    bad.flat[-1] = np.nan
    where = ", ".join(str(i) for i in np.unravel_index(valid.size - 1, valid.shape))
    with pytest.raises(ValueError, match=rf"^{name} must be .*, got {name}\[{where}\] = \(?nan"):
        call(bad)
    for refused in (valid.astype(str), valid != 0):
        with pytest.raises(ValueError, match=rf"^{name} must hold numbers, got dtype "):
            call(refused)


# (id, a call of finite arguments whose arithmetic leaves the float range, what it returns or
# the names its error gives)
OVERFLOWS = [
    ("exact_kendall_tau", lambda: exact_kendall_tau([1.0, 2.0], [1e308, -1e308]), -1.0),
    ("soft_kendall", lambda: soft_kendall([1.0, 2.0, 3.0], [3.0, 1e300, 2.0], 1e308),
     ("sharpness", "span(w)", "span(g)")),
    ("equalize", lambda: equalize([1e308 + 0j], [1e-5]), ("x_hat[0]", "gains")),
    ("l1_loss", lambda: l1_loss(1e308, 1e308, 0.0), ("rate_y", "rate_z", "mse")),
    ("l2_loss", lambda: l2_loss(1.0, 1e308, 0.0, LossWeights(1e308, 0.5)), ("ce", "mse", "kappa", "lambda_mse")),
]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("call, outcome", [case[1:] for case in OVERFLOWS], ids=[case[0] for case in OVERFLOWS])
def test_finite_arguments_give_a_finite_value_or_an_error_naming_them(call, outcome):
    if isinstance(outcome, float):  # the signs come from comparisons, which cannot overflow
        assert call() == outcome
        return
    with pytest.raises(ValueError, match="overflows the float range") as error:
        call()
    for name in outcome:
        assert f"{name} = " in str(error.value)
