"""Command-line front end: config parsing, sweeps, CSV output, validation.

Subcommands:

* ``simulate <config>`` -- one grid point at the configured SNR.
* ``sweep <config>``    -- SNR sweep, antenna sweep, or single point,
  selected by the config's ``sweep`` field.
* ``validate``          -- run :data:`otfslink.validation.CHECKS`, the checks
  of the acceptance tests at the same tolerances.

Configs are strict JSON: unknown keys are rejected by name, and an invalid
config never starts a simulation. Output CSV is written atomically (a temp
file, created in the target directory before the first link, then a
rename) and begins with a versioned comment line; the rest is a
function of (config, seed), byte for byte at a fixed BLAS thread count
(README "Reproducibility"). ``OTFSLINK_LOG=debug|info|warning|error`` tunes
the stderr log; at info it has one progress line per link with an ETA.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys
import tempfile

from . import __version__
from .link_sim import (
    ALLOCATION_MODES,
    DEFAULT_ANTENNA_GRID,
    DEFAULT_SNR_GRID_DB,
    MAX_TRIALS,
    SimConfig,
    antenna_points,
    format_csv,
    run_sweep,
    snr_points,
)
from .precoding import PRECODER_MODES, RankDeficientChannelError
from .validation import run_validation_suite

LOG_ENV_VAR = "OTFSLINK_LOG"
SWEEP_KINDS = ("snr", "antennas", "single")

logger = logging.getLogger("otfslink")


class ConfigError(ValueError):
    """Invalid experiment configuration."""


@dataclasses.dataclass(frozen=True)
class ExperimentConfig:
    """A simulation config plus sweep grid, trial count, and output target."""

    sim: SimConfig
    sweep: str = "snr"
    snr_grid_db: tuple = DEFAULT_SNR_GRID_DB
    n_tx_grid: tuple = DEFAULT_ANTENNA_GRID
    trials: int = 1
    output: str | None = None
    # Recorded metadata only; the discrete-tap model does not consume them.
    carrier_freq_hz: float = 28.0e9
    subcarrier_spacing_hz: float = 120.0e3


_SIM_KEYS = {f.name for f in dataclasses.fields(SimConfig)}
_EXP_KEYS = {f.name for f in dataclasses.fields(ExperimentConfig)} - {"sim"}


def _require_number(name: str, value, integer: bool = False):
    ok_types = (int,) if integer else (int, float)
    if isinstance(value, bool) or not isinstance(value, ok_types):
        kind = "an integer" if integer else "a number"
        raise ConfigError(f"{name} must be {kind}, got {value!r}")
    return value


def _require_float(name: str, value) -> float:
    """``value`` as a float; JSON keeps integer literals exact, which may not fit one."""
    _require_number(name, value)
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(
            f"{name} must be within the float range, got an integer of {value.bit_length()} bits"
        ) from None


def _require_trials(value) -> int:
    _require_number("trials", value, integer=True)
    if not 1 <= value <= MAX_TRIALS:
        shown = value if value.bit_length() <= 64 else f"an integer of {value.bit_length()} bits"
        raise ConfigError(f"trials must be in [1, {MAX_TRIALS}], got {shown}")
    return value


def parse_config(path) -> ExperimentConfig:
    """Load and fully validate a JSON experiment config.

    Unknown keys are rejected with the offending key named; range errors
    name the field and its constraint. Nothing is executed on failure.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer literal of over 4300 digits
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top-level JSON value must be an object")

    unknown = sorted(set(doc) - _SIM_KEYS - _EXP_KEYS)
    if unknown:
        raise ConfigError(f"unknown config key: {unknown[0]!r}")

    sim_kwargs = {k: doc[k] for k in doc if k in _SIM_KEYS}
    try:
        sim = SimConfig(**sim_kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if sim.n_rf > sim.n_paths:
        # rank(H) <= n_paths*M*N, so n_rf*M*N streams can never fit
        raise ConfigError(f"n_rf must be <= n_paths = {sim.n_paths}, got {sim.n_rf}")

    sweep = doc.get("sweep", "snr")
    if sweep not in SWEEP_KINDS:
        raise ConfigError(f"sweep must be one of {SWEEP_KINDS}, got {sweep!r}")

    snr_grid = doc.get("snr_grid_db", list(DEFAULT_SNR_GRID_DB))
    if not isinstance(snr_grid, list) or not snr_grid:
        raise ConfigError("snr_grid_db must be a non-empty list of numbers")
    snr_grid = tuple(_require_float("snr_grid_db entry", v) for v in snr_grid)

    n_tx_grid = doc.get("n_tx_grid", list(DEFAULT_ANTENNA_GRID))
    if not isinstance(n_tx_grid, list) or not n_tx_grid:
        raise ConfigError("n_tx_grid must be a non-empty list of integers")
    n_tx_grid = tuple(_require_number("n_tx_grid entry", v, integer=True) for v in n_tx_grid)
    for name, points, grid in (
        ("snr_grid_db", snr_points, snr_grid),
        ("n_tx_grid", antenna_points, n_tx_grid),
    ):
        try:
            points(sim, grid)
        except ValueError as exc:
            raise ConfigError(f"{name} entry: {exc}") from exc

    trials = _require_trials(doc.get("trials", 1))

    output = doc.get("output")
    if output is not None and not isinstance(output, str):
        raise ConfigError(f"output must be a string path or null, got {output!r}")

    carrier = _require_float("carrier_freq_hz", doc.get("carrier_freq_hz", 28.0e9))
    scs = _require_float("subcarrier_spacing_hz", doc.get("subcarrier_spacing_hz", 120.0e3))

    return ExperimentConfig(
        sim=sim,
        sweep=sweep,
        snr_grid_db=snr_grid,
        n_tx_grid=n_tx_grid,
        trials=trials,
        output=output,
        carrier_freq_hz=carrier,
        subcarrier_spacing_hz=scs,
    )


def _apply_overrides(cfg: ExperimentConfig, args) -> ExperimentConfig:
    sim = cfg.sim
    sim_updates = {}
    if args.seed is not None:
        sim_updates["seed"] = args.seed
    if args.mode is not None:
        sim_updates["allocation_mode"] = args.mode
    if args.precoder is not None:
        sim_updates["precoder_mode"] = args.precoder
    if sim_updates:
        try:
            sim = dataclasses.replace(sim, **sim_updates)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    updates = {"sim": sim}
    if args.trials is not None:
        updates["trials"] = _require_trials(args.trials)
    if args.output is not None:
        updates["output"] = args.output
    return dataclasses.replace(cfg, **updates)


def _run_grid(cfg: ExperimentConfig):
    """One sweep row per grid point; the whole grid goes through one sweep loop."""
    if cfg.sweep == "single":
        points = snr_points(cfg.sim, [cfg.sim.snr_db])
    elif cfg.sweep == "snr":
        points = snr_points(cfg.sim, cfg.snr_grid_db)
    else:
        points = antenna_points(cfg.sim, cfg.n_tx_grid)
    return run_sweep(points, cfg.trials)


def emit_csv(rows, fh) -> None:
    fh.write(f"# otfslink {__version__}\n" + format_csv(rows))


def cmd_simulate(cfg: ExperimentConfig) -> int:
    return cmd_sweep(dataclasses.replace(cfg, sweep="single"))


def cmd_sweep(cfg: ExperimentConfig) -> int:
    """Run the grid; write its CSV to stdout, or to a temp file renamed onto ``cfg.output``.

    The temp file is created before the first link, so an unwritable target fails at once.
    """
    if cfg.output is None:
        emit_csv(_run_grid(cfg), sys.stdout)
        return 0
    try:
        fh = tempfile.NamedTemporaryFile("w", encoding="utf-8", prefix=".otfslink-", suffix=".csv",
                                         dir=os.path.dirname(os.path.abspath(cfg.output)), delete=False)
    except OSError as exc:
        logger.error("cannot write output %s: %s", cfg.output, exc)
        return 1
    try:
        with fh:
            rows = _run_grid(cfg)
            emit_csv(rows, fh)
        os.replace(fh.name, cfg.output)
    except BaseException as exc:
        os.unlink(fh.name)
        if not isinstance(exc, OSError):
            raise
        logger.error("cannot write output %s: %s", cfg.output, exc)
        return 1
    logger.info("wrote %d rows to %s", len(rows), cfg.output)
    return 0


def cmd_validate() -> int:
    results = run_validation_suite()
    failed = 0
    for res in results:
        print(f"{res.status:<12} {res.name}: {res.detail}")
        if not res.passed:
            failed += 1
    if failed:
        print(f"{failed} check(s) failed")
        return 1
    return 0


def _configure_logging() -> None:
    level_name = os.environ.get(LOG_ENV_VAR, "info").upper()
    level = getattr(logging, level_name, None)
    if not isinstance(level, int):
        level = logging.INFO
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(name)s: %(message)s"))
    logger.handlers[:] = [handler]
    logger.setLevel(level)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="otfslink",
        description="MIMO-OTFS link simulator with SVD sub-channel precoding "
        "and importance-matched sub-channel allocation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_run_flags(p):
        p.add_argument("config", help="path to a JSON experiment config")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--output", default=None, help="override the output CSV path")
        p.add_argument("--trials", type=int, default=None, help="override the trial count")
        p.add_argument("--mode", choices=ALLOCATION_MODES, default=None, help="allocation mode")
        p.add_argument("--precoder", choices=PRECODER_MODES, default=None, help="precoder mode")

    add_run_flags(sub.add_parser("simulate", help="run a single grid point"))
    add_run_flags(sub.add_parser("sweep", help="run the configured sweep"))
    sub.add_parser("validate", help="run the cross-module invariant suite")
    return parser


def main(argv=None) -> int:
    _configure_logging()
    args = build_parser().parse_args(argv)
    if args.command == "validate":
        return cmd_validate()
    try:
        cfg = _apply_overrides(parse_config(args.config), args)
        if args.command == "simulate":
            return cmd_simulate(cfg)
        return cmd_sweep(cfg)
    except ConfigError as exc:
        print(f"otfslink: config error: {exc}", file=sys.stderr)
        return 2
    except RankDeficientChannelError as exc:
        print(f"otfslink: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
