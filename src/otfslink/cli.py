"""Command-line front end: config parsing, sweeps, CSV output, validation.

Subcommands:

* ``simulate <config>`` -- one grid point at the configured SNR.
* ``sweep <config>``    -- SNR sweep, antenna sweep, or single point,
  selected by the config's ``sweep`` field.
* ``validate``          -- run :data:`otfslink.validation.CHECKS`, the checks
  of the acceptance tests at the same tolerances.

Configs are strict JSON: :func:`parse_config` reads and decodes the file,
rejects unknown keys by name and constructs the configs. Every rule on a
field belongs to :class:`~otfslink.link_sim.SimConfig` or
:class:`ExperimentConfig`, which check themselves, so the rules hold for
library callers and flag overrides alike, and an invalid config never
starts a simulation. Both read their integer and number fields through the
one pair of rules in :mod:`otfslink._fields`. Output CSV is written
atomically (a temp file, created in the target directory before the first
link, then a rename) and begins with a versioned comment line; the rest is
a function of (config, seed), byte for byte at a fixed BLAS thread count
(README "Reproducibility"). ``OTFSLINK_LOG=debug|info|warning|error`` tunes
the stderr log; at info it has one progress line per link with an ETA.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import math
import os
import sys
import tempfile

from . import __version__, _fields
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

LOG_ENV_VAR = "OTFSLINK_LOG"
LOG_LEVELS = {"debug": logging.DEBUG, "info": logging.INFO, "warning": logging.WARNING, "error": logging.ERROR}
SWEEP_KINDS = ("snr", "antennas", "single")

logger = logging.getLogger("otfslink")


class ConfigError(ValueError):
    """Invalid experiment configuration."""


@dataclasses.dataclass(frozen=True)
class ExperimentConfig:
    """A simulation config plus sweep grid, trial count, and output target.

    Construction, and so ``dataclasses.replace``, checks every field and
    raises :class:`ConfigError` naming the first bad one; each grid entry is
    judged by building its :class:`SimConfig` point. The grids are kept as
    tuples of their points' values, so as Python floats and ints.
    """

    sim: SimConfig
    sweep: str = "snr"
    snr_grid_db: tuple = DEFAULT_SNR_GRID_DB
    n_tx_grid: tuple = DEFAULT_ANTENNA_GRID
    trials: int = 1
    output: str | None = None
    # Recorded metadata only, each a finite positive frequency; the discrete-tap model does not consume them.
    carrier_freq_hz: float = 28.0e9
    subcarrier_spacing_hz: float = 120.0e3

    def __post_init__(self):
        def check(name, rule, *bounds):
            try:
                object.__setattr__(self, name, rule(name, getattr(self, name), *bounds))
            except ValueError as exc:
                raise ConfigError(str(exc)) from exc

        if self.sweep not in SWEEP_KINDS:
            raise ConfigError(f"sweep must be one of {SWEEP_KINDS}, got {self.sweep!r}")
        for name, points, field in (("snr_grid_db", snr_points, "snr_db"), ("n_tx_grid", antenna_points, "n_tx")):
            grid = getattr(self, name)
            if not isinstance(grid, (list, tuple)) or not grid:
                raise ConfigError(f"{name} must be a non-empty list, got {grid!r}")
            try:
                grid = tuple(getattr(point, field) for point in points(self.sim, grid))
            except ValueError as exc:
                raise ConfigError(f"{name} entry: {exc}") from exc
            object.__setattr__(self, name, grid)
        check("trials", _fields.integer, 1, MAX_TRIALS)
        if self.output is not None and (not isinstance(self.output, str) or not self.output):
            raise ConfigError(f"output must be a non-empty string path or null, got {self.output!r}")
        for name in ("carrier_freq_hz", "subcarrier_spacing_hz"):
            check(name, _fields.number, 0, math.inf, "()")


_SIM_KEYS = {f.name for f in dataclasses.fields(SimConfig)}
_EXP_KEYS = {f.name for f in dataclasses.fields(ExperimentConfig)} - {"sim"}


def parse_config(path) -> ExperimentConfig:
    """Load a JSON experiment config; every range rule is the config classes' own.

    Unknown keys are rejected with the offending key named; a bad value
    fails in :class:`SimConfig` or :class:`ExperimentConfig`, naming its
    field. Nothing is executed on failure.
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
    try:
        sim = SimConfig(**{k: v for k, v in doc.items() if k in _SIM_KEYS})
        return ExperimentConfig(sim, **{k: v for k, v in doc.items() if k in _EXP_KEYS})
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _apply_overrides(cfg: ExperimentConfig, args) -> ExperimentConfig:
    sim_flags = {"seed": args.seed, "allocation_mode": args.mode, "precoder_mode": args.precoder}
    exp_flags = {"trials": args.trials, "output": args.output}
    try:
        sim = dataclasses.replace(cfg.sim, **{k: v for k, v in sim_flags.items() if v is not None})
        return dataclasses.replace(cfg, sim=sim, **{k: v for k, v in exp_flags.items() if v is not None})
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


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

    The temp file is created before the first link, so an unwritable target, or one
    that is a directory, fails at once.
    """
    if cfg.output is None:
        emit_csv(_run_grid(cfg), sys.stdout)
        return 0
    if os.path.isdir(cfg.output):
        logger.error("cannot write output %s: it is a directory", cfg.output)
        return 1
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
    # imported here: the invariant suite and its dense oracles serve only this command
    from .validation import run_validation_suite

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
    value = os.environ.get(LOG_ENV_VAR, "")
    level = LOG_LEVELS.get(value.lower() or "info")
    if level is None:
        print(f"otfslink: unknown {LOG_ENV_VAR}={value!r}, using info", file=sys.stderr)
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
