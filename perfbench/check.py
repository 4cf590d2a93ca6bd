"""Output check: one sweep CSV against the recorded reference of its workload.

The reference CSVs under ``reference/`` were written by this benchmark at
the commit that defined it, one file per workload with a leading ``seed``
column. A row passes when

* its grid columns match the config and every number is finite and in range;
* the columns that do not depend on the singular-vector phases of the
  decomposition (grid columns, ``gamma_max``, ``gamma_min``, ``kappa_exact``,
  ``kappa_soft``) match the reference within ``REL_TOL`` relative;
* the noise columns (``ser``, ``mse``, ``weighted_mse``) stay within
  ``MC_SIGMAS`` Monte-Carlo standard deviations of the reference, using
  the per-row standard deviations recorded with it (``SD_COLUMNS``).

A decomposition with other singular-vector phases sees the same gains but
another noise realization, so only the noise columns may move, and only by
sampling error. For a seed with no reference rows only the first check runs.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

import workloads

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

COLUMNS = (
    "snr_db",
    "n_tx",
    "n_rx",
    "n_rf",
    "mode",
    "trials",
    "ser",
    "mse",
    "weighted_mse",
    "kappa_exact",
    "kappa_soft",
    "gamma_max",
    "gamma_min",
)
INT_COLUMNS = ("n_tx", "n_rx", "n_rf", "trials")
FLOAT_COLUMNS = tuple(c for c in COLUMNS if c not in INT_COLUMNS and c != "mode")
EXACT_COLUMNS = ("snr_db", "n_tx", "n_rx", "n_rf", "mode", "trials",
                 "gamma_max", "gamma_min", "kappa_exact", "kappa_soft")
NOISE_COLUMNS = ("ser", "mse", "weighted_mse")
SD_COLUMNS = tuple(f"{c}_sd" for c in NOISE_COLUMNS)

REL_TOL = 1e-9
MC_SIGMAS = 6.0
# Symbol errors allowed on top of the ser bound, where the error count is
# too small for its Gaussian approximation (rows at high SNR).
SER_SLACK_ERRORS = 3


@dataclass
class Verdict:
    """Links a sweep attempted, how many of them failed, and why."""

    links: int
    failed: int = 0
    problems: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.failed == 0 and not self.problems


def _parse_row(raw: dict) -> dict:
    row = {"mode": raw["mode"]}
    for c in INT_COLUMNS:
        row[c] = int(raw[c])
    for c in FLOAT_COLUMNS:
        row[c] = float(raw[c])
    return row


def read_sweep_csv(path) -> list[dict]:
    """Rows of an otfslink sweep CSV; raises ValueError on a malformed file."""
    with open(path, encoding="utf-8", newline="") as fh:
        first = fh.readline()
        if not first.startswith("# otfslink"):
            raise ValueError(f"first line is not the otfslink version comment: {first!r}")
        reader = csv.DictReader(fh)
        if tuple(reader.fieldnames or ()) != COLUMNS:
            raise ValueError(f"header {reader.fieldnames} != {list(COLUMNS)}")
        return [_parse_row(raw) for raw in reader]


def load_reference(workload: str, seed: int) -> list[dict] | None:
    """Reference rows of ``workload`` at ``seed``, or None if none were recorded."""
    path = REFERENCE_DIR / f"{workload}.csv"
    if not path.exists():
        return None
    with open(path, encoding="utf-8", newline="") as fh:
        rows = [dict(_parse_row(raw), **{c: float(raw[c]) for c in SD_COLUMNS})
                for raw in csv.DictReader(fh) if int(raw["seed"]) == seed]
    return rows or None


def noise_tolerance(column: str, ref: dict, cfg: dict) -> float:
    """Largest accepted |value - reference| of a noise column, in its own unit.

    Two independent noise realizations differ by sqrt(2) of the standard
    deviation ``ref[column + "_sd"]`` of one.
    """
    tol = MC_SIGMAS * math.sqrt(2.0) * ref[f"{column}_sd"]
    if column == "ser":
        tol += SER_SLACK_ERRORS / workloads.symbols_per_row(cfg)
    return tol


def check_row(row: dict, point: tuple, cfg: dict, ref: dict | None) -> list[str]:
    """Problems found in one CSV row; empty when it passes."""
    snr_db, n_tx, n_rx = point
    want = {"snr_db": snr_db, "n_tx": n_tx, "n_rx": n_rx, "n_rf": cfg["n_rf"],
            "mode": cfg["allocation_mode"], "trials": cfg["trials"]}
    problems = [f"{c}={row[c]!r}, config says {v!r}" for c, v in want.items() if row[c] != v]
    problems += [f"{c} is not finite" for c in FLOAT_COLUMNS if not math.isfinite(row[c])]
    if problems:
        return problems
    if not 0.0 <= row["ser"] <= 1.0:
        problems.append(f"ser={row['ser']} outside [0, 1]")
    if row["mse"] < 0 or row["weighted_mse"] < 0:
        problems.append("negative mse")
    if not -1.0 <= row["kappa_exact"] <= 1.0:
        problems.append(f"kappa_exact={row['kappa_exact']} outside [-1, 1]")
    if not 0.0 <= row["kappa_soft"] <= 1.0:
        problems.append(f"kappa_soft={row['kappa_soft']} outside [0, 1]")
    if not row["gamma_max"] >= row["gamma_min"] > 0:
        problems.append("gains not ordered gamma_max >= gamma_min > 0")
    if ref is None:
        return problems
    for c in EXACT_COLUMNS:
        a, b = row[c], ref[c]
        same = a == b if isinstance(a, (str, int)) else math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-12)
        if not same:
            problems.append(f"{c}={a!r}, reference {b!r}")
    for c in NOISE_COLUMNS:
        tol = noise_tolerance(c, ref, cfg)
        if abs(row[c] - ref[c]) > tol:
            problems.append(f"{c}={row[c]!r}, reference {ref[c]!r}, Monte-Carlo bound {tol:.3g}")
    return problems


def check_sweep(rows: list[dict] | None, cfg: dict, reference: list[dict] | None) -> Verdict:
    """Check the rows of one sweep (None: the sweep wrote no CSV).

    A row that fails counts its ``trials`` links as failed; a missing row
    likewise. Rows beyond the config's grid fail the whole sweep.
    """
    points = workloads.grid(cfg)
    verdict = Verdict(links=workloads.links_per_sweep(cfg))
    if rows is None:
        verdict.failed = verdict.links
        verdict.problems.append("no output")
        return verdict
    if reference is not None and len(reference) != len(points):
        raise ValueError(f"reference has {len(reference)} rows, config grid has {len(points)}")
    if len(rows) > len(points):
        verdict.failed = verdict.links
        verdict.problems.append(f"{len(rows)} rows, config grid has {len(points)}")
        return verdict
    for i, point in enumerate(points):
        if i >= len(rows):
            problems = ["missing"]
        else:
            problems = check_row(rows[i], point, cfg, reference[i] if reference else None)
        if problems:
            verdict.failed += cfg["trials"]
            verdict.problems += [f"row {i}: {p}" for p in problems]
    return verdict
