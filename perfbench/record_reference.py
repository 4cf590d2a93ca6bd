"""Record the reference CSV of each workload from the current sources.

    python3 perfbench/record_reference.py [workload ...]

For every workload (default: all) and every seed below ``REFERENCE_SEEDS``,
runs the workload's sweep through ``otfslink.cli.main`` and writes the CSV
rows, prefixed by a ``seed`` column and followed by the Monte-Carlo
standard deviation of each noise column (see :class:`NoiseModel`), to
``reference/<workload>.csv``. Rerun only at a commit whose output is
trusted: check.py compares every benchmark sweep against these files.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import check
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"

# check.py gives the full check to these seeds and range checks to the rest.
REFERENCE_SEEDS = 32


class NoiseModel:
    """Standard deviations of ``ser``, ``mse`` and ``weighted_mse`` per CSV row.

    After zero-forcing, sub-channel ``s`` of a frame carries its symbol plus
    circular Gaussian noise of variance ``a_s = noise_var / g_s**2``,
    independent across sub-channels and frames, so its squared error is
    exponential with mean and standard deviation ``a_s`` and it is
    misdetected with the closed-form 64-QAM probability at SNR
    ``g_s**2 / noise_var``. The semantic allocation ``pi`` puts payload
    element ``pi[s]`` (weight ``w[pi[s]]``) on sub-channel ``s``. While
    installed, this wraps ``allocation.allocate``, which sees the gains,
    the weights and ``pi`` of every frame, and keeps per frame what the
    variances need. None of it depends on the singular-vector phases.
    """

    def __init__(self):
        self.frames = []

    def __enter__(self):
        from otfslink import allocation

        self._allocation = allocation
        self._allocate = allocate = allocation.allocate

        def recording(w, g):
            pi = allocate(w, g)
            g = g.astype(float)
            w = w.astype(float)
            self.frames.append((g, float(((w[pi] / g**2) ** 2).sum()), float(w.sum())))
            return pi

        allocation.allocate = recording
        return self

    def __exit__(self, *exc):
        self._allocation.allocate = self._allocate

    def row_sds(self, cfg: dict) -> list[dict]:
        """``{"<column>_sd": ...}`` for each row of the sweep of ``cfg`` just run."""
        from otfslink import link_sim, modem

        if cfg["allocation_mode"] != "semantic":
            raise ValueError("the noise model reads the semantic allocation")
        points = workloads.grid(cfg)
        per_row = cfg["trials"] * cfg["n_frames"]
        if len(self.frames) != len(points) * per_row:
            raise ValueError(f"{len(self.frames)} allocations, expected {len(points) * per_row}")
        total = workloads.symbols_per_row(cfg) // cfg["trials"]  # symbols of one link
        out = []
        for i, (snr_db, _, _) in enumerate(points):
            nv = link_sim.snr_to_noise_var(snr_db)
            var = dict.fromkeys(check.NOISE_COLUMNS, 0.0)
            for t in range(cfg["trials"]):
                start = (i * cfg["trials"] + t) * cfg["n_frames"]
                frames = self.frames[start:start + cfg["n_frames"]]
                if min(g.min() for g, _, _ in frames) < modem.DEFAULT_MIN_GAIN:
                    raise ValueError("erased sub-channels are outside the noise model")
                p = [modem.square_qam_ser(g**2 / nv) for g, _, _ in frames]
                var["ser"] += sum(float((q * (1 - q)).sum()) for q in p) / total**2
                var["mse"] += nv**2 * sum(float((g**-4).sum()) for g, _, _ in frames) / total**2
                var["weighted_mse"] += (nv**2 * sum(f[1] for f in frames)
                                        / sum(f[2] for f in frames) ** 2)
            out.append({f"{c}_sd": math.sqrt(v) / cfg["trials"] for c, v in var.items()})
        return out


def sweep_with_sds(cfg: dict, workdir: Path) -> list[dict]:
    """Run the sweep of ``cfg`` through the CLI; its rows with the noise columns' sds."""
    from otfslink import cli

    config_path = workdir / "record.config.json"
    csv_path = workdir / "record.csv"
    workloads.write_config(cfg, config_path)
    with NoiseModel() as model:
        if cli.main(["sweep", str(config_path), "--output", str(csv_path)]) != 0:
            raise RuntimeError(f"sweep of {config_path} failed")
    rows = check.read_sweep_csv(csv_path)
    verdict = check.check_sweep(rows, cfg, None)
    if not verdict.ok:
        raise RuntimeError(f"sweep of {config_path}: {verdict.problems}")
    return [dict(row, **sds) for row, sds in zip(rows, model.row_sds(cfg))]


def record(workload: str) -> None:
    columns = ("seed",) + check.COLUMNS + check.SD_COLUMNS
    lines = [",".join(columns)]
    for seed in range(REFERENCE_SEEDS):
        rows = sweep_with_sds(workloads.make_config(workload, seed), OUT_DIR)
        for row in rows:
            row["seed"] = seed
            lines.append(",".join(row[c] if c == "mode" else repr(row[c]) for c in columns))
        print(f"{workload} seed {seed}: {len(rows)} rows", file=sys.stderr)
    check.REFERENCE_DIR.mkdir(exist_ok=True)
    (check.REFERENCE_DIR / f"{workload}.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")


def main() -> None:
    parser = argparse.ArgumentParser(description="Record reference CSVs for the benchmark workloads.")
    parser.add_argument("workloads", nargs="*", default=sorted(workloads.WORKLOADS))
    args = parser.parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    OUT_DIR.mkdir(exist_ok=True)
    for workload in args.workloads:
        record(workload)


if __name__ == "__main__":
    main()
