"""Run one workload in this fresh process and report what it measured.

Started by run.py with the BLAS thread count already set in the
environment. Every sweep goes through the user path
``otfslink.cli.main(["sweep", <config>, "--output", <csv>])`` and its CSV
is checked against the workload's reference. After one warm-up sweep:

* ``--trace 0``: untraced sweeps for ``--seconds`` seconds (at least
  ``MIN_TIMED_SWEEPS``), each timed on its own;
* ``--trace 1``: one untraced sweep, then one sweep with every layer
  function wrapped by :class:`layertrace.Tracer`.

The last line of stdout is one JSON object with the results.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

MIN_TIMED_SWEEPS = 2


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--config", required=True, help="generated experiment config (JSON)")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", required=True, help="path prefix for the CSV and trace files")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    from otfslink import cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"worker: otfslink imported from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    import numpy as np

    import check
    import layertrace

    with open(args.config, encoding="utf-8") as fh:
        cfg = json.load(fh)
    reference = check.load_reference(args.workload, cfg["seed"])
    csv_path = Path(args.out + ".csv")
    sweeps = []

    def sweep(kind: str) -> dict:
        csv_path.unlink(missing_ok=True)
        cpu0 = _cpu_s()
        t0 = time.perf_counter()
        try:
            rc = cli.main(["sweep", args.config, "--output", str(csv_path)])
        except Exception:
            traceback.print_exc()
            rc = None
        wall = time.perf_counter() - t0
        cpu = _cpu_s() - cpu0
        rows = None
        if rc == 0:
            try:
                rows = check.read_sweep_csv(csv_path)
            except (OSError, ValueError) as exc:
                print(f"worker: unreadable output: {exc}", file=sys.stderr)
        verdict = check.check_sweep(rows, cfg, reference)
        record = {"kind": kind, "wall_s": wall, "cpu_s": cpu, "exit_code": rc,
                  "links": verdict.links, "failed": verdict.failed, "problems": verdict.problems}
        sweeps.append(record)
        return record

    sweep("warmup")
    result = {"workload": args.workload, "seed": cfg["seed"], "env": environment(),
              "reference": reference is not None, "sweeps": sweeps}
    if args.trace == 0:
        start = time.perf_counter()
        while (sum(s["kind"] == "timed" for s in sweeps) < MIN_TIMED_SWEEPS
               or time.perf_counter() - start < args.seconds):
            sweep("timed")
    else:
        untraced = sweep("untraced")
        tracer = layertrace.Tracer()
        with tracer:
            traced = sweep("traced")
        tracer.dump(args.out + ".trace.json")
        layers = {}
        for name, entry in sorted(tracer.summary().items()):
            layers[f"{name}.self_s"] = entry["self_s"]
            layers[f"{name}.calls"] = entry["calls"]
        layers.update(tracer.counters)
        link_ms = [1e3 * d for d in tracer.durations("link_sim.run_link")]
        if link_ms:
            layers["link_sim.run_link.p50_ms"] = float(np.percentile(link_ms, 50))
            layers["link_sim.run_link.p90_ms"] = float(np.percentile(link_ms, 90))
        layers["proc.cpu_s"] = untraced["cpu_s"]
        layers["trace.overhead_ratio"] = traced["wall_s"] / untraced["wall_s"]
        result["layers"] = layers
        result["run_link_ms"] = link_ms
        result["traced_sweep_s"] = traced["wall_s"]
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.out + ".result.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
