#!/usr/bin/env python3
"""otfslink benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload snr_default [--seed 0] [--seconds 16] [--trace 0|1]

Run from anywhere inside a source checkout; the program is imported from
the checkout's ``src/``. With ``--trace 0`` the end-to-end metrics of
BENCHMARK.json are printed, with ``--trace 1`` its per-layer metrics. The
last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. Scratch files go to
``.bench_out/`` at the checkout root. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"

SETUP_SAMPLES = 15
# Every process this run starts is killed after this many seconds in total.
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    pass


def _run(cmd: list, env: dict, deadline: float) -> str:
    """Run ``cmd`` to completion and return its stdout; raise BenchError on failure."""
    try:
        proc = subprocess.run(
            [str(c) for c in cmd], env=env, cwd=ROOT, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{Path(cmd[1]).name} did not finish in time") from exc
    if proc.returncode != 0:
        raise BenchError(f"{Path(cmd[1]).name} exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    return proc.stdout


def _last_line(text: str) -> str:
    lines = text.strip().splitlines()
    if not lines:
        raise BenchError("no output")
    return lines[-1]


def measure(args, env: dict, deadline: float) -> tuple[list[float], dict]:
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    config_path = f"{stem}.config.json"
    workloads.write_config(workloads.make_config(args.workload, args.seed), config_path)
    setup = []
    if args.trace == 0:
        for _ in range(SETUP_SAMPLES):
            out = _run([sys.executable, HERE / "setup_probe.py", config_path], env, deadline)
            setup.append(float(_last_line(out)))
    out = _run(
        [sys.executable, HERE / "worker.py", "--workload", args.workload, "--config", config_path,
         "--seconds", args.seconds, "--trace", args.trace, "--out", stem],
        env, deadline,
    )
    return setup, json.loads(_last_line(out))


def report(args, spec: dict, setup: list[float], res: dict) -> dict:
    """Print the human-readable summary; return the metrics object."""
    sweeps = res["sweeps"]
    attempted = sum(s["links"] for s in sweeps)
    failed = sum(s["failed"] for s in sweeps)
    env = res["env"]
    print(f"otfslink benchmark: workload={args.workload} seed={args.seed} trace={args.trace}")
    print(f"environment: python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
          f"{env['blas']}, nproc {env['nproc']}, BLAS threads {env['blas_threads']}")
    if args.trace == 0:
        timed = [s["wall_s"] for s in sweeps if s["kind"] == "timed"]
        values = {
            "setup_s": statistics.median(setup),
            "sweep_s": statistics.median(timed),
            "peak_rss_mib": res["peak_rss_mib"],
        }
        notes = {
            "setup_s": f"median of {len(setup)} fresh processes: " + " ".join(f"{x:.3f}" for x in setup),
            "sweep_s": f"median of {len(timed)} warm sweeps of {sweeps[0]['links']} links each",
            "peak_rss_mib": "ru_maxrss of the workload process",
        }
        wanted = spec["end_to_end"]
    else:
        layers = res["layers"]
        missing = [m["name"] for m in spec["per_layer"] if m["name"] not in layers]
        if missing:
            raise BenchError(f"the traced sweep did not produce {', '.join(missing)}")
        values = {m["name"]: layers[m["name"]] for m in spec["per_layer"]}
        notes = {}
        wanted = spec["per_layer"]
        traced = res["traced_sweep_s"]

        def share(pred) -> str:
            return f"{sum(v for k, v in layers.items() if k.endswith('.self_s') and pred(k)) / traced:.1%}"

        print(f"traced sweep {traced:.3f} s, traced / untraced sweep time "
              f"{layers['trace.overhead_ratio']:.3f}, erasures {layers['modem.erasures']:.0f}")
        print("self time as a share of the traced sweep: "
              f"precoding.decompose {share(lambda k: k == 'precoding.decompose.self_s')}, "
              f"channel.build_time_channel + precoding.* "
              f"{share(lambda k: k.startswith(('precoding.', 'channel.build_time_channel.')))}, "
              f"Kendall {share(lambda k: 'kendall' in k)}")
    metrics = {}
    for m in wanted:
        value = values[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        note = notes.get(m["name"], "")
        print(f"  {m['name']:<40} {value:>14.6g} {m['unit']:<6} {note}")
    print(f"fail_frac {failed}/{attempted} links = {failed / attempted:.4g} "
          f"over {len(sweeps)} sweeps (grid points x trials per sweep, warm-up included)")
    problems = [p for s in sweeps for p in s["problems"]]
    basis = (f"reference rows for seed {args.seed}" if res["reference"]
             else f"no reference rows for seed {args.seed}: range and grid checks only")
    print(f"output check: {'PASS' if not problems and not failed else 'FAIL'} ({basis})")
    for p in problems[:20]:
        print(f"  {p}")
    return {"correct": failed == 0 and not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one otfslink benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0, help="workload seed (>= 0), default 0")
    parser.add_argument("--seconds", type=int, default=16, help="seconds of timed sweeps")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics; 1: per-layer metrics from a traced sweep")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    if not (ROOT / "src" / "otfslink" / "__init__.py").is_file():
        print(f"run.py: no otfslink sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    # The BLAS thread count is fixed before any process imports numpy.
    env = dict(os.environ)
    nproc = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = nproc
    try:
        setup, res = measure(args, env, time.monotonic() + DEADLINE_S)
        result = report(args, spec, setup, res)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
