"""Print the seconds from before ``import otfslink`` until ``parse_config`` returns.

Usage: ``python3 setup_probe.py <config.json>``. run.py starts this in a
fresh process for every set-up sample, so each sample pays the full import
of otfslink and its numpy/scipy dependencies.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

start = time.perf_counter()
from otfslink.cli import parse_config  # noqa: E402

parse_config(sys.argv[1])
print(time.perf_counter() - start)
