"""Spans around the public functions of the otfslink layer modules.

:class:`Tracer` wraps every public function defined in one of
``LAYER_MODULES`` and records one span per call: name, parent span, start
and end. A function is patched on its defining module and on every other
``otfslink`` module that bound it by name (``from .precoding import
decompose``), because the sweep calls those bindings. Spans stay in memory
until :meth:`Tracer.dump`. A few counters are read from the wrapped
functions' return values (see ``OBSERVERS``).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

PACKAGE = "otfslink"
LAYER_MODULES = ("channel", "precoding", "dd_transforms", "modem", "allocation", "link_sim", "cli")


def _h_mib(counters, h):
    counters["channel.h_mib"] += h.nbytes / 2**20


def _rank(counters, dec):
    counters["precoding.rank_min"] = min(counters.get("precoding.rank_min", dec.rank), dec.rank)


def _cond(counters, gains):
    # sub_channel_gains returns the leading k = n_rf*MN singular values, descending.
    ratio = float(gains[-1] / gains[0])
    counters["precoding.cond_min"] = min(counters.get("precoding.cond_min", ratio), ratio)


def _erasures(counters, result):
    # equalize returns (equalized symbols, boolean erasure mask)
    counters["modem.erasures"] += int(result[1].sum())


OBSERVERS = {
    "channel.build_time_channel": _h_mib,
    "precoding.decompose": _rank,
    "precoding.sub_channel_gains": _cond,
    "modem.equalize": _erasures,
}


def self_times(parents, starts, ends) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for i, p in enumerate(parents):
        if p >= 0:
            children[p].append(i)
    out = [e - s for s, e in zip(starts, ends)]
    for p, kids in children.items():
        lo_p, hi_p = starts[p], ends[p]
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted((max(starts[k], lo_p), min(ends[k], hi_p)) for k in kids):
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[p] -= covered
    return out


class Tracer:
    """Records spans and counters while installed; restores the modules on uninstall."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.counters: dict = defaultdict(float)
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def wrap(self, name: str, fn):
        observe = OBSERVERS.get(name)
        names, parents, starts, ends, stack = self.names, self.parents, self.starts, self.ends, self._stack
        clock, counters = time.perf_counter, self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if observe is not None:
                observe(counters, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap the layer modules' public functions wherever otfslink binds them."""
        wrappers = {}
        for layer in LAYER_MODULES:
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                    wrappers[id(obj)] = (obj, self.wrap(f"{layer}.{attr}", obj))
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        while self._patched:
            mod, attr, obj = self._patched.pop()
            setattr(mod, attr, obj)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def summary(self) -> dict:
        """Per span name: ``calls``, ``self_s`` and ``total_s`` (inclusive)."""
        selfs = self_times(self.parents, self.starts, self.ends)
        out = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        for name, s, e, own in zip(self.names, self.starts, self.ends, selfs):
            entry = out[name]
            entry["calls"] += 1
            entry["self_s"] += own
            entry["total_s"] += e - s
        return dict(out)

    def durations(self, name: str) -> list[float]:
        """Inclusive durations of the spans named ``name``, in call order."""
        return [e - s for n, s, e in zip(self.names, self.starts, self.ends) if n == name]

    def dump(self, path) -> None:
        """Write every span as ``[name, parent, start, end]`` plus the counters."""
        doc = {
            "spans": [list(t) for t in zip(self.names, self.parents, self.starts, self.ends)],
            "counters": dict(self.counters),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
