"""Per-layer tracing from outside the package.

The tracer rebinds each public function of the package modules in every
``cdde_bound`` module that holds a reference to it (``stability.inverse``,
``envelope.inverse``, ``simulator.lu_solve``, ``cli.compute_certificate``,
...), so calls between modules pass through a wrapper that records a span
``[name, start, end, parent, operation id]``.  Spans stay in memory until
the run ends.  Removing the tracer restores every original binding, so
untraced rounds run the unmodified code.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "model", "stability", "envelope", "linalg", "certificate", "simulator")
# Private or method targets traced in addition to the public functions:
# (module, owner class or None, attribute, span name).
EXTRA = [
    ("cli", None, "_write_staircase_csv", "cli._write_staircase_csv"),
    ("model", "SystemSpec", "__post_init__", "model.SystemSpec"),
]
# Counted, not timed: called per history lookup and per bisection step.
COUNTED = [("simulator", "SignalSpec", "__call__", "simulator.SignalSpec.__call__")]
CSV_WRITERS = ("simulator.write_trajectory_csv", "cli._write_staircase_csv")


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _alpha_max_hook(tr, args, kwargs, out):
    step = _arg(args, kwargs, 1, "step")
    tr.values["alpha_grid_points"] += max(1, int(round(out / step)))


def _simulate_hook(tr, args, kwargs, out):
    tr.values["steps"] += out.times.shape[0] - 1


def _csv_hook(pos, name):
    def hook(tr, args, kwargs, out):
        tr.values["csv_bytes"] += os.path.getsize(_arg(args, kwargs, pos, name))
    return hook


HOOKS = {
    "stability.alpha_max": _alpha_max_hook,
    "simulator.simulate": _simulate_hook,
    "simulator.write_trajectory_csv": _csv_hook(1, "path"),
    "cli._write_staircase_csv": _csv_hook(0, "path"),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.values: dict[str, float] = defaultdict(float)
        self.op = -1
        self.installed: set[str] = set()
        self.absent: list[str] = []
        self._patches: list[tuple[object, str, object]] = []

    def _span_wrapper(self, name, fn):
        idx = self._index.setdefault(name, len(self.names))
        if idx == len(self.names):
            self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [idx, clock(), 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if hook is not None:
                hook(self, args, kwargs, out)
            return out
        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _targets(self):
        """(owner, attribute, original, span name, counted) for every target."""
        out = []
        for layer in LAYERS:
            try:
                mod = importlib.import_module(f"cdde_bound.{layer}")
            except ImportError:
                self.absent.append(f"cdde_bound.{layer}")
                continue
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    out.append((mod, attr, obj, f"{layer}.{attr}", False))
        for extra, counted in ((EXTRA, False), (COUNTED, True)):
            for layer, cls, attr, name in extra:
                owner = sys.modules.get(f"cdde_bound.{layer}")
                if owner is not None and cls is not None:
                    owner = getattr(owner, cls, None)
                fn = getattr(owner, attr, None) if owner is not None else None
                if fn is None or (cls is not None and attr not in vars(owner)):
                    self.absent.append(name)
                    continue
                out.append((owner, attr, fn, name, counted))
        return out

    def install(self) -> None:
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "cdde_bound" or k.startswith("cdde_bound."))]
        self.absent = []
        for owner, attr, fn, name, counted in self._targets():
            wrapper = (self._count_wrapper if counted else self._span_wrapper)(name, fn)
            self.installed.add(name)
            if inspect.isclass(owner):
                self._patches.append((owner, attr, fn))
                setattr(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        self._patches.append((mod, key, fn))
                        setattr(mod, key, wrapper)

    def remove(self) -> None:
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches.clear()

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds."""
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[3] >= 0:
                child[rec[3]] += rec[2] - rec[1]
        out = {}
        for i, (idx, start, end, _, _) in enumerate(self.spans):
            rec = out.setdefault(self.names[idx], {"calls": 0, "s": 0.0, "self_s": 0.0})
            rec["calls"] += 1
            rec["s"] += end - start
            rec["self_s"] += end - start - child[i]
        return out

    def count_under(self, name: str, ancestor: str) -> int:
        """Spans called ``name`` with a span called ``ancestor`` above them."""
        names, spans = self.names, self.spans
        total = 0
        for rec in spans:
            if names[rec[0]] != name:
                continue
            p = rec[3]
            while p >= 0 and names[spans[p][0]] != ancestor:
                p = spans[p][3]
            total += p >= 0
        return total

    def dump(self) -> dict:
        return {"names": self.names, "fields": ["name", "start", "end", "parent", "op"],
                "spans": self.spans, "counts": dict(self.counts), "absent": self.absent}
