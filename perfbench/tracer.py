"""Span tracer installed around kenmotsu3's layers from outside the package.

:class:`Tracer` wraps every public function of each ``kenmotsu3`` module,
plus the three hot methods ``Expr.__call__``, ``ArrayField.__call__`` and
``Trajectory.dense``. The modules bind each other's names with
``from .x import y``, so a wrapper replaces the original at every import
site: each loaded ``kenmotsu3`` module's attribute that is the original.

While recording, a wrapper appends one span ``(name, start, end, parent)``
to an in-memory list and adds to the work counters; otherwise it only calls
through. A layer's self time is its spans' time minus their child spans.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("exprs", "fields", "geometry", "structure", "models", "ode",
          "identities", "cli")


def _points(args, kwargs, result) -> int:
    pts = args[1] if len(args) > 1 else kwargs["pts"]
    return len(pts) if np.ndim(pts) == 2 else 1


def _dense_rows(args, kwargs, result) -> int:
    return len(result)


def _rk4_steps(args, kwargs, result) -> int:
    return len(result.times) - 1


def _csv_rows(args, kwargs, result) -> int:
    traj = args[0] if args else kwargs["traj"]
    return len(traj.times)


def _applicable(args, kwargs, result) -> int:
    return result.verdict != "not-applicable"


# counter name and increment per call, for spans that count work
COUNTERS = {
    "fields.ArrayField.__call__": ("fields.point_evals", _points),
    "ode.Trajectory.dense": ("ode.dense_rows", _dense_rows),
    "ode.integrate": ("ode.rk4_steps", _rk4_steps),
    "ode.trajectory_to_csv": ("ode.csv_rows", _csv_rows),
    "identities.check_identity": ("identities.checks", _applicable),
}
METHODS = (("exprs", "Expr", "__call__"), ("fields", "ArrayField", "__call__"),
           ("ode", "Trajectory", "dense"))


def _identity_name(args, kwargs) -> str:
    ident = args[1] if len(args) > 1 else kwargs["identity"]
    return f"identities.{ident}"


class Tracer:
    """Records spans and counts while ``recording`` is true."""

    def __init__(self):
        self.recording = False
        self.spans: list[tuple[str, float, float, int]] = []
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans, self.calls, self.counts = [], Counter(), Counter()

    def _wrap(self, fn, name: str):
        tracer = self
        counter = COUNTERS.get(name)
        label = _identity_name if name == "identities.check_identity" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            span = label(args, kwargs) if label else name
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append((span, 0.0, 0.0, parent))
            tracer._stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[idx] = (span, start, end, parent)
            tracer.calls[name] += 1
            if counter:
                tracer.counts[counter[0]] += counter[1](args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap the public functions of every layer at every import site."""
        modules = {n: m for n, m in sys.modules.items()
                   if n == "kenmotsu3" or n.startswith("kenmotsu3.")}
        wrapped = {}
        for layer in LAYERS:
            mod = modules[f"kenmotsu3.{layer}"]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrapped[id(obj)] = self._wrap(obj, f"{layer}.{attr}")
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[id(obj)])
        for layer, cls_name, meth in METHODS:
            cls = getattr(modules[f"kenmotsu3.{layer}"], cls_name)
            original = cls.__dict__[meth]
            self._patches.append((cls, meth, original))
            setattr(cls, meth, self._wrap(original, f"{layer}.{cls_name}.{meth}"))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def self_times(self) -> dict[str, float]:
        """Self time per span name: duration minus direct children's."""
        own = [end - start for _, start, end, _ in self.spans]
        for (_, start, end, parent) in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        out: dict[str, float] = defaultdict(float)
        for (name, _, _, _), t in zip(self.spans, own):
            out[name] += t
        return dict(out)

    def total_times(self) -> dict[str, float]:
        """Inclusive time per span name."""
        out: dict[str, float] = defaultdict(float)
        for name, start, end, _ in self.spans:
            out[name] += end - start
        return dict(out)

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("name,start,end,parent\n")
            for name, start, end, parent in self.spans:
                fh.write(f"{name},{start!r},{end!r},{parent}\n")
