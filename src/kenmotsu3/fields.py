"""Chart domains and tensor-field evaluators.

Everything is a single 3-dimensional chart.  A field is an
:class:`ArrayField`, a pure evaluator from a batch of points (shape
``(n, 3)``) to per-point values of its component shape: ``()`` for a scalar,
``(3,)`` for a vector field or 1-form, ``(3, 3)`` for a (1,1)-tensor or a
metric.  A (1,1) tensor acts on column component vectors,
``(T X)^i = T^i_j X^j``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ChartDomain",
    "ArrayField",
    "BoundaryError",
    "as_points",
]


class BoundaryError(ValueError):
    """A point lies outside the chart domain (raised by
    :meth:`ChartDomain.require`, which every model's ``at`` calls)."""


def as_points(p) -> tuple[np.ndarray, bool]:
    """Promote a single point ``(3,)`` to a batch ``(1, 3)``.

    Returns the batch and a flag telling whether the input was a single
    point (callers squeeze their output accordingly).
    """
    arr = np.asarray(p, dtype=float)
    if arr.ndim == 1:
        if arr.shape != (3,):
            raise ValueError(f"point must have 3 coordinates, got {arr.shape}")
        return arr[None, :], True
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise ValueError(f"points must have shape (n, 3), got {arr.shape}")
    return arr, False


@dataclass(frozen=True)
class ChartDomain:
    """Open (or closed) coordinate box.

    ``bounds`` holds per-axis ``(lo, hi)`` pairs, infinite ends allowed.
    ``inclusive`` admits the finite endpoints themselves (used by the
    trajectory-backed models, whose fields exist on a closed t-interval).
    """

    bounds: tuple[tuple[float, float], tuple[float, float], tuple[float, float]] = (
        (-np.inf, np.inf), (-np.inf, np.inf), (-np.inf, np.inf))
    inclusive: bool = False

    def contains(self, pts) -> np.ndarray:
        pts, single = as_points(pts)
        ok = np.isfinite(pts).all(axis=1)
        for axis, (lo, hi) in enumerate(self.bounds):
            x = pts[:, axis]
            if self.inclusive:
                ok &= (x >= lo) & (x <= hi)
            else:
                ok &= (x > lo) & (x < hi)
        return ok[0] if single else ok

    def require(self, pts) -> None:
        inside = np.atleast_1d(self.contains(pts))
        if not inside.all():
            bad = np.asarray(pts, float).reshape(-1, 3)[~inside][0]
            raise BoundaryError(f"point {bad.tolist()} outside chart domain")


class ArrayField:
    """A pure evaluator ``(n, 3) -> (n,) + out_shape``."""

    def __init__(self, fn, out_shape=(), *, name: str = ""):
        self.fn = fn
        self.out_shape = tuple(out_shape)
        self.name = name

    def __call__(self, pts) -> np.ndarray:
        pts, single = as_points(pts)
        out = np.asarray(self.fn(pts), dtype=float)
        want = (pts.shape[0],) + self.out_shape
        if out.shape != want:
            raise ValueError(
                f"field {self.name or self.fn!r} returned {out.shape}, expected {want}")
        return out[0] if single else out

    def __repr__(self):
        return f"{type(self).__name__}({self.name or self.fn!r})"
