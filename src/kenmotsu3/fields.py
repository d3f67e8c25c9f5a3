"""Chart domains, tensor-field evaluators and numerical differentiation.

Everything is a single 3-dimensional chart.  A field is an
:class:`ArrayField`, a pure evaluator from a batch of points (shape
``(n, 3)``) to per-point values of its component shape: ``()`` for a scalar,
``(3,)`` for a vector field or 1-form, ``(3, 3)`` for a (1,1)-tensor or a
metric.  A (1,1) tensor acts on column component vectors,
``(T X)^i = T^i_j X^j``.

Derivatives use a 5-point 4th-order stencil of relative step ``h_rel``
whose window shifts inward near a domain boundary (one-sided weights via the
classic divided-difference weight recursion); it errors only when no 5-point
window fits.  A field may instead carry its exact partials, first and
second, and states the axes it varies along: its partials along the others
are exact zeros, with no stencil.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ChartDomain",
    "ArrayField",
    "BoundaryError",
    "partial_derivative",
    "coordinate_derivatives",
    "lie_bracket",
    "constant_vector_field",
    "as_points",
]


class BoundaryError(ValueError):
    """No admissible finite-difference window fits inside the domain."""


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
    """A pure evaluator ``(n, 3) -> (n,) + out_shape`` over a chart domain.

    ``varies`` flags the axes the field depends on; its partials along the
    others are zero.  ``partials``, when set, maps ``(n, 3)`` points to the
    exact partials ``(n, 3) + out_shape`` (axis first), which
    :func:`coordinate_derivatives` then uses in place of FD; ``second`` to
    the exact second partials ``(n, 3, 3) + out_shape`` (both axes first).
    """

    def __init__(self, fn, domain: ChartDomain, out_shape=(), *,
                 varies=(True, True, True), partials=None, second=None,
                 name: str = ""):
        self.fn = fn
        self.domain = domain
        self.out_shape = tuple(out_shape)
        self.varies = tuple(varies)
        self.partials = partials
        self.second = second
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


# --------------------------------------------------------------------------
# Finite differences
# --------------------------------------------------------------------------

def _fd_weights(offsets: np.ndarray) -> np.ndarray:
    """First-derivative weights at 0 for nodes ``offsets`` (unit spacing).

    Classic recursive divided-difference weight construction for arbitrary
    node sets; with 5 nodes this is 4th-order accurate.
    """
    n = len(offsets)
    w = np.zeros((n, 2))  # columns: derivative orders 0, 1
    w[0, 0] = 1.0
    c1, c4 = 1.0, offsets[0]
    for i in range(1, n):
        c2, c5, c4 = 1.0, c4, offsets[i]
        for j in range(i):
            c3 = offsets[i] - offsets[j]
            c2 *= c3
            if j == i - 1:
                w[i, 1] = c1 * (w[i - 1, 0] - c5 * w[i - 1, 1]) / c2
                w[i, 0] = -c1 * c5 * w[i - 1, 0] / c2
            w[j, 1] = (c4 * w[j, 1] - w[j, 0]) / c3
            w[j, 0] = c4 * w[j, 0] / c3
        c1 = c2
    return w[:, 1]


# no shift past 2: on a box, the window shifted by 2 holds the point and
# nodes of any window shifted further, so it fits wherever those fit
_SHIFTS = (0, 1, -1, 2, -2)
# weights of the window shifted by s in row s + 2: (5, 5)
_WEIGHTS = np.stack([_fd_weights(np.arange(-2, 3) + s) for s in range(-2, 3)])


def _window_shifts(field: ArrayField, pts: np.ndarray, axis: int,
                   h: np.ndarray) -> np.ndarray:
    """Per-point window shift keeping all 5 stencil nodes inside the domain."""
    n = pts.shape[0]
    shift = np.zeros(n, dtype=int)
    unresolved = np.ones(n, bool)
    for s in _SHIFTS:
        if not unresolved.any():
            break
        trial = np.repeat(pts[unresolved][:, None, :], 5, axis=1)
        trial[:, :, axis] += (np.arange(-2, 3) + s)[None, :] * h[unresolved, None]
        ok = np.asarray(
            field.domain.contains(trial.reshape(-1, 3)), bool).reshape(-1, 5).all(axis=1)
        idx = np.flatnonzero(unresolved)[ok]
        shift[idx] = s
        unresolved[idx] = False
    if unresolved.any():
        bad = pts[unresolved][0]
        raise BoundaryError(
            f"no 5-point stencil window fits at {bad.tolist()} along axis {axis}")
    return shift


def partial_derivative(field: ArrayField, pts, axis: int,
                       h_rel: float = 1e-3) -> np.ndarray:
    """d(field)/dx^axis with the 5-point stencil of step h_rel max(1, |x|).

    Works for any field shape; the output has the field's own shape.  Near a
    boundary the window shifts inward (one-sided 4th-order); if no window
    fits, :class:`BoundaryError` is raised.
    """
    if not 0 < h_rel < 0.1:
        raise ValueError(f"h_rel {h_rel!r} outside (0, 0.1)")
    pts, single = as_points(pts)
    field.domain.require(pts)
    h = h_rel * np.maximum(1.0, np.abs(pts[:, axis]))
    shifts = _window_shifts(field, pts, axis, h)

    stencil = np.repeat(pts[:, None, :], 5, axis=1)
    stencil[:, :, axis] += (np.arange(-2, 3)[None, :] + shifts[:, None]) * h[:, None]
    values = field(stencil.reshape(-1, 3)).reshape((pts.shape[0], 5) + field.out_shape)

    weights = _WEIGHTS[shifts + 2] / h[:, None]
    extra = (1,) * len(field.out_shape)
    out = np.sum(values * weights.reshape(weights.shape + extra), axis=1)
    return out[0] if single else out


def coordinate_derivatives(field: ArrayField, pts,
                           h_rel: float = 1e-3) -> np.ndarray:
    """All three partials stacked: output ``(n, 3) + out_shape`` (axis first).

    The field's exact partials when it has them; otherwise FD along the axes
    it varies along and exact zeros along the others.
    """
    pts, single = as_points(pts)
    field.domain.require(pts)
    if field.partials is not None:
        out = np.asarray(field.partials(pts), dtype=float)
    else:
        out = np.zeros((pts.shape[0], 3) + field.out_shape)
        for a in range(3):
            if field.varies[a]:
                out[:, a] = partial_derivative(field, pts, a, h_rel)
    return out[0] if single else out


def lie_bracket(x_field: ArrayField, y_field: ArrayField, pts) -> np.ndarray:
    """[X, Y]^i = X^j d_j Y^i - Y^j d_j X^i, with the partials of
    :func:`coordinate_derivatives`: a field's exact ones if it has them."""
    pts, single = as_points(pts)
    xv, yv = x_field(pts), y_field(pts)
    # jac[n, j, i] = d_j (field^i)
    jac_y = coordinate_derivatives(y_field, pts)
    jac_x = coordinate_derivatives(x_field, pts)
    out = np.einsum("nj,nji->ni", xv, jac_y) - np.einsum("nj,nji->ni", yv, jac_x)
    return out[0] if single else out


def constant_vector_field(components, domain: ChartDomain) -> ArrayField:
    """Coordinate-constant vector field (e.g. a coordinate direction)."""
    comp = np.asarray(components, float)

    def fn(pts):
        return np.broadcast_to(comp, (pts.shape[0], 3)).copy()

    return ArrayField(fn, domain, (3,), name=f"const{comp.tolist()}")
