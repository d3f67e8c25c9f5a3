"""Finite differences: the tests' independent oracle for exact partials.

One 5-point 4th-order stencil of relative step ``h_rel`` (the node spacing
is ``h_rel max(1, |x|)``) differences a plain callable ``fn(pts)``, mapping
``(n, 3)`` points to per-point values of any shape, over a ``ChartDomain``.
Near a domain boundary the window shifts inward (one-sided weights from the
classic divided-difference weight recursion); it errors only when no 5-point
window fits.  The oracle is pure FD: it never reads a field's exact partials.
"""

import numpy as np

from kenmotsu3.fields import BoundaryError, ChartDomain, as_points
from kenmotsu3.geometry import Curvature, curvature, levi_civita


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


def _window_shifts(domain: ChartDomain, pts: np.ndarray, axis: int,
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
            domain.contains(trial.reshape(-1, 3)), bool).reshape(-1, 5).all(axis=1)
        idx = np.flatnonzero(unresolved)[ok]
        shift[idx] = s
        unresolved[idx] = False
    if unresolved.any():
        bad = pts[unresolved][0]
        raise BoundaryError(
            f"no 5-point stencil window fits at {bad.tolist()} along axis {axis}")
    return shift


def partial(fn, domain: ChartDomain, pts, axis: int,
            h_rel: float = 1e-3) -> np.ndarray:
    """d(fn)/dx^axis, of fn's per-point shape; a point outside ``domain``,
    or one where no window fits, raises :class:`BoundaryError`."""
    if not 0 < h_rel < 0.1:
        raise ValueError(f"h_rel {h_rel!r} outside (0, 0.1)")
    pts, single = as_points(pts)
    domain.require(pts)
    h = h_rel * np.maximum(1.0, np.abs(pts[:, axis]))
    shifts = _window_shifts(domain, pts, axis, h)

    stencil = np.repeat(pts[:, None, :], 5, axis=1)
    stencil[:, :, axis] += (np.arange(-2, 3)[None, :] + shifts[:, None]) * h[:, None]
    values = np.asarray(fn(stencil.reshape(-1, 3)), dtype=float)
    values = values.reshape((pts.shape[0], 5) + values.shape[1:])

    weights = _WEIGHTS[shifts + 2] / h[:, None]
    extra = (1,) * (values.ndim - 2)
    out = np.sum(values * weights.reshape(weights.shape + extra), axis=1)
    return out[0] if single else out


def derivatives(fn, domain: ChartDomain, pts, h_rel: float = 1e-3,
                axes=(0, 1, 2)) -> np.ndarray:
    """The partials along ``axes`` stacked axis first, ``(n, 3) + shape``;
    exact zeros along the other axes (on the Darboux models, which depend on
    t alone, pass ``axes=(2,)``)."""
    pts, single = as_points(pts)
    parts = [partial(fn, domain, pts, a, h_rel) for a in axes]
    out = np.zeros((len(pts), 3) + parts[0].shape[1:])
    out[:, list(axes)] = np.stack(parts, axis=1)
    return out[0] if single else out


def riemann(metric, domain: ChartDomain, pts, h_rel: float = 1e-3,
            axes=(0, 1, 2)) -> Curvature:
    """Curvature with Gamma, from ``(g, dg) = metric(q)`` by
    ``levi_civita``, differenced along ``axes`` (O(h^4))."""
    pts, _ = as_points(pts)
    gamma, ginv = levi_civita(*metric(pts))
    dgamma = derivatives(lambda q: levi_civita(*metric(q))[0], domain, pts,
                         h_rel, axes)
    return curvature(gamma, ginv, dgamma)


def model_metric(model):
    """``metric`` for :func:`riemann`: a model's g and its exact partials."""
    return lambda q: model.at(q)["g"][:2]


def model_axes(model) -> tuple[int, ...]:
    """The axes a model varies along: t alone on the Darboux families."""
    return (2,) if model.family.endswith("darboux") else (0, 1, 2)
