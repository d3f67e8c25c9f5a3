"""The nine-component linear matrix ODE behind the Darboux-like models.

Three 2x2 functional matrices F, H, B expand over the constant basis
M1 = [[1,0],[0,-1]], M2 = [[0,1],[-1,0]], M3 = [[0,1],[1,0]], giving nine
scalar components (f1,f2,f3,h1,h2,h3,b1,b2,b3).  Two variants, both with
lam = e^{-f} and f(0) = 0:

  kmu :  F' = 2H,  H' = 2*lam^2*F - 2H - mu*B,  B' = mu*H - 2B,
         f' = 2 (so f = 2t);  B carries the components of phi o h.
  kmup:  F' = 2H,  H' = 2*lam^2*F - (mu+2)*H,  B' = -(mu+2)*B,
         f' = mu + 2;  B carries h o phi.

Initial conditions at t = 0:

  kmu :  F = M2, H = -M3, B = -M1   (b1(0) = -1: the unique value making
         B = F@H, H = B@F, F = lam^{-2} B@H hold exactly at t=0 under
         column-vector composition; asserted by check_initial_relations)
  kmup:  F = M2, H = -M3, B = M1    (B = H@F at t=0)

A node's state is the vector (f1..f3, h1..h3, b1..b3, f).  The rows f,
h, b form a 3x3 matrix Y with Y' = a(t) Y:

  kmu :  a = [[0, 2, 0], [2*lam^2, -2, -mu], [0, mu, -2]]
  kmup:  a = [[0, 2, 0], [2*lam^2, -(mu+2), 0], [0, 0, -(mu+2)]]

The flow acts by conjugation.  With P in SL(2, R) solving P' = P W,
P(0) = I, and W = -lam M1 - (nu/2) M2 (nu = mu for kmu, 0 for kmup):

  F = P M2 P^-1,  H = -lam P M3 P^-1,  B = -+lam P M1 P^-1  (kmu -, kmup +),

since [W, M1] = nu M3, [W, M2] = -2 lam M3 and [W, M3] = -2 lam M2 - nu M1
give back the flow above.  G = -M2 F = (M2 P)(M2 P)^T is a Gram matrix.

Both variants are integrated on fixed-step nodes, forward and backward
from t=0, with mu evaluated once per direction, in long double
(np.longdouble).  A step's sixth-order Magnus exponent lives on the (M1,
M2, M3) coefficients: the Gauss quadrature of W plus, for kmu, the
commutator terms.  X = x1 M1 + x2 M2 + x3 M3 has X^2 = r^2 I with r^2 =
x1^2 - x2^2 + x3^2, so exp X = cosh r I + (sinh r / r) X.

  kmu :  P at a node is the product of the steps' exponentials, a scan.
  kmup:  every exponent lies along M1, so they commute: P = diag(e^{A/2},
         e^{-A/2}), where A/2 = -int_0^t lam is their running sum, and
         F = M2 cosh A + M3 sinh A.

A trajectory is (P, f) at its nodes.  ``Trajectory.solution`` is their
one lookup, off the nodes by one partial Magnus step from the nearest
node's P; the states are written from (P, f), as sums of products, only
where they are read: the CSV, the finite check and ``Trajectory.dense``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .exprs import Expr

__all__ = [
    "M1", "M2", "M3",
    "ConsistencyError",
    "Trajectory",
    "integrate",
    "algebraic_residuals",
    "check_initial_relations",
    "initial_state",
    "trajectory_to_csv",
]

M1 = np.array([[1.0, 0.0], [0.0, -1.0]])
M2 = np.array([[0.0, 1.0], [-1.0, 0.0]])
M3 = np.array([[0.0, 1.0], [1.0, 0.0]])

VARIANTS = ("kmu", "kmup")


class ConsistencyError(RuntimeError):
    """A structural invariant that must hold exactly has failed."""


def initial_state(variant: str) -> np.ndarray:
    """State vector (f1..f3, h1..h3, b1..b3, f) at t = 0."""
    if variant == "kmu":
        return np.array([0.0, 1.0, 0.0, 0.0, 0.0, -1.0, -1.0, 0.0, 0.0, 0.0])
    if variant == "kmup":
        return np.array([0.0, 1.0, 0.0, 0.0, 0.0, -1.0, 1.0, 0.0, 0.0, 0.0])
    raise ValueError(f"unknown variant {variant!r}")


def check_initial_relations(variant: str) -> dict[str, float]:
    """All algebraic relations of the state written at t=0, from P = I and
    f = 0, which must equal :func:`initial_state`.

    Under the chosen composition convention every residual must be exactly
    zero in floating point (the entries are small integers); a nonzero value
    aborts with :class:`ConsistencyError`.
    """
    if not np.array_equal(M1 @ M1, np.eye(2)) or not np.array_equal(M3 @ M3, np.eye(2)) \
            or not np.array_equal(M2 @ M2, -np.eye(2)):
        raise ConsistencyError("basis matrices corrupted")
    y = _write_states(variant, np.eye(2, dtype=np.longdouble), np.longdouble(0))
    res = {k: float(v) for k, v in algebraic_residuals(y, variant).items()}
    if any(res.values()) or not np.array_equal(y, initial_state(variant)):
        raise ConsistencyError(f"initial state or algebraic relations not "
                               f"exact for {variant}: {y}, {res}")
    return res


@cache
def _startup_check(variant: str) -> None:
    """check_initial_relations once per variant: a failure caches nothing."""
    check_initial_relations(variant)


def _det_g(y: np.ndarray) -> np.ndarray:
    f1, f2, f3 = y[..., 0], y[..., 1], y[..., 2]
    return (f2 - f3) * (f2 + f3) - f1 * f1


def _cross(x, y):
    """x × y of (..., 3) coefficient vectors: the (M1, M2, M3) part of X Y,
    by M2 M3 = M1, M1 M3 = M2 and M1 M2 = M3, each reversed product negated."""
    i, j = [1, 0, 0], [2, 2, 1]
    return x[..., i] * y[..., j] - x[..., j] * y[..., i]


def algebraic_residuals(y, variant: str) -> dict[str, np.ndarray]:
    """Max-norm of each of the ten matrix/scalar relation residuals.

    ``y`` has shape (..., 10); every value has the shape (...).  The three
    product relations depend on the variant (B holds phi o h for kmu but
    h o phi = h' for kmup, which flips their signs):

      kmu :  B@H = lam^2 F,   B@F = H,    F@H = B
      kmup:  B@H = -lam^2 F,  B@F = -H,   H@F = B

    On the coefficients: X Y = <x, y> I + (x × y).M with <x, y> = x1 y1 -
    x2 y2 + x3 y3, and the largest entry of s I + v.M is max(|s| + |v1|,
    |v2| + |v3|).  A square is x1^2 + (x3 - x2)(x3 + x2), the rounding of
    the 2x2 product's diagonal.
    """
    c = y[..., :9].reshape(y.shape[:-1] + (3, 3))     # rows f, h, b
    lam2 = np.exp(-y[..., 9]) ** 2
    sq = c[..., 0] * c[..., 0] + (c[..., 2] - c[..., 1]) * (c[..., 2] + c[..., 1])
    x, z = c[..., [1, 2, 2], :], c[..., [0, 0, 1], :]  # pairs HF, BF, BH
    dot = x[..., 0] * z[..., 0] - x[..., 1] * z[..., 1] + x[..., 2] * z[..., 2]
    # vector parts of HF + B, BF - H and BH - lam^2 F (kmup: the targets' signs
    # flip); HF + B is FH - B with its vector part negated, of the same norm
    target = c[..., [2, 1, 0], :]
    target[..., 2, :] *= lam2[..., None]
    sign = np.array([[1], [-1], [-1]]) * (1 if variant == "kmu" else -1)
    v = _cross(x, z) + sign * target
    prod = np.maximum(np.abs(dot) + np.abs(v[..., 0]),
                      np.abs(v[..., 1]) + np.abs(v[..., 2]))
    anti = 2 * np.abs(dot)
    out = {"F2": np.abs(sq[..., 0] + 1), "H2": np.abs(sq[..., 1] - lam2),
           "B2": np.abs(sq[..., 2] - lam2), "anti_HF": anti[..., 0],
           "anti_BF": anti[..., 1], "anti_BH": anti[..., 2],
           "prod_BH": prod[..., 2], "prod_BF": prod[..., 1],
           "prod_FH": prod[..., 0]}
    # det G = -<f, f>, rounded as -sq[..., 0]: |det G - 1| is F2, bit for bit
    out["detG"] = out["F2"]
    return out


# --------------------------------------------------------------------------
# Integration
# --------------------------------------------------------------------------

# three Gauss-Legendre nodes and weights on [0, 1], built from scalars: an
# array operation at import raised the resident memory of runs that never
# integrate
_SQRT15 = np.sqrt(np.longdouble(15))
_GAUSS_C = np.array([0.5 - _SQRT15 / 10, np.longdouble(0.5), 0.5 + _SQRT15 / 10])
_GAUSS_W = np.array([np.longdouble(5) / 18, np.longdouble(8) / 18,
                     np.longdouble(5) / 18])
# nodes per batch of CSV rows or of checked slopes, and steps per batch of
# a span's exponents and frames: bound the long-double temporaries (a span
# in batches of 128 steps took 25 % longer)
_BLOCK = 128
_SPAN_BLOCK = 512
_CHUNK = 32  # steps per chunk of kmu's frame product: divides _SPAN_BLOCK
_FLOAT64_MAX = np.finfo(float).max


def _bracket(x, y):
    """[X, Y] = 2 (x × y).M of (..., 3) coefficient vectors on (M1, M2, M3)."""
    return 2 * _cross(x, y)


def _magnus_exponent(variant, h, mu_stage, f_stage) -> np.ndarray:
    """Omega of each step of P' = P W, from its length ``h`` (m,) and mu
    and f at its three Gauss nodes (m, 3): (m, 3) coefficients on (M1, M2,
    M3).

    Sixth order (Blanes, Casas, Oteo & Ros, Phys. Rep. 470, 2009): the
    Gauss quadrature of W = -lam M1 - (nu/2) M2 and, for kmu, the
    commutator terms, whose bracket is reversed because P^-1 solves the
    left-hand flow (P^-1)' = -W P^-1.  kmup's W lies along M1, where every
    commutator vanishes.
    """
    w = np.zeros(f_stage.shape + (3,), np.longdouble)  # h W at the nodes
    w[..., 0] = -h[:, None] * np.exp(-f_stage)
    if variant == "kmup":
        return _GAUSS_W @ w
    w[..., 1] = h[:, None] * mu_stage / -2
    lo, a1, hi = w[:, 0], w[:, 1], w[:, 2]
    a2 = (hi - lo) * (_SQRT15 / 3)
    a3 = (hi - 2 * a1 + lo) * (np.longdouble(10) / 3)
    c1 = _bracket(a1, a2)
    c2 = _bracket(a1, 2 * a3 - c1) / 60
    return _GAUSS_W @ w + _bracket(20 * a1 + a3 + c1, a2 + c2) / 240


def _expm(om: np.ndarray) -> np.ndarray:
    """exp X of X = x1 M1 + x2 M2 + x3 M3, from (..., 3) coefficients to
    (..., 2, 2) matrices.

    X^2 = r^2 I with r^2 = x1^2 - x2^2 + x3^2, so exp X = cosh r I +
    (sinh r / r) X, with cos r and sin r where r^2 < 0.  Meant for one
    step's small exponent: for a large r, e^{-r} = cosh r - sinh r cancels.
    """
    x1, x2, x3 = np.moveaxis(om, -1, 0)
    r2 = x1 * x1 - x2 * x2 + x3 * x3
    r = np.sqrt(np.abs(r2))
    grow = r2 > 0
    c = np.where(grow, np.cosh(r), np.cos(r))
    s = np.ones_like(r)                                # sinh r / r
    np.divide(np.where(grow, np.sinh(r), np.sin(r)), r, out=s, where=r > 0)
    return np.stack([c + s * x1, s * (x2 + x3), s * (x3 - x2), c - s * x1],
                    axis=-1).reshape(om.shape[:-1] + (2, 2))


def _write_states(variant, frames, f) -> np.ndarray:
    """The long-double states (..., 10) of the frames P = [[p, q], [r, s]]
    (..., 2, 2) and f (...): F = P M2 P^-1, H = -lam P M3 P^-1 and B =
    -+lam P M1 P^-1 (kmu -, kmup +) with lam = e^{-f}, each component one
    sum of products of P's entries, times lam for H and B, then f."""
    p, q, r, s = (frames[..., i, j] for i in (0, 1) for j in (0, 1))
    pp, qq, rr, ss = p * p, q * q, r * r, s * s
    pr, qs, pq, rs = p * r, q * s, p * q, r * s
    y = np.empty(np.shape(f) + (10,), np.longdouble)
    y[..., 9] = f
    lam = np.exp(-y[..., 9])
    lam_b = -lam if variant == "kmu" else lam
    y[..., 0] = -(pr + qs)
    y[..., 1] = (pp + qq + rr + ss) / 2
    y[..., 2] = (pp + qq - rr - ss) / 2
    y[..., 3] = lam * (pr - qs)
    y[..., 4] = -lam * (pp - qq + rr - ss) / 2
    y[..., 5] = -lam * (pp - qq - rr + ss) / 2
    y[..., 6] = lam_b * (p * s + q * r)
    y[..., 7] = -lam_b * (pq + rs)
    y[..., 8] = lam_b * (rs - pq)
    return y


def _steps(variant, mu_bar: Expr, t, t_end):
    """Quadrature data of the steps from the times ``t`` to ``t_end``
    (long double, (m,)): mu at the three Gauss nodes ``t + off`` of each
    step, and f's rise over each step and from ``t`` to each Gauss node.

    mu comes from one call, at the Gauss nodes and, for kmup, the Gauss
    nodes of each [t, t + off], none of which lies past a step's end.  f
    rises at the rate 2 for kmu; for kmup its rise is Gauss-Legendre
    quadrature of mu + 2.
    """
    m = len(t)
    off = (t_end - t)[:, None] * _GAUSS_C            # Gauss nodes - t: (m, 3)
    at = np.empty(m * (3 if variant == "kmu" else 12))
    at[:3 * m].reshape(m, 3)[:] = t[:, None] + off
    if variant == "kmup":  # Gauss nodes of each [t, t + off]: (m, 3, 3)
        quad = at[3 * m:].reshape(m, 3, 3)
        for c in range(3):
            quad[..., c] = off * _GAUSS_C[c] + t[:, None]
    mus = mu_bar(at)
    mu_stage = mus[:3 * m].reshape(m, 3)
    if variant == "kmu":
        rise, rate = 2 * (t_end - t), 2
    else:
        rise = (t_end - t) * ((mu_stage.astype(np.longdouble) + 2) @ _GAUSS_W)
        rate = mus[3 * m:].reshape(m, 3, 3) @ _GAUSS_W + 2
    return mu_stage, rise, off * rate


def _check_finite(variant, mu_bar: Expr, times, frames, f, n0) -> None:
    """Raise at the node whose state (long double) or slope a(t) Y has no
    finite float64 value, which every reader of the states needs: the
    bad node fewest steps from t = 0 = ``times[n0]``, the later on a tie.
    Each entry of F, H and B is at most max(1, lam) |P|_F^2, and |a(t) Y|
    <= (2 lam^2 + 2 + |mu|) max|Y|: in range where that bound, |f| added,
    is under half the float64 maximum (NaN is not).  The other nodes'
    states and slopes are formed, ``_BLOCK`` at a time, each row summed in
    a matmul's order."""
    mu, lam = mu_bar(times), np.exp(-f)
    size = np.maximum(1, lam) * np.sum(frames * frames, axis=(1, 2)) + np.abs(f)
    near = np.flatnonzero(~((2 * lam * lam + 2 + np.abs(mu)) * size
                            < _FLOAT64_MAX / 2))
    finite = []
    for s in range(0, len(near), _BLOCK):
        i = near[s:s + _BLOCK]
        y, m = _write_states(variant, frames[i], f[i]), mu[i, None]
        nu, rate = (m, 2) if variant == "kmu" else (0, m.astype(y.dtype) + 2)
        h, b = y[:, 3:6], y[:, 6:9]
        finite.append(np.all([np.all(np.abs(v) <= _FLOAT64_MAX, axis=-1) for v in (
            y, 2 * h, 2 * np.exp(-2 * y[:, 9:]) * y[:, :3] - rate * h - nu * b,
            nu * h - rate * b)], axis=0))
    bad = near[~np.concatenate(finite)] if finite else near
    if len(bad):
        i = bad[np.argmin(2 * np.abs(bad - n0) + (bad < n0))]
        raise ConsistencyError(f"ODE state non-finite in float64 at t={times[i]}")


def _span(variant, mu_bar: Expr, t, f, p) -> None:
    """Carry ``f[0]`` = 0 and the frame ``p[0]`` = I at t = 0 over the
    node times ``t`` (m,) into ``f[1:]`` and ``p[1:]`` (long-double arrays
    or views).  kmu's frame is the product of the steps' exponentials: per
    ``_CHUNK`` steps, the chunk's start frame times its running products,
    formed for all chunks at once.  kmup's exponents commute (all along
    M1): its frame is diag(e^a, e^-a) of their running sum a = A/2.  mu and
    f come for the whole span, the rest ``_SPAN_BLOCK`` steps at a time."""
    t = np.asarray(t, np.longdouble)
    mu_stage, rise, rise_stage = _steps(variant, mu_bar, t[:-1], t[1:])
    f[1:] = np.cumsum(rise)
    a = np.zeros(1, np.longdouble)
    for s in range(0, len(t) - 1, _SPAN_BLOCK):
        b = slice(s, min(s + _SPAN_BLOCK, len(t) - 1))  # the block's steps
        e = slice(s + 1, b.stop + 1)                  # and their end nodes
        om = _magnus_exponent(variant, t[e] - t[b], mu_stage[b],
                              f[b, None] + rise_stage[b])
        if variant == "kmu":
            q = _expm(om)
            for j in range(1, _CHUNK):
                q[j::_CHUNK] = q[j - 1::_CHUNK][:len(q[j::_CHUNK])] @ q[j::_CHUNK]
            for c in range(s, b.stop, _CHUNK):
                np.matmul(p[c], q[c - s:c - s + _CHUNK],
                          out=p[c + 1:c + 1 + _CHUNK])
        else:  # the running sum goes on from the last block's
            a = np.cumsum(np.concatenate((a[-1:], om[:, 0])))[1:]
            p[e, 0, 0], p[e, 1, 1] = np.exp(a), np.exp(-a)


@dataclass
class Trajectory:
    """Node-sampled solution of the variant's flow and its one lookup.

    Nodes are uniformly spaced by ``step`` and include t=0, where P = I
    and f = 0; ``frames`` holds the long-double P of P' = P W at every node
    and ``f`` its long-double f, which the states are written from.
    :meth:`solution` reads (P, f) at any time of the integrated range, off
    the nodes by one partial Magnus step from the nearest node's P, and
    :meth:`dense` writes the states from them.
    """

    variant: str
    mu_bar: Expr
    step: float
    times: np.ndarray    # (m,)
    frames: np.ndarray   # (m, 2, 2), long double
    f: np.ndarray        # (m,), long double

    @property
    def t_min(self) -> float:
        return float(self.times[0])

    @property
    def t_max(self) -> float:
        return float(self.times[-1])

    def solution(self, ts) -> tuple[np.ndarray, np.ndarray]:
        """(P, f) at arbitrary times of the integrated range, in long
        double, shaped ``ts.shape + (2, 2)`` and ``ts.shape``: the node's at
        a stored node, elsewhere the nearest node's P times the exponential
        of one Magnus step over [t_node, t], and f risen over that step."""
        ts = np.asarray(ts, float)
        if not np.all((ts >= self.t_min - 1e-12) & (ts <= self.t_max + 1e-12)):
            raise ValueError(f"time outside [{self.t_min}, {self.t_max}]")
        pos = np.ravel(ts - self.t_min) / self.step
        nearest = np.clip(np.round(pos).astype(int), 0, len(self.times) - 1)
        p, f = self.frames[nearest], self.f[nearest]  # copies
        off = np.abs(pos - nearest) >= 1e-9
        if off.any():
            t0 = self.times[nearest[off]].astype(np.longdouble)
            t = ts.ravel()[off].astype(np.longdouble)
            mu_stage, rise, rise_stage = _steps(self.variant, self.mu_bar, t0, t)
            om = _magnus_exponent(self.variant, t - t0, mu_stage,
                                  f[off, None] + rise_stage)
            p[off] = p[off] @ _expm(om)
            f[off] += rise
        return p.reshape(ts.shape + (2, 2)), f.reshape(ts.shape)

    def dense(self, ts) -> np.ndarray:
        """Long-double state vectors at arbitrary times, written from
        :meth:`solution` (at a stored node, from the node's P and f; at
        t = 0 from P = I, whose zero entries give -0 in some components)."""
        return _write_states(self.variant, *self.solution(ts))


def integrate(variant: str, mu_bar: Expr, t_range: tuple[float, float],
              step: float = 1e-3) -> Trajectory:
    """Integrate P' = P W from t=0 forward to t1 and backward to t0, one
    direction after the other, keeping each node's P and f.

    ``step`` must be positive and at most 1e-2; endpoints are realized as
    integer numbers of steps (rounded), at least one in all.  A node count
    whose arrays cannot be allocated is bad input too (``ValueError``).  The
    startup consistency check runs first, once per variant, and aborts on
    any inexact initial relation.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    if not 0 < step <= 1e-2:
        raise ValueError("step must be in (0, 1e-2]")
    t0, t1 = map(float, t_range)
    if not (np.isfinite(t0) and np.isfinite(t1) and t0 <= 0.0 <= t1 and t0 < t1):
        raise ValueError("t-range must be a finite interval containing 0")
    _startup_check(variant)
    n_back = int(round(-t0 / step))
    n_fwd = int(round(t1 / step))
    if n_back + n_fwd == 0:
        raise ValueError(f"t-range [{t0}, {t1}] rounds to the single node "
                         f"t=0 at step {step}")
    try:  # the largest array first, before any is written
        frames = np.zeros((n_back + n_fwd + 1, 2, 2), np.longdouble)
        f = np.zeros(n_back + n_fwd + 1, np.longdouble)
        times = np.arange(-n_back, n_fwd + 1) * step
    except (MemoryError, ValueError) as ex:
        raise ValueError(f"step {step} needs {n_back + n_fwd + 1} nodes, "
                         f"which cannot be allocated ({ex})") from None
    frames[n_back] = np.eye(2)
    # a non-finite node raises: no overflow warnings first
    with np.errstate(over="ignore", invalid="ignore"):
        for s in (slice(n_back, None), slice(n_back, None, -1)):
            if len(times[s]) > 1:
                _span(variant, mu_bar, times[s], f[s], frames[s])
        _check_finite(variant, mu_bar, times, frames, f, n_back)
    return Trajectory(variant, mu_bar, step, times, frames, f)


def trajectory_to_csv(traj: Trajectory, fh) -> float:
    """One row per node to the text stream ``fh`` (opened with newline=""):
    t, nine components, lambda, k, maxAlgResidual, detG.

    The states are written from the frames and f, and the invariants come
    from them in long double; every column is written as float64, ``_BLOCK``
    rows at a time.  Returns the largest maxAlgResidual.
    """
    header = "t,f1,f2,f3,h1,h2,h3,b1,b2,b3,lambda,k,maxAlgResidual,detG"
    row_fmt = ",".join(["%.17g"] * 14) + "\r\n"
    worst = 0.0
    # CRLF row ends, as the csv module's default dialect writes them
    fh.write(header + "\r\n")
    for s in range(0, len(traj.times), _BLOCK):
        b = slice(s, s + _BLOCK)
        y = _write_states(traj.variant, traj.frames[b], traj.f[b])
        res = algebraic_residuals(y, traj.variant)
        max_res = np.max(np.stack(list(res.values())), axis=0)
        lam = np.exp(-y[:, 9])
        rows = np.column_stack(
            [traj.times[b], y[:, :9], lam, -1.0 - lam * lam, max_res, _det_g(y)])
        # one %-format of the whole block: np.savetxt's bytes, row by row
        values = tuple(rows.astype(float).ravel().tolist())
        fh.write(row_fmt * len(rows) % values)
        worst = max(worst, float(max_res.max()))
    return worst
