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

A node's state is the vector (f1..f3, h1..h3, b1..b3, f); a trajectory
is the (m, 10) array of its nodes.  The rows f, h, b form a 3x3 matrix Y
with Y' = a(t) Y:

  kmu :  a = [[0, 2, 0], [2*lam^2, -2, -mu], [0, mu, -2]]
  kmup:  a = [[0, 2, 0], [2*lam^2, -(mu+2), 0], [0, 0, -(mu+2)]]

Both variants are integrated on fixed-step nodes, forward and backward
from t=0, with mu evaluated once per direction, and their states are long
double (np.longdouble).

  kmu :  sixth-order Magnus with three Gauss nodes per step, both
         directions stepped together.  Every part of a step that reaches
         the states' rounding is long double; the parts below it are
         float64: the commutator terms of each step's exponent (below 1e-6
         of it) and the Taylor tail of its exponential from x^4 on (below
         1e-5 after scaling).
  kmup:  the exact solution.  With A = -2 int_0^t lam (so A' = -2 lam and
         A'' = 2 (mu+2) lam), F = M2 cosh A + M3 sinh A, H = -lam (M2 sinh A
         + M3 cosh A) and B = lam M1; f and A are sums of three-node
         Gauss-Legendre quadratures over the steps.  No Magnus step runs.

``Trajectory.dense`` is the one lookup of the solution: long-double
states, the node state at a stored node and elsewhere one partial step of
the variant's own scheme from the nearest node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exprs import Expr

__all__ = [
    "M1", "M2", "M3",
    "ConsistencyError",
    "Trajectory",
    "rhs",
    "integrate",
    "algebraic_residuals",
    "metric_from_state",
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


def _as_matrix(c: np.ndarray) -> np.ndarray:
    """Expand (…,3) basis components into (…,2,2) matrices."""
    return (c[..., 0, None, None] * M1 + c[..., 1, None, None] * M2
            + c[..., 2, None, None] * M3)


def initial_state(variant: str) -> np.ndarray:
    """State vector (f1..f3, h1..h3, b1..b3, f) at t = 0."""
    if variant == "kmu":
        return np.array([0.0, 1.0, 0.0, 0.0, 0.0, -1.0, -1.0, 0.0, 0.0, 0.0])
    if variant == "kmup":
        return np.array([0.0, 1.0, 0.0, 0.0, 0.0, -1.0, 1.0, 0.0, 0.0, 0.0])
    raise ValueError(f"unknown variant {variant!r}")


def _generator(variant: str, lam2, mu) -> np.ndarray:
    """a(t) of Y' = a Y with Y = [f; h; b], at each (lam^2, mu): (..., 3, 3)."""
    a = np.zeros(np.shape(lam2) + (3, 3), np.result_type(lam2, mu))
    a[..., 0, 1] = 2
    a[..., 1, 0] = 2 * lam2
    if variant == "kmu":
        a[..., 1, 1] = a[..., 2, 2] = -2
        a[..., 1, 2] = -mu
        a[..., 2, 1] = mu
    else:
        a[..., 1, 1] = a[..., 2, 2] = -(mu + 2)
    return a


def rhs(variant: str, y: np.ndarray, mu_value) -> np.ndarray:
    """Componentwise derivative a(t) Y in the (M1, M2, M3) basis, plus f'.

    ``y`` has shape (..., 10) and ``mu_value`` the shape (...); the
    derivative has the dtype of ``y``.
    """
    mu = np.asarray(mu_value, y.dtype)
    rows = y.shape[:-1]
    out = np.empty_like(y)
    out[..., :9] = (_generator(variant, np.exp(-2.0 * y[..., 9]), mu)
                    @ y[..., :9].reshape(rows + (3, 3))).reshape(rows + (9,))
    out[..., 9] = 2.0 if variant == "kmu" else mu + 2.0
    return out


def check_initial_relations(variant: str) -> dict[str, float]:
    """All algebraic relations at t=0 by direct 2x2 multiplication.

    Under the chosen composition convention every residual must be exactly
    zero in floating point (the entries are small integers); a nonzero value
    aborts with :class:`ConsistencyError`.
    """
    if not np.array_equal(M1 @ M1, np.eye(2)) or not np.array_equal(M3 @ M3, np.eye(2)) \
            or not np.array_equal(M2 @ M2, -np.eye(2)):
        raise ConsistencyError("basis matrices corrupted")
    res = {k: float(v) for k, v in
           algebraic_residuals(initial_state(variant), variant).items()}
    if any(v != 0.0 for v in res.values()):
        raise ConsistencyError(
            f"initial algebraic relations not exact for {variant}: {res}")
    return res


def _lam(y: np.ndarray) -> np.ndarray:
    """lambda = e^{-f} in the dtype of the states ``y``."""
    return np.exp(-y[..., 9])


def _det_g(y: np.ndarray) -> np.ndarray:
    f1, f2, f3 = y[..., 0], y[..., 1], y[..., 2]
    return (f2 - f3) * (f2 + f3) - f1 * f1


def algebraic_residuals(y, variant: str) -> dict[str, np.ndarray]:
    """Max-norm of each of the ten matrix/scalar relation residuals.

    ``y`` has shape (..., 10); every value has the shape (...).  The three
    product relations depend on the variant (B holds phi o h for kmu but
    h o phi = h' for kmup, which flips their signs):

      kmu :  B@H = lam^2 F,   B@F = H,    F@H = B
      kmup:  B@H = -lam^2 F,  B@F = -H,   H@F = B
    """
    F, H, B = (_as_matrix(y[..., i:i + 3]) for i in (0, 3, 6))
    lam2 = (_lam(y) ** 2)[..., None, None]
    eye = np.eye(2)
    res = {
        "F2": F @ F + eye,
        "H2": H @ H - lam2 * eye,
        "B2": B @ B - lam2 * eye,
        "anti_HF": H @ F + F @ H,
        "anti_BF": B @ F + F @ B,
        "anti_BH": B @ H + H @ B,
    }
    if variant == "kmu":
        res["prod_BH"] = B @ H - lam2 * F
        res["prod_BF"] = B @ F - H
        res["prod_FH"] = F @ H - B
    else:
        res["prod_BH"] = B @ H + lam2 * F
        res["prod_BF"] = B @ F + H
        res["prod_FH"] = H @ F - B
    out = {k: np.max(np.abs(v), axis=(-2, -1)) for k, v in res.items()}
    out["detG"] = np.abs(_det_g(y) - 1.0)
    return out


def metric_from_state(t, y, variant: str = "kmu") -> np.ndarray:
    """G = -M2 F = [[f2-f3, f1], [f1, f2+f3]]; symmetric positive definite.

    ``t`` has shape (...) and ``y`` shape (..., 10); raises
    :class:`ConsistencyError` at the first node whose G is not.  kmup's G
    is diag(e^{-A}, e^A), whose f2 - f3 cancels once e^{2A} passes the
    rounding of f2: it is positive definite where e^A = f2 + f3 is finite
    and positive.
    """
    g = -M2 @ _as_matrix(y[..., 0:3])
    ok = ((g[..., 0, 0] > 0) & (_det_g(y) > 0) if variant == "kmu"
          else (g[..., 1, 1] > 0) & (g[..., 1, 1] < np.inf))
    bad = np.ravel(~ok)
    if bad.any():
        i = int(np.argmax(bad))
        raise ConsistencyError(
            "leaf metric lost positive definiteness at "
            f"t={float(np.ravel(t)[i])}: {g.reshape(-1, 2, 2)[i].tolist()}")
    return g


# --------------------------------------------------------------------------
# Integration
# --------------------------------------------------------------------------

# three Gauss-Legendre nodes and weights on [0, 1], and the Taylor tail's
# coefficients, built from scalars: an array operation at import raised the
# resident memory of runs that never integrate
_SQRT15 = np.sqrt(np.longdouble(15))
_GAUSS_C = np.array([0.5 - _SQRT15 / 10, np.longdouble(0.5), 0.5 + _SQRT15 / 10])
_GAUSS_W = np.array([np.longdouble(5) / 18, np.longdouble(8) / 18,
                     np.longdouble(5) / 18])
# nodes per batch of CSV rows or of checked slopes, and Magnus steps per
# block, counted over the spans stepped together: bound the long-double
# temporaries
_BLOCK = 128
_MAGNUS_BLOCK = 256
# exp(X) = sum_{k<=11} X^k/k! for ||X|| <= 1/8: the tail past k = 11 is below
# 2e-20.  The terms from X^4 on sum to less than ||X||^4/24 <= 1e-5, so they
# are float64 (rounding about 1e-21); I + X + X^2/2 + X^3/6 is long double.
_TAYLOR_TERMS = 11
_TAYLOR_RADIUS = 0.125
# 1/(j+r)! for r < 4: the rows p_4, p_8 of the tail X^4 (p_4 + X^4 p_8)
_TAIL = np.array([[1 / math.factorial(j + r) for r in range(4)]
                  for j in range(4, _TAYLOR_TERMS, 4)])
_FLOAT64_MAX = np.finfo(float).max


def _comm(x, y):
    return x @ y - y @ x


def _magnus_exponent(a: np.ndarray) -> np.ndarray:
    """Omega of each step from h * a at its three Gauss nodes: (..., 3, 3, 3)
    -> (..., 3, 3), by the sixth-order commutator formula.

    Omega - a1 is below 1e-6 of Omega on every integration measured, so a1
    and the node differences, which cancel, are long double, and a2, a3 and
    the correction are float64: about 1e-22 of Omega.
    """
    lo, a1, hi = a[..., 0, :, :], a[..., 1, :, :], a[..., 2, :, :]
    a2 = (hi - lo).astype(float) * (float(_SQRT15) / 3)
    a3 = (hi - 2 * a1 + lo).astype(float) * (10 / 3)
    b1 = a1.astype(float)
    c1 = _comm(b1, a2)
    c2 = _comm(b1, 2 * a3 + c1) / -60
    return a1 + (a3 / 12 + _comm(-20 * b1 - a3 + c1, a2 + c2) / 240)


def _expm(om: np.ndarray) -> np.ndarray:
    """exp of each matrix of a (..., 3, 3) stack: Taylor series, scaled by
    2^-s into the series' radius and squared s times, s per matrix.  The
    series' terms from x^4 on are float64 (``_TAYLOR_TERMS``)."""
    norm = np.abs(om.astype(float)).sum(axis=-1).max(axis=-1)
    squarings = np.zeros(norm.shape, int)
    big = (norm > _TAYLOR_RADIUS) & (norm < np.inf)
    squarings[big] = np.ceil(np.log2(norm[big] / _TAYLOR_RADIUS))
    # an exact power of two per matrix, cheaper than ldexp of each
    # long-double entry
    x = om * np.ldexp(1.0, -squarings)[..., None, None] if big.any() else om
    x2 = x @ x
    x3 = x2 @ x
    powers = np.empty((4,) + x.shape)  # I, x, x^2, x^3 in float64
    powers[0], powers[1], powers[2], powers[3] = np.eye(3), x, x2, x3
    p4, p8 = np.tensordot(_TAIL, powers, 1)
    x4 = powers[2] @ powers[2]
    e = x3  # I + x + x^2/2 + x^3/6 + tail, smallest terms first, in place
    e /= 6
    e += x4 @ (p4 + x4 @ p8)
    x2 /= 2
    e += x2
    e += x
    e += np.eye(3, dtype=om.dtype)
    for k in range(squarings.max(initial=0)):
        more = squarings > k
        e[more] = e[more] @ e[more]
    return e


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


def _kmu_steps(mu_bar: Expr, t, t_end, f):
    """The kmu Magnus steps from the times ``t`` to ``t_end`` (long double,
    (m,)) that start at f = ``f``: their lengths, and mu and lam^2 at their
    Gauss nodes."""
    mu_stage, _, rise = _steps("kmu", mu_bar, t, t_end)
    return t_end - t, mu_stage, np.exp(-2 * (f[:, None] + rise))


def _magnus_flow(h, mu_stage, lam2) -> np.ndarray:
    """exp(Omega) of each kmu Magnus step (``_kmu_steps``): (..., 3, 3)."""
    a = _generator("kmu", lam2, mu_stage.astype(np.longdouble))
    return _expm(_magnus_exponent(a * h[..., None, None, None]))


def _check_finite(variant, mu_bar: Expr, times, states, n0) -> None:
    """Raise at the node whose state (long double) or slope a(t) Y has no
    finite float64 value, which every reader of the states needs: the
    bad node fewest steps from t = 0 = ``times[n0]``, the later on a tie.
    The slopes are formed ``_BLOCK`` nodes at a time and not kept."""
    mu = mu_bar(times)
    finite = [(np.abs(y) <= _FLOAT64_MAX)
              & (np.abs(rhs(variant, y, mu[s:s + _BLOCK])) <= _FLOAT64_MAX)
              for s in range(0, len(times), _BLOCK)
              for y in [states[s:s + _BLOCK]]]
    bad = np.flatnonzero(~np.concatenate(finite).all(axis=-1))
    if len(bad):
        i = bad[np.argmin(2 * np.abs(bad - n0) + (bad < n0))]
        raise ConsistencyError(f"ODE state non-finite in float64 at t={times[i]}")


def _magnus_block(steps, out) -> None:
    """One block of kmu steps of the spans stepped together: carry the
    states ``out[k][0]`` into ``out[k][1:]``.  ``steps[k]`` holds the
    block's step data of span k (``_kmu_steps``); all spans have the
    block's number of steps.  A function of its own, so that no block's
    temporaries outlive it."""
    flow = _magnus_flow(*(np.stack(q, 1) for q in zip(*steps)))
    block = np.stack(out, 1)                           # (steps, spans, ...)
    ys = list(block[..., :9].reshape(block.shape[:2] + (3, 3)))
    for f, y, y_next in zip(flow, ys, ys[1:]):
        np.matmul(f, y, out=y_next)
    for k, y in enumerate(out):
        y[1:] = block[1:, k]


def _magnus_span(mu_bar: Expr, ts, out) -> None:
    """Carry each kmu span's state ``out[j][0]`` over its node times
    ``ts[j]`` into ``out[j][1:]``.

    Sixth-order Magnus with three Gauss nodes per step (Blanes, Casas, Oteo
    & Ros, Phys. Rep. 470, 2009), in long double.  The spans are stepped
    together: each step's exponential exp(Omega_n) is built for all of
    them in blocks of ``_MAGNUS_BLOCK`` steps in all, and only the 3x3
    products Y_{n+1} = exp(Omega_n) Y_n run in sequence, one stacked
    product per step while more than one span is left.  A span's states do
    not depend on the others.  ``out[j]`` is an (n_j + 1, 10) long-double
    array or view; f = 2t is written into its last column first.
    """
    steps = []
    for t, y in zip(ts, out):
        t = np.asarray(t, np.longdouble)
        y[1:, 9] = y[0, 9] + 2 * (t[1:] - t[0])
        steps.append(_kmu_steps(mu_bar, t[:-1], t[1:], y[:-1, 9]))
    s = 0
    while live := [j for j, t in enumerate(ts) if len(t) - 1 > s]:
        e = min([s + _MAGNUS_BLOCK // len(live)] + [len(ts[j]) - 1 for j in live])
        _magnus_block([[q[s:e] for q in steps[j]] for j in live],
                      [out[j][s:e + 1] for j in live])
        s = e


def _closed_form_rows(y, a) -> None:
    """Write the kmup solution F = M2 cosh A + M3 sinh A, H = -lam (M2 sinh
    A + M3 cosh A), B = lam M1 with A = ``a`` and lam = e^{-f}, f =
    ``y[:, 9]``, into ``y[:, :9]``."""
    lam = np.exp(-y[:, 9])
    y[:, :9] = 0
    y[:, 1], y[:, 2] = np.cosh(a), np.sinh(a)
    y[:, 4], y[:, 5] = -lam * y[:, 2], -lam * y[:, 1]
    y[:, 6] = lam


def _closed_form_span(mu_bar: Expr, ts, out) -> None:
    """Write the kmup solution at the node times ``ts[1:]`` of a span that
    starts at t = 0 into ``out[1:]``.

    With f = int_0^t (mu + 2), lam = e^{-f} and A = -2 int_0^t lam, the
    flow's exact solution is ``_closed_form_rows``.  f and A are sums of
    three-node Gauss-Legendre quadratures over the steps, lam at each Gauss
    node from f at its step's start and one partial quadrature
    (``_steps``), all in long double.
    """
    t = np.asarray(ts, np.longdouble)
    rise, rise_stage = _steps("kmup", mu_bar, t[:-1], t[1:])[1:]
    out[1:, 9] = np.cumsum(rise)
    lam_stage = np.exp(-(out[:-1, 9, None] + rise_stage))
    a = np.cumsum(-2 * np.diff(t) * (lam_stage @ _GAUSS_W))
    _closed_form_rows(out[1:], a)


@dataclass
class Trajectory:
    """Node-sampled solution of the variant's flow and its one lookup.

    Nodes are uniformly spaced by ``step`` and include t=0 with the
    variant's initial conditions; ``states`` holds the long-double state at
    every node.  :meth:`dense` reads the solution at any time of the
    integrated range, off the nodes by one partial step of the variant's
    own scheme.
    """

    variant: str
    mu_bar: Expr
    step: float
    times: np.ndarray    # (m,)
    states: np.ndarray   # (m, 10), long double

    @property
    def t_min(self) -> float:
        return float(self.times[0])

    @property
    def t_max(self) -> float:
        return float(self.times[-1])

    def dense(self, ts) -> np.ndarray:
        """Long-double state vectors at arbitrary times: the node state at a
        stored node, elsewhere one partial step from the nearest node, for
        kmu one Magnus step over [t_node, t], for kmup one partial
        Gauss-Legendre quadrature of f and A (``_closed_form_span``)."""
        ts = np.asarray(ts, float)
        if np.any(ts < self.t_min - 1e-12) or np.any(ts > self.t_max + 1e-12):
            raise ValueError(f"time outside [{self.t_min}, {self.t_max}]")
        pos = (ts - self.t_min) / self.step
        nearest = np.clip(np.round(pos).astype(int), 0, len(self.times) - 1)
        out = np.take(self.states, nearest, axis=0)  # a copy, also for a scalar
        off = np.abs(pos - nearest) >= 1e-9
        if off.any():
            t0 = self.times[nearest[off]].astype(np.longdouble)
            t, y = ts[off].astype(np.longdouble), out[off]
            if self.variant == "kmu":
                flow = _magnus_flow(*_kmu_steps(self.mu_bar, t0, t, y[:, 9]))
                y[:, :9] = (flow @ y[:, :9].reshape(-1, 3, 3)).reshape(-1, 9)
                y[:, 9] = 2 * t
            else:
                rise, rise_stage = _steps("kmup", self.mu_bar, t0, t)[1:]
                lam_stage = np.exp(-(y[:, 9, None] + rise_stage))
                a = (np.log(y[:, 1] + y[:, 2])
                     - 2 * (t - t0) * (lam_stage @ _GAUSS_W))
                y[:, 9] += rise
                _closed_form_rows(y, a)
            out[off] = y
        return out


def integrate(variant: str, mu_bar: Expr, t_range: tuple[float, float],
              step: float = 1e-3) -> Trajectory:
    """Integrate from t=0 forward to t1 and backward to t0: kmu by Magnus
    steps, both directions stepped together, kmup in closed form.

    ``step`` must be positive and at most 1e-2; endpoints are realized as
    integer numbers of steps (rounded), at least one in all.  A node count
    whose arrays cannot be allocated is bad input too (``ValueError``).  The
    startup consistency check runs first and aborts on any inexact initial
    relation.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    if not 0 < step <= 1e-2:
        raise ValueError("step must be in (0, 1e-2]")
    t0, t1 = map(float, t_range)
    if not (np.isfinite(t0) and np.isfinite(t1) and t0 <= 0.0 <= t1 and t0 < t1):
        raise ValueError("t-range must be a finite interval containing 0")
    check_initial_relations(variant)
    n_back = int(round(-t0 / step))
    n_fwd = int(round(t1 / step))
    if n_back + n_fwd == 0:
        raise ValueError(f"t-range [{t0}, {t1}] rounds to the single node "
                         f"t=0 at step {step}")
    try:  # the largest array first, before any is written
        states = np.empty((n_back + n_fwd + 1, 10), np.longdouble)
        times = np.arange(-n_back, n_fwd + 1) * step
    except (MemoryError, ValueError) as ex:
        raise ValueError(f"step {step} needs {n_back + n_fwd + 1} nodes, "
                         f"which cannot be allocated ({ex})") from None
    states[n_back] = initial_state(variant)
    spans = [(times[s], states[s])
             for s in (slice(n_back, None), slice(n_back, None, -1))
             if len(times[s]) > 1]
    # a non-finite node raises: no overflow warnings first
    with np.errstate(over="ignore", invalid="ignore"):
        if variant == "kmu":
            _magnus_span(mu_bar, *zip(*spans))
        else:
            for span in spans:
                _closed_form_span(mu_bar, *span)
        _check_finite(variant, mu_bar, times, states, n_back)
    return Trajectory(variant, mu_bar, step, times, states)


def trajectory_to_csv(traj: Trajectory, path) -> float:
    """One row per node: t, nine components, lambda, k, maxAlgResidual, detG.

    The invariants come from the long-double states; every column is
    written as float64, ``_BLOCK`` rows at a time.  Returns the largest
    maxAlgResidual.
    """
    header = "t,f1,f2,f3,h1,h2,h3,b1,b2,b3,lambda,k,maxAlgResidual,detG"
    row_fmt = ",".join(["%.17g"] * 14) + "\r\n"
    worst = 0.0
    with open(path, "w", newline="") as fh:
        # CRLF row ends, as the csv module's default dialect writes them
        fh.write(header + "\r\n")
        for s in range(0, len(traj.times), _BLOCK):
            t, y = traj.times[s:s + _BLOCK], traj.states[s:s + _BLOCK]
            res = algebraic_residuals(y, traj.variant)
            max_res = np.max(np.stack(list(res.values())), axis=0)
            lam = _lam(y)
            rows = np.column_stack(
                [t, y[:, :9], lam, -1.0 - lam * lam, max_res, _det_g(y)])
            # one %-format of the whole block: np.savetxt's bytes, row by row
            values = tuple(rows.astype(float).ravel().tolist())
            fh.write(row_fmt * len(rows) % values)
            worst = max(worst, float(max_res.max()))
    return worst
