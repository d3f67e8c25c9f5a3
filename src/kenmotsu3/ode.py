"""The nine-component linear matrix ODE behind the Darboux-like models.

Three 2x2 functional matrices F, H, B expand over the constant basis
M1 = [[1,0],[0,-1]], M2 = [[0,1],[-1,0]], M3 = [[0,1],[1,0]], giving nine
scalar components (f1,f2,f3,h1,h2,h3,b1,b2,b3).  Two variants:

  kmu :  F' = 2H,  H' = 2*lam^2*F - 2H - mu*B,  B' = mu*H - 2B,
         lam = e^{-2t};  B carries the components of phi o h.
  kmup:  F' = 2H,  H' = 2*lam^2*F - (mu+2)*H,  B' = -(mu+2)*B,
         lam = e^{-fint}, fint' = mu + 2, fint(0)=0;  B carries h o phi.

Initial conditions at t = 0:

  kmu :  F = M2, H = -M3, B = -M1   (b1(0) = -1: the unique value making
         B = F@H, H = B@F, F = lam^{-2} B@H hold exactly at t=0 under
         column-vector composition; asserted by check_initial_relations)
  kmup:  F = M2, H = -M3, B = M1    (B = H@F at t=0)

A node's state is the vector (f1..f3, h1..h3, b1..b3, fint); a trajectory
is the (m, 10) array of its nodes.  Integration is classical fixed-step
4th-order Runge-Kutta, forward and backward from t=0, with mu evaluated
once per direction on all stage times; the first RK4 stages give the node
slopes of the cubic-Hermite dense output.
"""

from __future__ import annotations

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
    """State vector (f1..f3, h1..h3, b1..b3, fint) at t = 0."""
    if variant == "kmu":
        return np.array([0.0, 1.0, 0.0, 0.0, 0.0, -1.0, -1.0, 0.0, 0.0, 0.0])
    if variant == "kmup":
        return np.array([0.0, 1.0, 0.0, 0.0, 0.0, -1.0, 1.0, 0.0, 0.0, 0.0])
    raise ValueError(f"unknown variant {variant!r}")


def rhs(variant: str, y: np.ndarray, t: float, mu_value: float) -> np.ndarray:
    """Componentwise derivative in the (M1, M2, M3) basis (plus fint')."""
    f, h, b = y[0:3], y[3:6], y[6:9]
    out = np.empty_like(y)
    out[0:3] = 2.0 * h
    if variant == "kmu":
        lam2 = np.exp(-4.0 * t)
        out[3:6] = 2.0 * lam2 * f - 2.0 * h - mu_value * b
        out[6:9] = mu_value * h - 2.0 * b
        out[9] = 0.0
    else:
        lam2 = np.exp(-2.0 * y[9])
        mp2 = mu_value + 2.0
        out[3:6] = 2.0 * lam2 * f - mp2 * h
        out[6:9] = -mp2 * b
        out[9] = mp2
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
           algebraic_residuals(0.0, initial_state(variant), variant).items()}
    if any(v != 0.0 for v in res.values()):
        raise ConsistencyError(
            f"initial algebraic relations not exact for {variant}: {res}")
    return res


def _lam(t, y, variant: str) -> np.ndarray:
    return np.exp(-2.0 * t) if variant == "kmu" else np.exp(-y[..., 9])


def _det_g(y: np.ndarray) -> np.ndarray:
    f1, f2, f3 = y[..., 0], y[..., 1], y[..., 2]
    return (f2 - f3) * (f2 + f3) - f1 * f1


def algebraic_residuals(t, y, variant: str) -> dict[str, np.ndarray]:
    """Max-norm of each of the ten matrix/scalar relation residuals.

    ``t`` has shape (...) and ``y`` shape (..., 10); every value has the
    shape of ``t``.  The three product relations depend on the variant (B
    holds phi o h for kmu but h o phi = h' for kmup, which flips their
    signs):

      kmu :  B@H = lam^2 F,   B@F = H,    F@H = B
      kmup:  B@H = -lam^2 F,  B@F = -H,   H@F = B
    """
    F, H, B = (_as_matrix(y[..., i:i + 3]) for i in (0, 3, 6))
    lam2 = (_lam(t, y, variant) ** 2)[..., None, None]
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


def metric_from_state(t, y) -> np.ndarray:
    """G = -M2 F = [[f2-f3, f1], [f1, f2+f3]]; symmetric positive definite.

    ``t`` has shape (...) and ``y`` shape (..., 10); raises
    :class:`ConsistencyError` at the first node whose G is not.
    """
    g = -M2 @ _as_matrix(y[..., 0:3])
    bad = np.ravel(~((g[..., 0, 0] > 0) & (_det_g(y) > 0)))
    if bad.any():
        i = int(np.argmax(bad))
        raise ConsistencyError(
            "leaf metric lost positive definiteness at "
            f"t={float(np.ravel(t)[i])}: {g.reshape(-1, 2, 2)[i].tolist()}")
    return g


# --------------------------------------------------------------------------
# Integration
# --------------------------------------------------------------------------

def _rk4_span(variant, mu_bar: Expr, y0, t0, n_steps, step):
    """Fixed-step RK4 over n_steps of signed size ``step`` starting at t0.

    mu is evaluated once, on the stage times, none of which lies past the
    last node.  Returns the node states and the ODE slopes at the nodes (the
    first RK4 stage of each step, plus the slope at the last node), both of
    shape (n_steps + 1, 10).
    """
    ts = t0 + np.arange(n_steps + 1) * step
    mus = mu_bar(np.concatenate([ts, ts[:-1] + 0.5 * step, ts[:-1] + step]))
    mu_t, mu_half, mu_full = np.split(mus, [n_steps + 1, 2 * n_steps + 1])
    ys = np.empty((n_steps + 1, y0.size))
    ks = np.empty_like(ys)
    ys[0] = y0
    for i in range(n_steps):
        t, y = ts[i], ys[i]
        k1 = ks[i] = rhs(variant, y, t, mu_t[i])
        k2 = rhs(variant, y + 0.5 * step * k1, t + 0.5 * step, mu_half[i])
        k3 = rhs(variant, y + 0.5 * step * k2, t + 0.5 * step, mu_half[i])
        k4 = rhs(variant, y + step * k3, t + step, mu_full[i])
        ys[i + 1] = y + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(ys[i + 1])):
            raise ConsistencyError(f"ODE state non-finite at t={t + step}")
    ks[n_steps] = rhs(variant, ys[n_steps], ts[n_steps], mu_t[n_steps])
    return ys, ks


@dataclass
class Trajectory:
    """Node-sampled solution with dense cubic-Hermite evaluation.

    Nodes are uniformly spaced by ``step`` and include t=0 with the variant's
    initial conditions.  ``derivs`` holds the ODE right-hand side at every
    node, so dense output (and differentiation snapped to nodes) never sees
    finite-difference noise in the time direction.
    """

    variant: str
    mu_bar: Expr
    step: float
    times: np.ndarray    # (m,)
    states: np.ndarray   # (m, 10)
    derivs: np.ndarray   # (m, 10)

    @property
    def t_min(self) -> float:
        return float(self.times[0])

    @property
    def t_max(self) -> float:
        return float(self.times[-1])

    def dense(self, ts) -> np.ndarray:
        """State vectors at arbitrary times; exact at stored nodes."""
        ts = np.asarray(ts, float)
        if np.any(ts < self.t_min - 1e-12) or np.any(ts > self.t_max + 1e-12):
            raise ValueError(f"time outside [{self.t_min}, {self.t_max}]")
        pos = (ts - self.t_min) / self.step
        nearest = np.clip(np.round(pos).astype(int), 0, len(self.times) - 1)
        out = self.states[nearest]
        off = np.abs(pos - nearest) >= 1e-9
        if off.any():  # Darboux models look up node times only
            idx = np.minimum(np.floor(pos[off]).astype(int), len(self.times) - 2)
            s = (pos[off] - idx)[:, None]
            y0, y1 = self.states[idx], self.states[idx + 1]
            d0, d1 = self.derivs[idx] * self.step, self.derivs[idx + 1] * self.step
            h00 = 2 * s**3 - 3 * s**2 + 1
            h10 = s**3 - 2 * s**2 + s
            h01 = -2 * s**3 + 3 * s**2
            h11 = s**3 - s**2
            out[off] = h00 * y0 + h10 * d0 + h01 * y1 + h11 * d1
        return out

    def lam(self, ts) -> np.ndarray:
        ts = np.asarray(ts, float)
        if self.variant == "kmu":
            return np.exp(-2.0 * ts)
        return np.exp(-self.dense(ts)[:, 9])

    def k_nominal(self, ts) -> np.ndarray:
        return -1.0 - self.lam(ts) ** 2


def integrate(variant: str, mu_bar: Expr, t_range: tuple[float, float],
              step: float = 1e-3) -> Trajectory:
    """Integrate from t=0 forward to t1 and backward to t0.

    ``step`` must be positive and at most 1e-2; endpoints are realized as
    integer numbers of steps (rounded).  The startup consistency check runs
    first and aborts on any inexact initial relation.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    if not 0 < step <= 1e-2:
        raise ValueError("step must be in (0, 1e-2]")
    t0, t1 = map(float, t_range)
    if not (np.isfinite(t0) and np.isfinite(t1) and t0 <= 0.0 <= t1 and t0 < t1):
        raise ValueError("t-range must be a finite interval containing 0")
    check_initial_relations(variant)
    y0 = initial_state(variant)
    n_back = int(round(-t0 / step))
    n_fwd = int(round(t1 / step))
    fwd, dfwd = _rk4_span(variant, mu_bar, y0, 0.0, n_fwd, step)
    back, dback = _rk4_span(variant, mu_bar, y0, 0.0, n_back, -step)
    states = np.vstack([back[:0:-1], fwd])
    derivs = np.vstack([dback[:0:-1], dfwd])
    times = (np.arange(-n_back, n_fwd + 1)) * step
    return Trajectory(variant, mu_bar, step, times, states, derivs)


def trajectory_to_csv(traj: Trajectory, path) -> float:
    """One row per node: t, nine components, lambda, k, maxAlgResidual, detG.

    Returns the largest maxAlgResidual.
    """
    t, y = traj.times, traj.states
    res = algebraic_residuals(t, y, traj.variant)
    max_res = np.max(np.stack(list(res.values())), axis=0)
    lam = _lam(t, y, traj.variant)
    rows = np.column_stack(
        [t, y[:, :9], lam, -1.0 - lam * lam, max_res, _det_g(y)])
    header = "t,f1,f2,f3,h1,h2,h3,b1,b2,b3,lambda,k,maxAlgResidual,detG"
    with open(path, "w", newline="") as fh:
        # CRLF row ends, as the csv module's default dialect writes them
        np.savetxt(fh, rows, fmt="%.17g", delimiter=",", newline="\r\n",
                   header=header, comments="")
    return float(max_res.max())
