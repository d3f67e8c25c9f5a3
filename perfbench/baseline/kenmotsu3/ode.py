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

Integration is classical fixed-step 4th-order Runge-Kutta, forward and
backward from t=0, dense output by cubic Hermite with ODE-exact slopes.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .exprs import Expr

__all__ = [
    "M1", "M2", "M3",
    "ConsistencyError",
    "StateFHB",
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


@dataclass(frozen=True)
class StateFHB:
    """ODE state at time ``t``: nine basis components plus the kmup integral."""

    t: float
    f: tuple[float, float, float]
    h: tuple[float, float, float]
    b: tuple[float, float, float]
    fint: float = 0.0  # integral of (mu+2) from 0 to t (kmup only)

    def vector(self) -> np.ndarray:
        return np.array(self.f + self.h + self.b + (self.fint,), dtype=float)

    @staticmethod
    def from_vector(t: float, y: np.ndarray) -> "StateFHB":
        y = np.asarray(y, float)
        return StateFHB(float(t), tuple(y[0:3]), tuple(y[3:6]), tuple(y[6:9]),
                        float(y[9]) if y.size > 9 else 0.0)

    @property
    def F(self) -> np.ndarray:
        return _as_matrix(np.asarray(self.f))

    @property
    def H(self) -> np.ndarray:
        return _as_matrix(np.asarray(self.h))

    @property
    def B(self) -> np.ndarray:
        return _as_matrix(np.asarray(self.b))

    def lam(self, variant: str) -> float:
        return float(np.exp(-2.0 * self.t) if variant == "kmu"
                     else np.exp(-self.fint))


def initial_state(variant: str) -> StateFHB:
    if variant == "kmu":
        return StateFHB(0.0, (0.0, 1.0, 0.0), (0.0, 0.0, -1.0), (-1.0, 0.0, 0.0))
    if variant == "kmup":
        return StateFHB(0.0, (0.0, 1.0, 0.0), (0.0, 0.0, -1.0), (1.0, 0.0, 0.0))
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
        if y.size > 9:
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
    res = algebraic_residuals(initial_state(variant), variant)
    if any(v != 0.0 for v in res.values()):
        raise ConsistencyError(
            f"initial algebraic relations not exact for {variant}: {res}")
    return res


def algebraic_residuals(state: StateFHB, variant: str) -> dict[str, float]:
    """Max-norm of each of the ten matrix/scalar relation residuals.

    The three product relations depend on the variant (B holds phi o h for
    kmu but h o phi = h' for kmup, which flips their signs):

      kmu :  B@H = lam^2 F,   B@F = H,    F@H = B
      kmup:  B@H = -lam^2 F,  B@F = -H,   H@F = B
    """
    F, H, B = state.F, state.H, state.B
    lam2 = state.lam(variant) ** 2
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
    out = {k: float(np.max(np.abs(v))) for k, v in res.items()}
    f1, f2, f3 = state.f
    out["detG"] = abs((f2 - f3) * (f2 + f3) - f1 * f1 - 1.0)
    return out


def metric_from_state(state: StateFHB) -> np.ndarray:
    """G = -M2 F = [[f2-f3, f1], [f1, f2+f3]]; symmetric positive definite."""
    f1, f2, f3 = state.f
    g = np.array([[f2 - f3, f1], [f1, f2 + f3]])
    if not (g[0, 0] > 0 and np.linalg.det(g) > 0):
        raise ConsistencyError(
            f"leaf metric lost positive definiteness at t={state.t}: {g.tolist()}")
    return g


# --------------------------------------------------------------------------
# Integration
# --------------------------------------------------------------------------

def _rk4_span(variant, mu_of_t, y0, t0, n_steps, step):
    """Fixed-step RK4 over n_steps of signed size ``step`` starting at t0."""
    ys = np.empty((n_steps + 1, y0.size))
    ys[0] = y0
    y = y0.copy()
    for i in range(n_steps):
        t = t0 + i * step
        k1 = rhs(variant, y, t, mu_of_t(t))
        k2 = rhs(variant, y + 0.5 * step * k1, t + 0.5 * step,
                 mu_of_t(t + 0.5 * step))
        k3 = rhs(variant, y + 0.5 * step * k2, t + 0.5 * step,
                 mu_of_t(t + 0.5 * step))
        k4 = rhs(variant, y + step * k3, t + step, mu_of_t(t + step))
        y = y + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(y)):
            raise ConsistencyError(f"ODE state non-finite at t={t + step}")
        ys[i + 1] = y
    return ys


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

    def state(self, t: float) -> StateFHB:
        return StateFHB.from_vector(t, self.dense(np.atleast_1d(t))[0])

    def node_states(self):
        return [StateFHB.from_vector(t, y)
                for t, y in zip(self.times, self.states)]

    def dense(self, ts) -> np.ndarray:
        """State vectors at arbitrary times; exact at stored nodes."""
        ts = np.asarray(ts, float)
        if np.any(ts < self.t_min - 1e-12) or np.any(ts > self.t_max + 1e-12):
            raise ValueError(f"time outside [{self.t_min}, {self.t_max}]")
        pos = (ts - self.t_min) / self.step
        nearest = np.clip(np.round(pos).astype(int), 0, len(self.times) - 1)
        on_node = np.abs(pos - nearest) < 1e-9
        idx = np.minimum(np.floor(pos).astype(int), len(self.times) - 2)
        idx = np.where(on_node, np.minimum(nearest, len(self.times) - 2), idx)
        s = np.where(on_node, 0.0, pos - idx)[:, None]
        y0, y1 = self.states[idx], self.states[idx + 1]
        d0, d1 = self.derivs[idx] * self.step, self.derivs[idx + 1] * self.step
        h00 = 2 * s**3 - 3 * s**2 + 1
        h10 = s**3 - 2 * s**2 + s
        h01 = -2 * s**3 + 3 * s**2
        h11 = s**3 - s**2
        out = h00 * y0 + h10 * d0 + h01 * y1 + h11 * d1
        # nodes exactly: overwrite (s=0 already gives y0, but be explicit for
        # the t_max node where idx was pulled back)
        out[on_node.nonzero()] = self.states[nearest[on_node]]
        return out

    def lam(self, ts) -> np.ndarray:
        ts = np.asarray(ts, float)
        if self.variant == "kmu":
            return np.exp(-2.0 * ts)
        return np.exp(-self.dense(ts)[:, 9])

    def k_nominal(self, ts) -> np.ndarray:
        return -1.0 - self.lam(ts) ** 2

    def max_algebraic_residual(self, t: float) -> float:
        return max(algebraic_residuals(self.state(t), self.variant).values())


def integrate(variant: str, mu_bar: Expr, t_range: tuple[float, float],
              step: float = 1e-3, ic: StateFHB | None = None) -> Trajectory:
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
    if ic is None:
        ic = initial_state(variant)
    elif ic.t != 0.0:
        raise ValueError("initial condition must sit at t=0")
    y0 = ic.vector()

    def mu_of_t(t):
        return float(mu_bar(t))

    n_back = int(round(-t0 / step))
    n_fwd = int(round(t1 / step))
    fwd = _rk4_span(variant, mu_of_t, y0, 0.0, n_fwd, step)
    back = _rk4_span(variant, mu_of_t, y0, 0.0, n_back, -step)
    states = np.vstack([back[::-1], fwd[1:]]) if n_back else fwd
    times = (np.arange(-n_back, n_fwd + 1)) * step
    derivs = np.stack([
        rhs(variant, states[i], times[i], mu_of_t(times[i]))
        for i in range(len(times))])
    return Trajectory(variant, mu_bar, step, times, states, derivs)


def trajectory_to_csv(traj: Trajectory, path) -> None:
    """One row per node: t, nine components, lambda, k, maxAlgResidual, detG."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "f1", "f2", "f3", "h1", "h2", "h3",
                         "b1", "b2", "b3", "lambda", "k",
                         "maxAlgResidual", "detG"])
        for st in traj.node_states():
            res = algebraic_residuals(st, traj.variant)
            lam = st.lam(traj.variant)
            row = (st.t, *st.f, *st.h, *st.b, lam, -1.0 - lam * lam,
                   max(res.values()),
                   (st.f[1] - st.f[2]) * (st.f[1] + st.f[2]) - st.f[0] ** 2)
            writer.writerow([f"{v:.17g}" for v in row])
