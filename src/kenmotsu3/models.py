"""Builders for the explicit model families.

Chart families (coordinates x, y, z on {z < -1}, lam = sqrt(-1-z), k = z):

  kmu-chart   xi = alpha d_x + beta d_y - 4(z+1) d_z,
              eta = -dz / (4(1+z)),
              alpha = x - (mu/2 + lam) y + f(z),
              beta  = (mu/2 - lam) x + y + r(z),
              phi, g the standard matrices of such a frame; h e1 = lam e1.

  kmup-chart  xi = a d_x + b d_y - 2(z+1)(mu+2) d_z,
              eta = -dz / (2(1+z)(mu+2)),
              a = x (1 + lam) + f(z),  b = y (1 - lam) + r(z);
              h' e1 = lam e1.

Chart fields carry exact partials: the builders give (a, b, c) of xi
together with their partials, from mu', f', r' (``Expr.diff``) and
lam' = -1/(2 lam).

Darboux families (coordinates x, y, t): phi's spatial block is the F(t) of
the matrix ODE, g = dt^2 + e^{2t} G(t) with G = -M2 F, xi = d_t, eta = dt.

Baseline (coordinates x, y, t): the warped product g = dt^2 +
c^2 e^{2t}(dx^2 + dy^2) with h = 0, k = -1.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .exprs import Expr, parse_expr
from .fields import (
    ChartDomain,
    CovectorField,
    MetricField,
    ScalarField,
    Tensor11Field,
    VectorField,
)
from .ode import M2, _as_matrix, integrate, metric_from_state
from .structure import AlmostContactModel

__all__ = [
    "KmuChartParams",
    "KmupChartParams",
    "DarbouxParams",
    "build_kmu_chart_model",
    "build_kmu_prime_chart_model",
    "build_darboux_model",
    "build_kenmotsu_baseline",
    "model_to_json",
    "model_from_params",
    "model_from_json",
    "parse_box",
]

Box = tuple[tuple[float, float], tuple[float, float], tuple[float, float]]

# the chart families' default box; its x, y intervals are the Darboux ones
DEFAULT_BOX: Box = ((0.0, 1.0), (0.0, 1.0), (-3.0, -1.5))
Z_MARGIN = 1e-3


def parse_box(text: str) -> Box:
    """Parse "x0,x1:y0,y1:z0,z1" into interval pairs."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"box must have 3 ':'-separated intervals: {text!r}")
    box = []
    for part in parts:
        nums = part.split(",")
        if len(nums) != 2:
            raise ValueError(f"interval must be 'lo,hi': {part!r}")
        lo, hi = float(nums[0]), float(nums[1])
        if not lo < hi:
            raise ValueError(f"empty interval in box: {part!r}")
        box.append((lo, hi))
    return tuple(box)


def _require_box_in_half_space(box: Box) -> None:
    if box[2][1] > -1.0 - Z_MARGIN:
        raise ValueError(
            f"sample box must satisfy z <= -1 - {Z_MARGIN}; got z-hi {box[2][1]}")


def _expr_or_default(e: Expr | str | None, var: str, default: str) -> Expr:
    if e is None:
        return parse_expr(default, var)
    if isinstance(e, str):
        return parse_expr(e, var)
    return e


def _dt_covector(pts):
    """Components (n, 3) of dt (the Darboux and baseline xi and eta)."""
    out = np.zeros((pts.shape[0], 3))
    out[:, 2] = 1.0
    return out


def _on_axis2(block):
    """Partials (n, 3) + block shape: ``block`` along the third axis, 0
    along the first two."""
    out = np.zeros((len(block), 3) + block.shape[1:])
    out[:, 2] = block
    return out


@dataclass(frozen=True)
class KmuChartParams:
    """Inputs for the kmu chart family; mu, f, r are functions of z."""

    mu: Expr | str | None = None
    f: Expr | str | None = None
    r: Expr | str | None = None
    box: Box = DEFAULT_BOX

    def resolved(self):
        _require_box_in_half_space(self.box)
        return tuple(_expr_or_default(e, "z", "0") for e in (self.mu, self.f, self.r))


@dataclass(frozen=True)
class KmupChartParams(KmuChartParams):
    """Inputs for the kmup chart family; requires mu(z) != -2 on the box."""

    def resolved(self):
        mu, f, r = super().resolved()
        zs = np.linspace(self.box[2][0], self.box[2][1], 513)
        if np.min(np.abs(mu(zs) + 2.0)) < 1e-6:
            raise ValueError("mu(z) + 2 vanishes (or nearly) on the z-box")
        return mu, f, r


@dataclass(frozen=True)
class DarbouxParams:
    """Inputs for the Darboux-like families; mu_bar is a function of t.

    The t-interval must be finite and contain 0.  mu_bar = -2 is accepted
    for the kmup variant (it makes B constant and k constant; only the kmup
    *chart* construction needs mu != -2).
    """

    variant: str = "kmu"
    mu_bar: Expr | str | None = None
    t_range: tuple[float, float] = (-1.0, 1.0)
    step: float = 1e-3
    xy_box: tuple[tuple[float, float], tuple[float, float]] = DEFAULT_BOX[:2]

    def resolved(self) -> Expr:
        if self.variant not in ("kmu", "kmup"):
            raise ValueError(f"variant must be kmu or kmup, got {self.variant!r}")
        return _expr_or_default(self.mu_bar, "t", "0")


# --------------------------------------------------------------------------
# Chart families
# --------------------------------------------------------------------------

def _quotient_partials(u, c, du, dc):
    """Partials (n, 3) of u/c from those of u and c (quotient rule)."""
    return (du - (u / c)[:, None] * dc) / c[:, None]


def _chart_fields(domain, coeff_fn, dcoeff_fn):
    """Assemble (phi, xi, eta, g) from per-point (a, b, c) coefficients.

    Both chart families share the frame structure e1 = d_x, e2 = d_y,
    e3 = xi = a d_x + b d_y - c d_z with eta = -dz/c:

        g   = [[1, 0, a/c], [0, 1, b/c], [a/c, b/c, (1+a^2+b^2)/c^2]]
        phi = [[0, -1, -b/c], [1, 0, a/c], [0, 0, 0]]

    ``coeff_fn`` maps points to ``(a, b, c)`` and ``dcoeff_fn`` to their
    partials ``(da, db, dc)``, each ``(n, 3)``, axis last; every field
    carries its exact partials, from these by the quotient rule, and a value
    alone evaluates no partial.
    """

    def phi_fn(pts):
        a, b, c = coeff_fn(pts)
        out = np.zeros((pts.shape[0], 3, 3))
        out[:, 0, 1] = -1.0
        out[:, 1, 0] = 1.0
        out[:, 0, 2] = -b / c
        out[:, 1, 2] = a / c
        return out

    def dphi_fn(pts):
        (a, b, c), (da, db, dc) = coeff_fn(pts), dcoeff_fn(pts)
        out = np.zeros((pts.shape[0], 3, 3, 3))
        out[:, :, 0, 2] = -_quotient_partials(b, c, db, dc)
        out[:, :, 1, 2] = _quotient_partials(a, c, da, dc)
        return out

    def xi_fn(pts):
        a, b, c = coeff_fn(pts)
        return np.stack([a, b, -c], axis=1)

    def dxi_fn(pts):
        da, db, dc = dcoeff_fn(pts)
        return np.stack([da, db, -dc], axis=2)

    def eta_fn(pts):
        _, _, c = coeff_fn(pts)
        out = np.zeros((pts.shape[0], 3))
        out[:, 2] = -1.0 / c
        return out

    def deta_fn(pts):  # d(-1/c) = dc / c^2
        (_, _, c), (_, _, dc) = coeff_fn(pts), dcoeff_fn(pts)
        out = np.zeros((pts.shape[0], 3, 3))
        out[:, :, 2] = dc / (c * c)[:, None]
        return out

    def g_fn(pts):
        a, b, c = coeff_fn(pts)
        out = np.zeros((pts.shape[0], 3, 3))
        out[:, 0, 0] = 1.0
        out[:, 1, 1] = 1.0
        out[:, 0, 2] = out[:, 2, 0] = a / c
        out[:, 1, 2] = out[:, 2, 1] = b / c
        out[:, 2, 2] = (1.0 + a * a + b * b) / (c * c)
        return out

    def dg_fn(pts):
        (a, b, c), (da, db, dc) = coeff_fn(pts), dcoeff_fn(pts)
        out = np.zeros((pts.shape[0], 3, 3, 3))
        out[:, :, 0, 2] = out[:, :, 2, 0] = _quotient_partials(a, c, da, dc)
        out[:, :, 1, 2] = out[:, :, 2, 1] = _quotient_partials(b, c, db, dc)
        out[:, :, 2, 2] = _quotient_partials(
            1.0 + a * a + b * b, c * c,
            2.0 * (a[:, None] * da + b[:, None] * db), 2.0 * c[:, None] * dc)
        return out

    return (Tensor11Field(phi_fn, domain, partials=dphi_fn, name="phi"),
            VectorField(xi_fn, domain, partials=dxi_fn, name="xi"),
            CovectorField(eta_fn, domain, partials=deta_fn, name="eta"),
            MetricField(g_fn, domain, partials=dg_fn, name="g"))


def _chart_model(family: str, variant: str, box: Box, mu: Expr, f: Expr,
                 r: Expr, coeff_fn, dcoeff_fn) -> AlmostContactModel:
    """A chart model with nominal k = z, lam = sqrt(-1-z) and the given mu;
    k, mu and lam carry their exact z-partials."""
    dmu = mu.diff()
    domain = ChartDomain(((-np.inf, np.inf), (-np.inf, np.inf), (-np.inf, -1.0)))
    phi, xi, eta, g = _chart_fields(domain, coeff_fn, dcoeff_fn)

    def dlam(p):  # lam' = -1/(2 lam)
        return _on_axis2(-0.5 / np.sqrt(-1.0 - p[:, 2]))

    return AlmostContactModel(
        family=family, variant=variant, coords=("x", "y", "z"),
        domain=domain, default_box=box,
        phi=phi, xi=xi, eta=eta, g=g,
        k_nom=ScalarField(lambda p: p[:, 2].copy(), domain,
                          partials=lambda p: _on_axis2(np.ones(len(p))), name="k"),
        mu_nom=ScalarField(lambda p: mu(p[:, 2]), domain,
                           partials=lambda p: _on_axis2(dmu(p[:, 2])), name="mu"),
        lam_nom=ScalarField(lambda p: np.sqrt(-1.0 - p[:, 2]), domain,
                            partials=dlam, name="lam"),
        params={"mu": str(mu), "f": str(f), "r": str(r),
                "box": [list(iv) for iv in box]},
    )


def _chart_inputs(pts):
    """x, y, z, lam = sqrt(-1-z), lam' = -1/(2 lam), and 0, 1 columns."""
    x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
    lam = np.sqrt(-1.0 - z)
    return x, y, z, lam, -0.5 / lam, np.zeros_like(z), np.ones_like(z)


def build_kmu_chart_model(params: KmuChartParams) -> AlmostContactModel:
    """The kmu chart family on {z < -1} with nominal k = z."""
    mu, f, r = params.resolved()
    dmu, df, dr = mu.diff(), f.diff(), r.diff()

    def coeff(pts):
        x, y, z, lam = _chart_inputs(pts)[:4]
        muv = mu(z)
        return (x - (0.5 * muv + lam) * y + f(z),
                (0.5 * muv - lam) * x + y + r(z), 4.0 * (1.0 + z))

    def dcoeff(pts):
        x, y, z, lam, dlam, zero, one = _chart_inputs(pts)
        muv, dmuv = mu(z), dmu(z)
        dalpha = np.stack([one, -(0.5 * muv + lam),
                           -(0.5 * dmuv + dlam) * y + df(z)], axis=1)
        dbeta = np.stack([0.5 * muv - lam, one,
                          (0.5 * dmuv - dlam) * x + dr(z)], axis=1)
        return dalpha, dbeta, np.stack([zero, zero, 4.0 * one], axis=1)

    return _chart_model("kmu-chart", "h", params.box, mu, f, r, coeff, dcoeff)


def build_kmu_prime_chart_model(params: KmupChartParams) -> AlmostContactModel:
    """The kmup chart family on {z < -1}, mu != -2, nominal k = z."""
    mu, f, r = params.resolved()
    dmu, df, dr = mu.diff(), f.diff(), r.diff()

    def coeff(pts):
        x, y, z, lam = _chart_inputs(pts)[:4]
        return (x * (1.0 + lam) + f(z), y * (1.0 - lam) + r(z),
                2.0 * (1.0 + z) * (mu(z) + 2.0))

    def dcoeff(pts):
        x, y, z, lam, dlam, zero, one = _chart_inputs(pts)
        da = np.stack([1.0 + lam, zero, x * dlam + df(z)], axis=1)
        db = np.stack([zero, 1.0 - lam, -y * dlam + dr(z)], axis=1)
        dc = np.stack([zero, zero,
                       2.0 * (mu(z) + 2.0) + 2.0 * (1.0 + z) * dmu(z)], axis=1)
        return da, db, dc

    return _chart_model("kmup-chart", "hp", params.box, mu, f, r, coeff, dcoeff)


# --------------------------------------------------------------------------
# Darboux families
# --------------------------------------------------------------------------

def build_darboux_model(params: DarbouxParams) -> AlmostContactModel:
    """A Darboux-like model backed by the matrix-ODE trajectory.

    g = dt (x) dt + e^{2t} G_ij dx^i (x) dx^j with G = -M2 F; phi's spatial
    block is F(t); xi = d_t, eta = dt.  Positive definiteness of G is
    asserted at every node (det G = 1 is an invariant of the exact flow).
    Every field depends on t alone and carries its exact t-partial: mu from
    ``Expr.diff``, the others from the ODE slopes: d_t phi is the block of
    F' = 2H, d_t g = e^{2t}(2G + G') with G' = -M2 F', and lam' = -f' lam.
    """
    mu_bar = params.resolved()
    dmu_bar = mu_bar.diff()
    t0, t1 = map(float, params.t_range)
    # integrate a few stencil widths past the requested range so the
    # finite differences of derived fields (h, the connection) at the
    # interval ends stay on centered windows
    pad = 8.0 * params.step * max(1.0, abs(t0), abs(t1))
    traj = integrate(params.variant, mu_bar, (t0 - pad, t1 + pad), params.step)
    metric_from_state(traj.times, traj.states)  # raises on PD failure

    domain = ChartDomain(((-np.inf, np.inf), (-np.inf, np.inf),
                          (traj.t_min, traj.t_max)), inclusive=True)
    # every field depends on t alone; its t-partial comes from the ODE slopes
    t_only = dict(axis_quanta=(None, None, traj.step), varies=(False, False, True))

    def f_g_at(ts):
        states = traj.dense(ts)
        fmat = _as_matrix(states[:, 0:3])
        gmat = -M2 @ fmat
        return fmat, gmat

    def phi_fn(pts):
        fmat, _ = f_g_at(pts[:, 2])
        out = np.zeros((pts.shape[0], 3, 3))
        out[:, :2, :2] = fmat
        return out

    def g_fn(pts):
        _, gmat = f_g_at(pts[:, 2])
        out = np.zeros((pts.shape[0], 3, 3))
        out[:, :2, :2] = np.exp(2.0 * pts[:, 2])[:, None, None] * gmat
        out[:, 2, 2] = 1.0
        return out

    def dphi_fn(pts):
        out = np.zeros((pts.shape[0], 3, 3))
        out[:, :2, :2] = _as_matrix(traj.slopes(pts[:, 2])[:, 0:3])  # F' = 2H
        return _on_axis2(out)

    def dg_fn(pts):
        ts = pts[:, 2]
        _, gmat = f_g_at(ts)
        dgmat = -M2 @ _as_matrix(traj.slopes(ts)[:, 0:3])
        out = np.zeros((pts.shape[0], 3, 3))
        out[:, :2, :2] = np.exp(2.0 * ts)[:, None, None] * (2.0 * gmat + dgmat)
        return _on_axis2(out)

    def zero_partials(pts):
        return np.zeros((pts.shape[0], 3, 3))

    def lam_rate(ts):  # lambda' / lambda = -f'
        return -traj.slopes(ts)[:, 9]

    def dlam_fn(pts):
        ts = pts[:, 2]
        return _on_axis2(lam_rate(ts) * traj.lam(ts))

    def dk_fn(pts):  # k = -1 - lam^2
        ts = pts[:, 2]
        return _on_axis2(-2.0 * lam_rate(ts) * traj.lam(ts) ** 2)

    return AlmostContactModel(
        family=f"{params.variant}-darboux",
        variant="h" if params.variant == "kmu" else "hp",
        coords=("x", "y", "t"),
        domain=domain,
        default_box=(params.xy_box[0], params.xy_box[1], (t0, t1)),
        phi=Tensor11Field(phi_fn, domain, partials=dphi_fn, **t_only, name="phi"),
        xi=VectorField(_dt_covector, domain, partials=zero_partials, **t_only,
                       name="xi"),
        eta=CovectorField(_dt_covector, domain, partials=zero_partials,
                          **t_only, name="eta"),
        g=MetricField(g_fn, domain, partials=dg_fn, **t_only, name="g"),
        k_nom=ScalarField(lambda p: traj.k_nominal(p[:, 2]), domain,
                          partials=dk_fn, **t_only, name="k"),
        mu_nom=ScalarField(lambda p: mu_bar(p[:, 2]), domain,
                           partials=lambda p: _on_axis2(dmu_bar(p[:, 2])),
                           **t_only, name="mu"),
        lam_nom=ScalarField(lambda p: traj.lam(p[:, 2]), domain,
                            partials=dlam_fn, **t_only, name="lam"),
        params={"mu": str(mu_bar), "t_range": [t0, t1], "step": params.step,
                "xy_box": [list(iv) for iv in params.xy_box]},
        trajectory=traj,
    )


def build_kenmotsu_baseline(c: float = 1.0) -> AlmostContactModel:
    """Warped-product baseline g = dt^2 + c^2 e^{2t}(dx^2+dy^2); h = 0."""
    if not c > 0:
        raise ValueError("warping constant c must be positive")
    domain = ChartDomain()

    def g_fn(pts):
        out = np.zeros((pts.shape[0], 3, 3))
        w = (c * np.exp(pts[:, 2])) ** 2
        out[:, 0, 0] = w
        out[:, 1, 1] = w
        out[:, 2, 2] = 1.0
        return out

    def phi_fn(pts):
        out = np.zeros((pts.shape[0], 3, 3))
        out[:, 1, 0] = 1.0   # phi d_x = d_y
        out[:, 0, 1] = -1.0  # phi d_y = -d_x
        return out

    def const_scalar(v):
        return lambda p: np.full(p.shape[0], v)

    return AlmostContactModel(
        family="kenmotsu-baseline", variant="h", coords=("x", "y", "t"),
        domain=domain, default_box=((-1.0, 1.0), (-1.0, 1.0), (-1.0, 1.0)),
        phi=Tensor11Field(phi_fn, domain, name="phi"),
        xi=VectorField(_dt_covector, domain, name="xi"),
        eta=CovectorField(_dt_covector, domain, name="eta"),
        g=MetricField(g_fn, domain, name="g"),
        k_nom=ScalarField(const_scalar(-1.0), domain, name="k"),
        mu_nom=ScalarField(const_scalar(0.0), domain, name="mu"),
        lam_nom=ScalarField(const_scalar(0.0), domain, name="lam"),
        params={"c": c},
    )


# --------------------------------------------------------------------------
# Serialization
# --------------------------------------------------------------------------

def model_to_json(model: AlmostContactModel) -> dict:
    """JSON document: family, parameter expressions, box and, for Darboux
    models, the integrated node grid (not its states: ``model_from_json``
    integrates again from the parameters)."""
    doc = {
        "family": model.family,
        "variant": model.variant,
        "coords": list(model.coords),
        "params": model.params,
        "box": [list(iv) for iv in model.default_box],
    }
    if model.trajectory is not None:
        traj = model.trajectory
        doc["trajectory"] = {
            "variant": traj.variant,
            "step": traj.step,
            "t_range": [traj.t_min, traj.t_max],
            "nodes": len(traj.times),
        }
    return doc


_CHART_BUILDERS = {"kmu-chart": (KmuChartParams, build_kmu_chart_model),
                   "kmup-chart": (KmupChartParams, build_kmu_prime_chart_model)}


def model_from_params(family: str, params: dict) -> AlmostContactModel:
    """Build the model of ``family`` from the keys its ``model.params``
    records: c (baseline); mu, f, r and box (charts); mu, t_range, step and
    xy_box (Darboux).  Other keys are ignored."""
    if family == "kenmotsu-baseline":
        return build_kenmotsu_baseline(params["c"])
    if family in ("kmu-darboux", "kmup-darboux"):
        return build_darboux_model(DarbouxParams(
            family.split("-")[0], params["mu"], tuple(params["t_range"]),
            params["step"], tuple(tuple(iv) for iv in params["xy_box"])))
    if family not in _CHART_BUILDERS:
        raise ValueError(f"unknown family {family!r}")
    cls, build = _CHART_BUILDERS[family]
    return build(cls(params["mu"], params["f"], params["r"],
                     tuple(tuple(iv) for iv in params["box"])))


def model_from_json(doc: dict | str) -> AlmostContactModel:
    """Rebuild a model from its JSON document (re-running the builder)."""
    if isinstance(doc, str):
        doc = json.loads(doc)
    return model_from_params(doc["family"], doc["params"])
