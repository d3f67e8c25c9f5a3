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

Every field of every family carries exact partials, and phi, xi and g
their exact second partials too.  The chart builders write (a, b, c) of xi
once, and second-order jets (``exprs.Jet``) run that formula for the
partials, with lam = sqrt(-1-z), mu, f and r entering as ``Expr.jet``.

Darboux families (coordinates x, y, t): phi's spatial block is the F(t) of
the matrix ODE, g = dt^2 + e^{2t} G(t) with G = -M2 F, xi = d_t, eta = dt.

Baseline (coordinates x, y, t): the warped product g = dt^2 +
c^2 e^{2t}(dx^2 + dy^2) with h = 0, k = -1.
"""

from __future__ import annotations

import json
import weakref
from dataclasses import dataclass

import numpy as np

from .exprs import Expr, Jet, parse_expr
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


def _zeros(*shape):
    """A field's partials that vanish: points (n, 3) to zeros (n,) + shape."""
    return lambda pts: np.zeros((len(pts),) + shape)


def _on_t(block, order, tt=0.0):
    """(n,) + (3,) * order + (3, 3): the 2x2 ``block`` in the leaf corner,
    as the ``order``-th partial along the third axis alone; a value
    (``order`` 0) takes ``tt`` in its (t, t) entry."""
    out = np.zeros((len(block),) + (3,) * order + (3, 3))
    out[(slice(None),) + (2,) * order + (slice(0, 2), slice(0, 2))] = block
    if not order:
        out[:, 2, 2] = tt
    return out


# d_t^k (e^{2t} G) = e^{2t} sum_j c_kj G^(j): the coefficients c_kj
_EXP2T_RULE = ((1.0,), (2.0, 1.0), (4.0, 4.0, 1.0))


def _layered(cls, layer, domain, name, **kw):
    """A field with values, partials and second partials ``layer(0..2)``."""
    return cls(layer(0), domain, partials=layer(1), second=layer(2),
               name=name, **kw)


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

def _phi_entries(a, b, c):
    return {(0, 1): -1.0, (1, 0): 1.0, (0, 2): -b / c, (1, 2): a / c}


def _xi_entries(a, b, c):
    return {(0,): a, (1,): b, (2,): -c}


def _eta_entries(a, b, c):
    return {(2,): -1.0 / c}


def _g_entries(a, b, c):
    p, q = a / c, b / c
    return {(0, 0): 1.0, (1, 1): 1.0, (0, 2): p, (2, 0): p, (1, 2): q,
            (2, 1): q, (2, 2): (1.0 + a * a + b * b) / (c * c)}


# the chart families' nominal eigenvalue, lam^2 = -1 - k with k = z
_LAM = parse_expr("sqrt(-1 - z)")


def _axis2_scalar(e: Expr, domain, name: str, **kw) -> ScalarField:
    """The scalar field e of the third coordinate, with its exact partials
    from the first derivative of ``e.jet``."""
    return ScalarField(lambda p: e(p[:, 2]), domain,
                       partials=lambda p: _on_axis2(e.jet(p[:, 2], 1)[1]),
                       name=name, **kw)


def _chart_model(family: str, variant: str, box: Box, mu: Expr, f: Expr,
                 r: Expr, coeff) -> AlmostContactModel:
    """A chart model with nominal k = z, lam = sqrt(-1-z) and the given mu.

    Both chart families share the frame structure e1 = d_x, e2 = d_y,
    e3 = xi = a d_x + b d_y - c d_z with eta = -dz/c:

        g   = [[1, 0, a/c], [0, 1, b/c], [a/c, b/c, (1+a^2+b^2)/c^2]]
        phi = [[0, -1, -b/c], [1, 0, a/c], [0, 0, 0]]

    ``coeff(x, y, z, lam, mu, f, r)`` gives (a, b, c), on arrays for the
    fields' values and on second-order jets for their exact partials and
    second partials: lam, mu, f and r enter with the derivatives of their
    ``Expr.jet``.  A value alone builds no jet, and the jets of one point
    array serve every partial of phi, xi, eta and g.  k, mu and lam carry
    their exact z-partials.
    """
    domain = ChartDomain(((-np.inf, np.inf), (-np.inf, np.inf), (-np.inf, -1.0)))
    scalars = (_LAM, mu, f, r)

    def coeffs(pts, jets):
        x, y, z = pts.T
        if not jets:
            return coeff(x, y, z, *(e(z) for e in scalars))
        one, zero = np.ones(len(z)), np.zeros(len(z))
        return coeff(*(Jet.along(a, u, one, zero) for a, u in enumerate(pts.T)),
                     *(Jet.along(2, *e.jet(z)) for e in scalars))

    kept = {}  # (a, b, c) and entry jets of the last point array, freed with it

    def entry_jets(entries, pts):
        if not ("ref" in kept and kept["ref"]() is pts
                and np.array_equal(kept["pts"], pts)):
            kept.clear()
            kept.update(ref=weakref.ref(pts, lambda _: kept.clear()),
                        pts=pts.copy(), abc=coeffs(pts, True))
        if entries not in kept:
            kept[entries] = entries(*kept["abc"])
        return kept[entries]

    def layers(entries, out_shape):
        def layer(order):
            def fn(pts):
                out = np.zeros((len(pts),) + (3,) * order + out_shape)
                values = (entry_jets(entries, pts) if order
                          else entries(*coeffs(pts, False)))
                for index, e in values.items():
                    if not order:
                        out[(Ellipsis,) + index] = e
                    elif isinstance(e, Jet):  # constants have no partials
                        out[(Ellipsis,) + index] = e.d if order == 1 else e.dd
                return out
            return fn
        return layer

    return AlmostContactModel(
        family=family, variant=variant, coords=("x", "y", "z"),
        domain=domain, default_box=box,
        phi=_layered(Tensor11Field, layers(_phi_entries, (3, 3)), domain, "phi"),
        xi=_layered(VectorField, layers(_xi_entries, (3,)), domain, "xi"),
        eta=_layered(CovectorField, layers(_eta_entries, (3,)), domain, "eta"),
        g=_layered(MetricField, layers(_g_entries, (3, 3)), domain, "g"),
        k_nom=_axis2_scalar(parse_expr("z"), domain, "k"),
        mu_nom=_axis2_scalar(mu, domain, "mu"),
        lam_nom=_axis2_scalar(_LAM, domain, "lam"),
        params={"mu": str(mu), "f": str(f), "r": str(r),
                "box": [list(iv) for iv in box]},
    )


def build_kmu_chart_model(params: KmuChartParams) -> AlmostContactModel:
    """The kmu chart family on {z < -1} with nominal k = z."""
    mu, f, r = params.resolved()

    def coeff(x, y, z, lam, muv, fv, rv):
        return (x - (0.5 * muv + lam) * y + fv,
                (0.5 * muv - lam) * x + y + rv, 4.0 * (1.0 + z))

    return _chart_model("kmu-chart", "h", params.box, mu, f, r, coeff)


def build_kmu_prime_chart_model(params: KmupChartParams) -> AlmostContactModel:
    """The kmup chart family on {z < -1}, mu != -2, nominal k = z."""
    mu, f, r = params.resolved()

    def coeff(x, y, z, lam, muv, fv, rv):
        return (x * (1.0 + lam) + fv, y * (1.0 - lam) + rv,
                2.0 * (1.0 + z) * (muv + 2.0))

    return _chart_model("kmup-chart", "hp", params.box, mu, f, r, coeff)


# --------------------------------------------------------------------------
# Darboux families
# --------------------------------------------------------------------------

def build_darboux_model(params: DarbouxParams) -> AlmostContactModel:
    """A Darboux-like model backed by the matrix-ODE trajectory.

    g = dt (x) dt + e^{2t} G_ij dx^i (x) dx^j with G = -M2 F; phi's spatial
    block is F(t); xi = d_t, eta = dt.  Positive definiteness of G is
    asserted at every node (det G = 1 is an invariant of the exact flow).
    Every field depends on t alone and carries its exact t-partials: mu
    from ``Expr.jet`` (its first derivative alone, so mu = (t+1)^1.5 is
    fine at t = -1), the others from the ODE slopes: F' = 2H, F'' = 2H',
    d_t^k g = e^{2t}((2 + d_t)^k G) with G^(k) = -M2 F^(k), lam' = -f' lam.
    """
    mu_bar = params.resolved()
    t0, t1 = map(float, params.t_range)
    traj = integrate(params.variant, mu_bar, (t0, t1), params.step)
    metric_from_state(traj.times, traj.states)  # raises on PD failure

    domain = ChartDomain(((-np.inf, np.inf), (-np.inf, np.inf),
                          (traj.t_min, traj.t_max)), inclusive=True)
    t_only = dict(varies=(False, False, True))

    def f_blocks(ts, order):
        """F and its first ``order`` t-derivatives, as 2x2 matrices."""
        out = [_as_matrix(traj.dense(ts)[:, 0:3])]
        if order:
            slope = traj.slopes(ts)
            out += [_as_matrix(slope[:, 0:3]), 2.0 * _as_matrix(slope[:, 3:6])]
        return out[:order + 1]

    def phi_layer(order):
        return lambda pts: _on_t(f_blocks(pts[:, 2], order)[order], order)

    def g_layer(order):
        def fn(pts):
            ts = pts[:, 2]
            gs = [-M2 @ f for f in f_blocks(ts, order)]
            block = sum(c * gk for c, gk in zip(_EXP2T_RULE[order], gs))
            return _on_t(np.exp(2.0 * ts)[:, None, None] * block, order, 1.0)
        return fn

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
        phi=_layered(Tensor11Field, phi_layer, domain, "phi", **t_only),
        xi=VectorField(_dt_covector, domain, partials=_zeros(3, 3),
                       second=_zeros(3, 3, 3), **t_only, name="xi"),
        eta=CovectorField(_dt_covector, domain, partials=_zeros(3, 3),
                          **t_only, name="eta"),
        g=_layered(MetricField, g_layer, domain, "g", **t_only),
        k_nom=ScalarField(lambda p: traj.k_nominal(p[:, 2]), domain,
                          partials=dk_fn, **t_only, name="k"),
        mu_nom=_axis2_scalar(mu_bar, domain, "mu", **t_only),
        lam_nom=ScalarField(lambda p: traj.lam(p[:, 2]), domain,
                            partials=dlam_fn, **t_only, name="lam"),
        params={"mu": str(mu_bar), "t_range": [t0, t1], "step": params.step,
                "xy_box": [list(iv) for iv in params.xy_box]},
        trajectory=traj,
    )


def build_kenmotsu_baseline(c: float = 1.0) -> AlmostContactModel:
    """Warped-product baseline g = dt^2 + c^2 e^{2t}(dx^2+dy^2); h = 0.

    Every field carries its closed-form partials: with w = c^2 e^{2t},
    w' = 2w and w'' = 4w; phi, xi, eta, k, mu and lam are constant."""
    if not c > 0:
        raise ValueError("warping constant c must be positive")
    domain = ChartDomain()

    def g_layer(order):
        def fn(pts):
            w = (c * np.exp(pts[:, 2])) ** 2 * 2.0 ** order
            return _on_t(w[:, None, None] * np.eye(2), order, 1.0)
        return fn

    def const_scalar(v, name):
        return ScalarField(lambda p: np.full(p.shape[0], v), domain,
                           partials=_zeros(3), name=name)

    return AlmostContactModel(
        family="kenmotsu-baseline", variant="h", coords=("x", "y", "t"),
        domain=domain, default_box=((-1.0, 1.0), (-1.0, 1.0), (-1.0, 1.0)),
        # phi d_x = d_y, phi d_y = -d_x
        phi=Tensor11Field(lambda p: _on_t(np.broadcast_to(-M2, (len(p), 2, 2)), 0),
                          domain, partials=_zeros(3, 3, 3),
                          second=_zeros(3, 3, 3, 3), name="phi"),
        xi=VectorField(_dt_covector, domain, partials=_zeros(3, 3),
                       second=_zeros(3, 3, 3), name="xi"),
        eta=CovectorField(_dt_covector, domain, partials=_zeros(3, 3),
                          name="eta"),
        g=_layered(MetricField, g_layer, domain, "g"),
        k_nom=const_scalar(-1.0, "k"),
        mu_nom=const_scalar(0.0, "mu"),
        lam_nom=const_scalar(0.0, "lam"),
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
