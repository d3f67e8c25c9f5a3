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

Darboux families (coordinates x, y, t): phi's spatial block is the F(t) of
the matrix ODE, g = dt^2 + e^{2t} G(t) with G = -M2 F, xi = d_t, eta = dt.

Baseline (coordinates x, y, t): the warped product g = dt^2 +
c^2 e^{2t}(dx^2 + dy^2) with h = 0, k = -1.

One assembler, :func:`_model`, builds phi, xi, eta and g of every family
from entry formulas in its coefficients (the chart's (a, b, c), the
entries of F and e^{2t} G, w = c^2 e^{2t}), run on arrays for the values
and on second-order jets (``exprs.Jet``) for the exact partials and second
partials.  k, mu and lam carry their exact partials too.
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


def _on_axis2(block):
    """Partials (n, 3) + block shape: ``block`` along the third axis, 0
    along the first two."""
    out = np.zeros((len(block), 3) + block.shape[1:])
    out[:, 2] = block
    return out


# the structure tensors: field class and component shape
_FIELDS = {"phi": (Tensor11Field, (3, 3)), "xi": (VectorField, (3,)),
           "eta": (CovectorField, (3,)), "g": (MetricField, (3, 3))}

# xi = eta = dt, the Darboux and baseline families' entries
_DT = {"xi": lambda *c: {(2,): 1.0}, "eta": lambda *c: {(2,): 1.0}}

# the entries of a 2x2 block in the (x, y) corner
_CORNER = ((0, 0), (0, 1), (1, 0), (1, 1))

# d_t^k (e^{2t} G) = e^{2t} sum_j c_kj G^(j): the coefficients c_kj
_EXP2T_RULE = ((1.0,), (2.0, 1.0), (4.0, 4.0, 1.0))


def _model(coeffs, entries, domain, varies, **model_kw) -> AlmostContactModel:
    """A model whose phi, xi, eta and g are given entry by entry.

    ``coeffs(pts, jets)`` gives the family's coefficients at the points:
    arrays, or when ``jets`` is set second-order jets, whose partials are
    the fields' exact partials.  ``entries[name](*coefficients)`` maps them
    to the nonzero entries ``{index: entry}`` of field ``name``, each a
    coefficient expression or a constant (whose partials are exact zeros).
    The coefficients and entries of the last point array, values and jets
    alike, are kept and freed with that array, so a suite computes each
    once; a value alone builds no jet.  ``model_kw`` holds the other
    :class:`AlmostContactModel` fields.
    """
    kept = {}

    def entry_values(name, pts, jets):
        if not ("ref" in kept and kept["ref"]() is pts
                and np.array_equal(kept["pts"], pts)):
            kept.clear()
            kept.update(ref=weakref.ref(pts, lambda _: kept.clear()),
                        pts=pts.copy())
        if (name, jets) not in kept:
            if jets not in kept:  # the coefficients
                kept[jets] = coeffs(pts, jets)
            kept[name, jets] = entries[name](*kept[jets])
        return kept[name, jets]

    def layer(name, order):
        shape = (3,) * order + _FIELDS[name][1]

        def fn(pts):
            out = np.zeros((len(pts),) + shape)
            for index, e in entry_values(name, pts, order > 0).items():
                if not order:
                    out[(Ellipsis,) + index] = e
                elif isinstance(e, Jet):  # constants have no partials
                    out[(Ellipsis,) + index] = e.d if order == 1 else e.dd
            return out
        return fn

    return AlmostContactModel(
        domain=domain, **model_kw,
        **{name: cls(layer(name, 0), domain, partials=layer(name, 1),
                     second=layer(name, 2), varies=varies, name=name)
           for name, (cls, _) in _FIELDS.items()})


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

def _g_entries(a, b, c):
    p, q = a / c, b / c
    return {(0, 0): 1.0, (1, 1): 1.0, (0, 2): p, (2, 0): p, (1, 2): q,
            (2, 1): q, (2, 2): (1.0 + a * a + b * b) / (c * c)}


# phi, xi, eta and g of the chart frame in its coefficients (a, b, c)
_CHART_ENTRIES = {
    "phi": lambda a, b, c: {(0, 1): -1.0, (1, 0): 1.0, (0, 2): -b / c,
                            (1, 2): a / c},
    "xi": lambda a, b, c: {(0,): a, (1,): b, (2,): -c},
    "eta": lambda a, b, c: {(2,): -1.0 / c},
    "g": _g_entries,
}

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
    second partials (see :func:`_model`): lam, mu, f and r enter with the
    derivatives of their ``Expr.jet``.  k, mu and lam carry their exact
    z-partials.
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

    return _model(
        coeffs, _CHART_ENTRIES, domain, (True, True, True),
        family=family, variant=variant, coords=("x", "y", "z"),
        default_box=box,
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
    varies = (False, False, True)

    def coeffs(pts, jets):
        """The entries of F and of e^{2t} G: values, or jets along t from
        the blocks' t-derivatives.  Each order of e^{2t} G is its own sum
        by ``_EXP2T_RULE``: the jets' product rule on e^{2t} and G would
        round the t-partials differently."""
        ts = pts[:, 2]
        fs = [_as_matrix(traj.dense(ts)[:, 0:3])]
        if jets:
            slope = traj.slopes(ts)
            fs += [_as_matrix(slope[:, 0:3]), 2.0 * _as_matrix(slope[:, 3:6])]
        gs = [-M2 @ f for f in fs]
        e2t = np.exp(2.0 * ts)[:, None, None]
        egs = [e2t * sum(c * gk for c, gk in zip(rule, gs))
               for rule in _EXP2T_RULE[:len(fs)]]
        cells = [[m[:, i, j] for m in ms] for ms in (fs, egs)
                 for i, j in _CORNER]
        return [Jet.along(2, *cell) if jets else cell[0] for cell in cells]

    def lam_rate(ts):  # lambda' / lambda = -f'
        return -traj.slopes(ts)[:, 9]

    return _model(
        coeffs, {"phi": lambda *c: dict(zip(_CORNER, c[:4])),
                 "g": lambda *c: {**dict(zip(_CORNER, c[4:])), (2, 2): 1.0},
                 **_DT},
        domain, varies,
        family=f"{params.variant}-darboux",
        variant="h" if params.variant == "kmu" else "hp",
        coords=("x", "y", "t"),
        default_box=(params.xy_box[0], params.xy_box[1], (t0, t1)),
        k_nom=ScalarField(
            lambda p: -1.0 - traj.lam(p[:, 2]) ** 2, domain, varies=varies,
            partials=lambda p: _on_axis2(
                -2.0 * lam_rate(p[:, 2]) * traj.lam(p[:, 2]) ** 2), name="k"),
        mu_nom=_axis2_scalar(mu_bar, domain, "mu", varies=varies),
        lam_nom=ScalarField(
            lambda p: traj.lam(p[:, 2]), domain, varies=varies,
            partials=lambda p: _on_axis2(lam_rate(p[:, 2]) * traj.lam(p[:, 2])),
            name="lam"),
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

    def coeffs(pts, jets):
        w = (c * np.exp(pts[:, 2])) ** 2
        return (Jet.along(2, w, 2.0 * w, 4.0 * w) if jets else w,)

    def const_scalar(v, name):
        return ScalarField(lambda p: np.full(p.shape[0], v), domain,
                           partials=lambda p: np.zeros((len(p), 3)), name=name)

    return _model(
        # phi d_x = d_y, phi d_y = -d_x
        coeffs, {"phi": lambda w: {(0, 1): -1.0, (1, 0): 1.0},
                 "g": lambda w: {(0, 0): w, (1, 1): w, (2, 2): 1.0}, **_DT},
        domain, (True, True, True),
        family="kenmotsu-baseline", variant="h", coords=("x", "y", "t"),
        default_box=((-1.0, 1.0), (-1.0, 1.0), (-1.0, 1.0)),
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
