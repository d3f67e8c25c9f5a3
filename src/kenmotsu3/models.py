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

One assembler, :func:`_model`, builds all seven fields of every family
(phi, xi, eta, g and the nominal k, mu, lam) from entry formulas in its
coefficients, run once per point array on second-order jets
(``exprs.Jet``), which carry the values, the exact partials and, but for
the scalars, the second partials.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .exprs import Expr, Jet, parse_expr
from .fields import ChartDomain
from .ode import ConsistencyError, integrate
from .structure import _FIELDS, AlmostContactModel

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
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise ValueError(f"interval ends must be finite: {part!r}")
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


# k, mu and lam: the last three coefficients of every family
_NOMINAL = {name: lambda *c, i=i: {(): c[i]}
            for i, name in enumerate(("k_nom", "mu_nom", "lam_nom"), -3)}

# xi = eta = dt, the Darboux and baseline families' entries
_DT = {"xi": lambda *c: {(2,): 1.0}, "eta": lambda *c: {(2,): 1.0}}

# the entries of a 2x2 block in the (x, y) corner
_CORNER = ((0, 0), (0, 1), (1, 0), (1, 1))

# d_t^k (e^{2t} G) = e^{2t} sum_j c_kj G^(j): the coefficients c_kj
_EXP2T_RULE = ((1.0,), (2.0, 1.0), (4.0, 4.0, 1.0))


def _model(coeffs, entries, domain, **model_kw) -> AlmostContactModel:
    """A model whose seven fields are given entry by entry.

    ``coeffs(pts)`` gives the family's coefficients at the points as
    second-order jets (or constants), the nominal k, mu and lam last; their
    values and partials are the fields' values and exact partials.
    ``entries[name](*coefficients)`` maps them to the nonzero entries
    ``{index: entry}`` of field ``name``, each a coefficient expression or
    a constant (whose partials are exact zeros).  The model's ``at`` runs
    this one pass per call, on points of ``domain``; the scalars carry no
    second partials.  ``model_kw`` holds the other
    :class:`AlmostContactModel` fields.
    """
    entries = {**entries, **_NOMINAL}

    def at(pts):
        domain.require(pts)
        coefficients, n = coeffs(pts), len(pts)
        out = {}
        for name, shape in _FIELDS.items():
            layers = [np.zeros((n,) + (3,) * order + shape)
                      for order in range(3 if shape else 2)]
            for index, e in entries[name](*coefficients).items():
                parts = (e.v, e.d, e.dd) if isinstance(e, Jet) else (e,)
                for layer, part in zip(layers, parts):
                    layer[(Ellipsis,) + index] = part
            out[name] = tuple(layers) if shape else (*layers, None)
        return out

    return AlmostContactModel(domain=domain, at=at, **model_kw)


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

def _g_entries(a, b, c, *_):
    p, q = a / c, b / c
    return {(0, 0): 1.0, (1, 1): 1.0, (0, 2): p, (2, 0): p, (1, 2): q,
            (2, 1): q, (2, 2): (1.0 + a * a + b * b) / (c * c)}


# phi, xi, eta and g of the chart frame in its coefficients (a, b, c)
_CHART_ENTRIES = {
    "phi": lambda a, b, c, *_: {(0, 1): -1.0, (1, 0): 1.0, (0, 2): -b / c,
                                (1, 2): a / c},
    "xi": lambda a, b, c, *_: {(0,): a, (1,): b, (2,): -c},
    "eta": lambda a, b, c, *_: {(2,): -1.0 / c},
    "g": _g_entries,
}

# the chart families' nominal eigenvalue, lam^2 = -1 - k with k = z
_LAM = parse_expr("sqrt(-1 - z)")


def _chart_model(family: str, box: Box, mu: Expr, f: Expr, r: Expr,
                 coeff) -> AlmostContactModel:
    """A chart model with nominal k = z, lam = sqrt(-1-z) and the given mu.

    Both chart families share the frame structure e1 = d_x, e2 = d_y,
    e3 = xi = a d_x + b d_y - c d_z with eta = -dz/c:

        g   = [[1, 0, a/c], [0, 1, b/c], [a/c, b/c, (1+a^2+b^2)/c^2]]
        phi = [[0, -1, -b/c], [1, 0, a/c], [0, 0, 0]]

    ``coeff(x, y, z, lam, mu, f, r)`` gives (a, b, c) on second-order jets
    (see :func:`_model`): lam, mu, f and r enter as their ``Expr.jet``.
    The nominal k, mu and lam are the z, mu and lam it is given.
    """
    domain = ChartDomain(((-np.inf, np.inf), (-np.inf, np.inf), (-np.inf, -1.0)))

    def coeffs(pts):
        z, one, zero = pts[:, 2], np.ones(len(pts)), np.zeros(len(pts))
        xyz = [Jet.along(a, u, one, zero) for a, u in enumerate(pts.T)]
        lam, muv, fv, rv = (Jet.along(2, *e.jet(z)) for e in (_LAM, mu, f, r))
        return (*coeff(*xyz, lam, muv, fv, rv), xyz[2], muv, lam)

    return _model(
        coeffs, _CHART_ENTRIES, domain, family=family, default_box=box,
        params={"mu": str(mu), "f": str(f), "r": str(r),
                "box": [list(iv) for iv in box]},
    )


def build_kmu_chart_model(params: KmuChartParams) -> AlmostContactModel:
    """The kmu chart family on {z < -1} with nominal k = z."""
    mu, f, r = params.resolved()

    def coeff(x, y, z, lam, muv, fv, rv):
        return (x - (0.5 * muv + lam) * y + fv,
                (0.5 * muv - lam) * x + y + rv, 4.0 * (1.0 + z))

    return _chart_model("kmu-chart", params.box, mu, f, r, coeff)


def build_kmu_prime_chart_model(params: KmupChartParams) -> AlmostContactModel:
    """The kmup chart family on {z < -1}, mu != -2, nominal k = z."""
    mu, f, r = params.resolved()

    def coeff(x, y, z, lam, muv, fv, rv):
        return (x * (1.0 + lam) + fv, y * (1.0 - lam) + rv,
                2.0 * (1.0 + z) * (muv + 2.0))

    return _chart_model("kmup-chart", params.box, mu, f, r, coeff)


# --------------------------------------------------------------------------
# Darboux families
# --------------------------------------------------------------------------

def build_darboux_model(params: DarbouxParams) -> AlmostContactModel:
    """A Darboux-like model backed by the matrix-ODE trajectory.

    g = dt (x) dt + e^{2t} G_ij dx^i (x) dx^j with G = -M2 F; phi's spatial
    block is F(t) = M2 G; xi = d_t, eta = dt.  Both variants read the frame
    P = [[p, q], [r, s]] of P' = P W and f off ``Trajectory.solution``, and
    G = N N^T is a Gram matrix of N = M2 P.  G is asserted positive
    definite at every node on its frame: the diagonal p^2 + q^2, r^2 + s^2
    of P P^T is finite and positive, which no cancellation hides.  Every
    field depends on t alone and carries its exact t-partials: mu from
    ``Expr.jet`` (its first derivative alone, so mu = (t+1)^1.5 is fine at
    t = -1), lam = e^{-f} and k = -1 - e^{-2f} by the chain rule from f and
    f', and G's from P' = P W, as W + W^T = -2 lam M1 and W M1 + M1 W^T =
    -2 lam I + nu M3:

        G' = -2 lam Q1,   G'' = 2 f' lam Q1 + 4 lam^2 G - 2 nu lam Q3,

    with Qk = N Mk N^T.  The variant selects nu (mu for kmu, 0 for kmup)
    and f' (2 for kmu, mu + 2 for kmup) alone.  The default box's
    t-interval is the integrated range.
    """
    mu_bar = params.resolved()
    t0, t1 = map(float, params.t_range)
    traj = integrate(params.variant, mu_bar, (t0, t1), params.step)
    diag = np.sum(traj.frames ** 2, axis=-1)
    bad = ~np.all((diag > 0) & (diag < np.inf), axis=-1)
    if bad.any():
        raise ConsistencyError("leaf metric lost positive definiteness at "
                               f"t={traj.times[np.argmax(bad)]}")

    domain = ChartDomain(((-np.inf, np.inf), (-np.inf, np.inf),
                          (traj.t_min, traj.t_max)), inclusive=True)

    def coeffs(pts):
        """The entries of F and of e^{2t} G, then k, mu and lam: jets along
        t.  Each entry and its t-derivatives are formed in long double from
        (P, f), looked up once, and rounded once; each order of e^{2t} G is
        its own sum by ``_EXP2T_RULE`` (the jets' product rule on e^{2t}
        and G would round the t-partials differently).  F's cells are G's
        entries, F's (1, 1) entry is -F's (0, 0) and e^{2t} G is symmetric,
        so neither takes a leaf of its own; the scalars' second partials,
        which their fields do not carry, are 0."""
        ts = pts[:, 2]
        mu, dmu = mu_bar.jet(ts, 1)
        frame, f = traj.solution(ts)
        p, q, r, s = (frame[:, i, j] for i, j in _CORNER)
        lam, mu_ld = np.exp(-f), mu.astype(np.longdouble)
        nu, df = (mu_ld, 2) if params.variant == "kmu" else (0, mu_ld + 2)
        # the (0, 0), (0, 1), (1, 1) entries of G, Q1 and Q3, then of G^(k)
        g = np.stack([r * r + s * s, -(p * r + q * s), p * p + q * q])
        q1 = np.stack([r * r - s * s, q * s - p * r, p * p - q * q])
        q3 = np.stack([2 * r * s, -(p * s + q * r), 2 * p * q])
        gs = [g, -2 * lam * q1,
              2 * df * lam * q1 + 4 * lam * lam * g - 2 * nu * lam * q3]
        e2t = np.exp(2 * ts.astype(np.longdouble))
        egs = [e2t * sum(c * gk for c, gk in zip(rule, gs))
               for rule in _EXP2T_RULE]
        zero = np.zeros(len(ts))
        # F = M2 G: F's (0, 0), (0, 1), (1, 0) are G's (0, 1), (1, 1), -(0, 0)
        cells = ([[sign * gk[i] for gk in gs]
                  for i, sign in ((1, 1), (2, 1), (0, -1))]
                 + [[eg[i] for eg in egs] for i in range(3)]
                 + [[f, df + zero, zero], [mu, dmu, zero]])
        p00, p01, p10, g00, g01, g11, f, mu = (
            Jet.along(2, *(np.asarray(c, float) for c in cell)) for cell in cells)
        lam = np.exp(-f.v)  # k = -1 - lam^2: dk/df = 2 lam^2, dlam/df = -lam
        k = f.chain(-1.0 - lam ** 2, 2.0 * lam ** 2, zero)
        lam = f.chain(lam, -lam, zero)
        return p00, p01, p10, -p00, g00, g01, g01, g11, k, mu, lam

    return _model(
        coeffs, {"phi": lambda *c: dict(zip(_CORNER, c[:4])),
                 "g": lambda *c: {**dict(zip(_CORNER, c[4:8])), (2, 2): 1.0},
                 **_DT},
        domain, family=f"{params.variant}-darboux",
        default_box=(*params.xy_box, (traj.t_min, traj.t_max)),
        params={"mu": str(mu_bar), "t_range": [t0, t1], "step": params.step,
                "xy_box": [list(iv) for iv in params.xy_box]},
        trajectory=traj,
    )


def build_kenmotsu_baseline(c: float = 1.0) -> AlmostContactModel:
    """Warped-product baseline g = dt^2 + c^2 e^{2t}(dx^2+dy^2); h = 0.

    Every field carries its closed-form partials: with w = c^2 e^{2t},
    w' = 2w and w'' = 4w; phi, xi, eta, k, mu and lam are constant."""
    if not 0 < c < np.inf:
        raise ValueError(f"warping constant c must be finite and positive: {c!r}")
    domain = ChartDomain()

    def coeffs(pts):
        w = (c * np.exp(pts[:, 2])) ** 2
        # k = -1, mu = lam = 0
        return Jet.along(2, w, 2.0 * w, 4.0 * w), -1.0, 0.0, 0.0

    return _model(
        # phi d_x = d_y, phi d_y = -d_x
        coeffs, {"phi": lambda *_: {(0, 1): -1.0, (1, 0): 1.0},
                 "g": lambda w, *_: {(0, 0): w, (1, 1): w, (2, 2): 1.0}, **_DT},
        domain, family="kenmotsu-baseline",
        default_box=((-1.0, 1.0), (-1.0, 1.0), (-1.0, 1.0)),
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
    if family not in ("kmu-chart", "kmup-chart"):
        raise ValueError(f"unknown family {family!r}")
    # the builders by their module names at call time, so a wrapper runs
    cls, build = ((KmuChartParams, build_kmu_chart_model) if family == "kmu-chart"
                  else (KmupChartParams, build_kmu_prime_chart_model))
    return build(cls(params["mu"], params["f"], params["r"],
                     tuple(tuple(iv) for iv in params["box"])))


def model_from_json(doc: dict | str) -> AlmostContactModel:
    """Rebuild a model from its JSON document (re-running the builder)."""
    if isinstance(doc, str):
        doc = json.loads(doc)
    return model_from_params(doc["family"], doc["params"])
