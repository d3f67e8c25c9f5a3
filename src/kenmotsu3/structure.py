"""Almost contact metric structures and the operators derived from them.

An :class:`AlmostContactModel` is one evaluation ``at(pts)`` of the structure
tensors (phi, xi, eta, g) and the nominal scalars k, mu, lambda over one
chart, with their exact partials, plus family metadata; its seven fields are
field-evaluator views of that evaluation.  The tensor h is computed from its
Lie-derivative definition h = (1/2) L_xi phi (never from the connection, so
the connection identities stay an independent cross-check); the identities'
Probe composes h' = h o phi and B = phi o h from the same values, and finds
the eigenframe (xi, X, phi X) of the family's nullity operator in the
Cholesky frame it norms every residual in.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field as dc_field

import numpy as np

from .fields import ArrayField, ChartDomain, as_points
from .geometry import exterior_differential

__all__ = [
    "AlmostContactModel",
    "lie_derivative",
    "compute_h",
    "nijenhuis",
    "structure_residuals",
]

# each family's nullity operator, h or h' = h o phi ("hp"), and the name of
# its third coordinate: what decides the identities a family quantifies over
FAMILIES = {"kenmotsu-baseline": ("h", "t"), "kmu-chart": ("h", "z"),
            "kmup-chart": ("hp", "z"), "kmu-darboux": ("h", "t"),
            "kmup-darboux": ("hp", "t")}


# the structure tensors and the nominal scalars: component shape
_FIELDS = {"phi": (3, 3), "xi": (3,), "eta": (3,), "g": (3, 3),
           "k_nom": (), "mu_nom": (), "lam_nom": ()}


@dataclass
class AlmostContactModel:
    """Structure tensors plus nominal scalars over a single chart.

    The family's row of ``FAMILIES`` gives ``variant``, the operator of its
    nullity condition (``"h"``, or ``"hp"`` for h'), and ``coords``, the axis
    labels, the distinguished coordinate (z or t) third.  ``at(pts)``
    evaluates the model at an (n, 3) point array inside ``domain`` (others
    raise ``BoundaryError``) in one pass: it maps each name of ``_FIELDS``
    to the field's values, exact partials (axis first) and exact second
    partials (both axes first; None for k_nom, mu_nom and lam_nom).  A
    model's values depend on the points alone.  The seven fields phi ...
    lam_nom are views of ``at``, each call of which runs the whole pass.
    """

    family: str
    domain: ChartDomain
    default_box: tuple[tuple[float, float], ...]
    at: Callable[[np.ndarray], dict]
    params: dict = dc_field(default_factory=dict)
    trajectory: object = None
    phi: ArrayField = dc_field(init=False)
    xi: ArrayField = dc_field(init=False)
    eta: ArrayField = dc_field(init=False)
    g: ArrayField = dc_field(init=False)
    k_nom: ArrayField = dc_field(init=False)
    mu_nom: ArrayField = dc_field(init=False)
    lam_nom: ArrayField = dc_field(init=False)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        at = self.at  # the views hold the evaluation, not the model

        def view(name, order):
            return lambda pts: at(pts)[name][order]

        for name, shape in _FIELDS.items():
            setattr(self, name, ArrayField(
                view(name, 0), self.domain, shape, partials=view(name, 1),
                second=view(name, 2) if shape else None, name=name))

    variant = property(lambda self: FAMILIES[self.family][0])
    coords = property(lambda self: ("x", "y", FAMILIES[self.family][1]))

    def nullity_operator(self, h: np.ndarray, phi: np.ndarray) -> np.ndarray:
        """The T of this family's nullity condition from computed h, phi."""
        return h @ phi if self.variant == "hp" else h


def lie_derivative(xi: np.ndarray, dxi: np.ndarray, t_vals: np.ndarray,
                   dt_vals: np.ndarray) -> np.ndarray:
    """(L_xi T)^i_j = xi^a d_a T^i_j - T^a_j d_a xi^i + T^i_s d_j xi^s.

    For the coordinate field e_j this is [xi, T e_j] - T [xi, e_j], from the
    values of xi (..., 3) and of a (1,1) tensor T (..., 3, 3) and their
    coordinate partials (axis before the components); the leading axes
    broadcast.
    """
    # the first einsum's inner loop runs over (i, j), 9 long, and beat a
    # matmul; the other two contract a 3-long index and take matmuls
    dxi_t = np.swapaxes(dxi, -1, -2)
    return (np.einsum("...a,...aij->...ij", xi, dt_vals)
            - dxi_t @ t_vals + t_vals @ dxi_t)


def compute_h(model: AlmostContactModel, pts) -> np.ndarray:
    """h = (1/2) L_xi phi from the Lie-derivative definition.

    The partials of phi and xi are the model's exact ones (the chart
    families by jets, the Darboux families from the ODE, the baseline in
    closed form), from one ``model.at`` pass.
    """
    pts, single = as_points(pts)
    at = model.at(pts)
    (phi, dphi, _), (xi, dxi, _) = at["phi"], at["xi"]
    h = 0.5 * lie_derivative(xi, dxi, phi, dphi)
    return h[0] if single else h


def nijenhuis(model: AlmostContactModel, pts, x, y) -> np.ndarray:
    """N(X,Y) = [phi,phi](X,Y) + 2 d(eta)(X,Y) xi for constant X, Y.

    [phi,phi](X,Y) = phi^2 [X,Y] + [phi X, phi Y] - phi [phi X, Y]
    - phi [X, phi Y]; the first bracket vanishes for constant-coefficient
    fields, and the partials of phi X and phi Y are those of phi applied to
    X and Y.
    """
    pts, single = as_points(pts)
    xv = np.asarray(x, float)
    yv = np.asarray(y, float)
    at = model.at(pts)
    (phi, dphi, _), (xi, _, _) = at["phi"], at["xi"]  # dphi: (n, a, i, j)
    phi_x, phi_y = phi @ xv, phi @ yv
    d_phi_x, d_phi_y = dphi @ xv, dphi @ yv                # (n, a, i)
    # [U, V]^i = U^a d_a V^i - V^a d_a U^i, with d_a X = d_a Y = 0
    br_phix_phiy = (np.einsum("na,nai->ni", phi_x, d_phi_y)
                    - np.einsum("na,nai->ni", phi_y, d_phi_x))
    br_phix_y = -np.einsum("a,nai->ni", yv, d_phi_x)
    br_x_phiy = np.einsum("a,nai->ni", xv, d_phi_y)
    torsion = (br_phix_phiy - np.einsum("nij,nj->ni", phi, br_phix_y)
               - np.einsum("nij,nj->ni", phi, br_x_phiy))
    deta = exterior_differential(at["eta"][1])
    deta_xy = np.einsum("i,nij,j->n", xv, deta, yv)
    out = torsion + 2.0 * deta_xy[:, None] * xi
    return out[0] if single else out


def structure_residuals(model: AlmostContactModel, pts) -> dict[str, float]:
    """Closed-form structure-axiom residuals (no differentiation).

    phi^2 = -I + eta (x) xi,  eta(xi) = 1,  g(., xi) = eta,
    g(phi X, phi Y) = g(X, Y) - eta(X) eta(Y),  lam^2 = -1 - k.
    """
    pts, _ = as_points(pts)
    at = model.at(pts)
    phi, xi, eta, g, k, lam = (at[name][0] for name in (
        "phi", "xi", "eta", "g", "k_nom", "lam_nom"))
    eye = np.broadcast_to(np.eye(3), g.shape)
    out = {
        "phi_squared": float(np.max(np.abs(
            phi @ phi + eye - np.einsum("ni,nj->nij", xi, eta)))),
        "eta_of_xi": float(np.max(np.abs(
            np.einsum("ni,ni->n", eta, xi) - 1.0))),
        "metric_dual": float(np.max(np.abs(
            np.einsum("nij,nj->ni", g, xi) - eta))),
        "compatibility": float(np.max(np.abs(
            np.einsum("nsi,nst,ntj->nij", phi, g, phi)
            - g + np.einsum("ni,nj->nij", eta, eta)))),
        "lam_sq_vs_k": float(np.max(np.abs(
            lam ** 2 + 1.0 + k))),
    }
    return out
