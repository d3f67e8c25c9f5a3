"""Almost contact metric structures and the operators derived from them.

An :class:`AlmostContactModel` bundles the structure tensors (phi, xi, eta, g)
as field evaluators over one chart, together with nominal scalar fields
k, mu, lambda and family metadata.  The tensor h is computed from its
Lie-derivative definition h = (1/2) L_xi phi (never from the connection, so
the connection identities stay an independent cross-check); the identities'
Probe composes h' = h o phi and B = phi o h from the same values.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .fields import (
    ChartDomain,
    CovectorField,
    MetricField,
    ScalarField,
    Tensor11Field,
    VectorField,
    as_points,
    coordinate_derivatives,
)
from .geometry import exterior_derivative, g_norm

__all__ = [
    "AlmostContactModel",
    "Eigenframe",
    "lie_derivative",
    "compute_h",
    "frame_of",
    "nijenhuis",
    "structure_residuals",
]

FAMILIES = ("kenmotsu-baseline", "kmu-chart", "kmup-chart",
            "kmu-darboux", "kmup-darboux")


@dataclass
class AlmostContactModel:
    """Structure tensors plus nominal scalars over a single chart.

    ``variant`` names the operator entering this family's nullity condition:
    ``"h"`` or ``"hp"`` (for h').  ``coords`` labels the axes; the third axis
    is the distinguished coordinate (z or t).  All seven fields are built
    by ``models._model`` from one set of coefficients, which they keep for
    their last point array: a model's values depend on the points alone,
    but it is not thread-safe.  k_nom, mu_nom and lam_nom carry exact
    partials but no second partials.
    """

    family: str
    variant: str
    coords: tuple[str, str, str]
    domain: ChartDomain
    default_box: tuple[tuple[float, float], ...]
    phi: Tensor11Field
    xi: VectorField
    eta: CovectorField
    g: MetricField
    k_nom: ScalarField
    mu_nom: ScalarField
    lam_nom: ScalarField
    params: dict = dc_field(default_factory=dict)
    trajectory: object = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.variant not in ("h", "hp"):
            raise ValueError(f"variant must be 'h' or 'hp', got {self.variant!r}")

    def nullity_operator(self, h: np.ndarray, phi: np.ndarray) -> np.ndarray:
        """The T of this family's nullity condition from computed h, phi."""
        return h @ phi if self.variant == "hp" else h


@dataclass(frozen=True)
class Eigenframe:
    """Per-point frame (xi, X, phi X) with T X = lam X for the model's T.

    ``degenerate`` flags points where the top eigenvalue fell below 1e-10
    (h vanishes there; lam is reported as 0).
    """

    lam: np.ndarray         # (n,)
    x: np.ndarray           # (n, 3)
    phi_x: np.ndarray       # (n, 3)
    degenerate: np.ndarray  # (n,) bool


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

    The partials of phi and xi are the fields' own exact ones (the chart
    families by jets, the Darboux families from the ODE, the baseline in
    closed form) and FD for a field that carries none.
    """
    pts, single = as_points(pts)
    dphi = coordinate_derivatives(model.phi, pts)  # (n, a, i, j)
    dxi = coordinate_derivatives(model.xi, pts)    # (n, a, i)
    h = 0.5 * lie_derivative(model.xi(pts), dxi, model.phi(pts), dphi)
    return h[0] if single else h


def frame_of(g: np.ndarray, xi: np.ndarray, phi: np.ndarray, eta: np.ndarray,
             t_op: np.ndarray) -> Eigenframe:
    """Largest-eigenvalue unit frame of ``t_op`` from per-point values.

    The eigenproblem is solved on the 2-dimensional distribution orthogonal
    to xi (h xi = 0 exactly in every family, so projecting out xi first
    avoids spurious mixing).  The sign of X is fixed by making its first
    component above 1e-8 in magnitude positive.
    """
    # g-orthonormal basis of ker(eta): project the first two coordinate
    # directions and Gram-Schmidt them
    basis = []
    for j in (0, 1):
        v = np.zeros_like(xi)
        v[:, j] = 1.0
        v = v - eta[:, j, None] * xi
        for u in basis:
            v = v - np.einsum("ni,nij,nj->n", v, g, u)[:, None] * u
        v = v / g_norm(v, g)[:, None]
        basis.append(v)
    u1, u2 = basis

    t_u1 = np.einsum("nij,nj->ni", t_op, u1)
    t_u2 = np.einsum("nij,nj->ni", t_op, u2)
    m = np.empty((len(g), 2, 2))
    m[:, 0, 0] = np.einsum("ni,nij,nj->n", t_u1, g, u1)
    m[:, 1, 1] = np.einsum("ni,nij,nj->n", t_u2, g, u2)
    m[:, 0, 1] = m[:, 1, 0] = 0.5 * (
        np.einsum("ni,nij,nj->n", t_u1, g, u2)
        + np.einsum("ni,nij,nj->n", t_u2, g, u1))
    evals, evecs = np.linalg.eigh(m)
    lam = evals[:, 1]
    x = evecs[:, 0, 1, None] * u1 + evecs[:, 1, 1, None] * u2

    degenerate = lam < 1e-10
    lam = np.where(degenerate, 0.0, lam)
    x = np.where(degenerate[:, None], u1, x)

    # deterministic sign: first coordinate component of magnitude > 1e-8
    significant = np.abs(x) > 1e-8
    first = np.argmax(significant, axis=1)
    lead = x[np.arange(len(x)), first]
    x = np.where((lead < 0)[:, None], -x, x)

    return Eigenframe(lam, x, np.einsum("nij,nj->ni", phi, x), degenerate)


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
    phi = model.phi(pts)
    dphi = coordinate_derivatives(model.phi, pts)  # (n, a, i, j)
    phi_x, phi_y = phi @ xv, phi @ yv
    d_phi_x, d_phi_y = dphi @ xv, dphi @ yv                # (n, a, i)
    # [U, V]^i = U^a d_a V^i - V^a d_a U^i, with d_a X = d_a Y = 0
    br_phix_phiy = (np.einsum("na,nai->ni", phi_x, d_phi_y)
                    - np.einsum("na,nai->ni", phi_y, d_phi_x))
    br_phix_y = -np.einsum("a,nai->ni", yv, d_phi_x)
    br_x_phiy = np.einsum("a,nai->ni", xv, d_phi_y)
    torsion = (br_phix_phiy - np.einsum("nij,nj->ni", phi, br_phix_y)
               - np.einsum("nij,nj->ni", phi, br_x_phiy))
    deta = exterior_derivative(model.eta, pts)
    deta_xy = np.einsum("i,nij,j->n", xv, deta, yv)
    out = torsion + 2.0 * deta_xy[:, None] * model.xi(pts)
    return out[0] if single else out


def structure_residuals(model: AlmostContactModel, pts) -> dict[str, float]:
    """Closed-form structure-axiom residuals (no differentiation).

    phi^2 = -I + eta (x) xi,  eta(xi) = 1,  g(., xi) = eta,
    g(phi X, phi Y) = g(X, Y) - eta(X) eta(Y),  lam^2 = -1 - k.
    """
    pts, _ = as_points(pts)
    phi = model.phi(pts)
    xi = model.xi(pts)
    eta = model.eta(pts)
    g = model.g(pts)
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
            model.lam_nom(pts) ** 2 + 1.0 + model.k_nom(pts)))),
    }
    return out
