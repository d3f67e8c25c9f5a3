"""Structure checks that no CLI path runs: the tests' references.

``structure_residuals`` (the structure axioms) and ``nijenhuis`` read one
``model.at`` pass; ``g_norm`` is the plain g-length the long-double norm
checks compare against; ``metric_from_state`` checks the leaf metric of the
ODE's states; ``NULLITY`` names each nullity operator's registry identity;
``jet`` reads one field's values or exact partials off ``model.at``.
"""

import numpy as np

from kenmotsu3.fields import as_points
from kenmotsu3.geometry import exterior_differential
from kenmotsu3.ode import M2, ConsistencyError, _det_g
from magnus_reference import _as_matrix

NULLITY = {"h": "NULL_KMU", "hp": "NULL_KMUP"}  # by a model's ``variant``


def jet(model, name, order):
    """The field ``name``'s values (``order`` 0), exact partials (1, axis
    first) or second partials (2, both axes first) as a function of points:
    ``model.at(pts)[name][order]``."""
    return lambda pts: model.at(pts)[name][order]


def nijenhuis(model, pts, x, y) -> np.ndarray:
    """N(X,Y) = [phi,phi](X,Y) + 2 d(eta)(X,Y) xi for constant X, Y, where
    [phi,phi](X,Y) = [phi X, phi Y] - phi [phi X, Y] - phi [X, phi Y]: the
    term phi^2 [X,Y] vanishes, and d(phi X) = (d phi) X."""
    pts, single = as_points(pts)
    xv, yv = np.asarray(x, float), np.asarray(y, float)
    at = model.at(pts)
    (phi, dphi, _), xi = at["phi"], at["xi"][0]  # dphi: (n, a, i, j)
    phi_x, phi_y = phi @ xv, phi @ yv
    d_phi_x, d_phi_y = dphi @ xv, dphi @ yv          # (n, a, i)
    # [U, V]^i = U^a d_a V^i - V^a d_a U^i, with d_a X = d_a Y = 0
    br_phix_phiy = (np.einsum("na,nai->ni", phi_x, d_phi_y)
                    - np.einsum("na,nai->ni", phi_y, d_phi_x))
    br_phix_y = -np.einsum("a,nai->ni", yv, d_phi_x)
    br_x_phiy = np.einsum("a,nai->ni", xv, d_phi_y)
    torsion = (br_phix_phiy - np.einsum("nij,nj->ni", phi, br_phix_y)
               - np.einsum("nij,nj->ni", phi, br_x_phiy))
    deta_xy = np.einsum("i,nij,j->n", xv, exterior_differential(at["eta"][1]), yv)
    out = torsion + 2.0 * deta_xy[:, None] * xi
    return out[0] if single else out


def structure_residuals(model, pts) -> dict[str, float]:
    """Closed-form structure-axiom residuals (no differentiation).

    phi^2 = -I + eta (x) xi,  eta(xi) = 1,  g(., xi) = eta,
    g(phi X, phi Y) = g(X, Y) - eta(X) eta(Y),  lam^2 = -1 - k.
    """
    at = model.at(as_points(pts)[0])
    phi, xi, eta, g, k, lam = (at[name][0] for name in (
        "phi", "xi", "eta", "g", "k_nom", "lam_nom"))
    residuals = {
        "phi_squared": phi @ phi + np.eye(3) - np.einsum("ni,nj->nij", xi, eta),
        "eta_of_xi": np.einsum("ni,ni->n", eta, xi) - 1.0,
        "metric_dual": np.einsum("nij,nj->ni", g, xi) - eta,
        "compatibility": (np.einsum("nsi,nst,ntj->nij", phi, g, phi)
                          - g + np.einsum("ni,nj->nij", eta, eta)),
        "lam_sq_vs_k": lam ** 2 + 1.0 + k,
    }
    return {name: float(np.max(np.abs(r))) for name, r in residuals.items()}


def g_norm(v: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Riemannian length of per-point component vectors, as (v g) . v."""
    vg = (v[..., None, :] @ g)[..., 0, :]
    return np.sqrt(np.maximum(np.einsum("...i,...i->...", vg, v), 0.0))


def metric_from_state(t, y) -> np.ndarray:
    """G = -M2 F = [[f2-f3, f1], [f1, f2+f3]] of states ``y`` (..., 10) at
    times ``t`` (...), or ``ConsistencyError`` at the first node whose G is
    not positive definite.  f2 - f3 and det G cancel once G is badly
    conditioned: the model builder checks G on the frames P instead."""
    g = -M2 @ _as_matrix(y[..., 0:3])
    bad = np.ravel(~((g[..., 0, 0] > 0) & (_det_g(y) > 0)))
    if bad.any():
        i = int(np.argmax(bad))
        raise ConsistencyError(
            "leaf metric lost positive definiteness at "
            f"t={float(np.ravel(t)[i])}: {g.reshape(-1, 2, 2)[i].tolist()}")
    return g
