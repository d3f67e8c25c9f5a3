"""Levi-Civita connection, curvature and covariant calculus of a metric.

Every function works on arrays at a batch of points: the metric's values
and its exact coordinate partials, first and second, as a model's ``at``
returns them.  Nothing here differentiates numerically.

Conventions.  Christoffel symbols Gamma^i_{jk} are indexed ``[i, j, k]``.
The curvature convention is R(X,Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z
- nabla_{[X,Y]} Z, stored as R^i_{jkl} with R(e_k, e_l)e_j = R^i_{jkl} e_i.
Ric(Y,Z) is the trace of X -> R(X,Y)Z, Q is the Ricci operator and Sc its
trace.  With these signs the warped metric dt^2 + e^{2t}(dx^2 + dy^2) has
every sectional curvature equal to -1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DegenerateMetricError",
    "DegeneratePlaneError",
    "Curvature",
    "curvature",
    "levi_civita",
    "christoffel_partials",
    "covariant_differential",
    "exterior_differential",
    "g_norm",
    "metric_factors",
]

COND_LIMIT = 1e12


class DegenerateMetricError(ValueError):
    """Metric inversion rejected (condition number above ``COND_LIMIT``)."""


class DegeneratePlaneError(ValueError):
    """Sectional curvature of a (numerically) degenerate plane."""


def _inverse_metric(g: np.ndarray) -> np.ndarray:
    """g^{-1}, or DegenerateMetricError where cond_2(g) exceeds COND_LIMIT.

    cond_2 <= cond_F = |g|_F |g^{-1}|_F, so a point whose Frobenius bound
    is at most COND_LIMIT / 2 (the factor leaves room for the rounding of
    g^{-1} itself) passes without an SVD.  The others, and every point when
    g is exactly singular, take the SVD-based ``np.linalg.cond`` test.
    """
    try:
        ginv = np.linalg.inv(g)
        doubt = ~(np.einsum("...ij,...ij->...", g, g)
                  * np.einsum("...ij,...ij->...", ginv, ginv)
                  <= (0.5 * COND_LIMIT) ** 2)
    except np.linalg.LinAlgError:
        ginv, doubt = None, np.ones(g.shape[:-2], bool)
    if np.any(doubt):
        try:
            cond = np.linalg.cond(g[doubt])
        except np.linalg.LinAlgError as ex:  # the SVD of non-finite entries
            raise DegenerateMetricError(
                f"metric condition number not computable: {ex}") from None
        if np.any(~np.isfinite(cond)) or np.any(cond > COND_LIMIT):
            raise DegenerateMetricError(
                f"metric condition number {float(np.max(cond)):.3e} "
                f"exceeds {COND_LIMIT:.0e}")
    return np.linalg.inv(g) if ginv is None else ginv


def levi_civita(g: np.ndarray, dg: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(Gamma, g^{-1}) from metric values (n,3,3) and partials (n, axis, i, j).

    Gamma^i_{jk} = 1/2 g^{is}(d_j g_{sk} + d_k g_{sj} - d_s g_{jk}).
    """
    ginv = _inverse_metric(g)
    return 0.5 * np.einsum("nis,nsjk->nijk", ginv, _braces(dg)), ginv


def _braces(dg: np.ndarray) -> np.ndarray:
    """d_j g_sk + d_k g_sj - d_s g_jk at ``[..., s, j, k]`` from the metric's
    partials ``[..., axis, i, j]``."""
    return (np.einsum("...jsk->...sjk", dg) + np.einsum("...ksj->...sjk", dg)
            - dg)


def christoffel_partials(gamma: np.ndarray, ginv: np.ndarray, dg: np.ndarray,
                         ddg: np.ndarray) -> np.ndarray:
    """d_a Gamma^i_{jk} at ``[n, a, i, j, k]`` from Gamma, g^{-1}, the metric's
    partials and its second partials ``ddg[n, a, b, i, j]``:
    d_a Gamma = g^{-1} (braces(d_a dg) / 2 - (d_a g) Gamma), as
    d_a g^{-1} = -g^{-1} (d_a g) g^{-1}."""
    n = len(gamma)
    inner = (0.5 * _braces(ddg).reshape(n, 3, 3, 9)
             - dg @ gamma.reshape(n, 1, 3, 9))
    return (ginv[:, None] @ inner).reshape(n, 3, 3, 3, 3)


@dataclass(frozen=True)
class Curvature:
    """Curvature data at a batch of points."""

    riemann: np.ndarray   # (n, 3, 3, 3, 3) = R^i_{jkl}
    q: np.ndarray         # (n, 3, 3) Ricci operator
    scalar: np.ndarray    # (n,)

    def apply(self, x, y, z) -> np.ndarray:
        """(R(X,Y)Z)^i for per-point component vectors; Z is contracted
        first, then X, then Y."""
        r_z = np.einsum("nijkl,nj->nikl", self.riemann, z)
        return np.einsum("nil,nl->ni", np.einsum("nikl,nk->nil", r_z, x), y)

    def sectional(self, g: np.ndarray, x, y) -> np.ndarray:
        """K(X,Y) = g(R(X,Y)Y, X) / (|X|^2 |Y|^2 - g(X,Y)^2) from the metric
        values ``g`` (n,3,3) at the same points; X, Y per point or constant."""
        x = np.broadcast_to(np.asarray(x, float), (len(g), 3))
        y = np.broadcast_to(np.asarray(y, float), (len(g), 3))
        num = np.einsum("ni,nij,nj->n", self.apply(x, y, y), g, x)
        xx = np.einsum("ni,nij,nj->n", x, g, x)
        yy = np.einsum("ni,nij,nj->n", y, g, y)
        xy = np.einsum("ni,nij,nj->n", x, g, y)
        den = xx * yy - xy ** 2
        if np.any(den < 1e-12):
            raise DegeneratePlaneError(
                f"plane area^2 {float(np.min(den)):.3e} below 1e-12")
        return num / den


def curvature(gamma: np.ndarray, ginv: np.ndarray,
              dgamma: np.ndarray) -> Curvature:
    """Curvature from Gamma (n,3,3,3), g^{-1} (n,3,3) and the partials
    ``dgamma[n, a, i, j, k] = d_a Gamma^i_{jk}``."""
    riem = (np.einsum("nkilj->nijkl", dgamma) - np.einsum("nlikj->nijkl", dgamma)
            + np.einsum("niks,nslj->nijkl", gamma, gamma)
            - np.einsum("nils,nskj->nijkl", gamma, gamma))
    ric = np.einsum("nijil->nlj", riem)
    q = np.einsum("nis,nsj->nij", ginv, ric)
    sc = np.einsum("nii->n", q)
    return Curvature(riem, q, sc)


def covariant_differential(t_vals: np.ndarray, dt_vals: np.ndarray,
                           gamma: np.ndarray) -> np.ndarray:
    """(nabla_k T)^i_j for a (1,1) tensor from values and coordinate partials.

    ``t_vals``: (n,3,3), ``dt_vals``: (n, axis, 3, 3), ``gamma``: (n,3,3,3).
    Output indexed ``[n, k, i, j]``.
    """
    # Gamma T is summed over s term by term, in order: the bits of the
    # einsum it replaced, in less time.  As a matmul (fused multiply-adds)
    # it put TR_PHI on kmu-darboux mu=0.744 (a residual at its rounding
    # floor) 7.6 times as far from the long-double reference as the ordered
    # sum (5.5e-11 against 7.2e-12, g^-1 trace), where
    # TestStagedContractions allows twice as far
    plus = sum(gamma[..., s, None] * t_vals[:, None, None, s] for s in range(3))
    minus = (t_vals @ gamma.reshape(len(t_vals), 3, 9)).reshape(-1, 3, 3, 3)
    return (dt_vals + plus.transpose(0, 2, 1, 3)
            - minus.transpose(0, 2, 1, 3))


def exterior_differential(d: np.ndarray) -> np.ndarray:
    """Exterior derivative from a form's coordinate partials (n, axis, ...).

    1-form (partials (n,3,3)) -> 2-form components (d omega)_{ij} (n,3,3);
    2-form (partials (n,3,3,3), antisymmetric) -> the single 3-form density
    (d omega)(e_0, e_1, e_2) as a scalar (n,).
    """
    if d.shape[1:] == (3, 3):
        return d - np.einsum("nji->nij", d)
    if d.shape[1:] == (3, 3, 3):
        return d[:, 0, 1, 2] - d[:, 1, 0, 2] + d[:, 2, 0, 1]
    raise ValueError(f"not the partials of a 1-form or 2-form: shape {d.shape[1:]}")


# --------------------------------------------------------------------------
# g-norms
# --------------------------------------------------------------------------

def g_norm(v: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Riemannian length of per-point component vectors, as (v g) . v."""
    vg = (v[..., None, :] @ g)[..., 0, :]
    return np.sqrt(np.maximum(np.einsum("...i,...i->...", vg, v), 0.0))


def metric_factors(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(L^T, L^{-T}) of the Cholesky factorisation g = L L^T.

    In that frame the metric is Euclidean: |v|_g = |L^T v|, and a (1,1)
    tensor A acts as L^T A L^{-T}.
    """
    lt = np.swapaxes(np.linalg.cholesky(g), -1, -2)
    return lt, np.linalg.inv(lt)

