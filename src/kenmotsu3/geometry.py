"""Levi-Civita connection, curvature and covariant calculus of a metric.

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

from .fields import (
    ArrayField,
    DiffScheme,
    MetricField,
    as_points,
    coordinate_derivatives,
)

__all__ = [
    "DegenerateMetricError",
    "DegeneratePlaneError",
    "Curvature",
    "curvature",
    "levi_civita",
    "riemann",
    "sectional_curvature",
    "covariant_differential",
    "exterior_derivative",
    "exterior_differential",
    "g_norm",
    "g_operator_norm",
]

COND_LIMIT = 1e12
# largest (v g) temporary of g_norm over pooled vectors
_NORM_BLOCK_BYTES = 1 << 18


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
    braces = np.einsum("njsk->nsjk", dg) + np.einsum("nksj->nsjk", dg) - dg
    return 0.5 * np.einsum("nis,nsjk->nijk", ginv, braces), ginv


@dataclass(frozen=True)
class Curvature:
    """Curvature data at a batch of points."""

    riemann: np.ndarray   # (n, 3, 3, 3, 3) = R^i_{jkl}
    ricci: np.ndarray     # (n, 3, 3)
    q: np.ndarray         # (n, 3, 3) Ricci operator
    scalar: np.ndarray    # (n,)
    gamma: np.ndarray     # (n, 3, 3, 3)
    ginv: np.ndarray      # (n, 3, 3)

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
    return Curvature(riem, ric, q, sc, gamma, ginv)


def riemann(g: MetricField, pts, scheme: DiffScheme | None = None) -> Curvature:
    """Full curvature from Gamma and the FD partials of Gamma as a field."""
    pts, _ = as_points(pts)
    gamma, ginv = levi_civita(g(pts), coordinate_derivatives(g, pts, scheme))
    gamma_field = ArrayField(
        lambda q: levi_civita(g(q), coordinate_derivatives(g, q, scheme))[0],
        g.domain, out_shape=(3, 3, 3), axis_quanta=g.axis_quanta,
        varies=g.varies, name="christoffel")
    dgamma = coordinate_derivatives(gamma_field, pts, scheme)
    return curvature(gamma, ginv, dgamma)


def sectional_curvature(g: MetricField, pts, x, y,
                        scheme: DiffScheme | None = None) -> np.ndarray:
    """K(X,Y) of the metric field ``g`` at ``pts`` (see Curvature.sectional)."""
    pts, single = as_points(pts)
    out = riemann(g, pts, scheme).sectional(g(pts), x, y)
    return out[0] if single else out


def covariant_differential(t_vals: np.ndarray, dt_vals: np.ndarray,
                           gamma: np.ndarray) -> np.ndarray:
    """(nabla_k T)^i_j for a (1,1) tensor from values and coordinate partials.

    ``t_vals``: (n,3,3), ``dt_vals``: (n, axis, 3, 3), ``gamma``: (n,3,3,3).
    Output indexed ``[n, k, i, j]``.
    """
    # Gamma T stays an einsum, which sums over s in order: as a matmul
    # (fused multiply-adds) it put TR_PHI on kmu-darboux mu=0.744 (a
    # residual at its rounding floor, 3.7e-11) 8.1 times as far from the
    # long-double reference as the einsum, where TestStagedContractions
    # allows twice as far
    minus = (t_vals @ gamma.reshape(len(t_vals), 3, 9)).reshape(-1, 3, 3, 3)
    return (dt_vals + np.einsum("niks,nsj->nkij", gamma, t_vals)
            - minus.transpose(0, 2, 1, 3))


def exterior_derivative(form: ArrayField, pts,
                        scheme: DiffScheme | None = None) -> np.ndarray:
    """Coordinate exterior derivative of a 1-form or 2-form field."""
    pts, single = as_points(pts)
    out = exterior_differential(coordinate_derivatives(form, pts, scheme))
    return out[0] if single else out


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
    """Riemannian length of per-point component vectors, as (v g) . v.

    Where g is broadcast along the axis before the components, as over a
    pool of vectors at each point, that axis gives the rows of one matmul
    with the point's g, a block of points at a time: the (v g) temporary
    then stays under ``_NORM_BLOCK_BYTES``.
    """
    if v.ndim < 2 or g.ndim != v.ndim + 1 or g.shape[-3] != 1 or len(g) != len(v):
        vg = (v[..., None, :] @ g)[..., 0, :]
        return np.sqrt(np.maximum(np.einsum("...i,...i->...", vg, v), 0.0))
    g = g[..., 0, :, :]
    out = np.empty(v.shape[:-1], np.result_type(v, g))
    step = max(1, _NORM_BLOCK_BYTES // max(1, v[0].nbytes))
    for s in range(0, len(v), step):
        vs = v[s:s + step]
        np.einsum("...i,...i->...", vs @ g[s:s + step], vs, out=out[s:s + step])
    return np.sqrt(np.maximum(out, 0.0, out=out), out=out)


def g_operator_norm(a: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Operator norm of a (1,1) tensor w.r.t. the metric.

    Equals the largest singular value of m = L^T A L^{-T} where g = L L^T,
    taken as the square root of the top eigenvalue of the Gram matrix
    m^T m, with m scaled to a largest entry of 1 so that the Gram matrix
    neither overflows nor underflows.  Non-finite input raises LinAlgError.
    """
    lt = np.swapaxes(np.linalg.cholesky(g), -1, -2)
    m = lt @ a @ np.linalg.inv(lt)
    scale = np.max(np.abs(m), axis=(-2, -1))
    scale = np.where(scale > 0.0, scale, 1.0)
    m = m / scale[..., None, None]
    gram = np.swapaxes(m, -1, -2) @ m
    out = scale * np.sqrt(np.maximum(np.linalg.eigvalsh(gram)[..., -1], 0.0))
    if not np.isfinite(out).all():
        raise np.linalg.LinAlgError("operator norm of a non-finite tensor")
    return out
