"""Residual evaluation of every verified identity over a sample plan.

Each identity is evaluated pointwise on a deterministic grid plan, a block
of BLOCK points at a time; the report carries the largest residual over
the plan's points, the point of that maximum, the tolerance profile and
the verdict.  Identities that do not apply to a model family get a
distinct "not-applicable" verdict, never a silent pass.  No identity reads
a random number.

Pointwise norms: the absolute value for scalars, and for every other
residual (Probe.norm, _chunk_norms) the Frobenius norm in the Cholesky frame
of g = L L^T, the g-orthonormal rows of E = L^{-1}: L^T on the residual's one
contravariant index, if it has one, E on every other index, then the root
sum of squares.  A vector's norm is its g-length, and a (1,1) tensor's
lies between its g-operator norm and sqrt(3) times it.  Each identity over
tangent vectors is multilinear, so it holds for all vectors if and only if
it holds on a basis, and for g-unit vectors Cauchy-Schwarz in the frame
gives |T(X, Y, ...)| <= |T|_F: the norm bounds the residual at any unit
vectors from above, and it is the same in every g-orthonormal frame.
CODAZZI_HP quantifies over ker(eta), which E's first two rows span, and
the adapted frame (xi, X, phi X) turns those two rows to the top
eigenvector X of the nullity operator in ker(eta) (Probe.eigen): one
g-orthonormal basis of ker(eta) per Probe.  E needs g alone, where phi X is
g-unit only as far as phi is g-compatible: only the identities about the
adapted frame, CONN_KMU, CONN_KMUP and FLAT_LEAF, and infer_k_mu read it.

Tolerance profiles: STRICT 1e-10 (algebraic, no differentiation),
FD1 1e-6 (one derivative level), FD2 5e-5 (curvature level).
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import NamedTuple

import numpy as np

from .fields import as_points
from .geometry import (
    christoffel_partials,
    covariant_differential,
    curvature,
    exterior_differential,
    levi_civita,
    metric_factors,
)
from .structure import FAMILIES, AlmostContactModel, lie_derivative

__all__ = [
    "PROFILES",
    "SamplePlan",
    "ResidualReport",
    "IDENTITIES",
    "check_identity",
    "check_suite",
    "check_suites",
    "infer_k_mu",
    "worst_of",
]

PROFILES = {"strict": 1e-10, "fd1": 1e-6, "fd2": 5e-5}

MU_EIGEN_FLOOR = 1e-6  # below this eigenvalue mu recovery is indeterminate

BLOCK = 256  # sample points per Probe: a suite's peak memory is the block's

_CURV2_COND = 1e4  # cond_F(g) above which CURV2 sums in long double


@dataclass(frozen=True)
class SamplePlan:
    """Deterministic sample plan: ``grid`` points per axis inside ``box``
    (the model's default box when None)."""

    grid: int = 5
    box: tuple | None = None

    def __post_init__(self):
        if self.grid < 1:
            raise ValueError(f"sample plan grid must be >= 1, got {self.grid}")

    def points(self, model: AlmostContactModel) -> np.ndarray:
        box = self.box if self.box is not None else model.default_box
        if len(box) != 3 or any(len(iv) != 2 or not iv[0] < iv[1] for iv in box):
            raise ValueError(f"malformed sample box {box!r}")
        axes = [np.linspace(lo, hi, self.grid) for lo, hi in box]
        try:
            pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
        except (MemoryError, ValueError) as ex:  # numpy cannot allocate them
            raise ValueError(f"sample plan grid {self.grid} needs {self.grid ** 3} "
                             f"points, which cannot be allocated ({ex})") from None
        inside = np.atleast_1d(model.domain.contains(pts))
        if not inside.all():
            raise ValueError(
                f"sample box {box!r} leaves the chart domain "
                f"(first bad point {pts[~inside][0].tolist()})")
        return pts


@dataclass(frozen=True)
class ResidualReport:
    """Outcome of one identity over one plan."""

    id: str
    formula: str
    residual: float
    tolerance: float
    profile: str
    verdict: str                 # "pass" | "fail" | "not-applicable"
    max_point: tuple | None
    samples: int

    def as_dict(self) -> dict:
        """JSON-ready fields; a residual that is not a finite number (the
        not-applicable NaN) becomes None, which JSON writes as null."""
        return {
            "id": self.id,
            "formula": self.formula,
            "residual": self.residual if np.isfinite(self.residual) else None,
            "tolerance": self.tolerance,
            "profile": self.profile,
            "maxPoint": list(self.max_point) if self.max_point else None,
            "samples": self.samples,
            "verdict": self.verdict,
        }


# --------------------------------------------------------------------------
# Evaluation cache
# --------------------------------------------------------------------------

class _Eigen(NamedTuple):
    """Per-point frame (xi, X, phi X) with T X = lam X for the model's T."""

    lam: np.ndarray    # (n,)
    x: np.ndarray      # (n, 3)
    phi_x: np.ndarray  # (n, 3)


# a variant's law (Probe.law): T with its partials and nabla T, B, the rates
# nu and f', and C, -phi h on (X, phi X) per unit lam (S = I + lam C there)
_Law = namedtuple("_Law", "t dt nabla_t b nu rate c")


class Probe:
    """Lazy per-block cache of everything the identities consume.

    phi, xi, eta, g and the nominal k, mu and lam, with their exact partials
    and the second partials of phi, xi and g, come from one ``model.at``
    pass over the block's points; everything else is derived from those
    values in closed form, with no finite differences.  Each second partial
    is dropped by its one reader (``curv``, ``dh``).
    """

    def __init__(self, model: AlmostContactModel, pts: np.ndarray):
        self.model = model
        self.pts, _ = as_points(pts)
        self.n = self.pts.shape[0]
        at = model.at(self.pts)
        self.g, self.dg, ddg = at["g"]
        self.phi, self.dphi, ddphi = at["phi"]
        self.xi, self.dxi, ddxi = at["xi"]
        self.eta, deta, _ = at["eta"]
        self.deta = exterior_differential(deta)
        self.k, self.dk, _ = at["k_nom"]
        self.mu, self.dmu, _ = at["mu_nom"]
        self.lam_nom, self.dlam, _ = at["lam_nom"]
        self._second = {"g": ddg, "phi": ddphi, "xi": ddxi}

    @cached_property
    def eye(self):
        return np.broadcast_to(np.eye(3), (self.n, 3, 3))

    # --- connection and curvature -------------------------------------------

    @cached_property
    def _levi_civita(self):
        return levi_civita(self.g, self.dg)

    @cached_property
    def gamma(self):
        return self._levi_civita[0]

    @cached_property
    def ginv(self):
        return self._levi_civita[1]

    @cached_property
    def curv(self):
        dgamma = christoffel_partials(self.gamma, self.ginv, self.dg,
                                      self._second.pop("g"))
        return curvature(self.gamma, self.ginv, dgamma)

    @cached_property
    def r_xi(self):
        """(R(e_k, e_l) xi)^i indexed ``[n, k, i, l]``."""
        return np.einsum("nijkl,nj->nkil", self.curv.riemann, self.xi)

    # --- h and friends --------------------------------------------------------

    @cached_property
    def h(self):
        """h = (1/2) L_xi phi."""
        return 0.5 * lie_derivative(self.xi, self.dxi, self.phi, self.dphi)

    @cached_property
    def hp(self):
        return self.h @ self.phi

    @cached_property
    def bmat(self):
        return self.phi @ self.h

    @cached_property
    def law(self):
        """The variant's law, chosen once: T = h, B = phi h and (nu, f') =
        (mu, 2) for h, T = B = h' and (nu, f') = (0, mu + 2) for h'; with
        T X = lam X, -phi h is lam C on (X, phi X)."""
        if self.model.variant == "h":
            return _Law(self.h, self.dh, self.nabla_h, self.bmat, self.mu,
                        np.full(self.n, 2.0), np.array([[0.0, -1.0], [-1.0, 0.0]]))
        return _Law(self.hp, self.dhp, self.nabla_hp, self.hp, np.zeros(self.n),
                    self.mu + 2.0, np.array([[1.0, 0.0], [0.0, -1.0]]))

    @cached_property
    def dh(self):
        """d_b h = (1/2)(L_{d_b xi} phi + L_xi d_b phi), ``[n, b, i, j]``."""
        ddxi, ddphi = self._second.pop("xi"), self._second.pop("phi")
        return 0.5 * (lie_derivative(self.dxi, ddxi, self.phi[:, None],
                                     self.dphi[:, None])
                      + lie_derivative(self.xi[:, None], self.dxi[:, None],
                                       self.dphi, ddphi))

    @cached_property
    def dhp(self):
        """d h' = (d h) phi + h d phi."""
        return self.dh @ self.phi[:, None] + self.h[:, None] @ self.dphi

    @cached_property
    def db(self):
        """d B = (d phi) h + phi d h."""
        return self.dphi @ self.h[:, None] + self.phi[:, None] @ self.dh

    @cached_property
    def nabla_xi(self):
        """(nabla_k xi)^i as operator [n, i, k]."""
        return (np.einsum("nki->nik", self.dxi)
                + np.einsum("niks,ns->nik", self.gamma, self.xi))

    @cached_property
    def nabla_h(self):
        return covariant_differential(self.h, self.dh, self.gamma)

    @cached_property
    def nabla_hp(self):
        return covariant_differential(self.hp, self.dhp, self.gamma)

    @cached_property
    def nabla_b(self):
        return covariant_differential(self.bmat, self.db, self.gamma)

    @cached_property
    def nabla_phi(self):
        return covariant_differential(self.phi, self.dphi, self.gamma)

    @cached_property
    def lie_h(self):
        return lie_derivative(self.xi, self.dxi, self.h, self.dh)

    @cached_property
    def lie_hp(self):
        return lie_derivative(self.xi, self.dxi, self.hp, self.dhp)

    # --- the fundamental 2-form ----------------------------------------------

    @cached_property
    def phi2(self):
        """Phi_ij = g_is phi^s_j."""
        return np.einsum("nis,nsj->nij", self.g, self.phi)

    @cached_property
    def nabla_phi2(self):
        """(nabla_k Phi)_{ij} = g_is (nabla_k phi)^s_j, as nabla g = 0."""
        return self.g[:, None] @ self.nabla_phi

    # --- the adapted frame --------------------------------------------------

    @cached_property
    def eigen(self):
        """The top eigenpair of T on ker(eta), in the Cholesky frame.

        E's first two rows e_0, e_1 are a g-orthonormal basis of ker(eta)
        (eta is a multiple of dz or dt in every family), and T's block on
        them, m_ab = g(e_a, T e_b), is (L^T T E^T)[:2, :2], since E g = L^T.
        X = v_0 e_0 + v_1 e_1 for the top eigenvector v of the symmetrised
        m.  Where lam < 1e-10 (h vanishes) lam is 0 and X = e_0.  The first
        component of X above 1e-8 in magnitude is positive.
        """
        lt, e = self.factors
        leaf = e[:, :2]
        m = lt[:, :2] @ self.law.t @ leaf.transpose(0, 2, 1)
        evals, evecs = np.linalg.eigh(0.5 * (m + m.transpose(0, 2, 1)))
        lam = evals[:, 1]
        x = evecs[:, 0, 1, None] * leaf[:, 0] + evecs[:, 1, 1, None] * leaf[:, 1]
        degenerate = lam < 1e-10
        lam = np.where(degenerate, 0.0, lam)
        x = np.where(degenerate[:, None], leaf[:, 0], x)
        lead = x[np.arange(self.n), np.argmax(np.abs(x) > 1e-8, axis=1)]
        x = np.where((lead < 0)[:, None], -x, x)
        return _Eigen(lam, x, np.einsum("nij,nj->ni", self.phi, x))

    @cached_property
    def frame(self):
        """(n, 3, 3): the adapted frame (xi, X, phi X), g-orthonormal as far
        as phi is g-compatible; read by the identities about it alone."""
        return np.stack([self.xi, self.eigen.x, self.eigen.phi_x], axis=1)

    @cached_property
    def dx(self):
        """d_a X = alpha_a X + c_a phi X, ``[n, a, i]``.

        X stays g-unit, alpha = -(1/2) d_a g(X, X), and stays an eigenvector
        of T in ker(eta) with T phi X = -lam phi X, c = g((d_a T) X, phi X) /
        (2 lam).  eta is a multiple of dz or dt in every family, so
        eta(d_a X) = 0: d_a X has no xi part.
        """
        ef = self.eigen
        gpx = (self.g @ ef.phi_x[..., None])[..., 0]
        alpha = -0.5 * np.einsum("naij,ni,nj->na", self.dg, ef.x, ef.x)
        c = (np.einsum("naij,nj,ni->na", self.law.dt, ef.x, gpx)
             * (0.5 / np.maximum(ef.lam, 1e-300))[:, None])
        return (alpha[..., None] * ef.x[:, None]
                + c[..., None] * ef.phi_x[:, None])

    @cached_property
    def frame_nabla(self):
        """(nabla_{E_a} E_b)^i over the adapted frame E, indexed [n, a, b, i].

        X takes :attr:`dx`, and phi X the product rule
        nabla(phi X) = (nabla phi) X + phi nabla X.
        """
        x = self.eigen.x
        nabla_x = self.dx + np.einsum("nias,ns->nai", self.gamma, x)  # [n, k, i]
        nabla_phi_x = (np.einsum("nkij,nj->nki", self.nabla_phi, x)
                       + np.einsum("nij,nkj->nki", self.phi, nabla_x))
        nabla_e = np.stack([self.nabla_xi.transpose(0, 2, 1), nabla_x,
                            nabla_phi_x], axis=1)
        # term by term, so a point rounds alike in any batch: einsum's sum
        # over k did not (CONN_KMU at grid 17, one Probe against blocks)
        return sum(self.frame[:, :, k, None, None] * nabla_e[:, None, :, k]
                   for k in range(3))

    # --- contractions and the one norm ----------------------------------------

    @cached_property
    def factors(self):
        """(L^T, E) of g = L L^T, factored once: E = L^{-1}, whose rows are
        the g-orthonormal frame every residual tensor is normed in."""
        return metric_factors(self.g)

    def norm(self, t, upper=None):
        """:func:`_frame_norm` of t[n, ...] in the Cholesky frame, on the
        kept factors."""
        return _frame_norm(t, *self.factors, upper)


def _frobenius(u):
    """Root sum of squares of each point's entries u[n, ...]: with every
    slot contracted by a g-orthonormal frame, the Frobenius norm."""
    u = u.reshape(len(u), -1)
    return np.sqrt(np.einsum("nk,nk->n", u, u))


def _frame_norm(t, lt, e, upper=None):
    """Frobenius norm of each point's tensor t[n, ...] in the frame of the
    rows of e[n, P, 3]: L^T on the slot ``upper``, the one contravariant
    index (None if there is none), e on every other slot, then the root sum
    of squares.  It is non-finite where t is.

    Each stage is one matmul per point: L^T takes the upper slot swapped to
    the front, and e the last slot, which then swaps with the next slot to
    contract (the norm does not depend on the order of the slots).  A (1,1)
    tensor A is thus L^T A E^T, a vector L^T v, and a 2-form E w E^T.
    """
    n = len(t)
    if upper is not None:
        t = t.swapaxes(1, 1 + upper)
        t = (lt @ t.reshape(n, 3, -1)).reshape(t.shape)
    et = e.swapaxes(1, 2)
    for k in range(t.ndim - 1 - (upper is not None)):
        t = t.swapaxes(-1, -1 - k)
        t = (t.reshape(n, -1, 3) @ et).reshape(*t.shape[:-1], -1)
    return _frobenius(t)


# --------------------------------------------------------------------------
# Identity residual functions (each returns per-point residuals (n,))
#
# An identity subtracts its right-hand side per point first, then norms that
# residual tensor in the Cholesky frame, a batched matmul per contracted
# index: numpy runs a multi-operand einsum as one nested loop, and a
# two-operand one over a 3-long contracted index as a 3-long inner loop.
# WEYL3's (1,3) and CURV2's (0,3) tensors are formed and normed a chunk of
# points at a time (_chunk_norms).  Each frame norm sums over every frame
# pair or triple: a sum over a < b alone would be another norm.
# --------------------------------------------------------------------------

def _chunk_norms(p: Probe, tensor, ops, upper, runs=None):
    """:func:`_frame_norm` of ``tensor(*ops)`` at each point, for each
    (dtype, sorted points) of ``runs`` (default: all in float64) 64 float64
    or 32 long-double points at a time, the operands cast to dtype (views
    where the points are consecutive): a chunk sets the peak memory."""
    lt, e = p.factors
    out = np.empty(p.n)
    for dtype, at in runs or [(float, np.arange(p.n))]:
        size = 512 // np.dtype(dtype).itemsize
        for s in range(0, len(at), size):
            part = at[s:s + size]
            if part[-1] - part[0] == len(part) - 1:
                part = slice(part[0], part[-1] + 1)
            out[part] = _frame_norm(
                tensor(*(np.asarray(a[part], dtype) for a in ops)),
                lt[part], e[part], upper)
    return out


def _res_nabla_xi(p: Probe):
    rhs = (p.eye - np.einsum("ni,nk->nik", p.xi, p.eta) - p.bmat)
    return p.norm(p.nabla_xi - rhs, upper=0)


def _res_ak_deta(p: Probe):
    return p.norm(p.deta)


def _res_ak_dphi(p: Probe):
    # the connection is torsion-free, so its terms cancel from the
    # alternation and d Phi is that of nabla Phi
    dphi3 = exterior_differential(p.nabla_phi2)
    eta_wedge = (p.eta[:, 0] * p.phi2[:, 1, 2]
                 - p.eta[:, 1] * p.phi2[:, 0, 2]
                 + p.eta[:, 2] * p.phi2[:, 0, 1])
    dens = np.abs(dphi3 - 2.0 * eta_wedge)
    return dens / np.sqrt(np.linalg.det(p.g))


def _kleaves(p: Probe):
    """KLEAVES' residual tensor, X in slot k and Y in slot j: [n, k, i, j]."""
    ph = p.phi + p.h
    rhs = (np.einsum("nsk,nsj,ni->nkij", ph, p.g, p.xi)
           - np.einsum("nj,nik->nkij", p.eta, ph))
    return p.nabla_phi - rhs


def _curv1(p: Probe):
    """CURV1's residual tensor, Y in slot k and Z in slot l: [n, k, i, l]."""
    imb = p.eye - p.bmat
    rhs = (np.einsum("nk,nil->nkil", p.eta, imb)
           - np.einsum("nl,nik->nkil", p.eta, imb)
           + np.einsum("nlik->nkil", p.nabla_b)
           - p.nabla_b)
    return p.r_xi - rhs


def _res_kleaves(p: Probe):
    return p.norm(_kleaves(p), upper=1)


def _res_curv1(p: Probe):
    return p.norm(_curv1(p), upper=1)


def _res_l_id(p: Probe):
    l_op = np.einsum("nijkl,nl,nj->nik", p.curv.riemann, p.xi, p.xi)
    m = (p.phi @ l_op @ p.phi - l_op
         + 2.0 * (p.phi @ p.phi) - 2.0 * (p.h @ p.h))
    return p.norm(m, upper=0)


def _curv2_residual(p: Probe):
    """CURV2's frame norm, summed in float64 where cond_F(g) = |g|_F |g^-1|_F
    <= _CURV2_COND (chart points: at most 2.3e2, and 6.6e-14 from long
    double), in long double elsewhere: on the Darboux models at t = -1
    (3.2e5 to 1.1e11) float64 terms of up to 3.3e3 read 1.03e-12 near mu = 1,
    long double 7.6e-13 (README)."""
    wide = ~(np.einsum("nij,nij->n", p.g, p.g)
             * np.einsum("nij,nij->n", p.ginv, p.ginv) <= _CURV2_COND ** 2)
    ops = (p.curv.riemann, p.xi, p.g, p.phi, p.h, p.bmat, p.eta, p.nabla_phi2)
    return _chunk_norms(p, _curv2_tensor, ops, None,
                        [(float, np.flatnonzero(~wide)),
                         (np.longdouble, np.flatnonzero(wide))])


def _curv2_tensor(riemann, xi, g, phi, h, bmat, eta, nabla_phi2):
    """CURV2's left-hand side minus its right-hand side, [n, x, y, z]: with
    c(X, Y, Z) = g(R(xi, X) Y, Z) and M = I - phi h, c - c(X, phi Y, phi Z)
    + c(phi X, Y, phi Z) + c(phi X, phi Y, Z) - 2 (nabla_{hX} Phi)(Y, Z)
    - 2 eta(Y) g(Z, M X) + 2 eta(Z) g(Y, M X), phi put on a slot by a matmul.
    """
    n = len(xi)

    def on_z(t):  # phi on the last slot
        return (t.reshape(n, -1, 3) @ phi).reshape(t.shape)

    # c[n, x, y, z] = g_zi R^i_ykx xi^k
    a = np.einsum("nijkl,nk->nijl", riemann, xi)
    c = np.einsum("nsi,nijl->nljs", g, a)
    c_y = on_z(c.swapaxes(2, 3)).swapaxes(2, 3)          # c(X, phi Y, Z)
    on_x = on_z(c) + c_y            # c(X, Y, phi Z) + c(X, phi Y, Z)
    lhs = c - on_z(c_y) + (phi.transpose(0, 2, 1) @ on_x.reshape(n, 3, 9)
                           ).reshape(c.shape)
    # g(Z, M X) as [n, x, z]
    gm = (g - g @ bmat).transpose(0, 2, 1)
    rhs = ((h.transpose(0, 2, 1) @ nabla_phi2.reshape(n, 3, 9)).reshape(c.shape)
           + np.einsum("ny,nxz->nxyz", eta, gm)
           - np.einsum("nz,nxy->nxyz", eta, gm))
    return lhs - 2.0 * rhs


def _codazzi_hp(p: Probe):
    """nabla h' antisymmetrized in its two vector slots: [n, k, i, j]."""
    return p.nabla_hp - np.einsum("njik->nkij", p.nabla_hp)


def _res_codazzi_hp(p: Probe):
    # eta is a multiple of dz or dt in every family, so the Cholesky frame's
    # first two rows, d_x and d_y orthonormalized, span ker(eta)
    lt, e = p.factors
    return _frame_norm(_codazzi_hp(p), lt, e[:, :2], upper=1)


def _res_h2(p: Probe):
    kp1_phi2 = (p.k + 1.0)[:, None, None] * (p.phi @ p.phi)
    h2, hp2 = p.h @ p.h, p.hp @ p.hp
    return np.max([p.norm(m, upper=0)
                   for m in (h2 - kp1_phi2, hp2 - kp1_phi2, h2 - hp2)], axis=0)


def _res_qxi(p: Probe):
    v = np.einsum("nij,nj->ni", p.curv.q, p.xi) - 2.0 * p.k[:, None] * p.xi
    return p.norm(v, upper=0)


def _scalar_laws(p: Probe, rate):
    """|xi(lam) + rate lam| and |xi(k) + 2 rate (k + 1)|, the larger per point."""
    dlam_xi = np.einsum("ni,ni->n", p.xi, p.dlam)
    dk_xi = np.einsum("ni,ni->n", p.xi, p.dk)
    return np.maximum(np.abs(dlam_xi + p.lam_nom * rate),
                      np.abs(dk_xi + 2.0 * (p.k + 1.0) * rate))


def _res_nh(p: Probe):  # NH and NHP: nabla_xi T = -f' T - nu phi h
    law = p.law
    nabla_xi_t = np.einsum("nk,nkij->nij", p.xi, law.nabla_t)
    m = (nabla_xi_t + law.rate[:, None, None] * law.t
         + law.nu[:, None, None] * p.bmat)
    return np.maximum(p.norm(m, upper=0), _scalar_laws(p, law.rate))


def _res_lie(p: Probe):  # LIE1 and LIE2: L_xi h and L_xi h' at (nu, f')
    lam2, nu, rate = (a[:, None, None]
                      for a in (p.lam_nom ** 2, p.law.nu, p.law.rate))
    m_h = p.lie_h - (2.0 * lam2 * p.phi - rate * p.h + nu * p.hp)
    m_hp = p.lie_hp + (nu * p.h + rate * p.hp)
    return np.maximum(p.norm(m_h, upper=0), p.norm(m_hp, upper=0))


def _trace_residual(p: Probe, nabla_t, target):
    """g-length of the trace g^{kj} (nabla_k T)^i_j minus ``target``: (n,).

    The trace contracts g^-1, in no frame, and the residual is formed after
    it: a frame's Gram defect would multiply the large entries of nabla T.
    On a kmup-darboux sweep at t = -1 (mu = 0.864, cond g 1.1e10, defect
    4.6e-7) the adapted frame read TR_HP 5.5e-6 where g^-1 reads 1.388e-4,
    as does long double.
    """
    return p.norm(np.einsum("nkij,nkj->ni", nabla_t, p.ginv) - target, upper=0)


def _res_tr_hp(p: Probe):
    q_xi = np.einsum("nij,nj->ni", p.curv.q, p.xi)
    return _trace_residual(p, p.nabla_hp, q_xi + 2.0 * p.xi)


def _res_tr_phi(p: Probe):
    return _trace_residual(p, p.nabla_phi, 0.0 * p.xi)


def _res_tr_h(p: Probe):
    q_xi = np.einsum("nij,nj->ni", p.curv.q, p.xi)
    return _trace_residual(p, p.nabla_h, np.einsum("nij,nj->ni", p.phi, q_xi))


def _res_grad(p: Probe):
    grad_mu = np.einsum("nij,nj->ni", p.ginv, p.dmu)
    grad_k = np.einsum("nij,nj->ni", p.ginv, p.dk)
    xi_k = np.einsum("ni,ni->n", p.xi, p.dk)
    v = np.einsum("nij,nj->ni", p.law.t, grad_mu) - grad_k + xi_k[:, None] * p.xi
    return p.norm(v, upper=0)


def _res_ricci_form(p: Probe):
    a = 0.5 * p.curv.scalar - p.k
    b = 3.0 * p.k - 0.5 * p.curv.scalar
    m = (p.curv.q - a[:, None, None] * p.eye
         - b[:, None, None] * np.einsum("ni,nj->nij", p.xi, p.eta)
         - p.mu[:, None, None] * p.law.t)
    return p.norm(m, upper=0)


def _nullity(p: Probe, t_op):
    """The nullity condition's residual tensor for T = ``t_op``, in r_xi's
    slots (X, component, Y): [n, k, i, j].

    k(eta(Y) X - eta(X) Y) + mu(eta(Y) TX - eta(X) TY) = eta(Y) A X - eta(X) A Y
    with A = k I + mu T.
    """
    a = p.k[:, None, None] * p.eye + p.mu[:, None, None] * t_op
    rhs = np.einsum("nj,nik->nkij", p.eta, a) - np.einsum("nk,nij->nkij", p.eta, a)
    return p.r_xi - rhs


def _res_nullity(p: Probe):  # NULL_KMU and NULL_KMUP: T is h or h'
    return p.norm(_nullity(p, p.law.t), upper=1)


def _conn_residual(p: Probe):
    """Largest g-length over the frame pairs (a, b) of nabla_{E_a} E_b minus
    its formula in E = (xi, X, phi X), at the variant's S = I + lam C and nu:
    nabla_{E_a} xi = S_a1 X + S_a2 phi X, g(nabla_{E_a} E_b, xi) = -S_ab,
    nabla_xi X = -(nu/2) phi X, nabla_xi phi X = (nu/2) X; the leaf terms
    carry xl = X(lam) / 2 lam and pl = phi X(lam) / 2 lam."""
    lam = p.eigen.lam
    s = np.eye(2) + lam[:, None, None] * p.law.c
    il2 = 0.5 / np.maximum(lam, 1e-300)
    xl, pl = (np.einsum("na,na->n", v, p.dlam) * il2
              for v in (p.eigen.x, p.eigen.phi_x))
    half_nu = 0.5 * p.law.nu
    table = {(1, 0): (0, s[:, 0, 0], s[:, 0, 1]), (2, 0): (0, s[:, 1, 0], s[:, 1, 1]),
             (2, 2): (-s[:, 1, 1], xl, 0), (1, 1): (-s[:, 0, 0], 0, pl),
             (1, 2): (-s[:, 0, 1], -pl, 0), (2, 1): (-s[:, 1, 0], 0, -xl),
             (0, 1): (0, 0, -half_nu), (0, 2): (0, half_nu, 0)}
    frame = p.frame.transpose(1, 0, 2)
    return np.max([
        p.norm(p.frame_nabla[:, a, b]
               - sum(np.asarray(c)[..., None] * e for c, e in zip(coef, frame)),
               upper=0)
        for (a, b), coef in table.items()], axis=0)


def _res_flat_leaf(p: Probe):
    kappa = p.curv.sectional(p.g, p.eigen.x, p.eigen.phi_x)
    return np.abs(kappa + 1.0 - p.eigen.lam ** 2)


def _split(a):
    """a = hi + lo exactly, each with half of a's mantissa (Veltkamp)."""
    c = 134217729.0 * a  # 2^27 + 1
    hi = c - (c - a)
    return hi, a - hi


def _two_product(a, b):
    """(p, e) with p the rounded a b and p + e = a b exactly (Dekker)."""
    p = a * b
    (a1, a2), (b1, b2) = _split(a), _split(b)
    return p, a2 * b2 - (((p - a1 * b1) - a2 * b1) - a1 * b2)


def _two_sum(a, b):
    """(s, e) with s the rounded a + b and s + e = a + b exactly (Knuth)."""
    s = a + b
    z = s - a
    return s, (a - (s - z)) + (b - z)


def _res_weyl3(p: Probe):
    """W(X, Y) Z = R(X, Y) Z minus the right-hand side, U = Q - (Sc/2) I:
    W^i_jkl = R^i_jkl - g_lj U^i_k + g_kj U^i_l - (gQ)_lj d^i_k + (gQ)_kj d^i_l,
    normed in the Cholesky frame.

    W is formed and normed 64 points at a time: over a whole grid-9 Probe
    its temporaries peaked at 10.1 float64 frame tensors (n, 3, 3, 3, 3),
    against 0.86 this way, with bit-identical residuals.
    """
    return _chunk_norms(p, _weyl3_tensor,
                        (p.curv.riemann, p.g, p.curv.q, p.curv.scalar), 0)


def _weyl3_tensor(riem, g, q, sc):
    """W (see _res_weyl3) from R, g, Q and Sc, [n, i, j, k, l].

    W = R - (A - A^T), with A^i_jkl = Q^i_k g_lj - d^i_k D_jl, D_jl =
    (Sc/2) g_lj - (gQ)_lj and A^T its k and l swapped, comes from exact
    products and sums, each kept as a rounded value and its error: where W
    is small against R, R minus the rounded A - A^T is exact (Sterbenz),
    and elsewhere it rounds relative to W.  The terms are far larger than W:
    on a kmu-darboux sweep suite (mu = 0.858, t = -1) A reaches 2.7e5 where
    W is 1.3e-7, and W formed in long double put the frame norm 6.4e-14
    from its exact value, where the adapted frame's g-unit X has coordinates
    of 44 (this way: 2e-22).
    """
    # the point axis last, so that each operation runs along the points
    g, q = (np.moveaxis(a, 0, -1).copy() for a in (g, q))
    g_jl = g.swapaxes(0, 1)                                      # [j, l] = g_lj
    # D_jl, with (gQ)_lj = sum_m g_lm Q^m_j, and then A, each as a + a_lo
    d, d_lo = _two_product(0.5 * sc, g_jl)
    x, x_lo = _two_product(-q[:, :, None], g_jl[:, None])        # [m, j, l]
    for m in range(3):
        d, e = _two_sum(d, x[m])
        d_lo = d_lo + (e + x_lo[m])
    a, a_lo = _two_product(q[:, None, :, None], g_jl[None, :, None])
    for i in range(3):
        a[i, :, i], e = _two_sum(a[i, :, i], -d)
        a_lo[i, :, i] += e - d_lo
    b, e = _two_sum(a, -a.swapaxes(2, 3))
    w = (np.moveaxis(riem, 0, -1) - b) - (e + (a_lo - a_lo.swapaxes(2, 3)))
    return np.moveaxis(w, -1, 0)


def _dk_eta(p: Probe):
    """(dk ^ eta)_ij = dk_i eta_j - dk_j eta_i: [n, i, j]."""
    dk_eta = np.einsum("ni,nj->nij", p.dk, p.eta)
    return dk_eta - dk_eta.transpose(0, 2, 1)


def _res_dk_eta(p: Probe):
    return p.norm(_dk_eta(p))


def _res_bsq(p: Probe):
    b = p.law.b
    m = b @ b - (p.lam_nom ** 2)[:, None, None] * p.eye
    return np.max(np.abs(m[:, :2, :2]), axis=(1, 2))


def _res_phi12(p: Probe):
    return np.abs(p.phi2[:, 0, 1] - np.exp(2.0 * p.pts[:, 2]))


# --------------------------------------------------------------------------
# Registry
# --------------------------------------------------------------------------

# the families each identity quantifies over, from their nullity operators:
# the baseline's h vanishes, which leaves CONN_KMU's eigenframe undefined
_ALL = frozenset(FAMILIES)
_KMU = frozenset(f for f, (op, _) in FAMILIES.items() if op == "h")
_KMUP = _ALL - _KMU
_DARBOUX = frozenset(f for f in FAMILIES if f.endswith("-darboux"))


@dataclass(frozen=True)
class IdentitySpec:
    id: str
    formula: str
    profile: str
    fn: object
    families: frozenset  # the FAMILIES it quantifies over
    tolerance: float | None = None  # overrides the profile value when set

    def tol(self) -> float:
        return self.tolerance if self.tolerance is not None else PROFILES[self.profile]


IDENTITIES: dict[str, IdentitySpec] = {s.id: s for s in [
    IdentitySpec("NABLA_XI", "nabla_X xi = X - eta(X) xi - phi h X",
                 "fd1", _res_nabla_xi, _ALL),
    IdentitySpec("AK_DETA", "d eta = 0", "fd1", _res_ak_deta, _ALL),
    IdentitySpec("AK_DPHI", "d Phi = 2 eta ^ Phi", "fd1", _res_ak_dphi, _ALL),
    IdentitySpec("KLEAVES",
                 "(nabla_X phi)Y = g(phi X + h X, Y) xi - eta(Y)(phi X + h X)",
                 "fd1", _res_kleaves, _ALL),
    IdentitySpec("CURV1",
                 "R(Y,Z)xi = eta(Y)(Z - phi h Z) - eta(Z)(Y - phi h Y)"
                 " + (nabla_Z phi h)Y - (nabla_Y phi h)Z",
                 "fd2", _res_curv1, _ALL),
    IdentitySpec("L_ID", "phi l phi - l = 2(-phi^2 + h^2), l = R(., xi) xi",
                 "fd2", _res_l_id, _ALL),
    IdentitySpec("CURV2",
                 "g(R(xi,X)Y,Z) - g(R(xi,X)phiY,phiZ) + g(R(xi,phiX)Y,phiZ)"
                 " + g(R(xi,phiX)phiY,Z) = 2(nabla_{hX}Phi)(Y,Z)"
                 " + 2 eta(Y) g(Z, X - phi h X) - 2 eta(Z) g(Y, X - phi h X)",
                 "fd2", _curv2_residual, _ALL),
    IdentitySpec("CODAZZI_HP", "(nabla_X h')Y - (nabla_Y h')X = 0 on ker(eta)",
                 "fd1", _res_codazzi_hp, _ALL),
    IdentitySpec("H2", "h^2 = h'^2 = (k+1) phi^2", "fd1", _res_h2, _ALL),
    IdentitySpec("QXI", "Q xi = 2k xi", "fd2", _res_qxi, _ALL),
    IdentitySpec("NH",
                 "nabla_xi h = -2h - mu phi h;  dlam(xi) = -2 lam;"
                 "  dk(xi) = -4(k+1)",
                 "fd1", _res_nh, _KMU),
    IdentitySpec("NHP",
                 "nabla_xi h' = -(mu+2) h';  dlam(xi) = -lam(mu+2);"
                 "  dk(xi) = -2(k+1)(mu+2)",
                 "fd1", _res_nh, _KMUP),
    IdentitySpec("LIE1",
                 "L_xi h = 2 lam^2 phi - 2h + mu h';  L_xi h' = -mu h - 2h'",
                 "fd1", _res_lie, _KMU),
    IdentitySpec("LIE2",
                 "L_xi h' = -(mu+2) h';  L_xi h = 2 lam^2 phi - (mu+2) h",
                 "fd1", _res_lie, _KMUP),
    IdentitySpec("TR_HP", "sum_i (nabla_{X_i} h') X_i = Q xi + 2 xi",
                 "fd2", _res_tr_hp, _ALL),
    IdentitySpec("TR_PHI", "sum_i (nabla_{X_i} phi) X_i = 0",
                 "fd1", _res_tr_phi, _ALL),
    IdentitySpec("TR_H", "sum_i (nabla_{X_i} h) X_i = phi Q xi",
                 "fd2", _res_tr_h, _ALL),
    IdentitySpec("GRAD", "T(grad mu) = grad k - (xi k) xi",
                 "fd1", _res_grad, _ALL),
    IdentitySpec("RICCI_FORM",
                 "Q = a I + b eta (x) xi + mu T, a = Sc/2 - k, b = 3k - Sc/2",
                 "fd2", _res_ricci_form, _ALL),
    IdentitySpec("NULL_KMU",
                 "R(X,Y)xi = k(eta(Y)X - eta(X)Y) + mu(eta(Y)hX - eta(X)hY)",
                 "fd2", _res_nullity, _KMU),
    IdentitySpec("NULL_KMUP",
                 "R(X,Y)xi = k(eta(Y)X - eta(X)Y) + mu(eta(Y)h'X - eta(X)h'Y)",
                 "fd2", _res_nullity, _KMUP),
    IdentitySpec("CONN_KMU",
                 "nabla_X xi = X - lam phi X (and the 7 companion formulas"
                 " of the h-eigenframe connection)",
                 "fd1", _conn_residual,
                 _KMU - {"kenmotsu-baseline"}),
    IdentitySpec("CONN_KMUP",
                 "nabla_X xi = (1+lam) X (and the 7 companion formulas"
                 " of the h'-eigenframe connection)",
                 "fd1", _conn_residual,
                 _KMUP),
    IdentitySpec("FLAT_LEAF", "K(X, phi X) = -(1 - lam^2)",
                 "fd2", _res_flat_leaf, _ALL),
    IdentitySpec("WEYL3",
                 "R(X,Y)Z = g(Y,Z)QX - g(X,Z)QY + g(QY,Z)X - g(QX,Z)Y"
                 " - (Sc/2)(g(Y,Z)X - g(X,Z)Y)",
                 "fd2", _res_weyl3, _ALL),
    IdentitySpec("DK_ETA", "dk ^ eta = 0", "strict", _res_dk_eta, _ALL),
    IdentitySpec("BSQ", "B^i_s B^s_j = lam^2 delta^i_j on the leaf block",
                 "custom", _res_bsq, _DARBOUX, tolerance=1e-8),
    IdentitySpec("PHI12", "Phi(d_x, d_y) = e^{2t}",
                 "custom", _res_phi12, _DARBOUX, tolerance=1e-9),
]}


# --------------------------------------------------------------------------
# Checking API
# --------------------------------------------------------------------------

def _blocks(models, points):
    """The blocks of BLOCK of the ``points(model)`` of ``models`` (one
    family's, read once and in order) laid end to end, as :func:`_joined`
    gives them.  No model is held past its last block's ``at``."""
    runs, size, j = [], 0, -1
    for model in models:  # enumerate's result tuple would hold the model
        pts, lo, j = points(model), 0, j + 1
        shape = model.family, model.domain, model.default_box
        while lo < len(pts):
            hi, off = min(len(pts), lo + BLOCK - size % BLOCK), size % BLOCK
            runs.append(((j, off, off + hi - lo), pts[lo:hi], model.at(pts[lo:hi])))
            size, lo = size + hi - lo, hi
            if size % BLOCK == 0:
                yield _joined(runs, shape)
        del model
    if runs:
        yield _joined(runs, shape)


def _joined(runs, shape) -> tuple:
    """A model of the family ``shape`` whose one ``at`` call hands over the
    runs' ``at`` joined, their points, and their spans (j, lo, hi), model
    j's points at ``lo:hi``, from the runs ((j, lo, hi), pts, at) it takes
    out of ``runs``."""
    spans, pts, ats = zip(*runs)
    runs.clear()
    held = [ats[0] if len(ats) == 1 else {
        name: tuple(None if parts[0] is None else np.concatenate(parts)
                    for parts in zip(*(a[name] for a in ats))) for name in ats[0]}]
    return (AlmostContactModel(*shape, at=lambda _: held.pop()),
            np.concatenate(pts), spans)


def _per_block(models, points, fn) -> list:
    """``fn`` of each block's Probe and spans; a Probe lives for that call."""
    return [fn(Probe(model, pts), spans)
            for model, pts, spans in _blocks(models, points)]


def worst_of(runs) -> tuple:
    """``np.argmax``'s pick over runs of (residual, ...) in order: the first
    NaN wins, else a later run only if its residual is strictly larger."""
    return reduce(lambda kept, later: later if not np.isnan(kept[0])
                  and not later[0] <= kept[0] else kept, runs)


def _report(spec: IdentitySpec, tolerance, kept, samples) -> ResidualReport:
    """The report of ``spec`` from its merged (residual, point), or a
    not-applicable one from None."""
    tolerance = tolerance if tolerance is not None else spec.tol()
    residual, point = kept or (float("nan"), None)
    return ResidualReport(
        id=spec.id, formula=spec.formula, residual=residual,
        tolerance=tolerance, profile=spec.profile,
        verdict=("not-applicable" if kept is None
                 else "pass" if residual <= tolerance else "fail"),
        max_point=point, samples=samples if kept else 0)


def check_identity(model: AlmostContactModel, identity: str,
                   plan: SamplePlan | None = None,
                   tolerance: float | None = None) -> ResidualReport:
    """Evaluate one identity: the one report of its suite."""
    return check_suite(model, [identity], plan, {identity: tolerance})[0]


def check_suite(model: AlmostContactModel, identities=None,
                plan: SamplePlan | None = None,
                tolerances: dict[str, float] | None = None) -> list[ResidualReport]:
    """The suite of one model: the batch of one of :func:`check_suites`."""
    return check_suites([model], identities, plan, tolerances)[0]


def check_suites(models, identities=None, plan: SamplePlan | None = None,
                 tolerances: dict[str, float] | None = None) -> list[list]:
    """Run a list of identities (default: every one known) on each of
    ``models``, one family's, read once and in order, by one block loop;
    tolerances override the profile (None: the profile's).  A report keeps
    its model's largest residual and its first point, or is not-applicable,
    unevaluated.  A request that names no identity, an unknown one or one
    twice, a string other than "all", or a tolerance for an unknown identity
    or one that is negative or not finite, raises ``ValueError`` before any
    model is read."""
    plan, tolerances = plan or SamplePlan(), tolerances or {}
    if isinstance(identities, str) and identities != "all":
        raise ValueError(f"identities must be a list of ids or 'all', got the "
                         f"string {identities!r}; check_identity checks one")
    ids = list(IDENTITIES) if identities in (None, "all") else list(identities)
    if not ids:
        raise ValueError("the suite names no identity")
    for name in ids:
        if name not in IDENTITIES:
            raise ValueError(f"unknown identity {name!r}")
        if ids.count(name) > 1:
            raise ValueError(f"identity {name!r} is named twice")
    for name, tol in tolerances.items():
        if name not in IDENTITIES:
            raise ValueError(f"tolerance for unknown identity {name!r}")
        if tol is not None and not (np.isfinite(tol) and tol >= 0):
            raise ValueError(f"tolerance of {name} must be finite and >= 0, "
                             f"got {tol!r}")
    specs = [IDENTITIES[name] for name in ids]
    samples, kept = [], {}

    def points(model):  # none where no identity applies: no field is read
        samples.append(len(pts := plan.points(model)))
        return pts if any(model.family in s.families for s in specs) else pts[:0]

    def maxima(p, spans):  # of each applicable identity on each model's run
        for spec in [s for s in specs if p.model.family in s.families]:
            v = spec.fn(p)
            for j, lo, hi in spans:
                i = lo + int(np.argmax(v[lo:hi]))
                kept.setdefault((j, spec.id), []).append(
                    (float(v[i]), tuple(p.pts[i].tolist())))

    _per_block(models, points, maxima)
    return [[_report(spec, tolerances.get(spec.id), worst_of(m)
                     if (m := kept.get((j, spec.id))) else None, n) for spec in specs]
            for j, n in enumerate(samples)]


def _k_mu(p: Probe):
    """infer_k_mu's (k, mu, mu_ok) at one block's points."""
    ef = p.eigen
    lx = p.curv.apply(ef.x, p.xi, p.xi)
    lpx = p.curv.apply(ef.phi_x, p.xi, p.xi)
    s1 = np.einsum("ni,nij,nj->n", lx, p.g, ef.x)
    s2 = np.einsum("ni,nij,nj->n", lpx, p.g, ef.phi_x)
    mu_ok = ef.lam >= MU_EIGEN_FLOOR
    mu = np.where(mu_ok, (s1 - s2) / (2.0 * np.maximum(ef.lam, 1e-300)), np.nan)
    return 0.5 * (s1 + s2), mu, mu_ok


def infer_k_mu(model: AlmostContactModel, pts):
    """Recover (k, mu) from the curvature at each point.

    With a unit eigenvector X (T X = lam X):
      k  = (g(R(X,xi)xi, X) + g(R(phiX,xi)xi, phiX)) / 2
      mu = (g(R(X,xi)xi, X) - g(R(phiX,xi)xi, phiX)) / (2 lam)
    mu is flagged indeterminate where lam < 1e-6.
    """
    pts, single = as_points(pts)
    k, mu, mu_ok = (np.concatenate(parts) for parts in zip(
        *_per_block([model], lambda _: pts, lambda p, _: _k_mu(p))))
    if single:
        return float(k[0]), float(mu[0]), bool(mu_ok[0])
    return k, mu, mu_ok
