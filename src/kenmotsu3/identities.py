"""Residual evaluation of every verified identity over a sample plan.

Each identity is evaluated pointwise on a deterministic grid plan, a block
of BLOCK points at a time; the report carries the largest residual over
the plan's points, the point of that maximum, the tolerance profile and
the verdict.  Identities that do not apply to a model family get a
distinct "not-applicable" verdict, never a silent pass.  No identity reads
a random number.

Pointwise norms: the g-length for vector identities, the absolute value
for scalars, and a Frobenius norm for the rest.  A (1,1) tensor identity
(NABLA_XI, L_ID, H2, NH, NHP, LIE1, LIE2, RICCI_FORM) takes the Frobenius
norm of L^T A L^{-T} in the Cholesky frame of g = L L^T, which lies between
the g-operator norm of A and sqrt(3) times it.  The identities over tangent
vectors (KLEAVES, CURV1, CURV2, CODAZZI_HP, WEYL3, AK_DETA,
DK_ETA and the nullity conditions) take the Frobenius norm of their
residual tensor in the adapted g-orthonormal frame E = (xi, X, phi X):
the root sum of squares, over every frame pair (a, b) or triple (a, b, c),
of the g-length of the residual vector or of the residual's value;
CODAZZI_HP quantifies over ker(eta), whose frame is (X, phi X).  Each
identity is multilinear, so it holds for all vectors if and only if it
holds on a basis, and for g-unit vectors Cauchy-Schwarz in the frame gives
|T(X, Y, ...)| <= |T|_F: the norm bounds the residual at any unit vectors
from above, and it is the same in every g-orthonormal frame.  The TR_*
traces contract nabla T with g^-1, in no frame.

Tolerance profiles: STRICT 1e-10 (algebraic, no differentiation),
FD1 1e-6 (one derivative level), FD2 5e-5 (curvature level).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from .fields import as_points
from .geometry import (
    christoffel_partials,
    covariant_differential,
    curvature,
    exterior_differential,
    g_norm,
    levi_civita,
    metric_factors,
)
from .structure import FAMILIES, AlmostContactModel, frame_of, lie_derivative

__all__ = [
    "PROFILES",
    "SamplePlan",
    "ResidualReport",
    "IDENTITIES",
    "applicable_identities",
    "check_identity",
    "check_suite",
    "nullity_residual",
    "infer_k_mu",
]

PROFILES = {"strict": 1e-10, "fd1": 1e-6, "fd2": 5e-5}

MU_EIGEN_FLOOR = 1e-6  # below this eigenvalue mu recovery is indeterminate

BLOCK = 256  # sample points per Probe: a suite's peak memory is the block's


@dataclass(frozen=True)
class SamplePlan:
    """Deterministic sample plan: a grid of points in a box.

    ``grid`` points per axis inside ``box`` (the model's default box when
    None).  ``rand_pairs`` and ``seed`` select nothing: no identity reads a
    random vector.  They are still validated and echoed in a report's plan,
    as the benchmark's workloads pass both; removing them waits for the
    benchmark's rebase (ROADMAP item 1).
    """

    grid: int = 5
    rand_pairs: int = 4
    seed: int = 0
    box: tuple | None = None

    def __post_init__(self):
        for name, least in (("grid", 1), ("rand_pairs", 0), ("seed", 0)):
            if getattr(self, name) < least:
                raise ValueError(f"sample plan {name} must be >= {least}, "
                                 f"got {getattr(self, name)}")

    def resolved_box(self, model: AlmostContactModel):
        box = self.box if self.box is not None else model.default_box
        if len(box) != 3 or any(len(iv) != 2 or not iv[0] < iv[1] for iv in box):
            raise ValueError(f"malformed sample box {box!r}")
        return box

    def points(self, model: AlmostContactModel) -> np.ndarray:
        box = self.resolved_box(model)
        axes = [np.linspace(lo, hi, self.grid) for lo, hi in box]
        if model.trajectory is not None:
            # snap the t-axis to stored nodes, so the fields read node
            # states and slopes, not the Hermite interpolant; a time that
            # snaps by more than half a step lies past the integrated range
            traj = model.trajectory
            nodes = np.round((axes[2] - traj.t_min) / traj.step).astype(int)
            if nodes.min() < 0 or nodes.max() >= len(traj.times):
                raise ValueError(f"sample box {box!r} leaves the integrated "
                                 f"t-range [{traj.t_min}, {traj.t_max}]")
            axes[2] = traj.times[nodes]
        pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
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
    def t_op(self):
        return self.model.nullity_operator(self.h, self.phi)

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
        return frame_of(self.g, self.xi, self.phi, self.eta, self.t_op)

    @cached_property
    def frame(self):
        """(n, 3, 3): the adapted orthonormal frame (xi, X, phi X)."""
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
        d_t = self.dhp if self.model.variant == "hp" else self.dh
        gpx = (self.g @ ef.phi_x[..., None])[..., 0]
        alpha = -0.5 * np.einsum("naij,ni,nj->na", self.dg, ef.x, ef.x)
        c = (np.einsum("naij,nj,ni->na", d_t, ef.x, gpx)
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

    # --- helper contractions ---------------------------------------------------

    def apply(self, op, vecs):
        """Apply per-point operator (n,3,3) to vectors (n,P,3)."""
        return vecs @ op.transpose(0, 2, 1)

    @cached_property
    def factors(self):
        """(L^T, L^{-T}) of g = L L^T, factored once: every (1,1)-tensor
        norm, and every frame norm of a vector-valued residual, is Euclidean
        in that frame."""
        return metric_factors(self.g)

    def vec_norm(self, v):
        return g_norm(v, self.g)

    def op_norm(self, m):
        """Frobenius norm of (1,1) tensors m[..., 3, 3] in the Cholesky frame:
        of L^T m L^{-T}, on the kept factors.  It lies between the
        g-operator norm and sqrt(3) times it, and is non-finite where m is."""
        lt, lt_inv = self.factors
        a = lt @ m @ lt_inv
        return np.sqrt(np.einsum("...ij,...ij->...", a, a))


# --------------------------------------------------------------------------
# Identity residual functions (each returns per-point residuals (n,))
#
# An identity over tangent vectors subtracts its right-hand side per point
# first, then contracts that (n, 3, 3[, 3[, 3]]) residual tensor with the
# frame in one pass, a batched matmul per contracted index: numpy runs a
# multi-operand einsum as one nested loop, and a two-operand one over a
# 3-long contracted index as a 3-long inner loop (_pairs' two einsums took
# 10.6 ms on a grid-9 chart probe's r_xi contracted with 11 vectors, its
# two matmuls 0.7 ms).  CURV2 keeps phi on the vectors: its first stage
# takes X_a and phi X_a, and the terms that share a Z slot (X_c or phi X_c)
# meet before the last matmul.  Composing phi into its tensor instead moved
# the kmu-darboux mu=0.858 residual 1.75e-10 from the long-double
# reference, where TestStagedContractions allowed 9.45e-11 (this form:
# 3.67e-11).  Each frame norm sums over every frame pair or triple: a sum
# over a < b alone would be another norm.
# --------------------------------------------------------------------------

def _pairs(t, xs, ys):
    """t[n, k, i, j] X_a^k Y_b^j over the vectors xs, ys: (n, a, b, i)."""
    n, size = xs.shape[:2]
    s = (xs @ t.reshape(n, 3, 9)).reshape(n, -1, 3) @ ys.transpose(0, 2, 1)
    return s.reshape(n, size, 3, -1).transpose(0, 1, 3, 2)


def _frobenius(u):
    """Root sum of squares of each point's entries u[n, ...]: with every
    slot contracted by a g-orthonormal frame, the Frobenius norm."""
    u = u.reshape(len(u), -1)
    return np.sqrt(np.einsum("nk,nk->n", u, u))


def _pair_norm(p: Probe, t, frame):
    """Frobenius norm of t[n, k, i, j] with ``frame`` in both vector slots
    k and j: L^T folded into the output index i makes each g-length
    Euclidean."""
    return _frobenius(_pairs(p.factors[0][:, None] @ t, frame, frame))


def _form_norm(omega, frame):
    """Frobenius norm of the bilinear form omega[n, i, j] in ``frame``."""
    return _frobenius(frame @ omega @ frame.transpose(0, 2, 1))


def _triples(terms, zs):
    """Sum of t_x[n, a, s, j] Y_b^j over ``terms`` of (t_x, ys), then Z_c^s
    of ``zs``: (n, a, c, b)."""
    n, size = zs.shape[:2]
    stage = sum(t_x.reshape(n, -1, 3) @ ys.transpose(0, 2, 1)
                for t_x, ys in terms)                       # (n, a, s, b)
    return zs[:, None] @ stage.reshape(n, size, 3, size)


def _res_nabla_xi(p: Probe):
    rhs = (p.eye - np.einsum("ni,nk->nik", p.xi, p.eta) - p.bmat)
    return p.op_norm(p.nabla_xi - rhs)


def _res_ak_deta(p: Probe):
    return _form_norm(p.deta, p.frame)


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
    return _pair_norm(p, _kleaves(p), p.frame)


def _res_curv1(p: Probe):
    return _pair_norm(p, _curv1(p), p.frame)


def _res_l_id(p: Probe):
    l_op = np.einsum("nijkl,nl,nj->nik", p.curv.riemann, p.xi, p.xi)
    m = (p.phi @ l_op @ p.phi - l_op
         + 2.0 * (p.phi @ p.phi) - 2.0 * (p.h @ p.h))
    return p.op_norm(m)


def _curv2_residual(p: Probe, vecs):
    """CURV2's left-hand side minus its right-hand side on the vectors
    ``vecs`` (n, P, 3) in each slot: (n, a, c, b)."""
    n, phi_vecs = p.n, p.apply(p.phi, vecs)
    # A[n,i,j,l] = R^i_{jkl} xi^k  (curvature with xi in the first slot)
    a = np.einsum("nijkl,nk->nijl", p.curv.riemann, p.xi)
    ga = np.einsum("nsi,nijl->nlsj", p.g, a).reshape(n, 3, 9)
    # g(R(xi, X_a) e_j, e_s), the first stage shared by the four terms
    ga_x, ga_phix = ((v @ ga).reshape(n, -1, 3, 3) for v in (vecs, phi_vecs))
    # the right-hand side in the same slots, s for Z and j for Y, M = I - phi h:
    # 2 (nabla_{hX_a} Phi)_{js} + 2 eta_j (g M X_a)_s - 2 eta_s (g M X_a)_j
    d_phi2 = p.nabla_phi2.transpose(0, 1, 3, 2).reshape(n, 3, 9)
    nabla_hx = (p.apply(p.h, vecs) @ d_phi2).reshape(ga_x.shape)
    gmx = p.apply(p.g, vecs - p.apply(p.bmat, vecs))
    rhs_x = 2.0 * (nabla_hx + np.einsum("nj,nas->nasj", p.eta, gmx)
                   - np.einsum("ns,naj->nasj", p.eta, gmx))
    out = _triples([(ga_x - rhs_x, vecs), (ga_phix, phi_vecs)], vecs)
    out += _triples([(ga_phix, vecs), (-ga_x, phi_vecs)], phi_vecs)
    return out


def _res_curv2(p: Probe):
    return _frobenius(_curv2_residual(p, p.frame))


def _codazzi_hp(p: Probe):
    """nabla h' antisymmetrized in its two vector slots: [n, k, i, j]."""
    return p.nabla_hp - np.einsum("njik->nkij", p.nabla_hp)


def _res_codazzi_hp(p: Probe):
    # ker(eta) is spanned by the frame's (X, phi X)
    return _pair_norm(p, _codazzi_hp(p), p.frame[:, 1:])


def _res_h2(p: Probe):
    kp1_phi2 = (p.k + 1.0)[:, None, None] * (p.phi @ p.phi)
    h2, hp2 = p.h @ p.h, p.hp @ p.hp
    return p.op_norm(np.stack([h2 - kp1_phi2, hp2 - kp1_phi2,
                               h2 - hp2])).max(axis=0)


def _res_qxi(p: Probe):
    v = np.einsum("nij,nj->ni", p.curv.q, p.xi) - 2.0 * p.k[:, None] * p.xi
    return p.vec_norm(v)


def _scalar_laws(p: Probe, rate):
    """|xi(lam) + rate lam| and |xi(k) + 2 rate (k + 1)|, the larger per point."""
    dlam_xi = np.einsum("ni,ni->n", p.xi, p.dlam)
    dk_xi = np.einsum("ni,ni->n", p.xi, p.dk)
    return np.maximum(np.abs(dlam_xi + p.lam_nom * rate),
                      np.abs(dk_xi + 2.0 * (p.k + 1.0) * rate))


def _res_nh(p: Probe):
    nabla_xi_h = np.einsum("nk,nkij->nij", p.xi, p.nabla_h)
    m = nabla_xi_h + 2.0 * p.h + p.mu[:, None, None] * p.bmat
    return np.maximum(p.op_norm(m), _scalar_laws(p, 2.0))


def _res_nhp(p: Probe):
    nabla_xi_hp = np.einsum("nk,nkij->nij", p.xi, p.nabla_hp)
    mp2 = p.mu + 2.0
    m = nabla_xi_hp + mp2[:, None, None] * p.hp
    return np.maximum(p.op_norm(m), _scalar_laws(p, mp2))


def _res_lie1(p: Probe):
    lam2 = (p.lam_nom ** 2)[:, None, None]
    mu = p.mu[:, None, None]
    m1 = p.lie_h - (2.0 * lam2 * p.phi - 2.0 * p.h + mu * p.hp)
    m2 = p.lie_hp - (-mu * p.h - 2.0 * p.hp)
    return p.op_norm(np.stack([m1, m2])).max(axis=0)


def _res_lie2(p: Probe):
    lam2 = (p.lam_nom ** 2)[:, None, None]
    mp2 = (p.mu + 2.0)[:, None, None]
    m1 = p.lie_hp + mp2 * p.hp
    m2 = p.lie_h - (2.0 * lam2 * p.phi - mp2 * p.h)
    return p.op_norm(np.stack([m1, m2])).max(axis=0)


def _trace_residual(p: Probe, nabla_t, target):
    """g-length of the trace g^{kj} (nabla_k T)^i_j minus ``target``: (n,).

    No frame: the residual is formed after the contraction, so a frame's
    Gram defect would multiply the large entries of nabla T.  On a
    kmup-darboux sweep at t = -1 (mu = 0.864, cond g 1.1e10, defect
    4.6e-7) the adapted frame read TR_HP 5.5e-6 where g^-1 reads 1.388e-4,
    as does long double.
    """
    return p.vec_norm(np.einsum("nkij,nkj->ni", nabla_t, p.ginv) - target)


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
    v = np.einsum("nij,nj->ni", p.t_op, grad_mu) - grad_k + xi_k[:, None] * p.xi
    return p.vec_norm(v)


def _res_ricci_form(p: Probe):
    a = 0.5 * p.curv.scalar - p.k
    b = 3.0 * p.k - 0.5 * p.curv.scalar
    m = (p.curv.q - a[:, None, None] * p.eye
         - b[:, None, None] * np.einsum("ni,nj->nij", p.xi, p.eta)
         - p.mu[:, None, None] * p.t_op)
    return p.op_norm(m)


def _nullity(p: Probe, t_op):
    """The nullity condition's residual tensor for T = ``t_op``, in r_xi's
    slots (X, component, Y): [n, k, i, j].

    k(eta(Y) X - eta(X) Y) + mu(eta(Y) TX - eta(X) TY) = eta(Y) A X - eta(X) A Y
    with A = k I + mu T.
    """
    a = p.k[:, None, None] * p.eye + p.mu[:, None, None] * t_op
    rhs = np.einsum("nj,nik->nkij", p.eta, a) - np.einsum("nk,nij->nkij", p.eta, a)
    return p.r_xi - rhs


def _res_null_kmu(p: Probe):
    return _pair_norm(p, _nullity(p, p.h), p.frame)


def _res_null_kmup(p: Probe):
    return _pair_norm(p, _nullity(p, p.hp), p.frame)


def _conn_residual(p: Probe, table):
    """Largest g-length over the frame pairs (a, b) of nabla_{E_a} E_b minus
    its formula, E = (xi, X, phi X).

    ``table(lam, mu, xl, pl)`` maps each pair (a, b) to the coefficients of
    (xi, X, phi X) in its formula, with xl = X(lam) / 2 lam and
    pl = phi X(lam) / 2 lam, from the model's partials of lam.
    """
    lam = p.eigen.lam
    il2 = 0.5 / np.maximum(lam, 1e-300)
    xl, pl = (np.einsum("na,na->n", v, p.dlam) * il2
              for v in (p.eigen.x, p.eigen.phi_x))
    frame = p.frame.transpose(1, 0, 2)
    return np.max([
        p.vec_norm(p.frame_nabla[:, a, b]
                   - sum(np.asarray(c)[..., None] * e for c, e in zip(coef, frame)))
        for (a, b), coef in table(lam, p.mu, xl, pl).items()], axis=0)


def _conn_kmu(lam, mu, xl, pl):
    return {(1, 0): (0, 1, -lam), (2, 0): (0, -lam, 1),
            (2, 2): (-1, xl, 0), (1, 1): (-1, 0, pl),
            (1, 2): (lam, -pl, 0), (2, 1): (lam, 0, -xl),
            (0, 1): (0, 0, -0.5 * mu), (0, 2): (0, 0.5 * mu, 0)}


def _conn_kmup(lam, mu, xl, pl):
    return {(1, 0): (0, 1 + lam, 0), (2, 0): (0, 0, 1 - lam),
            (2, 2): (lam - 1, xl, 0), (1, 1): (-1 - lam, 0, pl),
            (1, 2): (0, -pl, 0), (2, 1): (0, 0, -xl),
            (0, 1): (0, 0, 0), (0, 2): (0, 0, 0)}


def _res_flat_leaf(p: Probe):
    kappa = p.curv.sectional(p.g, p.eigen.x, p.eigen.phi_x)
    return np.abs(kappa + 1.0 - p.eigen.lam ** 2)


def _riemann_triples(t, vecs):
    """t[n, i, j, k, l] X_a^k X_b^l X_c^j over ``vecs``: (n, c, a, b, i).

    Each stage is one matmul per point of the vectors with the leading
    index, and a copy then moves the next index to contract to the front
    (the stage before it is freed ahead of the last, largest matmul).
    """
    n, size = vecs.shape[:2]
    s = vecs @ t.transpose(0, 3, 4, 2, 1).reshape(n, 3, 27)          # (a, l, j, i)
    s = vecs @ s.reshape(n, size, 3, 9).transpose(0, 2, 1, 3).reshape(n, 3, -1)
    s = s.reshape(n, size, size, 3, 3).transpose(0, 3, 2, 1, 4).reshape(n, 3, -1)
    return (vecs @ s).reshape(n, size, size, size, 3)


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
    normed in the adapted frame.

    W is folded into the Cholesky frame (L^T W) 64 points at a time: over a
    whole grid-9 Probe its temporaries peaked at 10.1 float64 frame tensors
    (n, 3, 3, 3, 3), against 0.84 this way, with bit-identical residuals.
    """
    out = np.empty(p.n)
    for s in range(0, p.n, 64):
        out[s:s + 64] = _frobenius(_riemann_triples(
            _weyl3_tensor(*(a[s:s + 64] for a in (
                p.curv.riemann, p.g, p.curv.q, p.curv.scalar, p.factors[0]))),
            p.frame[s:s + 64]))
    return out


def _weyl3_tensor(riem, g, q, sc, lt):
    """L^T W (see _res_weyl3) from R, g, Q, Sc and L^T, [n, i, j, k, l].

    W = R - (A - A^T), with A^i_jkl = Q^i_k g_lj - d^i_k D_jl, D_jl =
    (Sc/2) g_lj - (gQ)_lj and A^T its k and l swapped, comes from exact
    products and sums, each kept as a rounded value and its error: where W
    is small against R, R minus the rounded A - A^T is exact (Sterbenz),
    and elsewhere it rounds relative to W.  The terms are far larger than W:
    on a kmu-darboux sweep suite (mu = 0.858, t = -1) A reaches 2.7e5 where
    W is 1.3e-7, and W formed in long double put the frame norm 6.4e-14
    from its exact value, where the frame's g-unit X has coordinates of 44
    (this way: 2e-22).
    """
    n = len(g)
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
    return (lt @ np.moveaxis(w, -1, 0).reshape(n, 3, 27)).reshape(n, 3, 3, 3, 3)


def _dk_eta(p: Probe):
    """(dk ^ eta)_ij = dk_i eta_j - dk_j eta_i: [n, i, j]."""
    dk_eta = np.einsum("ni,nj->nij", p.dk, p.eta)
    return dk_eta - dk_eta.transpose(0, 2, 1)


def _res_dk_eta(p: Probe):
    return _form_norm(_dk_eta(p), p.frame)


def _res_bsq(p: Probe):
    b = p.bmat if p.model.variant == "h" else p.hp
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
                 "fd2", _res_curv2, _ALL),
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
                 "fd1", _res_nhp, _KMUP),
    IdentitySpec("LIE1",
                 "L_xi h = 2 lam^2 phi - 2h + mu h';  L_xi h' = -mu h - 2h'",
                 "fd1", _res_lie1, _KMU),
    IdentitySpec("LIE2",
                 "L_xi h' = -(mu+2) h';  L_xi h = 2 lam^2 phi - (mu+2) h",
                 "fd1", _res_lie2, _KMUP),
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
                 "fd2", _res_null_kmu, _KMU),
    IdentitySpec("NULL_KMUP",
                 "R(X,Y)xi = k(eta(Y)X - eta(X)Y) + mu(eta(Y)h'X - eta(X)h'Y)",
                 "fd2", _res_null_kmup, _KMUP),
    IdentitySpec("CONN_KMU",
                 "nabla_X xi = X - lam phi X (and the 7 companion formulas"
                 " of the h-eigenframe connection)",
                 "fd1", lambda p: _conn_residual(p, _conn_kmu),
                 _KMU - {"kenmotsu-baseline"}),
    IdentitySpec("CONN_KMUP",
                 "nabla_X xi = (1+lam) X (and the 7 companion formulas"
                 " of the h'-eigenframe connection)",
                 "fd1", lambda p: _conn_residual(p, _conn_kmup),
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


def applicable_identities(model: AlmostContactModel) -> list[str]:
    return [s.id for s in IDENTITIES.values() if model.family in s.families]


# --------------------------------------------------------------------------
# Checking API
# --------------------------------------------------------------------------

def _per_block(model: AlmostContactModel, pts, fn) -> list:
    """``fn`` of one Probe per block of BLOCK points, in order; each Probe
    lives for its ``fn`` call alone."""
    return [fn(Probe(model, pts[s:s + BLOCK])) for s in range(0, len(pts), BLOCK)]


def _block_maxima(specs, p: Probe) -> list[tuple]:
    """(largest residual, its first point) of each identity on one block."""
    maxima = [(v, int(np.argmax(v))) for v in (spec.fn(p) for spec in specs)]
    return [(float(v[i]), tuple(p.pts[i].tolist())) for v, i in maxima]


def _merge(kept: tuple, later: tuple) -> tuple:
    """``np.argmax``'s pick over two runs of points, ``kept`` first: the first
    NaN wins, else the later run's maximum only if it is strictly larger."""
    return later if not np.isnan(kept[0]) and not later[0] <= kept[0] else kept


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
    """Run a list of identities (default: every one known), sharing one Probe
    per block of BLOCK points; per-identity tolerances override the profile.
    Each report keeps the plan's largest residual and its first point; one
    whose identity skips the model's family is not-applicable, unevaluated."""
    plan = plan or SamplePlan()
    ids = list(IDENTITIES) if identities in (None, "all") else list(identities)
    for name in ids:
        if name not in IDENTITIES:
            raise KeyError(f"unknown identity {name!r}")
    specs = [IDENTITIES[name] for name in ids]
    live = [spec for spec in specs if model.family in spec.families]
    pts = plan.points(model)
    blocks = _per_block(model, pts, lambda p: _block_maxima(live, p)) if live else []
    kept = {spec.id: reduce(_merge, m) for spec, m in zip(live, zip(*blocks))}
    return [_report(spec, (tolerances or {}).get(spec.id), kept.get(spec.id),
                    len(pts)) for spec in specs]


def nullity_residual(model: AlmostContactModel,
                     plan: SamplePlan | None = None) -> ResidualReport:
    """Residual of the model's own nullity condition (variant h or hp)."""
    name = "NULL_KMU" if model.variant == "h" else "NULL_KMUP"
    return check_identity(model, name, plan)


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
    k, mu, mu_ok = (np.concatenate(parts)
                    for parts in zip(*_per_block(model, pts, _k_mu)))
    if single:
        return float(k[0]), float(mu[0]), bool(mu_ok[0])
    return k, mu, mu_ok
