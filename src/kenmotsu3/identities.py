"""Residual evaluation of every verified identity over a sample plan.

Each identity is evaluated pointwise on a deterministic grid-plus-random-
vectors plan; the report carries the sup-norm residual (g-operator norm for
tensor identities, g-length for vector ones, absolute value for scalars),
the point of the maximum, the tolerance profile and the verdict.  Identities
that do not apply to a model family get a distinct "not-applicable" verdict,
never a silent pass.

Tolerance profiles: STRICT 1e-10 (algebraic, no differentiation),
FD1 1e-6 (one derivative level), FD2 5e-5 (curvature level).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .fields import as_points
from .geometry import (
    christoffel_partials,
    covariant_differential,
    curvature,
    exterior_differential,
    frame_operator_norm,
    g_norm,
    levi_civita,
    metric_factors,
)
from .structure import AlmostContactModel, frame_of, lie_derivative

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


@dataclass(frozen=True)
class SamplePlan:
    """Deterministic sample plan: a grid in a box plus random unit vectors.

    ``grid`` points per axis inside ``box`` (the model's default box when
    None); ``rand_pairs`` random tangent-vector pairs per point, g-unit
    normalized; the same seed always reproduces the same plan.
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
        return {
            "id": self.id,
            "formula": self.formula,
            "residual": self.residual,
            "tolerance": self.tolerance,
            "profile": self.profile,
            "maxPoint": list(self.max_point) if self.max_point else None,
            "samples": self.samples,
            "verdict": self.verdict,
        }


# --------------------------------------------------------------------------
# Evaluation cache
# --------------------------------------------------------------------------

class _Eval:
    """A Probe attribute: a model field's values (``order`` 0), exact
    partials (1) or second partials (2) at its points, passed through
    ``then``.  A field without the partials asked for is an error, never a
    finite-difference fallback.  Second partials, read once each (by
    ``curv`` and ``dh``), are not kept."""

    def __init__(self, field: str, order: int = 0, then=None):
        self.field, self.order, self.then = field, order, then or (lambda d: d)

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, probe, owner=None):
        if probe is None:
            return self
        field = getattr(probe.model, self.field)
        fn = (field, field.partials, field.second)[self.order]
        if fn is None:
            raise ValueError(f"{field!r} carries no exact partials of "
                             f"order {self.order}")
        value = self.then(np.asarray(fn(probe.pts), dtype=float))
        if self.order < 2:
            probe.__dict__[self.name] = value
        return value


class Probe:
    """Lazy per-plan cache of everything the identities consume.

    phi, xi, eta and g, and the fields' exact partials (second partials
    of phi, xi and g), are evaluated once; everything else is derived from
    those values in closed form, with no finite differences.
    """

    def __init__(self, model: AlmostContactModel, pts: np.ndarray,
                 rand_pairs: int = 4, seed: int = 0):
        self.model = model
        self.pts, _ = as_points(pts)
        self.rand_pairs = rand_pairs
        self.seed = seed
        self.n = self.pts.shape[0]

    # --- the model's fields: values, exact partials, second partials ---------

    g = _Eval("g")
    phi = _Eval("phi")
    xi = _Eval("xi")
    eta = _Eval("eta")
    k = _Eval("k_nom")
    mu = _Eval("mu_nom")
    lam_nom = _Eval("lam_nom")
    dg = _Eval("g", 1)
    ddg = _Eval("g", 2)
    dxi = _Eval("xi", 1)
    ddxi = _Eval("xi", 2)
    dphi = _Eval("phi", 1)
    ddphi = _Eval("phi", 2)
    dk = _Eval("k_nom", 1)
    dmu = _Eval("mu_nom", 1)
    dlam = _Eval("lam_nom", 1)
    deta = _Eval("eta", 1, then=exterior_differential)

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
        dgamma = christoffel_partials(self.gamma, self.ginv, self.dg, self.ddg)
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
        return 0.5 * (lie_derivative(self.dxi, self.ddxi, self.phi[:, None],
                                     self.dphi[:, None])
                      + lie_derivative(self.xi[:, None], self.dxi[:, None],
                                       self.dphi, self.ddphi))

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

    # --- frames and vector pools ----------------------------------------------

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
        return np.einsum("nak,nbki->nabi", self.frame, nabla_e)

    @cached_property
    def _rng_draws(self):
        rng = np.random.default_rng(self.seed)
        randoms = rng.standard_normal((self.n, 2 * self.rand_pairs, 3))
        frame_raw = rng.standard_normal((self.n, 3, 3))
        return randoms, frame_raw

    @cached_property
    def pool(self):
        """(n, 3 + 2*rand_pairs, 3): frame then g-unit random vectors."""
        randoms, _ = self._rng_draws
        randoms = randoms / g_norm(randoms, self.g[:, None, :, :])[..., None]
        return np.concatenate([self.frame, randoms], axis=1)

    @cached_property
    def random_frame(self):
        """A second g-orthonormal frame (witness of frame independence)."""
        _, raw = self._rng_draws
        out = np.empty_like(raw)
        for a in range(3):
            v = raw[:, a, :]
            for b in range(a):
                v = v - np.einsum("ni,nij,nj->n", v, self.g, out[:, b, :])[:, None] \
                    * out[:, b, :]
            out[:, a, :] = v / g_norm(v, self.g)[:, None]
        return out

    @cached_property
    def pool_d(self):
        """Pool projected into ker(eta) and renormalized (X, phi X, randoms)."""
        randoms = self.pool[:, 3:, :]
        proj = randoms - np.einsum("ni,nai->na", self.eta, randoms)[..., None] \
            * self.xi[:, None, :]
        norms = g_norm(proj, self.g[:, None, :, :])
        keep = norms > 1e-8
        proj = np.where(keep[..., None], proj / np.maximum(norms, 1e-300)[..., None],
                        self.eigen.x[:, None, :])
        return np.concatenate(
            [self.frame[:, 1:, :], proj], axis=1)

    # --- helper contractions ---------------------------------------------------

    def apply(self, op, vecs):
        """Apply per-point operator (n,3,3) to pooled vectors (n,P,3)."""
        return vecs @ op.transpose(0, 2, 1)

    @cached_property
    def factors(self):
        """(L^T, L^{-T}) of g = L L^T, factored once: every operator norm,
        and every pooled residual norm, is Euclidean in that frame."""
        return metric_factors(self.g)

    def vec_norm(self, v):
        return g_norm(v, self.g)

    def op_norm(self, m):  # g_operator_norm on the kept factors
        lt, lt_inv = self.factors
        return frame_operator_norm(lt @ m @ lt_inv)


# --------------------------------------------------------------------------
# Identity residual functions (each returns per-point residuals (n,))
#
# A pooled identity subtracts its right-hand side per point first, then
# contracts that (n, 3, 3, 3[, 3]) residual tensor with the pool in one pass,
# a batched matmul per contracted index: numpy runs a multi-operand einsum
# as one nested loop, and a two-operand one over a 3-long contracted index
# as a 3-long inner loop (_pool_pairs' two einsums took 10.6 ms on a grid-9
# chart probe's r_xi, its two matmuls 0.7 ms).  CURV2 keeps phi on the
# vectors: its first stage takes X_a and phi X_a, and the terms that share a
# Z slot (X_c or phi X_c) meet before the last matmul.  Composing phi into its
# tensor instead moved the kmu-darboux mu=0.858 residual 1.75e-10 from the
# long-double reference, where TestStagedContractions allows 9.45e-11 (this
# form: 3.67e-11).  WEYL3 contracts all pairs (a, b) though its residual is
# antisymmetric in them; over a < b alone it met that test too (2.57e-12
# against 4.31e-12), but that restriction is not made here.
# --------------------------------------------------------------------------

def _pool_pairs(t, xs, ys):
    """t[n, k, i, j] X_a^k Y_b^j over pooled vectors: (n, a, b, i)."""
    n, size = xs.shape[:2]
    s = (xs @ t.reshape(n, 3, 9)).reshape(n, -1, 3) @ ys.transpose(0, 2, 1)
    return s.reshape(n, size, 3, -1).transpose(0, 1, 3, 2)


def _largest_length(u, axis):
    """Largest Euclidean length of the vectors u[..., :] over ``axis``."""
    return np.sqrt(np.max(np.einsum("...i,...i->...", u, u), axis=axis))


def _pooled_frame_norm(p: Probe, t, xs, ys):
    """Largest g-length over the pooled pairs of t[n, k, i, j] X_a^k Y_b^j:
    L^T folded into t's output index i makes it a Euclidean length."""
    return _largest_length(_pool_pairs(p.factors[0][:, None] @ t, xs, ys),
                           (1, 2))


def _pool_triples(terms, zs):
    """Sum of t_x[n, a, s, j] Y_b^j over ``terms`` of (t_x, ys), then Z_c^s
    of the pooled ``zs``: (n, a, c, b)."""
    n, size = zs.shape[:2]
    stage = sum(t_x.reshape(n, -1, 3) @ ys.transpose(0, 2, 1)
                for t_x, ys in terms)                       # (n, a, s, b)
    return zs[:, None] @ stage.reshape(n, size, 3, size)


def _res_nabla_xi(p: Probe):
    rhs = (p.eye - np.einsum("ni,nk->nik", p.xi, p.eta) - p.bmat)
    return p.op_norm(p.nabla_xi - rhs)


def _res_ak_deta(p: Probe):
    vals = p.pool @ p.deta @ p.pool.transpose(0, 2, 1)
    return np.max(np.abs(vals), axis=(1, 2))


def _res_ak_dphi(p: Probe):
    # the connection is torsion-free, so its terms cancel from the
    # alternation and d Phi is that of nabla Phi
    dphi3 = exterior_differential(p.nabla_phi2)
    eta_wedge = (p.eta[:, 0] * p.phi2[:, 1, 2]
                 - p.eta[:, 1] * p.phi2[:, 0, 2]
                 + p.eta[:, 2] * p.phi2[:, 0, 1])
    dens = np.abs(dphi3 - 2.0 * eta_wedge)
    return dens / np.sqrt(np.linalg.det(p.g))


def _res_kleaves(p: Probe):
    ph = p.phi + p.h
    rhs = (np.einsum("nsk,nsj,ni->nkij", ph, p.g, p.xi)
           - np.einsum("nj,nik->nkij", p.eta, ph))
    return _pooled_frame_norm(p, p.nabla_phi - rhs, p.pool, p.pool)


def _res_curv1(p: Probe):
    imb = p.eye - p.bmat
    rhs = (np.einsum("nk,nil->nkil", p.eta, imb)
           - np.einsum("nl,nik->nkil", p.eta, imb)
           + np.einsum("nlik->nkil", p.nabla_b)
           - p.nabla_b)
    return _pooled_frame_norm(p, p.r_xi - rhs, p.pool, p.pool)


def _res_l_id(p: Probe):
    l_op = np.einsum("nijkl,nl,nj->nik", p.curv.riemann, p.xi, p.xi)
    m = (p.phi @ l_op @ p.phi - l_op
         + 2.0 * (p.phi @ p.phi) - 2.0 * (p.h @ p.h))
    return p.op_norm(m)


def _curv2_residual(p: Probe):
    """CURV2's left-hand side minus its right-hand side: (n, a, c, b)."""
    n, pool, phi_pool = p.n, p.pool, p.apply(p.phi, p.pool)
    # A[n,i,j,l] = R^i_{jkl} xi^k  (curvature with xi in the first slot)
    a = np.einsum("nijkl,nk->nijl", p.curv.riemann, p.xi)
    ga = np.einsum("nsi,nijl->nlsj", p.g, a).reshape(n, 3, 9)
    # g(R(xi, X_a) e_j, e_s), the first stage shared by the four terms
    ga_x, ga_phix = ((v @ ga).reshape(n, -1, 3, 3) for v in (pool, phi_pool))
    # the right-hand side in the same slots, s for Z and j for Y, M = I - phi h:
    # 2 (nabla_{hX_a} Phi)_{js} + 2 eta_j (g M X_a)_s - 2 eta_s (g M X_a)_j
    d_phi2 = p.nabla_phi2.transpose(0, 1, 3, 2).reshape(n, 3, 9)
    nabla_hx = (p.apply(p.h, pool) @ d_phi2).reshape(ga_x.shape)
    gmx = p.apply(p.g, pool - p.apply(p.bmat, pool))
    rhs_x = 2.0 * (nabla_hx + np.einsum("nj,nas->nasj", p.eta, gmx)
                   - np.einsum("ns,naj->nasj", p.eta, gmx))
    out = _pool_triples([(ga_x - rhs_x, pool), (ga_phix, phi_pool)], pool)
    out += _pool_triples([(ga_phix, pool), (-ga_x, phi_pool)], phi_pool)
    return out


def _res_curv2(p: Probe):
    return np.max(np.abs(_curv2_residual(p)), axis=(1, 2, 3))


def _res_codazzi_hp(p: Probe):
    # antisymmetrize in the two vector slots before contracting the pool
    anti = p.nabla_hp - np.einsum("njik->nkij", p.nabla_hp)
    return _pooled_frame_norm(p, anti, p.pool_d, p.pool_d)


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
    """g-length of sum_a (nabla_{E_a} T) E_a minus ``target``, the larger
    over the adapted and the random frame E: (n,)."""
    n = p.n
    res = None
    for frame in (p.frame, p.random_frame):
        t_e = (frame @ nabla_t.reshape(n, 3, 9)).reshape(n, 3, 3, 3)  # [a, i, j]
        v = (t_e @ frame[..., None])[..., 0].sum(axis=1) - target
        r = p.vec_norm(v)
        res = r if res is None else np.maximum(res, r)
    return res


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
    # k(eta(Y) X - eta(X) Y) + mu(eta(Y) TX - eta(X) TY) = eta(Y) A X - eta(X) A Y
    # with A = k I + mu T, in r_xi's slots (X, component, Y)
    a = p.k[:, None, None] * p.eye + p.mu[:, None, None] * t_op
    rhs = np.einsum("nj,nik->nkij", p.eta, a) - np.einsum("nk,nij->nkij", p.eta, a)
    return _pooled_frame_norm(p, p.r_xi - rhs, p.pool, p.pool)


def _res_null_kmu(p: Probe):
    return _nullity(p, p.h)


def _res_null_kmup(p: Probe):
    return _nullity(p, p.hp)


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


def _pool_riemann(t, pool):
    """t[n, i, j, k, l] X_a^k X_b^l X_c^j over the pool: (n, c, a, b, i).

    Each stage is one matmul per point of the pool with the leading index,
    and a copy then moves the next index to contract to the front (the
    stage before it is freed ahead of the last, largest matmul).
    """
    n, size = pool.shape[:2]
    s = pool @ t.transpose(0, 3, 4, 2, 1).reshape(n, 3, 27)          # (a, l, j, i)
    s = pool @ s.reshape(n, size, 3, 9).transpose(0, 2, 1, 3).reshape(n, 3, -1)
    s = s.reshape(n, size, size, 3, 3).transpose(0, 3, 2, 1, 4).reshape(n, 3, -1)
    return (pool @ s).reshape(n, size, size, size, 3)


def _res_weyl3(p: Probe):
    """W(X, Y) Z = R(X, Y) Z minus the right-hand side, U = Q - (Sc/2) I:
    W^i_jkl = R^i_jkl - g_lj U^i_k + g_kj U^i_l - (gQ)_lj d^i_k + (gQ)_kj d^i_l.

    Formed in long double 64 points at a time, folded into the Cholesky
    frame (L^T W) and rounded once; each block meets its points' pool and
    keeps one maximum per point, so no (n, P^3, 3) tensor is formed.  In
    float64 the rounding of W's five terms dominates a residual at its
    floor: on a kmu-darboux sweep suite (mu = 0.858, t in [-1, 1]) it put
    WEYL3 5.2e-10 from a long-double evaluation, and 6e-23 this way.
    """
    out = np.empty(p.n)
    for s in range(0, p.n, 64):
        riem, g, q, sc, lt = (a[s:s + 64].astype(np.longdouble) for a in (
            p.curv.riemann, p.g, p.curv.q, p.curv.scalar, p.factors[0]))
        u = q - 0.5 * sc[:, None, None] * np.eye(3)
        g_jl, gq_jl = g.transpose(0, 2, 1), (g @ q).transpose(0, 2, 1)
        # t^i_jkl = g_lj U^i_k + (gQ)_lj d^i_k: W = R - t + t, k and l swapped
        t = (u[:, :, None, :, None] * g_jl[:, None, :, None, :]
             + np.eye(3)[:, None, :, None] * gq_jl[:, None, :, None, :])
        w = (lt @ (riem - t + t.swapaxes(3, 4)).reshape(-1, 3, 27)).astype(float)
        out[s:s + 64] = _largest_length(_pool_riemann(
            w.reshape(riem.shape), p.pool[s:s + 64]), (1, 2, 3))
    return out


def _res_dk_eta(p: Probe):
    # (dk ^ eta)(u, v) = dk(u) eta(v) - dk(v) eta(u) over pool pairs
    dk_pool = np.einsum("ni,nai->na", p.dk, p.pool)
    eta_pool = np.einsum("ni,nai->na", p.eta, p.pool)
    vals = (np.einsum("na,nb->nab", dk_pool, eta_pool)
            - np.einsum("nb,na->nab", dk_pool, eta_pool))
    return np.max(np.abs(vals), axis=(1, 2))


def _res_bsq(p: Probe):
    b = p.bmat if p.model.variant == "h" else p.hp
    m = b @ b - (p.lam_nom ** 2)[:, None, None] * p.eye
    return np.max(np.abs(m[:, :2, :2]), axis=(1, 2))


def _res_phi12(p: Probe):
    return np.abs(p.phi2[:, 0, 1] - np.exp(2.0 * p.pts[:, 2]))


# --------------------------------------------------------------------------
# Registry
# --------------------------------------------------------------------------

def _all(model):
    return True


def _variant_h(model):
    return model.variant == "h"


def _variant_hp(model):
    return model.variant == "hp"


def _nondeg_h(model):
    return model.variant == "h" and model.family != "kenmotsu-baseline"


def _darboux(model):
    return model.trajectory is not None


@dataclass(frozen=True)
class IdentitySpec:
    id: str
    formula: str
    profile: str
    fn: object
    applies: object
    tolerance: float | None = None  # overrides the profile value when set

    def tol(self) -> float:
        return self.tolerance if self.tolerance is not None else PROFILES[self.profile]


IDENTITIES: dict[str, IdentitySpec] = {s.id: s for s in [
    IdentitySpec("NABLA_XI", "nabla_X xi = X - eta(X) xi - phi h X",
                 "fd1", _res_nabla_xi, _all),
    IdentitySpec("AK_DETA", "d eta = 0", "fd1", _res_ak_deta, _all),
    IdentitySpec("AK_DPHI", "d Phi = 2 eta ^ Phi", "fd1", _res_ak_dphi, _all),
    IdentitySpec("KLEAVES",
                 "(nabla_X phi)Y = g(phi X + h X, Y) xi - eta(Y)(phi X + h X)",
                 "fd1", _res_kleaves, _all),
    IdentitySpec("CURV1",
                 "R(Y,Z)xi = eta(Y)(Z - phi h Z) - eta(Z)(Y - phi h Y)"
                 " + (nabla_Z phi h)Y - (nabla_Y phi h)Z",
                 "fd2", _res_curv1, _all),
    IdentitySpec("L_ID", "phi l phi - l = 2(-phi^2 + h^2), l = R(., xi) xi",
                 "fd2", _res_l_id, _all),
    IdentitySpec("CURV2",
                 "g(R(xi,X)Y,Z) - g(R(xi,X)phiY,phiZ) + g(R(xi,phiX)Y,phiZ)"
                 " + g(R(xi,phiX)phiY,Z) = 2(nabla_{hX}Phi)(Y,Z)"
                 " + 2 eta(Y) g(Z, X - phi h X) - 2 eta(Z) g(Y, X - phi h X)",
                 "fd2", _res_curv2, _all),
    IdentitySpec("CODAZZI_HP", "(nabla_X h')Y - (nabla_Y h')X = 0 on ker(eta)",
                 "fd1", _res_codazzi_hp, _all),
    IdentitySpec("H2", "h^2 = h'^2 = (k+1) phi^2", "fd1", _res_h2, _all),
    IdentitySpec("QXI", "Q xi = 2k xi", "fd2", _res_qxi, _all),
    IdentitySpec("NH",
                 "nabla_xi h = -2h - mu phi h;  dlam(xi) = -2 lam;"
                 "  dk(xi) = -4(k+1)",
                 "fd1", _res_nh, _variant_h),
    IdentitySpec("NHP",
                 "nabla_xi h' = -(mu+2) h';  dlam(xi) = -lam(mu+2);"
                 "  dk(xi) = -2(k+1)(mu+2)",
                 "fd1", _res_nhp, _variant_hp),
    IdentitySpec("LIE1",
                 "L_xi h = 2 lam^2 phi - 2h + mu h';  L_xi h' = -mu h - 2h'",
                 "fd1", _res_lie1, _variant_h),
    IdentitySpec("LIE2",
                 "L_xi h' = -(mu+2) h';  L_xi h = 2 lam^2 phi - (mu+2) h",
                 "fd1", _res_lie2, _variant_hp),
    IdentitySpec("TR_HP", "sum_i (nabla_{X_i} h') X_i = Q xi + 2 xi",
                 "fd2", _res_tr_hp, _all),
    IdentitySpec("TR_PHI", "sum_i (nabla_{X_i} phi) X_i = 0",
                 "fd1", _res_tr_phi, _all),
    IdentitySpec("TR_H", "sum_i (nabla_{X_i} h) X_i = phi Q xi",
                 "fd2", _res_tr_h, _all),
    IdentitySpec("GRAD", "T(grad mu) = grad k - (xi k) xi",
                 "fd1", _res_grad, _all),
    IdentitySpec("RICCI_FORM",
                 "Q = a I + b eta (x) xi + mu T, a = Sc/2 - k, b = 3k - Sc/2",
                 "fd2", _res_ricci_form, _all),
    IdentitySpec("NULL_KMU",
                 "R(X,Y)xi = k(eta(Y)X - eta(X)Y) + mu(eta(Y)hX - eta(X)hY)",
                 "fd2", _res_null_kmu, _variant_h),
    IdentitySpec("NULL_KMUP",
                 "R(X,Y)xi = k(eta(Y)X - eta(X)Y) + mu(eta(Y)h'X - eta(X)h'Y)",
                 "fd2", _res_null_kmup, _variant_hp),
    IdentitySpec("CONN_KMU",
                 "nabla_X xi = X - lam phi X (and the 7 companion formulas"
                 " of the h-eigenframe connection)",
                 "fd1", lambda p: _conn_residual(p, _conn_kmu), _nondeg_h),
    IdentitySpec("CONN_KMUP",
                 "nabla_X xi = (1+lam) X (and the 7 companion formulas"
                 " of the h'-eigenframe connection)",
                 "fd1", lambda p: _conn_residual(p, _conn_kmup),
                 _variant_hp),
    IdentitySpec("FLAT_LEAF", "K(X, phi X) = -(1 - lam^2)",
                 "fd2", _res_flat_leaf, _all),
    IdentitySpec("WEYL3",
                 "R(X,Y)Z = g(Y,Z)QX - g(X,Z)QY + g(QY,Z)X - g(QX,Z)Y"
                 " - (Sc/2)(g(Y,Z)X - g(X,Z)Y)",
                 "fd2", _res_weyl3, _all),
    IdentitySpec("DK_ETA", "dk ^ eta = 0", "strict", _res_dk_eta, _all),
    IdentitySpec("BSQ", "B^i_s B^s_j = lam^2 delta^i_j on the leaf block",
                 "custom", _res_bsq, _darboux, tolerance=1e-8),
    IdentitySpec("PHI12", "Phi(d_x, d_y) = e^{2t}",
                 "custom", _res_phi12, _darboux, tolerance=1e-9),
]}


def applicable_identities(model: AlmostContactModel) -> list[str]:
    return [s.id for s in IDENTITIES.values() if s.applies(model)]


# --------------------------------------------------------------------------
# Checking API
# --------------------------------------------------------------------------

def _run(spec: IdentitySpec, probe: Probe, tolerance: float) -> ResidualReport:
    per_point = spec.fn(probe)
    idx = int(np.argmax(per_point))
    residual = float(per_point[idx])
    return ResidualReport(
        id=spec.id, formula=spec.formula, residual=residual,
        tolerance=tolerance, profile=spec.profile,
        verdict="pass" if residual <= tolerance else "fail",
        max_point=tuple(probe.pts[idx].tolist()), samples=probe.n)


def check_identity(model: AlmostContactModel, identity: str,
                   plan: SamplePlan | None = None,
                   tolerance: float | None = None,
                   probe: Probe | None = None) -> ResidualReport:
    """Evaluate one identity; returns a not-applicable report when the
    identity does not quantify over this model family."""
    if identity not in IDENTITIES:
        raise KeyError(f"unknown identity {identity!r}")
    spec = IDENTITIES[identity]
    plan = plan or SamplePlan()
    if not spec.applies(model):
        return ResidualReport(
            id=spec.id, formula=spec.formula, residual=float("nan"),
            tolerance=tolerance if tolerance is not None else spec.tol(),
            profile=spec.profile, verdict="not-applicable",
            max_point=None, samples=0)
    if probe is None:
        probe = Probe(model, plan.points(model), plan.rand_pairs, plan.seed)
    return _run(spec, probe, tolerance if tolerance is not None else spec.tol())


def check_suite(model: AlmostContactModel, identities=None,
                plan: SamplePlan | None = None,
                tolerances: dict[str, float] | None = None,
                profile: str | None = None) -> list[ResidualReport]:
    """Run a list of identities (default: every one known) on one shared
    evaluation cache; per-identity tolerances override the profile."""
    plan = plan or SamplePlan()
    ids = list(IDENTITIES) if identities in (None, "all") else list(identities)
    tolerances = tolerances or {}
    probe = Probe(model, plan.points(model), plan.rand_pairs, plan.seed)
    reports = []
    for name in ids:
        tol = tolerances.get(name)
        if tol is None and profile is not None:
            tol = PROFILES[profile]
        reports.append(check_identity(model, name, plan, tol, probe))
    return reports


def nullity_residual(model: AlmostContactModel,
                     plan: SamplePlan | None = None) -> ResidualReport:
    """Residual of the model's own nullity condition (variant h or hp)."""
    name = "NULL_KMU" if model.variant == "h" else "NULL_KMUP"
    return check_identity(model, name, plan)


def infer_k_mu(model: AlmostContactModel, pts):
    """Recover (k, mu) from the curvature at each point.

    With a unit eigenvector X (T X = lam X):
      k  = (g(R(X,xi)xi, X) + g(R(phiX,xi)xi, phiX)) / 2
      mu = (g(R(X,xi)xi, X) - g(R(phiX,xi)xi, phiX)) / (2 lam)
    mu is flagged indeterminate where lam < 1e-6.
    """
    pts, single = as_points(pts)
    p = Probe(model, pts)
    ef = p.eigen
    lx = p.curv.apply(ef.x, p.xi, p.xi)
    lpx = p.curv.apply(ef.phi_x, p.xi, p.xi)
    s1 = np.einsum("ni,nij,nj->n", lx, p.g, ef.x)
    s2 = np.einsum("ni,nij,nj->n", lpx, p.g, ef.phi_x)
    k = 0.5 * (s1 + s2)
    mu_ok = ef.lam >= MU_EIGEN_FLOOR
    mu = np.where(mu_ok, (s1 - s2) / (2.0 * np.maximum(ef.lam, 1e-300)), np.nan)
    if single:
        return float(k[0]), float(mu[0]), bool(mu_ok[0])
    return k, mu, mu_ok
