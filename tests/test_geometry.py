"""Connection/curvature engine against closed-form oracles.

The warped metric dt^2 + e^{2t}(dx^2 + dy^2) is the constant-curvature -1
oracle: Christoffel symbols from the Koszul formula by hand are
Gamma^t_xx = Gamma^t_yy = -e^{2t}, Gamma^x_xt = Gamma^y_yt = 1, and every
sectional curvature equals -1.
"""

import numpy as np
import pytest

from fd_reference import derivatives, riemann
from kenmotsu3.fields import ArrayField, ChartDomain
from kenmotsu3.geometry import (
    COND_LIMIT,
    DegenerateMetricError,
    DegeneratePlaneError,
    covariant_differential,
    exterior_differential,
    levi_civita,
    _inverse_metric,
)
from kenmotsu3.identities import Probe, SamplePlan
from kenmotsu3.models import (
    DarbouxParams,
    KmuChartParams,
    build_darboux_model,
    build_kenmotsu_baseline,
    build_kmu_chart_model,
)
from structure_reference import g_norm

FULL = ChartDomain()


def euclidean():
    return ArrayField(
        lambda p: np.broadcast_to(np.eye(3), (p.shape[0], 3, 3)).copy(), (3, 3))


def hyperbolic():
    def fn(p):
        g = np.zeros((p.shape[0], 3, 3))
        w = np.exp(2.0 * p[:, 2])
        g[:, 0, 0] = w
        g[:, 1, 1] = w
        g[:, 2, 2] = 1.0
        return g
    return ArrayField(fn, (3, 3))


PTS = np.array([[0.3, -0.2, 0.0], [0.1, 0.5, 0.4], [-0.7, 0.2, -0.3]])


def fd_curvature(g, pts):
    """The oracle's curvature of a metric field, its partials by FD too."""
    return riemann(lambda q: (g(q), derivatives(g, FULL, q)), FULL, pts)


def christoffel(g, pts):
    """Gamma^i_{jk} of the metric field ``g`` at a batch of points."""
    return levi_civita(g(pts), derivatives(g, FULL, pts))[0]


def nabla_along(gamma, t, dt, x):
    """(nabla_X T)^i_j of a (1,1) tensor from its values ``t``, partials
    ``dt`` and the Christoffel symbols, along per-point X (n, 3)."""
    return np.einsum("nk,nkij->nij", x, covariant_differential(t, dt, gamma))


def exterior_derivative(form, pts):
    """FD exterior derivative of a 1-form or 2-form on the whole chart."""
    return exterior_differential(derivatives(form, FULL, pts))


class TestChristoffel:
    def test_euclidean_vanishes(self):
        gam = christoffel(euclidean(), PTS)
        assert np.max(np.abs(gam)) < 1e-10

    def test_warped_oracle_values(self):
        gam = christoffel(hyperbolic(), np.array([[0.0, 0.0, 0.0]]))[0]
        assert gam[2, 0, 0] == pytest.approx(-1.0, abs=1e-7)
        assert gam[0, 0, 2] == pytest.approx(1.0, abs=1e-7)

    def test_symmetry_in_lower_indices(self):
        gam = christoffel(hyperbolic(), PTS)
        assert np.max(np.abs(gam - np.swapaxes(gam, 2, 3))) == 0.0

    def test_degenerate_metric_rejected(self):
        def fn(p):
            g = np.broadcast_to(np.eye(3), (p.shape[0], 3, 3)).copy()
            g[:, 0, 0] = 1e-14
            return g
        with pytest.raises(DegenerateMetricError):
            christoffel(ArrayField(fn, (3, 3)), PTS)


def _rotated(diag, seed=0):
    """Symmetric metrics R diag R^T, one per row of ``diag``."""
    diag = np.atleast_2d(np.asarray(diag, float))
    rot = np.linalg.qr(np.random.default_rng(seed).standard_normal(
        (len(diag), 3, 3)))[0]
    return rot @ (diag[:, :, None] * rot.transpose(0, 2, 1))


def _frobenius_bound(g):
    return (np.linalg.norm(g, axis=(1, 2))
            * np.linalg.norm(np.linalg.inv(g), axis=(1, 2)))


class TestInverseMetric:
    """_inverse_metric accepts exactly where np.linalg.cond(g) <= COND_LIMIT,
    and returns np.linalg.inv(g) bit for bit."""

    @pytest.mark.parametrize("diag", [
        (1.0, 1.0, 1.0 / 0.9e12),      # cond 0.9e12, Frobenius bound 1.27e12
        (2.0, 3.0, 3.0 / 0.999e12),    # cond 0.999e12
        (1.0, 0.5, 0.25),
    ])
    def test_accepts_where_cond_does(self, diag):
        g = np.concatenate([_rotated(diag), np.eye(3)[None]])
        assert np.all(np.linalg.cond(g) <= COND_LIMIT)
        assert np.array_equal(_inverse_metric(g), np.linalg.inv(g))

    def test_frobenius_bound_above_the_limit_is_not_a_rejection(self):
        g = _rotated((1.0, 1.0, 1.0 / 0.9e12))
        assert _frobenius_bound(g)[0] > COND_LIMIT >= np.linalg.cond(g)[0]
        assert np.array_equal(_inverse_metric(g), np.linalg.inv(g))

    @pytest.mark.parametrize("diag", [(1.0, 1.0, 1e-13), (3.0, 1.0, 3.0 / 1.001e12)])
    def test_rejects_where_cond_does(self, diag):
        g = np.concatenate([np.eye(3)[None], _rotated(diag)])
        assert np.linalg.cond(g)[1] > COND_LIMIT
        with pytest.raises(DegenerateMetricError):
            _inverse_metric(g)

    def test_exactly_singular_is_degenerate_not_linalg_error(self):
        g = np.stack([np.eye(3), np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0],
                                           [0.0, 0.0, 1.0]])])
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.inv(g)
        assert not np.all(np.linalg.cond(g) <= COND_LIMIT)
        with pytest.raises(DegenerateMetricError):
            _inverse_metric(g)

    def test_nan_entries_are_degenerate(self):
        g = np.stack([np.eye(3), np.eye(3)])
        g[1, 0, 2] = g[1, 2, 0] = np.nan
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cond(g)  # the SVD does not converge
        with pytest.raises(DegenerateMetricError):
            _inverse_metric(g)

    def test_well_conditioned_metrics_take_no_svd(self, monkeypatch):
        g = _rotated(np.random.default_rng(1).uniform(0.1, 10.0, (50, 3)))

        def no_cond(*args, **kwargs):
            raise AssertionError("np.linalg.cond called")

        monkeypatch.setattr(np.linalg, "cond", no_cond)
        assert np.array_equal(_inverse_metric(g), np.linalg.inv(g))


class TestRiemann:
    def test_euclidean_flat(self):
        curv = fd_curvature(euclidean(), PTS)
        assert np.max(np.abs(curv.riemann)) < 5e-8

    def test_hyperbolic_sectional(self):
        g = hyperbolic()
        k = fd_curvature(g, PTS).sectional(g(PTS), np.array([1.0, 0.2, 0.3]),
                                           np.array([-0.2, 1.0, 0.1]))
        assert np.allclose(k, -1.0, atol=5e-6)

    def test_first_bianchi(self):
        curv = fd_curvature(hyperbolic(), PTS)
        r = curv.riemann
        cyc = r + np.einsum("niklj->nijkl", r) + np.einsum("niljk->nijkl", r)
        assert np.max(np.abs(cyc)) < 5e-7

    def test_antisymmetry(self):
        curv = fd_curvature(hyperbolic(), PTS)
        anti = curv.riemann + np.einsum("nijlk->nijkl", curv.riemann)
        assert np.max(np.abs(anti)) < 1e-12

    def test_scalar_equals_trace_q(self):
        curv = fd_curvature(hyperbolic(), PTS)
        assert np.allclose(curv.scalar, np.einsum("nii->n", curv.q),
                           rtol=1e-12, atol=1e-12)

    def test_euclidean_sectional_zero(self):
        g = euclidean()
        k = fd_curvature(g, PTS).sectional(g(PTS), np.array([1.0, 0, 0]),
                                           np.array([0.0, 1.0, 0.0]))
        assert np.max(np.abs(k)) < 5e-8

    def test_degenerate_plane(self):
        g = euclidean()
        with pytest.raises(DegeneratePlaneError):
            fd_curvature(g, PTS).sectional(g(PTS), np.array([1.0, 0, 0]),
                                           np.array([2.0, 0, 0]))


class TestCovariantDerivative:
    def test_identity_tensor_parallel(self):
        def t(p):
            return np.broadcast_to(np.eye(3), (p.shape[0], 3, 3)).copy()

        x = np.broadcast_to([0.3, 1.0, -0.2], PTS.shape)
        out = nabla_along(christoffel(hyperbolic(), PTS), t(PTS),
                          derivatives(t, FULL, PTS), x)
        assert np.max(np.abs(out)) < 1e-9

    def test_nabla_xi_phi_vanishes_on_models(self):
        for model in (build_kenmotsu_baseline(1.0),
                      build_kmu_chart_model(KmuChartParams(mu="1"))):
            pts = SamplePlan(grid=2).points(model)
            at = model.at(pts)
            gamma = levi_civita(*at["g"][:2])[0]
            out = nabla_along(gamma, *at["phi"][:2], at["xi"][0])
            assert np.max(np.abs(out)) < 1e-6, model.family

    def test_nh_relation_on_chart_model(self):
        # nabla_xi h = -2h - mu phi h on the kmu chart family
        model = build_kmu_chart_model(KmuChartParams(mu="1"))
        pts = SamplePlan(grid=2).points(model)
        at = model.at(pts)
        h = Probe(model, pts).h
        dh = derivatives(lambda q: Probe(model, q).h, model.domain, pts)
        phi = at["phi"][0]
        mu = at["mu_nom"][0]
        nab = nabla_along(levi_civita(*at["g"][:2])[0], h, dh, at["xi"][0])
        res = nab + 2.0 * h + mu[:, None, None] * (phi @ h)
        assert np.max(np.abs(res)) < 1e-6

    def test_metric_compatibility(self):
        from kenmotsu3.models import KmupChartParams, build_kmu_prime_chart_model
        models = (build_kenmotsu_baseline(2.0),
                  build_kmu_chart_model(KmuChartParams(mu="z+1")),
                  build_kmu_prime_chart_model(KmupChartParams(mu="1")),
                  build_darboux_model(DarbouxParams("kmu", "1", (-0.25, 0.25))),
                  build_darboux_model(DarbouxParams("kmup", "0", (-0.25, 0.25))))
        for model in models:
            pts = SamplePlan(grid=2).points(model)
            gv, dg = model.at(pts)["g"][:2]
            gam = levi_civita(gv, dg)[0]
            nabla_g = (dg - np.einsum("nski,nsj->nkij", gam, gv)
                       - np.einsum("nskj,nis->nkij", gam, gv))
            assert np.max(np.abs(nabla_g)) < 1e-7, model.family


class TestExteriorDerivative:
    def test_closed_coordinate_form(self):
        # eta = dt (third coordinate differential) is closed
        eta = ArrayField(lambda p: np.broadcast_to(
            np.array([0.0, 0.0, 1.0]), (p.shape[0], 3)).copy(), (3,))
        assert np.max(np.abs(exterior_derivative(eta, PTS))) < 1e-12

    def test_constant_two_form_closed(self):
        form = ArrayField(lambda p: np.broadcast_to(
            np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
            (p.shape[0], 3, 3)).copy(), (3, 3))
        assert np.max(np.abs(exterior_derivative(form, PTS))) < 1e-12

    def test_darboux_fundamental_form_law(self):
        # d Phi = 2 eta ^ Phi with Phi_12 = e^{2t} on the Darboux model
        def two_form(q):
            return np.einsum("nis,nsj->nij", model.g(q), model.phi(q))

        model = build_darboux_model(DarbouxParams("kmu", "1", (-0.5, 0.5)))
        pts = np.array([[0.2, 0.3, 0.0], [0.0, 0.0, 0.25]])
        d3 = exterior_differential(derivatives(two_form, model.domain, pts))
        comps = two_form(pts)
        eta = model.eta(pts)
        wedge = (eta[:, 0] * comps[:, 1, 2] - eta[:, 1] * comps[:, 0, 2]
                 + eta[:, 2] * comps[:, 0, 1])
        assert np.max(np.abs(d3 - 2.0 * wedge)) < 1e-7

    def test_d_squared_zero(self):
        eta = ArrayField(lambda p: np.stack(
            [np.sin(p[:, 2]), p[:, 0] ** 2, p[:, 1]], axis=1), (3,))
        dd = exterior_derivative(lambda q: exterior_derivative(eta, q), PTS)
        assert np.max(np.abs(dd)) < 5e-7


class TestWeylDecomposition:
    def test_three_dim_curvature_determined_by_ricci(self):
        model = build_kmu_chart_model(KmuChartParams(mu="1"))
        probe = Probe(model, SamplePlan(grid=3).points(model))
        from kenmotsu3.identities import IDENTITIES
        res = IDENTITIES["WEYL3"].fn(probe)
        assert np.max(res) < 5e-5


def _op_norm(a, g):
    """Probe.norm of the (1,1) tensors ``a`` under the metrics ``g``."""
    p = Probe.__new__(Probe)
    p.g, p.n = g, len(g)
    return p.norm(a, upper=0)


def test_g_norms():
    g = np.array([[[4.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]])
    v = np.array([[1.0, 0.0, 0.0]])
    assert g_norm(v, g)[0] == pytest.approx(2.0)
    a = np.array([[[3.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]])
    assert _op_norm(a, g)[0] == pytest.approx(np.sqrt(11.0))


def _svd(a, g):
    """The singular values of L^T A L^{-T}, g = L L^T, largest first."""
    lt = np.linalg.cholesky(g).transpose(0, 2, 1)
    return np.linalg.svd(lt @ a @ np.linalg.inv(lt), compute_uv=False)


def _g_singular(sigma, g, seed):
    """Operators whose g-singular values are the rows of ``sigma``."""
    rng = np.random.default_rng(seed)
    u, v = (np.linalg.qr(rng.standard_normal((len(g), 3, 3)))[0]
            for _ in range(2))
    lt = np.linalg.cholesky(g).transpose(0, 2, 1)
    m = u @ (np.asarray(sigma, float)[:, :, None] * v.transpose(0, 2, 1))
    return np.linalg.inv(lt) @ m @ lt


class TestOperatorNorm:
    """Probe.norm of a (1,1) tensor A, the Frobenius norm of L^T A L^{-T},
    against the SVD of that operand under non-identity metrics (cond g up
    to 80): within 6 eps of the root sum of the squared singular values, so
    between the g-operator norm and sqrt(3) times it."""

    N = 400
    EPS = np.finfo(float).eps

    @pytest.fixture(scope="class")
    def g(self):
        return _rotated(np.random.default_rng(2).uniform(0.1, 10.0, (self.N, 3)),
                        seed=3)

    def _close(self, a, g):
        sv = _svd(a, g)
        ref = np.sqrt(np.sum(sv ** 2, axis=1))
        out = _op_norm(a, g)
        assert np.all(np.abs(out - ref) <= 6.0 * self.EPS * ref)
        assert np.all(sv[:, 0] * (1.0 - 6.0 * self.EPS) <= out)
        assert np.all(out <= np.sqrt(3.0) * sv[:, 0] * (1.0 + 6.0 * self.EPS))
        return out, sv

    def test_random(self, g):
        self._close(np.random.default_rng(4).standard_normal((self.N, 3, 3)), g)

    def test_rank_one(self, g):
        # one singular value: the Frobenius norm is the operator norm
        rng = np.random.default_rng(5)
        u, v = rng.standard_normal((2, self.N, 3))
        out, sv = self._close(u[:, :, None] * v[:, None, :], g)
        assert np.all(np.abs(out - sv[:, 0]) <= 6.0 * self.EPS * sv[:, 0])

    def test_orthogonal(self, g):
        q = np.linalg.qr(np.random.default_rng(6).standard_normal((self.N, 3, 3)))[0]
        self._close(q, g)
        # g-orthogonal: three equal g-singular values, the sqrt(3) end
        out, _ = self._close(_g_singular(np.ones((self.N, 3)), g, 7), g)
        assert np.allclose(out, np.sqrt(3.0), rtol=100.0 * self.EPS, atol=0.0)

    def test_equal_top_pair(self, g):
        # the top two g-singular values equal (h itself has +-lam, 0) or
        # 1e-9 apart: no eigenvalue is taken, so no digits are lost there
        sigma = np.column_stack([np.ones(self.N),
                                 1.0 - np.repeat([0.0, 1e-9], self.N // 2),
                                 np.linspace(0.0, 0.9, self.N)])
        out, _ = self._close(_g_singular(sigma, g, 8), g)
        exact = np.sqrt(np.sum(sigma ** 2, axis=1))
        assert np.allclose(out, exact, rtol=100.0 * self.EPS, atol=0.0)

    @pytest.mark.parametrize("scale", [1e-12, 1e-200, 1e200])
    def test_zero_tiny_and_huge(self, g, scale):
        # the squares are not rescaled, as in every frame norm: they
        # underflow at 1e-200 and overflow at 1e200, where the norm reads
        # at most the true one (a pass) and inf (a fail)
        assert np.array_equal(_op_norm(np.zeros((self.N, 3, 3)), g),
                              np.zeros(self.N))
        a = scale * np.random.default_rng(9).standard_normal((self.N, 3, 3))
        if scale == 1e-12:
            self._close(a, g)
            return
        with np.errstate(over="ignore", under="ignore"):
            out = _op_norm(a, g)
        true = scale * _op_norm(a / scale, g)
        if scale < 1.0:
            assert np.all(out <= true) and np.all(out < 1e-150)
        else:
            assert np.all(out == np.inf)


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="np.longdouble is no wider than float64")
def test_g_norm_rounding_on_pooled_vectors():
    # the tests' reference g-length on a pooled shape, once WEYL3's: an
    # (a, b, c) pool of residual vectors per point, g broadcast over it;
    # metrics of kmu-darboux over [-1, 1] (cond g up to 3e5) and vectors
    # spanning nine decades.  Against the long-double (v g) . v, the error
    # stays within 2 eps of the absolute products behind the square, over
    # twice the norm (measured: 1.1)
    model = build_darboux_model(DarbouxParams("kmu", "1", (-1.0, 1.0)))
    plan = SamplePlan(grid=3)
    g = model.g(plan.points(model))[:, None, None, None]
    rng = np.random.default_rng(7)
    v = rng.standard_normal((len(g), 11, 11, 11, 3)) \
        * 10.0 ** rng.uniform(-6, 3, (len(g), 11, 11, 11, 1))
    vl, gl = v.astype(np.longdouble), g.astype(np.longdouble)
    exact = np.sqrt(np.einsum("...i,...ij,...j->...", vl, gl, vl))
    scale = np.einsum("...i,...ij,...j->...", np.abs(v), np.abs(g), np.abs(v))
    err = np.abs(g_norm(v, g) - exact)
    assert np.all(err <= 2.0 * np.finfo(float).eps * scale / exact)
    # the per-point path (no pool axis) computes the same products
    flat = v.reshape(-1, 3)
    g_flat = np.broadcast_to(g, v.shape[:-1] + (3, 3)).reshape(-1, 3, 3)
    assert np.allclose(g_norm(flat, g_flat), g_norm(v, g).ravel(),
                       rtol=4 * np.finfo(float).eps, atol=0)
