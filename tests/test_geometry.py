"""Connection/curvature engine against closed-form oracles.

The warped metric dt^2 + e^{2t}(dx^2 + dy^2) is the constant-curvature -1
oracle: Christoffel symbols from the Koszul formula by hand are
Gamma^t_xx = Gamma^t_yy = -e^{2t}, Gamma^x_xt = Gamma^y_yt = 1, and every
sectional curvature equals -1.
"""

import numpy as np
import pytest

from kenmotsu3.fields import (
    ChartDomain,
    CovectorField,
    DiffScheme,
    MetricField,
    Tensor11Field,
    coordinate_derivatives,
)
from kenmotsu3.geometry import (
    COND_LIMIT,
    DegenerateMetricError,
    DegeneratePlaneError,
    covariant_differential,
    exterior_derivative,
    g_norm,
    g_operator_norm,
    levi_civita,
    riemann,
    sectional_curvature,
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
from kenmotsu3.structure import compute_h

FULL = ChartDomain()


def euclidean():
    return MetricField(
        lambda p: np.broadcast_to(np.eye(3), (p.shape[0], 3, 3)).copy(), FULL)


def hyperbolic():
    def fn(p):
        g = np.zeros((p.shape[0], 3, 3))
        w = np.exp(2.0 * p[:, 2])
        g[:, 0, 0] = w
        g[:, 1, 1] = w
        g[:, 2, 2] = 1.0
        return g
    return MetricField(fn, FULL)


PTS = np.array([[0.3, -0.2, 0.0], [0.1, 0.5, 0.4], [-0.7, 0.2, -0.3]])


def christoffel(g, pts):
    """Gamma^i_{jk} of the metric field ``g`` at a batch of points."""
    return levi_civita(g(pts), coordinate_derivatives(g, pts))[0]


def nabla_along(g, t_field, x, pts):
    """(nabla_X T)^i_j of a (1,1) tensor field along per-point X (n, 3)."""
    nabla = covariant_differential(t_field(pts),
                                   coordinate_derivatives(t_field, pts),
                                   christoffel(g, pts))
    return np.einsum("nk,nkij->nij", x, nabla)


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
            christoffel(MetricField(fn, FULL), PTS)


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
        curv = riemann(euclidean(), PTS)
        assert np.max(np.abs(curv.riemann)) < 5e-8

    def test_hyperbolic_sectional(self):
        g = hyperbolic()
        k = sectional_curvature(g, PTS, np.array([1.0, 0.2, 0.3]),
                                np.array([-0.2, 1.0, 0.1]))
        assert np.allclose(k, -1.0, atol=5e-6)

    def test_first_bianchi(self):
        curv = riemann(hyperbolic(), PTS)
        r = curv.riemann
        cyc = r + np.einsum("niklj->nijkl", r) + np.einsum("niljk->nijkl", r)
        assert np.max(np.abs(cyc)) < 5e-7

    def test_antisymmetry(self):
        curv = riemann(hyperbolic(), PTS)
        anti = curv.riemann + np.einsum("nijlk->nijkl", curv.riemann)
        assert np.max(np.abs(anti)) < 1e-12

    def test_scalar_equals_trace_q(self):
        curv = riemann(hyperbolic(), PTS)
        assert np.allclose(curv.scalar, np.einsum("nii->n", curv.q),
                           rtol=1e-12, atol=1e-12)

    def test_euclidean_sectional_zero(self):
        k = sectional_curvature(euclidean(), PTS, np.array([1.0, 0, 0]),
                                np.array([0.0, 1.0, 0.0]))
        assert np.max(np.abs(k)) < 5e-8

    def test_degenerate_plane(self):
        with pytest.raises(DegeneratePlaneError):
            sectional_curvature(euclidean(), PTS, np.array([1.0, 0, 0]),
                                np.array([2.0, 0, 0]))


class TestCovariantDerivative:
    def test_identity_tensor_parallel(self):
        t = Tensor11Field(
            lambda p: np.broadcast_to(np.eye(3), (p.shape[0], 3, 3)).copy(), FULL)
        x = np.broadcast_to([0.3, 1.0, -0.2], PTS.shape)
        out = nabla_along(hyperbolic(), t, x, PTS)
        assert np.max(np.abs(out)) < 1e-9

    def test_nabla_xi_phi_vanishes_on_models(self):
        for model in (build_kenmotsu_baseline(1.0),
                      build_kmu_chart_model(KmuChartParams(mu="1"))):
            pts = SamplePlan(grid=2, seed=3).points(model)
            out = nabla_along(model.g, model.phi, model.xi(pts), pts)
            assert np.max(np.abs(out)) < 1e-6, model.family

    def test_nh_relation_on_chart_model(self):
        # nabla_xi h = -2h - mu phi h on the kmu chart family
        model = build_kmu_chart_model(KmuChartParams(mu="1"))
        pts = SamplePlan(grid=2, seed=3).points(model)
        hf = Tensor11Field(lambda q: compute_h(model, q), model.domain,
                           axis_quanta=model.g.axis_quanta,
                           varies=model.g.varies)
        h = hf(pts)
        phi = model.phi(pts)
        mu = model.mu_nom(pts)
        nab = nabla_along(model.g, hf, model.xi(pts), pts)
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
            pts = SamplePlan(grid=2, seed=5).points(model)
            gam = christoffel(model.g, pts)
            gv = model.g(pts)
            dg = coordinate_derivatives(model.g, pts)
            nabla_g = (dg - np.einsum("nski,nsj->nkij", gam, gv)
                       - np.einsum("nskj,nis->nkij", gam, gv))
            assert np.max(np.abs(nabla_g)) < 1e-7, model.family


class TestExteriorDerivative:
    def test_closed_coordinate_form(self):
        # eta = dt (third coordinate differential) is closed
        eta = CovectorField(lambda p: np.broadcast_to(
            np.array([0.0, 0.0, 1.0]), (p.shape[0], 3)).copy(), FULL)
        assert np.max(np.abs(exterior_derivative(eta, PTS))) < 1e-12

    def test_constant_two_form_closed(self):
        form = Tensor11Field(lambda p: np.broadcast_to(
            np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
            (p.shape[0], 3, 3)).copy(), FULL)
        assert np.max(np.abs(exterior_derivative(form, PTS))) < 1e-12

    def test_darboux_fundamental_form_law(self):
        # d Phi = 2 eta ^ Phi with Phi_12 = e^{2t} on the Darboux model
        def two_form(q):
            return np.einsum("nis,nsj->nij", model.g(q), model.phi(q))

        model = build_darboux_model(DarbouxParams("kmu", "1", (-0.5, 0.5)))
        pts = np.array([[0.2, 0.3, 0.0], [0.0, 0.0, 0.25]])
        phi2 = Tensor11Field(two_form, model.domain,
                             axis_quanta=model.g.axis_quanta)
        d3 = exterior_derivative(phi2, pts)
        comps = two_form(pts)
        eta = model.eta(pts)
        wedge = (eta[:, 0] * comps[:, 1, 2] - eta[:, 1] * comps[:, 0, 2]
                 + eta[:, 2] * comps[:, 0, 1])
        assert np.max(np.abs(d3 - 2.0 * wedge)) < 1e-7

    def test_d_squared_zero(self):
        eta = CovectorField(lambda p: np.stack(
            [np.sin(p[:, 2]), p[:, 0] ** 2, p[:, 1]], axis=1), FULL)
        d1 = Tensor11Field(lambda q: exterior_derivative(eta, q), FULL)
        dd = exterior_derivative(d1, PTS)
        assert np.max(np.abs(dd)) < 5e-7


class TestWeylDecomposition:
    def test_three_dim_curvature_determined_by_ricci(self):
        model = build_kmu_chart_model(KmuChartParams(mu="1"))
        plan = SamplePlan(grid=3, rand_pairs=3, seed=11)
        probe = Probe(model, plan.points(model), DiffScheme(),
                      plan.rand_pairs, plan.seed)
        from kenmotsu3.identities import IDENTITIES
        res = IDENTITIES["WEYL3"].fn(probe)
        assert np.max(res) < 5e-5


def test_g_norms():
    g = np.array([[[4.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]])
    v = np.array([[1.0, 0.0, 0.0]])
    assert g_norm(v, g)[0] == pytest.approx(2.0)
    a = np.array([[[3.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]])
    assert g_operator_norm(a, g)[0] == pytest.approx(3.0)


def _svd_operator_norm(a, g):
    """The largest singular value of L^T A L^{-T}, g = L L^T."""
    lt = np.linalg.cholesky(g).transpose(0, 2, 1)
    return np.linalg.svd(lt @ a @ np.linalg.inv(lt), compute_uv=False)[:, 0]


def _g_singular(sigma, g, seed):
    """Operators whose g-singular values are the rows of ``sigma``."""
    rng = np.random.default_rng(seed)
    u, v = (np.linalg.qr(rng.standard_normal((len(g), 3, 3)))[0]
            for _ in range(2))
    lt = np.linalg.cholesky(g).transpose(0, 2, 1)
    m = u @ (np.asarray(sigma, float)[:, :, None] * v.transpose(0, 2, 1))
    return np.linalg.inv(lt) @ m @ lt


class TestOperatorNorm:
    """g_operator_norm against the SVD, under non-identity metrics (cond g
    up to 80): within 6 eps relative.  Each is within 3 eps of the exact
    norm of the rounded L^T A L^{-T} (against 40-digit SVDs of the worst
    cases); measured apart by at most 4.6 eps."""

    N = 400

    @pytest.fixture(scope="class")
    def g(self):
        return _rotated(np.random.default_rng(2).uniform(0.1, 10.0, (self.N, 3)),
                        seed=3)

    def _close(self, a, g):
        ref = _svd_operator_norm(a, g)
        out = g_operator_norm(a, g)
        assert np.all(np.abs(out - ref) <= 6.0 * np.finfo(float).eps * ref)

    def test_random(self, g):
        self._close(np.random.default_rng(4).standard_normal((self.N, 3, 3)), g)

    def test_rank_one(self, g):
        rng = np.random.default_rng(5)
        u, v = rng.standard_normal((2, self.N, 3))
        self._close(u[:, :, None] * v[:, None, :], g)

    def test_orthogonal(self, g):
        q = np.linalg.qr(np.random.default_rng(6).standard_normal((self.N, 3, 3)))[0]
        self._close(q, g)
        # g-orthogonal: three equal g-singular values
        self._close(_g_singular(np.ones((self.N, 3)), g, 7), g)

    def test_equal_top_pair(self, g):
        # the top two g-singular values equal (h itself has +-lam, 0) or
        # 1e-9 apart: the trigonometric roots of the Gram matrix's
        # characteristic cubic lose half the digits there (4e-9 relative)
        sigma = np.column_stack([np.ones(self.N),
                                 1.0 - np.repeat([0.0, 1e-9], self.N // 2),
                                 np.linspace(0.0, 0.9, self.N)])
        self._close(_g_singular(sigma, g, 8), g)

    @pytest.mark.parametrize("scale", [1e-12, 1e-200, 1e200])
    def test_zero_tiny_and_huge(self, g, scale):
        # the Gram matrix of the unscaled m would underflow or overflow at
        # 1e-200 and 1e200
        assert np.array_equal(g_operator_norm(np.zeros((self.N, 3, 3)), g),
                              np.zeros(self.N))
        self._close(scale * np.random.default_rng(9).standard_normal(
            (self.N, 3, 3)), g)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_raises(self, g, bad):
        a = np.random.default_rng(10).standard_normal((self.N, 3, 3))
        a[7, 1, 2] = bad
        with pytest.raises(np.linalg.LinAlgError):
            g_operator_norm(a, g)
        gb = g.copy()
        gb[7, 0, 0] = bad
        with pytest.raises(np.linalg.LinAlgError):
            g_operator_norm(np.ones((self.N, 3, 3)), gb)


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="np.longdouble is no wider than float64")
def test_g_norm_rounding_on_pooled_vectors():
    # WEYL3's shape: an (a, b, c) pool of residual vectors per point, g
    # broadcast over the pool; metrics of kmu-darboux over [-1, 1] (cond g up
    # to 3e5) and vectors spanning nine decades.  Against the long-double
    # (v g) . v, the error stays within 2 eps of the absolute products behind
    # the square, over twice the norm (measured: 1.1)
    model = build_darboux_model(DarbouxParams("kmu", "1", (-1.0, 1.0)))
    plan = SamplePlan(grid=3, rand_pairs=4, seed=3)
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
