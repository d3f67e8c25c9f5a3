"""Operators h, h', eigenframes, the fundamental 2-form and normality."""

import numpy as np
import pytest

from kenmotsu3.fields import BoundaryError
from kenmotsu3.identities import Probe, SamplePlan, infer_k_mu
from kenmotsu3.models import (
    DarbouxParams,
    KmuChartParams,
    KmupChartParams,
    build_darboux_model,
    build_kenmotsu_baseline,
    build_kmu_chart_model,
    build_kmu_prime_chart_model,
)
from structure_reference import g_norm, nijenhuis, structure_residuals

ALL_MODELS = [
    build_kenmotsu_baseline(1.0),
    build_kmu_chart_model(KmuChartParams(mu="1")),
    build_kmu_prime_chart_model(KmupChartParams(mu="-1")),
    build_darboux_model(DarbouxParams("kmu", "1", (-0.5, 0.5))),
    build_darboux_model(DarbouxParams("kmup", "0", (-0.5, 0.5))),
]


def sample(model, grid=3):
    return SamplePlan(grid=grid).points(model)


class TestHOperator:
    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.family)
    def test_h_symmetric_traceless_anticommutes(self, model):
        pts = sample(model)
        g = model.g(pts)
        phi = model.phi(pts)
        xi = model.xi(pts)
        h = Probe(model, pts).h
        # g-symmetry: g(hX, Y) = g(X, hY)  <=>  (gh) symmetric
        gh = np.einsum("nis,nsj->nij", g, h)
        assert np.max(np.abs(gh - np.swapaxes(gh, 1, 2))) < 1e-8
        assert np.max(np.abs(np.einsum("nii->n", h))) < 1e-8
        assert np.max(np.abs(h @ phi + phi @ h)) < 1e-8
        assert np.max(g_norm(np.einsum("nij,nj->ni", h, xi), g)) < 1e-8

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.family)
    def test_h_squared_equals_h_prime_squared(self, model):
        # exact identity for exact h, and h reads exact partials: rounding
        # is left (measured at most 2.4e-15, on kmu-darboux)
        pts = sample(model)
        h = Probe(model, pts).h
        hp = h @ model.phi(pts)
        assert np.max(np.abs(h @ h - hp @ hp)) < 1e-7

    def test_b_is_phi_h(self):
        m = build_kmu_chart_model(KmuChartParams())
        pts = sample(m)
        assert np.array_equal(Probe(m, pts).bmat,
                              m.phi(pts) @ Probe(m, pts).h)

    def test_baseline_h_zero(self):
        m = build_kenmotsu_baseline(1.0)
        assert np.max(np.abs(Probe(m, sample(m)).h)) < 1e-8

    def test_darboux_h_initial_block(self):
        m = build_darboux_model(DarbouxParams("kmu", "0", (-0.5, 0.5)))
        h = Probe(m, np.array([0.2, 0.9, 0.0])).h[0]
        assert np.allclose(h[:2, :2], [[0.0, -1.0], [-1.0, 0.0]], atol=1e-6)

    def test_chart_h_eigenvalue_lambda(self):
        m = build_kmu_chart_model(KmuChartParams())
        h = Probe(m, np.array([0.0, 0.0, -2.0])).h[0]
        assert np.allclose(h @ np.array([1.0, 0, 0]), [1.0, 0, 0], atol=1e-6)


class TestEigenframe:
    def test_baseline_degenerate(self):
        m = build_kenmotsu_baseline(1.0)
        p = Probe(m, np.array([[0.1, 0.2, 0.0]]))
        ef = p.eigen
        assert ef.lam[0] == 0.0
        # h vanishes: X falls back to the first row of the Cholesky frame
        assert np.array_equal(ef.x, p.factors[1][:, 0])

    def test_kmup_chart_eigenvector(self):
        m = build_kmu_prime_chart_model(KmupChartParams())
        ef = Probe(m, np.array([[0.0, 0.0, -2.0]])).eigen
        assert ef.lam[0] == pytest.approx(1.0, abs=1e-6)
        assert np.allclose(ef.x[0], [1.0, 0.0, 0.0], atol=1e-6)

    def test_darboux_lambda_decays(self):
        m = build_darboux_model(DarbouxParams("kmu", "1", (-0.5, 0.5)))
        ef = Probe(m, np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.5]])).eigen
        assert ef.lam[0] == pytest.approx(1.0, abs=1e-6)
        assert ef.lam[1] == pytest.approx(np.exp(-1.0), abs=1e-6)

    @pytest.mark.parametrize("model", ALL_MODELS[1:], ids=lambda m: m.family)
    def test_frame_orthonormal_and_eigen(self, model):
        pts = sample(model)
        g = model.g(pts)
        ef = Probe(model, pts).eigen
        frame = np.stack([model.xi(pts), ef.x, ef.phi_x], axis=1)
        gram = np.einsum("nai,nij,nbj->nab", frame, g, frame)
        assert np.max(np.abs(gram - np.eye(3))) < 1e-8
        h = Probe(model, pts).h
        t_op = h @ model.phi(pts) if model.variant == "hp" else h
        tx = np.einsum("nij,nj->ni", t_op, ef.x)
        tpx = np.einsum("nij,nj->ni", t_op, ef.phi_x)
        assert np.max(g_norm(tx - ef.lam[:, None] * ef.x, g)) < 1e-7
        assert np.max(g_norm(tpx + ef.lam[:, None] * ef.phi_x, g)) < 1e-7

    @pytest.mark.parametrize("model", ALL_MODELS[1:3], ids=lambda m: m.family)
    def test_reconstruction(self, model):
        # T = lam (X (x) X^flat - phiX (x) (phiX)^flat)
        pts = sample(model)
        g = model.g(pts)
        ef = Probe(model, pts).eigen
        xf = np.einsum("nij,nj->ni", g, ef.x)
        pxf = np.einsum("nij,nj->ni", g, ef.phi_x)
        recon = ef.lam[:, None, None] * (
            np.einsum("ni,nj->nij", ef.x, xf)
            - np.einsum("ni,nj->nij", ef.phi_x, pxf))
        h = Probe(model, pts).h
        t_op = h @ model.phi(pts) if model.variant == "hp" else h
        assert np.max(np.abs(recon - t_op)) < 1e-7

    def test_sign_fix_deterministic(self):
        m = build_kmu_chart_model(KmuChartParams(mu="1"))
        pts = sample(m)
        a = Probe(m, pts).eigen
        b = Probe(m, pts).eigen
        assert np.array_equal(a.x, b.x)
        lead = a.x[np.arange(len(a.x)), np.argmax(np.abs(a.x) > 1e-8, axis=1)]
        assert np.all(lead > 0)


class TestFundamentalForm:
    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.family)
    def test_xi_contraction_vanishes(self, model):
        pts = sample(model)
        xi = model.xi(pts)
        rng = np.random.default_rng(5)
        y = rng.standard_normal((pts.shape[0], 3))
        comps = Probe(model, pts).phi2
        vals = np.einsum("ni,nij,nj->n", xi, comps, y)
        assert np.max(np.abs(vals)) < 1e-12

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.family)
    def test_antisymmetry(self, model):
        pts = sample(model)
        comps = Probe(model, pts).phi2
        assert np.max(np.abs(comps + np.swapaxes(comps, 1, 2))) < 1e-12

    def test_darboux_phi12(self):
        m = build_darboux_model(DarbouxParams("kmu", "1", (-0.5, 0.5)))
        # Phi(e1, e2) = g(e1, phi e2) = Phi_12
        val = Probe(m, np.array([[0.0, 0.0, 0.5]])).phi2[0, 0, 1]
        assert val == pytest.approx(np.exp(1.0), abs=1e-9)


class TestNijenhuis:
    def test_vanishes_on_kenmotsu_baseline(self):
        m = build_kenmotsu_baseline(1.0)
        rng = np.random.default_rng(2)
        pts = sample(m)
        for _ in range(3):
            x, y = rng.standard_normal(3), rng.standard_normal(3)
            n = nijenhuis(m, pts, x, y)
            assert np.max(np.abs(n)) < 1e-6

    def test_degenerate_arguments(self):
        m = build_kmu_chart_model(KmuChartParams())
        n = nijenhuis(m, sample(m), [1.0, 0, 0], [1.0, 0, 0])
        assert np.max(np.abs(n)) < 1e-8

    def test_nonzero_on_kmu_chart(self):
        # h != 0 forces non-normality; at (0,0,-2) the (e1, d_z) component
        # reaches 0.5, frozen here against the 1e-3 threshold
        m = build_kmu_chart_model(KmuChartParams())
        best = 0.0
        units = [np.array([1.0, 0, 0]), np.array([0.0, 1, 0]),
                 np.array([0.0, 0, 1])]
        for i, x in enumerate(units):
            for y in units[i + 1:]:
                n = nijenhuis(m, np.array([[0.0, 0.0, -2.0]]), x, y)
                best = max(best, float(np.max(np.abs(n))))
        assert best > 1e-3
        assert best == pytest.approx(0.5, abs=1e-6)


# a point off the chart: z = -0.5 leaves z < -1, and t = 0.5 the integrated
# t-range [-0.25, 0.25]; the model's ``at`` refuses both, so every reader of
# the model fails alike rather than in the expression or the trajectory
@pytest.mark.parametrize("model,point", [
    (build_kmu_chart_model(KmuChartParams(mu="1")), [0.5, 0.5, -0.5]),
    (build_darboux_model(DarbouxParams("kmu", "1", (-0.25, 0.25))),
     [0.5, 0.5, 0.5]),
], ids=["kmu-chart", "kmu-darboux"])
@pytest.mark.parametrize("reader", [
    Probe, structure_residuals, infer_k_mu,
    lambda m, pts: nijenhuis(m, pts, [1.0, 0, 0], [0, 1.0, 0]),
], ids=["Probe", "structure_residuals", "infer_k_mu", "nijenhuis"])
def test_off_domain_point_raises_boundary_error(model, point, reader):
    with pytest.raises(BoundaryError, match="outside chart domain"):
        reader(model, np.array([point]))
