"""Identity checking: reports, applicability, nullity, k/mu recovery."""

import gc
import weakref

import numpy as np
import pytest

from kenmotsu3.fields import (
    DiffScheme,
    ScalarField,
    Tensor11Field,
    VectorField,
    coordinate_derivatives,
)
from kenmotsu3.identities import (
    IDENTITIES,
    PROFILES,
    Probe,
    SamplePlan,
    applicable_identities,
    check_identity,
    check_suite,
    infer_k_mu,
    nullity_residual,
)
from kenmotsu3.models import (
    DarbouxParams,
    KmuChartParams,
    KmupChartParams,
    build_darboux_model,
    build_kenmotsu_baseline,
    build_kmu_chart_model,
    build_kmu_prime_chart_model,
)
from kenmotsu3.structure import compute_h, eigenframe, h_field

PLAN = SamplePlan(grid=3, rand_pairs=3, seed=21)


@pytest.fixture(scope="module")
def baseline():
    return build_kenmotsu_baseline(1.0)


@pytest.fixture(scope="module")
def kmu_chart():
    return build_kmu_chart_model(KmuChartParams(mu="1"))


@pytest.fixture(scope="module")
def kmup_chart():
    return build_kmu_prime_chart_model(KmupChartParams(mu="0"))


@pytest.fixture(scope="module")
def kmu_darboux():
    # t in [-0.25, 0.25]: far enough from the backward blow-up that every
    # default tolerance (incl. NH at 1e-6, BSQ at 1e-8) is met; the [-1,1]
    # behaviour is exercised by the acceptance suite
    return build_darboux_model(DarbouxParams("kmu", "1", (-0.25, 0.25)))


class TestSamplePlan:
    def test_deterministic(self, kmu_chart):
        a = SamplePlan(grid=4, seed=7).points(kmu_chart)
        b = SamplePlan(grid=4, seed=7).points(kmu_chart)
        assert np.array_equal(a, b)

    def test_grid_inside_domain(self, kmu_chart):
        pts = PLAN.points(kmu_chart)
        assert pts.shape == (27, 3)
        assert np.all(pts[:, 2] < -1.0)

    def test_darboux_t_axis_snaps_to_nodes(self, kmu_darboux):
        pts = SamplePlan(grid=7, seed=0).points(kmu_darboux)
        traj = kmu_darboux.trajectory
        pos = (pts[:, 2] - traj.t_min) / traj.step
        assert np.max(np.abs(pos - np.round(pos))) < 1e-9

    def test_bad_box_rejected(self, kmu_chart):
        with pytest.raises(ValueError):
            SamplePlan(box=((0, 1), (0, 1), (-2, 0))).points(kmu_chart)


class TestReports:
    def test_pass_report_fields(self, baseline):
        rep = check_identity(baseline, "NABLA_XI", PLAN)
        assert rep.verdict == "pass"
        assert rep.residual <= rep.tolerance == PROFILES["fd1"]
        assert rep.max_point is not None and len(rep.max_point) == 3
        assert rep.samples == 27
        assert "xi" in rep.formula

    def test_not_applicable_distinct(self, kmu_chart):
        rep = check_identity(kmu_chart, "CONN_KMUP", PLAN)
        assert rep.verdict == "not-applicable"
        assert np.isnan(rep.residual)
        rep2 = check_identity(kmu_chart, "BSQ", PLAN)
        assert rep2.verdict == "not-applicable"

    def test_unknown_identity(self, baseline):
        with pytest.raises(KeyError):
            check_identity(baseline, "NOPE", PLAN)

    def test_tolerance_override(self, baseline):
        rep = check_identity(baseline, "NABLA_XI", PLAN, tolerance=1e-30)
        assert rep.verdict == "fail"

    def test_applicability_lists(self, baseline, kmu_chart, kmup_chart,
                                 kmu_darboux):
        assert "NH" in applicable_identities(baseline)
        assert "CONN_KMU" not in applicable_identities(baseline)  # h = 0
        assert "CONN_KMU" in applicable_identities(kmu_chart)
        assert "NHP" in applicable_identities(kmup_chart)
        assert "BSQ" in applicable_identities(kmu_darboux)
        assert "CODAZZI_HP" in applicable_identities(kmu_chart)  # both variants


class TestSuites:
    def test_baseline_all_pass(self, baseline):
        reports = check_suite(baseline, "all", PLAN)
        bad = [r for r in reports if r.verdict == "fail"]
        assert not bad, [(r.id, r.residual) for r in bad]

    def test_kmu_chart_all_pass(self, kmu_chart):
        reports = check_suite(kmu_chart, "all", PLAN)
        bad = [r for r in reports if r.verdict == "fail"]
        assert not bad, [(r.id, r.residual) for r in bad]
        by_id = {r.id: r for r in reports}
        assert by_id["H2"].residual <= 1e-8  # algebraic in the computed h

    def test_kmup_chart_all_pass(self, kmup_chart):
        reports = check_suite(kmup_chart, "all", PLAN)
        bad = [r for r in reports if r.verdict == "fail"]
        assert not bad, [(r.id, r.residual) for r in bad]

    def test_darboux_moderate_interval_all_pass(self, kmu_darboux):
        reports = check_suite(kmu_darboux, "all", PLAN)
        bad = [r for r in reports if r.verdict == "fail"]
        assert not bad, [(r.id, r.residual) for r in bad]

    def test_profile_override_forces_failures(self, kmu_chart):
        reports = check_suite(kmu_chart, ["QXI", "NULL_KMU"], PLAN,
                              profile="strict")
        assert all(r.tolerance == PROFILES["strict"] for r in reports)
        assert any(r.verdict == "fail" for r in reports)


class TestNullity:
    def test_baseline_constant_curvature_oracle(self, baseline):
        # R(X,Y)xi = -(eta(Y)X - eta(X)Y) for the curvature -1 oracle,
        # i.e. the h-nullity condition with k = -1, mu = 0
        rep = nullity_residual(baseline, "h", PLAN)
        assert rep.verdict == "pass"
        assert rep.residual <= 5e-5

    def test_kmu_chart_k_equals_z(self, kmu_chart):
        rep = nullity_residual(kmu_chart, plan=PLAN)
        assert rep.id == "NULL_KMU"
        assert rep.residual <= 5e-5

    def test_kmup_chart_k_equals_z(self, kmup_chart):
        rep = nullity_residual(kmup_chart, plan=PLAN)
        assert rep.id == "NULL_KMUP"
        assert rep.residual <= 5e-5


class TestInferKMu:
    def test_darboux_at_zero(self, kmu_darboux):
        k, mu, ok = infer_k_mu(kmu_darboux, np.array([0.0, 0.0, 0.0]))
        assert ok
        assert k == pytest.approx(-2.0, abs=5e-5)
        assert mu == pytest.approx(1.0, abs=5e-5)

    def test_baseline_mu_indeterminate(self, baseline):
        k, mu, ok = infer_k_mu(baseline, np.array([0.1, 0.2, 0.0]))
        assert not ok
        assert np.isnan(mu)
        assert k == pytest.approx(-1.0, abs=5e-5)

    def test_kmup_chart_at_z(self, kmup_chart):
        k, mu, ok = infer_k_mu(kmup_chart, np.array([0.0, 0.0, -2.0]))
        assert ok
        assert k == pytest.approx(-2.0, abs=5e-5)
        assert mu == pytest.approx(0.0, abs=5e-5)

    def test_matches_nominal_on_grid(self, kmu_chart):
        pts = PLAN.points(kmu_chart)
        k, mu, ok = infer_k_mu(kmu_chart, pts)
        assert np.all(ok)
        assert np.max(np.abs(k - kmu_chart.k_nom(pts))) <= 5e-5
        assert np.max(np.abs(mu - kmu_chart.mu_nom(pts))) <= 5e-5


class TestScalarLaws:
    def test_dlam_xi_on_variant_h(self, kmu_chart):
        # dlam(xi) = -2 lam is folded into the NH residual
        rep = check_identity(kmu_chart, "NH", PLAN)
        assert rep.verdict == "pass"

    def test_dlam_xi_on_variant_hp(self, kmup_chart):
        rep = check_identity(kmup_chart, "NHP", PLAN)
        assert rep.verdict == "pass"


class TestGradIdentity:
    def test_variable_mu(self):
        model = build_kmu_chart_model(KmuChartParams(mu="z+1"))
        rep = check_identity(model, "GRAD", PLAN)
        assert rep.verdict == "pass"


class TestFrameIndependence:
    def test_trace_identities_on_two_frames(self, kmu_chart):
        # the residual functions already maximize over the adapted frame and
        # a random orthonormal frame; passing means both frames agree
        for name in ("TR_H", "TR_HP", "TR_PHI"):
            rep = check_identity(kmu_chart, name, PLAN)
            assert rep.verdict == "pass", (name, rep.residual)


class TestStackedPartials:
    """One stacked field per FD-backed operator gives, bit for bit, the
    partials of the separate per-quantity fields."""

    @pytest.fixture(params=["kmu_chart", "kmup_darboux"])
    def probe(self, request):
        if request.param == "kmu_chart":
            model = request.getfixturevalue("kmu_chart")
        else:
            model = build_darboux_model(
                DarbouxParams("kmup", "1", (-0.25, 0.25)))
        return Probe(model, PLAN.points(model), DiffScheme(),
                     PLAN.rand_pairs, PLAN.seed)

    @staticmethod
    def _partials(probe, field):
        return coordinate_derivatives(field, probe.pts, probe.scheme)

    @staticmethod
    def _field(probe, cls, fn):
        model = probe.model
        return cls(fn, model.domain, axis_quanta=model.g.axis_quanta)

    def test_h_hp_b(self, probe):
        m, scheme = probe.model, probe.scheme
        b_field = self._field(probe, Tensor11Field,
                              lambda q: m.phi(q) @ compute_h(m, q, scheme))
        assert np.array_equal(probe.dh, self._partials(probe, h_field(m, scheme)))
        assert np.array_equal(probe.dhp, self._partials(
            probe, h_field(m, scheme, prime=True)))
        assert np.array_equal(probe.db, self._partials(probe, b_field))

    def test_eigenframe(self, probe):
        m, scheme = probe.model, probe.scheme

        def part(cls, attr):
            return self._partials(probe, self._field(
                probe, cls, lambda q: getattr(eigenframe(m, q, scheme), attr)))

        dx, dpx, dlam = probe.d_eigen
        assert np.array_equal(dx, part(VectorField, "x"))
        assert np.array_equal(dpx, part(VectorField, "phi_x"))
        assert np.array_equal(dlam, part(ScalarField, "lam"))


def test_probe_freed_without_cyclic_gc(kmu_chart):
    # a cached field whose function holds the Probe would keep it (and its
    # curvature and partials) alive until the cyclic collector runs
    gc.disable()
    try:
        probe = Probe(kmu_chart, PLAN.points(kmu_chart), DiffScheme())
        probe.phi2_field
        ref = weakref.ref(probe)
        del probe
        assert ref() is None
    finally:
        gc.enable()


class TestConvergence:
    def test_fd_halving_on_curvature_identity(self, kmu_chart):
        coarse = check_identity(kmu_chart, "NULL_KMU", PLAN, DiffScheme(2e-3))
        fine = check_identity(kmu_chart, "NULL_KMU", PLAN, DiffScheme(1e-3))
        assert coarse.residual / fine.residual >= 8.0


def test_registry_complete():
    expected = {
        "NABLA_XI", "AK_DETA", "AK_DPHI", "KLEAVES", "CURV1", "L_ID", "CURV2",
        "CODAZZI_HP", "H2", "QXI", "NH", "NHP", "LIE1", "LIE2", "TR_HP",
        "TR_PHI", "TR_H", "GRAD", "RICCI_FORM", "NULL_KMU", "NULL_KMUP",
        "CONN_KMU", "CONN_KMUP", "FLAT_LEAF", "WEYL3", "DK_ETA", "BSQ",
        "PHI12",
    }
    assert set(IDENTITIES) == expected
    for spec in IDENTITIES.values():
        assert spec.profile in (*PROFILES, "custom")
        assert spec.tol() > 0
