"""Identity checking: reports, applicability, nullity, k/mu recovery."""

import copy
import dataclasses
import gc
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import random_witness as witness
import variant_reference
from fd_reference import derivatives, model_axes, model_metric, riemann
from kenmotsu3 import exprs, fields, identities, ode
from kenmotsu3.fields import ArrayField
from kenmotsu3.geometry import (
    christoffel_partials,
    levi_civita,
    metric_factors,
)
from kenmotsu3.identities import (
    IDENTITIES,
    PROFILES,
    Probe,
    SamplePlan,
    _codazzi_hp,
    _curv1,
    _curv2_tensor,
    _dk_eta,
    _frame_norm,
    _frobenius,
    _kleaves,
    _nullity,
    _weyl3_tensor,
    check_identity,
    check_suite,
    infer_k_mu,
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
from kenmotsu3.structure import lie_derivative
from structure_reference import NULLITY, g_norm, jet

PLAN = SamplePlan(grid=3)


def _plan_probe(model, plan):
    """One Probe over the whole of ``plan``."""
    return Probe(model, plan.points(model))


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


@pytest.fixture(scope="module")
def kmup_darboux():
    return build_darboux_model(DarbouxParams("kmup", "1", (-0.25, 0.25)))


class TestSamplePlan:
    def test_deterministic(self, kmu_chart):
        a = SamplePlan(grid=4).points(kmu_chart)
        b = SamplePlan(grid=4).points(kmu_chart)
        assert np.array_equal(a, b)

    def test_grid_inside_domain(self, kmu_chart):
        pts = PLAN.points(kmu_chart)
        assert pts.shape == (27, 3)
        assert np.all(pts[:, 2] < -1.0)

    def test_darboux_default_box_is_the_integrated_range(self):
        # the requested range's ends round to whole steps: the default box
        # is the realized range, which the plan samples as it is
        model = build_darboux_model(DarbouxParams("kmu", "1", (-0.25, 0.25),
                                                  3e-3))
        traj = model.trajectory
        assert (traj.t_min, traj.t_max) == (-0.249, 0.249)
        assert model.default_box[2] == (traj.t_min, traj.t_max)
        pts = SamplePlan(grid=3).points(model)
        assert set(pts[:, 2]) == {traj.t_min, 0.0, traj.t_max}

    def test_darboux_suite_passes_off_the_nodes(self):
        # the plan samples a Darboux box as it is, and one partial Magnus
        # step serves a time between the nodes as a node serves: at kmu mu
        # = 1 with every time 0.37 step past a node, every identity passes,
        # BSQ at 1.5e-10 against 1e-8 (a cubic Hermite on the nodes and
        # their slopes reads 3.8e-8 there)
        model = build_darboux_model(DarbouxParams("kmu", "1", (-1.0, 1.0)))
        step = model.trajectory.step
        box = ((0, 1), (0, 1), (-0.9 + 0.37 * step, 0.9 + 0.37 * step))
        reports = check_suite(model, "all", SamplePlan(grid=3, box=box))
        assert np.allclose([r.max_point[2] / step % 1 for r in reports
                            if r.max_point], 0.37)
        assert all(r.verdict in ("pass", "not-applicable") for r in reports)

    def test_bad_box_rejected(self, kmu_chart, kmu_darboux):
        with pytest.raises(ValueError):
            SamplePlan(box=((0, 1), (0, 1), (-2, 0))).points(kmu_chart)
        # a Darboux t-axis past the integrated range is not clamped onto it,
        # even by less than half a step
        half = 0.5 * kmu_darboux.trajectory.step
        for t_box in ((-2, 2), (-0.25, 0.3), (-0.3, 0.25),
                      (-0.25, 0.25 + 0.1 * half)):
            with pytest.raises(ValueError, match="leaves the chart domain"):
                SamplePlan(box=((0, 1), (0, 1), t_box)).points(kmu_darboux)


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
        with pytest.raises(ValueError, match="unknown identity 'NOPE'"):
            check_identity(baseline, "NOPE", PLAN)

    @pytest.mark.parametrize("identities,tolerances,message", [
        ([], None, "names no identity"),
        (["NABLA_XI", "NABLA_XI"], None, "'NABLA_XI' is named twice"),
        (["H2"], {"NOPE": 1.0}, "tolerance for unknown identity 'NOPE'"),
        (["H2"], {"H2": -1.0}, "tolerance of H2 must be finite and >= 0"),
        (["H2"], {"H2": float("nan")}, "must be finite and >= 0, got nan"),
        ("all", {"H2": float("inf")}, "must be finite and >= 0, got inf"),
        ("NABLA_XI", None, "must be a list of ids or 'all', got the string "
                           "'NABLA_XI'; check_identity checks one"),
        ("", None, "got the string ''")])
    def test_bad_request_rejected(self, baseline, identities, tolerances,
                                  message):
        # a suite that checks nothing, reports an identity twice, ignores a
        # tolerance or writes a NaN one into its report is bad input, as is
        # a string, whose characters are not identity ids
        with pytest.raises(ValueError, match=message):
            check_suite(baseline, identities, PLAN, tolerances)

    def test_tolerance_override(self, kmu_chart):
        # the baseline's residuals are exact zeros now, which pass any bound
        rep = check_identity(kmu_chart, "NABLA_XI", PLAN, tolerance=1e-30)
        assert rep.verdict == "fail"

    def test_applicability_lists(self, baseline, kmu_chart, kmup_chart,
                                 kmu_darboux):
        assert baseline.family in IDENTITIES["NH"].families
        assert baseline.family not in IDENTITIES["CONN_KMU"].families  # h = 0
        assert kmu_chart.family in IDENTITIES["CONN_KMU"].families
        assert kmup_chart.family in IDENTITIES["NHP"].families
        assert kmu_darboux.family in IDENTITIES["BSQ"].families
        assert kmu_chart.family in IDENTITIES["CODAZZI_HP"].families  # both variants


# the identities each family quantifies over, in registry order: the kmu
# families run NH, LIE1 and NULL_KMU, the kmup ones NHP, LIE2, NULL_KMUP
# and CONN_KMUP, the kmu families but the baseline (h = 0) CONN_KMU, and the
# Darboux families BSQ and PHI12
_HEAD = ["NABLA_XI", "AK_DETA", "AK_DPHI", "KLEAVES", "CURV1", "L_ID",
         "CURV2", "CODAZZI_HP", "H2", "QXI"]
_TRACES = ["TR_HP", "TR_PHI", "TR_H", "GRAD", "RICCI_FORM"]
_TAIL = ["FLAT_LEAF", "WEYL3", "DK_ETA"]
APPLICABLE = {
    "baseline": _HEAD + ["NH", "LIE1"] + _TRACES + ["NULL_KMU"] + _TAIL,
    "kmu_chart": (_HEAD + ["NH", "LIE1"] + _TRACES + ["NULL_KMU", "CONN_KMU"]
                  + _TAIL),
    "kmup_chart": (_HEAD + ["NHP", "LIE2"] + _TRACES
                   + ["NULL_KMUP", "CONN_KMUP"] + _TAIL),
    "kmu_darboux": (_HEAD + ["NH", "LIE1"] + _TRACES + ["NULL_KMU", "CONN_KMU"]
                    + _TAIL + ["BSQ", "PHI12"]),
    "kmup_darboux": (_HEAD + ["NHP", "LIE2"] + _TRACES
                     + ["NULL_KMUP", "CONN_KMUP"] + _TAIL + ["BSQ", "PHI12"]),
}


@pytest.mark.parametrize("fixture", APPLICABLE)
def test_applicability_matrix(request, fixture):
    model = request.getfixturevalue(fixture)
    assert [ident for ident, spec in IDENTITIES.items()
            if model.family in spec.families] == APPLICABLE[fixture]


def test_suite_of_inapplicable_identities_evaluates_nothing(kmu_chart):
    # two identities kmu-chart does not quantify over: not-applicable
    # reports, with no block of the grid-9 plan evaluated
    calls = []

    def at(pts):
        calls.append(len(pts))
        return kmu_chart.at(pts)

    reports = check_suite(dataclasses.replace(kmu_chart, at=at),
                          ["NHP", "CONN_KMUP"], SamplePlan(grid=9))
    assert [(r.id, r.verdict, r.samples) for r in reports] == [
        ("NHP", "not-applicable", 0), ("CONN_KMUP", "not-applicable", 0)]
    assert calls == []


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


class TestNullity:
    def test_baseline_constant_curvature_oracle(self, baseline):
        # R(X,Y)xi = -(eta(Y)X - eta(X)Y) for the curvature -1 oracle,
        # i.e. the h-nullity condition with k = -1, mu = 0
        rep = check_identity(baseline, NULLITY[baseline.variant], PLAN)
        assert rep.verdict == "pass"
        assert rep.residual <= 5e-5

    def test_kmu_chart_k_equals_z(self, kmu_chart):
        rep = check_identity(kmu_chart, NULLITY[kmu_chart.variant], PLAN)
        assert rep.id == "NULL_KMU"
        assert rep.residual <= 5e-5

    def test_kmup_chart_k_equals_z(self, kmup_chart):
        rep = check_identity(kmup_chart, NULLITY[kmup_chart.variant], PLAN)
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
        # the traces contract with g^-1, so they depend on no frame at all
        for name in ("TR_H", "TR_HP", "TR_PHI"):
            rep = check_identity(kmu_chart, name, PLAN)
            assert rep.verdict == "pass", (name, rep.residual)


def _eigen_reference(g, phi, t_op):
    """(lam, X, phi X) by Probe.eigen's recipe from its own factors of g:
    the top eigenpair of T's block on the first two Cholesky rows."""
    lt, e = metric_factors(g)
    m = lt[:, :2] @ t_op @ e[:, :2].transpose(0, 2, 1)
    evals, evecs = np.linalg.eigh(0.5 * (m + m.transpose(0, 2, 1)))
    lam = evals[:, 1]
    x = evecs[:, 0, 1, None] * e[:, 0] + evecs[:, 1, 1, None] * e[:, 1]
    degenerate = lam < 1e-10
    lam = np.where(degenerate, 0.0, lam)
    x = np.where(degenerate[:, None], e[:, 0], x)
    lead = x[np.arange(len(x)), np.argmax(np.abs(x) > 1e-8, axis=1)]
    x = np.where((lead < 0)[:, None], -x, x)
    return lam, x, np.einsum("nij,nj->ni", phi, x)


def _stack_reference(m, q):
    """The Probe's quantities at ``q``, each composed on its own from the
    model's fields, ``lie_derivative``, ``metric_factors`` and ``levi_civita``."""
    g, phi = m.g(q), m.phi(q)
    h = 0.5 * lie_derivative(m.xi(q), jet(m, "xi", 1)(q), phi, jet(m, "phi", 1)(q))
    t_op = h @ phi if m.variant == "hp" else h
    lam, x, phi_x = _eigen_reference(g, phi, t_op)
    gamma, ginv = levi_civita(g, jet(m, "g", 1)(q))
    return {"h": h, "hp": h @ phi, "b": phi @ h, "x": x, "phi_x": phi_x,
            "lam": lam, "phi2": np.einsum("nis,nsj->nij", g, phi),
            "gamma": gamma, "ginv": ginv}


# 5-point FD at h_rel 1e-3 of a quantity composed from the fields errs by
# its 4th-order truncation: against the exact partials and curvature,
# measured at most 3.1e-9 of max(1, max |exact|) (d h on kmup-darboux, where
# the stencils at the ends of [-0.25, 0.25] are one-sided)
FD_BOUND = 1e-8


def _near_fd(fd, exact, name=""):
    assert np.abs(fd - exact).max() <= FD_BOUND * max(1.0, np.abs(exact).max()), name


class TestStackedPartials:
    """The Probe's exact partials of h, h', B, X and Gamma (once a stacked
    FD pass) and its curvature, against FD of the same quantities composed
    on their own from the model's fields."""

    # kmu-darboux is the one fixture whose leaf metric is not diagonal: there
    # the Cholesky rows that X is built on are not the coordinate directions
    @pytest.fixture(params=["kmu_chart", "kmup_darboux", "kmu_darboux"])
    def probe(self, request):
        model = request.getfixturevalue(request.param)
        return _plan_probe(model, PLAN)

    @staticmethod
    def _reference_partials(probe, name):
        # FD along the model's axes only: along an axis a t-only quantity
        # does not vary on, FD reads rounding noise, not zeros
        m = probe.model
        return derivatives(lambda q: _stack_reference(m, q)[name], m.domain,
                           probe.pts, axes=model_axes(m))

    def _near_partials(self, probe, **exact):
        for name, value in exact.items():
            _near_fd(self._reference_partials(probe, name), value, name)

    def test_h_hp_b(self, probe):
        self._near_partials(probe, h=probe.dh, hp=probe.dhp, b=probe.db)

    def test_eigenframe(self, probe):
        self._near_partials(probe, x=probe.dx)
        # nabla(phi X) by the product rule, against FD of phi X, along the
        # frame (xi, X, phi X)
        d_phi_x = self._reference_partials(probe, "phi_x")
        ref = d_phi_x + np.einsum("niks,ns->nki", probe.gamma, probe.eigen.phi_x)
        ref = np.einsum("nak,nki->nai", probe.frame, ref)
        assert np.max(np.abs(probe.frame_nabla[:, :, 2] - ref)) <= 1e-8

    def test_two_form_and_connection(self, probe):
        self._near_partials(probe, gamma=christoffel_partials(
            probe.gamma, probe.ginv, probe.dg, jet(probe.model, "g", 2)(probe.pts)))
        # nabla Phi = g nabla phi, against FD of Phi = g phi
        d_phi2 = self._reference_partials(probe, "phi2")
        ref = (d_phi2 - np.einsum("nski,nsj->nkij", probe.gamma, probe.phi2)
               - np.einsum("nskj,nis->nkij", probe.gamma, probe.phi2))
        assert np.max(np.abs(probe.nabla_phi2 - ref)) <= 1e-8

    def test_point_values(self, probe):
        # the Probe derives these from one evaluation of phi, xi, eta, g and
        # their partials; the reference evaluates each on its own
        ref = _stack_reference(probe.model, probe.pts)
        for name, value in (("h", probe.h), ("hp", probe.hp),
                            ("b", probe.bmat), ("phi2", probe.phi2),
                            ("gamma", probe.gamma)):
            assert np.array_equal(value, ref[name]), name
        for name in ("lam", "x", "phi_x"):
            assert np.array_equal(getattr(probe.eigen, name), ref[name]), name
        assert np.array_equal(probe.ginv, ref["ginv"])
        ginv = np.linalg.inv(probe.model.g(probe.pts))
        assert np.array_equal(probe.ginv, 0.5 * (ginv + ginv.transpose(0, 2, 1)))

    def test_curvature_equals_riemann(self, probe):
        # riemann differentiates Gamma by FD: within its truncation of the
        # exact curvature (measured at most 2.5e-9 relative, kmup-darboux)
        # (Gamma and g^-1 are compared bit for bit in test_point_values)
        m = probe.model
        ref = riemann(model_metric(m), m.domain, probe.pts, axes=model_axes(m))
        for name in ("riemann", "q", "scalar"):
            _near_fd(getattr(ref, name), getattr(probe.curv, name), name)


@pytest.mark.parametrize("fixture", ["kmu_chart", "kmup_chart", "kmu_darboux",
                                     "kmup_darboux"])
def test_d_phi_has_no_truncation(request, fixture):
    # d Phi is the alternation of the exact nabla Phi = g nabla phi: rounding
    # alone is left (FD of Phi left 1.7e-13 to 1.6e-12 here)
    model = request.getfixturevalue(fixture)
    assert check_identity(model, "AK_DPHI", PLAN).residual <= 1e-14


def _ref_conn(p, variant):
    """The eight connection formulas of each family, written out."""
    nab = p.frame_nabla  # nabla_{E_a} E_b at [:, a, b], E = (xi, X, phi X)
    xi, x, px, lam = p.xi, p.eigen.x, p.eigen.phi_x, p.eigen.lam[:, None]
    il2 = (0.5 / np.maximum(p.eigen.lam, 1e-300))[:, None]
    x_lam = np.einsum("na,na->n", x, p.dlam)[:, None]
    px_lam = np.einsum("na,na->n", px, p.dlam)[:, None]
    if variant == "h":
        mu2 = (0.5 * p.mu)[:, None]
        rel = [
            nab[:, 1, 0] - (x - lam * px),
            nab[:, 2, 0] - (px - lam * x),
            nab[:, 2, 2] - (x_lam * il2 * x - xi),
            nab[:, 1, 1] - (px_lam * il2 * px - xi),
            nab[:, 1, 2] - (lam * xi - px_lam * il2 * x),
            nab[:, 2, 1] - (lam * xi - x_lam * il2 * px),
            nab[:, 0, 1] + mu2 * px,
            nab[:, 0, 2] - mu2 * x,
        ]
    else:
        rel = [
            nab[:, 1, 0] - (1.0 + lam) * x,
            nab[:, 2, 0] - (1.0 - lam) * px,
            nab[:, 2, 2] - (x_lam * il2 * x - (1.0 - lam) * xi),
            nab[:, 1, 1] - (px_lam * il2 * px - (1.0 + lam) * xi),
            nab[:, 1, 2] + px_lam * il2 * x,
            nab[:, 2, 1] + x_lam * il2 * px,
            nab[:, 0, 1],
            nab[:, 0, 2],
        ]
    return np.max([p.norm(v, upper=0) for v in rel], axis=0)


@pytest.mark.parametrize("fixture,ident", [
    ("kmu_chart", "CONN_KMU"), ("kmu_darboux", "CONN_KMU"),
    ("kmup_chart", "CONN_KMUP"), ("kmup_darboux", "CONN_KMUP")])
def test_connection_tables_match_written_formulas(request, fixture, ident):
    # lam varies along xi alone, so X(lam) and phi X(lam) read 0 here: random
    # partials of lam stand in, and each pair (a, b) in turn is shifted to
    # dominate the maximum, so a dropped pair or a wrong coefficient shows
    model = request.getfixturevalue(fixture)
    p = _plan_probe(model, PLAN)
    p.dlam = np.random.default_rng(5).standard_normal((p.n, 3))
    nabla = p.frame_nabla
    for a, b in np.ndindex(3, 3):
        p.frame_nabla = nabla.copy()
        p.frame_nabla[:, a, b] += 1e3 * p.xi
        assert np.array_equal(IDENTITIES[ident].fn(p),
                              _ref_conn(p, model.variant)), (a, b)


# Reference implementations: each contraction with the vectors as one
# multi-operand einsum, and the residual functions of the staged identities
# written with them.

def _ref_ip(u, g, v):
    return np.einsum("nai,nij,nbj->nab", u, g, v)


def _ref_ops(op, vecs):
    return np.einsum("nij,naj->nai", op, vecs)


def _ref_apply(r, x, y, z):
    return np.einsum("nijkl,nk,nl,nj->ni", r, x, y, z)


def _ref_riemann_triples(r, vecs):
    return np.einsum("nijkl,nak,nbl,ncj->nabci", r, vecs, vecs, vecs)


def _ref_r_xi_pairs(r, vecs, xi):
    return np.einsum("nijkl,nak,nbl,nj->nabi", r, vecs, vecs, xi)


def _ref_pairs(t, xs, ys):
    return np.einsum("nkij,nak,nbj->nabi", t, xs, ys)


def _ref_quad(ga, xv, yv, zv):
    return np.einsum("nsjl,nal,nbj,ncs->nabc", ga, xv, yv, zv)


def _ref_nabla_phi2_term(nabla_phi2, h_vecs, vecs):
    return np.einsum("nkij,nak,nbi,ncj->nabc", nabla_phi2, h_vecs, vecs, vecs)


def _curv2_operands(p, vecs):
    """(ga, vecs, phi vecs, h vecs) as CURV2 builds them."""
    a = np.einsum("nijkl,nk->nijl", p.curv.riemann, p.xi)
    ga = np.einsum("nsi,nijl->nsjl", p.g, a)
    return ga, vecs, _ref_ops(p.phi, vecs), _ref_ops(p.h, vecs)


def _curv2_inputs(p):
    """The Probe's operands of ``_curv2_tensor``."""
    return (p.curv.riemann, p.xi, p.g, p.phi, p.h, p.bmat, p.eta,
            p.nabla_phi2)


def _ref_curv2_lhs(ga, vecs, phi_vecs):
    return (_ref_quad(ga, vecs, vecs, vecs)
            - _ref_quad(ga, vecs, phi_vecs, phi_vecs)
            + _ref_quad(ga, phi_vecs, vecs, phi_vecs)
            + _ref_quad(ga, phi_vecs, phi_vecs, vecs))


def _ref_curv2_tensor(p, vecs, absolute=False):
    """CURV2's left-hand side minus its right-hand side on ``vecs`` in each
    slot, each term by a single call; with ``absolute``, the sum of the
    absolute products behind each entry: the scale of its rounding."""
    ga, vecs, phi_vecs, h_vecs = _curv2_operands(p, vecs)
    m_vecs = vecs - _ref_ops(p.bmat, vecs)
    ops = (ga, vecs, phi_vecs, h_vecs, m_vecs, p.eta, p.g, p.nabla_phi2)
    ga, vecs, phi_vecs, h_vecs, m_vecs, eta, g, nabla_phi2 = (
        map(np.abs, ops) if absolute else ops)
    eta_vecs = np.einsum("ni,nai->na", eta, vecs)
    gzm = _ref_ip(vecs, g, m_vecs)
    nabla = 2.0 * _ref_nabla_phi2_term(nabla_phi2, h_vecs, vecs)
    eta_y = 2.0 * np.einsum("nb,nca->nabc", eta_vecs, gzm)
    eta_z = 2.0 * np.einsum("nc,nba->nabc", eta_vecs, gzm)
    if absolute:
        lhs = sum(_ref_quad(ga, x, y, z) for x, y, z in (
            (vecs, vecs, vecs), (vecs, phi_vecs, phi_vecs),
            (phi_vecs, vecs, phi_vecs), (phi_vecs, phi_vecs, vecs)))
        return lhs + nabla + eta_y + eta_z
    return _ref_curv2_lhs(ga, vecs, phi_vecs) - (nabla + eta_y - eta_z)


def _ref_frobenius(vals):
    """Root sum of squares over all but the point axis."""
    return np.sqrt(np.sum(vals.reshape(len(vals), -1) ** 2, axis=1))


def _pair_terms(p, ident):
    """The terms (sign, einsum spec, operands) of a pair identity's residual:
    a tensor [n, k, i, j] with its vectors in slots k and j, or for the
    2-forms AK_DETA and DK_ETA a form [n, i, j]."""
    r_xi = (1, "nijkl,nj->nkil", (p.curv.riemann, p.xi))
    if ident == "KLEAVES":
        ph = p.phi + p.h
        return [(1, "nkij->nkij", (p.nabla_phi,)),
                (-1, "nsk,nsj,ni->nkij", (ph, p.g, p.xi)),
                (1, "nj,nik->nkij", (p.eta, ph))]
    if ident == "CURV1":
        imb = p.eye - p.bmat
        return [r_xi, (-1, "nk,nil->nkil", (p.eta, imb)),
                (1, "nl,nik->nkil", (p.eta, imb)),
                (-1, "nlik->nkil", (p.nabla_b,)), (1, "nkil->nkil", (p.nabla_b,))]
    if ident in ("NULL_KMU", "NULL_KMUP"):
        t_op = p.h if ident == "NULL_KMU" else p.hp
        return [r_xi, (-1, "n,nj,nik->nkij", (p.k, p.eta, p.eye)),
                (1, "n,nk,nij->nkij", (p.k, p.eta, p.eye)),
                (-1, "n,nj,nik->nkij", (p.mu, p.eta, t_op)),
                (1, "n,nk,nij->nkij", (p.mu, p.eta, t_op))]
    if ident == "CODAZZI_HP":
        return [(1, "nkij->nkij", (p.nabla_hp,)), (-1, "njik->nkij", (p.nabla_hp,))]
    if ident == "AK_DETA":
        return [(1, "nij->nij", (p.deta,))]
    assert ident == "DK_ETA"
    return [(1, "ni,nj->nij", (p.dk, p.eta)), (-1, "nj,ni->nij", (p.dk, p.eta))]


PAIR_IDENTITIES = ("KLEAVES", "CURV1", "NULL_KMU", "NULL_KMUP", "CODAZZI_HP",
                   "AK_DETA", "DK_ETA")


def _ref_pair_slots(p, ident, vecs, absolute=False):
    """|residual| (a g-length, or the 2-form's absolute value) of a pair
    identity on ``vecs`` in both slots, (n, a, b), each term by a single
    call; with ``absolute``, the absolute products behind each value, with
    sqrt(g_ii) bounding the metric's part: the scale of their rounding."""
    terms = _pair_terms(p, ident)
    if absolute:
        t = sum(np.einsum(spec, *map(np.abs, ops)) for _, spec, ops in terms)
        vecs = np.abs(vecs)
    else:
        t = sum(sign * np.einsum(spec, *ops) for sign, spec, ops in terms)
    if t.ndim == 3:
        v = np.einsum("nij,nai,nbj->nab", t, vecs, vecs)
        return v if absolute else np.abs(v)
    v = _ref_pairs(t, vecs, vecs)
    if absolute:
        return np.einsum("nabi,ni->nab", v, np.sqrt(np.einsum("nii->ni", p.g)))
    return g_norm(v, p.g[:, None, None])


def _cholesky_frame(p):
    """E = L^{-1} of g = L L^T, the frame every residual tensor is normed
    in, in the Probe's precision."""
    return p.factors[1].astype(p.g.dtype)


def _frame_for(p, ident):
    """The frame an identity is normed in: for CODAZZI_HP, E's first two
    rows, which span ker(eta)."""
    return _cholesky_frame(p)[:, :2] if ident == "CODAZZI_HP" else _cholesky_frame(p)


def _ref_framed(ident):
    """The reference residual of a pair identity: its frame norm."""
    return lambda p: _ref_frobenius(_ref_pair_slots(p, ident, _frame_for(p, ident)))


def _ref_curv2(p):
    return _ref_frobenius(_ref_curv2_tensor(p, _cholesky_frame(p)))


def _ref_flat_leaf(p):
    x, px = p.eigen.x, p.eigen.phi_x
    num = np.einsum("ni,nij,nj->n", _ref_apply(p.curv.riemann, x, px, px),
                    p.g, x)
    xx = np.einsum("ni,nij,nj->n", x, p.g, x)
    pp = np.einsum("ni,nij,nj->n", px, p.g, px)
    xp = np.einsum("ni,nij,nj->n", x, p.g, px)
    return np.abs(num / (xx * pp - xp ** 2) + 1.0 - p.eigen.lam ** 2)


def _split(a):
    """a = hi + lo exactly, each half of a's mantissa (Veltkamp)."""
    c = (2.0 ** -(-(np.finfo(a.dtype).nmant + 1) // 2) + 1.0) * a
    hi = c - (c - a)
    return hi, a - hi


def _two_product(a, b):
    """(p, e) with p the rounded a b and p + e = a b exactly (Dekker)."""
    p = a * b
    (a1, a2), (b1, b2) = _split(a), _split(b)
    return p, a2 * b2 - (((p - a1 * b1) - a2 * b1) - a1 * b2)


def _accurate_sum(terms):
    """The sum of ``terms`` as if in twice the working precision, then
    rounded: cascaded error-free additions (Ogita, Rump and Oishi's Sum2)."""
    s, err = terms[0], 0.0
    for t in terms[1:]:
        x = s + t
        z = x - s
        err = err + ((s - (x - z)) + (t - z))
        s = x
    return s + err


def _ref_weyl3_tensor(p):
    # W^i_jkl = R^i_jkl - g_lj U^i_k + g_kj U^i_l - (gQ)_lj d^i_k + (gQ)_kj d^i_l
    # with U = Q - (Sc/2) I, summed per point from its exact products, so that
    # W is one rounding from its value (in float64 as in long double).
    # Rounding each product put the float64 form 3.3e-10 from long double on
    # kmu-darboux mu=0.858, where the pooled residual was 4.9e-10, and the 2x
    # rule then let a float64 W (5.2e-10) through.
    g, q, d = p.g, p.curv.q, np.eye(3, dtype=p.g.dtype)
    sc2 = 0.5 * p.curv.scalar[:, None, None, None, None]
    g_jl = g.transpose(0, 2, 1)
    g_lj, g_kj = g_jl[:, None, :, None, :], g_jl[:, None, :, :, None]
    d_ik, d_il = d[:, None, :, None], d[:, None, None, :]
    products = [(-1, g_lj, q[:, :, None, :, None]), (1, g_lj, sc2 * d_ik),
                (1, g_kj, q[:, :, None, None, :]), (-1, g_kj, sc2 * d_il)]
    for s in range(3):  # (gQ)_lj = g_ls Q^s_j
        q_sj, g_s = q[:, s, None, :, None, None], g[:, :, s]
        products += [(-1, d_ik * g_s[:, None, None, None, :], q_sj),
                     (1, d_il * g_s[:, None, None, :, None], q_sj)]
    return _accurate_sum([p.curv.riemann] + [sign * x for sign, a, b in products
                                             for x in _two_product(a, b)])


def _ref_weyl3_lengths(p, vecs, absolute=False):
    """g-lengths of W(X_a, X_b) X_c over ``vecs`` in each slot: (n, a, b, c);
    with ``absolute``, those of the absolute products behind each component,
    with sqrt(g_ii) bounding the metric's part: the scale of their rounding."""
    w = _ref_weyl3_tensor(p)
    if absolute:
        v = _ref_riemann_triples(np.abs(w), np.abs(vecs))
        return np.einsum("nabci,ni->nabc", v, np.sqrt(np.einsum("nii->ni", p.g)))
    return g_norm(_ref_riemann_triples(w, vecs), p.g[:, None, None, None, :, :])


def _ref_weyl3(p):
    return _ref_frobenius(_ref_weyl3_lengths(p, _cholesky_frame(p)))


def _ref_slots(p, ident, vecs, absolute=False):
    """|residual| of a frame-normed identity on ``vecs`` in each slot, (n, a,
    b[, c]), by the single-call references; with ``absolute``, the scale of
    their rounding."""
    if ident == "WEYL3":
        return _ref_weyl3_lengths(p, vecs, absolute)
    if ident == "CURV2":
        return np.abs(_ref_curv2_tensor(p, vecs, absolute))
    return _ref_pair_slots(p, ident, vecs, absolute)


def _ref_q_xi(p):
    return np.einsum("nij,nj->ni", p.curv.q, p.xi)


def _ref_trace(p, ident, ginv=None):
    """TR_*: g^{kj} (nabla_k T)^i_j minus its target, the covariant
    differential of T from its values and partials included; ``ginv``
    replaces the Probe's g^-1 in the trace."""
    if ident == "TR_PHI":
        t, dt, target = p.phi, p.dphi, 0.0 * p.xi
    elif ident == "TR_HP":
        t, dt, target = p.hp, p.dhp, _ref_q_xi(p) + 2.0 * p.xi
    else:
        t, dt, target = p.h, p.dh, np.einsum("nij,nj->ni", p.phi, _ref_q_xi(p))
    nabla = (dt + np.einsum("niks,nsj->nkij", p.gamma, t)
             - np.einsum("nskj,nis->nkij", p.gamma, t))
    ginv = p.ginv if ginv is None else ginv
    return g_norm(np.einsum("nkij,njk->ni", nabla, ginv) - target, p.g)


def _inverse_3x3(g):
    """g^-1 by the adjugate, in g's own precision (numpy's linalg has no
    long double)."""
    cof = np.empty_like(g)
    for i, j in np.ndindex(3, 3):
        (a, b), (c, d) = ((i + 1) % 3, (i + 2) % 3), ((j + 1) % 3, (j + 2) % 3)
        cof[:, i, j] = g[:, a, c] * g[:, b, d] - g[:, a, d] * g[:, b, c]
    det = np.einsum("nj,nj->n", g[:, 0], cof[:, 0])
    return cof.transpose(0, 2, 1) / det[:, None, None]


def _ref_op_norm(m, g):
    """The Frobenius norm of a (1,1) tensor in any g-orthonormal frame,
    sqrt(tr(m^T g m g^-1)), with g^-1 from the adjugate, in the inputs'
    precision (long double for the exact value)."""
    gm = np.einsum("nij,njk->nik", g, m)
    sq = np.einsum("nji,njk,nki->n", m, gm, _inverse_3x3(g))
    return np.sqrt(np.maximum(sq, 0.0))


def _ref_nabla_xi(p):
    rhs = p.eye - np.einsum("ni,nk->nik", p.xi, p.eta) - p.bmat
    return _ref_op_norm(p.nabla_xi - rhs, p.g)


def _ref_ricci_form(p):
    a = 0.5 * p.curv.scalar - p.k
    b = 3.0 * p.k - 0.5 * p.curv.scalar
    m = (p.curv.q - a[:, None, None] * p.eye
         - b[:, None, None] * np.einsum("ni,nj->nij", p.xi, p.eta)
         - p.mu[:, None, None] * p.law.t)
    return _ref_op_norm(m, p.g)


REFERENCE_RESIDUALS = {
    "NABLA_XI": _ref_nabla_xi,
    "RICCI_FORM": _ref_ricci_form,
    **{ident: (lambda p, ident=ident: _ref_trace(p, ident))
       for ident in ("TR_HP", "TR_PHI", "TR_H")},
    **{ident: _ref_framed(ident) for ident in PAIR_IDENTITIES},
    "CURV2": _ref_curv2,
    "FLAT_LEAF": _ref_flat_leaf,
    "WEYL3": _ref_weyl3,
}


class _Extended:
    """A Probe whose arrays read as np.longdouble, for the references."""

    def __init__(self, obj):
        self._obj = obj

    def __getattr__(self, name):
        v = getattr(self._obj, name)
        if isinstance(v, np.ndarray):
            return v.astype(np.longdouble)
        if name in ("curv", "eigen"):
            return _Extended(v)
        return v


def _perturbed(p, scale):
    """``p``, or for a nonzero ``scale`` a copy whose Riemann tensor, nabla
    phi, nabla h', d eta and dk carry random perturbations of that size:
    residuals of every frame-normed identity far above rounding, in no
    frame's directions."""
    if not scale:
        return p
    # first, as they pop second partials the copy shares
    inputs = {"riemann": p.curv.riemann, "nabla_phi": p.nabla_phi,
              "nabla_hp": p.nabla_hp, "deta": p.deta, "dk": p.dk}
    rng = np.random.default_rng(7)
    moved = {name: a + scale * rng.standard_normal(a.shape)
             for name, a in inputs.items()}
    out = copy.copy(p)
    for derived in ("r_xi", "nabla_phi2"):
        out.__dict__.pop(derived, None)
    out.curv = dataclasses.replace(p.curv, riemann=moved.pop("riemann"))
    out.__dict__.update(moved)
    return out


def _gram_defect(p, frame):
    """Largest entry of E g E^T - I: how far ``frame`` is from g-orthonormal."""
    return np.max(np.abs(frame @ p.g @ frame.transpose(0, 2, 1)
                         - np.eye(len(frame[0]))), axis=(1, 2))


def _pool_for(p, ident):
    """The witness vectors an identity's pooled maximum ranges over."""
    vecs = witness.pool(p)
    return witness.kernel_pool(p, vecs) if ident == "CODAZZI_HP" else vecs


def _staged_in(p, ident, frame):
    """A frame-normed identity's staged residual normed in ``frame`` (for
    CODAZZI_HP a frame of ker(eta), two vectors)."""
    tensor, upper = {
        "CURV2": (lambda p: _curv2_tensor(*_curv2_inputs(p)), None),
        "WEYL3": (lambda p: _weyl3_tensor(p.curv.riemann, p.g, p.curv.q,
                                          p.curv.scalar), 0),
        "AK_DETA": (lambda p: p.deta, None), "DK_ETA": (_dk_eta, None),
        "KLEAVES": (_kleaves, 1), "CURV1": (_curv1, 1),
        "CODAZZI_HP": (_codazzi_hp, 1),
        "NULL_KMU": (lambda p: _nullity(p, p.h), 1),
        "NULL_KMUP": (lambda p: _nullity(p, p.hp), 1)}[ident]
    return _frame_norm(tensor(p), p.factors[0], frame, upper)


FRAMED = ("WEYL3", "CURV2", *PAIR_IDENTITIES)


def _framed_here(p):
    return [ident for ident in FRAMED
            if p.model.family in IDENTITIES[ident].families]


# kmu-darboux on t in [-1, 1] at two mu values and the sample plan of one
# benchmark sweep (darboux-sweep, seed 1, op 2): there CODAZZI_HP and
# FLAT_LEAF residuals sit at their float64 rounding floor, and summing in
# another order moves them by up to 4e-3 relative
SWEEP_MUS = ("0.74413098010917", "0.8578346147335933")
SWEEP_PLAN = SamplePlan(grid=3)


class TestStagedContractions:
    """Two-operand stages give the single-call einsums' tensors, and their
    frame norms, to rounding, and the identities' residuals and verdicts
    that those gave."""

    @pytest.fixture(scope="class", params=[
        "kmu_chart", "kmup_chart", "kmup_darboux",
        *(f"kmu_darboux_mu{mu}" for mu in SWEEP_MUS)])
    def probe(self, request):
        plan = PLAN
        if request.param.startswith("kmu_darboux_mu"):
            mu = request.param.removeprefix("kmu_darboux_mu")
            model = build_darboux_model(DarbouxParams("kmu", mu, (-1.0, 1.0)))
            plan = SWEEP_PLAN
        else:
            model = request.getfixturevalue(request.param)
        return _plan_probe(model, plan)

    @staticmethod
    def _within(staged, ref, scale):
        assert staged.shape == ref.shape
        assert np.all(np.abs(staged - ref) <= 1e-12 * scale)

    def _same(self, staged, ref_fn, *operands):
        # rtol 1e-12 against the sum of the absolute products behind each
        # entry: the scale of its rounding, also where the products cancel
        self._within(staged, ref_fn(*operands), ref_fn(*map(np.abs, operands)))

    def _same_norm(self, staged, ref_fn, lt, *operands):
        # the staged frame norm against the root sum of squares of the
        # single-call tensor with L^T on its output index: rtol 1e-12 of the
        # same norm of the absolute products, which bounds that of the
        # entries' rounding
        ref, scale = (_ref_frobenius(np.einsum("nmi,n...i->n...m", f, ref_fn(*ops)))
                      for f, ops in ((lt, operands),
                                     (np.abs(lt), map(np.abs, operands))))
        self._within(staged, ref, scale)

    def test_pool_riemann(self, probe):
        p, vecs = probe, witness.pool(probe)
        lt = p.factors[0]
        self._same_norm(_frame_norm(p.curv.riemann, lt, vecs, upper=0),
                        _ref_riemann_triples, lt, p.curv.riemann, vecs)

    def test_curv2_terms(self, probe):
        # the coordinate residual tensor, phi put on its slots by matmuls,
        # against the single-call terms of both sides on the coordinate
        # basis, all in long double, CURV2's sum where g is ill-conditioned:
        # float64 entries differ by their own rounding (0.38 of the scale on
        # kmu_chart).  Contracted with the witness pool, the tensor would
        # add the contraction's rounding, far above the bound on kmup_chart
        # entries of scale near 0; the frame's contraction is _frame_norm's
        p = _Extended(probe)
        basis = np.broadcast_to(np.eye(3, dtype=np.longdouble), (p.n, 3, 3))
        self._within(_curv2_tensor(*_curv2_inputs(p)),
                     _ref_curv2_tensor(p, basis),
                     _ref_curv2_tensor(p, basis, absolute=True))

    def test_nullity_r_xi(self, probe):
        p, vecs = probe, witness.pool(probe)
        lt = p.factors[0]
        self._same_norm(_frame_norm(p.r_xi, lt, vecs, upper=1), _ref_r_xi_pairs,
                        lt, p.curv.riemann, vecs, p.xi)

    def test_pool_pairs(self, probe):
        # the operators KLEAVES, CURV1 and CODAZZI_HP contract
        p, vecs = probe, witness.pool(probe)
        kernel, lt = witness.kernel_pool(p, vecs), p.factors[0]
        for t, xs in ((p.nabla_phi, vecs), (p.r_xi, vecs), (p.nabla_hp, kernel)):
            self._same_norm(_frame_norm(t, lt, xs, upper=1), _ref_pairs,
                            lt, t, xs, xs)

    def test_ip_and_curvature_apply(self, probe):
        p = probe
        x, px = p.eigen.x, p.eigen.phi_x
        self._same(p.curv.apply(x, px, p.xi), _ref_apply,
                   p.curv.riemann, x, px, p.xi)

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                        reason="np.longdouble is no wider than float64")
    def test_residuals_and_verdicts(self, probe):
        # Against the single-call residuals summed in long double on the same
        # float64 inputs, the staged ones are off by at most twice what the
        # float64 single calls are (plus a billionth of the tolerance, for
        # residuals at rounding level): rounding, however far it moves a
        # residual that sits at its rounding floor.
        checked = 0
        for ident, ref_fn in REFERENCE_RESIDUALS.items():
            spec = IDENTITIES[ident]
            if probe.model.family not in spec.families:
                continue
            staged, ref = spec.fn(probe), ref_fn(probe)
            exact = ref_fn(_Extended(probe))
            err, ref_err = (np.max(np.abs(r - exact)) for r in (staged, ref))
            assert err <= 2.0 * ref_err + 1e-9 * spec.tol(), ident
            assert (staged.max() <= spec.tol()) == (ref.max() <= spec.tol())
            checked += 1
        assert checked == len(REFERENCE_RESIDUALS) - 1

    @pytest.mark.parametrize("perturb", [0.0, 1e-6])
    def test_frame_norm_bounds_the_pooled_maximum(self, probe, perturb):
        # |T(X, Y, ...)| <= |T|_F for g-unit vectors (Cauchy-Schwarz in a
        # g-orthonormal frame), so each frame-normed identity is at least the
        # largest value over a random pool, less the rounding of both: 8 eps
        # of the absolute products behind that value and behind the frame
        # norm, and 9 times the frame's Gram defect, relative.  Perturbing
        # the inputs puts the residuals off the frame's directions, and there
        # the largest value over the frame's pairs or triples alone falls
        # below the bound; not for CODAZZI_HP, an antisymmetric form on the
        # plane ker(eta), which takes its sup over unit vectors on any
        # orthonormal pair.
        p, eps = _perturbed(probe, perturb), np.finfo(float).eps
        for ident in _framed_here(p):
            vecs, frame = _pool_for(p, ident), _frame_for(p, ident)
            axes = tuple(range(1, 4 if ident in ("WEYL3", "CURV2") else 3))
            new = IDENTITIES[ident].fn(p)
            old = _ref_slots(p, ident, vecs).max(axis=axes)
            slack = (8.0 * eps * (
                _ref_slots(p, ident, vecs, absolute=True).max(axis=axes)
                + _ref_frobenius(_ref_slots(p, ident, frame, absolute=True)))
                + 9.0 * _gram_defect(p, frame) * new)
            assert np.all(new >= old - slack), ident
            if perturb and ident != "CODAZZI_HP":
                frame_max = _ref_slots(p, ident, frame).max(axis=axes)
                assert np.any(frame_max < old - slack), ident

    @pytest.mark.parametrize("perturb", [0.0, 1e-6])
    def test_frame_norm_is_frame_independent(self, probe, perturb):
        # the same residual tensor normed in a random witness frame agrees
        # with the Cholesky frame's norm to rounding: 8 eps of the absolute
        # products behind either norm, and 9 times the larger Gram defect,
        # relative.  A frame scaled by 1.1, a norm at least 1.21 times as
        # large, fails that bound once the residuals are above rounding.
        # CODAZZI_HP's witness is a frame of ker(eta).
        p, eps = _perturbed(probe, perturb), np.finfo(float).eps
        for ident in _framed_here(p):
            other_frame = (witness.kernel_frame(p) if ident == "CODAZZI_HP"
                           else witness.random_frame(p))
            frames = [_frame_for(p, ident), other_frame]
            normed = IDENTITIES[ident].fn(p)
            other = _staged_in(p, ident, other_frame)
            bound = (8.0 * eps * sum(
                _ref_frobenius(_ref_slots(p, ident, f, absolute=True))
                for f in frames)
                + 9.0 * np.maximum(*(_gram_defect(p, f) for f in frames))
                * np.maximum(normed, other))
            assert np.all(np.abs(other - normed) <= bound), ident
            if perturb:
                scaled = _staged_in(p, ident, 1.1 * other_frame)
                assert np.any(np.abs(scaled - normed) > bound), ident


# a kmu-darboux sweep of the benchmark (darboux-sweep, seed 1, op 0) where
# WEYL3's terms cancel far more than at SWEEP_MUS: at t = -1, W formed
# plainly in long double puts its frame norm 1.03e-13 from the long-double
# value, against 1.3e-15 and 4.8e-15 at SWEEP_MUS
WEYL3_SWEEP_MU = "0.9514391020088184"


def _long_double_weyl3_tensor(riem, g, q, sc):
    """W of ``_weyl3_tensor`` (W = R - (A - A^T), A^i_jkl = Q^i_k g_lj -
    d^i_k D_jl, D_jl = (Sc/2) g_lj - (gQ)_lj), each product and sum rounded
    in long double, then to float64."""
    riem, g, q, sc = (np.asarray(a, np.longdouble) for a in (riem, g, q, sc))
    g_jl = g.transpose(0, 2, 1)
    d = 0.5 * sc[:, None, None] * g_jl - np.einsum("nmj,nlm->njl", q, g)
    a = (np.einsum("nik,njl->nijkl", q, g_jl)
         - np.einsum("ik,njl->nijkl", np.eye(3), d))
    return (riem - (a - a.swapaxes(3, 4))).astype(float)


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="np.longdouble is no wider than float64")
def test_weyl3_error_free_form_where_its_terms_cancel():
    # TestStagedContractions' bound (twice the float64 reference's error
    # plus a billionth of the tolerance, 5.0e-14 here) holds for WEYL3's
    # error-free products and sums (measured 1.2e-22 from the long-double
    # value); W formed plainly in long double exceeds it (1.03e-13)
    model = build_darboux_model(DarbouxParams("kmu", WEYL3_SWEEP_MU, (-1.0, 1.0)))
    p = _plan_probe(model, SamplePlan(grid=3))
    exact = _ref_weyl3(_Extended(p))
    bound = (2.0 * np.max(np.abs(_ref_weyl3(p) - exact))
             + 1e-9 * IDENTITIES["WEYL3"].tol())
    assert np.max(np.abs(IDENTITIES["WEYL3"].fn(p) - exact)) <= bound
    plain = _frame_norm(_long_double_weyl3_tensor(
        p.curv.riemann, p.g, p.curv.q, p.curv.scalar), *p.factors, upper=0)
    assert np.max(np.abs(plain - exact)) > bound


# kmup-darboux sweeps of the benchmark (darboux-sweep, seed 6, op 1): at
# t = -1, cond g is 1.1e10 and 1.1e9
TRACE_SWEEP_MUS = ("0.864012406563916", "0.7161946963734861")


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="np.longdouble is no wider than float64")
@pytest.mark.parametrize("mu", TRACE_SWEEP_MUS)
def test_traces_against_long_double_inverse_metric(mu):
    # at t = -1 each TR_* residual is within 1e-8 relative (plus a billionth
    # of its tolerance) of the long-double trace with a long-double g^-1.
    # The closed-form data leave TR_HP at rounding (measured: 4.1e-14 and
    # 1.1e-13 in long double, 4.1e-14 and 1.2e-15 from it in float64,
    # against 5.0e-14 allowed); TR_PHI and TR_H read 0 in both.
    # Negative control: the Cholesky frame with a planted Gram defect of
    # 1e-7 (the size of the adapted frame's while phi carried the Magnus
    # states' compatibility error) reads TR_HP off by at least 2.1e-5, over
    # 4e8 times that bound.
    model = build_darboux_model(DarbouxParams("kmup", mu, (-1.0, 1.0)))
    p = _plan_probe(model, SamplePlan(grid=3))
    at = p.pts[:, 2] == -1.0
    assert at.sum() == 9 and np.all(np.linalg.cond(p.g[at]) >= 1e9)
    ld = _Extended(p)
    ginv = _inverse_3x3(ld.g)
    for ident in ("TR_HP", "TR_PHI", "TR_H"):
        exact = _ref_trace(ld, ident, ginv)[at]
        staged = IDENTITIES[ident].fn(p)[at]
        assert np.all(np.abs(staged - exact)
                      <= 1e-8 * exact + 1e-9 * IDENTITIES[ident].tol()), ident
    frame = p.factors[1].copy()
    frame[:, 1] *= np.sqrt(1 + 1e-7)
    assert np.allclose(_gram_defect(p, frame), 1e-7, rtol=1e-6)
    target = _ref_q_xi(p) + 2.0 * p.xi
    in_frame = g_norm(np.einsum("nkij,nak,naj->ni", p.nabla_hp, frame, frame)
                      - target, p.g)[at]
    exact = _ref_trace(ld, "TR_HP", ginv)[at]
    assert np.all(np.abs(in_frame - exact)
                  > 1e8 * (1e-8 * exact + 1e-9 * IDENTITIES["TR_HP"].tol()))


@pytest.mark.parametrize("fixture", APPLICABLE)
def test_cholesky_frame_spans_ker_eta_in_its_first_two_rows(request, fixture):
    # CODAZZI_HP is normed on the first two rows of E = L^{-1}: E is lower
    # triangular, so they are d_x and d_y orthonormalized, and eta, a
    # multiple of dz or dt in every family, vanishes on them exactly
    p = _plan_probe(request.getfixturevalue(fixture), PLAN)
    e = p.factors[1]
    assert np.all(e[:, :2, 2] == 0.0)
    assert np.all(np.einsum("ni,nai->na", p.eta, e[:, :2]) == 0.0)


@pytest.mark.parametrize("mu", [TRACE_SWEEP_MUS[0], "1"])
def test_cholesky_frame_is_orthonormal_where_phi_is_not_compatible(mu):
    # E is built from g alone: on these kmup-darboux sweep plans E g E^T - I
    # stays within 1e-15 (measured 2.2e-16 at both).  The adapted frame
    # (xi, X, phi X), built from phi, carried phi's compatibility error
    # while the kmup states came from Magnus steps (measured 4.6e-7 and
    # 6.2e-6); with the closed form it reads 2.2e-16 and 3.3e-16
    model = build_darboux_model(DarbouxParams("kmup", mu, (-1.0, 1.0)))
    p = _plan_probe(model, SWEEP_PLAN)
    assert np.max(_gram_defect(p, p.factors[1])) <= 1e-15


def _frame_tensor_bytes(n):
    """Bytes of one float64 frame tensor (n, 3, 3, 3, 3)."""
    return n * 3 ** 4 * np.dtype(float).itemsize


def _peak(fn, p):
    """Peak traced bytes of ``fn(p)``, the Probe's caches filled first."""
    fn(p)
    tracemalloc.start()
    try:
        fn(p)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("ident", ["WEYL3", "CURV2"])
def test_pooled_identity_peak_memory(kmu_chart, ident):
    # normed in the frame, a grid-5 residual peaks within 6 frame tensors
    # (measured: WEYL3 4.81, CURV2 1.68), where the pooled residuals were
    # bounded at 1.5 pooled (n, 11, 11, 11, 3) tensors, 74 frame tensors
    p = _plan_probe(kmu_chart, SamplePlan(grid=5))
    assert _peak(IDENTITIES[ident].fn, p) <= 6.0 * _frame_tensor_bytes(p.n)


def test_weyl3_peak_memory_at_grid9(kmu_chart):
    # WEYL3 forms W 64 points at a time: at grid 9 its peak is 0.86 frame
    # tensors (10.1 with W formed over all 729 points at once), where the
    # pooled form was bounded at 0.15 pooled tensors, 7.4 frame tensors
    p = _plan_probe(kmu_chart, SamplePlan(grid=9))
    assert _peak(IDENTITIES["WEYL3"].fn, p) <= 1.0 * _frame_tensor_bytes(p.n)


def test_curv2_peak_memory_at_grid9(kmu_chart):
    # CURV2 forms and norms its (n, 3, 3, 3) tensor 64 float64 or 32
    # long-double points at a time: at grid 9 its peak is 0.31 frame tensors
    # (0.48 with every point in long double; 0.90 when it formed the whole
    # block's tensor in the frame)
    p = _plan_probe(kmu_chart, SamplePlan(grid=9))
    assert _peak(IDENTITIES["CURV2"].fn, p) <= 1.0 * _frame_tensor_bytes(p.n)


# the constant mu of the pinned examples of
# test_random_kmup_darboux_models_pass_the_suite_to_rounding
PINNED_KMUP_MUS = ("0.9949643081859056", "0.9846491917455433",
                   "0.9925868246288456")

# benchmark chart models (chart-grid9, seed 3, ops 2 and 3; seed 2, op 1)
# where float64 CURV2 reads 3.5e-14, 6.4e-14 and 2.5e-14 from long double
# at grid 5 (the last 6.6e-14 at grid 9), the float64 single-call
# reference 3.1e-14, 6.0e-14 and 2.2e-14
BENCH_CHARTS = (
    ("kmu", "(0.036796079373386026) + (-0.17277600033263404)*z"
            " + (0.2516832456370675)*sin((0.5947630796657819)*z)",
     "(-0.21295378968355894)*cos((0.8187861013855537)*z)",
     "(-0.08381298845190739)*z^2 + (-0.7471472296486339)"),
    ("kmup", "(-0.4841166689361882) + (0.24755436227586697)*z"
             " + (0.24747513514670988)*sin((1.1436446061963008)*z)",
     "(-0.21225450401592727)*cos((1.9778557127680154)*z)",
     "(-0.02090355499713059)*z^2 + (0.639506801325848)"),
    ("kmup", "(-0.16950039585326127) + (0.03510669594348481)*z"
             " + (0.13738574334959436)*sin((1.4096520336291243)*z)",
     "(0.31950729464775285)*cos((1.9927248857431121)*z)",
     "(-0.06536289229593623)*z^2 + (-0.9785513253819262)"),
)


def _bench_chart(i):
    variant, *exprs_ = BENCH_CHARTS[i]
    if variant == "kmu":
        return build_kmu_chart_model(KmuChartParams(*exprs_))
    return build_kmu_prime_chart_model(KmupChartParams(*exprs_))


class TestCurv2Precision:
    """CURV2 sums in long double exactly where cond_F(g) = |g|_F |g^-1|_F
    exceeds identities._CURV2_COND, and in float64 elsewhere."""

    @staticmethod
    def _long_double_metrics(monkeypatch, model, plan):
        """(Probe of ``plan``, the metric values of the points CURV2 summed
        in long double, in point order)."""
        tensor, seen = identities._curv2_tensor, []

        def recorded(*ops):
            seen.append(ops[2])
            return tensor(*ops)

        monkeypatch.setattr(identities, "_curv2_tensor", recorded)
        p = _plan_probe(model, plan)
        IDENTITIES["CURV2"].fn(p)
        assert sum(map(len, seen)) == p.n
        wide = [g for g in seen if g.dtype == np.longdouble]
        return p, np.concatenate(wide) if wide else np.empty((0, 3, 3))

    @pytest.mark.parametrize("fixture,grid", [
        ("baseline", 3), ("kmu_chart", 3), ("kmup_chart", 3), ("kmu_chart", 9)])
    def test_chart_points_sum_in_float64(self, request, monkeypatch,
                                         fixture, grid):
        # cond_F reads 3.0 to 1.1e1 on the baseline and 6.1 to 1.0e2 on the
        # chart fixtures
        model = request.getfixturevalue(fixture)
        _, wide = self._long_double_metrics(monkeypatch, model,
                                            SamplePlan(grid=grid))
        assert len(wide) == 0

    @pytest.mark.parametrize("variant", ["kmu", "kmup"])
    @pytest.mark.parametrize("mu", ["1", *PINNED_KMUP_MUS])
    def test_darboux_points_at_t_minus_one_sum_in_long_double(
            self, monkeypatch, variant, mu):
        # cond_F reads 3.0 at t = 0, at most 19 at t = 1, and 3.2e5 (kmu) to
        # 1.1e11 (kmup) at t = -1
        model = build_darboux_model(DarbouxParams(variant, mu, (-1.0, 1.0)))
        p, wide = self._long_double_metrics(monkeypatch, model,
                                            SamplePlan(grid=3))
        at_minus_one = p.pts[:, 2] == -1.0
        assert 0 < at_minus_one.sum() < p.n
        assert np.array_equal(wide, p.g[at_minus_one])

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                        reason="np.longdouble is no wider than float64")
    @pytest.mark.parametrize("chart", ["kmu_chart", "kmup_chart",
                                       *range(len(BENCH_CHARTS))])
    def test_float64_at_chart_points_within_rounding(self, request, chart):
        # TestStagedContractions' bound: against the single-call residual
        # summed in long double, twice the float64 single call's error plus
        # a billionth of the tolerance (5e-14).  float64 CURV2 reads 3.6e-15
        # to 6.4e-14 from it here, 2.0e-14 on chart-grid9 seed 1 ops 0-3, and
        # up to 6.6e-14 over 48 of its models (seeds 1-6, ops 0-7, grid 9)
        model = (request.getfixturevalue(chart) if isinstance(chart, str)
                 else _bench_chart(chart))
        p = _plan_probe(model, SamplePlan(grid=5))
        exact = _ref_curv2(_Extended(p))
        bound = (2.0 * np.max(np.abs(_ref_curv2(p) - exact))
                 + 1e-9 * IDENTITIES["CURV2"].tol())
        wide = _frame_norm(_curv2_tensor(
            *(a.astype(np.longdouble) for a in _curv2_inputs(p))), *p.factors)
        res = IDENTITIES["CURV2"].fn(p)
        assert np.max(np.abs(res - exact)) <= bound
        assert np.max(np.abs(res - wide)) <= bound


@pytest.mark.parametrize("fixture", ["baseline", "kmu_chart", "kmup_chart",
                                     "kmu_darboux", "kmup_darboux"])
def test_frame_normed_identities_read_no_pool(request, monkeypatch, fixture):
    # no suite draws a random number: every residual tensor is normed in the
    # Cholesky frame, and the traces contract g^-1
    def no_draws(*args, **kwargs):
        raise AssertionError("a random generator was made")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    model = request.getfixturevalue(fixture)
    reports = check_suite(model, "all", PLAN)
    assert all(np.isfinite(r.residual) for r in reports
               if r.verdict != "not-applicable")


def _metric_probe(g):
    """A Probe that reads nothing but the metric values ``g``."""
    p = Probe.__new__(Probe)
    p.g, p.n = g, len(g)
    return p


@pytest.fixture(scope="module")
def hard_metrics():
    """Random SPD metrics with cond up to 1e10 and scales over six decades,
    and kmup-darboux mu=1 metrics at t = -1 and 1 (cond up to 1.1e11)."""
    rng = np.random.default_rng(1)
    cond = 10.0 ** rng.uniform(0.0, 10.0, 400)
    eigs = (np.column_stack([np.ones(400), cond ** rng.uniform(0, 1, 400), cond])
            * 10.0 ** rng.uniform(-3, 3, (400, 1)))
    rot = np.linalg.qr(rng.standard_normal((400, 3, 3)))[0]
    model = build_darboux_model(DarbouxParams("kmup", "1", (-1.0, 1.0)))
    xy = np.linspace(0.0, 1.0, 5)
    pts = np.array([[x, y, t] for x in xy for y in xy for t in (-1.0, 1.0)])
    return {"random": rot @ (eigs[:, :, None] * rot.transpose(0, 2, 1)),
            "kmup_darboux": model.g(pts)}


def _svd_op_norm(p: Probe, m, upper=None):
    """The g-operator norm of the (1,1) tensors m[n, 3, 3]: the largest
    singular value, by SVD, of the operand their norm takes, L^T m E^T on
    the Probe's factors."""
    assert upper == 0
    lt, e = p.factors
    return np.linalg.svd(lt @ m @ e.swapaxes(1, 2), compute_uv=False)[..., 0]


def _between_op_norm_and_sqrt3(out, op):
    """|A|_2 <= |A|_F <= sqrt(3) |A|_2 for 3x3 A, to 8 eps either way."""
    eps = np.finfo(float).eps
    return np.all((op * (1.0 - 8.0 * eps) <= out)
                  & (out <= np.sqrt(3.0) * op * (1.0 + 8.0 * eps)))


@pytest.mark.parametrize("kind", ["random", "kmup_darboux"])
def test_op_norm_between_operator_norm_and_sqrt3(hard_metrics, kind):
    # the Frobenius norm of the Cholesky-frame operand is within 8 eps of
    # the root sum of its squared singular values, so between the largest
    # and sqrt(3) times it (measured apart: 3.5 eps at most)
    g = hard_metrics[kind]
    a = np.random.default_rng(2).standard_normal(g.shape)
    p = _metric_probe(g)
    out = p.norm(a, upper=0)
    lt, e = p.factors
    sv = np.linalg.svd(lt @ a @ e.swapaxes(1, 2), compute_uv=False)
    frob = np.sqrt(np.sum(sv ** 2, axis=1))
    assert np.all(np.abs(out - frob) <= 8.0 * np.finfo(float).eps * frob)
    assert _between_op_norm_and_sqrt3(out, sv[:, 0])


EIGHT = ("NABLA_XI", "L_ID", "H2", "NH", "NHP", "LIE1", "LIE2", "RICCI_FORM")


@pytest.mark.parametrize("fixture", ["kmu_chart", "kmup_chart", "kmu_darboux",
                                     "kmup_darboux"])
def test_eight_residuals_between_operator_norm_and_sqrt3(request, monkeypatch,
                                                         fixture):
    # each (1,1)-tensor residual, normed by Frobenius in the Cholesky frame,
    # lies between its g-operator-norm form and sqrt(3) times it: the
    # larger-of and scalar-law maxima keep both bounds
    p = _plan_probe(request.getfixturevalue(fixture), PLAN)
    here = [ident for ident in EIGHT
            if p.model.family in IDENTITIES[ident].families]
    assert len(here) == 6
    new = {ident: IDENTITIES[ident].fn(p) for ident in here}
    monkeypatch.setattr(Probe, "norm", _svd_op_norm)
    for ident in here:
        assert _between_op_norm_and_sqrt3(new[ident], IDENTITIES[ident].fn(p)), ident


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_tensor_fails_its_identity(monkeypatch, kmu_chart, bad):
    # the frame norm, of a (1,1) tensor as of a pair tensor, and _frobenius
    # are non-finite exactly where their tensor is, and a non-finite
    # residual fails its identity: the report keeps the point and writes
    # the residual as null
    plan = SamplePlan(grid=3)
    p = _plan_probe(kmu_chart, plan)
    a = np.random.default_rng(10).standard_normal((p.n, 3, 3))
    a[7, 1, 2] = bad
    t = np.repeat(a[:, None], 3, axis=1)
    for out in (p.norm(a, upper=0), _frobenius(a), p.norm(t, upper=1)):
        assert not np.isfinite(out[7])
        assert np.isfinite(np.delete(out, 7)).all()
    spec = dataclasses.replace(IDENTITIES["NABLA_XI"],
                               fn=lambda q: q.norm(a, upper=0))
    monkeypatch.setitem(IDENTITIES, "NABLA_XI", spec)
    rep = check_identity(kmu_chart, "NABLA_XI", plan)
    assert rep.verdict == "fail"
    assert rep.max_point == tuple(p.pts[7].tolist())
    assert rep.as_dict()["residual"] is None


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="np.longdouble is no wider than float64")
@pytest.mark.parametrize("kind", ["random", "kmup_darboux"])
def test_pair_norm_against_long_double_g_norm(hard_metrics, kind):
    # the Frobenius norm in a g-orthonormal frame, each g-length as |L^T v|:
    # against the long-double norm of the long-double (v g) . v in the same
    # frame, the error stays within 8 eps of the absolute products behind
    # the squares, over twice the norm, where the Cholesky factor bounds the
    # metric's part by sqrt(g_ii g_jj) (measured: 0.90 and 3.1)
    g = hard_metrics[kind]
    rng = np.random.default_rng(3)
    t = rng.standard_normal((len(g), 3, 3, 3)) * 10.0 ** rng.uniform(
        -3, 3, (len(g), 1, 1, 1))
    p = _metric_probe(g)
    frame = witness.random_frame(p)
    out = _frame_norm(t, p.factors[0], frame, upper=1)
    ld = [a.astype(np.longdouble) for a in (t, frame, g)]
    exact = _ref_frobenius(g_norm(_ref_pairs(ld[0], ld[1], ld[1]),
                                  ld[2][:, None, None]))
    abs_v = _ref_pairs(np.abs(t), np.abs(frame), np.abs(frame))
    scale = np.sum(np.einsum("nabi,ni->nab", abs_v,
                             np.sqrt(np.einsum("nii->ni", g))) ** 2, axis=(1, 2))
    assert np.all(np.abs(out - exact)
                  <= 8.0 * np.finfo(float).eps * scale / (2.0 * exact))


@pytest.mark.parametrize("fixture", ["kmu_chart", "kmup_darboux"])
def test_suite_factors_the_metric_once(request, monkeypatch, fixture):
    # every operator and pooled norm of a suite reads the Probe's factors
    calls = [0]
    cholesky = np.linalg.cholesky

    def counting(a):
        calls[0] += 1
        return cholesky(a)

    monkeypatch.setattr(np.linalg, "cholesky", counting)
    check_suite(request.getfixturevalue(fixture), "all", PLAN)
    assert calls[0] == 1


# a model of each kind, its leaf jets (``Jet.along``) per suite: the
# chart's 3 coordinates and lam, mu, f and r; 3 entries each of F and
# e^{2t} G, f and mu; the baseline's w = c^2 e^{2t}; and its lookups per
# suite: the trajectory's (P, f) (``solution``, which ``dense`` reads
# too), expression values (``__call__``) and jets, all in the one pass on
# jets
KEPT_JETS = {
    "kmu_chart": (lambda: build_kmu_chart_model(
        KmuChartParams("z + 1", "sin(z)", "0.1*z^2")), 7,
        {"solution": 0, "__call__": 0, "jet": 4}),
    "kmu_darboux": (lambda: build_darboux_model(
        DarbouxParams("kmu", "sin(t)", (-0.25, 0.25))), 8,
        {"solution": 1, "__call__": 0, "jet": 1}),
    "baseline": (lambda: build_kenmotsu_baseline(1.0), 1,
                 {"solution": 0, "__call__": 0, "jet": 0}),
}


@pytest.mark.parametrize("kind", KEPT_JETS)
def test_field_jets_built_once_and_freed_with_the_points(monkeypatch, kind):
    # one set of coefficient jets serves every partial and second partial
    # of a suite, and nothing of it outlives the suite's points
    build, count, _ = KEPT_JETS[kind]
    model = build()
    leaves, arrays = [0], []
    along, init = exprs.Jet.along.__func__, exprs.Jet.__init__

    def counting(cls, *args):
        leaves[0] += 1
        return along(cls, *args)

    def tracked(self, v, d, dd):
        arrays.append(weakref.ref(d))
        init(self, v, d, dd)

    monkeypatch.setattr(exprs.Jet, "along", classmethod(counting))
    monkeypatch.setattr(exprs.Jet, "__init__", tracked)
    gc.disable()
    try:
        check_suite(model, "all", PLAN)
        assert leaves[0] == count
        assert arrays and not [r for r in arrays if r() is not None]
    finally:
        gc.enable()


@pytest.mark.parametrize("kind", KEPT_JETS)
def test_suite_looks_up_states_and_expressions_once_per_pass(monkeypatch,
                                                             kind):
    # all seven fields, the nominal k, mu and lam with them, are read off
    # one coefficient pass on jets, whose values are the fields' values
    build, _, lookups = KEPT_JETS[kind]
    model = build()
    seen = dict.fromkeys(lookups, 0)

    def counted(cls, name):
        method = getattr(cls, name)

        def wrapper(self, *args, **kwargs):
            seen[name] += 1
            return method(self, *args, **kwargs)
        monkeypatch.setattr(cls, name, wrapper)

    for cls, names in ((ode.Trajectory, ("solution",)),
                       (exprs.Expr, ("__call__", "jet"))):
        for name in names:
            counted(cls, name)
    check_suite(model, "all", PLAN)
    assert seen == lookups


def _move_in_place(model, pts):
    """Change the points' third coordinate in place; a Darboux model's by
    whole node steps, so they stay on its nodes."""
    traj = model.trajectory
    if traj is None:
        pts[:, 2] -= 0.25
    else:
        nodes = np.rint((pts[:, 2] - traj.t_min) / traj.step).astype(int)
        pts[:, 2] = traj.times[nodes // 2]


@pytest.mark.parametrize("fixture", ["kmup_chart", "kmup_darboux", "baseline"])
def test_fields_from_kept_coefficients_match_fresh_ones(request, fixture):
    # a model's values and partials depend on the points alone: points
    # changed in place give the bits of a fresh array of the same points
    model = request.getfixturevalue(fixture)
    pts = PLAN.points(model)
    fns = [jet(model, name, order) for name, jets in model.at(pts).items()
           for order, values in enumerate(jets) if values is not None]
    before = pts.copy()
    first = [fn(pts) for fn in fns]
    _move_in_place(model, pts)
    moved = [fn(pts) for fn in fns]
    assert not np.array_equal(before, pts)
    assert any(not np.array_equal(a, b) for a, b in zip(first, moved))
    for fn, out, out_moved in zip(fns, first, moved):
        assert np.array_equal(out, fn(before.copy()))
        assert np.array_equal(out_moved, fn(pts.copy()))


def _field_evals_per_sample(monkeypatch, model):
    """Run ``check_suite(model, "all", PLAN)``; return the field
    point-evaluations per sample point."""
    evaluated, call = [0], fields.ArrayField.__call__

    def counting(self, pts):
        evaluated[0] += len(pts) if np.ndim(pts) == 2 else 1
        return call(self, pts)

    monkeypatch.setattr(fields.ArrayField, "__call__", counting)
    check_suite(model, "all", PLAN)
    return evaluated[0] / len(PLAN.points(model))


# the Probe reads the model's one ``at`` pass, calling no field view (the
# package holds no finite differences: test_source guards that)
EVALS_PER_SAMPLE = 0


@pytest.mark.parametrize("variant,mu", [("kmu", "1"), ("kmup", "sin(t)")])
def test_darboux_suite_differentiates_by_fd_only_derived_fields_along_t(
        monkeypatch, variant, mu):
    model = build_darboux_model(DarbouxParams(variant, mu, (-0.25, 0.25)))
    assert _field_evals_per_sample(monkeypatch, model) <= EVALS_PER_SAMPLE


CHART_MODELS = [
    (build_kmu_chart_model, KmuChartParams("z + 1", "sin(z)", "0.1*z^2")),
    (build_kmu_prime_chart_model,
     KmupChartParams("0.3*cos(z)", "z", "exp(z)")),
]


@pytest.mark.parametrize("build,params", CHART_MODELS,
                         ids=lambda c: getattr(c, "__name__", ""))
def test_chart_suite_differentiates_by_fd_only_derived_fields(
        monkeypatch, build, params):
    assert _field_evals_per_sample(monkeypatch, build(params)) <= EVALS_PER_SAMPLE


def test_baseline_suite_runs_no_fd(monkeypatch, baseline):
    assert _field_evals_per_sample(monkeypatch, baseline) <= EVALS_PER_SAMPLE


FAMILY_FIXTURES = ["baseline", "kmu_chart", "kmup_chart", "kmu_darboux",
                   "kmup_darboux"]


@pytest.mark.parametrize("fixture", FAMILY_FIXTURES)
def test_suite_evaluates_the_model_once(request, fixture):
    model = request.getfixturevalue(fixture)
    calls = []

    def at(pts):
        calls.append(len(pts))
        return model.at(pts)

    check_suite(dataclasses.replace(model, at=at), "all", PLAN)
    assert calls == [len(PLAN.points(model))]


def test_suite_evaluates_each_block_once(kmu_chart):
    # a grid-9 plan is three blocks, each read off one ``at`` call
    calls = []

    def at(pts):
        calls.append(len(pts))
        return kmu_chart.at(pts)

    check_suite(dataclasses.replace(kmu_chart, at=at), "all", SamplePlan(grid=9))
    assert calls == [256, 256, 217]


def _chart_kmu():
    return build_kmu_chart_model(KmuChartParams("0.3*z + 1", "z^2", "sin(z)"))


# a model of each variant, its plan's grid, the block size to run it at and
# the identities to check: together they check every identity over plans of
# several blocks.  CONN_KMU at grid 17 is where einsum's sum over k in
# frame_nabla rounded some points apart in blocks and in one Probe.
STREAMED = [
    (_chart_kmu, 9, identities.BLOCK, "all"),
    (lambda: build_darboux_model(DarbouxParams("kmup", "1", (-0.25, 0.25))),
     3, 8, "all"),
    (_chart_kmu, 17, identities.BLOCK, ["CONN_KMU"]),
]


def test_blocked_suite_matches_one_probe_over_the_plan(monkeypatch):
    # residual and max point of every identity, bit for bit, as one Probe
    # over the whole plan gives them
    checked = set()
    for build, grid, block, ids in STREAMED:
        monkeypatch.setattr(identities, "BLOCK", block)
        model, plan = build(), SamplePlan(grid=grid)
        assert grid ** 3 > 2 * block
        whole = _plan_probe(model, plan)
        for rep in check_suite(model, ids, plan):
            if rep.verdict == "not-applicable":
                continue
            per_point = IDENTITIES[rep.id].fn(whole)
            idx = int(np.argmax(per_point))
            assert rep.residual == float(per_point[idx]), (rep.id, grid)
            assert rep.max_point == tuple(whole.pts[idx].tolist()), (rep.id, grid)
            assert rep.samples == grid ** 3
            checked.add(rep.id)
    assert checked == set(IDENTITIES)


def test_blocks_merge_as_argmax_over_the_plan(monkeypatch, kmu_chart):
    # a later block's maximum replaces the kept one only if strictly larger,
    # so a tie keeps the first point; a NaN wins, the first of several
    monkeypatch.setattr(identities, "BLOCK", 4)
    plan = SamplePlan(grid=3)
    pts = plan.points(kmu_chart)
    index = {q: i for i, q in enumerate(map(tuple, pts.tolist()))}
    tie, nans, later = np.zeros(27), np.ones(27), np.ones(27)
    tie[[5, 6, 13]] = 2.0                     # blocks 1, 1 and 3
    nans[[2, 9, 22]] = [5.0, np.nan, np.nan]  # blocks 0, 2 and 5
    later[[0, 20]] = [3.0, 4.0]               # blocks 0 and 5
    rng = np.random.default_rng(7)
    drawn = [rng.integers(0, 3, 27).astype(float) for _ in range(20)]
    for values in [tie, nans, later, *drawn]:
        spec = dataclasses.replace(IDENTITIES["H2"], fn=lambda p: values[
            [index[q] for q in map(tuple, p.pts.tolist())]])
        monkeypatch.setitem(IDENTITIES, "H2", spec)
        rep = check_identity(kmu_chart, "H2", plan)
        idx = int(np.argmax(values))
        assert rep.max_point == tuple(pts[idx].tolist())
        assert repr(rep.residual) == repr(float(values[idx]))
        assert rep.verdict == ("fail" if np.isnan(values[idx]) else "pass"
                               if values[idx] <= rep.tolerance else "fail")
    assert [int(np.argmax(v)) for v in (tie, nans, later)] == [5, 9, 20]


def test_suite_peak_memory_follows_the_block(kmu_chart):
    # each block's Probe is freed before the next is built: a grid-17 suite
    # (20 blocks) peaks within 1.25 times a grid-9 suite (3 blocks); one
    # Probe over the plan peaked 6.7 times higher at grid 17 than at grid 9
    check_suite(kmu_chart, "all", PLAN)
    peaks = []
    for grid in (9, 17):
        tracemalloc.start()
        try:
            check_suite(kmu_chart, "all", SamplePlan(grid=grid))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.25 * peaks[0], peaks


def test_fields_are_views_of_the_one_evaluation(request, baseline):
    # a model's fields cannot be replaced one by one, each field's values
    # are the bits of ``at``, and a second ``at`` repeats its partials and
    # second partials (None for the nominal scalars alone)
    with pytest.raises(ValueError, match="init=False"):
        dataclasses.replace(baseline, lam_nom=ArrayField(
            baseline.lam_nom.fn, name="lam"))
    for fixture in FAMILY_FIXTURES:
        model = request.getfixturevalue(fixture)
        pts = PLAN.points(model)
        at = model.at(pts)
        for name, (values, partials, second) in at.items():
            field = getattr(model, name)
            where = (fixture, name)
            assert np.array_equal(field(pts), values), where
            assert np.array_equal(jet(model, name, 1)(pts), partials), where
            if second is None:
                assert name.endswith("_nom"), where
            else:
                assert np.array_equal(jet(model, name, 2)(pts), second), where
        assert list(at) == ["phi", "xi", "eta", "g", "k_nom", "mu_nom",
                            "lam_nom"]


def _smooth_z_exprs(depth):
    """Expression text smooth on the default z-box [-3, -1.5]: sums,
    differences and products of constants in [-1, 1] and z, and exp, sin
    and cos of arguments s / (s^2 + 1), which lie in [-1/2, 1/2]."""
    const = st.floats(min_value=-1.0, max_value=1.0).map(lambda v: f"({v:.3f})")
    leaf = st.one_of(const, st.just("z"))
    if depth == 0:
        return leaf
    sub = _smooth_z_exprs(depth - 1)
    bounded = sub.map(lambda s: f"(({s}) / (({s})^2 + 1))")
    return st.one_of(
        leaf,
        st.tuples(sub, st.sampled_from("+-*"), sub).map(
            lambda t: f"({t[0]} {t[1]} {t[2]})"),
        st.tuples(st.sampled_from(["sin", "cos", "exp"]), bounded).map(
            lambda t: f"{t[0]}{t[1]}"),
    )


@settings(max_examples=40, deadline=None)
@given(variant=st.sampled_from(["kmu", "kmup"]), mu=_smooth_z_exprs(2),
       f=_smooth_z_exprs(2), r=_smooth_z_exprs(2))
def test_random_chart_models_pass_the_suite_to_rounding(variant, mu, f, r):
    # With exact partials every residual of a chart suite is rounding, which
    # grows with the metric's conditioning |g|_F |g^-1|_F: over 2,100 random
    # models at most 4.9e-13 of it.  A dropped Hessian term in the jet
    # quotient rule reads at least 1.7e-2 of it on every model tried.
    if variant == "kmu":
        model = build_kmu_chart_model(KmuChartParams(mu, f, r))
    else:  # mu in [-1, 1] keeps mu + 2 away from 0
        model = build_kmu_prime_chart_model(
            KmupChartParams(f"(2 * ({mu}) / (({mu})^2 + 1))", f, r))
    plan = SamplePlan(grid=3)
    p = Probe(model, plan.points(model))
    cond = np.max(np.linalg.norm(p.g, axis=(1, 2))
                  * np.linalg.norm(p.ginv, axis=(1, 2)))
    for rep in check_suite(model, "all", plan):
        if rep.verdict != "not-applicable":
            assert rep.residual <= 1e-11 * cond, (rep.id, rep.residual, cond)


def _worst_kmup_darboux_residual(mu):
    """The largest residual of a grid-3 suite on kmup-darboux over [-1, 1]."""
    model = build_darboux_model(DarbouxParams("kmup", mu, (-1.0, 1.0)))
    return max(rep.residual for rep in check_suite(model, "all", SamplePlan(grid=3))
               if rep.verdict != "not-applicable")


@settings(max_examples=30, deadline=None)
@given(ends=st.lists(st.floats(min_value=-0.2, max_value=1.0), min_size=2,
                     max_size=2).map(sorted),
       w=st.floats(min_value=0.5, max_value=3.0))
@example(ends=[0.9949643081859056] * 2, w=1.0)
@example(ends=[0.9846491917455433] * 2, w=1.0)
@example(ends=[0.9925868246288456] * 2, w=1.0)
def test_random_kmup_darboux_models_pass_the_suite_to_rounding(ends, w):
    # mu = a + b sin(wt) within [-0.2, 1.0] on t in [-1, 1], where A reaches
    # 12.7 and cond g 1e11: with the closed-form data every residual is
    # rounding in the orthonormal frame, at most 6.5e-13 over 3,000 random
    # models and 8.5e-13 over 2,000 constant mu in [0.9, 1].  The first two
    # examples are constant mu where CURV2 read 1.026e-12 and 1.034e-12 at
    # t = -1 while it summed in float64 (7.6e-13 and 6.8e-13 in long double);
    # the third is the nearest to the bound since: LIE2 reads 9.51e-13 and
    # RICCI_FORM 7.80e-13 there, float64 rounding at t = -1
    a, b = (ends[0] + ends[1]) / 2, (ends[1] - ends[0]) / 2
    assert _worst_kmup_darboux_residual(f"{a!r} + {b!r}*sin({w!r}*t)") <= 1e-12


def test_random_kmup_darboux_check_sees_a_wrong_sign_of_a_prime(monkeypatch):
    # the check above has teeth: A' = +2 lam in the jet of F's (0, 1)
    # entry e^A, the second of the eight leaves of each coefficient pass,
    # leaves residuals of at least 240 (measured at mu = -0.2, 0, 1 and
    # 0.3 + 0.2 sin 2t).  The states cannot show it: the entries read two
    # numbers off a state, f and e^A, and either is an integration
    # constant at a point
    along, leaves = exprs.Jet.along.__func__, [0]

    def wrong_sign(cls, axis, e, de, dde):
        leaves[0] += 1
        return along(cls, axis, e, -de if leaves[0] % 8 == 2 else de, dde)

    monkeypatch.setattr(exprs.Jet, "along", classmethod(wrong_sign))
    assert _worst_kmup_darboux_residual("0.3 + 0.2*sin(2*t)") >= 1.0


def _kmu_darboux_reports(mu):
    """The applicable reports of a grid-3 suite on kmu-darboux over [-1, 1]."""
    model = build_darboux_model(DarbouxParams("kmu", mu, (-1.0, 1.0)))
    return [rep for rep in check_suite(model, "all", SamplePlan(grid=3))
            if rep.verdict != "not-applicable"]


@settings(max_examples=25, deadline=None)
@given(ends=st.lists(st.floats(min_value=-0.2, max_value=1.0), min_size=2,
                     max_size=2).map(sorted),
       w=st.floats(min_value=0.5, max_value=3.0))
def test_random_kmu_darboux_models_pass_the_suite(ends, w):
    # mu = a + b sin(wt) within [-0.2, 1.0] on t in [-1, 1]: with every
    # entry formed from the frame P and rounded once, each residual is at
    # most 0.9 of its tolerance.  Measured over 3,500 random models: BSQ
    # (at t = -1) at most 0.72, every other identity at most 0.11 (AK_DPHI).
    # With the entries formed from float64-rounded states, 21 of 60 models
    # failed BSQ, up to 6.3 times its tolerance
    a, b = (ends[0] + ends[1]) / 2, (ends[1] - ends[0]) / 2
    for rep in _kmu_darboux_reports(f"{a!r} + {b!r}*sin({w!r}*t)"):
        assert rep.residual <= 0.9 * rep.tolerance, (rep.id, rep.residual)


@pytest.mark.parametrize("mu", ["-0.2", "1", "0.3 + 0.2*sin(2*t)"])
def test_random_kmu_darboux_check_sees_a_wrong_sign_of_nu(monkeypatch, mu):
    # the check above has teeth: G'' with +2 nu lam Q3 for -2 nu lam Q3
    # fails 5 identities, each at least 4.9e4 times its tolerance (RICCI_FORM
    # at mu = 0.3 + 0.2 sin 2t; NULL_KMU and CONN_KMU among them).  The
    # error is planted through the seams: mu's jet comes negated, which
    # flips nu = mu in G'', and the mu leaf, the last of the eight of each
    # coefficient pass, is negated back
    jet, along, leaves = exprs.Expr.jet, exprs.Jet.along.__func__, [0]

    def negated(self, x, order=2):
        return tuple(-v for v in jet(self, x, order))

    def mu_restored(cls, axis, e, de, dde):
        leaves[0] += 1
        if leaves[0] % 8 == 0:
            e, de = -e, -de
        return along(cls, axis, e, de, dde)

    monkeypatch.setattr(exprs.Expr, "jet", negated)
    monkeypatch.setattr(exprs.Jet, "along", classmethod(mu_restored))
    failed = [rep for rep in _kmu_darboux_reports(mu)
              if rep.residual > 4e4 * rep.tolerance]
    assert len(failed) == 5, [(rep.id, rep.residual) for rep in failed]


@pytest.mark.parametrize("fixture", ["kmu_chart", "kmu_darboux"])
def test_suite_runs_no_condition_number_svd(request, monkeypatch, fixture):
    # every metric of these suites clears _inverse_metric's Frobenius bound,
    # at the sample points and at every stencil node
    def no_cond(*args, **kwargs):
        raise AssertionError("np.linalg.cond called")

    model = request.getfixturevalue(fixture)
    monkeypatch.setattr(np.linalg, "cond", no_cond)
    reports = check_suite(model, "all", PLAN)
    assert all(r.verdict in ("pass", "not-applicable") for r in reports)


def test_probe_freed_without_cyclic_gc(kmu_chart):
    # a field kept on the Probe whose function holds the Probe would keep
    # it (and its curvature and partials) alive until the cyclic collector
    # runs; the Probe's caches hold arrays alone
    gc.disable()
    try:
        probe = Probe(kmu_chart, PLAN.points(kmu_chart))
        probe.curv, probe.frame_nabla
        ref = weakref.ref(probe)
        del probe
        assert ref() is None
    finally:
        gc.enable()


class TestConvergence:
    def test_fd_halving_on_curvature_identity(self, kmu_chart):
        # the FD curvature of riemann converges to the exact one at order 4
        # (measured ratio 16.0: 8.3e-9 -> 5.2e-10)
        pts = PLAN.points(kmu_chart)
        exact = Probe(kmu_chart, pts).curv.riemann
        coarse, fine = (np.abs(riemann(model_metric(kmu_chart), kmu_chart.domain,
                                       pts, h).riemann - exact).max()
                        for h in (2e-3, 1e-3))
        assert coarse / fine >= 8.0


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


def test_each_variant_pair_shares_one_residual():
    # the variant picks the law's (nu, f', B, S) in the Probe, not the
    # residual function
    for a, b in (("NH", "NHP"), ("LIE1", "LIE2"), ("NULL_KMU", "NULL_KMUP"),
                 ("CONN_KMU", "CONN_KMUP")):
        assert IDENTITIES[a].fn is IDENTITIES[b].fn, (a, b)


@pytest.mark.parametrize("case", [
    "baseline", "kmu_chart", "kmup_chart", "kmu_darboux", "kmup_darboux",
    *(f"{v}_darboux_mu{mu}" for v in ("kmu", "kmup") for mu in SWEEP_MUS)])
def test_variant_laws_match_each_variants_own_formulas(request, case):
    # each shared residual, at its variant's law, gives the bits of that
    # variant's own formula: the h' law adds 0 phi h, and -(1 + lam) is
    # -1 - lam and a - (-b) is a + b in IEEE arithmetic
    if "_mu" in case:
        variant, mu = case.split("_darboux_mu")
        model = build_darboux_model(DarbouxParams(variant, mu, (-1.0, 1.0)))
        p = _plan_probe(model, SWEEP_PLAN)
    else:
        model = request.getfixturevalue(case)
        p = _plan_probe(model, PLAN)
    checked = [ident for ident in variant_reference.REFERENCE
               if model.family in IDENTITIES[ident].families]
    assert checked
    for ident in checked:
        assert np.array_equal(IDENTITIES[ident].fn(p),
                              variant_reference.REFERENCE[ident](p)), ident
