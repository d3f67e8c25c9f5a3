"""Model builders: structure axioms, frames, brackets, serialization."""

import json

import numpy as np
import pytest

from fd_reference import derivatives, partial
from kenmotsu3 import models
from kenmotsu3.cli import build_model, main, make_parser
from kenmotsu3.identities import Probe, SamplePlan
from kenmotsu3.models import (
    DarbouxParams,
    KmuChartParams,
    KmupChartParams,
    build_darboux_model,
    build_kenmotsu_baseline,
    build_kmu_chart_model,
    build_kmu_prime_chart_model,
    model_from_json,
    model_from_params,
    model_to_json,
    parse_box,
)
from kenmotsu3.ode import M3
from kenmotsu3.structure import FAMILIES
from structure_reference import jet, structure_residuals

E1 = np.array([1.0, 0.0, 0.0])
E2 = np.array([0.0, 1.0, 0.0])


def sample(model, grid=3):
    return SamplePlan(grid=grid).points(model)


def phi12(model, pt):
    """Phi(E1, E2) = g(E1, phi E2) at one point."""
    return Probe(model, np.array([pt])).phi2[0, 0, 1]


class TestKmuChart:
    def test_structure_axioms(self):
        m = build_kmu_chart_model(KmuChartParams(mu="z+1", f="sin(z)", r="1"))
        res = structure_residuals(m, sample(m))
        assert max(res.values()) < 1e-12, res

    def test_unit_reeb(self):
        m = build_kmu_chart_model(KmuChartParams())
        pts = sample(m)
        g = m.g(pts)
        xi = m.xi(pts)
        assert np.allclose(np.einsum("ni,nij,nj->n", xi, g, xi), 1.0, atol=1e-12)
        assert np.max(np.abs(np.einsum("nij,nj->ni", m.phi(pts), xi))) < 1e-12

    def test_nominal_k_is_z(self):
        m = build_kmu_chart_model(KmuChartParams())
        assert m.k_nom(np.array([0.0, 0.0, -2.0])) == -2.0

    def test_bracket_e1_xi(self):
        # [e1, e3] = e1 - (lam - mu/2) e2 = e1 - e2 at z=-2 with mu=0; e1 is
        # a coordinate field, so [e1, xi] = d_x xi
        m = build_kmu_chart_model(KmuChartParams())
        br = m.at(np.array([[0.0, 0.0, -2.0]]))["xi"][1][0, 0]
        assert np.allclose(br, [1.0, -1.0, 0.0], atol=1e-6)

    def test_h_eigenvalues(self):
        # h e1 = lam e1 with lam = sqrt(-1-z) = 1 at z = -2
        m = build_kmu_chart_model(KmuChartParams())
        h = Probe(m, np.array([0.0, 0.0, -2.0])).h[0]
        assert np.allclose(h @ E1, E1, atol=1e-6)
        assert np.allclose(h @ E2, -E2, atol=1e-6)

    def test_box_validation(self):
        with pytest.raises(ValueError, match="z <= -1"):
            build_kmu_chart_model(KmuChartParams(
                box=((0, 1), (0, 1), (-2.0, -0.5))))


class TestKmupChart:
    def test_h_prime_eigenvalues_at_z_minus5(self):
        m = build_kmu_prime_chart_model(KmupChartParams())
        pt = np.array([0.0, 0.0, -5.0])
        hp = Probe(m, pt).hp[0]
        assert np.allclose(hp @ E1, 2.0 * E1, atol=1e-6)
        assert np.allclose(hp @ E2, -2.0 * E2, atol=1e-6)

    def test_bracket_e2_xi_vanishes_at_lam_one(self):
        # [e2, e3] = (1 - lam) e2 = 0 at z = -2
        m = build_kmu_prime_chart_model(KmupChartParams())
        br = m.at(np.array([[0.0, 0.0, -2.0]]))["xi"][1][0, 1]
        assert np.max(np.abs(br)) < 1e-6

    def test_frame_orthonormal(self):
        m = build_kmu_prime_chart_model(KmupChartParams(mu="-1", f="z", r="2"))
        pts = sample(m)
        g = m.g(pts)
        xi = m.xi(pts)
        frame = np.stack([np.broadcast_to(E1, xi.shape),
                          np.broadcast_to(E2, xi.shape), xi], axis=2)
        gram = np.einsum("nia,nij,njb->nab", frame, g, frame)
        assert np.max(np.abs(gram - np.eye(3))) < 1e-12

    def test_mu_minus_two_rejected(self):
        with pytest.raises(ValueError, match="vanishes"):
            build_kmu_prime_chart_model(KmupChartParams(mu="-2"))

    def test_structure_axioms(self):
        m = build_kmu_prime_chart_model(KmupChartParams(mu="cos(z)"))
        assert max(structure_residuals(m, sample(m)).values()) < 1e-12


class TestDarboux:
    def test_g_identity_block_at_zero(self):
        m = build_darboux_model(DarbouxParams("kmu", "1", (-0.5, 0.5)))
        g = m.g(np.array([0.3, 0.4, 0.0]))
        assert np.allclose(g, np.eye(3), atol=1e-15)

    def test_phi12_at_zero(self):
        m = build_darboux_model(DarbouxParams("kmu", "0", (-0.5, 0.5)))
        val = phi12(m, [0.0, 0.0, 0.0])
        assert val == pytest.approx(1.0, abs=1e-12)

    def test_phi12_exponential(self):
        m = build_darboux_model(DarbouxParams("kmu", "1", (-1.0, 1.0)))
        val = phi12(m, [0.0, 0.0, 0.5])
        assert val == pytest.approx(np.exp(1.0), abs=1e-9)

    def test_h_at_zero_is_minus_m3_block(self):
        m = build_darboux_model(DarbouxParams("kmu", "sin(t)", (-0.5, 0.5)))
        h = Probe(m, np.array([0.0, 0.0, 0.0])).h[0]
        assert np.allclose(h[:2, :2], np.array([[0.0, -1.0], [-1.0, 0.0]]),
                           atol=1e-6)
        assert np.max(np.abs(h[2, :])) < 1e-9

    def test_h_matches_trajectory_h(self):
        m = build_darboux_model(DarbouxParams("kmu", "1", (-0.5, 0.5)))
        ts = np.array([-0.5, -0.25, 0.0, 0.25, 0.5])
        pts = np.stack([np.zeros(5), np.zeros(5), ts], axis=1)
        h = Probe(m, pts).h
        states = m.trajectory.dense(ts)
        from kenmotsu3.ode import M1, M2, M3
        hmat = (states[:, 3, None, None] * M1 + states[:, 4, None, None] * M2
                + states[:, 5, None, None] * M3)
        assert np.max(np.abs(h[:, :2, :2] - hmat)) < 1e-6

    def test_kmup_mu_minus_two_constant_k(self):
        m = build_darboux_model(DarbouxParams("kmup", "-2", (-1.0, 1.0)))
        ts = np.stack([np.zeros(5), np.zeros(5),
                       np.linspace(-1, 1, 5)], axis=1)
        assert np.max(np.abs(m.lam_nom(ts) - 1.0)) <= 1e-12
        assert np.max(np.abs(m.k_nom(ts) + 2.0)) <= 1e-12

    def test_structure_axioms(self):
        for variant, mu in (("kmu", "1"), ("kmup", "0")):
            m = build_darboux_model(DarbouxParams(variant, mu, (-0.5, 0.5)))
            res = structure_residuals(m, sample(m))
            assert max(res.values()) < 1e-9, (variant, res)

    def test_eigen_lambda_at_zero(self):
        m = build_darboux_model(DarbouxParams("kmu", "1", (-0.5, 0.5)))
        ef = Probe(m, np.array([[0.0, 0.0, 0.0]])).eigen
        assert ef.lam[0] == pytest.approx(1.0, abs=1e-6)


DARBOUX_CASES = [(v, mu) for v in ("kmu", "kmup") for mu in ("0", "1", "sin(t)")]


class TestDarbouxExactPartials:
    """The Darboux fields take their t-partials from the frame P of the
    flow P' = P W, the same way for both variants."""

    @pytest.fixture(scope="class", params=DARBOUX_CASES,
                    ids=lambda c: f"{c[0]}-mu{c[1]}")
    def model(self, request):
        return build_darboux_model(DarbouxParams(*request.param, (-1.0, 1.0)))

    @staticmethod
    def _pts(ts):
        return np.stack([np.full(len(ts), 0.3), np.full(len(ts), 0.7), ts], 1)

    def _assert_h_is_the_frame_h(self, model, ts):
        # h = (1/2) d_t phi = (1/2) F' is formed from the lookup's (P, f) in
        # long double and rounded once: within eps |H| + eps_LD (|h2| +
        # |h3|) of H = -lam P M3 P^-1 formed in long double from the same
        # lookup (P^-1 the adjugate, as det P = 1), whose entries cancel
        # (measured at most 0.50 of that), and h xi = 0, eta o h = 0 exactly
        p, f = model.trajectory.solution(ts)
        adj = np.stack([p[:, 1, 1], -p[:, 0, 1], -p[:, 1, 0], p[:, 0, 0]],
                       axis=-1).reshape(-1, 2, 2)
        exact = -np.exp(-f)[:, None, None] * (p @ M3 @ adj)
        scale = (np.abs(exact[:, 0, 1] - exact[:, 1, 0])
                 + np.abs(exact[:, 0, 1] + exact[:, 1, 0]))[:, None, None] / 2
        h = Probe(model, self._pts(ts)).h
        assert np.all(np.abs(h[:, :2, :2] - exact)
                      <= np.finfo(float).eps * np.abs(exact)
                      + np.finfo(np.longdouble).eps * scale)
        assert not h[:, 2, :].any() and not h[:, :, 2].any()
        return h[:, :2, :2]

    def test_h_at_nodes_is_the_state_h(self, model):
        traj = model.trajectory
        ts = traj.times[(traj.times >= -1.0 - 1e-12) & (traj.times <= 1.0 + 1e-12)]
        self._assert_h_is_the_frame_h(model, ts)

    def test_h_off_nodes_is_h_of_the_dense_state(self, model):
        # off the nodes, too; and the lookup's one partial Magnus step from
        # the nearest node gives the h that a trajectory at half the step
        # has at its nodes, within 2 eps (measured 1.0 eps)
        traj = model.trajectory
        ts = (np.arange(-999, 999, 7) + 0.5) * traj.step
        assert np.all(np.abs(ts / traj.step - np.round(ts / traj.step)) > 0.3)
        h = self._assert_h_is_the_frame_h(model, ts)
        fine = build_darboux_model(DarbouxParams(
            traj.variant, model.params["mu"], (-1.0, 1.0), traj.step / 2))
        ref = Probe(fine, self._pts(ts)).h[:, :2, :2]
        assert np.all(np.abs(h - ref) <= 2 * np.finfo(float).eps * np.abs(ref))

    def test_exact_partials_match_fd(self, model):
        # 5-point FD at the node step errs by its 4th-order truncation:
        # measured up to 1.6e-7 of max |d_t field| (kmup mu=1, t=-1) and at
        # most 4.5e-9 on the other models
        # (xi and eta are constant: exact zeros, and FD reads 4e-14)
        pts = self._pts(np.linspace(-1.0, 1.0, 11))
        for name in ("phi", "g", "xi", "eta", "k_nom", "mu_nom", "lam_nom"):
            field = getattr(model, name)
            exact = jet(model, name, 1)(pts)
            assert not exact[:, :2].any(), name
            fd = partial(field, model.domain, pts, 2)
            axes = tuple(range(1, fd.ndim))
            err = np.abs(fd - exact[:, 2]).max(axis=axes, initial=0.0)
            scale = np.abs(exact[:, 2]).max(axis=axes, initial=0.0)
            if name in ("xi", "eta") or not scale.any():  # constant mu too
                assert not exact.any() and np.all(err <= 1e-12), name
            else:
                assert np.all(err <= 1e-6 * scale), name

    def test_second_partials_match_fd_of_the_partials(self, model):
        # F'' = 2H' and G'' = -M2 F'' against 5-point FD of F' and G' at the
        # node step: measured up to 1.1e-6 of max |d_t^2 field| (kmup mu=1,
        # t=-1, a one-sided stencil) and at most 3.6e-8 on the other models
        pts = self._pts(np.linspace(-1.0, 1.0, 11))
        for name in ("phi", "g", "xi"):
            exact = jet(model, name, 2)(pts)
            assert not exact[:, :2].any() and not exact[:, 2, :2].any(), name
            fd = partial(jet(model, name, 1), model.domain, pts, 2)[:, 2]
            axes = tuple(range(1, fd.ndim))
            err = np.abs(fd - exact[:, 2, 2]).max(axis=axes)
            scale = np.abs(exact[:, 2, 2]).max(axis=axes)
            if name == "xi":
                assert not exact.any() and not fd.any()
            else:
                assert np.all(err <= 5e-6 * scale), name


# mu, f, r of the form the chart benchmark draws (seeds 1-2)
CHART_CASES = [
    (build_kmu_chart_model, KmuChartParams,
     "-0.378 - 0.143*z + 0.172*sin(1.0*z)", "-0.451*cos(1.563*z)",
     "-0.0704*z^2 - 0.504"),
    (build_kmu_prime_chart_model, KmupChartParams,
     "0.176 + 0.0081*z + 0.159*sin(1.714*z)", "0.0107*cos(0.804*z)",
     "-0.0268*z^2 - 0.624"),
    (build_kmu_chart_model, KmuChartParams,
     "0.429 - 0.0139*z + 0.216*sin(1.223*z)", "-0.159*cos(1.962*z)",
     "0.103*z^2 + 0.088"),
    (build_kmu_prime_chart_model, KmupChartParams,
     "-0.170 + 0.0351*z + 0.137*sin(1.410*z)", "0.320*cos(1.993*z)",
     "-0.0654*z^2 - 0.979"),
]
BASE_FIELDS = ("phi", "xi", "eta", "g", "k_nom", "mu_nom", "lam_nom")


class TestChartExactPartials:
    """The chart fields carry exact partials, by the quotient rule from those
    of (a, b, c) and from Expr.jet."""

    @pytest.fixture(scope="class", params=CHART_CASES,
                    ids=lambda c: c[0].__name__)
    def model(self, request):
        build, params, mu, f, r = request.param
        return build(params(mu, f, r))

    def test_exact_partials_match_fd(self, model):
        # 5-point FD at h_rel 1e-3 errs by its 4th-order truncation and its
        # rounding: measured at most 9.1e-10 of max |exact| over each field
        # here, and 9.4e-10 on the chart benchmark's grid-9 inputs of seeds 1-3
        pts = sample(model, grid=5)
        for name in BASE_FIELDS:
            field = getattr(model, name)
            exact = jet(model, name, 1)(pts)
            fd = derivatives(field, model.domain, pts)
            assert np.abs(fd - exact).max() <= 5e-9 * np.abs(exact).max(), name

    def test_second_partials_match_fd_of_the_partials(self, model):
        # the jets' Hessians against FD of their gradients: measured at most
        # 2.2e-9 of max |exact| over each field here
        pts = sample(model, grid=5)
        for name in ("phi", "xi", "eta", "g"):
            exact = jet(model, name, 2)(pts)
            fd = derivatives(jet(model, name, 1), model.domain, pts)
            assert np.abs(fd - exact).max() <= 5e-9 * np.abs(exact).max(), name


class TestBaseline:
    def test_h_vanishes(self):
        m = build_kenmotsu_baseline(1.0)
        h = Probe(m, np.array([0.3, -0.4, 0.2])).h[0]
        assert np.max(np.abs(h)) < 1e-8

    def test_structure_axioms(self):
        m = build_kenmotsu_baseline(2.5)
        assert max(structure_residuals(m, sample(m)).values()) < 1e-12

    def test_closed_form_partials(self):
        # w = c^2 e^{2t}: w' = 2w and w'' = 4w, and every other field is
        # constant; FD of the values agrees to rounding (measured 6.9e-13)
        m = build_kenmotsu_baseline(2.0)
        pts = sample(m)
        for name in BASE_FIELDS:
            field = getattr(m, name)
            fd = derivatives(field, m.domain, pts)
            assert np.abs(fd - jet(m, name, 1)(pts)).max() <= 1e-11 * max(
                1.0, np.abs(fd).max()), name
        w = (2.0 * np.exp(pts[:, 2])) ** 2
        ddg = jet(m, "g", 2)(pts)
        assert np.array_equal(ddg[:, 2, 2, 0, 0], 4.0 * w)
        assert np.array_equal(ddg[:, 2, 2, 1, 1], 4.0 * w)
        ddg[:, 2, 2, 0, 0] = ddg[:, 2, 2, 1, 1] = 0.0
        assert not ddg.any() and not jet(m, "phi", 2)(pts).any()
        assert not jet(m, "xi", 2)(pts).any()

    def test_positive_c_required(self):
        with pytest.raises(ValueError):
            build_kenmotsu_baseline(0.0)


class TestDkWedgeEta:
    def test_chart_models_exact(self):
        # k depends only on z and eta is proportional to dz, so dk ^ eta = 0
        # holds to strict tolerance by construction
        from kenmotsu3.identities import check_identity
        for m in (build_kmu_chart_model(KmuChartParams(mu="1")),
                  build_kmu_prime_chart_model(KmupChartParams(mu="1"))):
            rep = check_identity(m, "DK_ETA", SamplePlan(grid=3))
            assert rep.residual <= 1e-12, m.family


# a model of each family by its builder
BUILD = {
    "kenmotsu-baseline": lambda: build_kenmotsu_baseline(2.0),
    "kmu-chart": lambda: build_kmu_chart_model(
        KmuChartParams(mu="z+1", f="0", r="1")),
    "kmup-chart": lambda: build_kmu_prime_chart_model(KmupChartParams(
        mu="cos(z)", f="z", r="2", box=((0.0, 0.5), (0.0, 1.0), (-2.5, -1.5)))),
    "kmu-darboux": lambda: build_darboux_model(
        DarbouxParams("kmu", "sin(t)", (-0.25, 0.25))),
    "kmup-darboux": lambda: build_darboux_model(DarbouxParams(
        "kmup", "1", (-0.25, 0.25), 2e-3, ((0.0, 2.0), (0.0, 1.0)))),
}


# the CLI flags of the same models
CLI_FLAGS = {
    "kenmotsu-baseline": ["--family", "kenmotsu", "--c", "2"],
    "kmu-chart": ["--family", "kmu-chart", "--mu", "z+1", "--f", "0",
                  "--r", "1"],
    "kmup-chart": ["--family", "kmup-chart", "--mu", "cos(z)", "--f", "z",
                   "--r", "2", "--box", "0,0.5:0,1:-2.5,-1.5"],
    "kmu-darboux": ["--family", "kmu-darboux", "--mu", "sin(t)",
                    "--t-range", "-0.25", "0.25"],
    "kmup-darboux": ["--family", "kmup-darboux", "--mu", "1",
                     "--t-range", "-0.25", "0.25", "--step", "2e-3",
                     "--box", "0,2:0,1:-1,1"],
}


def _same_model(m, m2):
    """The same fields bit for bit on a grid-3 plan, and the same states."""
    assert m2.family == m.family
    pts = sample(m)
    for name in ("phi", "xi", "eta", "g", "k_nom", "mu_nom", "lam_nom"):
        assert np.array_equal(getattr(m, name)(pts), getattr(m2, name)(pts)), name
    if m.trajectory is not None:
        tr, tr2 = m.trajectory, m2.trajectory
        assert np.array_equal(tr.dense(tr.times), tr2.dense(tr2.times))


class TestSerialization:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_roundtrip(self, family):
        m = BUILD[family]()
        doc = model_to_json(m)
        assert ("trajectory" in doc) == family.endswith("-darboux")
        assert "states" not in doc.get("trajectory", {})
        m2 = model_from_json(json.dumps(doc))
        _same_model(m, m2)
        assert model_to_json(m2) == doc

    @pytest.mark.parametrize("family", FAMILIES)
    def test_cli_build_roundtrip(self, family, tmp_path):
        out = tmp_path / "m.json"
        argv = ["build", *CLI_FLAGS[family], "--out", str(out)]
        assert main(argv) == 0
        m = build_model(make_parser().parse_args(argv))
        m2 = model_from_json(out.read_text())
        _same_model(m, m2)
        _same_model(BUILD[family](), m2)
        assert json.dumps(model_to_json(m2), indent=2) + "\n" == out.read_text()

    def test_parse_box(self):
        assert parse_box("0,1:0,1:-3,-1.5") == ((0, 1), (0, 1), (-3, -1.5))
        with pytest.raises(ValueError):
            parse_box("0,1:0,1")
        with pytest.raises(ValueError):
            parse_box("1,0:0,1:-3,-1.5")


@pytest.mark.parametrize("family,builder", [
    ("kmu-chart", "build_kmu_chart_model"),
    ("kmup-chart", "build_kmu_prime_chart_model"),
])
def test_chart_builders_are_read_at_call_time(monkeypatch, family, builder):
    # a wrapper installed on a builder's module name, as a tracer installs
    # one, runs when model_from_params builds that family
    calls, original = [], getattr(models, builder)

    def wrapped(params):
        calls.append(params)
        return original(params)

    monkeypatch.setattr(models, builder, wrapped)
    model = model_from_params(family, {"mu": "1", "f": "0", "r": "0",
                                       "box": [[0, 1], [0, 1], [-3, -1.5]]})
    assert model.family == family and len(calls) == 1
