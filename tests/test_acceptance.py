"""Acceptance suite: one test per criterion, one printed line each.

Every numbered criterion below runs at its stated tolerance; a test collects
every violated part of its criterion and fails with the full list, so a run
documents exactly which stated bound broke and by how much.
"""

import re

import numpy as np

from fd_reference import model_metric, riemann
from kenmotsu3.cli import main as cli_main
from kenmotsu3.exprs import parse_expr
from kenmotsu3.identities import (
    Probe,
    SamplePlan,
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
from kenmotsu3.ode import (
    M1,
    M2,
    M3,
    algebraic_residuals,
    check_initial_relations,
    initial_state,
    integrate,
)
from structure_reference import NULLITY, metric_from_state

PLAN = SamplePlan(grid=5)
CHART_BOX = ((0.0, 1.0), (0.0, 1.0), (-3.0, -1.5))


def _verdict(n, failures):
    line = f"[criterion {n}] " + ("PASS" if not failures else
                                  "FAIL: " + "; ".join(failures))
    print(line)
    assert not failures, line


def _suite_failures(model, ids, plan=PLAN, label=""):
    out = []
    for rep in check_suite(model, ids, plan):
        if rep.verdict == "fail":
            out.append(f"{label}{rep.id} residual {rep.residual:.3e} "
                       f"> {rep.tolerance:g}")
        elif rep.verdict == "not-applicable":
            out.append(f"{label}{rep.id} unexpectedly not applicable")
    return out


def test_criterion_1_baseline_suite():
    failures = []
    model = build_kenmotsu_baseline(1.0)
    ids = ["NABLA_XI", "AK_DETA", "AK_DPHI", "KLEAVES", "CURV1", "L_ID",
           "H2", "QXI"]
    failures += _suite_failures(model, ids)
    # every sectional curvature equals -1 within 5e-6, by FD of the
    # Christoffel symbols
    pts = PLAN.points(model)
    curv = riemann(model_metric(model), model.domain, pts)
    rng = np.random.default_rng(1)
    for _ in range(4):
        x, y = rng.standard_normal(3), rng.standard_normal(3)
        k = curv.sectional(model.g(pts), x, y)
        worst = float(np.max(np.abs(k + 1.0)))
        if worst > 5e-6:
            failures.append(f"sectional curvature deviates {worst:.3e} > 5e-6")
    rep = check_identity(model, NULLITY[model.variant], PLAN)
    if rep.residual > 5e-5:
        failures.append(f"nullity residual {rep.residual:.3e} > 5e-5")
    _verdict(1, failures)


def test_criterion_2_kmu_chart_suite():
    failures = []
    ids = ["NABLA_XI", "H2", "QXI", "NH", "LIE1", "TR_H", "TR_PHI", "TR_HP",
           "GRAD", "RICCI_FORM", "CONN_KMU", "FLAT_LEAF", "DK_ETA", "WEYL3"]
    for mu in ("0", "1", "z+1"):
        model = build_kmu_chart_model(KmuChartParams(mu=mu, f="0", r="0",
                                                     box=CHART_BOX))
        failures += _suite_failures(model, ids, label=f"mu={mu}: ")
        rep = check_identity(model, NULLITY[model.variant], PLAN)
        if rep.residual > 5e-5:
            failures.append(f"mu={mu}: nullity {rep.residual:.3e} > 5e-5")
        pts = PLAN.points(model)
        k, muv, ok = infer_k_mu(model, pts)
        k_err = float(np.max(np.abs(k - model.k_nom(pts))))
        mu_err = float(np.max(np.abs(muv - model.mu_nom(pts))))
        if not np.all(ok) or k_err > 5e-5 or mu_err > 5e-5:
            failures.append(f"mu={mu}: infer_k_mu errors k {k_err:.3e}, "
                            f"mu {mu_err:.3e} > 5e-5")
    _verdict(2, failures)


def test_criterion_3_kmup_chart_suite():
    failures = []
    own = ["CODAZZI_HP", "NHP", "LIE2", "CONN_KMUP", "FLAT_LEAF"]
    shared = ["NABLA_XI", "AK_DETA", "AK_DPHI", "KLEAVES", "CURV1", "L_ID",
              "CURV2", "H2", "QXI", "TR_H", "TR_PHI", "TR_HP", "GRAD",
              "RICCI_FORM", "DK_ETA", "WEYL3"]
    for mu in ("0", "-1"):
        model = build_kmu_prime_chart_model(
            KmupChartParams(mu=mu, f="0", r="0", box=CHART_BOX))
        failures += _suite_failures(model, own + shared, label=f"mu={mu}: ")
        rep = check_identity(model, NULLITY[model.variant], PLAN)
        if rep.residual > 5e-5:
            failures.append(f"mu={mu}: nullity {rep.residual:.3e} > 5e-5")
        # bracket relations [e1,e3] = (1+lam) e1, [e2,e3] = (1-lam) e2;
        # e1 and e2 are coordinate fields, so [e_a, xi] = d_a xi
        at = model.at(PLAN.points(model))
        lam, dxi = at["lam_nom"][0], at["xi"][1]
        br1, br2 = dxi[:, 0], dxi[:, 1]
        w1 = br1 - (1.0 + lam)[:, None] * np.array([1.0, 0, 0])
        w2 = br2 - (1.0 - lam)[:, None] * np.array([0.0, 1, 0])
        worst = max(float(np.max(np.abs(w1))), float(np.max(np.abs(w2))))
        if worst > 1e-6:
            failures.append(f"mu={mu}: bracket relations deviate "
                            f"{worst:.3e} > 1e-6")
    _verdict(3, failures)


def _darboux_common_failures(variant, mu, failures):
    label = f"{variant} mu={mu}: "
    traj = integrate(variant, parse_expr(mu, "t"), (-1.0, 1.0), 1e-3)
    states = traj.dense(traj.times)
    res = algebraic_residuals(states, variant)
    det = float(np.max(res.pop("detG")))
    alg = max(float(np.max(v)) for v in res.values())
    metric_from_state(traj.times, states)  # G positive definite
    if alg > 1e-9:
        failures.append(f"{label}algebraic residual {alg:.3e} > 1e-9")
    if det > 1e-9:
        failures.append(f"{label}detG deviates {det:.3e} > 1e-9")

    model = build_darboux_model(DarbouxParams(variant, mu, (-1.0, 1.0), 1e-3))
    for name, tol in (("PHI12", 1e-9), ("BSQ", 1e-8)):
        rep = check_identity(model, name, PLAN)
        if rep.residual > tol:
            failures.append(f"{label}{name} {rep.residual:.3e} > {tol:g}")
    ts = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
    pts = np.stack([np.zeros(5), np.zeros(5), ts], axis=1)
    h = Probe(model, pts).h
    st = model.trajectory.dense(ts)
    hmat = (st[:, 3, None, None] * M1 + st[:, 4, None, None] * M2
            + st[:, 5, None, None] * M3)
    h_err = float(np.max(np.abs(h[:, :2, :2] - hmat)))
    if h_err > 1e-6:
        failures.append(f"{label}Probe h vs H(t) {h_err:.3e} > 1e-6")
    rep = check_identity(model, NULLITY[model.variant], PLAN)
    if rep.residual > 5e-5:
        failures.append(f"{label}nullity {rep.residual:.3e} > 5e-5")
    return model


def test_criterion_4_darboux_kmu_suite():
    failures = []
    for mu in ("0", "1", "sin(t)"):
        model = _darboux_common_failures("kmu", mu, failures)
        ts = np.array([-0.5, 0.0, 0.5])
        k, muv, ok = infer_k_mu(model, np.stack(
            [np.zeros(3), np.zeros(3), ts], axis=1))
        k_err = float(np.max(np.abs(k - (-1.0 - np.exp(-4.0 * ts)))))
        mu_err = float(np.max(np.abs(muv - parse_expr(mu, "t")(ts))))
        if not np.all(ok) or max(k_err, mu_err) > 5e-5:
            failures.append(f"kmu mu={mu}: infer_k_mu k {k_err:.3e}, "
                            f"mu {mu_err:.3e} > 5e-5")
    _verdict(4, failures)


def test_criterion_5_darboux_kmup_suite():
    failures = []
    for mu in ("0", "1"):
        _darboux_common_failures("kmup", mu, failures)
    # mu_bar = -2: every b_i constant to 1e-12 and nominal k constant
    traj = integrate("kmup", parse_expr("-2", "t"), (-1.0, 1.0), 1e-3)
    drift = float(np.max(np.abs(traj.dense(traj.times)[:, 6:9]
                                - initial_state("kmup")[6:9])))
    if drift > 1e-12:
        failures.append(f"mu=-2: b drift {drift:.3e} > 1e-12")
    k = -1.0 - np.exp(-traj.dense(traj.times)[:, 9]) ** 2
    if float(np.max(np.abs(k - k[0]))) > 1e-12:
        failures.append("mu=-2: nominal k not constant")
    _verdict(5, failures)


def test_criterion_6_convergence_witnesses():
    failures = []
    # FD halving of riemann against the suites' exact curvature (order 4)
    model = build_kmu_chart_model(KmuChartParams(mu="1", box=CHART_BOX))
    pts = SamplePlan(grid=3).points(model)
    exact = Probe(model, pts).curv.riemann
    coarse, fine = (np.abs(riemann(model_metric(model), model.domain, pts,
                                   h).riemann - exact).max()
                    for h in (2e-3, 1e-3))
    ratio = coarse / fine
    if ratio < 8.0:
        failures.append(f"FD halving ratio {ratio:.2f} < 8")
    # Magnus step halving on the suite-4 algebraic residuals, down to the
    # 1e-12 floor
    worst = []
    for step in (2e-3, 1e-3):
        traj = integrate("kmu", parse_expr("1", "t"), (-1.0, 1.0), step)
        res = algebraic_residuals(traj.dense(traj.times), "kmu")
        worst.append(max(float(np.max(v)) for v in res.values()))
    if not (worst[1] <= worst[0] / 8.0 or worst[1] <= 1e-12):
        failures.append(f"Magnus halving ratio {worst[0] / worst[1]:.2f} < 8")
    _verdict(6, failures)


def test_criterion_7_startup_consistency():
    failures = []
    for variant in ("kmu", "kmup"):
        res = check_initial_relations(variant)
        nonzero = {k: v for k, v in res.items() if v != 0.0}
        if nonzero:
            failures.append(f"{variant}: inexact initial relations {nonzero}")
    # the check aborts under a broken composition convention: the stated
    # initial data with b1(0) = +1 leaves product relations off by exactly 2
    bad = np.array([0.0, 1.0, 0.0, 0.0, 0.0, -1.0, 1.0, 0.0, 0.0, 0.0])
    res = algebraic_residuals(bad, "kmu")
    if res["prod_FH"] != 2.0:
        failures.append("wrong-convention detection lost")
    _verdict(7, failures)


def test_criterion_8_determinism(tmp_path):
    failures = []
    texts = []
    for name in ("a", "b"):
        path = tmp_path / f"{name}.json"
        code = cli_main([
            "verify", "--family", "kmu-chart", "--mu", "1",
            "--box", "0,1:0,1:-3,-1.5", "--grid", "3", "--seed", "42",
            "--identities", "NABLA_XI,H2,NULL_KMU,CONN_KMU,FLAT_LEAF",
            "--report", str(path)])
        if code != 0:
            failures.append(f"verify run exited {code}")
        texts.append(re.sub(r'"timestamp": "[^"]*"', '"timestamp": "X"',
                            path.read_text()))
    if texts[0] != texts[1]:
        failures.append("reports differ beyond the timestamp")
    _verdict(8, failures)
