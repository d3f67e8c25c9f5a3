"""Matrix ODE: right-hand side, invariants, integrator, CSV export."""

import csv

import numpy as np
import pytest

from kenmotsu3.exprs import parse_expr
from kenmotsu3.ode import (
    M1,
    M2,
    M3,
    ConsistencyError,
    _as_matrix,
    _rk4_span,
    algebraic_residuals,
    check_initial_relations,
    initial_state,
    integrate,
    metric_from_state,
    rhs,
    trajectory_to_csv,
)


def _fhb(y):
    """F, H, B of one state vector as 2x2 matrices."""
    return (_as_matrix(y[0:3]), _as_matrix(y[3:6]), _as_matrix(y[6:9]))


def _max_residual(times, states):
    res = algebraic_residuals(times, states, "kmu")
    return max(float(np.max(v)) for v in res.values())


class TestBasis:
    def test_squares(self):
        assert np.array_equal(M1 @ M1, np.eye(2))
        assert np.array_equal(M3 @ M3, np.eye(2))
        assert np.array_equal(M2 @ M2, -np.eye(2))

    def test_initial_products_oracle(self):
        # direct 2x2 multiplication: F(0)H(0) = M2(-M3) = -M1 = B(0),
        # B(0)F(0) = -M1 M2 = -M3 = H(0), B(0)H(0) = (-M1)(-M3) = M2 = F(0)
        F, H, B = _fhb(initial_state("kmu"))
        assert np.array_equal(F @ H, -M1)
        assert np.array_equal(B @ F, -M3)
        assert np.array_equal(B @ H, M2)

    def test_kmup_initial_products_oracle(self):
        # B(0) = h'(0) = H(0) F(0) = (-M3) M2 = M1
        s = initial_state("kmup")
        F, H, _ = _fhb(s)
        assert np.array_equal(H @ F, M1)
        assert np.array_equal(s[6:9], np.array([1.0, 0.0, 0.0]))


class TestStartupConsistency:
    def test_relations_exact_at_zero(self):
        for variant in ("kmu", "kmup"):
            res = check_initial_relations(variant)
            assert len(res) == 10
            assert all(v == 0.0 for v in res.values()), (variant, res)

    def test_paper_sign_for_b1_breaks_relations(self):
        # with b1(0) = +1 (instead of -1) the product relations are off by
        # exactly 2 at t=0; the startup check would abort on this convention
        bad = np.array([0.0, 1.0, 0.0, 0.0, 0.0, -1.0, 1.0, 0.0, 0.0, 0.0])
        res = algebraic_residuals(0.0, bad, "kmu")
        assert res["prod_FH"] == 2.0
        assert res["prod_BF"] == 2.0
        assert res["F2"] == 0.0  # F, H unaffected


class TestRhs:
    def test_kmup_mu_minus_two_freezes_b(self):
        y = initial_state("kmup")
        d = rhs("kmup", y, 0.3, -2.0)
        assert np.array_equal(d[6:9], np.zeros(3))

    def test_kmu_f_prime_is_twice_h(self):
        y = initial_state("kmu")
        d = rhs("kmu", y, 0.0, 5.0)
        assert np.array_equal(d[0:3], 2.0 * np.asarray(y[3:6]))

    def test_zero_state_zero_derivative(self):
        y = np.zeros(10)
        d = rhs("kmu", y, 0.2, 3.0)
        assert np.array_equal(d[:9], np.zeros(9))


class TestIntegrate:
    def test_node_grid(self):
        tr = integrate("kmu", parse_expr("1", "t"), (-1.0, 1.0), 1e-3)
        assert len(tr.times) == 2001
        assert tr.times[0] == pytest.approx(-1.0)
        assert tr.times[-1] == pytest.approx(1.0)
        assert 0.0 in tr.times

    def test_initial_conditions_at_zero_node(self):
        tr = integrate("kmu", parse_expr("0", "t"), (-0.5, 0.5), 1e-3)
        s0 = tr.dense(np.array([0.0]))[0]
        assert tuple(s0[0:3]) == (0.0, 1.0, 0.0)
        assert tuple(s0[3:6]) == (0.0, 0.0, -1.0)
        assert tuple(s0[6:9]) == (-1.0, 0.0, 0.0)

    def test_kmup_mu_minus_two_b_constant(self):
        tr = integrate("kmup", parse_expr("-2", "t"), (-1.0, 1.0), 1e-3)
        drift = np.max(np.abs(tr.states[:, 6:9] - np.array([1.0, 0.0, 0.0])))
        assert drift <= 1e-12

    def test_traces_vanish_structurally(self):
        # the state lives in the traceless (M1, M2, M3) span by construction
        tr = integrate("kmu", parse_expr("sin(t)", "t"), (-0.3, 0.3), 1e-3)
        for y in tr.states[::60]:
            F, H, B = _fhb(y)
            assert abs(np.trace(F)) <= 1e-14
            assert abs(np.trace(H)) <= 1e-14
            assert abs(np.trace(B)) <= 1e-14

    def test_forward_backward_consistency(self):
        tr = integrate("kmu", parse_expr("1", "t"), (0.0, 1.0), 1e-3)
        back, _ = _rk4_span("kmu", parse_expr("1", "t"), tr.states[-1], 1.0,
                            1000, -1e-3)
        assert np.max(np.abs(back[-1] - tr.states[0])) <= 1e-9

    def test_rk4_halving_reduces_drift_8x(self):
        mu = parse_expr("1", "t")
        worst = []
        for step in (2e-3, 1e-3):
            tr = integrate("kmu", mu, (-1.0, 1.0), step)
            worst.append(_max_residual(tr.times[::10], tr.states[::10]))
        assert worst[0] / worst[1] >= 8.0

    def test_forward_interval_meets_1e_9(self):
        # on [0, 1] (no backward double-exponential growth) the stated
        # 1e-9 invariant bound is comfortably met at step 1e-3
        tr = integrate("kmu", parse_expr("1", "t"), (0.0, 1.0), 1e-3)
        worst = _max_residual(tr.times[::10], tr.states[::10])
        assert worst <= 1e-9

    def test_mu_needs_no_value_past_the_range(self):
        # stages stop at the end nodes: sqrt(t) is defined on [0, 0.1] and
        # sqrt(0.1 - t) on [-0.1, 0.1], though neither is beyond them
        tr = integrate("kmu", parse_expr("sqrt(t)", "t"), (0.0, 0.1), 1e-3)
        assert len(tr.times) == 101
        tr = integrate("kmup", parse_expr("sqrt(0.1 - t)", "t"),
                       (-0.1, 0.1), 1e-3)
        assert len(tr.times) == 201

    def test_step_validation(self):
        with pytest.raises(ValueError):
            integrate("kmu", parse_expr("0", "t"), (-1.0, 1.0), 0.5)
        with pytest.raises(ValueError):
            integrate("kmu", parse_expr("0", "t"), (1.0, 2.0), 1e-3)
        with pytest.raises(ValueError):
            integrate("nope", parse_expr("0", "t"), (-1.0, 1.0), 1e-3)

    def test_dense_exact_at_nodes_and_smooth_between(self):
        tr = integrate("kmu", parse_expr("1", "t"), (-0.2, 0.2), 1e-3)
        assert np.array_equal(tr.dense(np.array([0.1])),
                              tr.states[[np.argmin(np.abs(tr.times - 0.1))]])
        mid = tr.dense(np.array([0.10037]))
        lin = tr.dense(np.array([0.100]))
        assert np.max(np.abs(mid - lin)) < 1e-2  # continuity sanity

    def test_dense_node_rows_and_hermite_between(self):
        tr = integrate("kmup", parse_expr("0.5+0.3*sin(2*t)", "t"),
                       (-0.2, 0.2), 1e-3)
        assert np.array_equal(tr.dense(tr.times), tr.states)
        # off-node rows: cubic Hermite on the bracketing nodes and slopes
        idx = np.array([3, 150, 399])
        s = np.array([0.25, 0.5, 0.9])[:, None]
        ts = tr.times[idx] + s[:, 0] * tr.step
        y0, y1 = tr.states[idx], tr.states[idx + 1]
        d0, d1 = tr.derivs[idx] * tr.step, tr.derivs[idx + 1] * tr.step
        hermite = ((2 * s**3 - 3 * s**2 + 1) * y0 + (s**3 - 2 * s**2 + s) * d0
                   + (-2 * s**3 + 3 * s**2) * y1 + (s**3 - s**2) * d1)
        np.testing.assert_allclose(tr.dense(ts), hermite, rtol=1e-13, atol=0)
        # a mixed batch gives each row what it gives alone
        mixed = tr.dense(np.concatenate([tr.times[:2], ts, tr.times[-1:]]))
        assert np.array_equal(mixed[:2], tr.states[:2])
        assert np.array_equal(mixed[-1], tr.states[-1])
        np.testing.assert_allclose(mixed[2:-1], hermite, rtol=1e-13, atol=0)


def _scalar_mu_rk4(variant, mu, t_range, step):
    """Reference RK4: one scalar mu call per stage, forward then backward."""
    def span(n, h):
        ys = [initial_state(variant)]
        for i in range(n):
            y, t = ys[-1], 0.0 + i * h
            k1 = rhs(variant, y, t, mu(t))
            k2 = rhs(variant, y + 0.5 * h * k1, t + 0.5 * h, mu(t + 0.5 * h))
            k3 = rhs(variant, y + 0.5 * h * k2, t + 0.5 * h, mu(t + 0.5 * h))
            k4 = rhs(variant, y + h * k3, t + h, mu(t + h))
            ys.append(y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
        return ys

    n_back = int(round(-t_range[0] / step))
    n_fwd = int(round(t_range[1] / step))
    return np.array(span(n_back, -step)[:0:-1] + span(n_fwd, step))


class TestArrayPath:
    """mu on the whole stage grid and slopes from the first RK4 stage give
    the states and slopes of a per-step, per-node computation bit for bit."""

    CASES = [(v, m) for v in ("kmu", "kmup")
             for m in ("0.3+0.2*sin(2*t)", "exp(t)-0.5")]

    @pytest.mark.parametrize("variant,mu", CASES)
    def test_states_match_scalar_mu_reference(self, variant, mu):
        expr = parse_expr(mu, "t")
        tr = integrate(variant, expr, (-0.2, 0.2), 1e-3)
        ref = _scalar_mu_rk4(variant, expr, (-0.2, 0.2), 1e-3)
        assert np.array_equal(tr.states, ref)

    @pytest.mark.parametrize("variant,mu", CASES)
    def test_derivs_are_node_slopes(self, variant, mu):
        expr = parse_expr(mu, "t")
        tr = integrate(variant, expr, (-0.2, 0.2), 1e-3)
        mus = expr(tr.times)
        expected = np.array([rhs(variant, tr.states[i], tr.times[i], mus[i])
                             for i in range(len(tr.times))])
        assert np.array_equal(tr.derivs, expected)

    def test_residuals_of_one_node_match_the_stack(self):
        tr = integrate("kmup", parse_expr("exp(t)-0.5", "t"), (-0.2, 0.2), 1e-3)
        stack = algebraic_residuals(tr.times, tr.states, "kmup")
        assert all(v.shape == tr.times.shape for v in stack.values())
        one = algebraic_residuals(tr.times[7], tr.states[7], "kmup")
        for name, v in one.items():
            assert v == pytest.approx(stack[name][7], abs=1e-14), name


class TestMetricFromState:
    def test_initial_is_identity(self):
        assert np.array_equal(metric_from_state(0.0, initial_state("kmu")),
                              np.eye(2))

    def test_symmetry_exact(self):
        st = np.array([0.3, 1.1, 0.2, 0, 0, 0, 0, 0, 0, 0.0])
        g = metric_from_state(0.0, st)
        assert g[0, 1] == g[1, 0]

    def test_det_one_along_trajectory(self):
        tr = integrate("kmu", parse_expr("1", "t"), (0.0, 1.0), 1e-3)
        for t, y in zip(tr.times[::100], tr.states[::100]):
            g = metric_from_state(t, y)
            assert abs(np.linalg.det(g) - 1.0) <= 1e-9

    def test_pd_failure_names_first_bad_node(self):
        times = np.array([-0.3, -0.2, -0.1, 0.0, 0.1])
        states = np.tile(initial_state("kmu"), (5, 1))
        states[3:, 1] = -1.0  # f2 < 0 from the fourth node on
        with pytest.raises(ConsistencyError, match=r"at t=0\.0:"):
            metric_from_state(times, states)
        g = metric_from_state(times[:3], states[:3])
        assert g.shape == (3, 2, 2)

    def test_pd_failure_raises(self):
        st = np.array([0.0, -1.0, 0.0, 0, 0, 0, 0, 0, 0, 0.0])
        with pytest.raises(ConsistencyError):
            metric_from_state(0.0, st)


class TestCsvExport:
    def test_columns_and_rows(self, tmp_path):
        tr = integrate("kmu", parse_expr("1", "t"), (-1.0, 1.0), 1e-3)
        path = tmp_path / "traj.csv"
        trajectory_to_csv(tr, path)
        rows = list(csv.reader(open(path)))
        assert rows[0] == ["t", "f1", "f2", "f3", "h1", "h2", "h3",
                           "b1", "b2", "b3", "lambda", "k",
                           "maxAlgResidual", "detG"]
        assert len(rows) == 2002
        # 17 significant digits round-trip through text
        t0_state = tr.dense(np.array([float(rows[1][0])]))[0]
        assert float(rows[1][1]) == t0_state[0]

    def test_detg_column_forward(self, tmp_path):
        tr = integrate("kmu", parse_expr("0", "t"), (0.0, 1.0), 1e-3)
        path = tmp_path / "t.csv"
        trajectory_to_csv(tr, path)
        rows = list(csv.reader(open(path)))[1:]
        det = np.array([float(r[13]) for r in rows])
        assert np.max(np.abs(det - 1.0)) <= 1e-9
