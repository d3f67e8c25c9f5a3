"""Matrix ODE: right-hand side, invariants, integrator, CSV export."""

import csv
import io
import re
import tracemalloc

import numpy as np
import pytest
from magnus_reference import (
    _as_matrix,
    comm,
    expm,
    generator,
    magnus_exponent,
    matrix_residuals,
    rhs,
)

from kenmotsu3 import models, ode
from kenmotsu3.exprs import parse_expr
from kenmotsu3.models import DarbouxParams, build_darboux_model
from kenmotsu3.ode import (
    M1,
    M2,
    M3,
    ConsistencyError,
    _CHUNK,
    _GAUSS_C,
    _GAUSS_W,
    _SQRT15,
    _bracket,
    _expm,
    _magnus_exponent,
    _steps,
    _write_states,
    algebraic_residuals,
    check_initial_relations,
    initial_state,
    integrate,
    trajectory_to_csv,
)
from structure_reference import metric_from_state


def _fhb(y):
    """F, H, B of one state vector as 2x2 matrices."""
    return (_as_matrix(y[0:3]), _as_matrix(y[3:6]), _as_matrix(y[6:9]))


def _norm(m):
    """The largest row sum of each matrix of a stack."""
    return np.max(np.sum(np.abs(m), axis=-1), axis=-1)


def _max_residual(times, states):
    res = algebraic_residuals(states, "kmu")
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
        res = algebraic_residuals(bad, "kmu")
        assert res["prod_FH"] == 2.0
        assert res["prod_BF"] == 2.0
        assert res["F2"] == 0.0  # F, H unaffected


class TestStartupCheckOnce:
    """integrate runs the startup check once per variant and process."""

    @pytest.fixture
    def checks(self, monkeypatch):
        """The variants check_initial_relations runs for, from a cleared
        cache; cleared again after the test."""
        calls, check = [], ode.check_initial_relations
        monkeypatch.setattr(ode, "check_initial_relations",
                            lambda variant: calls.append(variant) or check(variant))
        ode._startup_check.cache_clear()
        yield calls
        ode._startup_check.cache_clear()

    def test_each_variant_checked_once(self, checks):
        for variant in ("kmu", "kmup", "kmu", "kmup", "kmu"):
            integrate(variant, parse_expr("1", "t"), (-0.01, 0.01), 1e-3)
        assert checks == ["kmu", "kmup"]

    def test_failing_check_raises_on_every_call(self, monkeypatch, checks):
        # a failure is not cached: once the basis is whole, the check runs
        # again and passes
        with monkeypatch.context() as m:
            m.setattr(ode, "M2", ode.M1)  # M2 M2 = I, not -I
            for _ in range(2):
                with pytest.raises(ConsistencyError, match="basis matrices"):
                    integrate("kmu", parse_expr("1", "t"), (-0.01, 0.01), 1e-3)
        integrate("kmu", parse_expr("1", "t"), (-0.01, 0.01), 1e-3)
        integrate("kmu", parse_expr("1", "t"), (-0.01, 0.01), 1e-3)
        assert checks == ["kmu"] * 3

    def test_public_check_returns_a_fresh_dict(self):
        first = check_initial_relations("kmu")
        first["F2"] = 1.0
        assert check_initial_relations("kmu")["F2"] == 0.0


# twelve trajectories on [-1, 1] at step 1e-3
TWELVE = [*[("kmu", m) for m in ("0", "1", "sin(t)", "0.3+0.2*sin(2*t)", "-2", "3")],
          *[("kmup", m) for m in ("0", "1", "sin(t)", "0.3+0.2*sin(2*t)", "-2",
                                  "-0.2")]]


class TestClosedFormInvariants:
    """``algebraic_residuals`` on the (M1, M2, M3) coefficients against the
    2x2 matrix products of ``magnus_reference.matrix_residuals``."""

    # measured at most 3.32 eps_LD max|y|^2 (kmu, mu = 3)
    PRODUCT_BOUND = 8

    @pytest.mark.parametrize("variant,mu", TWELVE)
    def test_matches_the_matrix_products(self, variant, mu):
        # the squares and det G round as the products' diagonals, bit for
        # bit; the anticommutators and products sum otherwise, within a few
        # long-double roundings of the squared state size
        tr = integrate(variant, parse_expr(mu, "t"), (-1.0, 1.0), 1e-3)
        states = tr.dense(tr.times)
        closed = algebraic_residuals(states, variant)
        ref = matrix_residuals(states, variant)
        assert list(closed) == list(ref)
        for name in ("F2", "H2", "B2", "detG"):
            assert np.array_equal(closed[name], ref[name]), name
        bound = (self.PRODUCT_BOUND * np.finfo(np.longdouble).eps
                 * np.max(np.abs(states[:, :9]), axis=1) ** 2)
        for name in list(ref)[3:9]:
            assert np.all(np.abs(closed[name] - ref[name]) <= bound), name
        # exact at t = 0
        zero = int(np.flatnonzero(tr.times == 0.0)[0])
        assert all(v[zero] == 0.0 for v in closed.values())


class TestRhs:
    def test_kmup_mu_minus_two_freezes_b(self):
        y = initial_state("kmup")
        d = rhs("kmup", y, -2.0)
        assert np.array_equal(d[6:9], np.zeros(3))

    def test_kmu_f_prime_is_twice_h(self):
        y = initial_state("kmu")
        d = rhs("kmu", y, 5.0)
        assert np.array_equal(d[0:3], 2.0 * np.asarray(y[3:6]))

    def test_zero_state_zero_derivative(self):
        y = np.zeros(10)
        d = rhs("kmu", y, 3.0)
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
        drift = np.max(np.abs(tr.dense(tr.times)[:, 6:9]
                              - np.array([1.0, 0.0, 0.0])))
        assert drift <= 1e-12

    def test_kmu_f_is_twice_t(self):
        # lam = e^{-f} in both variants; kmu's f = 2t is set exactly, so its
        # lam is e^{-2t} bit for bit
        tr = integrate("kmu", parse_expr("sin(t)", "t"), (-0.3, 0.3), 1e-3)
        assert np.array_equal(tr.f, 2 * tr.times)
        assert np.array_equal(np.exp(-tr.dense(tr.times)[:, 9].astype(float)),
                              np.exp(-2.0 * tr.times))

    def test_traces_vanish_structurally(self):
        # the state lives in the traceless (M1, M2, M3) span by construction
        tr = integrate("kmu", parse_expr("sin(t)", "t"), (-0.3, 0.3), 1e-3)
        for y in tr.dense(tr.times[::60]):
            F, H, B = _fhb(y)
            assert abs(np.trace(F)) <= 1e-14
            assert abs(np.trace(H)) <= 1e-14
            assert abs(np.trace(B)) <= 1e-14

    def test_forward_backward_consistency(self):
        # the Gauss-node Magnus step is time-symmetric: stepping the last
        # node's frame back through the exponents of the same steps taken
        # backward undoes the forward span up to rounding (measured 1.3e-18)
        mu = parse_expr("1", "t")
        tr = integrate("kmu", mu, (0.0, 1.0), 1e-3)
        t = tr.times[::-1].astype(np.longdouble)
        mu_stage, _, rise_stage = _steps("kmu", mu, t[:-1], t[1:])
        om = _magnus_exponent("kmu", t[1:] - t[:-1], mu_stage,
                              2 * t[:-1, None] + rise_stage)
        p = tr.frames[-1]
        for e in _expm(om):
            p = p @ e
        back = _write_states("kmu", p, np.longdouble(0))
        assert np.max(np.abs(back - tr.dense(tr.times[0]))) <= 1e-15

    def test_states_converge_at_sixth_order(self):
        # against a step-1.25e-4 run, each halving of the step divides the
        # largest error relative to each node's largest component by about
        # 64 (measured 2.5e-12, 3.9e-14 and 6.2e-16 at steps 1e-2, 5e-3 and
        # 2.5e-3, ratios 63.9), far above the long-double rounding of 1e-17
        mu = parse_expr("1", "t")
        fine = integrate("kmu", mu, (-1.0, 1.0), 1.25e-4)
        fine = fine.dense(fine.times)[:, :9]
        errs = []
        for step in (1e-2, 5e-3, 2.5e-3):
            ref = fine[::round(step / 1.25e-4)]
            tr = integrate("kmu", mu, (-1.0, 1.0), step)
            ys = tr.dense(tr.times)[:, :9]
            errs.append(np.max(np.abs(ys - ref)
                               / np.max(np.abs(ref), axis=1, keepdims=True)))
        assert errs[0] / errs[1] >= 48 and errs[1] / errs[2] >= 48, errs

    def test_forward_interval_meets_1e_9(self):
        # on [0, 1] (no backward double-exponential growth) the stated
        # 1e-9 invariant bound is comfortably met at step 1e-3
        tr = integrate("kmu", parse_expr("1", "t"), (0.0, 1.0), 1e-3)
        worst = _max_residual(tr.times[::10], tr.dense(tr.times[::10]))
        assert worst <= 1e-9

    def test_mu_needs_no_value_past_the_range(self):
        # stages stop at the end nodes: sqrt(t) is defined on [0, 0.1] and
        # sqrt(0.1 - t) on [-0.1, 0.1], though neither is beyond them
        tr = integrate("kmu", parse_expr("sqrt(t)", "t"), (0.0, 0.1), 1e-3)
        assert len(tr.times) == 101
        tr = integrate("kmup", parse_expr("sqrt(0.1 - t)", "t"),
                       (-0.1, 0.1), 1e-3)
        assert len(tr.times) == 201

    def test_overflow_names_first_non_finite_node(self):
        # the h variant's components grow like exp(lam) backward in time;
        # their slopes leave the float64 range near t = -3.27, before the
        # states and long before the long-double range, and every reader
        # of the states works in float64
        mu = parse_expr("0", "t")
        with pytest.raises(ConsistencyError, match="non-finite in float64 at t=") as info:
            integrate("kmu", mu, (-4.0, 0.1), 1e-3)
        t_bad = float(re.search(r"t=(\S+)", str(info.value)).group(1))
        with pytest.raises(ConsistencyError, match=f"t={t_bad}$"):
            integrate("kmu", mu, (t_bad, 0.1), 1e-3)
        tr = integrate("kmu", mu, (t_bad + 1e-3, 0.1), 1e-3)
        assert np.isfinite(rhs("kmu", tr.dense(tr.times), 0.0).astype(float)).all()
        assert np.isfinite(tr.dense(tr.times).astype(float)).all()

    def test_dense_rejects_nan(self):
        # NaN lies in no range: a scalar NaN and a NaN in a batch raise
        # instead of reading the first node
        tr = integrate("kmu", parse_expr("0", "t"), (-0.1, 0.1), 1e-3)
        for ts in (np.nan, [0.0, np.nan]):
            with pytest.raises(ValueError, match="outside"):
                tr.dense(ts)

    def test_step_validation(self):
        with pytest.raises(ValueError):
            integrate("kmu", parse_expr("0", "t"), (-1.0, 1.0), 0.5)
        with pytest.raises(ValueError):
            integrate("kmu", parse_expr("0", "t"), (1.0, 2.0), 1e-3)
        with pytest.raises(ValueError):
            integrate("nope", parse_expr("0", "t"), (-1.0, 1.0), 1e-3)
        # a range whose ends both round to t = 0 holds no step
        for t_range in ((-0.004, 0.004), (0.0, 0.004), (-0.004, 0.0)):
            with pytest.raises(ValueError, match="single node t=0"):
                integrate("kmu", parse_expr("0", "t"), t_range, 1e-2)
        tr = integrate("kmu", parse_expr("0", "t"), (-0.004, 0.006), 1e-2)
        assert tr.times.tolist() == [0.0, 0.01]

    def test_peak_memory(self):
        # the quadratures take one direction after the other, mu's sample
        # times are written straight into one float64 array, the exponents
        # and checked slopes are formed in blocks and not kept, and only
        # (P, f) is stored: the peak (about 643,300 bytes; 931,500 with the
        # (m, 10) states stored beside the frames) stays within the
        # 1,162,982 that stepping the 3x3 flow one direction after the
        # other, all in long double, took
        mu = parse_expr("0.3+0.2*sin(2*t)", "t")
        integrate("kmup", mu, (-1.0, 1.0), 1e-3)
        tracemalloc.start()
        try:
            integrate("kmup", mu, (-1.0, 1.0), 1e-3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1_162_982

    def test_dense_exact_at_nodes_and_smooth_between(self):
        tr = integrate("kmu", parse_expr("1", "t"), (-0.2, 0.2), 1e-3)
        i = [np.argmin(np.abs(tr.times - 0.1))]
        node = _write_states("kmu", tr.frames[i], tr.f[i])
        assert np.array_equal(tr.dense(np.array([0.1])), node)
        mid = tr.dense(np.array([0.10037]))
        lin = tr.dense(np.array([0.100]))
        assert np.max(np.abs(mid - lin)) < 1e-2  # continuity sanity

    @pytest.mark.parametrize("variant", ["kmu", "kmup"])
    def test_dense_node_rows_and_mixed_batches(self, variant):
        tr = integrate(variant, parse_expr("0.5+0.3*sin(2*t)", "t"),
                       (-0.2, 0.2), 1e-3)
        frames, f = tr.frames.copy(), tr.f.copy()
        states = _write_states(variant, frames, f)
        assert np.array_equal(tr.dense(tr.times), states)
        # a mixed batch gives each row what it gives alone
        ts = tr.times[[3, 150, 399]] + np.array([0.25, 0.5, 0.9]) * tr.step
        mixed = tr.dense(np.concatenate([tr.times[:2], ts, tr.times[-1:]]))
        assert np.array_equal(mixed[:2], states[:2])
        assert np.array_equal(mixed[-1], states[-1])
        alone = np.stack([tr.dense(t) for t in ts])
        assert np.array_equal(mixed[2:-1], alone)
        # a scalar time reads a copy: the stored (P, f) stay as integrated
        assert np.array_equal(tr.frames, frames) and np.array_equal(tr.f, f)


def _per_step_magnus(variant, mu, t_range, step):
    """The 3x3 oracle (``magnus_reference``): the states themselves stepped
    by exp(Omega) of h a(t) at the Gauss nodes, scalar mu calls, one step at
    a time, forward then backward over the nodes of ``integrate``.  For
    kmup it converges to the closed form at sixth order."""
    def span(n, h):
        ys = [initial_state(variant).astype(np.longdouble)]
        for i in range(n):
            y, t = ys[-1].copy(), np.longdouble(i * h)
            dt = np.longdouble((i + 1) * h) - t
            off = dt * _GAUSS_C
            mus = np.array([mu(float(t + o)) for o in off], np.longdouble)
            if variant == "kmu":
                lam2 = np.exp(-4 * (t + off))
                y[9] = 2 * (t + dt)
            else:
                quad = np.array([[mu(float(o * c + t)) for c in _GAUSS_C]
                                 for o in off])
                lam2 = np.exp(-2 * (y[9] + off * (quad @ _GAUSS_W + 2)))
                y[9] += dt * ((mus + 2) @ _GAUSS_W)
            a = generator(variant, lam2, mus)[None] * dt
            e = expm(magnus_exponent(a))[0]
            y[:9] = (e @ ys[-1][:9].reshape(3, 3)).ravel()
            ys.append(y)
        return ys

    n_back = int(round(-t_range[0] / step))
    n_fwd = int(round(t_range[1] / step))
    return np.array(span(n_back, -step)[:0:-1] + span(n_fwd, step))


def _per_step_reference(variant, mu, t_range, step):
    """The states and frames ``integrate`` gives, one step at a time,
    forward then backward over its nodes: scalar mu calls, each step's
    exponent from mu and f at its Gauss nodes, and the frame P the product
    of the steps' exponentials (kmu) or diag(e^a, e^-a) of their running
    sum a (kmup).  kmu's product is taken in the scan's order: the frame at
    the start of each chunk of _CHUNK steps times the running product of
    the chunk's exponentials."""
    def span(n, h):
        ys = [initial_state(variant).astype(np.longdouble)]
        ps = [np.eye(2, dtype=np.longdouble)]
        a = np.longdouble(0)
        for i in range(n):
            t = np.longdouble(i * h)
            dt = np.longdouble((i + 1) * h) - t
            off = dt * _GAUSS_C
            mus = np.array([mu(float(t + o)) for o in off])
            if variant == "kmu":
                rise, rise_stage = 2 * dt, off * 2
            else:
                quad = np.array([[mu(float(o * c + t)) for c in _GAUSS_C]
                                 for o in off])
                rise = dt * ((mus.astype(np.longdouble) + 2) @ _GAUSS_W)
                rise_stage = off * (quad @ _GAUSS_W + 2)
            om = _magnus_exponent(variant, np.array([dt]), mus[None],
                                  (ys[-1][9] + rise_stage)[None])
            if variant == "kmu":
                x = _expm(om)[0]
                if i % _CHUNK == 0:
                    start, run = ps[-1], x
                else:
                    run = run @ x
                p = start @ run
            else:
                a += om[0, 0]
                p = np.diag([np.exp(a), np.exp(-a)])
            ys.append(_write_states(variant, p, ys[-1][9] + rise))
            ps.append(p)
        return ys, ps

    n_back = int(round(-t_range[0] / step))
    n_fwd = int(round(t_range[1] / step))
    back, fwd = span(n_back, -step), span(n_fwd, step)
    return tuple(np.array(b[:0:-1] + f) for b, f in zip(back, fwd))


def _slope_check(variant, mu_bar, times, frames, f, n0):
    """The finite check as the slopes of every node decide it: the index of
    the node whose state or slope a(t) Y has no finite float64 value, the
    one fewest steps from ``n0``, the later on a tie; None if there is no
    such node.  The states of every node are written from its P and f."""
    with np.errstate(over="ignore", invalid="ignore"):
        states = _write_states(variant, frames, f)
        slopes = rhs(variant, states, mu_bar(times))
    finite = (np.abs(states) <= np.finfo(float).max) \
        & (np.abs(slopes) <= np.finfo(float).max)
    bad = np.flatnonzero(~finite.all(axis=-1))
    return bad[np.argmin(2 * np.abs(bad - n0) + (bad < n0))] if len(bad) else None


def _entry_bound(frames, f):
    """max(1, lam) |P|_F^2 of each node, the finite check's bound on every
    entry of F, H and B."""
    return np.maximum(1, np.exp(-f)) * np.sum(frames * frames, axis=(1, 2))


class TestFiniteCheck:
    """The bound-first check names the node the slopes of every node name."""

    @staticmethod
    def _assert_bound_covers_the_states(variant, frames, f):
        # where the bound is finite it is at least each node's largest
        # entry (measured at most half of it), NaN states included
        with np.errstate(over="ignore", invalid="ignore"):
            size = np.max(np.abs(_write_states(variant, frames, f)[:, :9]), axis=1)
            bound = _entry_bound(frames, f)
        assert np.all((bound >= size) | ~np.isfinite(bound))

    @pytest.mark.parametrize("variant,mu", TWELVE)
    def test_no_state_written_on_the_unit_range(self, monkeypatch, variant, mu):
        # on [-1, 1] no node comes near the float64 maximum: integrate
        # writes no state but the startup check's, at P = I, which runs once
        # per variant (here first, its cache cleared)
        written, write = [], ode._write_states

        def counted(v, frames, f):
            written.append(frames.shape)
            return write(v, frames, f)

        monkeypatch.setattr(ode, "_write_states", counted)
        ode._startup_check.cache_clear()
        expr = parse_expr(mu, "t")
        tr = integrate(variant, expr, (-1.0, 1.0), 1e-3)
        assert written == [(2, 2)]
        self._assert_bound_covers_the_states(variant, tr.frames, tr.f)
        lam = np.exp(-tr.f)
        size = _entry_bound(tr.frames, tr.f) + np.abs(tr.f)
        assert np.all((2 * lam * lam + 2 + np.abs(expr(tr.times))) * size
                      < np.finfo(float).max / 2)

    @pytest.mark.parametrize("variant,mu,t_range,t_bad", [
        ("kmu", "0", (-4.0, 0.1), -3.274),     # slopes leave float64 first
        ("kmup", "0", (-4.0, 0.1), -3.274),
        ("kmup", "-4", (-0.1, 4.0), 3.274),    # forward, f = -2t
        ("kmup", "50", (-1.0, 1.0), -0.189),   # states and slopes at once
        ("kmu", "0", (-3.269, 0.1), None),     # one node past the bound
        ("kmup", "0.3+0.2*sin(2*t)", (-1.0, 1.0), None),
    ])
    def test_names_the_node_the_slopes_name(self, monkeypatch, variant, mu,
                                            t_range, t_bad):
        check, seen = ode._check_finite, []
        monkeypatch.setattr(ode, "_check_finite", lambda *a: seen.append(a))
        integrate(variant, parse_expr(mu, "t"), t_range, 1e-3)
        (args,) = seen
        self._assert_bound_covers_the_states(variant, *args[3:5])
        i = _slope_check(*args)
        if t_bad is None:
            assert i is None
            check(*args)
            return
        assert args[2][i] == pytest.approx(t_bad, abs=1e-12)
        with pytest.raises(ConsistencyError, match=f"at t={args[2][i]}$"):
            with np.errstate(over="ignore", invalid="ignore"):
                check(*args)


    # a planted node: P = exp(a M3) or exp(a M1) with cosh 2a given, and f
    @pytest.mark.parametrize("variant,mu,row,bad", [
        # exp(a M3) fixes M3: H = -lam M3 stays small while F and B reach
        # cosh 2a, so mu B alone leaves float64 (mu H and 2 F do not)
        ("kmu", 1e3, ("M3", 1e306, 0.0), True),
        # exp(a M1) = diag(e^a, e^-a): F reaches cosh 2a and H lam cosh 2a;
        # at lam = 0.7, 2 H alone leaves float64, 2 lam^2 F does not
        ("kmup", -2.0, ("M1", 1.5e308, -np.log(0.7)), True),
        # F near the float64 maximum, but lam^2 F and H far below it
        ("kmu", 0.0, ("M1", 1e308, 40.0), False),
    ])
    def test_each_term_of_the_bound(self, variant, mu, row, bad):
        # a node past the bound whose slope leaves float64 through one term
        # of a(t) Y alone, or stays in range: the slopes decide it
        boost, cosh_2a, f = row
        a = np.arccosh(np.longdouble(cosh_2a)) / 2
        ch, sh = np.cosh(a), np.sinh(a)
        frames = np.tile(np.eye(2, dtype=np.longdouble), (5, 1, 1))
        frames[3] = [[ch, sh], [sh, ch]] if boost == "M3" else np.diag(
            [np.exp(a), np.exp(-a)])
        fs = np.zeros(5, np.longdouble)
        fs[3] = f
        times = np.array([-0.2, -0.1, 0.0, 0.1, 0.2])
        args = (variant, parse_expr(repr(mu), "t"), times, frames, fs, 2)
        assert _slope_check(*args) == (3 if bad else None)
        if not bad:
            ode._check_finite(*args)
            return
        with pytest.raises(ConsistencyError, match="at t=0.1$"):
            with np.errstate(over="ignore", invalid="ignore"):
                ode._check_finite(*args)


class TestArrayPath:
    """mu on the whole span at once, batched exponents and a cumulative sum
    (kmup) give the states and frames of a per-step computation, and the
    node slopes of a per-node one, bit for bit."""

    CASES = [(v, m) for v in ("kmu", "kmup")
             for m in ("0.3+0.2*sin(2*t)", "exp(t)-0.5")]

    @pytest.mark.parametrize("variant,mu", CASES)
    def test_states_match_scalar_mu_reference(self, variant, mu):
        expr = parse_expr(mu, "t")
        tr = integrate(variant, expr, (-0.2, 0.2), 1e-3)
        states, frames = _per_step_reference(variant, expr, (-0.2, 0.2), 1e-3)
        assert np.array_equal(tr.dense(tr.times), states)
        assert np.array_equal(tr.frames, frames)

    @pytest.mark.parametrize("variant,mu", CASES)
    def test_derivs_are_node_slopes(self, variant, mu):
        # the slopes a model forms from a stack of dense states
        expr = parse_expr(mu, "t")
        tr = integrate(variant, expr, (-0.2, 0.2), 1e-3)
        mus = expr(tr.times)
        states = tr.dense(tr.times)
        expected = np.array([rhs(variant, states[i], mus[i])
                             for i in range(len(tr.times))])
        assert np.array_equal(rhs(variant, states, mus), expected)

    @pytest.mark.parametrize("variant", ["kmu", "kmup"])
    @pytest.mark.parametrize("t_range", [(-0.05, 0.2), (-0.2, 0.05),
                                         (0.0, 0.1), (-0.1, 0.0),
                                         (-0.6, 0.55)])
    def test_uneven_ranges(self, variant, t_range):
        # each direction is stepped on its own from t = 0, to its own end,
        # and kmup's f and exponent are summed from t = 0 in both; the
        # last range crosses a _SPAN_BLOCK of steps each way
        expr = parse_expr("0.3+0.2*sin(2*t)", "t")
        tr = integrate(variant, expr, t_range, 1e-3)
        states, frames = _per_step_reference(variant, expr, t_range, 1e-3)
        assert np.array_equal(tr.dense(tr.times), states)
        assert np.array_equal(tr.frames, frames)
        mus = expr(tr.times)
        expected = np.array([rhs(variant, states[i], mus[i])
                             for i in range(len(tr.times))])
        assert np.array_equal(rhs(variant, tr.dense(tr.times), mus), expected)

    @pytest.mark.parametrize("mu", ["0", "1", "2", "0.3+0.2*sin(2*t)"])
    def test_scan_frames_near_the_left_to_right_product(self, mu):
        # the chunked scan rounds otherwise than one matmul per step: over
        # 1,000 steps each way its frames stay within 5.11e-18 (mu = 2) of
        # each node's largest entry
        expr = parse_expr(mu, "t")
        tr = integrate("kmu", expr, (-1.0, 1.0), 1e-3)
        for s in (slice(1000, None), slice(1000, None, -1)):
            t = tr.times[s].astype(np.longdouble)
            mu_stage, rise, rise_stage = _steps("kmu", expr, t[:-1], t[1:])
            f = np.concatenate([[0], np.cumsum(rise)])
            frames = [np.eye(2, dtype=np.longdouble)]
            for x in _expm(_magnus_exponent("kmu", t[1:] - t[:-1], mu_stage,
                                            f[:-1, None] + rise_stage)):
                frames.append(frames[-1] @ x)
            frames = np.array(frames)
            err = np.max(np.abs(tr.frames[s] - frames), axis=(1, 2))
            assert np.all(err <= 5.2e-18 * np.max(np.abs(frames), axis=(1, 2)))

    def test_residuals_of_one_node_match_the_stack(self):
        tr = integrate("kmup", parse_expr("exp(t)-0.5", "t"), (-0.2, 0.2), 1e-3)
        states = tr.dense(tr.times)
        stack = algebraic_residuals(states, "kmup")
        assert all(v.shape == tr.times.shape for v in stack.values())
        one = algebraic_residuals(states[7], "kmup")
        for name, v in one.items():
            assert np.array_equal(v, stack[name][7]), name


class TestLongDoubleStates:
    """The states and their lookup are long double; the fields are float64."""

    WIDE = pytest.mark.skipif(
        np.finfo(np.longdouble).eps >= np.finfo(float).eps,
        reason="np.longdouble is no wider than float64")

    @WIDE
    @pytest.mark.parametrize("variant,mu", [
        ("kmu", 0.0), ("kmup", 0.0), ("kmup", 0.5), ("kmup", 1.0)])
    def test_constant_mu_closed_form(self, variant, mu):
        # in s = lam the flow gives F_ss = w^2 F with w = 2/(mu+2) (for kmu
        # at mu = 0, where B decouples); F(0) = M2 and F_s(0) = w M3 then
        # give F = M2 cosh(w(lam-1)) + M3 sinh(w(lam-1))
        tr = integrate(variant, parse_expr(repr(mu), "t"), (-1.0, 1.0), 1e-3)
        t = tr.times.astype(np.longdouble)
        mp2 = np.longdouble(mu) + 2
        lam = np.exp(-2 * t) if variant == "kmu" else np.exp(-mp2 * t)
        arg = 2 / mp2 * (lam - 1)
        f = np.stack([np.zeros_like(t), np.cosh(arg), np.sinh(arg)], axis=1)
        err = np.max(np.abs(tr.dense(tr.times)[:, :3] - f), axis=1)
        assert np.max(err / np.max(np.abs(f), axis=1)) <= 1e-12

    @WIDE
    @pytest.mark.parametrize("mu", ["0.3+0.2*sin(2*t)", "exp(t)-0.5"])
    def test_kmup_b_is_lam_times_b0(self, mu):
        # B' = -(mu+2) B and lam' = -(mu+2) lam, so b = lam b(0) for any mu
        tr = integrate("kmup", parse_expr(mu, "t"), (-1.0, 1.0), 1e-3)
        lam = np.exp(-tr.f)
        err = np.abs(tr.dense(tr.times)[:, 6:9]
                     - lam[:, None] * initial_state("kmup")[6:9])
        assert np.max(np.max(err, axis=1) / lam) <= 1e-15

    @WIDE
    def test_expm_to_long_double_rounding(self):
        # rotation and growth by theta: within the Taylor radius, and 3 and
        # 5 squarings past it
        th = np.array([0.12, 1.0, 3.0], np.longdouble)
        om = np.zeros((3, 3, 3), np.longdouble)
        om[:, 0, 1], om[:, 1, 0], om[:, 2, 2] = -th, th, th
        ref = np.zeros_like(om)
        ref[:, 0, 0] = ref[:, 1, 1] = np.cos(th)
        ref[:, 1, 0], ref[:, 0, 1] = np.sin(th), -np.sin(th)
        ref[:, 2, 2] = np.exp(th)
        err = np.max(np.abs(expm(om) - ref), axis=(1, 2))
        scale = np.max(np.abs(ref), axis=(1, 2))
        assert np.all(err <= 16 * np.finfo(np.longdouble).eps * scale)

    @staticmethod
    def _step_generators(variant, mu):
        """h * a at the Gauss nodes of every step of [-1.008, 1.008], both
        directions, for a constant mu, where f = (mu + 2) t (2t for kmu)."""
        rate = 2 if variant == "kmu" else mu + 2
        h = np.longdouble(1e-3)
        t = np.arange(-1008, 1008).astype(np.longdouble) * h
        a = [generator(variant, np.exp(-2 * rate * (t[:, None] + d * h * _GAUSS_C)),
                        np.longdouble(mu)) * (d * h) for d in (1, -1)]
        return np.concatenate(a)

    @staticmethod
    def _ld_exponent(a):
        """The sixth-order Magnus exponent all in long double."""
        a1 = a[:, 1]
        a2 = _SQRT15 / 3 * (a[:, 2] - a[:, 0])
        a3 = np.longdouble(10) / 3 * (a[:, 2] - 2 * a[:, 1] + a[:, 0])
        c1 = comm(a1, a2)
        c2 = comm(a1, 2 * a3 + c1) / -60
        return a1 + a3 / 12 + comm(-20 * a1 - a3 + c1, a2 + c2) / 240

    @staticmethod
    def _ld_expm(om):
        """exp by the 11-term Taylor series all in long double, scaled and
        squared as ``expm`` does; also returns the squarings."""
        norm = _norm(om)
        squarings = np.zeros(len(om), int)
        big = norm > 0.125
        squarings[big] = np.ceil(np.log2(norm[big] / 0.125))
        x = np.ldexp(om, -squarings[:, None, None])
        eye = np.eye(3, dtype=om.dtype)
        e = eye + x / 11
        for k in range(10, 0, -1):
            e = eye + (x @ e) / k
        for k in range(squarings.max(initial=0)):
            more = squarings > k
            e[more] = e[more] @ e[more]
        return e, squarings

    @WIDE
    @pytest.mark.parametrize("variant,mu,top", [("kmu", 1.0, 0.11),
                                                ("kmup", 1.0, 0.84)])
    def test_kernels_to_long_double_rounding(self, variant, mu, top):
        # the float64 parts of Omega and of exp(Omega) lie below the long
        # double rounding of the results: within 4 eps_LD of the norm of an
        # all-long-double computation, times 2^s after s squarings
        eps = np.finfo(np.longdouble).eps
        a = self._step_generators(variant, mu)
        om = self._ld_exponent(a)
        assert _norm(om).max() >= top
        err = np.max(np.abs(magnus_exponent(a) - om), axis=(1, 2))
        assert np.all(err <= 4 * eps * _norm(om))
        ref, squarings = self._ld_expm(om)
        assert variant == "kmu" or np.mean(squarings > 0) >= 0.15
        err = np.max(np.abs(expm(om) - ref), axis=(1, 2))
        assert np.all(err <= 4 * eps * _norm(ref) * 2.0 ** squarings)

    @WIDE
    @pytest.mark.parametrize("variant", ["kmu", "kmup"])
    @pytest.mark.parametrize("mu", ["0", "1", "sin(t)"])
    def test_dense_off_nodes_matches_half_step_nodes(self, variant, mu):
        # one partial Magnus step from the nearest node's frame is as good
        # as a node: halfway between the nodes (the farthest from them) it
        # gives the states of a trajectory at half the step within 1e-16 of
        # each row's largest component (measured at most 9.5e-18, as at the
        # shared nodes; a cubic Hermite on the nodes and their slopes errs
        # by 3.5e-10)
        expr = parse_expr(mu, "t")
        tr = integrate(variant, expr, (-1.0, 1.0), 1e-3)
        fine = integrate(variant, expr, (-1.0, 1.0), 5e-4)
        y, ref = tr.dense(fine.times[1::2]), fine.dense(fine.times[1::2])
        scale = np.max(np.abs(ref[:, :9]), axis=1, keepdims=True)
        assert np.max(np.abs(y[:, :9] - ref[:, :9]) / scale) <= 1e-16
        assert np.max(np.abs(y[:, 9] - ref[:, 9])) <= 1e-17

    def test_dtypes(self):
        model = build_darboux_model(DarbouxParams("kmu", "sin(t)", (-0.1, 0.1)))
        tr = model.trajectory
        assert tr.frames.dtype == tr.f.dtype == np.longdouble
        assert tr.dense(tr.times).dtype == np.longdouble
        assert tr.dense(tr.times[:3] + 0.3 * tr.step).dtype == np.longdouble
        pts = np.array([[0.1, 0.2, 0.05], [0.0, 0.0, -0.0504]])
        for field in (model.phi, model.xi, model.eta, model.g, model.k_nom,
                      model.lam_nom):
            assert field(pts).dtype == np.float64, field.name


class TestSl2Flow:
    """The kernels of P' = P W on the (M1, M2, M3) coefficients, and the
    states they give against the 3x3 oracle of the nine-component flow."""

    WIDE = TestLongDoubleStates.WIDE

    def test_bracket_is_the_matrix_commutator(self):
        x = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [2.0, -3.0, 5.0]])
        y = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [-7.0, 1.0, 4.0]])
        a, b = _as_matrix(x), _as_matrix(y)
        assert np.array_equal(_as_matrix(_bracket(x, y)), a @ b - b @ a)

    @WIDE
    def test_expm_matches_long_double_series(self):
        # r^2 > 0, r^2 < 0, r^2 = 0 (X nilpotent), X = 0, and |r| near 1:
        # within 16 eps_LD of the largest entry of the 30-term series
        om = np.array([[0.1, 0.05, 0.0], [0.02, 0.3, 0.01], [0.2, 0.2, 0.0],
                       [0.0, 0.0, 0.0], [-0.9, 0.3, 0.4]], np.longdouble)
        x = _as_matrix(om)
        eye = np.eye(2, dtype=np.longdouble)
        ref = eye + x / 30
        for k in range(29, 0, -1):
            ref = eye + (x @ ref) / k
        err = np.max(np.abs(_expm(om) - ref), axis=(1, 2))
        scale = np.max(np.abs(ref), axis=(1, 2))
        assert np.all(err <= 16 * np.finfo(np.longdouble).eps * scale), err

    @WIDE
    @pytest.mark.parametrize("variant,mu", [
        ("kmu", "1"), ("kmu", "0.3+0.2*sin(2*t)"), ("kmup", "0"),
        ("kmup", "sin(t)")])
    def test_states_match_the_3x3_oracle(self, variant, mu):
        # the frame's states agree with sixth-order Magnus on the states
        # themselves within 1e-15 of each row's largest component (measured
        # at most 6.8e-16: the 3x3 scheme's own truncation error for kmu)
        expr = parse_expr(mu, "t")
        tr = integrate(variant, expr, (-1.0, 1.0), 1e-3)
        ref = _per_step_magnus(variant, expr, (-1.0, 1.0), 1e-3)
        scale = np.max(np.abs(ref[:, :9]), axis=1, keepdims=True)
        states = tr.dense(tr.times)
        assert np.max(np.abs(states[:, :9] - ref[:, :9]) / scale) <= 1e-15
        assert np.array_equal(tr.f, ref[:, 9])


class TestKmupClosedForm:
    """kmup's step exponents all lie along M1 and commute: its frame is
    diag(e^{A/2}, e^{-A/2}) of their running sum, two quadratures f and A =
    -2 int lam, with no commutator term and no product of steps."""

    WIDE = TestLongDoubleStates.WIDE

    def test_forms_no_commutator(self, monkeypatch):
        def bracket(*args):
            raise AssertionError("a commutator was formed")

        monkeypatch.setattr(ode, "_bracket", bracket)
        mu = parse_expr("0.3+0.2*sin(2*t)", "t")
        tr = integrate("kmup", mu, (-1.0, 1.0), 1e-3)
        assert np.isfinite(tr.dense(tr.times)).all()
        assert np.isfinite(tr.dense(tr.times[:3] + 0.3 * tr.step)).all()
        assert not tr.frames[:, 0, 1].any() and not tr.frames[:, 1, 0].any()
        with pytest.raises(AssertionError, match="commutator"):
            integrate("kmu", mu, (-1.0, 1.0), 1e-3)

    @WIDE
    @pytest.mark.parametrize("mu", [-1.0, -0.2, 0.0, 0.5, 1.0])
    def test_exponent_matches_constant_mu_form(self, mu):
        # for constant mu, A = w (lam - 1) with w = 2/(mu+2): e^A = f2 + f3
        # and e^{-A} = f2 - f3 within 1e-16 of e^A and of f2 (measured at
        # most 2.4e-17 and 3.8e-18, both at mu = -0.2; A reaches 12.7 at
        # mu = 1, where e^{-A} is 3e-6 and f2 1.7e5)
        tr = integrate("kmup", parse_expr(repr(mu), "t"), (-1.0, 1.0), 1e-3)
        mp2 = np.longdouble(mu) + 2
        a = 2 / mp2 * (np.exp(-mp2 * tr.times.astype(np.longdouble)) - 1)
        states = tr.dense(tr.times)
        f2, f3 = states[:, 1], states[:, 2]
        assert np.all(np.abs(f2 + f3 - np.exp(a)) <= 1e-16 * np.exp(a))
        assert np.all(np.abs(f2 - f3 - np.exp(-a)) <= 1e-16 * f2)

    @WIDE
    def test_mu_minus_two(self):
        # mu = -2: f = 0, lam = 1 and A = -2t, where the constant-mu form
        # w (lam - 1) divides 0 by 0; the quadrature gives e^A within 1e-17
        # of e^{-2t} (measured 1.6e-18)
        tr = integrate("kmup", parse_expr("-2", "t"), (-1.0, 1.0), 1e-3)
        assert not tr.f.any()
        e = np.exp(-2 * tr.times.astype(np.longdouble))
        states = tr.dense(tr.times)
        assert np.all(np.abs(states[:, 1] + states[:, 2] - e) <= 1e-17 * e)

    @WIDE
    def test_magnus_reference_converges_at_sixth_order(self):
        # the sixth-order Magnus stepper converges to the closed form: on
        # [-1, 0] at mu = 0.3 + 0.2 sin 2t its largest error, relative to
        # each node's largest component, falls from 1.6e-9 at step 1e-2 to
        # 2.5e-11 at 5e-3 (ratio 63.7; 2^6 = 64), far above the long-double
        # rounding of either
        mu = parse_expr("0.3+0.2*sin(2*t)", "t")
        tr = integrate("kmup", mu, (-1.0, 0.0), 1e-3)
        exact = tr.dense(tr.times)[:, :9]
        errs = []
        for step in (1e-2, 5e-3):
            ref = exact[::round(step / 1e-3)]
            ys = _per_step_magnus("kmup", mu, (-1.0, 0.0), step)[:, :9]
            errs.append(np.max(np.abs(ys - ref)
                               / np.max(np.abs(ref), axis=1, keepdims=True)))
        assert errs[1] >= 1e-12 and errs[0] / errs[1] >= 48


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
        for t, y in zip(tr.times[::100], tr.dense(tr.times[::100])):
            g = metric_from_state(t, y)
            assert abs(np.linalg.det(g.astype(float)) - 1.0) <= 1e-9

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


class TestMetricOnFrames:
    """The builder checks G = (M2 P)(M2 P)^T on the node frames P."""

    def test_frames_give_the_states_metric(self):
        # the Gram matrix is -M2 F of the states, within their rounding
        tr = integrate("kmu", parse_expr("1", "t"), (0.0, 1.0), 1e-3)
        m = M2 @ tr.frames
        ref = metric_from_state(tr.times, tr.dense(tr.times))
        scale = np.max(np.abs(ref), axis=(1, 2), keepdims=True)
        assert np.max(np.abs(m @ np.swapaxes(m, 1, 2) - ref) / scale) <= 1e-15

    def test_no_false_loss_of_positive_definiteness(self):
        # kmu mu = 1 back to t = -1.8: G's entries reach 1e14 with det G =
        # 1, so the states' f2 - f3 and det G cancel to <= 0; the frames'
        # Gram matrix keeps a positive diagonal and the model is built
        params = DarbouxParams("kmu", "1", (-1.8, 1.0))
        model = build_darboux_model(params)
        tr = model.trajectory
        with pytest.raises(ConsistencyError, match="positive definiteness"):
            metric_from_state(tr.times, tr.dense(tr.times))

    def test_pd_failure_names_first_bad_node(self, monkeypatch):
        def bad_frames(*args):
            tr = integrate(*args)
            tr.frames[[5, 9], 0] = 0.0      # p = q = 0: G's (1, 1) entry
            return tr

        monkeypatch.setattr(models, "integrate", bad_frames)
        with pytest.raises(ConsistencyError, match=r"at t=-0\.095$"):
            build_darboux_model(DarbouxParams("kmup", "1", (-0.1, 0.1)))


def _write_csv(tr, path):
    with open(path, "w", newline="") as fh:
        return trajectory_to_csv(tr, fh)


class TestCsvExport:
    def test_columns_and_rows(self, tmp_path):
        tr = integrate("kmu", parse_expr("1", "t"), (-1.0, 1.0), 1e-3)
        path = tmp_path / "traj.csv"
        _write_csv(tr, path)
        rows = list(csv.reader(open(path)))
        assert rows[0] == ["t", "f1", "f2", "f3", "h1", "h2", "h3",
                           "b1", "b2", "b3", "lambda", "k",
                           "maxAlgResidual", "detG"]
        assert len(rows) == 2002
        # 17 significant digits round-trip through text
        t0_state = tr.dense(np.array([float(rows[1][0])]))[0]
        assert float(rows[1][1]) == float(t0_state[0])

    def test_detg_column_forward(self, tmp_path):
        tr = integrate("kmu", parse_expr("0", "t"), (0.0, 1.0), 1e-3)
        path = tmp_path / "t.csv"
        _write_csv(tr, path)
        rows = list(csv.reader(open(path)))[1:]
        det = np.array([float(r[13]) for r in rows])
        assert np.max(np.abs(det - 1.0)) <= 1e-9

    def test_bytes_match_savetxt(self, tmp_path):
        # each block is written by one %-format; the bytes are those that
        # np.savetxt writes for the same float64 rows (which %.17g text
        # gives back exactly)
        tr = integrate("kmup", parse_expr("0.3 + 0.2*sin(2*t)", "t"),
                       (-1.0, 1.0), 1e-3)
        path = tmp_path / "traj.csv"
        _write_csv(tr, path)
        data = path.read_bytes()
        header, _ = data.split(b"\r\n", 1)
        rows = np.loadtxt(path, delimiter=",", skiprows=1)
        assert rows.shape == (len(tr.times), 14) and len(rows) > 128
        ref = io.BytesIO()
        np.savetxt(ref, rows, fmt="%.17g", delimiter=",", newline="\r\n",
                   header=header.decode(), comments="")
        assert data == ref.getvalue()

    def test_peak_memory_does_not_grow_with_the_nodes(self, tmp_path):
        # rows are formatted ``_BLOCK`` at a time: ten times the nodes keep
        # the traced peak under 1.5 times, where formatting every row in
        # one pass grows it with the row count
        peaks = []
        for step in (1e-3, 1e-4):
            tr = integrate("kmu", parse_expr("1", "t"), (-1.0, 1.0), step)
            tracemalloc.start()
            try:
                _write_csv(tr, tmp_path / "t.csv")
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert len(tr.times) == 20001
        assert peaks[1] < 1.5 * peaks[0], peaks
