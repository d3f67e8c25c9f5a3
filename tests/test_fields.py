"""Chart domains, and the stencil of the tests' finite-difference oracle."""

import numpy as np
import pytest

from fd_reference import derivatives, partial
from kenmotsu3.fields import BoundaryError, ChartDomain
from kenmotsu3.models import KmupChartParams, build_kmu_prime_chart_model

FULL = ChartDomain()
HALF = ChartDomain(((-np.inf, np.inf), (-np.inf, np.inf), (-np.inf, -1.0)))


def _z(p):
    return p[:, 2]


class TestPartialDerivative:
    def test_quadratic(self):
        d = partial(lambda p: p[:, 2] ** 2, FULL, np.array([0.0, 0.0, 3.0]), 2)
        assert d == pytest.approx(6.0, abs=1e-9)

    def test_exponential(self):
        d = partial(lambda p: np.exp(2.0 * p[:, 2]), FULL,
                    np.array([0.0, 0.0, 0.0]), 2)
        assert d == pytest.approx(2.0, abs=1e-8)

    def test_constant(self):
        d = partial(lambda p: np.full(p.shape[0], 7.25), FULL,
                    np.array([1.0, 2.0, 3.0]), 0)
        assert abs(d) < 1e-12

    def test_batched(self):
        pts = np.array([[0.0, 0, 0], [0.5, 0, 0], [1.2, 0, 0]])
        d = partial(lambda p: np.sin(p[:, 0]), FULL, pts, 0)
        assert np.allclose(d, np.cos(pts[:, 0]), atol=1e-10)

    def test_one_sided_near_boundary(self):
        z = -1.0005
        d = partial(lambda p: p[:, 2] ** 3, HALF, np.array([0.0, 0.0, z]), 2)
        assert d == pytest.approx(3 * z * z, abs=1e-8)

    def test_no_window_fits(self):
        thin = ChartDomain(((-np.inf, np.inf), (-np.inf, np.inf),
                            (-1.000001, -1.0)))
        with pytest.raises(BoundaryError):
            partial(_z, thin, np.array([0.0, 0.0, -1.0000005]), 2)

    def test_point_outside_domain_rejected(self):
        with pytest.raises(BoundaryError):
            partial(_z, HALF, np.array([0.0, 0.0, 0.0]), 2)

    def test_halving_reduces_error_by_8x(self):
        p = np.array([0.0, 0.0, 0.7])
        exact = 3.0 * np.cos(2.1)
        err = [abs(partial(lambda q: np.sin(3.0 * q[:, 2]), FULL, p, 2, h)
                   - exact) for h in (4e-3, 2e-3, 1e-3)]
        assert err[0] / err[1] >= 8.0
        assert err[1] / err[2] >= 8.0

    def test_step_scales_with_coordinate(self):
        # the step is h_rel max(1, |z|): the five stencil nodes lie 1e-3
        # apart at z = 0.5 and 4e-2 apart at z = -40
        seen = []

        def fn(p):
            seen.append(p[:, 2].copy())
            return p[:, 2]

        pts = np.array([[0.0, 0.0, 0.5], [0.0, 0.0, -40.0]])
        partial(fn, FULL, pts, 2, 1e-3)
        gaps = np.diff(seen[0].reshape(2, 5), axis=1)
        assert gaps[0] == pytest.approx([1e-3] * 4)
        assert gaps[1] == pytest.approx([4e-2] * 4)

    @pytest.mark.parametrize("h_rel", [0.0, 0.1, -1e-3])
    def test_step_out_of_range_rejected(self, h_rel):
        with pytest.raises(ValueError, match="h_rel"):
            partial(_z, FULL, np.array([0.0, 0.0, 0.5]), 2, h_rel)


class TestLieBracket:
    def test_kmup_frame_bracket(self):
        # [e1, e3] = (1 + lam) e1 with lam = sqrt(-1-z) = 1 at z = -2; e1 is
        # a coordinate field, so [e1, xi] = d_x xi
        model = build_kmu_prime_chart_model(KmupChartParams())
        br = model.at(np.array([[0.0, 0.0, -2.0]]))["xi"][1][0, 0]
        assert np.allclose(br, [2.0, 0.0, 0.0], atol=1e-6)


class TestExactAndStatedPartials:
    """The oracle's stacked partials: a stencil along each stated axis and
    exact zeros along the others."""

    def test_axes_not_varied_are_exact_zeros(self):
        calls = []

        def fn(p):
            calls.append(p.copy())
            return np.sin(p[:, 2])

        pts = np.array([[0.3, -0.2, 0.7]])
        d = derivatives(fn, FULL, pts, axes=(2,))
        assert np.array_equal(d[:, :2], np.zeros((1, 2)))
        assert d[0, 2] == partial(fn, FULL, pts, 2)[0]
        # only t-stencils ran: every evaluated point keeps x and y
        assert all(np.all(c[:, :2] == pts[0, :2]) for c in calls)

    def test_varying_along_every_axis_is_the_stencil_result(self):
        def fn(p):
            return np.stack([p[:, 0] * p[:, 1], np.exp(p[:, 2]), p[:, 1] ** 3],
                            axis=1)

        pts = np.array([[0.1, 0.2, 0.3], [1.0, -1.0, 0.5]])
        d = derivatives(fn, FULL, pts)
        for a in range(3):
            assert np.array_equal(d[:, a], partial(fn, FULL, pts, a))


def test_coordinate_derivatives_shape():
    out = derivatives(lambda p: np.stack(
        [p[:, 0] ** 2, p[:, 1], np.sin(p[:, 2])], axis=1), FULL, np.zeros((4, 3)))
    assert out.shape == (4, 3, 3)


def test_domain_membership():
    assert HALF.contains(np.array([0.0, 0.0, -2.0]))
    assert not HALF.contains(np.array([0.0, 0.0, -1.0]))
    closed = ChartDomain(((0.0, 1.0),) * 3, inclusive=True)
    assert closed.contains(np.array([0.0, 1.0, 0.5]))
