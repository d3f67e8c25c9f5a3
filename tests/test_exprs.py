"""Parser and evaluator tests, including the print/parse round-trip."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from kenmotsu3.exprs import (
    Expr,
    ExprDomainError,
    ExprSyntaxError,
    parse_expr,
)


class TestParseEval:
    def test_literal(self):
        assert parse_expr("2", "z")(0.0) == 2.0

    def test_nullity_k_of_t(self):
        # k(t) = -1 - e^{-4t} evaluates to -2 at t = 0
        e = parse_expr("-1-exp(-4*t)", "t")
        assert e(0.0) == pytest.approx(-2.0, abs=1e-15)

    def test_lambda_of_z(self):
        # lam(z) = sqrt(-1-z) is 2 at z = -5
        assert parse_expr("sqrt(-1-z)", "z")(-5.0) == pytest.approx(2.0)

    def test_square(self):
        assert parse_expr("t^2", "t")(3.0) == 9.0

    def test_exp_at_zero(self):
        assert parse_expr("exp(-2*t)", "t")(0.0) == 1.0

    def test_pole_reports_domain_error(self):
        with pytest.raises(ExprDomainError, match="division by zero"):
            parse_expr("1/(z+1)", "z")(-1.0)

    def test_sqrt_negative(self):
        with pytest.raises(ExprDomainError, match="sqrt"):
            parse_expr("sqrt(z)", "z")(-4.0)

    def test_log_nonpositive(self):
        with pytest.raises(ExprDomainError, match="log"):
            parse_expr("log(z)", "z")(0.0)

    def test_overflow_reported(self):
        with pytest.raises(ExprDomainError):
            parse_expr("exp(t)", "t")(1e6)

    def test_fractional_power_of_negative(self):
        with pytest.raises(ExprDomainError):
            parse_expr("z^0.5", "z")(-2.0)

    def test_array_evaluation(self):
        e = parse_expr("sin(t) + t^2", "t")
        xs = np.array([0.0, 1.0, -0.5])
        assert np.allclose(e(xs), np.sin(xs) + xs**2)


class TestPrecedence:
    def test_power_binds_above_unary_minus(self):
        assert parse_expr("-z^2", "z")(3.0) == -9.0

    def test_power_right_associative(self):
        assert parse_expr("2^3^2", "z")(0.0) == 512.0

    def test_negative_exponent(self):
        assert parse_expr("2^-3", "z")(0.0) == 0.125

    def test_parenthesized_negative_base(self):
        assert parse_expr("(-2)^2", "z")(0.0) == 4.0

    def test_sum_of_products(self):
        assert parse_expr("1+2*3-4/2", "z")(0.0) == 5.0


class TestErrors:
    def test_unknown_identifier_offset(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse_expr("1 + w", "z")
        assert err.value.offset == 4

    def test_wrong_variable(self):
        with pytest.raises(ExprSyntaxError, match="unknown identifier"):
            parse_expr("t + 1", "z")

    def test_function_without_argument(self):
        with pytest.raises(ExprSyntaxError, match="argument"):
            parse_expr("exp + 1", "z")

    def test_two_arguments_rejected(self):
        with pytest.raises(ExprSyntaxError):
            parse_expr("sin(z, z)", "z")

    def test_empty(self):
        with pytest.raises(ExprSyntaxError):
            parse_expr("   ", "z")

    def test_trailing_garbage(self):
        with pytest.raises(ExprSyntaxError, match="trailing"):
            parse_expr("1 + 2 )", "z")

    def test_unexpected_character(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse_expr("1 + $", "z")
        assert err.value.offset == 4


# --- round-trip property ----------------------------------------------------

def _exprs(depth):
    leaf = st.one_of(
        st.floats(min_value=0.1, max_value=9.0).map(lambda v: f"{v:.3f}"),
        st.just("t"),
    )
    if depth == 0:
        return leaf
    sub = _exprs(depth - 1)
    return st.one_of(
        leaf,
        st.tuples(sub, st.sampled_from("+-*/"), sub).map(
            lambda t: f"({t[0]} {t[1]} {t[2]})"),
        st.tuples(st.sampled_from(["sin", "cos", "exp"]), sub).map(
            lambda t: f"{t[0]}({t[1]})"),
        sub.map(lambda s: f"-({s})"),
        st.tuples(sub, st.integers(min_value=0, max_value=3)).map(
            lambda t: f"({t[0]})^{t[1]}"),
    )


@settings(max_examples=150, deadline=None)
@given(src=_exprs(3), x=st.floats(min_value=0.2, max_value=2.0))
def test_roundtrip_evaluates_identically(src, x):
    try:
        e = parse_expr(src, "t")
        ref = e(x)
    except ExprDomainError:
        return  # generated expression left its domain at x; irrelevant here
    back = parse_expr(str(e), "t")
    assert back(x) == pytest.approx(ref, rel=1e-12, abs=1e-12)


@settings(max_examples=50, deadline=None)
@given(src=_exprs(2))
def test_unknown_identifier_always_rejected(src):
    assume("t" in src)
    with pytest.raises(ExprSyntaxError):
        parse_expr(src.replace("t", "q"), "t")


def test_expr_is_shareable_and_pure():
    e = parse_expr("exp(-2*t) + 1", "t")
    a = e(np.linspace(0, 1, 11))
    b = e(np.linspace(0, 1, 11))
    assert np.array_equal(a, b)
    assert isinstance(e, Expr)


def test_equal_exprs_hash_alike():
    # equality reads the variable, as the hash does: the same text in two
    # variables is two expressions, and a set keeps both; one text written
    # two ways in one variable is one expression, and a set keeps one
    z, t = parse_expr("2", "z"), parse_expr("2", "t")
    assert z != t and len({z, t}) == 2
    a, b = parse_expr("2*z + 1", "z"), parse_expr("(2 * z) + 1", "z")
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1


# --- derivatives by jets ----------------------------------------------------

_X = 0.7
_E, _C, _S = np.exp, np.cos, np.sin


def _cases(rows):
    """Parameter sets with the expression text (each row's first entry) as
    their test id."""
    return [pytest.param(*row, id=row[0]) for row in rows]


class TestJet:
    # (src, first derivative, second derivative) at t = 0.7
    @pytest.mark.parametrize("src,d1,d2", _cases([
        ("2.5", 0.0, 0.0),
        ("t", 1.0, 0.0),
        ("-t", -1.0, 0.0),
        ("3*t + 2", 3.0, 0.0),
        ("t - 1/t", 1.0 + _X**-2, -2.0 * _X**-3),
        ("t^3", 3.0 * _X**2, 6.0 * _X),
        ("t^0.5", 0.5 * _X**-0.5, -0.25 * _X**-1.5),
        ("2^t", 2.0**_X * np.log(2.0), 2.0**_X * np.log(2.0)**2),
        ("exp(2*t)", 2.0 * _E(2 * _X), 4.0 * _E(2 * _X)),
        ("log(t)", 1.0 / _X, -_X**-2),
        ("sqrt(t)", 0.5 * _X**-0.5, -0.25 * _X**-1.5),
        ("sin(t)", _C(_X), -_S(_X)),
        ("cos(t)", -_S(_X), -_C(_X)),
    ]))
    def test_rules(self, src, d1, d2):
        e = parse_expr(src, "t")
        value, first, second = e.jet(_X)
        assert value == e(_X)  # the bits of a plain evaluation
        assert first == pytest.approx(d1, rel=1e-14)
        assert second == pytest.approx(d2, rel=1e-14)

    @pytest.mark.parametrize("src,x,d1,d2", _cases([
        ("t*sin(t)", 0.7, _S(0.7) + 0.7 * _C(0.7), 2.0 * _C(0.7) - 0.7 * _S(0.7)),
        ("(t + 1)/(t - 2)", 0.5, -3.0 / 1.5**2, -6.0 / 1.5**3),
        ("t^t", 1.5, 1.5**1.5 * (np.log(1.5) + 1.0),
         1.5**1.5 * ((np.log(1.5) + 1.0)**2 + 1.0 / 1.5)),
        ("log(t^2 + 1)", 2.0, 4.0 / 5.0, (2.0 - 8.0) / 25.0),
        ("cos(exp(-t))", 0.3, _S(_E(-0.3)) * _E(-0.3),
         -_E(-0.6) * _C(_E(-0.3)) - _E(-0.3) * _S(_E(-0.3))),
    ]))
    def test_closed_forms(self, src, x, d1, d2):
        _, first, second = parse_expr(src, "t").jet(x)
        assert first == pytest.approx(d1, rel=1e-14)
        assert second == pytest.approx(d2, rel=1e-14)

    def test_evaluates_on_arrays_of_any_shape(self):
        e = parse_expr("z^2 + 1", "z")
        xs = np.array([[0.0, 1.5], [-2.0, 3.0]])
        value, first, second = e.jet(xs)
        assert np.array_equal(value, e(xs))
        assert np.array_equal(first, 2.0 * xs)
        assert np.array_equal(second, np.full((2, 2), 2.0))
        for part, want in zip(parse_expr("3", "z").jet(np.zeros(4)),
                              (np.full(4, 3.0), np.zeros(4), np.zeros(4))):
            assert np.array_equal(part, want)

    def test_order_one_reads_the_first_derivative_alone(self):
        # (t+1)^1.5 has a first derivative at t = -1 but no second
        e = parse_expr("(t+1)^1.5", "t")
        assert e.jet(-1.0, 1) == (0.0, 0.0)
        with pytest.raises(ExprDomainError, match="derivative"):
            e.jet(-1.0)

    @pytest.mark.parametrize("src,x,message", _cases([
        ("sqrt(z + 3)", -3.0,
         "division by zero in the derivative of 'sqrt(z + 3.0)'"),
        ("z^0.5 - 1", 0.0,
         "zero raised to negative power in the derivative of 'z^0.5'"),
        ("2 + (z - 1)^z", 1.0,
         "log of non-positive value in the derivative of '(z - 1.0)^z'"),
    ]))
    def test_domain_error_names_the_users_node(self, src, x, message):
        with pytest.raises(ExprDomainError) as err:
            parse_expr(src, "z").jet(x, 1)
        assert str(err.value) == message

    @pytest.mark.parametrize("src,x,message", _cases([
        ("(z+3)^1.5", -3.0, "zero raised to negative power in the "
         "derivative of '(z + 3.0)^1.5'"),
        ("sqrt(z + 3)", -3.0,
         "division by zero in the derivative of 'sqrt(z + 3.0)'"),
    ]))
    def test_second_derivative_names_the_users_node(self, src, x, message):
        with pytest.raises(ExprDomainError) as err:
            parse_expr(src, "z").jet(x)
        assert str(err.value) == message

    @pytest.mark.parametrize("src,x,message", _cases([
        ("1/z", 0.0, "division by zero in '1.0 / z'"),
        ("1 + log(z^2)", 0.0, "log of non-positive value in 'log(z^2.0)'"),
        ("log(z)", 0.0, "log of non-positive value in 'log(z)'"),
        ("sqrt(z)", -1.0, "sqrt of negative value in 'sqrt(z)'"),
    ]))
    def test_a_value_outside_the_domain_fails_in_the_value(self, src, x, message):
        with pytest.raises(ExprDomainError) as err:
            parse_expr(src, "z").jet(x)
        assert str(err.value) == message

    def test_overflow_of_a_derivative_names_the_expression(self):
        # exp(t^2) is 1.6e307 at t = 26.6; its derivative overflows
        with pytest.raises(ExprDomainError) as err:
            parse_expr("exp(t^2)", "t").jet(26.6)
        assert str(err.value) == ("non-finite result (overflow?) in the "
                                  "derivative of 'exp(t^2.0)'")


def _smooth_exprs(depth):
    """Expression text smooth on t in [0.5, 2]: log, sqrt, '/' and the base
    of a variable-exponent '^' get arguments bounded away from 0; exp, sin,
    cos and the variable exponent get arguments bounded in value and slope."""
    const = st.floats(min_value=0.1, max_value=3.0).map(lambda v: f"{v:.3f}")
    leaf = st.one_of(const, st.just("t"))
    if depth == 0:
        return leaf
    sub = _smooth_exprs(depth - 1)
    positive = st.tuples(sub, const).map(lambda t: f"(({t[0]})^2 + {t[1]})")
    # s / (s^2 + 1) lies in [-1/2, 1/2] and is nowhere steeper than s: an
    # unbounded argument nests growth no difference quotient at h = 1e-3
    # can follow (sin(exp(((t)^2 + 1)^2.5)) has derivative -1.7e26 at t = 2)
    bounded = sub.map(lambda s: f"(({s}) / (({s})^2 + 1))")
    return st.one_of(
        leaf,
        st.tuples(sub, st.sampled_from("+-*"), sub).map(
            lambda t: f"({t[0]} {t[1]} {t[2]})"),
        st.tuples(sub, positive).map(lambda t: f"({t[0]} / {t[1]})"),
        sub.map(lambda s: f"-({s})"),
        st.tuples(st.sampled_from(["sin", "cos", "exp"]), bounded).map(
            lambda t: f"{t[0]}{t[1]}"),
        st.tuples(st.sampled_from(["log", "sqrt"]), positive).map(
            lambda t: f"{t[0]}{t[1]}"),
        st.tuples(sub, st.integers(min_value=0, max_value=3)).map(
            lambda t: f"({t[0]})^{t[1]}"),
        st.tuples(positive, st.sampled_from(["0.5", "-1.5", "2.5"])).map(
            lambda t: f"{t[0]}^{t[1]}"),
        st.tuples(positive, bounded).map(lambda t: f"{t[0]}^{t[1]}"),
    )


def _central_difference(e, x, h):
    """5-point 4th-order central difference of the function ``e`` at ``x``."""
    f = e(x + h * np.array([-2.0, -1.0, 1.0, 2.0]))
    return (f[0] - 8.0 * f[1] + 8.0 * f[2] - f[3]) / (12.0 * h)


@settings(max_examples=300, deadline=None)
@given(src=_smooth_exprs(3), x=st.floats(min_value=0.5, max_value=2.0))
def test_diff_matches_central_difference(src, x):
    # each derivative of Expr.jet against differences of the order below it
    e = parse_expr(src, "t")
    h = 1e-3
    for order, lower in ((1, e), (2, lambda y: e.jet(y, 1)[1])):
        try:
            exact = e.jet(x, order)[order]
            fd = _central_difference(lower, x, h)
            fd_half = _central_difference(lower, x, h / 2)
            scale = max(1.0, abs(exact), float(np.max(np.abs(
                lower(x + h * np.arange(-2.0, 3.0))))))
        except ExprDomainError:
            return  # overflow: no finite value to compare
        # the h/2 difference errs by its 4th-order truncation, about 1/15 of
        # its gap to the h difference, plus rounding of about eps max|f| / h,
        # here allowed 1e3 times over
        assert abs(fd_half - exact) <= abs(fd - fd_half) + 1e-10 * scale
