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
