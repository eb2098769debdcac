import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riccati4 import exprlang
from riccati4.errors import (
    DomainError,
    ExpressionSyntaxError,
    UnknownIdentifier,
)


def test_parse_structure():
    expr = exprlang.parse("0.001*exp(-t)")
    node = expr.ast
    assert isinstance(node, exprlang.Bin) and node.op == "*"
    assert isinstance(node.left, exprlang.Num) and node.left.value == 0.001
    call = node.right
    assert isinstance(call, exprlang.Call) and call.func == "exp"
    assert isinstance(call.arg, exprlang.Neg)


def test_rational_value():
    assert exprlang.parse("1/(1+t^2)")(1.0) == pytest.approx(0.5, abs=0)


def test_unbalanced_call_reports_position():
    with pytest.raises(ExpressionSyntaxError) as err:
        exprlang.parse("exp(")
    assert err.value.position == 4


def test_eval_examples():
    assert exprlang.parse("0")(17.3) == 0.0
    assert exprlang.parse("exp(-t)")(math.log(2.0)) == pytest.approx(0.5, rel=1e-15)
    with pytest.raises(DomainError):
        exprlang.parse("1/t")(0.0)


def test_log_domain_and_unknown_identifier():
    with pytest.raises(DomainError):
        exprlang.parse("log(t)")(-1.0)
    with pytest.raises(UnknownIdentifier):
        exprlang.parse("foo(t)")
    with pytest.raises(ExpressionSyntaxError):
        exprlang.parse("   ")


def test_power_binds_tighter_than_unary_minus():
    assert exprlang.parse("-t^2")(3.0) == -9.0
    assert exprlang.parse("(-t)^2")(3.0) == 9.0
    assert exprlang.parse("2^-t")(2.0) == 0.25
    # right associative
    assert exprlang.parse("2^t^2")(1.5) == pytest.approx(2.0 ** (1.5**2), rel=1e-15)


def test_vectorized_eval():
    t = np.linspace(0.0, 3.0, 7)
    out = exprlang.parse("t*cos(t) + abs(1 - t)")(t)
    assert np.allclose(out, t * np.cos(t) + np.abs(1 - t), rtol=1e-15)


def test_scientific_literals():
    assert exprlang.parse("1e-3*exp(-t)")(0.0) == 1e-3
    assert exprlang.parse("2.5E+1")(0.0) == 25.0


def test_overflow_reported():
    with pytest.raises(exprlang.EvalOverflow):
        exprlang.parse("exp(t*t)")(40.0)


def _leaf():
    return st.one_of(
        st.floats(min_value=0.01, max_value=8.0).map(lambda v: exprlang.Num(round(v, 4))),
        st.just(exprlang.Var()),
    )


def _tree():
    return st.recursive(
        _leaf(),
        lambda inner: st.one_of(
            st.tuples(st.sampled_from("+-*"), inner, inner).map(
                lambda t: exprlang.Bin(t[0], t[1], t[2])
            ),
            inner.map(exprlang.Neg),
            st.tuples(st.sampled_from(["sin", "cos"]), inner).map(
                lambda t: exprlang.Call(t[0], t[1])
            ),
        ),
        max_leaves=12,
    )


_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def _prec(node):
    if isinstance(node, exprlang.Bin):
        return _PREC[node.op]
    if isinstance(node, exprlang.Neg):
        return _PREC["neg"]
    return 9


def to_string(node) -> str:
    """Render an AST; parse(to_string(ast)) evaluates identically."""
    if isinstance(node, exprlang.Num):
        return repr(node.value)
    if isinstance(node, exprlang.Var):
        return "t"
    if isinstance(node, exprlang.Neg):
        inner = to_string(node.arg)
        if _prec(node.arg) < _PREC["neg"]:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(node, exprlang.Call):
        return f"{node.func}({to_string(node.arg)})"
    if isinstance(node, exprlang.Bin):
        lp, rp = _prec(node.left), _prec(node.right)
        mine = _PREC[node.op]
        left = to_string(node.left)
        right = to_string(node.right)
        # the parser groups '+-*/' to the left and '^' to the right; an
        # operand nested against that grouping keeps its parentheses, since
        # floating-point '+' and '*' are not associative
        if lp < mine or (node.op == "^" and lp == mine):
            left = f"({left})"
        if rp < mine or (node.op != "^" and rp == mine):
            right = f"({right})"
        return f"{left} {node.op} {right}" if node.op in "+-" else f"{left}{node.op}{right}"
    raise TypeError(f"unknown AST node {node!r}")


@settings(max_examples=100, deadline=None)
@given(_tree())
def test_print_parse_round_trip(ast):
    text = to_string(ast)
    reparsed = exprlang.parse(text)
    ts = np.linspace(0.1, 5.0, 100)
    original = exprlang.FunctionExpr(ast=ast, source=text)(ts)
    again = reparsed(ts)
    scale = np.maximum(np.abs(np.asarray(original)), 1.0)
    assert np.all(np.abs(np.asarray(again) - original) <= 1e-15 * scale)


def test_intermediate_overflow_reported():
    # exp(t*t) overflows although 1/inf would be a finite 0
    with pytest.raises(exprlang.EvalOverflow):
        exprlang.parse("1/exp(t*t)")(40.0)


def test_domain_errors_on_scalars_and_arrays():
    with pytest.raises(DomainError):
        exprlang.parse("(-t)^0.5")(2.0)
    ts = np.array([0.5, 1.0, 2.0])
    with pytest.raises(DomainError):
        exprlang.parse("log(t-1)")(ts)
    with pytest.raises(DomainError):
        exprlang.parse("1/(t-1)")(ts)


def test_result_shapes():
    grid = np.linspace(0.0, 2.0, 12).reshape(3, 4)
    for text in ("2", "t", "t*cos(t) + 1", "-exp(-t)"):
        expr = exprlang.parse(text)
        scalar = expr(0.5)
        assert np.ndim(scalar) == 0 and isinstance(scalar, float)
        assert np.shape(expr(grid)) == grid.shape


def test_matches_numpy_formula_bit_for_bit():
    expr = exprlang.parse("-0.003*exp(-2.0*t)")
    ts = np.linspace(0.0, 40.0, 1000)
    assert expr(1.7) == -0.003 * np.exp(-2.0 * 1.7)
    assert np.array_equal(expr(ts), -0.003 * np.exp(-2.0 * ts))
