import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from riccati4 import exprlang
from riccati4.errors import (
    DomainError,
    EvalOverflow,
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
    assert exprlang.parse("1e-999")(0.0) == 0.0


def test_non_finite_literal_is_a_syntax_error():
    # a bare constant is no operation, so EvalOverflow could not catch the inf
    with pytest.raises(ExpressionSyntaxError, match="bad number literal '1e999'") as err:
        exprlang.parse("2*1e999")
    assert err.value.position == 2


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
    # zero to a negative power is a division by zero, without a warning
    for text, at in (("t^-1", 0.0), ("(t-1)^-2", 1.0)):
        expr = exprlang.parse(text)
        for t in (at, np.array([0.5, at, 2.0])):
            with pytest.raises(DomainError, match="division by zero"):
                expr(t)


def test_result_shapes():
    grid = np.linspace(0.0, 2.0, 12).reshape(3, 4)
    for text in ("2", "t", "t*cos(t) + 1", "-exp(-t)", "exp(-2)", "-3"):
        expr = exprlang.parse(text)
        scalar = expr(0.5)
        assert type(scalar) is float
        from_numpy = expr(np.float64(0.5))
        assert type(from_numpy) is type(scalar) and from_numpy == scalar
        assert np.shape(expr(grid)) == grid.shape


def test_matches_numpy_formula_bit_for_bit():
    expr = exprlang.parse("-0.003*exp(-2.0*t)")
    ts = np.linspace(0.0, 40.0, 1000)
    assert expr(1.7) == -0.003 * np.exp(-2.0 * 1.7)
    assert np.array_equal(expr(ts), -0.003 * np.exp(-2.0 * ts))


def test_scalar_exp_overflow_precheck():
    exp = exprlang.parse("exp(t)")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert exp(709.78) == np.exp(709.78)
        with pytest.raises(EvalOverflow):
            exp(709.79)


def _checked_tree():
    return st.recursive(
        _leaf(),
        lambda inner: st.one_of(
            st.tuples(st.sampled_from("+-*/^"), inner, inner).map(
                lambda t: exprlang.Bin(t[0], t[1], t[2])
            ),
            inner.map(exprlang.Neg),
            st.tuples(st.sampled_from(["exp", "log", "abs", "sin", "cos"]), inner).map(
                lambda t: exprlang.Call(t[0], t[1])
            ),
        ),
        max_leaves=10,
    )


def _outcome(expr, t):
    """(error class, None) or (None, the value's bytes)."""
    try:
        value = expr(t)
    except (DomainError, EvalOverflow) as err:
        return type(err), None
    return None, np.float64(value if np.ndim(value) == 0 else value[0]).tobytes()


@settings(max_examples=300, deadline=None)
@given(_checked_tree(), st.floats(min_value=0.0, max_value=50.0))
def test_scalar_and_array_paths_agree_bit_for_bit(ast, t):
    expr = exprlang.FunctionExpr(ast=ast, source=to_string(ast))
    assert _outcome(expr, t) == _outcome(expr, np.array([t]))


# expressions of a given nesting depth, one per construct that nests
_NESTINGS = {
    "parentheses": lambda d: "(" * (d - 1) + "t" + ")" * (d - 1),
    "unary minus": lambda d: "-" * (d - 1) + "t",
    "power chain": lambda d: "^".join(["1"] * (d - 1) + ["t"]),
    "flat sum": lambda d: "+".join(["t"] * d),
    "calls": lambda d: "sin(" * (d - 1) + "t" + ")" * (d - 1),
}


def _with_headroom(frames, fn):
    """fn() run with only `frames` stack frames left below the recursion limit."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back

    def down(n):
        return fn() if n <= 0 else down(n - 1)

    return down(sys.getrecursionlimit() - depth - frames)


@pytest.mark.parametrize("kind", _NESTINGS)
def test_nesting_at_the_cap_parses_and_evaluates_with_room_to_spare(kind):
    text = _NESTINGS[kind](exprlang.MAX_DEPTH)
    expr = _with_headroom(500, lambda: exprlang.parse(text))
    value = _with_headroom(150, lambda: expr(0.5))
    assert np.isfinite(value)
    assert _with_headroom(150, lambda: expr(np.array([0.5, 1.0])))[0] == value
    # and as the right-hand side of an integrator
    sol = solve_ivp(lambda t, y: [expr(t)], (0.0, 1.0), [0.0], rtol=1e-8)
    assert sol.success


@pytest.mark.parametrize("kind", _NESTINGS)
def test_nesting_past_the_cap_is_a_syntax_error(kind):
    with pytest.raises(ExpressionSyntaxError, match="nests deeper than 64 levels"):
        exprlang.parse(_NESTINGS[kind](exprlang.MAX_DEPTH + 1))


@pytest.mark.parametrize("text", ["(" * 300 + "t" + ")" * 300, "-" * 1000 + "t",
                                  "+".join(["t"] * 1000), "t^" * 1000 + "t"])
def test_deep_expressions_are_refused_not_crashed(text):
    with pytest.raises(ExpressionSyntaxError):
        exprlang.parse(text)


def test_nesting_counts_across_constructs():
    """Levels add up along a path: each construct counts, whichever it is."""
    half = exprlang.MAX_DEPTH // 2
    inner = "+".join(["t"] * half)          # half levels
    at_cap = "-(" * (half // 2) + inner + ")" * (half // 2)
    assert exprlang.parse(at_cap)(1.0) == float(half)
    with pytest.raises(ExpressionSyntaxError):
        exprlang.parse("(" + at_cap + ")")
