"""Tiny expression language for perturbation functions of t.

Grammar (highest binding first):

    atom   := NUMBER | 't' | FUNC '(' expr ')' | '(' expr ')'
    power  := atom ('^' unary)?          # right associative
    unary  := '-' unary | power          # so -t^2 == -(t^2)
    term   := unary (('*'|'/') unary)*
    expr   := term (('+'|'-') term)*

FUNC is one of exp, log, sin, cos, abs.  The only variable is t.
An expression nests at most MAX_DEPTH = 64 levels: t and a number are one
level, and each operator, function call and pair of parentheses adds one to
its deepest operand, so a flat sum of n terms nests n levels.  A deeper one
is an ExpressionSyntaxError, which keeps parsing, compiling and evaluating
well inside Python's recursion limit.

A number literal must be finite: 1e999 is an ExpressionSyntaxError at the
literal (it would be inf, and a bare constant is no operation that could
raise EvalOverflow), while 1e-999 is 0.0.

Evaluation is total on the declared domain: division by zero (zero raised
to a negative power included) and log of a non-positive argument raise
DomainError, and an inf or nan from any operation raises EvalOverflow,
instead of returning inf/nan.

Each AST is compiled into two closures, one over Python floats for a scalar
t and one over numpy arrays, from the same `_compile` with different op
tables (see FunctionExpr); both give the same bits at every t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    EvalOverflow,
    ExpressionSyntaxError,
    UnknownIdentifier,
)

_FUNCTIONS = ("exp", "log", "sin", "cos", "abs")


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    pass


@dataclass(frozen=True)
class Neg:
    arg: object


@dataclass(frozen=True)
class Bin:
    op: str
    left: object
    right: object


@dataclass(frozen=True)
class Call:
    func: str
    arg: object


@dataclass(frozen=True)
class FunctionExpr:
    """Parsed scalar function of t; immutable and thread-safe.

    The AST is compiled once into two closures by the same `_compile`, which
    differ only in their op tables.  A scalar t runs on Python floats; exp,
    log, sin and cos still go through numpy's ufuncs (converted to float),
    not `math`, whose exp differs from numpy's by an ulp on some inputs, so
    a scalar result equals the array result at that t bit for bit.  Only
    an exp whose argument can overflow and `^` enter `np.errstate` there.
    An array t runs on numpy arrays inside one `np.errstate` per call;
    constants stay floats and broadcast, and a constant tree is filled to
    t's shape.
    """

    ast: object
    source: str

    def __post_init__(self):
        object.__setattr__(self, "_scalar", _compile(self.ast, _SCALAR_OPS))
        object.__setattr__(self, "_array", _compile(self.ast, _ARRAY_OPS))

    def __call__(self, t):
        if isinstance(t, float) or np.ndim(t) == 0:
            return self._scalar(float(t))
        t = np.asarray(t, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            out = self._array(t)
        return out if isinstance(out, np.ndarray) else np.full(t.shape, out)


# deepest nesting an expression may have, in the levels the module docstring counts
MAX_DEPTH = 64


class _Parser:
    """Recursive descent; each rule returns (node, depth).

    `level` counts the constructs open around the current position
    (parentheses, calls, unary minus and the exponent of '^'), the only
    places where the descent recurses, and every leaf inside them lies
    deeper than that.  An expression deeper than MAX_DEPTH is refused as
    soon as the level or a node's depth shows it, before the descent goes
    further in."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.level = 0

    def error(self, message):
        raise ExpressionSyntaxError(message, self.pos)

    def nest(self, *depths):
        """The depth of a node over operands of these depths."""
        depth = 1 + max(depths)
        if self.level + depth > MAX_DEPTH:
            self.error(f"expression nests deeper than {MAX_DEPTH} levels")
        return depth

    def enter(self):
        """Open a construct: what follows lies one level further in."""
        self.level += 1
        if self.level >= MAX_DEPTH:
            self.error(f"expression nests deeper than {MAX_DEPTH} levels")

    def leave(self, *depths):
        """Close the construct that enter opened; its node's depth."""
        self.level -= 1
        return self.nest(*depths)

    def peek(self):
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def skip_ws(self):
        while self.peek() in " \t\n\r" and self.peek():
            self.pos += 1

    def expect(self, ch):
        self.skip_ws()
        if self.peek() != ch:
            self.error(f"expected '{ch}'")
        self.pos += 1

    def parse(self):
        node, _ = self.expr()
        self.skip_ws()
        if self.pos < len(self.text):
            self.error(f"unexpected character {self.peek()!r}")
        return node

    def expr(self):
        node, depth = self.term()
        while True:
            self.skip_ws()
            op = self.peek()
            if op not in ("+", "-"):
                return node, depth
            self.pos += 1
            right, right_depth = self.term()
            node, depth = Bin(op, node, right), self.nest(depth, right_depth)

    def term(self):
        node, depth = self.unary()
        while True:
            self.skip_ws()
            op = self.peek()
            if op not in ("*", "/"):
                return node, depth
            self.pos += 1
            right, right_depth = self.unary()
            node, depth = Bin(op, node, right), self.nest(depth, right_depth)

    def unary(self):
        self.skip_ws()
        if self.peek() == "-":
            self.pos += 1
            self.enter()
            arg, depth = self.unary()
            return Neg(arg), self.leave(depth)
        return self.power()

    def power(self):
        base, depth = self.atom()
        self.skip_ws()
        if self.peek() == "^":
            self.pos += 1
            self.enter()
            exponent, exponent_depth = self.unary()
            return Bin("^", base, exponent), self.leave(depth, exponent_depth)
        return base, depth

    def atom(self):
        self.skip_ws()
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            self.enter()
            node, depth = self.expr()
            self.expect(")")
            return node, self.leave(depth)
        if ch.isdigit() or ch == ".":
            return self.number(), 1
        if ch.isalpha() or ch == "_":
            return self.identifier()
        if ch == "":
            self.error("unexpected end of input")
        self.error(f"unexpected character {ch!r}")

    def number(self):
        start = self.pos
        seen_dot = False
        while self.peek().isdigit() or self.peek() == ".":
            if self.peek() == ".":
                if seen_dot:
                    self.error("second '.' in number")
                seen_dot = True
            self.pos += 1
        # optional exponent: 1e-3, 2.5E+4
        if self.peek() in "eE":
            mark = self.pos
            self.pos += 1
            if self.peek() in "+-":
                self.pos += 1
            if not self.peek().isdigit():
                self.pos = mark  # 'e' belonged to something else; bare 'e' is invalid later
            else:
                while self.peek().isdigit():
                    self.pos += 1
        text = self.text[start:self.pos]
        try:
            value = float(text)
            if math.isfinite(value):  # 1e999 would be inf
                return Num(value)
        except ValueError:
            pass
        self.pos = start
        self.error(f"bad number literal {text!r}")

    def identifier(self):
        start = self.pos
        while self.peek().isalnum() or self.peek() == "_":
            self.pos += 1
        name = self.text[start:self.pos]
        if name == "t":
            return Var(), 1
        if name in _FUNCTIONS:
            self.expect("(")
            self.enter()
            arg, depth = self.expr()
            self.expect(")")
            return Call(name, arg), self.leave(depth)
        raise UnknownIdentifier(f"unknown identifier {name!r} at position {start}")


def parse(text: str) -> FunctionExpr:
    """Parse an expression string into an immutable FunctionExpr."""
    if not text or not text.strip():
        raise ExpressionSyntaxError("empty expression", 0)
    return FunctionExpr(ast=_Parser(text).parse(), source=text)


def as_expr(value) -> FunctionExpr:
    """value itself when it is already a FunctionExpr, else parse(str(value))."""
    return value if isinstance(value, FunctionExpr) else parse(str(value))


def _finite(value):
    """value, or EvalOverflow when any entry is inf or nan."""
    ok = math.isfinite(value) if isinstance(value, float) else np.isfinite(value).all()
    if not ok:
        raise EvalOverflow("evaluation produced a non-finite value")
    return value


def _log(arg):
    if np.any(arg <= 0.0):
        raise DomainError("log of non-positive argument")
    return np.log(arg)


def _div(left, right):
    if np.any(right == 0.0):
        raise DomainError("division by zero")
    return _finite(left / right)


def _pow(left, right):
    if np.any((left == 0.0) & (right < 0.0)):
        raise DomainError("division by zero")
    out = np.power(left, right)
    if np.any(np.isnan(out)):
        raise DomainError("fractional power of a negative base")
    return _finite(out)


# np.exp of a float below this is finite, so it needs no errstate
_EXP_SAFE = 709.0


def _scalar_exp(x):
    if x < _EXP_SAFE:
        return float(np.exp(x))
    with np.errstate(over="ignore"):
        return _finite(float(np.exp(x)))


def _scalar_div(left, right):
    if right == 0.0:
        raise DomainError("division by zero")
    return _finite(left / right)


def _scalar_pow(left, right):
    if left == 0.0 and right < 0.0:
        raise DomainError("division by zero")
    with np.errstate(over="ignore", invalid="ignore"):
        out = float(np.power(left, right))
    if math.isnan(out):
        raise DomainError("fractional power of a negative base")
    return _finite(out)


# (functions, binary operators); the array ops run inside the errstate that
# FunctionExpr.__call__ enters, the scalar ops return Python floats
_ARRAY_OPS = (
    {"exp": lambda x: _finite(np.exp(x)), "log": _log, "sin": np.sin,
     "cos": np.cos, "abs": np.abs},
    {"+": lambda a, b: _finite(a + b), "-": lambda a, b: _finite(a - b),
     "*": lambda a, b: _finite(a * b), "/": _div, "^": _pow},
)
_SCALAR_OPS = (
    {"exp": _scalar_exp, "log": lambda x: float(_log(x)),
     "sin": lambda x: float(np.sin(x)), "cos": lambda x: float(np.cos(x)), "abs": abs},
    {**_ARRAY_OPS[1], "/": _scalar_div, "^": _scalar_pow},
)


def _compile(node, ops):
    """The AST as a closure f(t) over one op table of (functions, binary
    operators).  Constants stay Python floats.  Each operation checks its
    own domain and result, so an intermediate overflow is reported even
    when the final value is finite."""
    calls, binary = ops
    if isinstance(node, Num):
        value = node.value
        return lambda t: value
    if isinstance(node, Var):
        return lambda t: t
    if isinstance(node, Neg):
        arg = _compile(node.arg, ops)
        return lambda t: -arg(t)
    if isinstance(node, Call):
        if node.func not in calls:
            raise UnknownIdentifier(node.func)
        func, arg = calls[node.func], _compile(node.arg, ops)
        return lambda t: func(arg(t))
    if isinstance(node, Bin) and node.op in binary:
        op, left, right = binary[node.op], _compile(node.left, ops), _compile(node.right, ops)
        return lambda t: op(left(t), right(t))
    raise TypeError(f"unknown AST node {node!r}")


def is_zero(expr: FunctionExpr) -> bool:
    """True when the expression is syntactically the constant 0."""
    node = expr.ast
    while isinstance(node, Neg):
        node = node.arg
    return isinstance(node, Num) and node.value == 0.0
