"""Tiny expression language for perturbation functions of t.

Grammar (highest binding first):

    atom   := NUMBER | 't' | FUNC '(' expr ')' | '(' expr ')'
    power  := atom ('^' unary)?          # right associative
    unary  := '-' unary | power          # so -t^2 == -(t^2)
    term   := unary (('*'|'/') unary)*
    expr   := term (('+'|'-') term)*

FUNC is one of exp, log, sin, cos, abs.  The only variable is t.
Evaluation is total on the declared domain: division by zero and log of a
non-positive argument raise DomainError instead of returning inf/nan.
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
    """Parsed scalar function of t, compiled once into a closure; immutable
    and thread-safe."""

    ast: object
    source: str

    def __post_init__(self):
        object.__setattr__(self, "_fn", _compile(self.ast))

    def __call__(self, t):
        if np.ndim(t) == 0:
            t, shape = float(t), None
        else:
            t = np.asarray(t, dtype=float)
            shape = t.shape
        with np.errstate(over="ignore", invalid="ignore"):
            return self._fn(t, shape)


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message):
        raise ExpressionSyntaxError(message, self.pos)

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
        node = self.expr()
        self.skip_ws()
        if self.pos < len(self.text):
            self.error(f"unexpected character {self.peek()!r}")
        return node

    def expr(self):
        node = self.term()
        while True:
            self.skip_ws()
            ch = self.peek()
            if ch == "+":
                self.pos += 1
                node = Bin("+", node, self.term())
            elif ch == "-":
                self.pos += 1
                node = Bin("-", node, self.term())
            else:
                return node

    def term(self):
        node = self.unary()
        while True:
            self.skip_ws()
            ch = self.peek()
            if ch == "*":
                self.pos += 1
                node = Bin("*", node, self.unary())
            elif ch == "/":
                self.pos += 1
                node = Bin("/", node, self.unary())
            else:
                return node

    def unary(self):
        self.skip_ws()
        if self.peek() == "-":
            self.pos += 1
            return Neg(self.unary())
        return self.power()

    def power(self):
        base = self.atom()
        self.skip_ws()
        if self.peek() == "^":
            self.pos += 1
            return Bin("^", base, self.unary())
        return base

    def atom(self):
        self.skip_ws()
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            node = self.expr()
            self.expect(")")
            return node
        if ch.isdigit() or ch == ".":
            return self.number()
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
            return Num(float(text))
        except ValueError:
            self.pos = start
            self.error(f"bad number literal {text!r}")

    def identifier(self):
        start = self.pos
        while self.peek().isalnum() or self.peek() == "_":
            self.pos += 1
        name = self.text[start:self.pos]
        if name == "t":
            return Var()
        if name in _FUNCTIONS:
            self.expect("(")
            node = self.expr()
            self.expect(")")
            return Call(name, node)
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
    out = np.power(left, right)
    if np.any(np.isnan(out)):
        raise DomainError("fractional power of a negative base")
    return _finite(out)


_CALLS = {"exp": lambda x: _finite(np.exp(x)), "log": _log, "sin": np.sin,
          "cos": np.cos, "abs": np.abs}
_BINARY = {"+": lambda a, b: _finite(a + b), "-": lambda a, b: _finite(a - b),
           "*": lambda a, b: _finite(a * b), "/": _div, "^": _pow}


def _compile(node):
    """The AST as a closure f(t, shape): t is a float (shape None) or a float
    array of that shape.  Each operation checks its own domain and result,
    so an intermediate overflow is reported even when the final value is
    finite."""
    if isinstance(node, Num):
        value = node.value
        return lambda t, shape: value if shape is None else np.full(shape, value, dtype=float)
    if isinstance(node, Var):
        return lambda t, shape: t
    if isinstance(node, Neg):
        arg = _compile(node.arg)
        return lambda t, shape: -arg(t, shape)
    if isinstance(node, Call):
        if node.func not in _CALLS:
            raise UnknownIdentifier(node.func)
        func, arg = _CALLS[node.func], _compile(node.arg)
        return lambda t, shape: func(arg(t, shape))
    if isinstance(node, Bin) and node.op in _BINARY:
        op, left, right = _BINARY[node.op], _compile(node.left), _compile(node.right)
        return lambda t, shape: op(left(t, shape), right(t, shape))
    raise TypeError(f"unknown AST node {node!r}")


def is_zero(expr: FunctionExpr) -> bool:
    """True when the expression is syntactically the constant 0."""
    node = expr.ast
    while isinstance(node, Neg):
        node = node.arg
    return isinstance(node, Num) and node.value == 0.0
