"""Tiny arithmetic expression language for problem files.

Grammar (whitespace insignificant)::

    expr   := term (("+"|"-") term)*
    term   := factor (("*"|"/") factor)*
    factor := "-"? atom
    atom   := NUMBER | IDENT | IDENT "(" expr ("," expr)* ")" | "(" expr ")"

Identifiers name the time variable ``t``, state components ``x1..xd``,
control components ``a1..ak``, or named parameters.  The function set is
fixed.  Evaluation is numpy-vectorised and elementwise.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Mapping

import numpy as np

__all__ = [
    "ExpressionTree",
    "ParseError",
    "EvalError",
    "parse_expression",
    "FUNCTIONS",
]

# name -> arity
FUNCTIONS = {
    "abs": 1,
    "sqrt": 1,
    "exp": 1,
    "sign": 1,
    "tanh": 1,
    "pow": 2,
    "min": 2,
    "max": 2,
}


class ParseError(ValueError):
    """Syntax or name-resolution failure.  ``offset`` is 1-based."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset


class EvalError(ArithmeticError):
    """Domain failure during evaluation (sqrt of a negative, division by zero)."""


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/(),]))"
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            bad = len(text) - len(stripped)
            raise ParseError(f"unexpected character {text[bad]!r}", bad + 1)
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind) + 1))
        pos = m.end()
    tokens.append(("eof", "", len(text) + 1))
    return tokens


@dataclass(frozen=True)
class _Num:
    value: float

    def eval(self, env):
        return self.value

    def names(self, out):
        pass


@dataclass(frozen=True)
class _Var:
    name: str

    def eval(self, env):
        try:
            return env[self.name]
        except KeyError:
            raise EvalError(f"unbound variable {self.name!r}") from None

    def names(self, out):
        out.add(self.name)


@dataclass(frozen=True)
class _Neg:
    child: object

    def eval(self, env):
        return -self.child.eval(env)

    def names(self, out):
        self.child.names(out)


@dataclass(frozen=True)
class _Bin:
    op: str
    left: object
    right: object

    def eval(self, env):
        a = self.left.eval(env)
        b = self.right.eval(env)
        if self.op == "+":
            return a + b
        if self.op == "-":
            return a - b
        if self.op == "*":
            return a * b
        # division: reject zero denominators outright
        if np.any(b == 0):
            raise EvalError("division by zero")
        return a / b

    def names(self, out):
        self.left.names(out)
        self.right.names(out)


@dataclass(frozen=True)
class _Call:
    fn: str
    args: tuple

    def eval(self, env):
        vals = [a.eval(env) for a in self.args]
        fn = self.fn
        if fn == "abs":
            return np.abs(vals[0])
        if fn == "sqrt":
            if np.any(np.asarray(vals[0]) < 0):
                raise EvalError("sqrt of a negative value")
            return np.sqrt(vals[0])
        if fn == "exp":
            return np.exp(vals[0])
        if fn == "sign":
            return np.sign(vals[0])
        if fn == "tanh":
            return np.tanh(vals[0])
        if fn == "pow":
            return np.power(vals[0], vals[1])
        if fn == "min":
            return np.minimum(vals[0], vals[1])
        return np.maximum(vals[0], vals[1])

    def names(self, out):
        for a in self.args:
            a.names(out)


class ExpressionTree:
    """Parsed expression.  ``__call__`` evaluates against a variable mapping."""

    def __init__(self, root, source: str):
        self._root = root
        self.source = source

    def __call__(self, env: Mapping[str, object]):
        return self._root.eval(env)

    @property
    def variables(self) -> frozenset[str]:
        out: set[str] = set()
        self._root.names(out)
        return frozenset(out)

    def __repr__(self):
        return f"ExpressionTree({self.source!r})"


class _Parser:
    def __init__(self, tokens, names):
        self.tokens = tokens
        self.i = 0
        self.names = names

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, val, off = self.peek()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}", off)
        return self.advance()

    def expr(self):
        node = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.advance()
                node = _Bin(val, node, self.term())
            else:
                return node

    def term(self):
        node = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.advance()
                node = _Bin(val, node, self.factor())
            else:
                return node

    def factor(self):
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.advance()
            return _Neg(self.atom())
        return self.atom()

    def atom(self):
        kind, val, off = self.advance()
        if kind == "num":
            return _Num(float(val))
        if kind == "ident":
            nkind, nval, _ = self.peek()
            if nkind == "op" and nval == "(":
                if val not in FUNCTIONS:
                    raise ParseError(f"unknown function {val!r}", off)
                self.advance()
                args = [self.expr()]
                while True:
                    k, v, o = self.peek()
                    if k == "op" and v == ",":
                        self.advance()
                        args.append(self.expr())
                    else:
                        break
                self.expect_op(")")
                if len(args) != FUNCTIONS[val]:
                    raise ParseError(
                        f"function {val!r} takes {FUNCTIONS[val]} argument(s), got {len(args)}",
                        off,
                    )
                return _Call(val, tuple(args))
            if self.names is not None and val not in self.names:
                raise ParseError(f"unknown identifier {val!r}", off)
            return _Var(val)
        if kind == "op" and val == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        if kind == "eof":
            raise ParseError("unexpected end of input", off)
        raise ParseError(f"unexpected token {val!r}", off)


def parse_expression(text: str, names=None) -> ExpressionTree:
    """Parse ``text`` into an :class:`ExpressionTree`.

    ``names``, when given, is the set of identifiers allowed to appear;
    anything else raises :class:`ParseError` with its byte offset.
    """
    tokens = _tokenize(text)
    parser = _Parser(tokens, None if names is None else frozenset(names))
    root = parser.expr()
    kind, val, off = parser.peek()
    if kind != "eof":
        raise ParseError(f"unexpected trailing token {val!r}", off)
    return ExpressionTree(root, text)
