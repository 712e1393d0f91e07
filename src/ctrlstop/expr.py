"""Tiny arithmetic expression language for problem files.

Grammar (whitespace insignificant)::

    expr   := term (("+"|"-") term)*
    term   := factor (("*"|"/") factor)*
    factor := "-"? atom
    atom   := NUMBER | IDENT | IDENT "(" expr ("," expr)* ")" | "(" expr ")"

Identifiers name the time variable ``t``, state components ``x1..xd``,
control components ``a1..ak``, or named parameters.  The function set is
fixed.  Each grammar rule compiles its text as it is parsed into a closure
``env -> value``, so a parsed expression is one closure and no tree is
walked when it is called; the identifiers it names are gathered on the way.
Evaluation is numpy-vectorised and elementwise, each operation applied to
its operands' values left operand first.  A parsed expression holds
closures, so it cannot be pickled.
"""

from __future__ import annotations

import operator
import re
from typing import Mapping

import numpy as np

__all__ = [
    "ExpressionTree",
    "ParseError",
    "EvalError",
    "parse_expression",
    "FUNCTIONS",
]


class ParseError(ValueError):
    """Syntax or name-resolution failure.  ``offset`` is 1-based."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset


class EvalError(ArithmeticError):
    """Domain failure during evaluation (sqrt of a negative, division by zero)."""


def _divide(a, b):
    # reject zero denominators outright
    if np.any(b == 0):
        raise EvalError("division by zero")
    return a / b


def _sqrt(a):
    if np.any(np.asarray(a) < 0):
        raise EvalError("sqrt of a negative value")
    return np.sqrt(a)


# name -> (arity, implementation)
FUNCTIONS = {
    "abs": (1, np.abs),
    "sqrt": (1, _sqrt),
    "exp": (1, np.exp),
    "sign": (1, np.sign),
    "tanh": (1, np.tanh),
    "pow": (2, np.power),
    "min": (2, np.minimum),
    "max": (2, np.maximum),
}

_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": _divide}

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


def _lookup(name):
    def variable(env):
        try:
            return env[name]
        except KeyError:
            raise EvalError(f"unbound variable {name!r}") from None

    return variable


def _unary(fn, arg):
    return lambda env: fn(arg(env))


def _binary(fn, left, right):
    return lambda env: fn(left(env), right(env))


class ExpressionTree:
    """Parsed expression.  ``__call__`` evaluates against a variable mapping."""

    def __init__(self, fn, source: str, variables: frozenset[str]):
        self._fn = fn
        self.source = source
        self.variables = variables

    def __call__(self, env: Mapping[str, object]):
        return self._fn(env)

    def __repr__(self):
        return f"ExpressionTree({self.source!r})"


class _Parser:
    """Recursive descent over the tokens; every rule returns a closure ``env -> value``."""

    def __init__(self, tokens, names):
        self.tokens = tokens
        self.i = 0
        self.names = names
        self.seen: set[str] = set()

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

    def chain(self, ops, operand):
        """``operand (op operand)*`` for op in ``ops``, folded left-associatively."""
        left = operand()
        while True:
            kind, val, _ = self.peek()
            if kind != "op" or val not in ops:
                return left
            self.advance()
            left = _binary(_BINARY[val], left, operand())

    def expr(self):
        return self.chain("+-", self.term)

    def term(self):
        return self.chain("*/", self.factor)

    def factor(self):
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.advance()
            return _unary(operator.neg, self.atom())
        return self.atom()

    def atom(self):
        kind, val, off = self.advance()
        if kind == "num":
            value = float(val)
            return lambda env: value
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
                arity, fn = FUNCTIONS[val]
                if len(args) != arity:
                    raise ParseError(f"function {val!r} takes {arity} argument(s), got {len(args)}", off)
                return (_unary if arity == 1 else _binary)(fn, *args)
            if self.names is not None and val not in self.names:
                raise ParseError(f"unknown identifier {val!r}", off)
            self.seen.add(val)
            return _lookup(val)
        if kind == "op" and val == "(":
            fn = self.expr()
            self.expect_op(")")
            return fn
        if kind == "eof":
            raise ParseError("unexpected end of input", off)
        raise ParseError(f"unexpected token {val!r}", off)


def parse_expression(text: str, names=None) -> ExpressionTree:
    """Parse and compile ``text`` into an :class:`ExpressionTree`.

    ``names``, when given, is the set of identifiers allowed to appear;
    anything else raises :class:`ParseError` with its byte offset.
    """
    tokens = _tokenize(text)
    parser = _Parser(tokens, None if names is None else frozenset(names))
    fn = parser.expr()
    kind, val, off = parser.peek()
    if kind != "eof":
        raise ParseError(f"unexpected trailing token {val!r}", off)
    return ExpressionTree(fn, text, frozenset(parser.seen))
