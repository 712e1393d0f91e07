"""Expression language: grammar, evaluation, and error offsets."""

from __future__ import annotations

import numpy as np
import pytest

from ctrlstop.expr import EvalError, ParseError, parse_expression


def ev(text, env=None, names=None):
    return parse_expression(text, names)(env or {})


def test_precedence_and_associativity():
    assert ev("2+3*4") == 14.0
    assert ev("(2+3)*4") == 20.0
    assert ev("2-3-4") == -5.0
    assert ev("8/4/2") == 1.0
    assert ev("-2*3") == -6.0
    assert ev("-(2+3)") == -5.0
    assert ev("2*-3") == -6.0


def test_number_formats():
    assert ev("2e3") == 2000.0
    assert ev(".5") == 0.5
    assert ev("1.5e-2") == 0.015
    assert ev("7.") == 7.0


@pytest.mark.parametrize(
    "text,expected",
    [
        ("abs(-5)", 5.0),
        ("sqrt(9)", 3.0),
        ("exp(0)", 1.0),
        ("sign(-3.5)", -1.0),
        ("sign(0)", 0.0),
        ("tanh(0)", 0.0),
        ("pow(2,10)", 1024.0),
        ("min(3,-2)", -2.0),
        ("max(3,-2)", 3.0),
    ],
)
def test_function_evaluation(text, expected):
    assert ev(text) == expected


def test_variables_and_vectorised_eval():
    tree = parse_expression("a1*x1+t")
    assert tree.variables == {"a1", "x1", "t"}
    assert tree.variables
    x = np.array([1.0, 2.0, 3.0])
    out = tree({"a1": 2.0, "x1": x, "t": 10.0})
    assert np.array_equal(out, 2.0 * x + 10.0)


def test_constant_detection():
    assert not parse_expression("2*3+1").variables
    assert parse_expression("x1").variables == {"x1"}


def test_reference_interpretation_matches_numpy_bitwise():
    rng = np.random.default_rng(0)
    x = rng.normal(size=1000) * 3.0
    t = 0.375
    K, beta, T = 1.0, 2.0, 1.0

    put = parse_expression("max(K-x1,0)")({"K": K, "x1": x})
    assert np.array_equal(put, np.maximum(K - x, 0.0))

    decayed = parse_expression("max(K-x1,0)*(1+beta*(T-t))")(
        {"K": K, "beta": beta, "T": T, "t": t, "x1": x}
    )
    assert np.array_equal(decayed, np.maximum(K - x, 0.0) * (1.0 + beta * (T - t)))

    radial = parse_expression("sqrt(x1*x1+x2*x2)")({"x1": x, "x2": 2.0 * x})
    assert np.array_equal(radial, np.sqrt(x * x + (2.0 * x) * (2.0 * x)))


@pytest.mark.parametrize(
    "text,offset",
    [
        ("abs(x1", 7),
        ("2*^", 3),
        ("foo(1)", 1),
        ("pow(1)", 1),
        ("(1", 3),
        ("1)", 2),
        ("1+", 3),
        ("", 1),
    ],
)
def test_parse_error_offsets(text, offset):
    with pytest.raises(ParseError) as info:
        parse_expression(text, {"x1"})
    assert info.value.offset == offset
    assert f"offset {offset}" in str(info.value)


def test_unknown_identifier_rejected_when_names_given():
    with pytest.raises(ParseError, match="unknown identifier 'x9'"):
        parse_expression("x9+1", {"x1", "t"})
    # without a name set the identifier is allowed and resolved at eval time
    tree = parse_expression("x9+1")
    with pytest.raises(EvalError, match="unbound variable"):
        tree({})


def test_eval_domain_errors():
    with pytest.raises(EvalError, match="division by zero"):
        ev("1/0")
    with pytest.raises(EvalError, match="division by zero"):
        parse_expression("1/x1")({"x1": np.array([1.0, 0.0])})
    with pytest.raises(EvalError, match="sqrt"):
        ev("sqrt(0-1)")


def test_source_round_trip():
    tree = parse_expression("max(K-x1,0)*(1+beta*(T-t))")
    env = {"K": 1.0, "beta": 0.5, "T": 1.0, "t": 0.25, "x1": 0.8}
    again = parse_expression(tree.source)
    assert again(env) == tree(env)
