"""Expression language against Python's own evaluation of the same text, on random expressions."""

from __future__ import annotations

import re

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ctrlstop.expr import FUNCTIONS, parse_expression

# the functions of the language under the names it uses, for eval()
NUMPY_NAMESPACE = {
    "abs": np.abs,
    "sqrt": np.sqrt,
    "exp": np.exp,
    "sign": np.sign,
    "tanh": np.tanh,
    "pow": np.power,
    "min": np.minimum,
    "max": np.maximum,
}

# small integers, so that eval()'s exact int arithmetic gives the float result, and every float form
NUMBERS = st.integers(1, 9).map(str) | st.sampled_from(["2", "0.5", ".5", "7.", "1.5e-2", "2.25", ".125", "3e-1"])
NAMES = st.sampled_from(["x1", "x2", "t", "K"])

# an expression is (text, names a variable or the parameter); int-only parts stay single literals
LEAVES = NUMBERS.map(lambda s: (s, False)) | NAMES.map(lambda s: (s, True))
X1 = ("x1", True)


def _pair(a, b):
    """Both operands, the second replaced by x1 when neither names anything."""
    return (a, b) if a[1] or b[1] else (a, X1)


def _binary(parts):
    a, op, b, minus = parts
    (a, b) = _pair(a, b)
    if op == "/":
        # denominators kept off zero, some of them negated
        return f"{a[0]}/{'-' if minus else ''}(1+abs({b[0]}))", True
    return f"{a[0]}{op}{b[0]}", True


def _unary_call(parts):
    fn, (text, named) = parts
    # sqrt's argument kept off the negatives
    return (f"sqrt(1+abs({text}))" if fn == "sqrt" else f"{fn}({text})"), named


def _binary_call(parts):
    fn, a, b = parts
    (a, b) = _pair(a, b)
    # pow's base kept positive
    first = f"1+abs({a[0]})" if fn == "pow" else a[0]
    return f"{fn}({first},{b[0]})", True


def _extend(children):
    unary = sorted(name for name, (arity, _) in FUNCTIONS.items() if arity == 1)
    binary = sorted(name for name, (arity, _) in FUNCTIONS.items() if arity == 2)
    calls = st.tuples(st.sampled_from(unary), children).map(_unary_call) | st.tuples(
        st.sampled_from(binary), children, children
    ).map(_binary_call)
    atoms = LEAVES | calls | children.map(lambda c: (f"({c[0]})", c[1]))
    # a unary minus on an atom: at the start, after an operator, before "(" or a call
    negated = atoms.map(lambda c: (f"-{c[0]}", c[1]))
    operands = children | negated
    return st.tuples(operands, st.sampled_from("+-*/"), operands, st.booleans()).map(_binary) | calls


EXPRESSIONS = st.recursive(LEAVES, _extend, max_leaves=12)


@settings(max_examples=300, deadline=None)
@given(expression=EXPRESSIONS, seed=st.integers(0, 2**32 - 1))
def test_compiled_expression_matches_python_eval_bitwise(expression, seed):
    text, _ = expression
    rng = np.random.default_rng(seed)
    # exact zeros of both signs, so a changed sign of zero shows in the bytes
    x1 = np.concatenate([[0.0, -0.0], 3.0 * rng.standard_normal(5)])
    env = {"x1": x1, "x2": rng.permutation(x1), "t": rng.random(7), "K": 1.25}
    tree = parse_expression(text)
    with np.errstate(all="ignore"):
        got = np.asarray(tree(env), dtype=np.float64)
        want = np.asarray(eval(text, {"__builtins__": {}}, NUMPY_NAMESPACE | env), dtype=np.float64)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes(), text
    # identifiers not inside a number (the e of 1.5e-2), less the function names
    named = set(re.findall(r"(?<![\w.])[A-Za-z_]\w*", text)) - set(FUNCTIONS)
    assert tree.variables == named
