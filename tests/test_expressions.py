"""The integer-pair expression kernel against a `Fraction` tree-walker (`oracles.reference_value`)."""

import ast
import dataclasses
import random
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from oracles import reference_names, reference_value
from votaudit.replay import sample_params, scenario_catalog
from votaudit.replay.expressions import (
    Expr, ExpressionError, compile_expression, compile_predicate)
from votaudit.replay.verify import build_env


def _outcome(text: str, evaluate):
    """A value, or the error text the kernel gives `text` for the reference's exception."""
    try:
        return evaluate()
    except ExpressionError as exc:
        return str(exc)
    except ZeroDivisionError:
        return f"expression {text!r}: division by zero"
    except KeyError as exc:
        return f"expression {text!r}: unknown name {exc.args[0]!r}"


def _agrees(expr: Expr, env) -> None:
    expected = _outcome(expr.text, lambda: reference_value(expr.text, env))
    value = _outcome(expr.text, lambda: expr(env))
    assert value == expected and type(value) is type(expected), (expr.text, env)
    if type(value) is F:
        n, d = expr.ratio(env)
        assert d > 0 and F(n, d) == value, (expr.text, env, (n, d))


_ENV = {"a": F(-7, 3), "b": F(5, 2), "c": F(-1, 4), "z": F(0)}


@pytest.mark.parametrize("text", [
    "a", "-a", "+a", "- -a", "-(a - b)", "1/a", "b/a", "1/(a*c)", "a/(c - b)", "(a + b)/(-2)",
    "floor(a)", "ceil(a)", "floor(c)", "ceil(c)", "floor(-b)", "ceil(-b)", "ceil(7/2)",
    "floor(b/a)", "ceil(b/a)", "abs(a)", "abs(1/a)", "abs(b/(c - 1))", "abs(-z)",
    "1/z", "a/(b - b)", "floor(1/(a - a))", "q + 1", "1 + a*q",
])
def test_expression_cases(text):
    _agrees(compile_expression(text), _ENV)


def _syntax_error(text: str) -> str:
    """`ast`'s own text for why `text` does not parse, which varies between Pythons."""
    try:
        ast.parse(text, mode="eval")
    except SyntaxError as exc:
        return str(exc)
    raise AssertionError(f"{text!r} parses")


@pytest.mark.parametrize("text,refusal", [
    ("1 +", f"cannot parse '1 +': {_syntax_error('1 +')}"),
    ("a[0]", f"unsupported syntax: {ast.dump(ast.parse('a[0]', mode='eval').body)}"),
    ("floor(a, b)", "floor takes exactly one argument"),
], ids=["incomplete", "subscript", "two-arguments"])
def test_compile_expression_names_what_it_refuses(text, refusal):
    with pytest.raises(ExpressionError) as exc:
        compile_expression(text)
    assert str(exc.value) == refusal


_ONE = "predicate must be one comparison"

#: Predicate texts, and None where the kernel agrees with the reference, else the
#: refusal: a predicate is one comparison by < <= > >= ==, and a conjunction is the
#: catalog's list of them.
_PREDICATES = {
    "a < b": None, "b < a": None, "a <= a": None, "1/a < 0": None, "0 < 1/a": None,
    "b/a > c": None, "1/c >= 1/a": None, "b/a < -1": None, "a == -(7/3)": None,
    "1/a == 3/(-7)": None, "0 < abs(1/a)": None, "abs(1/a) < 1": None, "ceil(c) == 0": None,
    "floor(c) < 0": None, "a < 1/z": None, "1/z < a": None, "q < 0": None, "0 > q": None,
    "q < 1/z": None,
    "a != -(7/3)": "comparison NotEq not allowed", "a < c != c": _ONE, "a < c < b": _ONE,
    "a < b < c": _ONE, "c > a >= a": _ONE, "a <= a == a < b": _ONE, "0 < abs(1/a) < 1": _ONE,
    "a < b < 1/z": _ONE, "a < b and c < 0": _ONE, "a < b and b < c": _ONE,
    "b < a and 1/z < 0": _ONE, "a > b and q < 0": _ONE, "a < b and q < 0": _ONE,
    "a < b or c < 0": _ONE, "a": _ONE, "a is b": "comparison Is not allowed",
    "a in b": "comparison In not allowed",
}


@pytest.mark.parametrize("text,refusal", _PREDICATES.items(), ids=_PREDICATES)
def test_predicate_cases(text, refusal):
    if refusal is None:
        _agrees(compile_predicate(text), _ENV)
    else:
        with pytest.raises(ExpressionError, match=f"^{refusal}$"):
            compile_predicate(text)


_NAMES = ("a", "b", "c")


def _arith_texts():
    # one name read in 19 is of the unknown name q
    leaves = st.one_of(st.integers(0, 12).map(str), st.sampled_from(_NAMES * 6 + ("q",)))

    def extend(inner):
        binary = st.tuples(inner, st.sampled_from("+-*/"), inner).map(
            lambda t: f"({t[0]} {t[1]} {t[2]})")
        unary = st.tuples(st.sampled_from("-+"), inner).map("".join)
        call = st.tuples(st.sampled_from(["floor", "ceil", "abs"]), inner).map(
            lambda t: f"{t[0]}({t[1]})")
        return st.one_of(binary, unary, call)

    return st.recursive(leaves, extend, max_leaves=8)


def _predicate_texts():
    return st.tuples(_arith_texts(), st.sampled_from(["<", "<=", ">", ">=", "=="]),
                     _arith_texts()).map(" ".join)


_VALUES = st.fractions(min_value=-5, max_value=5, max_denominator=12)
_ENVS = st.fixed_dictionaries({name: _VALUES for name in _NAMES})


@settings(max_examples=300)
@given(_arith_texts(), _ENVS)
def test_expressions_match_the_fraction_reference(text, env):
    _agrees(compile_expression(text), env)


@settings(max_examples=300)
@given(_predicate_texts(), _ENVS)
def test_predicates_match_the_fraction_reference(text, env):
    _agrees(compile_predicate(text), env)


def _expressions(value):
    """Every compiled expression inside a scenario record."""
    if isinstance(value, Expr):
        yield value
    elif dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            yield from _expressions(getattr(value, f.name))
    elif isinstance(value, tuple):
        for item in value:
            yield from _expressions(item)


def test_catalog_texts_match_the_fraction_reference():
    rng = random.Random(350)
    texts = set()
    for scenario in scenario_catalog():
        exprs = set(_expressions(scenario))
        texts |= {e.text for e in exprs}
        for _ in range(5):
            env = build_env(scenario, sample_params(scenario, rng))
            for expr in exprs:
                _agrees(expr, env)
    assert len(texts) > 300  # about 350 distinct texts


def test_catalog_names_match_the_reference_walk():
    texts = {expr.text: expr for scenario in scenario_catalog() for expr in _expressions(scenario)}
    for text, expr in texts.items():
        assert expr.names == reference_names(text), text


@settings(max_examples=300)
@given(st.one_of(st.tuples(st.just(compile_expression), _arith_texts()),
                 st.tuples(st.just(compile_predicate), _predicate_texts())))
def test_names_match_the_reference_walk(drawn):
    compile_text, text = drawn
    expr = compile_text(text)
    assert expr.names == reference_names(text), text


_DEEP_TEXTS = {"996 signs": "-" * 996 + "a", "3000 terms": " + ".join(["a"] * 3000)}


@pytest.mark.parametrize("text", _DEEP_TEXTS.values(), ids=_DEEP_TEXTS)
def test_deeply_nested_text_is_an_expression_error(text):
    for refused in (lambda: compile_expression(text), lambda: compile_predicate(f"{text} < 1")):
        with pytest.raises(ExpressionError, match="^expression nested too deeply$"):
            refused()


def test_an_expression_called_past_the_recursion_limit_is_an_expression_error():
    expr = compile_expression("-" * 300 + "a")

    def call_at_depth(k):  # leaves fewer than 300 frames for the 300 signs
        return expr(_ENV) if k == 0 else call_at_depth(k - 1)

    refusal = "^expression '-{300}a': expression nested too deeply$"
    with pytest.raises(ExpressionError, match=refusal):
        call_at_depth(sys.getrecursionlimit() - 300)


@pytest.mark.parametrize("text", ["a + 1/(2 - 2)", "floor(1/(3 - 3)) + a"])
def test_a_constant_with_no_value_compiles_and_fails_when_called_naming_the_text(text):
    expr = compile_expression(text)
    with pytest.raises(ExpressionError) as exc:
        expr(_ENV)
    assert str(exc.value) == f"expression {text!r}: division by zero"
    _agrees(expr, _ENV)


@pytest.mark.parametrize("text", ["ceil(7/2) + a", "(1 - 1/4)*a", "-(2 - 5)/(1 + 1) * b"])
def test_folded_constants_agree_with_the_reference(text):
    _agrees(compile_expression(text), _ENV)


def test_a_text_that_reads_no_name_is_called_as_one_leaf():
    # `"-" * 300 + "a"` fails at this depth (the recursion-limit test above); this text reads
    # no name, so it is folded into one constant when it is compiled
    expr = compile_expression("-" * 300 + "(1/2)")

    def call_at_depth(k):
        return expr(_ENV) if k == 0 else call_at_depth(k - 1)

    assert call_at_depth(sys.getrecursionlimit() - 300) == F(1, 2)
