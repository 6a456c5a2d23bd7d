"""Exact evaluation of small arithmetic expressions over named rationals.

The catalog stores weights, move amounts, and inequalities as text like
``"(1 - a - 2*b)/2"`` or ``"n*epsilon <= a - b"``.  Each text is parsed once
with `ast` and compiled into an `Expr`, a tree of closures that is then
called at every parameter point.  Only +, -, *, /, parentheses, integer
literals, names and the functions floor/ceil/abs are admitted, and a
predicate is one comparison by one of < <= > >= ==: a conjunction is the
catalog's list of them.  Float literals are rejected so nothing silently
loses exactness.

Inside, every value is an unreduced integer pair ``(numerator, denominator)``
with a positive denominator: `+ - * /` cross-multiply with no gcd, `/` moves
the sign of its divisor to the numerator, floor/ceil/abs work on the
numerator, and a comparison compares cross products.  A name is read from
the environment with ``as_integer_ratio()``, so the environment must hold
exact values (`Fraction` or `int`).  Calling an `Expr` gives one normalised
`Fraction` (or a `bool` for a predicate); `Expr.ratio` gives the raw pair, for
callers that only compute with it (the verifier's profile weights, identities
and preconditions, `verify.sample_params`).

Each part of a text that reads no name, like ``1/2`` in ``(1 - 1/2)*a``, is
folded bottom-up into one constant leaf when the text is compiled, the same
pair its closures would give at every call.  A part with no value, like
``1/(2 - 2)``, becomes a leaf that raises when called, so the text still fails
at call time with its whole text.

The walk that builds the closures also collects the names an expression reads
(`Expr.names`), by which the loader checks each text against its scope.
Text nested past the recursion limit is an `ExpressionError` like any other.
"""

from __future__ import annotations

import ast
import operator
from dataclasses import dataclass, field
from functools import lru_cache
from fractions import Fraction
from typing import Callable, Mapping

Env = Mapping[str, Fraction]
Pair = tuple[int, int]  # (numerator, denominator > 0), not reduced


class ExpressionError(ValueError):
    """Raised for malformed or non-exact expressions."""


@dataclass(frozen=True, slots=True)
class Expr:
    """A compiled expression or predicate; call it on an environment of `Fraction`s."""

    text: str
    names: frozenset[str]  # the free names it reads
    fn: Callable[[Env], Pair | bool] = field(compare=False, repr=False)

    def ratio(self, env: Env) -> Pair | bool:
        """The value as an unreduced pair ``(n, d)``, ``d > 0``; a predicate gives a `bool`.
        A value that does not exist is an `ExpressionError` that names the text."""
        try:
            return self.fn(env)
        except KeyError as exc:  # the closures read nothing but `env`
            why = f"unknown name {exc.args[0]!r}"
        except ZeroDivisionError:
            why = "division by zero"
        except RecursionError:  # text that compiled just below the limit, called deeper
            why = "expression nested too deeply"
        raise ExpressionError(f"expression {self.text!r}: {why}")

    def __call__(self, env: Env) -> Fraction | bool:
        value = self.ratio(env)
        return value if value.__class__ is bool else Fraction(*value)

    def __str__(self) -> str:
        return self.text


def _add(left, right):
    def add(env):
        ln, ld = left(env)
        rn, rd = right(env)
        return ln * rd + rn * ld, ld * rd
    return add


def _sub(left, right):
    def sub(env):
        ln, ld = left(env)
        rn, rd = right(env)
        return ln * rd - rn * ld, ld * rd
    return sub


def _mul(left, right):
    def mul(env):
        ln, ld = left(env)
        rn, rd = right(env)
        return ln * rn, ld * rd
    return mul


def _div(left, right):
    def div(env):
        ln, ld = left(env)
        rn, rd = right(env)
        if rn > 0:
            return ln * rd, ld * rn
        if rn < 0:
            return -ln * rd, -ld * rn
        raise ZeroDivisionError
    return div


# Leaves are most of the nodes, and the catalog reads few names and constants,
# so each one gets a single closure that every site shares.
@lru_cache(maxsize=256)
def _constant(pair: Pair) -> Callable[[Env], Pair]:
    return lambda env: pair


@lru_cache(maxsize=256)
def _read(name: str) -> Callable[[Env], Pair]:
    return lambda env: env[name].as_integer_ratio()


def _undefined(env: Env) -> Pair:
    """The leaf of a constant with no value, like ``1/(2 - 2)``."""
    raise ZeroDivisionError


def _folded(fn: Callable[[Env], Pair], names: frozenset[str]):
    """`fn` and `names`, with `fn` folded into one leaf if it reads no name: its value, or
    `_undefined` where it has none, so calling the text still fails there and names the
    whole text.  Nodes fold bottom-up, so `fn` reads only leaves: one node deep."""
    if names:
        return fn, names
    try:
        return _constant(fn(None)), names
    except ZeroDivisionError:
        return _undefined, names


def _unary(function, operand):
    return lambda env: function(*operand(env))


_OPERATORS = {ast.Add: _add, ast.Sub: _sub, ast.Mult: _mul, ast.Div: _div}

_FUNCTIONS = {
    "floor": lambda n, d: (n // d, 1),
    "ceil": lambda n, d: (-(-n // d), 1),
    "abs": lambda n, d: (abs(n), d),
}

# Denominators are positive, so a/b < c/d exactly when a*d < c*b.
_COMPARATORS = {
    ast.Lt: operator.lt,
    ast.LtE: operator.le,
    ast.Gt: operator.gt,
    ast.GtE: operator.ge,
    ast.Eq: operator.eq,
}


def _arith(node: ast.AST) -> tuple[Callable[[Env], Pair], frozenset[str]]:
    """The closure computing `node`, and the names it reads."""
    if isinstance(node, ast.Constant):
        if isinstance(node.value, int) and not isinstance(node.value, bool):
            return _constant((node.value, 1)), frozenset()
        raise ExpressionError(f"only integer literals are exact, got {node.value!r}")
    if isinstance(node, ast.Name):
        return _read(node.id), frozenset((node.id,))
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        operand, names = _arith(node.operand)
        if isinstance(node.op, ast.UAdd):
            return operand, names
        return _folded(_unary(lambda n, d: (-n, d), operand), names)
    if isinstance(node, ast.BinOp):
        if type(node.op) not in _OPERATORS:
            raise ExpressionError(f"operator {type(node.op).__name__} not allowed")
        (left, lnames), (right, rnames) = _arith(node.left), _arith(node.right)
        return _folded(_OPERATORS[type(node.op)](left, right), lnames | rnames)
    if isinstance(node, ast.Call):
        if not isinstance(node.func, ast.Name) or node.func.id not in _FUNCTIONS:
            raise ExpressionError("only floor/ceil/abs calls are allowed")
        if len(node.args) != 1 or node.keywords:
            raise ExpressionError(f"{node.func.id} takes exactly one argument")
        operand, names = _arith(node.args[0])
        return _folded(_unary(_FUNCTIONS[node.func.id], operand), names)
    raise ExpressionError(f"unsupported syntax: {ast.dump(node)}")


def _predicate(node: ast.AST) -> tuple[Callable[[Env], bool], frozenset[str]]:
    """The test computing `node`, and the names it reads."""
    if not isinstance(node, ast.Compare) or len(node.ops) != 1:
        raise ExpressionError("predicate must be one comparison")
    if type(node.ops[0]) not in _COMPARATORS:
        raise ExpressionError(f"comparison {type(node.ops[0]).__name__} not allowed")
    holds = _COMPARATORS[type(node.ops[0])]
    (left, lnames), (right, rnames) = _arith(node.left), _arith(node.comparators[0])

    def compare(env: Env) -> bool:
        ln, ld = left(env)
        rn, rd = right(env)
        return holds(ln * rd, rn * ld)
    return compare, lnames | rnames


# Catalog texts repeat (2,088 expression sites, about 350 distinct texts), and
# an `Expr` is immutable, so every site with the same text shares one.
@lru_cache(maxsize=1024)
def _compile(text: str, build) -> Expr:
    try:
        fn, names = build(ast.parse(text, mode="eval").body)
    except SyntaxError as exc:
        raise ExpressionError(f"cannot parse {text!r}: {exc}") from None
    except RecursionError:
        raise ExpressionError("expression nested too deeply") from None
    return Expr(text, names, fn)


def compile_expression(text: str) -> Expr:
    """Compile arithmetic text; calling the result gives an exact rational."""
    return _compile(text, _arith)


def compile_predicate(text: str) -> Expr:
    """Compile one comparison to a test."""
    return _compile(text, _predicate)
