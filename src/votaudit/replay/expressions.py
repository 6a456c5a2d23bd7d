"""Exact evaluation of small arithmetic expressions over named rationals.

The catalog stores weights, move amounts, and inequalities as text like
``"(1 - a - 2*b)/2"`` or ``"n*epsilon <= a - b"``.  Each text is parsed once
with `ast` and compiled into an `Expr`, a tree of closures that is then
called at every parameter point.  Only +, -, *, /, parentheses, integer
literals, names, comparisons, `and`, and the functions floor/ceil/abs are
admitted.  Float literals are rejected so nothing silently loses exactness.

Inside, every value is an unreduced integer pair ``(numerator, denominator)``
with a positive denominator: `+ - * /` cross-multiply with no gcd, `/` moves
the sign of its divisor to the numerator, floor/ceil/abs work on the
numerator, and a comparison compares cross products.  A name is read from
the environment with ``as_integer_ratio()``, so the environment must hold
exact values (`Fraction` or `int`); `evaluate_expression`/
`evaluate_predicate` make the environment they are given so, with
`core.as_fraction`.  Calling an `Expr` gives one normalised `Fraction` (or a
`bool` for a predicate); `Expr.ratio` gives the raw pair, for callers that
only compute with it (the verifier's profile weights, `verify.sample_params`).

Compiling also records which names an arithmetic expression is provably
affine in (`Expr.affine_in`), by a syntactic degree rule that never
understates a degree: a name has degree 1 and a literal 0; `+` and `-` take
the larger degree of their operands, `*` adds them and a sign keeps it; `/`
keeps its dividend's degree in a name its divisor does not read; floor, ceil
and abs, and a divisor, make every name they read non-affine.  A predicate is
affine in none of its names.  The loader admits an affine induction chain only
when every weight is affine in the chain's index, as the verifier's walk needs.
"""

from __future__ import annotations

import ast
import math
import operator
from dataclasses import dataclass, field
from functools import lru_cache
from fractions import Fraction
from typing import Callable, Mapping

from ..core import as_fraction

Env = Mapping[str, Fraction]
Pair = tuple[int, int]  # (numerator, denominator > 0), not reduced


class ExpressionError(ValueError):
    """Raised for malformed or non-exact expressions."""


@dataclass(frozen=True, slots=True)
class Expr:
    """A compiled expression or predicate; call it on an environment of `Fraction`s."""

    text: str
    names: frozenset[str]  # the free names it reads
    nonaffine: tuple[str, ...]  # the names it reads that the degree rule leaves above 1
    fn: Callable[[Env], Pair | bool] = field(compare=False, repr=False)

    def affine_in(self, name: str) -> bool:
        """Whether the value is provably affine in `name` (constant if it reads none)."""
        return name not in self.nonaffine

    def ratio(self, env: Env) -> Pair | bool:
        """The value as an unreduced pair ``(n, d)``, ``d > 0``; a predicate gives a `bool`."""
        try:
            return self.fn(env)
        except KeyError as exc:  # the closures read nothing but `env`
            raise ExpressionError(f"unknown name {exc.args[0]!r}") from None
        except ZeroDivisionError:
            raise ExpressionError("division by zero") from None

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


# Leaves are most of the nodes, and the catalog reads few names and literals,
# so each one gets a single closure that every site shares.
@lru_cache(maxsize=256)
def _literal(value: int) -> Callable[[Env], Pair]:
    pair = (value, 1)
    return lambda env: pair


@lru_cache(maxsize=256)
def _read(name: str) -> Callable[[Env], Pair]:
    return lambda env: env[name].as_integer_ratio()


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
    ast.NotEq: operator.ne,
}


def _arith(node: ast.AST, names: set[str]) -> Callable[[Env], Pair]:
    """The closure computing `node`; the names it reads are added to `names`."""
    if isinstance(node, ast.Constant):
        if isinstance(node.value, int) and not isinstance(node.value, bool):
            return _literal(node.value)
        raise ExpressionError(f"only integer literals are exact, got {node.value!r}")
    if isinstance(node, ast.Name):
        names.add(node.id)
        return _read(node.id)
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        operand = _arith(node.operand, names)
        return operand if isinstance(node.op, ast.UAdd) else _unary(lambda n, d: (-n, d), operand)
    if isinstance(node, ast.BinOp):
        op = _OPERATORS.get(type(node.op))
        if op is None:
            raise ExpressionError(f"operator {type(node.op).__name__} not allowed")
        return op(_arith(node.left, names), _arith(node.right, names))
    if isinstance(node, ast.Call):
        if not isinstance(node.func, ast.Name) or node.func.id not in _FUNCTIONS:
            raise ExpressionError("only floor/ceil/abs calls are allowed")
        if len(node.args) != 1 or node.keywords:
            raise ExpressionError(f"{node.func.id} takes exactly one argument")
        return _unary(_FUNCTIONS[node.func.id], _arith(node.args[0], names))
    raise ExpressionError(f"unsupported syntax: {ast.dump(node)}")


def _predicate(node: ast.AST, names: set[str]) -> Callable[[Env], bool]:
    if isinstance(node, ast.BoolOp) and isinstance(node.op, ast.And):
        parts = [_predicate(v, names) for v in node.values]
        return lambda env: all(part(env) for part in parts)
    if isinstance(node, ast.Compare):
        first, links = _arith(node.left, names), []
        for op, operand in zip(node.ops, node.comparators):
            if type(op) not in _COMPARATORS:
                raise ExpressionError(f"comparison {type(op).__name__} not allowed")
            links.append((_COMPARATORS[type(op)], _arith(operand, names)))

        def compare(env: Env) -> bool:
            ln, ld = first(env)
            for holds, operand in links:
                rn, rd = operand(env)
                if not holds(ln * rd, rn * ld):
                    return False
                ln, ld = rn, rd
            return True
        return compare
    raise ExpressionError("predicate must be a comparison")


def _degrees(node: ast.AST) -> dict[str, float]:
    """Each name's degree in arithmetic `node` by the module's syntactic rule,
    `math.inf` for a name read by floor/ceil/abs or a divisor; `{}` for a literal
    or any other node."""
    if isinstance(node, ast.Name):
        return {node.id: 1}
    if isinstance(node, ast.UnaryOp):
        return _degrees(node.operand)
    if isinstance(node, ast.BinOp):
        left, right = _degrees(node.left), _degrees(node.right)
        if isinstance(node.op, ast.Div):
            return {**left, **dict.fromkeys(right, math.inf)}
        join = operator.add if isinstance(node.op, ast.Mult) else max
        return {n: join(left.get(n, 0), right.get(n, 0)) for n in left.keys() | right}
    if isinstance(node, ast.Call):
        return dict.fromkeys(_degrees(node.args[0]), math.inf)
    return {}


# Catalog texts repeat (2,088 expression sites, about 350 distinct texts), and
# an `Expr` is immutable, so every site with the same text shares one.
@lru_cache(maxsize=1024)
def _compile(text: str, build) -> Expr:
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError as exc:
        raise ExpressionError(f"cannot parse {text!r}: {exc}") from None
    names: set[str] = set()
    fn = build(tree.body, names)
    degrees = _degrees(tree.body)  # {} for a predicate: none of its names is affine
    nonaffine = tuple(n for n in sorted(names) if degrees.get(n, math.inf) > 1)
    return Expr(text, frozenset(names), nonaffine, fn)


def compile_expression(text: str) -> Expr:
    """Compile arithmetic text; calling the result gives an exact rational."""
    return _compile(text, _arith)


def compile_predicate(text: str) -> Expr:
    """Compile comparison text (chained comparisons and `and` allowed) to a test."""
    return _compile(text, _predicate)


def _exact_env(env: Mapping) -> Env:
    return {name: as_fraction(value) for name, value in env.items()}


def evaluate_expression(text: str, env: Mapping) -> Fraction:
    """Evaluate arithmetic text to an exact rational; `env` values pass through `as_fraction`."""
    return compile_expression(text)(_exact_env(env))


def evaluate_predicate(text: str, env: Mapping) -> bool:
    """Evaluate comparison text (chained comparisons and `and` allowed); `env` as above."""
    return compile_predicate(text)(_exact_env(env))
