"""Expression AST for utility functions.

All nodes are frozen dataclasses, so structural equality and hashing come
for free.  Trees are small (tens of nodes), so the walkers below just
recurse without memoization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Union


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    """Reference to a dataset column, resolved at bind time."""

    name: str


@dataclass(frozen=True)
class Param:
    """Reference to a declared model parameter."""

    name: str


@dataclass(frozen=True)
class Add:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Sub:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Mul:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Div:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Neg:
    operand: "Expr"


@dataclass(frozen=True)
class Call1:
    """Unary elementwise function: log, exp or sqrt."""

    fn: str
    arg: "Expr"


@dataclass(frozen=True)
class Pow:
    """Power with a fixed numeric exponent, pow(x, 2)."""

    base: "Expr"
    exponent: float


@dataclass(frozen=True)
class BoxCox:
    """Box-Cox transform (x^lambda - 1)/lambda with an estimated shape.

    ``shape`` names a declared parameter; the transform degenerates to
    log(x) as the shape approaches zero.
    """

    base: "Expr"
    shape: str


@dataclass(frozen=True)
class Piecewise:
    """Piecewise-linear spline in one variable.

    ``knots`` are strictly increasing breakpoints and ``params`` names the
    len(knots) + 1 segment slopes.  The value is the sum of slope times
    the length of the variable's overlap with each segment.
    """

    var: str
    knots: tuple[float, ...]
    params: tuple[str, ...]


Expr = Union[Const, Var, Param, Add, Sub, Mul, Div, Neg, Call1, Pow, BoxCox, Piecewise]

BINARY_NODES = (Add, Sub, Mul, Div)


def children(expr: Expr) -> tuple[Expr, ...]:
    """The subexpressions directly under ``expr``, left to right; none for a leaf."""
    if isinstance(expr, BINARY_NODES):
        return expr.left, expr.right
    if isinstance(expr, Neg):
        return (expr.operand,)
    if isinstance(expr, Call1):
        return (expr.arg,)
    if isinstance(expr, (Pow, BoxCox)):
        return (expr.base,)
    return ()


def iter_nodes(expr: Expr) -> Iterator[Expr]:
    """Yield every node of the tree, preorder."""
    yield expr
    for child in children(expr):
        yield from iter_nodes(child)


def depth(expr: Expr) -> int:
    """The number of nodes on the longest path down from ``expr``, counted level by
    level without recursion, so a tree of any depth can be measured."""
    level, nodes = 0, [expr]
    while nodes:
        level, nodes = level + 1, [child for node in nodes for child in children(node)]
    return level


def param_names(expr: Expr) -> set[str]:
    """Names of all parameters referenced, including box-cox shapes and
    piecewise segment slopes."""
    out: set[str] = set()
    for node in iter_nodes(expr):
        if isinstance(node, Param):
            out.add(node.name)
        elif isinstance(node, BoxCox):
            out.add(node.shape)
        elif isinstance(node, Piecewise):
            out.update(node.params)
    return out


def var_names(expr: Expr) -> set[str]:
    """Names of all dataset variables referenced."""
    out: set[str] = set()
    for node in iter_nodes(expr):
        if isinstance(node, Var):
            out.add(node.name)
        elif isinstance(node, Piecewise):
            out.add(node.var)
    return out
