"""Canonical text form for specifications.

The printer is the inverse of the parser: ``parse_spec(serialize_spec(s))``
yields a spec structurally equal to ``s``.  Parentheses are inserted
whenever reparsing under left associativity would change the tree shape,
so the output is unambiguous without being fully parenthesized.
"""

from __future__ import annotations

from logitlab.specdsl.expr import (
    Add,
    BoxCox,
    Call1,
    Const,
    Div,
    Expr,
    Mul,
    Neg,
    Param,
    Piecewise,
    Pow,
    Sub,
    Var,
)
from logitlab.specdsl.parser import ParameterDecl, UtilitySpec

_ADDITIVE = 1  # + -
_MULTIPLICATIVE = 2  # * /
_UNARY = 3
_ATOM = 4

_PRECEDENCE = {
    Add: _ADDITIVE,
    Sub: _ADDITIVE,
    Mul: _MULTIPLICATIVE,
    Div: _MULTIPLICATIVE,
    Neg: _UNARY,
}

_OPS = {Add: "+", Sub: "-", Mul: "*", Div: "/"}


def format_number(value: float) -> str:
    """Shortest round-trippable form; integers without a trailing .0."""
    if value == int(value) and abs(value) < 1e16:
        return str(int(value))
    return repr(float(value))


def _prec(expr: Expr) -> int:
    if isinstance(expr, Const) and expr.value < 0:
        return _UNARY  # prints with a leading minus
    return _PRECEDENCE.get(type(expr), _ATOM)


def serialize_expr(expr: Expr) -> str:
    if isinstance(expr, Const):
        return format_number(expr.value)
    if isinstance(expr, (Var, Param)):
        return expr.name
    if isinstance(expr, (Add, Sub, Mul, Div)):
        prec = _PRECEDENCE[type(expr)]
        left = serialize_expr(expr.left)
        if _prec(expr.left) < prec:
            left = f"({left})"
        right = serialize_expr(expr.right)
        # Equal precedence on the right would re-associate when reparsed.
        if _prec(expr.right) <= prec:
            right = f"({right})"
        return f"{left} {_OPS[type(expr)]} {right}"
    if isinstance(expr, Neg):
        inner = serialize_expr(expr.operand)
        if _prec(expr.operand) < _UNARY:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(expr, Call1):
        return f"{expr.fn}({serialize_expr(expr.arg)})"
    if isinstance(expr, Pow):
        return f"pow({serialize_expr(expr.base)}, {format_number(expr.exponent)})"
    if isinstance(expr, BoxCox):
        return f"boxcox({serialize_expr(expr.base)}, {expr.shape})"
    if isinstance(expr, Piecewise):
        knots = ", ".join(format_number(k) for k in expr.knots)
        params = ", ".join(expr.params)
        return f"piecewise({expr.var}, {knots}, {params})"
    raise TypeError(f"not an expression node: {expr!r}")


def _serialize_param(p: ParameterDecl) -> str:
    parts = ["param", p.name]
    parts.append("generic" if p.scope == "generic" else f"alt {p.scope}")
    if p.fixed is not None:
        parts.append(f"fixed {format_number(p.fixed)}")
    else:
        default = 1.0 if p.role == "shape" else 0.0
        if p.start != default:
            parts.append(f"start {format_number(p.start)}")
    return " ".join(parts)


def serialize_spec(spec: UtilitySpec) -> str:
    """Render a spec in canonical form: its model only, with no comment lines."""
    lines = [f"spec {spec.name}", "alt " + " ".join(spec.alternatives)]
    for p in spec.parameters:
        lines.append(_serialize_param(p))
    for alt in spec.alternatives:
        lines.append(f"U({alt}) = {serialize_expr(spec.utilities[alt])}")
    return "\n".join(lines) + "\n"
