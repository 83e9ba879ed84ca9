"""Forward-mode dual numbers and a tree walk over them: the test-side reference
for the values and derivatives that ``binding.compile_expr`` compiles.

A Dual carries a value array and a gradient array with one trailing axis
per seeded parameter; the gradient is kept broadcastable to
``val.shape + (k,)`` rather than materialized, so operations against
plain data columns (constants with zero gradient) never widen it.
:func:`walk` evaluates an expression tree on plain floats or on dual
numbers, calling a dual number's ``log``, ``exp``, ``expm1``, ``sqrt`` or
``power`` method where numpy's function would take a float.
"""

from __future__ import annotations

import numpy as np

from logitlab.specdsl import binding
from logitlab.specdsl.expr import (
    Add, BoxCox, Call1, Const, Div, Mul, Neg, Param, Piecewise, Pow, Sub, Var,
)


class Dual:
    # opt out of ufunc dispatch so ndarray <op> Dual falls back to our
    # reflected methods instead of building an object array
    __array_ufunc__ = None

    __slots__ = ("val", "grad")

    def __init__(self, val, grad):
        self.val = np.asarray(val, dtype=float)
        self.grad = np.asarray(grad, dtype=float)

    @classmethod
    def seed(cls, value: float, index: int, n_free: int) -> "Dual":
        grad = np.zeros(n_free)
        grad[index] = 1.0
        return cls(value, grad)

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Dual):
            return Dual(self.val + other.val, self.grad + other.grad)
        return Dual(self.val + other, self.grad)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Dual):
            return Dual(self.val - other.val, self.grad - other.grad)
        return Dual(self.val - other, self.grad)

    def __rsub__(self, other):
        return Dual(other - self.val, -self.grad)

    def __mul__(self, other):
        if isinstance(other, Dual):
            return Dual(
                self.val * other.val,
                self.grad * other.val[..., None] + other.grad * self.val[..., None],
            )
        other = np.asarray(other, dtype=float)
        return Dual(self.val * other, self.grad * other[..., None])

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Dual):
            val = self.val / other.val
            grad = (self.grad - other.grad * val[..., None]) / other.val[..., None]
            return Dual(val, grad)
        other = np.asarray(other, dtype=float)
        return Dual(self.val / other, self.grad / other[..., None])

    def __rtruediv__(self, other):
        other = np.asarray(other, dtype=float)
        val = other / self.val
        return Dual(val, -self.grad * (val / self.val)[..., None])

    def __neg__(self):
        return Dual(-self.val, -self.grad)

    # -- elementwise functions --------------------------------------------

    def log(self):
        return Dual(np.log(self.val), self.grad / self.val[..., None])

    def exp(self):
        e = np.exp(self.val)
        return Dual(e, self.grad * e[..., None])

    def expm1(self):
        return Dual(np.expm1(self.val), self.grad * np.exp(self.val)[..., None])

    def sqrt(self):
        s = np.sqrt(self.val)
        return Dual(s, self.grad / (2.0 * s)[..., None])

    def power(self, exponent: float):
        val = np.power(self.val, exponent)
        return Dual(val, self.grad * (exponent * np.power(self.val, exponent - 1.0))[..., None])

    def __repr__(self):
        return f"Dual(val={self.val!r}, grad={self.grad!r})"


class Envelope(Dual):
    """A dual number whose gradient is the sum of the magnitudes of the products
    that a Dual adds up for its gradient, carried through each operation.  A
    derivative's rounding error is a few ulps of this size, not of its own: in
    b / (b * x) the quotient rule takes 1/(b x) - (1/x) x/(b x), and the ulp of
    either product survives where they cancel."""

    __slots__ = ()

    def __add__(self, other):
        if isinstance(other, Dual):
            return Envelope(self.val + other.val, self.grad + other.grad)
        return Envelope(self.val + other, self.grad)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Dual):
            return Envelope(self.val - other.val, self.grad + other.grad)
        return Envelope(self.val - other, self.grad)

    def __rsub__(self, other):
        return Envelope(other - self.val, self.grad)

    def __mul__(self, other):
        if isinstance(other, Dual):
            grad = self.grad * np.abs(other.val)[..., None] + other.grad * np.abs(self.val)[..., None]
            return Envelope(self.val * other.val, grad)
        other = np.asarray(other, dtype=float)
        return Envelope(self.val * other, self.grad * np.abs(other)[..., None])

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Dual):
            val = self.val / other.val
            grad = (self.grad + other.grad * np.abs(val)[..., None]) / np.abs(other.val)[..., None]
            return Envelope(val, grad)
        other = np.asarray(other, dtype=float)
        return Envelope(self.val / other, self.grad / np.abs(other)[..., None])

    def __rtruediv__(self, other):
        val = np.asarray(other, dtype=float) / self.val
        return Envelope(val, self.grad * np.abs(val / self.val)[..., None])

    def __neg__(self):
        return Envelope(-self.val, self.grad)

    def log(self):
        return Envelope(np.log(self.val), self.grad / np.abs(self.val)[..., None])

    def exp(self):
        e = np.exp(self.val)
        return Envelope(e, self.grad * e[..., None])

    def expm1(self):
        return Envelope(np.expm1(self.val), self.grad * np.exp(self.val)[..., None])

    def sqrt(self):
        s = np.sqrt(self.val)
        return Envelope(s, self.grad / (2.0 * s)[..., None])

    def power(self, exponent: float):
        slope = np.abs(exponent * np.power(self.val, exponent - 1.0))
        return Envelope(np.power(self.val, exponent), self.grad * slope[..., None])


def walk(expr, columns, params):
    """``expr`` by a recursive walk of its tree on every evaluation, over the
    arrays in ``columns``, with each parameter looked up in ``params`` (floats or
    dual numbers)."""
    ev = lambda e: walk(e, columns, params)
    call = lambda fn, x, *args: getattr(x, fn)(*args) if isinstance(x, Dual) else getattr(np, fn)(x, *args)
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Param):
        return params[expr.name]
    if isinstance(expr, Var):
        return columns[expr.name]
    if isinstance(expr, Add):
        return ev(expr.left) + ev(expr.right)
    if isinstance(expr, Sub):
        return ev(expr.left) - ev(expr.right)
    if isinstance(expr, Mul):
        return ev(expr.left) * ev(expr.right)
    if isinstance(expr, Div):
        left, right = ev(expr.left), ev(expr.right)
        if isinstance(left, float) and isinstance(right, float):
            left = np.float64(left)
        return left / right
    if isinstance(expr, Neg):
        return -ev(expr.operand)
    if isinstance(expr, Call1):
        return call(expr.fn, ev(expr.arg))
    if isinstance(expr, Pow):
        return call("power", ev(expr.base), expr.exponent)
    if isinstance(expr, BoxCox):
        logx, shape = call("log", ev(expr.base)), params[expr.shape]
        if float(shape.val if isinstance(shape, Dual) else shape) == 0.0:
            return logx + shape * (logx * logx * 0.5)
        return call("expm1", shape * logx) / shape
    assert isinstance(expr, Piecewise)
    segs = binding.piecewise_segments(columns[expr.var], expr.knots)
    total = params[expr.params[0]] * segs[:, 0]
    for i, name in enumerate(expr.params[1:], start=1):
        total = total + params[name] * segs[:, i]
    return total
