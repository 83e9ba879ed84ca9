"""Vectorized forward-mode dual numbers.

A Dual carries a value array and a gradient array with one trailing axis
per free parameter; the gradient is kept broadcastable to
``val.shape + (k,)`` rather than materialized, so operations against
plain data columns (constants with zero gradient) never widen it.
A compiled expression (``specdsl.binding.compile_expr``) calls a value's
``log``, ``exp``, ``expm1``, ``sqrt`` or ``power`` method when it has one,
so these methods are the elementwise functions of the dual algebra.
"""

from __future__ import annotations

import numpy as np


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

