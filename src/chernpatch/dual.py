"""Forward-mode dual numbers.

A Dual carries a value and a vector of partial derivatives.  Arithmetic is
overloaded so that code written for plain scalars differentiates itself when
fed seeded Duals.
"""

from __future__ import annotations

import math
import cmath

import numpy as np


class Dual:
    __slots__ = ("val", "grad")
    __array_priority__ = 100.0  # beat ndarray in mixed binary ops

    def __init__(self, val, grad):
        self.val = val
        self.grad = np.asarray(grad, dtype=complex)

    # -- helpers

    @staticmethod
    def _coerce(x, m):
        if isinstance(x, Dual):
            return x
        return Dual(x, np.zeros(m, dtype=complex))

    def __repr__(self):
        return f"Dual({self.val!r}, {self.grad!r})"

    # -- arithmetic

    def __add__(self, o):
        o = Dual._coerce(o, self.grad.size)
        return Dual(self.val + o.val, self.grad + o.grad)

    __radd__ = __add__

    def __neg__(self):
        return Dual(-self.val, -self.grad)

    def __sub__(self, o):
        return self + (-o if isinstance(o, Dual) else -o)

    def __rsub__(self, o):
        return (-self) + o

    def __mul__(self, o):
        o = Dual._coerce(o, self.grad.size)
        return Dual(self.val * o.val, self.grad * o.val + self.val * o.grad)

    __rmul__ = __mul__

    def __truediv__(self, o):
        o = Dual._coerce(o, self.grad.size)
        return Dual(self.val / o.val,
                    (self.grad * o.val - self.val * o.grad) / (o.val * o.val))

    def __rtruediv__(self, o):
        return Dual._coerce(o, self.grad.size) / self

    def __pow__(self, k):
        if isinstance(k, int) or (isinstance(k, float) and float(k).is_integer()):
            k = int(k)
            if k == 0:
                return Dual(1.0, np.zeros_like(self.grad))
            return Dual(self.val ** k, k * self.val ** (k - 1) * self.grad)
        return exp(k * log(self))

    def __eq__(self, o):
        return self.val == (o.val if isinstance(o, Dual) else o)

    def __lt__(self, o):
        return self.val < (o.val if isinstance(o, Dual) else o)

    def __le__(self, o):
        return self.val <= (o.val if isinstance(o, Dual) else o)

    def __gt__(self, o):
        return self.val > (o.val if isinstance(o, Dual) else o)

    def __ge__(self, o):
        return self.val >= (o.val if isinstance(o, Dual) else o)

    def __hash__(self):
        return hash(self.val)


def _apply(x, f, df):
    if isinstance(x, Dual):
        return Dual(f(x.val), df(x.val) * x.grad)
    return f(x)


def _cfun(name):
    rf, cf = getattr(math, name), getattr(cmath, name)

    def g(v):
        if isinstance(v, complex):
            return cf(v)
        return rf(v)
    return g


_exp, _log, _sqrt = _cfun("exp"), _cfun("log"), _cfun("sqrt")
_sin, _cos = _cfun("sin"), _cfun("cos")


def exp(x):
    return _apply(x, _exp, _exp)


def log(x):
    return _apply(x, _log, lambda v: 1.0 / v)


def sqrt(x):
    return _apply(x, _sqrt, lambda v: 0.5 / _sqrt(v))


def sin(x):
    return _apply(x, _sin, _cos)


def cos(x):
    return _apply(x, _cos, lambda v: -_sin(v))


def seed(x):
    """Seed coordinates x as Duals carrying the identity Jacobian.

    Duals do not nest: a coordinate that is already a Dual (a Jacobian
    taken inside a map that is being differentiated) raises TypeError.
    """
    x = list(x)
    m = len(x)
    out = []
    for i, v in enumerate(x):
        if isinstance(v, Dual):
            raise TypeError("cannot seed a dual number")
        g = np.zeros(m, dtype=complex)
        g[i] = 1.0
        out.append(Dual(v, g))
    return out


def value(x):
    return x.val if isinstance(x, Dual) else x

