"""Conjugation-invariant polynomials, the exact adjugate and the
nilpotent-invariance check, plus Chern form assembly on stacks of points.

Exact arithmetic uses integer or object-dtype numpy arrays (ints,
Fractions); the float path is float64/complex128.  The characteristic
polynomial of a (..., d, d) stack is Berkowitz's division-free recursion,
in int64 within a proven bound and in Python ints past it, once the entry
denominators are cleared, or Faddeev-LeVerrier in floats.  An invariant
polynomial is any function of a matrix, such as elementary_symmetric(k).
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from . import exterior as ext, liecore


def _is_exact(x):
    return np.asarray(x).dtype == object


def _berkowitz(a):
    """Coefficients [1, c_1, ..., c_d] of det(tI - a) = sum_k c_k t^(d-k),
    a (d + 1, ...) array, for a (..., d, d) stack of integers (an integer
    dtype, or Python ints in an object array), by Berkowitz's recursion.

    With a_{r+1} = [[a_r, C], [R, a_rr]], the characteristic polynomial of
    a_{r+1} is the lower-triangular Toeplitz matrix with first column
    (1, -a_rr, -R C, -R a_r C, ..., -R a_r^{r-1} C) applied to that of a_r.
    For A the largest |entry|, every coefficient of every step is a sum of
    at most d + 1 terms of size at most (d A)^i, so the recursion runs in
    int64 when (d + 1) (d A)^d < 2^63, in Python ints otherwise.
    """
    shape, d = a.shape[:-2], a.shape[-1]
    A = max(int(a.max()), -int(a.min())) if a.size else 0
    a = a.reshape(math.prod(shape), d, d).astype(
        np.int64 if (d + 1) * (d * A) ** d < 2 ** 63 else object)
    p = [np.ones(len(a), a.dtype)]
    for r in range(d):
        row, v = a[:, r, :r], a[:, :r, r]
        q = [p[0], -a[:, r, r]]
        for k in range(r):
            if k:
                v = (a[:, :r, :r] @ v[:, :, None])[:, :, 0]
            q.append(-(row * v).sum(-1))
        p = [sum(q[i - j] * p[j] for j in range(min(i, r) + 1))
             for i in range(r + 2)]
    return np.stack(p).reshape(d + 1, *shape)


def _char_poly(x):
    """Coefficients [1, c_1, ..., c_d] of det(tI - x) = sum_k c_k t^{d-k};
    for a (..., d, d) stack, each c_k is an array over the stack.

    Exact for integers (an integer dtype or Python ints): Berkowitz's own
    integers.  Exact for Fractions: Berkowitz over the integer stack D x, D
    the lcm of the entry denominators, then c_k = c_k(D x) / D^k.  Complex
    float otherwise, by Faddeev-LeVerrier on the whole stack.
    """
    x = np.asarray(x)
    if x.dtype.kind in "iu" or _is_exact(x) and all(
            type(v) is int for v in x.flat):
        cs = _berkowitz(x)
    elif _is_exact(x):
        D = math.lcm(*(v.denominator for v in x.flat))
        ints = np.array([v.numerator * (D // v.denominator) for v in x.flat],
                        dtype=object).reshape(x.shape)
        cs = np.stack([c * Fraction(1, D ** k)
                       for k, c in enumerate(_berkowitz(ints))])
    else:
        I = np.eye(x.shape[-1], dtype=complex)
        x = x.astype(complex)
        cs, Mk = [np.ones(x.shape[:-2], dtype=complex)], I
        for k in range(1, len(I) + 1):
            XM = x @ Mk
            cs.append(-np.trace(XM, axis1=-2, axis2=-1) / k)
            Mk = XM + cs[-1][..., None, None] * I
        cs = np.stack(cs)
    return cs.tolist() if x.ndim == 2 else list(cs)


def elementary_symmetric_values(x):
    """[e_0, ..., e_d] of the eigenvalues of x (arrays over a stack) from one
    characteristic polynomial: e_k is the t^k coefficient of det(I + t x)."""
    # c_k, the coefficient of t^{d-k} in det(tI - x), is (-1)^k e_k
    return [(-1) ** k * c for k, c in enumerate(_char_poly(x))]


def elementary_symmetric_value(x, k):
    """e_k of the eigenvalues of x: coefficient of t^k in det(I + t x)."""
    if not 0 <= k <= x.shape[-1]:
        raise ValueError("k out of range")
    return elementary_symmetric_values(x)[k]


def elementary_symmetric(k):
    """The invariant polynomial x -> e_k(x), of degree k."""
    return lambda x: elementary_symmetric_value(x, k)


def _vanishes(c, a, power, tol):
    """Per matrix of a stack: c == 0 if exact, else max |c| <= tol
    max(1, max |a|^power), each matrix scaled by its own a, which is finite."""
    if _is_exact(c):
        return (c == 0).all(axis=(-2, -1))
    c, a = (np.abs(np.asarray(m, dtype=complex)).max(axis=(-2, -1))
            for m in (c, a))
    return (c <= tol * np.maximum(1.0, a ** power)) & (a < np.inf)


def is_nilpotent(n, tol=1e-9):
    p = n
    for _ in range(n.shape[-1] - 1):
        p = p @ n
    return _vanishes(p, n, n.shape[-1], tol)


def springer_check(f, x, n, tol=1e-9):
    """f(x + n) - f(x) for commuting nilpotent n and any invariant
    polynomial f, a callable on (..., d, d) stacks of matrices; raises if
    preconditions fail, naming the first non-finite, else failing, matrix
    of a stack, each tolerance scaled by that matrix alone.

    Returns the residual per matrix, exactly zero in exact arithmetic.
    """
    liecore.require_of(is_nilpotent(n, tol=tol), "n is not nilpotent", "n", n,
                       (-2, -1))
    liecore.require_of(_vanishes(x @ n - n @ x, x, 1, tol),
                       "x and n do not commute", "x", x, (-2, -1))
    a, b = f(x + n), f(x)
    if _is_exact(x):
        return a - b
    r = np.abs(np.asarray(a, dtype=complex) - np.asarray(b, dtype=complex))
    return r if r.ndim else float(r)


def _poly_eval_matrix(coeffs, x):
    """Evaluate a polynomial (highest degree first) at a matrix or stack x
    (Horner); a coefficient is a scalar or an array over the stack."""
    I = np.eye(x.shape[-1], dtype=x.dtype)
    out = np.zeros_like(x)
    for c in coeffs:
        out = out @ x + np.reshape(c, np.shape(c) + (1, 1)) * I
    return out


def adjugate(x):
    """(adj x, det x) of an exact matrix or (..., d, d) stack, by
    Cayley-Hamilton: adj x = (-1)^(d-1) (x^(d-1) + c_1 x^(d-2) + ... +
    c_(d-1) I) and det x = (-1)^d c_d, c_k those of det(tI - x)."""
    d = x.shape[-1]
    cs = _char_poly(x)
    return (-1) ** (d - 1) * _poly_eval_matrix(cs[:d], x), (-1) ** d * cs[d]


# ---------------------------------------------------------------------------
# Chern forms


def chern_coefficients(omega, m, kmax):
    """Coefficient arrays [e_0, ..., e_kmax], (..., C(m, 2k)), of the Chern
    forms at a point or a stack of points, from the coefficient arrays omega
    (..., C(m, 2), d, d) of a curvature 2-form on R^m there.

    e_k, of degree 2k, is the coefficient of t^k in
    det(I + t (sqrt(-1)/2 pi) Omega), assembled through Newton's identities
    over the (commutative) even-degree form ring from the power traces
    tr(Omega^j) (wedge with matrix product), coefficient axis first.
    """
    om = np.moveaxis((1j / (2 * np.pi)) * omega, -3, 0)
    powers = [om]
    for j in range(1, kmax):
        powers.append(ext.wedge_coeffs(ext.wedge_table(m, 2 * j, 2),
                                       powers[-1], om, np.matmul))
    ptr = [np.trace(p, axis1=-2, axis2=-1) for p in powers]
    es = [np.ones((1,) + om.shape[1:-2], dtype=complex)]
    for k in range(1, kmax + 1):
        acc = None
        for i in range(1, k + 1):
            term = (-1.0) ** (i - 1) * ext.wedge_coeffs(
                ext.wedge_table(m, 2 * (k - i), 2 * i), es[k - i], ptr[i - 1],
                np.multiply)
            acc = term if acc is None else acc + term
        es.append((1.0 / k) * acc)
    return [np.moveaxis(e, 0, -1) for e in es]


def chern_forms(omega, kmax):
    """Chern forms [c_0, c_1, ..., c_kmax] of an End(V)-valued curvature 2-form.

    c_k is the degree-2k form whose coefficients at x are
    chern_coefficients(omega at x, m, k)[k]: each c_k evaluates the
    curvature and takes its tower once per stack of points.
    """
    m = omega.m
    return [ext.VForm(m, 2 * k, lambda xs, k=k: chern_coefficients(
        np.asarray(omega.func(xs), dtype=complex), m, k)[k])
        for k in range(kmax + 1)]
