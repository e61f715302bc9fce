"""Conjugation-invariant polynomials, Jordan decomposition and the
nilpotent-invariance check, plus Chern form assembly.

Exact arithmetic uses object-dtype numpy arrays of fractions.Fraction; the
float path is float64/complex128.  The exact characteristic polynomial is
Berkowitz's division-free algorithm over Python ints, run once the entry
denominators are cleared; the float one is Faddeev-LeVerrier.  An invariant
polynomial is any function of a matrix, such as elementary_symmetric(k).
The Jordan decomposition is exact only: a Newton iteration against the
squarefree part of the characteristic polynomial.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from itertools import dropwhile

import numpy as np

from . import exterior as ext
from .errors import PreconditionFailed


def _is_exact(x):
    return np.asarray(x).dtype == object


def _berkowitz(a):
    """Coefficients [1, c_1, ..., c_d] of det(tI - a) for a square list of
    integer rows, by Berkowitz's division-free recursion.

    With a_{r+1} = [[a_r, C], [R, a_rr]], the characteristic polynomial of
    a_{r+1} is the lower-triangular Toeplitz matrix with first column
    (1, -a_rr, -R C, -R a_r C, ..., -R a_r^{r-1} C) applied to that of a_r.
    """
    p = [1]
    for r in range(len(a)):
        row = a[r][:r]
        v = [a[i][r] for i in range(r)]
        q = [1, -a[r][r]]
        for k in range(r):
            if k:
                v = [sum(w * u for w, u in zip(a[i][:r], v)) for i in range(r)]
            q.append(-sum(w * u for w, u in zip(row, v)))
        p = [sum(q[i - j] * p[j] for j in range(min(i, r) + 1))
             for i in range(r + 2)]
    return p


def _char_poly(x):
    """Coefficients [1, c_1, ..., c_d] of det(tI - x) = sum_k c_k t^{d-k}.

    Exact for Fraction matrices: Berkowitz over the integer matrix D x, D the
    lcm of the entry denominators, then c_k = c_k(D x) / D^k; for a matrix
    of Python ints, Berkowitz's own integers.  Complex float otherwise, by
    Faddeev-LeVerrier.
    """
    d = x.shape[0]
    if _is_exact(x):
        rows = x.tolist()
        if all(type(v) is int for row in rows for v in row):
            return _berkowitz(rows)
        D = math.lcm(*(v.denominator for row in rows for v in row))
        a = [[v.numerator * (D // v.denominator) for v in row] for row in rows]
        return [Fraction(c, D ** k) for k, c in enumerate(_berkowitz(a))]
    one = 1.0 + 0j
    I = np.eye(d, dtype=complex)
    x = np.asarray(x, dtype=complex)
    cs = [one]
    Mcur = I.copy()
    for k in range(1, d + 1):
        XM = x @ Mcur
        ck = -XM.trace() / k
        cs.append(ck)
        Mcur = XM + ck * I
    return cs


def elementary_symmetric_values(x):
    """[e_0, ..., e_d] of the eigenvalues of x, from one characteristic
    polynomial: e_k is the coefficient of t^k in det(I + t x)."""
    # c_k, the coefficient of t^{d-k} in det(tI - x), is (-1)^k e_k
    return [(-1) ** k * c for k, c in enumerate(_char_poly(x))]


def elementary_symmetric_value(x, k):
    """e_k of the eigenvalues of x: coefficient of t^k in det(I + t x)."""
    if not 0 <= k <= x.shape[0]:
        raise ValueError("k out of range")
    return elementary_symmetric_values(x)[k]


def elementary_symmetric(k):
    """The invariant polynomial x -> e_k(x), of degree k."""
    return lambda x: elementary_symmetric_value(x, k)


def is_nilpotent(n, tol=1e-9):
    d = n.shape[0]
    p = n
    for _ in range(d - 1):
        p = p @ n
    if _is_exact(n):
        return all(v == 0 for v in p.ravel())
    return float(np.max(np.abs(np.asarray(p, dtype=complex)))) <= tol * max(
        1.0, float(np.max(np.abs(np.asarray(n, dtype=complex)))) ** d)


def _commutes(x, n, tol=1e-9):
    c = x @ n - n @ x
    if _is_exact(x):
        return all(v == 0 for v in c.ravel())
    return float(np.max(np.abs(np.asarray(c, dtype=complex)))) <= tol * max(
        1.0, float(np.max(np.abs(np.asarray(x, dtype=complex)))))


def springer_check(f, x, n, tol=1e-9):
    """f(x + n) - f(x) for commuting nilpotent n and any invariant
    polynomial f, a callable on matrices; raises if preconditions fail.

    Returns the residual, which is exactly zero in exact arithmetic.
    """
    if not is_nilpotent(n, tol=tol):
        raise PreconditionFailed("n is not nilpotent")
    if not _commutes(x, n, tol=tol):
        raise PreconditionFailed("x and n do not commute")
    a = f(x + n)
    b = f(x)
    if _is_exact(x):
        return a - b
    return abs(complex(a) - complex(b))


# ---------------------------------------------------------------------------
# Jordan decomposition


def _exact_inv(M):
    """Gaussian elimination inverse for Fraction matrices."""
    d = M.shape[0]
    A = [[Fraction(M[i, j]) for j in range(d)] + [Fraction(1 if i == j else 0) for j in range(d)]
         for i in range(d)]
    for col in range(d):
        piv = next((r for r in range(col, d) if A[r][col] != 0), None)
        if piv is None:
            raise PreconditionFailed("singular matrix in exact inverse")
        A[col], A[piv] = A[piv], A[col]
        pv = A[col][col]
        A[col] = [v / pv for v in A[col]]
        for r in range(d):
            if r != col and A[r][col] != 0:
                fac = A[r][col]
                A[r] = [v - fac * w for v, w in zip(A[r], A[col])]
    return np.array([[A[i][d + j] for j in range(d)] for i in range(d)], dtype=object)


def _poly_divmod(p, q):
    """(quotient, remainder) of coefficient lists, highest degree first;
    q[0] must be nonzero."""
    p = list(p)
    quot = []
    while len(p) >= len(q):
        fac = p[0] / q[0]
        quot.append(fac)
        p = [a - fac * b for a, b in zip(p[1:], q[1:])] + p[len(q):]
    return quot, p


def _poly_quot(p, q):
    """Exact polynomial quotient p / q (remainder must vanish)."""
    quot, rem = _poly_divmod(p, q)
    if any(c != 0 for c in rem):
        raise PreconditionFailed("polynomial division with nonzero remainder")
    return quot


def _poly_gcd(p, q):
    """Monic gcd of coefficient lists (highest degree first), Fractions."""
    def strip(p):
        return list(dropwhile(lambda c: c == 0, p))

    p, q = strip(p), strip(q)
    while q:
        p, q = q, strip(_poly_divmod(p, q)[1])
    return [c / p[0] for c in p]


def _poly_eval_matrix(coeffs, x):
    """Evaluate polynomial (highest degree first) at matrix x (Horner)."""
    I = np.eye(x.shape[0], dtype=x.dtype)
    out = np.zeros_like(x)
    for c in coeffs:
        out = out @ x + c * I
    return out


def _poly_deriv(coeffs):
    n = len(coeffs) - 1
    return [c * (n - i) for i, c in enumerate(coeffs[:-1])]


def jordan_decompose(x):
    """(s, n) with x = s + n, s semisimple, n nilpotent, [s, n] = 0, for a
    matrix x of Fractions (PreconditionFailed on anything else).

    Chevalley's Newton iteration s <- s - p'(s)^{-1} p(s) from s = x, where
    p = chi / gcd(chi, chi') is the squarefree part of the characteristic
    polynomial chi, whose roots are the eigenvalues of x.  After k steps the
    error lies in n^(2^k), so ceil(log2 m) steps give s exactly for m the
    largest eigenvalue multiplicity, bounded by d - deg p + 1 (extra steps
    are exact no-ops).
    """
    x = np.asarray(x)
    if not _is_exact(x) or not all(isinstance(v, (int, Fraction))
                                   for v in x.ravel()):
        raise PreconditionFailed("jordan_decompose takes a matrix of Fractions")
    cs = list(map(Fraction, _char_poly(x)))  # divisions below stay exact
    p = _poly_quot(cs, _poly_gcd(cs, _poly_deriv(cs)))
    dp = _poly_deriv(p)
    s = x
    for _ in range(math.ceil(math.log2(len(cs) - len(p) + 1))):
        s = s - _exact_inv(_poly_eval_matrix(dp, s)) @ _poly_eval_matrix(p, s)
    if any(v != 0 for v in _poly_eval_matrix(p, s).ravel()):
        raise PreconditionFailed("Jordan iteration failed to terminate")
    return s, x - s


# ---------------------------------------------------------------------------
# Chern forms


@functools.cache
def _chern_tables(m, kmax):
    """Shuffle tables of the power traces and of Newton's identities up to
    e_kmax on R^m."""
    powers = [ext.wedge_table(m, 2 * j, 2) for j in range(1, kmax)]
    newton = {(j, i): ext.wedge_table(m, 2 * j, 2 * i)
              for j in range(kmax) for i in range(1, kmax - j + 1)}
    return powers, newton


def chern_coefficients(omega, m, kmax):
    """Coefficient arrays [e_0, ..., e_kmax] of the Chern forms at one point,
    from the coefficient array omega (C(m, 2), d, d) of a curvature 2-form
    on R^m there.

    e_k, of degree 2k, is the coefficient of t^k in
    det(I + t (sqrt(-1)/2 pi) Omega), assembled through Newton's identities
    over the (commutative) even-degree form ring from the power traces
    tr(Omega^j) (wedge with matrix product).
    """
    power_tables, newton_tables = _chern_tables(m, kmax)
    om = (1j / (2 * np.pi)) * omega
    powers = [om]
    for table in power_tables:
        powers.append(ext.wedge_coeffs(table, powers[-1], om, np.matmul))
    ptr = [np.trace(p, axis1=-2, axis2=-1) for p in powers]
    es = [np.ones(1, dtype=complex)]
    for k in range(1, kmax + 1):
        acc = None
        for i in range(1, k + 1):
            term = (-1.0) ** (i - 1) * ext.wedge_coeffs(
                newton_tables[k - i, i], es[k - i], ptr[i - 1], np.multiply)
            acc = term if acc is None else acc + term
        es.append((1.0 / k) * acc)
    return es


def chern_forms(omega, kmax):
    """Chern forms [c_0, c_1, ..., c_kmax] of an End(V)-valued curvature 2-form.

    c_k is the degree-2k form whose coefficients at x are
    chern_coefficients(omega at x, m, k)[k]: each c_k evaluates the
    curvature once per stack of points, then takes them row by row.
    """
    m = omega.m
    return [ext.VForm(m, 0, lambda xs: np.ones((len(xs), 1), dtype=complex))
            ] + [ext.VForm(m, 2 * k, lambda xs, k=k: np.array(
                [chern_coefficients(C, m, k)[k]
                 for C in np.asarray(omega.func(xs), dtype=complex)]))
                 for k in range(1, kmax + 1)]
