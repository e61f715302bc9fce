"""Conjugation-invariant polynomials, polarization, Jordan decomposition and
the nilpotent-invariance check, plus Chern form assembly.

Exact arithmetic uses object-dtype numpy arrays of fractions.Fraction; the
float path is float64/complex128.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from . import exterior as ext
from .errors import IllConditionedSpectrum, PreconditionFailed


def _is_exact(x):
    return np.asarray(x).dtype == object


def exact_matrix(rows):
    return np.array([[Fraction(v) for v in row] for row in rows], dtype=object)


def _char_poly(x):
    """Coefficients [1, c_{d-1}, ..., c_0] of det(tI - x), Faddeev-LeVerrier.

    Exact for Fraction matrices, complex float otherwise.
    """
    d = x.shape[0]
    if _is_exact(x):
        one = Fraction(1)
        I = np.array([[one if i == j else Fraction(0) for j in range(d)]
                      for i in range(d)], dtype=object)
    else:
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


def elementary_symmetric_value(x, k):
    """e_k of the eigenvalues of x: coefficient of t^k in det(I + t x)."""
    d = x.shape[0]
    if not 0 <= k <= d:
        raise ValueError("k out of range")
    cs = _char_poly(x)
    # det(t I - x) = sum cs[j] t^{d-j}; det(I + t x) = t^d det((1/t) I + x)
    # e_k = (-1)^k * cs[k] evaluated on (-x): easier directly
    val = (-1) ** k * cs[k]
    # cs[k] is the coefficient of t^{d-k} in det(tI - x) = (-1)^k e_k(eigs)
    return val


@dataclass
class InvariantPolynomial:
    """Homogeneous degree-k polynomial on End(V), invariant under conjugation."""

    dim: int
    degree: int
    func: callable
    name: str = ""

    def __call__(self, x):
        return self.func(x)


def elementary_symmetric(dim, k) -> InvariantPolynomial:
    return InvariantPolynomial(dim, k, lambda x: elementary_symmetric_value(x, k),
                               name=f"e{k}")


def polarize_eval(f: InvariantPolynomial, xs):
    """Full polarization P(x_1,...,x_k), normalized so P(x,...,x) = f(x).

    Inclusion-exclusion: P = (1/k!) sum_{S nonempty} (-1)^{k-|S|} f(sum_S x_i).
    """
    k = f.degree
    if len(xs) != k:
        raise ValueError(f"need {k} arguments")
    exact = _is_exact(xs[0])
    total = None
    for r in range(1, k + 1):
        for S in combinations(range(k), r):
            acc = xs[S[0]]
            for i in S[1:]:
                acc = acc + xs[i]
            term = f(acc)
            sign = (-1) ** (k - r)
            term = sign * term
            total = term if total is None else total + term
    fact = Fraction(1, math.factorial(k)) if exact else 1.0 / math.factorial(k)
    return fact * total


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


def springer_check(f: InvariantPolynomial, x, n, tol=1e-9):
    """f(x + n) - f(x) for commuting nilpotent n; raises if preconditions fail.

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


def _poly_gcd(p, q):
    """Monic gcd of coefficient lists (highest degree first), Fractions."""
    def norm(p):
        idx = next((i for i, c in enumerate(p) if c != 0), None)
        if idx is None:
            return []
        p = p[idx:]
        lead = p[0]
        return [c / lead for c in p]

    p, q = norm(list(p)), norm(list(q))
    while q:
        # remainder of p by q
        p = list(p)
        while len(p) >= len(q) and p:
            if p[0] == 0:
                p.pop(0)
                continue
            fac = p[0]
            for i in range(len(q)):
                p[i] = p[i] - fac * q[i]
            p.pop(0)
        p = norm(p)
        p, q = q, p
    return p


def _poly_eval_matrix(coeffs, x):
    """Evaluate polynomial (highest degree first) at matrix x (Horner)."""
    d = x.shape[0]
    if _is_exact(x):
        I = np.array([[Fraction(1) if i == j else Fraction(0) for j in range(d)]
                      for i in range(d)], dtype=object)
        out = I * Fraction(0)
    else:
        I = np.eye(d, dtype=complex)
        out = np.zeros((d, d), dtype=complex)
    for c in coeffs:
        out = out @ x + c * I
    return out


def _poly_deriv(coeffs):
    n = len(coeffs) - 1
    return [c * (n - i) for i, c in enumerate(coeffs[:-1])]


def jordan_decompose(x, gap_tol=1e-6):
    """(s, n) with x = s + n, s semisimple, n nilpotent, [s, n] = 0.

    Exact input (Fractions): Chevalley-style Newton iteration against the
    squarefree part of the characteristic polynomial; the result is exact.
    Float input: eigen-decomposition, requiring all distinct eigenvalues to
    be separated by at least gap_tol (IllConditionedSpectrum otherwise).
    """
    if _is_exact(x):
        cs = _char_poly(x)
        rad = _poly_gcd(cs, _poly_deriv(cs))
        # squarefree part p / gcd(p, p')
        sqf = _poly_quot(cs, rad)
        s = x
        d = x.shape[0]
        for _ in range(d + 1):
            val = _poly_eval_matrix(sqf, s)
            if all(v == 0 for v in val.ravel()):
                break
            dval = _poly_eval_matrix(_poly_deriv(sqf), s)
            s = s - _exact_inv(dval) @ val
        else:
            raise PreconditionFailed("Jordan iteration failed to terminate")
        n = x - s
        return s, n
    xc = np.asarray(x, dtype=complex)
    d = xc.shape[0]
    evals = np.linalg.eigvals(xc)
    # cluster eigenvalues: floats are "equal" when much closer than gap_tol
    groups = []
    used = np.zeros(d, dtype=bool)
    for i in range(d):
        if used[i]:
            continue
        grp = [i]
        used[i] = True
        for j in range(i + 1, d):
            if not used[j] and abs(evals[i] - evals[j]) < gap_tol * 1e-3:
                grp.append(j)
                used[j] = True
        groups.append(grp)
    reps = [np.mean([evals[i] for i in g]) for g in groups]
    for a in range(len(reps)):
        for b in range(a + 1, len(reps)):
            if abs(reps[a] - reps[b]) < gap_tol:
                raise IllConditionedSpectrum(
                    f"eigenvalue gap {abs(reps[a]-reps[b]):.3e} below {gap_tol}")
    s = _float_semisimple(xc, reps, gap_tol)
    n = xc - s
    if not is_nilpotent(n, tol=1e-8):
        raise IllConditionedSpectrum("nilpotent part inaccurate")
    return s, n


def _float_semisimple(xc, reps, gap_tol):
    """Semisimple part via spectral projectors P_a = prod_b ((x-mu)/(lam-mu))^{m_b}."""
    d = xc.shape[0]
    I = np.eye(d, dtype=complex)
    # multiplicities from char poly degrees: count eigenvalues near each rep
    evals = np.linalg.eigvals(xc)
    mult = []
    for lam in reps:
        mult.append(int(np.sum(np.abs(evals - lam) < gap_tol * 0.5)))
    s = np.zeros((d, d), dtype=complex)
    for a, lam in enumerate(reps):
        P = I.copy()
        for b, mu in enumerate(reps):
            if b == a:
                continue
            M = (xc - mu * I) / (lam - mu)
            for _ in range(mult[b]):
                P = P @ M
        # normalize: P acts as identity on the generalized eigenspace of lam
        # only to first order; iterate P <- 3P^2 - 2P^3 to make it idempotent
        for _ in range(40):
            err = np.max(np.abs(P @ P - P))
            if err < 1e-14:
                break
            P = 3 * P @ P - 2 * P @ P @ P
        s = s + lam * P
    return s


def _poly_quot(p, q):
    """Exact polynomial quotient p / q (remainder must vanish)."""
    p = list(p)
    out = []
    while len(p) >= len(q):
        fac = p[0] / q[0]
        out.append(fac)
        for i in range(len(q)):
            p[i] = p[i] - fac * q[i]
        assert p[0] == 0
        p.pop(0)
    if any(c != 0 for c in p):
        raise PreconditionFailed("polynomial division with nonzero remainder")
    return out


# ---------------------------------------------------------------------------
# Chern forms


def chern_forms(omega, kmax):
    """Chern forms [c_0, c_1, ..., c_kmax] of an End(V)-valued curvature 2-form.

    c_k is the degree-2k form given by the coefficient of t^k in
    det(I + t (sqrt(-1)/2 pi) Omega), assembled through Newton's identities
    over the (commutative) even-degree form ring.
    """
    m = omega.m
    scl = 1j / (2 * np.pi)
    om = omega.scale(scl)
    # power traces p_j = tr(om^j) as scalar forms (wedge with matrix product)
    powers = [om]
    # determine kmax cap by chart dimension
    kcap = min(kmax, m // 2)
    for _ in range(1, kcap):
        powers.append(ext.wedge_matrix(powers[-1], om))
    ptr = [p.map(lambda v: np.trace(np.asarray(v))) for p in powers]

    one = ext.VForm(m, 0, {(): ext.constant_map(m, 1.0)})
    es = [one]
    for k in range(1, kcap + 1):
        acc = None
        for i in range(1, k + 1):
            term = ext.wedge_scalar(es[k - i], ptr[i - 1]).scale((-1.0) ** (i - 1))
            acc = term if acc is None else acc + term
        es.append(acc.scale(1.0 / k))
    for k in range(kcap + 1, kmax + 1):
        es.append(ext.VForm(m, 2 * k, {}))
    return es
