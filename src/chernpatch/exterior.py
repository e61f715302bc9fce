"""Chart-level exterior calculus for matrix-valued differential forms.

Forms live on an open chart of R^m.  A chart map (SmoothMap) maps a (P, m)
stack of points to the (P, ...) stack of its values.  A VForm of degree q
is a SmoothMap with a degree: its value at x is the array of all C(m, q)
coefficients, (C(m, q),) + value shape, in the order of
itertools.combinations(range(m), q); coefficients are scalars or End(V)
matrices.  The one d taken is that of a curvature (curvature_form).  Every
chart map is differentiated one way, by central differences: one func call
on the 2m displaced points and the point itself gives Jacobian and value.
One contraction (contract) evaluates the coefficients at a stack of points,
each on its own vectors: VForm.evaluate, and the fiber check of several
forms at a stack, with one SVD for the vertical vectors and one draw for
all their companions.  combination_curvature is the one product rule for
the curvature of a weighted combination of connections.

Tolerances used by the callers: 1e-12 for purely algebraic identities, 1e-6
after one numerical differentiation, 1e-4 after two.  A curvature from
the structure equation (connections.structure_curvature) differentiates
nothing, so its Chern forms are checked at 1e-10; compared with curvature_form
(one central difference, step 1e-5) it agrees to a few 1e-12, and 1e-8 is
the tolerance of that comparison.
"""

from __future__ import annotations

import functools
from itertools import combinations

import numpy as np

from . import liecore
from .errors import PreconditionFailed

FD_STEP = 1e-5


class SmoothMap:
    """Differentiable map from an m-dimensional chart to scalars or arrays.

    func maps a (P, m) float array of chart points to the (P, ...) stack of
    their values; value(x) is its one-row case, and jacobian(x) is taken by
    central differences (_fd_jacobian).
    """

    def __init__(self, m, func):
        self.m = m
        self.func = func

    def value(self, x):
        return np.asarray(self.func(np.array([x], dtype=float)),
                          dtype=complex)[0]

    def jacobian(self, x):
        """Array of shape (m,) + value.shape with entry i = d/dx_i at a point
        x (m,), or the (P, m) + value.shape stack of them at a (P, m) stack."""
        return self._fd_jacobian(x)[0]

    def _fd_jacobian(self, x):
        """(J, value) at a point (m,) or a (P, m) stack, from one func call
        on (2m+1)P rows: rows i and m + i of a point's block are the point
        displaced by +h and -h along coordinate i, h = FD_STEP, and row 2m
        is the point itself."""
        m, h = self.m, FD_STEP
        x = np.asarray(x, dtype=float)
        xs = np.repeat(point_stack(x, m)[:, None], 2 * m + 1, axis=1)
        i = np.arange(2 * m)
        xs[:, i, i % m] += np.repeat([h, -h], m)
        vals = np.asarray(self.func(xs.reshape(-1, m)), dtype=complex)
        vals = vals.reshape((-1, 2 * m + 1) + vals.shape[1:])
        J = (vals[:, :m] - vals[:, m:-1]) / (2 * h)
        return tuple(a.reshape(x.shape[:-1] + a.shape[1:])
                     for a in (J, vals[:, -1]))


class VForm(SmoothMap):
    """Degree-q differential form with scalar or End(V) coefficients.

    value(x)[n] is the coefficient of dx_I for the n-th index I of
    combinations(range(m), degree).
    """

    def __init__(self, m, degree, func):
        super().__init__(m, func)
        self.degree = degree

    def evaluate(self, x, vectors):
        """omega_x(v_1, ..., v_q) at a point x (m,) on vectors (q, m), or at
        each point of a (P, m) stack on its own vectors (P, q, m), from one
        func call."""
        x = np.asarray(x, dtype=float)
        if np.shape(vectors) != x.shape[:-1] + (self.degree, self.m):
            raise PreconditionFailed(f"need {self.degree} vectors of length {self.m}")
        C = np.asarray(self.func(x.reshape(-1, self.m)), dtype=complex)
        out = contract(np.moveaxis(C, 1, 0),
                       np.reshape(vectors, (-1, self.degree, self.m)))
        return out.reshape(x.shape[:-1] + out.shape[1:])


@functools.cache
def _index_cols(m, q):
    """combinations(range(m), q) as an integer array (C(m, q), q), built once
    per (m, q)."""
    indices = list(combinations(range(m), q))
    return liecore.readonly(
        np.array(indices, dtype=int).reshape(len(indices), q))


def contract(C, vectors):
    """The q-form with coefficient array C on R^m, on vectors (..., q, m), one
    set v_1, ..., v_q per leading index: the sum over I of C_I det(v_r[I_c]),
    added in index order.  The leading axes of vectors line up with the
    first axes of C after the index axis (a point axis of both, say)."""
    V = np.asarray(vectors, dtype=complex)
    q, m = V.shape[-2:]
    dets = np.moveaxis(
        np.linalg.det(V[..., _index_cols(m, q)].swapaxes(-3, -2)), -1, 0)
    dets = dets.reshape(dets.shape + (1,) * (np.ndim(C) - dets.ndim))
    out = np.zeros((), dtype=complex)
    for c, d in zip(C, dets, strict=True):
        out = out + c * d
    return out


@functools.cache
def wedge_table(m, q1, q2, /):
    """Shuffle table of the wedge of a q1- with a q2-form on R^m: read-only
    integer arrays (ia, ib, sign) of shape (C(m, q1+q2), C(q1+q2, q1)),
    built once per (m, q1, q2).  Row n lists the splits K = I1 u I2 of the
    n-th (q1+q2)-index K, I1 running through combinations(K, q1): ia, ib
    are the positions of I1, I2 among the q1- and q2-indices,
    sign = (-1)^(sum_a (position of I1[a] in K) - a)."""
    pos = {idx: n for q in (q1, q2)
           for n, idx in enumerate(combinations(range(m), q))}
    splits = list(combinations(range(q1 + q2), q1))
    rows = [(pos[tuple(K[a] for a in p)],
             pos[tuple(k for a, k in enumerate(K) if a not in p)],
             (-1) ** (sum(p) - sum(range(q1))))
            for K in combinations(range(m), q1 + q2) for p in splits]
    table = liecore.readonly(
        np.array(rows, dtype=int).reshape(-1, len(splits), 3))
    return tuple(table.transpose(2, 0, 1))


def _signed_sum(sign, terms):
    """sum_s sign[:, s] * terms[:, s], added split by split in table order
    (numpy's pairwise reduction would reorder sums of 8 or more terms)."""
    sign = sign.reshape(sign.shape + (1,) * (terms.ndim - 2))
    out = sign[:, 0] * terms[:, 0]
    for s in range(1, terms.shape[1]):
        out = out + sign[:, s] * terms[:, s]
    return out


def wedge_coeffs(table, A, B, mul):
    """Coefficient array of the wedge of forms with coefficient arrays A, B:
    table = wedge_table(m, deg A, deg B), mul multiplies coefficient stacks."""
    ia, ib, sign = table
    return _signed_sum(sign, mul(A[ia], B[ib]))


def bracket_pairs(a):
    """[a_i, a_j] over i < j, in combinations(range(m), 2) order, for a
    (..., m, d, d) stack a: the coefficients of 1/2 [alpha, alpha] for the
    1-form alpha = sum_i a_i dx_i, on axis -3, one a_i at a time."""
    m, k = a.shape[-3], 0
    out = np.empty(a.shape[:-3] + (m * (m - 1) // 2,) + a.shape[-2:], a.dtype)
    for i in range(m - 1):
        ai, aj = a[..., i:i + 1, :, :], a[..., i + 1:, :, :]
        out[..., k:k + m - 1 - i, :, :] = ai @ aj - aj @ ai
        k += m - 1 - i
    return out


def wedge_pairs(f, a):
    """f_i a_j - f_j a_i over i < j: the coefficients of phi ^ alpha for the
    scalar 1-form phi with coefficients f (..., m) and alpha = sum a_i dx_i."""
    ax = np.ndim(f) - 1
    i, j = _index_cols(np.shape(a)[ax], 2).T
    f = np.reshape(f, np.shape(f) + (1,) * (np.ndim(a) - ax - 1))
    return f.take(i, ax) * a.take(j, ax) - f.take(j, ax) * a.take(i, ax)


def curvature_form(omega: VForm) -> VForm:
    """Omega = d omega + 1/2 [omega, omega] for an End(V)-valued 1-form,
    whose differences and values at P points are one func call."""
    ia, ib, sign = wedge_table(omega.m, 1, 1)

    def coeffs(xs):
        J, om = omega._fd_jacobian(xs)
        d = _signed_sum(sign, np.moveaxis(J[:, ia, ib], 0, 2))
        return np.moveaxis(d, 1, 0) + bracket_pairs(om)

    return VForm(omega.m, 2, coeffs)


def combination_curvature(terms):
    """Curvature coefficients of omega = sum_c w_c omega_c at a point.

    terms yields (w_c, dw_c, omega_c, Omega_c): the weight, its differential
    (m,), the 1-form coefficients (m, d, d) and the curvature coefficients
    (C(m, 2), d, d) of omega_c, each with a leading axis of P on a stack of
    P points.  The product rule gives

        Omega = sum_c [dw_c ^ omega_c + w_c (Omega_c - 1/2 [omega_c, omega_c])]
                + 1/2 [omega, omega],

    which does not need sum_c w_c = 1.  A term whose connection is the
    scalar 0.0 (the zero connection) adds only w_c Omega_c.
    """
    omega = Omega = 0.0
    for w, dw, om, Om in terms:
        w = np.reshape(w, np.shape(w) + (1, 1, 1))
        if np.ndim(om) == 0:
            Omega = Omega + w * Om
            continue
        omega = omega + w * om
        Omega = Omega + wedge_pairs(dw, om) + w * (Om - bracket_pairs(om))
    return Omega + bracket_pairs(omega) if np.ndim(omega) else Omega


def vertical_vectors(proj: SmoothMap, xs):
    """Orthonormal bases of ker d(proj) at a (P, m) stack of points, as the
    rows of a (P, k, m) array from one SVD: singular values at most 1e-9
    max(1, largest) count as zero, and the rank must not change."""
    J = proj.jacobian(np.asarray(xs, dtype=float))   # (P, m) + value shape
    u, s, vt = np.linalg.svd(J.reshape(len(J), proj.m, -1).swapaxes(-1, -2))
    rank = np.sum(s > 1e-9 * np.maximum(
        1.0, s.max(axis=-1, initial=0.0, keepdims=True)), axis=-1)
    liecore.require(rank == rank[0], "the projection's Jacobian changes rank",
                    PreconditionFailed)
    return vt[:, rank[0]:].conj()


def vertical_contraction(forms, verts, rng):
    """Largest entries of |form(v, w_2, ..., w_q)| over the rows v of verts
    (P, k, m), one per (C, q) of forms, C (P, C(m, q), ...) the coefficients
    of a degree-q form at the P points of a stack; the w are standard normal
    draws of one rng call, point by point, each form's q - 1 per v in turn."""
    P, k, m = np.shape(verts)
    ends = np.cumsum([k * (q - 1) * m for _, q in forms])
    draws = np.split(rng.standard_normal((P, ends[-1])), ends[:-1], axis=1)
    out = [contract(np.moveaxis(C, 1, 0)[:, :, None], np.concatenate(
        [verts[:, :, None], w.reshape(P, k, q - 1, m)], axis=2))
        for (C, q), w in zip(forms, draws)]
    return [float(np.max(np.abs(o), initial=0.0)) for o in out]


def point_stack(points, m):
    """points (m,) or (..., m) as (P, m) floats; another width is refused."""
    xs = np.asarray(points, dtype=float)
    if xs.size and xs.shape[-1:] != (m,):
        raise PreconditionFailed(f"expected width {m}, got shape {xs.shape}")
    return xs.reshape(-1, m)


def pifiber_check(form: VForm, proj: SmoothMap, points, tol=1e-6, rng=None):
    """Check that contracting with d(proj)-vertical vectors annihilates form.

    Returns a report dict; fails (ok=False) if any vertical contraction
    exceeds tol.  The form's coefficients at the points are one func call.
    """
    rng = rng or np.random.default_rng(0)
    xs = point_stack(list(points), form.m)
    worst = vertical_contraction(
        [(np.asarray(form.func(xs), dtype=complex), form.degree)],
        vertical_vectors(proj, xs), rng)[0] if len(xs) else 0.0
    return {"max_vertical_contraction": worst, "tol": tol, "ok": worst <= tol,
            "points": len(xs)}
