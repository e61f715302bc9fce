"""Invariant connections on homogeneous bundles: their classification and
their curvature at the identity.

A connection on the bundle attached to a K-representation lambda is stored
through its value omega_0 on the Lie algebra at the identity; evaluation
anywhere else is by left translation.  The classification conditions are

    (1)  omega_0(kdot) = lambda'(kdot)            for kdot in Lie(K),
    (2)  omega_0([gdot, kdot]) = [omega_0(gdot), lambda'(kdot)],

and the curvature at the identity, over the pairs i < j of a (..., m, N, N)
stack t of directions in combinations(range(m), 2) order, is the structure
equation (:func:`structure_curvature`, which the Siegel model also calls)

    Omega_0(t_i, t_j) = [omega_0 t_i, omega_0 t_j] - omega_0([t_i, t_j]).

omega_0 takes a matrix or a (..., N, N) stack and returns (..., d, d); the
flatness test is one stacked evaluation over the basis, and one pass of
:func:`condition_residuals` classifies a (..., k, d, d) stack of tables.
The classifier's per-spec tables are shared read-only; no connection is.

The connection induced from a boundary stratum, lambda_1'(ldot) +
Ad(lambda_1(g_l^{-1})) omega_1(L_{g_h} hdot), is
:meth:`siegel.SiegelModel.omega_XY` on the Siegel space: the Ad term is
omega_1 itself, as lambda_1(G_l) commutes with G_h; the curvature is omega_1's.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import exterior as ext, liecore
from .errors import ConditionViolation, PreconditionFailed

TOL = 1e-9


def structure_curvature(F, t):
    """(F(t), [F t_i, F t_j] - F([t_i, t_j]) over i < j) for a linear F on
    a (..., m, N, N) stack t: the value and the curvature of the
    left-invariant connection F o theta on the directions t of theta."""
    om = F(t)
    curv = ext.bracket_pairs(om)
    curv -= F(ext.bracket_pairs(t))
    return om, curv


@functools.cache
def _tables(spec):
    """Read-only (solver, kb, c) per spec: the span_solver of its basis g,
    the basis kb of Lie(K), the coordinates c of each kdot and [g, kdot]."""
    basis = liecore.algebra_basis(spec)
    solver = liecore.span_solver(basis)
    kb = liecore.readonly(np.array(k_basis(spec)))
    X = np.concatenate([kb, liecore.bracket(basis[:, None], kb)
                        .reshape((-1,) + kb.shape[1:])])
    return solver, kb, liecore.readonly(liecore.algebra_coords(
        solver, X, 1e-8, "matrix not in the spanned Lie algebra"))


def _cartan_basis(spec, part):
    """The Cartan parts (0: Lie(K), 1: p) of the elementary basis come in
    +- pairs with disjoint supports: the first nonzero part of each pair,
    divided by its norm, with every zero entry stored as +0.0."""
    out = []
    for X in liecore.cartan_split(spec, liecore.algebra_basis(spec))[part]:
        if X.any() and not any((X * Y).any() for Y in out):
            out.append(X / np.linalg.norm(X) + 0.0)
    return out


def k_basis(spec):
    """Orthonormal basis of Lie(K), from the elementary basis's K parts."""
    return _cartan_basis(spec, 0)


def p_basis(spec):
    return _cartan_basis(spec, 1)


@dataclass
class InvariantConnection:
    spec: object
    rep: object
    values: np.ndarray   # (k, d, d): omega_0 on each element of basis
    basis = property(lambda self: liecore.algebra_basis(self.spec))

    def __post_init__(self):
        self._table = self.values.reshape(len(self.values), -1)

    def omega0(self, X):
        c = liecore.algebra_coords(_tables(self.spec)[0], X, 1e-8,
                                   "matrix not in the spanned Lie algebra")
        return (c @ self._table).reshape(c.shape[:-1] + self.values.shape[1:])

    def curvature0(self, t):
        """Omega_0 over the pairs i < j of a (..., m, N, N) stack t of
        directions at the identity: (..., C(m, 2), d, d)."""
        return structure_curvature(self.omega0, t)[1]

    def is_flat(self):
        curv = self.curvature0(self.basis)
        return float(np.max(np.abs(curv), initial=0.0)) <= TOL


def condition_residuals(spec, rep, values):
    """(..., 2) residuals of conditions (1) and (2) on a (..., k, d, d) stack
    of tables of omega_0 on the ambient basis, both linear in the table: the
    coordinates of kdot and of [g, kdot], solved once per spec, meet every
    flattened table in one matmul, so a NaN rejects its own table alone."""
    _, kb, c = _tables(spec)
    lk, m = rep.lam_alg(kb), len(kb)
    values = np.asarray(values, dtype=complex)
    om = (c @ values.reshape(values.shape[:-2] + (-1,))).reshape(
        values.shape[:-3] + (-1,) + values.shape[-2:])
    # (1): omega_0(kdot) = lambda'(kdot); (2): omega_0([g, kdot]) =
    # [omega_0(g), lambda'(kdot)] over all pairs
    og = values[..., None, :, :]
    rhs = (og @ lk - lk @ og).reshape(om.shape[:-3] + (-1,) + lk.shape[1:])
    err = [om[..., :m, :, :] - lk, om[..., m:, :, :] - rhs]
    return np.stack([np.abs(e).max(axis=(-3, -2, -1)) for e in err], axis=-1)


def make_invariant_connection(spec, rep, values) -> InvariantConnection:
    """Validate the classification conditions; raise ConditionViolation if not.

    values: omega_0 on each element of the ambient algebra basis, one
    (rep.dim, rep.dim) matrix each; any other count or shape raises
    PreconditionFailed.
    """
    basis = liecore.algebra_basis(spec)
    values = [np.asarray(v, dtype=complex) for v in values]
    if (len(values) != len(basis)
            or any(v.shape != (rep.dim, rep.dim) for v in values)):
        raise PreconditionFailed(
            f"expected {len(basis)} values of shape ({rep.dim}, {rep.dim}), "
            f"got {[v.shape for v in values]}")
    values = np.array(values)
    r = dict(enumerate(condition_residuals(spec, rep, values).tolist(), 1))
    bad = [n for n in r if not r[n] <= TOL]
    if bad:
        raise ConditionViolation(bad, [r[n] for n in bad])
    return InvariantConnection(spec, rep, values)


def nomizu_connection(spec, rep) -> InvariantConnection:
    """omega_0 = lambda' o (projection to Lie(K)); curvature -lambda'([p1,p2])."""
    k = liecore.cartan_split(spec, liecore.algebra_basis(spec))[0]
    return make_invariant_connection(spec, rep, rep.lam_alg(k))

