"""Invariant connections on homogeneous bundles, and the checks that
parabolic induction needs from them.

A connection on the bundle attached to a K-representation lambda is stored
through its value omega_0 on the Lie algebra at the identity; evaluation
anywhere else is by left translation.  The classification conditions are

    (1)  omega_0(kdot) = lambda'(kdot)            for kdot in Lie(K),
    (2)  omega_0([gdot, kdot]) = [omega_0(gdot), lambda'(kdot)],

and the curvature at the identity is

    Omega_0(g1, g2) = [omega_0 g1, omega_0 g2] - omega_0([g1, g2]).

The induced connection itself, lambda_1'(ldot) + Ad(lambda_1(g_l^{-1}))
omega_1(L_{g_h} hdot), is evaluated by :meth:`siegel.SiegelModel.omega_XY`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import hcrepr, liecore
from .errors import CommutationHypothesisFailed, ConditionViolation

TOL = 1e-9


def k_basis(spec):
    """Orthonormalized basis of Lie(K) inside the ambient algebra."""
    basis = liecore.algebra_basis(spec)
    ks = [liecore.cartan_split(spec, b)[0] for b in basis]
    return liecore._orthonormalize(ks)


def p_basis(spec):
    basis = liecore.algebra_basis(spec)
    ps = [liecore.cartan_split(spec, b)[1] for b in basis]
    return liecore._orthonormalize(ps)


@dataclass
class InvariantConnection:
    spec: object
    rep: object
    basis: list          # ambient algebra basis
    values: list         # omega_0 on each basis element, End(V) matrices

    def omega0(self, X):
        c = liecore.algebra_coords(self.spec, X, basis=self.basis)
        out = None
        for ci, v in zip(c, self.values):
            t = ci * v
            out = t if out is None else out + t
        return out

    def curvature0(self, X, Y):
        a, b = self.omega0(X), self.omega0(Y)
        return a @ b - b @ a - self.omega0(liecore.bracket(X, Y))

    def is_flat(self, tol=1e-9):
        worst = 0.0
        for i, X in enumerate(self.basis):
            for Y in self.basis[i + 1:]:
                worst = max(worst, float(np.max(np.abs(self.curvature0(X, Y)))))
        return worst <= tol


def make_invariant_connection(spec, rep, values, basis=None, tol=TOL) -> InvariantConnection:
    """Validate the classification conditions; raise ConditionViolation if not.

    values: omega_0 on each element of the ambient algebra basis.
    """
    if basis is None:
        basis = liecore.algebra_basis(spec)
    conn = InvariantConnection(spec, rep, basis, [np.asarray(v, dtype=complex) for v in values])
    kb = k_basis(spec)
    bad = []
    residuals = []
    # condition (1)
    r1 = 0.0
    for kdot in kb:
        r1 = max(r1, float(np.max(np.abs(conn.omega0(kdot) - rep.lam_alg(kdot)))))
    if r1 > tol:
        bad.append(1)
        residuals.append(r1)
    # condition (2)
    r2 = 0.0
    for g in basis:
        og = conn.omega0(g)
        for kdot in kb:
            lk = rep.lam_alg(kdot)
            lhs = conn.omega0(liecore.bracket(g, kdot))
            rhs = og @ lk - lk @ og
            r2 = max(r2, float(np.max(np.abs(lhs - rhs))))
    if r2 > tol:
        bad.append(2)
        residuals.append(r2)
    if bad:
        raise ConditionViolation(bad, residuals)
    return conn


def nomizu_connection(spec, rep) -> InvariantConnection:
    """omega_0 = lambda' o (projection to Lie(K)); curvature -lambda'([p1,p2])."""
    basis = liecore.algebra_basis(spec)
    values = [rep.lam_alg(liecore.cartan_split(spec, b)[0]) for b in basis]
    return make_invariant_connection(spec, rep, values, basis=basis)


def flat_connection_from_hom(spec, rep, hom_values, basis=None, tol=TOL):
    """Connection given by a Lie algebra homomorphism extending lambda'."""
    conn = make_invariant_connection(spec, rep, hom_values, basis=basis, tol=tol)
    return conn


# ---------------------------------------------------------------------------
# parabolic induction


def nomizu_base(pd, rep):
    """Nomizu connection on the hermitian Levi factor, as a base for induction.

    The bundle over the small domain carries the canonical extension of the
    restricted representation, so the value on hdot in Lie(G_h) is
    lambda_1' of the Lie(K_h)-projection of hdot.
    """
    ext = hcrepr.canonical_extension(rep, pd.flag[-1])

    def base(g_h, hdot):
        k, _ = liecore.cartan_split(pd.spec, hdot)
        return ext.alg(k)

    return base


def check_ad_commutation(pd, rep, base_omega0, generator_scale=0.7, tol=TOL):
    """Hypothesis for curvature descent / multi-step induction.

    Checks Ad(lambda_1(exp(t l))) base = base for generators l of the linear
    Levi factor.  Raises CommutationHypothesisFailed beyond tol.
    """
    r = pd.flag[-1]
    ext = hcrepr.canonical_extension(rep, r)
    worst = 0.0
    for l in pd.basis_l:
        g = liecore.exp_grp(pd.spec, generator_scale * l)
        lam = ext(g)
        lam_inv = np.linalg.inv(lam)
        for h in pd.basis_h:
            v = base_omega0(None, h) if base_omega0 else None
            if v is None:
                continue
            worst = max(worst, float(np.max(np.abs(lam @ v @ lam_inv - v))))
    if worst > tol:
        raise CommutationHypothesisFailed(f"Ad commutation residual {worst}")
    return worst


def chain_difference_nilpotent(pd_q, rep, udot_diff, tol=1e-9):
    """lambda_1'(udot) for udot in Lie(U_{P_1 Q}); nilpotency is asserted.

    This is the difference term between two chains inducing from the same
    base; it is strictly triangular in the standard representations.
    """
    r = pd_q.flag[-1]
    ext = hcrepr.canonical_extension(rep, r)
    val = ext.alg(udot_diff)
    d = val.shape[0]
    p = val.copy()
    for _ in range(d - 1):
        p = p @ val
    if float(np.max(np.abs(p))) > tol * max(1.0, float(np.max(np.abs(val))) ** d):
        raise CommutationHypothesisFailed("chain difference term is not nilpotent")
    return val
